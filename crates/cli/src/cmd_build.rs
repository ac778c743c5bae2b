//! `distperm build` — build a flatperm index once and persist it.
//!
//! The command is the write half of the build-once/serve-many flow:
//! build a [`dp_index::FlatDistPermIndex`] over a vector database (the
//! same `PivotSelection::MaxMin` default the `search` and `serve`
//! flatperm paths use) and save it as a `dp-store` container, so later
//! `distperm search --load` / `distperm serve --load` runs skip the k·n
//! distance computations of a rebuild and answer **bit-identically** to
//! building in-process.
//!
//! Output is deliberately free of timing lines: two deterministic lines
//! describing the index and the file, so end-to-end tests can pin it.

use crate::args::ParsedArgs;
use crate::data::{self, Database, VectorMetricSpec};
use crate::CliError;
use dp_datasets::VectorSet;
use dp_index::{FlatDistPermIndex, PivotSelection};
use dp_metric::{LInf, Lp, L1, L2};
use dp_permutation::MAX_K;
use dp_store::{StoreMetric, FORMAT_VERSION};
use std::io::Write;
use std::path::Path;

/// Runs `distperm build`.
pub fn run(parsed: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let threads = parsed.threads_or(4)?;
    let db = data::load(parsed, threads)?;
    let out_path = parsed.require_str("out")?.to_string();
    let k_arg = match parsed.str_opt("k") {
        None => None,
        Some(s) => Some(
            s.parse::<usize>().map_err(|e| CliError::usage(format!("bad value for --k: {e}")))?,
        ),
    };
    let sites = data::parse_sites(parsed, db.len())?;
    parsed.finish()?;

    let k = match (&sites, k_arg) {
        (Some(ids), Some(k)) if ids.len() != k => {
            return Err(CliError::usage(format!(
                "--k {k} disagrees with the {} explicit --sites",
                ids.len()
            )));
        }
        (Some(ids), _) => ids.len(),
        (None, Some(k)) => k,
        (None, None) => return Err(CliError::usage("missing site count: --k <sites> or --sites")),
    };
    if k == 0 {
        return Err(CliError::usage("--k must be at least 1"));
    }
    if k > MAX_K {
        return Err(CliError::usage(format!("--k must be at most {MAX_K}, got {k}")));
    }
    if k > db.len() {
        return Err(CliError::usage(format!("build asks for {k} sites from {} points", db.len())));
    }

    match db {
        Database::Vectors { data, metric, .. } => match metric {
            VectorMetricSpec::L1 => build_and_save(L1, data, sites, k, threads, &out_path, out),
            VectorMetricSpec::L2 => build_and_save(L2, data, sites, k, threads, &out_path, out),
            VectorMetricSpec::LInf => build_and_save(LInf, data, sites, k, threads, &out_path, out),
            VectorMetricSpec::Lp(p) => {
                build_and_save(Lp::new(p), data, sites, k, threads, &out_path, out)
            }
        },
        Database::Strings { .. } => Err(CliError::usage(
            "build persists vector databases only; string indexes rebuild quickly in-process",
        )),
    }
}

fn build_and_save<M: StoreMetric + Sync>(
    metric: M,
    data: VectorSet,
    sites: Option<Vec<usize>>,
    k: usize,
    threads: usize,
    out_path: &str,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let index = match sites {
        Some(ids) => FlatDistPermIndex::build_with_sites(metric, data, ids, threads),
        None => FlatDistPermIndex::build(metric, data, k, PivotSelection::MaxMin, threads),
    };
    let bytes = dp_store::save_store(&index, Path::new(out_path))
        .map_err(|e| CliError::data(format!("{out_path}: {e}")))?;
    writeln!(
        out,
        "built flatperm:{} over n = {} (dim {}, metric {})",
        index.k(),
        index.len(),
        index.points().dim(),
        index.metric().metric_tag().name()
    )?;
    writeln!(out, "store: {out_path} ({bytes} bytes, format v{FORMAT_VERSION})")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dp_cli_build_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn write_db(dir: &std::path::Path, n: usize) -> std::path::PathBuf {
        let path = dir.join("db.vec");
        let data = dp_datasets::uniform_unit_cube(n, 3, 11);
        dp_datasets::sisap_io::write_vectors_file(&path, 3, &data).expect("write");
        path
    }

    fn run_to_string(argv: &[&str]) -> Result<String, CliError> {
        let argv: Vec<String> = argv.iter().map(std::string::ToString::to_string).collect();
        let mut out = Vec::new();
        run(&argv, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    #[test]
    fn build_writes_a_loadable_store() {
        let dir = temp_dir("ok");
        let db = write_db(&dir, 300);
        let store = dir.join("idx.dps");
        let text = run_to_string(&[
            "build",
            "--vectors",
            db.to_str().unwrap(),
            "--out",
            store.to_str().unwrap(),
            "--k",
            "6",
            "--threads",
            "1",
        ])
        .unwrap();
        assert!(text.contains("built flatperm:6 over n = 300 (dim 3, metric L2)"), "{text}");
        assert!(text.contains("format v1"), "{text}");
        let loaded = dp_store::load_store(&store).expect("loadable");
        assert_eq!((loaded.len(), loaded.k(), loaded.dim()), (300, 6, 3));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn build_usage_errors() {
        let dir = temp_dir("usage");
        let db = write_db(&dir, 20);
        let f = db.to_str().unwrap();
        let store = dir.join("idx.dps");
        let s = store.to_str().unwrap();
        for (argv, needle) in [
            (vec!["build", "--vectors", f, "--out", s], "--k"),
            (vec!["build", "--vectors", f, "--out", s, "--k", "0"], "at least 1"),
            (vec!["build", "--vectors", f, "--out", s, "--k", "40"], "at most"),
            (vec!["build", "--vectors", f, "--out", s, "--k", "25"], "25 sites from 20"),
            (vec!["build", "--vectors", f, "--out", s, "--k", "3", "--sites", "0,1"], "disagrees"),
            (vec!["build", "--vectors", f, "--k", "3"], "--out"),
        ] {
            let err = run_to_string(&argv).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{argv:?}");
            assert!(err.to_string().contains(needle), "{argv:?}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn build_rejects_strings_and_reports_bad_paths() {
        let dir = temp_dir("neg");
        let txt = dir.join("db.txt");
        std::fs::write(&txt, "alpha\nbeta\ngamma\n").expect("write");
        let err = run_to_string(&[
            "build",
            "--strings",
            txt.to_str().unwrap(),
            "--out",
            dir.join("x.dps").to_str().unwrap(),
            "--k",
            "2",
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("vector databases only"), "{err}");

        let db = write_db(&dir, 30);
        let err = run_to_string(&[
            "build",
            "--vectors",
            db.to_str().unwrap(),
            "--out",
            dir.join("no/such/dir/x.dps").to_str().unwrap(),
            "--k",
            "3",
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 1, "missing directory is a data error: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explicit_sites_round_trip() {
        let dir = temp_dir("sites");
        let db = write_db(&dir, 50);
        let store = dir.join("idx.dps");
        let text = run_to_string(&[
            "build",
            "--vectors",
            db.to_str().unwrap(),
            "--out",
            store.to_str().unwrap(),
            "--sites",
            "3,1,4",
            "--metric",
            "l1",
            "--threads",
            "1",
        ])
        .unwrap();
        assert!(text.contains("built flatperm:3 over n = 50 (dim 3, metric L1)"), "{text}");
        let loaded = dp_store::load_store(&store).expect("loadable");
        assert_eq!(loaded.metric_tag(), dp_store::MetricTag::L1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
