//! `distperm serve` — a persistent, fault-tolerant query service.
//!
//! Builds an index over a vector database, then reads line-delimited
//! query batches from stdin until EOF, answering on stdout through
//! [`dp_index::serve::serve_session`]: atomic-cursor dispatch, per-query
//! panic isolation, deadline-aware degradation to budgeted queries, and
//! bounded-queue admission control.  Protocol:
//!
//! ```text
//! begin b1 deadline-ms=50 frac=0.25
//! knn 3 0.1 0.2 0.8
//! range 0.5 frac=0.4 0.0 0.0 0.0
//! end
//! ```
//!
//! Malformed lines get `error` replies and the session keeps serving;
//! EOF shuts down cleanly with a `bye` summary.  The hidden
//! `--fault-panics i,j` option injects panics at the given query indices
//! of every batch — it exists for the robustness e2e tests and is not a
//! serving feature.

use crate::args::ParsedArgs;
use crate::data::{self, Database, VectorMetricSpec};
use crate::CliError;
use dp_index::serve::{serve_session, FaultPlan, SessionConfig, SessionSummary};
use dp_index::{
    AnyIndex, ApproxSearcher, FlatDistPermIndex, IndexSpec, PivotSelection, ProximityIndex,
};
use dp_metric::{BatchDistance, F64Dist, LInf, Lp, Metric, L1, L2};
use dp_store::StoredIndex;
use std::borrow::Borrow;
use std::io::{BufRead, Write};
use std::path::Path;
use std::time::Duration;

struct ServeOptions {
    config: SessionConfig,
    faults: FaultPlan,
}

fn parse_options(parsed: &ParsedArgs) -> Result<ServeOptions, CliError> {
    let threads = parsed.threads_or(2)?;
    let queue_capacity = parsed.usize_or("queue", 4)?;
    if queue_capacity == 0 {
        return Err(CliError::usage("--queue must be at least 1"));
    }
    let max_batch = parsed.usize_or("max-batch", 4096)?;
    if max_batch == 0 {
        return Err(CliError::usage("--max-batch must be at least 1"));
    }
    let soft_deadline = match parsed.str_opt("deadline-ms") {
        None => None,
        Some(s) => {
            let ms: u64 = s
                .parse()
                .map_err(|e| CliError::usage(format!("bad value for --deadline-ms: {e}")))?;
            Some(Duration::from_millis(ms))
        }
    };
    let degrade_frac = parsed.f64_or("degrade-frac", 0.25)?;
    if !(0.0..=1.0).contains(&degrade_frac) {
        return Err(CliError::usage(format!(
            "--degrade-frac must be in [0,1], got {degrade_frac}"
        )));
    }
    let faults = FaultPlan::none().panic_on_all(parsed.usize_list_or("fault-panics", &[])?);
    Ok(ServeOptions {
        config: SessionConfig { threads, queue_capacity, max_batch, soft_deadline, degrade_frac },
        faults,
    })
}

/// Runs `distperm serve` reading from stdin.
pub fn run(parsed: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    run_with_input(parsed, std::io::BufReader::new(std::io::stdin()), out)
}

/// [`run`] with an explicit input stream (the testable surface).
pub fn run_with_input<R: BufRead + Send>(
    parsed: &ParsedArgs,
    input: R,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    if parsed.str_opt("load").is_some() {
        return run_loaded(parsed, input, out);
    }
    let spec = IndexSpec::parse(parsed.require_str("index")?)
        .map_err(|e| CliError::usage(e.to_string()))?;
    let options = parse_options(parsed)?;
    let db = data::load(parsed, options.config.threads)?;
    parsed.finish()?;

    match db {
        Database::Vectors { dim, data, metric } => match metric {
            VectorMetricSpec::L1 => serve_vectors(L1, spec, dim, data, input, &options, out),
            VectorMetricSpec::L2 => serve_vectors(L2, spec, dim, data, input, &options, out),
            VectorMetricSpec::LInf => serve_vectors(LInf, spec, dim, data, input, &options, out),
            VectorMetricSpec::Lp(p) => {
                serve_vectors(Lp::new(p), spec, dim, data, input, &options, out)
            }
        },
        Database::Strings { .. } => Err(CliError::usage(
            "serve handles vector databases only; use `distperm search` for strings",
        )),
    }
}

/// The `--load` fast path: the index comes out of a `dp-store` container
/// instead of being rebuilt, so service starts without the k·n-distance
/// build phase and answers bit-identically to an in-process build.
fn run_loaded<R: BufRead + Send>(
    parsed: &ParsedArgs,
    input: R,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let store_path = parsed.require_str("load")?.to_string();
    for conflicting in ["vectors", "strings", "metric", "index"] {
        if parsed.str_opt(conflicting).is_some() {
            return Err(CliError::usage(format!(
                "--load reads the database, metric and index from the store; drop --{conflicting}"
            )));
        }
    }
    let options = parse_options(parsed)?;
    parsed.finish()?;

    let stored = dp_store::load_store(Path::new(&store_path))
        .map_err(|e| CliError::data(format!("{store_path}: {e}")))?;
    let dim = stored.dim();
    let name = stored.spec_name();
    match stored {
        StoredIndex::L1(index) => serve_loaded(&index, &name, dim, input, &options, out),
        StoredIndex::L2(index) => serve_loaded(&index, &name, dim, input, &options, out),
        StoredIndex::L2Squared(index) => serve_loaded(&index, &name, dim, input, &options, out),
        StoredIndex::LInf(index) => serve_loaded(&index, &name, dim, input, &options, out),
        StoredIndex::Lp(index) => serve_loaded(&index, &name, dim, input, &options, out),
    }
}

fn serve_loaded<M, R>(
    index: &FlatDistPermIndex<M>,
    name: &str,
    dim: usize,
    input: R,
    options: &ServeOptions,
    out: &mut dyn Write,
) -> Result<(), CliError>
where
    M: BatchDistance + Sync,
    R: BufRead + Send,
{
    write_banner(out, name, index.len(), dim)?;
    let summary = run_session::<[f64], _, _>(index, dim, input, out, options)?;
    write_summary(out, &summary)
}

fn serve_vectors<M, R>(
    metric: M,
    spec: IndexSpec,
    dim: usize,
    data: dp_datasets::VectorSet,
    input: R,
    options: &ServeOptions,
    out: &mut dyn Write,
) -> Result<(), CliError>
where
    M: Metric<Vec<f64>, Dist = F64Dist> + BatchDistance + Copy + Sync,
    R: BufRead + Send,
{
    let name = spec.name();
    if let IndexSpec::FlatDistPerm { k } = spec {
        if k > data.len() {
            return Err(CliError::usage(format!(
                "index spec `{name}` asks for {k} pivots from {} points",
                data.len()
            )));
        }
        let n = data.len();
        let index = FlatDistPermIndex::build(
            metric,
            data,
            k,
            PivotSelection::MaxMin,
            options.config.threads,
        );
        write_banner(out, &name, n, dim)?;
        let summary = run_session::<[f64], _, _>(&index, dim, input, out, options)?;
        return write_summary(out, &summary);
    }
    let n = data.len();
    let index = AnyIndex::build(spec, metric, data.to_nested(), PivotSelection::MaxMin)
        .map_err(|e| CliError::usage(e.to_string()))?;
    write_banner(out, &name, n, dim)?;
    let summary = run_session::<Vec<f64>, _, _>(&index, dim, input, out, options)?;
    write_summary(out, &summary)
}

fn run_session<'i, P, I, R>(
    index: &'i I,
    dim: usize,
    input: R,
    out: &mut dyn Write,
    options: &ServeOptions,
) -> Result<SessionSummary, CliError>
where
    P: ?Sized + Sync,
    Vec<f64>: Borrow<P>,
    I: ProximityIndex<P, Dist = F64Dist>,
    I::Searcher<'i>: ApproxSearcher<P>,
    R: BufRead + Send,
{
    Ok(serve_session(index, dim, input, out, &options.config, &options.faults)?)
}

fn write_banner(out: &mut dyn Write, name: &str, n: usize, dim: usize) -> Result<(), CliError> {
    writeln!(out, "serving index {name} over n = {n} (dim {dim})")?;
    Ok(())
}

fn write_summary(out: &mut dyn Write, summary: &SessionSummary) -> Result<(), CliError> {
    writeln!(
        out,
        "session: {} batches, {} answered ({} degraded), {} failed, {} shed, {} protocol errors",
        summary.batches,
        summary.answered(),
        summary.degraded,
        summary.failed,
        summary.shed,
        summary.parse_errors
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_db(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dp_cli_serve_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("db.vec");
        let data = dp_datasets::uniform_unit_cube(500, 2, 7);
        dp_datasets::sisap_io::write_vectors_file(&path, 2, &data).expect("write");
        path
    }

    fn serve(tag: &str, argv_tail: &[&str], input: &str) -> Result<String, CliError> {
        let path = temp_db(tag);
        let mut argv: Vec<String> =
            vec!["serve".into(), "--vectors".into(), path.to_str().unwrap().into()];
        argv.extend(argv_tail.iter().map(std::string::ToString::to_string));
        let parsed = ParsedArgs::parse(&argv).expect("argv");
        let mut out = Vec::new();
        let result = run_with_input(&parsed, input.as_bytes(), &mut out);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
        result.map(|()| String::from_utf8(out).expect("utf8"))
    }

    #[test]
    fn serves_a_batch_and_shuts_down_on_eof() {
        let input = "begin b1\nknn 2 0.5 0.5\nend\n";
        let text = serve("basic", &["--index", "distperm:4"], input).unwrap();
        assert!(text.contains("serving index distperm"), "{text}");
        assert!(text.contains("ready dim=2"), "{text}");
        assert!(text.contains("done b1 ok=1"), "{text}");
        assert!(text.contains("bye batches=1"), "{text}");
        assert!(text.contains("session: 1 batches, 1 answered"), "{text}");
    }

    #[test]
    fn flatperm_spec_serves_and_validates_pivots() {
        let input = "begin f\nknn 1 0.2 0.8\nend\n";
        let text = serve("flat", &["--index", "flatperm:4"], input).unwrap();
        assert!(text.contains("serving index flatperm"), "{text}");
        assert!(text.contains("done f ok=1"), "{text}");

        // More pivots than points: the graceful usage check, not a
        // library panic.
        let dir = std::env::temp_dir().join(format!("dp_cli_serve_tiny_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("tiny.vec");
        let data = dp_datasets::uniform_unit_cube(10, 2, 3);
        dp_datasets::sisap_io::write_vectors_file(&path, 2, &data).expect("write");
        let argv = ["serve", "--vectors", path.to_str().unwrap(), "--index", "flatperm:20"];
        let parsed = ParsedArgs::parse(&argv).expect("argv");
        let mut out = Vec::new();
        let err = run_with_input(&parsed, input.as_bytes(), &mut out).unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("pivots"), "{err}");
    }

    #[test]
    fn garbage_input_cannot_kill_the_session() {
        let input = "nonsense\nbegin g\nknn 1 bad coords\nknn 1 0.4 0.4\nend\n";
        let text = serve("garbage", &["--index", "vptree"], input).unwrap();
        assert!(text.contains("error line=1 unknown verb"), "{text}");
        assert!(text.contains("error line=3 bad coordinate"), "{text}");
        assert!(text.contains("done g ok=1"), "{text}");
        assert!(text.contains("bye"), "{text}");
    }

    #[test]
    fn strings_database_is_a_usage_error() {
        let dir = std::env::temp_dir().join(format!("dp_cli_serve_str_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("db.txt");
        std::fs::write(&path, "alpha\nbeta\n").expect("write");
        let argv = ["serve", "--strings", path.to_str().unwrap(), "--index", "vptree"];
        let parsed = ParsedArgs::parse(&argv).expect("argv");
        let mut out = Vec::new();
        let err = run_with_input(&parsed, "".as_bytes(), &mut out).unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("vector databases only"), "{err}");
    }

    #[test]
    fn option_validation() {
        let input = "";
        for (tail, needle) in [
            (&["--index", "distperm:4", "--queue", "0"][..], "--queue"),
            (&["--index", "distperm:4", "--degrade-frac", "1.5"][..], "--degrade-frac"),
            (
                &["--index", "distperm:4", "--steal-chunk", "0"][..],
                "unknown option(s): --steal-chunk",
            ),
            (&["--index", "distperm:4", "--deadline-ms", "soon"][..], "--deadline-ms"),
            (&["--index", "nosuch"][..], "nosuch"),
        ] {
            let err = serve("opt", tail, input).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{tail:?}");
            assert!(err.to_string().contains(needle), "{tail:?}: {err}");
        }
    }

    #[test]
    fn injected_faults_are_contained_per_query() {
        let input = "begin f\nknn 1 0.1 0.1\nknn 1 0.9 0.9\nend\n";
        let text =
            serve("faults", &["--index", "distperm:4", "--fault-panics", "0"], input).unwrap();
        assert!(text.contains("failed 0 injected fault at query 0"), "{text}");
        assert!(text.contains("done f ok=1 degraded=0 failed=1"), "{text}");
        assert!(text.contains("session: 1 batches, 1 answered (0 degraded), 1 failed"), "{text}");
    }
}
