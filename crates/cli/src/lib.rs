//! # dp-cli — the `distperm` command-line tool
//!
//! A front end over the whole workspace for users who want the paper's
//! measurements on *their* data without writing Rust:
//!
//! ```text
//! distperm generate --kind uniform --n 100000 --dim 4 --seed 1 --out db.vec
//! distperm count    --vectors db.vec --metric l2 --k 8
//! distperm search   --vectors db.vec --queries q.vec --index flatperm:12 --knn 5 --threads 8
//! distperm survey   --vectors db.vec --metric l2 --ks 4,8,12
//! distperm theory   --d 4 --k 8
//! distperm table1   --dmax 10 --kmax 12
//! distperm figures  --out figures/
//! ```
//!
//! Files use the SISAP library's ASCII formats
//! ([`dp_datasets::sisap_io`]), so the original sample databases — when
//! available — run through the same commands as the synthetic analogues.
//!
//! The library surface ([`run`]) takes argv and a writer, so every
//! command is testable without spawning a process.

#![forbid(unsafe_code)]

pub mod args;
mod cmd_build;
mod cmd_count;
mod cmd_figures;
mod cmd_generate;
mod cmd_search;
mod cmd_serve;
mod cmd_survey;
mod cmd_table1;
mod cmd_theory;
pub mod data;

use std::fmt;
use std::io::Write;

/// Errors surfaced to the user with an exit code.
#[derive(Debug)]
pub enum CliError {
    /// The command line is malformed; print usage.
    Usage(String),
    /// Input data could not be loaded or is inconsistent.
    Data(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl CliError {
    pub(crate) fn usage(msg: impl Into<String>) -> Self {
        CliError::Usage(msg.into())
    }

    pub(crate) fn data(msg: impl Into<String>) -> Self {
        CliError::Data(msg.into())
    }

    /// Process exit code for this error class.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Data(_) => 1,
            CliError::Io(_) => 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Data(m) => write!(f, "data error: {m}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
distperm — distance-permutation measurements (Skala, SISAP'08/JDA 2009)

USAGE: distperm <command> [options]

COMMANDS:
  theory    exact counts and bounds for one (d, k)
            --d <dim> --k <sites>
  table1    the paper's Table 1, N_{d,2}(k)
            [--dmax 10] [--kmax 12] (any size; exact big-integer arithmetic)
  generate  write a synthetic database in SISAP ASCII format
            --kind uniform|gaussian|clustered|curve|colors|nasa|dictionary|genes
            --n <count> --out <file> [--dim <d>] [--seed <s>]
            [--language english] [--std 1.0] [--clusters 8] [--spread 0.05]
            [--maxlen 40]
  count     count distinct distance permutations in a database file
            --vectors <file>|--strings <file> --k <sites>
            [--metric l2|l1|linf|lp:<p>|levenshtein|hamming|prefix]
            [--seed <s>] [--sites 0,5,9] [--threads <t>] [--prefix-len <l>]
            (--threads 4 by default; a --vectors file is parsed on the
            same workers)
  survey    full report: rho, counts, storage costs, dimension estimates
            (vector databases run through the flat batched engine)
            --vectors <file>|--strings <file> [--metric …] [--ks 4,8,12]
            [--seed <s>] [--rho-pairs 20000] [--threads 1  (a --vectors
            file is parsed on the same workers)]
  build     build a flatperm index once and persist it as a store file
            --vectors <db> --out <store> (--k <sites> | --sites 0,5,9)
            [--metric l2|l1|linf|lp:<p>] [--threads 4  (the file is
            parsed on the same workers)]
  search    build an index by spec and serve a query file in parallel
            --vectors <db>|--strings <db> --queries <file> --index <spec>
            [--metric …] [--knn 1 | --radius <r>] [--frac 1.0]
            [--threads 4  (vector database and query files are parsed
            on the same workers)] [--quiet]
            specs: linear aesa laesa[:k] iaesa[:k] distperm[:k]
                   prefixperm[:k[:l]] flatperm[:k] vptree ghtree bktree
            or: --load <store> --queries <file> … (serve a store written
            by `build`; database, metric and index come from the file)
  serve     persistent fault-tolerant query service over stdin/stdout
            --vectors <db> --index <spec> | --load <store>
            [--metric …] [--threads 2  (a --vectors file is parsed on
            the same workers)]
            [--queue 4] [--max-batch 4096] [--deadline-ms <ms>]
            [--degrade-frac 0.25]
            protocol: `begin <id> [deadline-ms=…] [frac=…]`, then
            `knn <k> <coords…>` / `range <r> <coords…>`, then `end`;
            EOF shuts down cleanly
  figures   regenerate the paper's Figures 1–4 (PPM + SVG)
            [--out figures/] [--size 640]
  help      this text
";

/// One-line usage synopsis per command, printed on usage errors.
pub fn usage_line(command: &str) -> Option<&'static str> {
    Some(match command {
        "theory" => "distperm theory --d <dim> --k <sites>",
        "table1" => "distperm table1 [--dmax 10] [--kmax 12]",
        "build" => "distperm build --vectors <db> --out <store> (--k <sites> | --sites 0,5,9) [--metric <m>] [--threads <t>]",
        "generate" => "distperm generate --kind <kind> --n <count> --out <file> [--dim <d>] [--seed <s>]",
        "count" => "distperm count --vectors <file>|--strings <file> --k <sites> [--metric <m>] [--threads <t>]",
        "survey" => "distperm survey --vectors <file>|--strings <file> [--metric <m>] [--ks 4,8,12] [--threads <t>]",
        "search" => "distperm search --vectors <db>|--strings <db> --index <spec> | --load <store>  --queries <file> [--knn <k>|--radius <r>] [--frac <f>] [--threads <t>]",
        "serve" => "distperm serve --vectors <db> --index <spec> | --load <store> [--threads <t>] [--queue <n>] [--deadline-ms <ms>] [--degrade-frac <f>]",
        "figures" => "distperm figures [--out figures/] [--size 640]",
        _ => return None,
    })
}

/// Runs the tool: `argv` excludes the program name; output goes to `out`.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parsed = args::ParsedArgs::parse(argv)?;
    let command = parsed.positionals().first().map(String::as_str);
    match command {
        None | Some("help") => {
            write!(out, "{USAGE}")?;
            Ok(())
        }
        Some("theory") => cmd_theory::run(&parsed, out),
        Some("table1") => cmd_table1::run(&parsed, out),
        Some("build") => cmd_build::run(&parsed, out),
        Some("generate") => cmd_generate::run(&parsed, out),
        Some("count") => cmd_count::run(&parsed, out),
        Some("search") => cmd_search::run(&parsed, out),
        Some("serve") => cmd_serve::run(&parsed, out),
        Some("survey") => cmd_survey::run(&parsed, out),
        Some("figures") => cmd_figures::run(&parsed, out),
        Some(other) => {
            Err(CliError::usage(format!("unknown command `{other}`; run `distperm help`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_string(argv: &[&str]) -> Result<String, CliError> {
        let argv: Vec<String> = argv.iter().map(std::string::ToString::to_string).collect();
        let mut out = Vec::new();
        run(&argv, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    #[test]
    fn help_prints_usage() {
        let text = run_to_string(&["help"]).unwrap();
        assert!(text.contains("USAGE"));
        assert!(run_to_string(&[]).unwrap().contains("distperm"));
    }

    #[test]
    fn unknown_command_is_usage_error() {
        let err = run_to_string(&["frobnicate"]).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn theory_reports_table1_value() {
        let text = run_to_string(&["theory", "--d", "3", "--k", "5"]).unwrap();
        assert!(text.contains("96"), "{text}");
        assert!(text.contains("120"), "k! missing: {text}");
    }

    #[test]
    fn table1_matches_paper_corner() {
        let text = run_to_string(&["table1"]).unwrap();
        assert!(text.contains("439084800"), "{text}");
    }

    #[test]
    fn table1_extended_goes_past_u128() {
        // k = 40, d = 39 ⇒ 40! ≈ 8.16·10⁴⁷ — needs the big path.
        let text = run_to_string(&["table1", "--dmax", "39", "--kmax", "40"]).unwrap();
        assert!(text.contains("815915283247897734345611269596115894272000000000"), "{text}");
    }

    #[test]
    fn typo_option_is_rejected() {
        let err = run_to_string(&["theory", "--d", "3", "--kk", "5"]).unwrap_err();
        assert!(err.to_string().contains("--kk") || err.to_string().contains("--k"), "{err}");
    }

    fn temp_vectors_file(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dp_cli_lib_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("db.vec");
        let data = dp_datasets::uniform_unit_cube(1500, 2, 42);
        dp_datasets::sisap_io::write_vectors_file(&path, 2, &data).expect("write");
        path
    }

    #[test]
    fn count_respects_euclidean_bound_end_to_end() {
        let path = temp_vectors_file("count");
        let text = run_to_string(&[
            "count",
            "--vectors",
            path.to_str().unwrap(),
            "--k",
            "5",
            "--threads",
            "1",
        ])
        .unwrap();
        let distinct: usize = text
            .lines()
            .find_map(|l| l.strip_prefix("distinct distance permutations: "))
            .expect("count line")
            .parse()
            .expect("numeric");
        assert!(distinct <= 46, "N_2,2(5) violated: {distinct}");
        assert!(text.contains("min Euclidean dimension"), "{text}");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn count_rejects_k_sites_disagreement_and_bad_prefix() {
        let path = temp_vectors_file("reject");
        let f = path.to_str().unwrap();
        let err =
            run_to_string(&["count", "--vectors", f, "--k", "3", "--sites", "0,1"]).unwrap_err();
        assert!(err.to_string().contains("disagrees"), "{err}");
        let err =
            run_to_string(&["count", "--vectors", f, "--k", "5", "--prefix-len", "9"]).unwrap_err();
        assert!(err.to_string().contains("prefix-len"), "{err}");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn survey_reports_storage_columns() {
        let path = temp_vectors_file("survey");
        let text = run_to_string(&[
            "survey",
            "--vectors",
            path.to_str().unwrap(),
            "--ks",
            "4",
            "--rho-pairs",
            "500",
        ])
        .unwrap();
        assert!(text.contains("metric: L2"), "{text}");
        assert!(text.contains("database survey: n = 1500"), "{text}");
        assert!(text.contains("huffman"), "{text}");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn generate_validates_kind_and_language() {
        let err = run_to_string(&["generate", "--kind", "blobs", "--n", "5", "--out", "/tmp/x"])
            .unwrap_err();
        assert!(err.to_string().contains("unknown kind"), "{err}");
        let err = run_to_string(&[
            "generate",
            "--kind",
            "dictionary",
            "--language",
            "klingon",
            "--n",
            "5",
            "--out",
            "/tmp/x",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("klingon"), "{err}");
    }
}
