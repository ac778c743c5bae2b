//! End-to-end tests driving the compiled `distperm` binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn distperm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_distperm")).args(args).output().expect("spawn distperm")
}

fn stdout(o: &Output) -> String {
    assert!(
        o.status.success(),
        "exit {:?}\nstdout: {}\nstderr: {}",
        o.status.code(),
        String::from_utf8_lossy(&o.stdout),
        String::from_utf8_lossy(&o.stderr)
    );
    String::from_utf8(o.stdout.clone()).expect("utf8")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("distperm_e2e_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn generate_count_survey_pipeline_on_vectors() {
    let dir = temp_dir("vec");
    let file = dir.join("uniform.vec");
    let f = file.to_str().unwrap();

    let text = stdout(&distperm(&[
        "generate", "--kind", "uniform", "--n", "4000", "--dim", "2", "--seed", "9", "--out", f,
    ]));
    assert!(text.contains("wrote 4000"), "{text}");

    let text =
        stdout(&distperm(&["count", "--vectors", f, "--k", "5", "--seed", "3", "--threads", "2"]));
    assert!(text.contains("distinct distance permutations:"), "{text}");
    // 2-D L2 with k = 5: the count may not exceed N_{2,2}(5) = 46.
    let distinct: usize = text
        .lines()
        .find_map(|l| l.strip_prefix("distinct distance permutations: "))
        .expect("count line")
        .parse()
        .expect("numeric");
    assert!(distinct <= 46, "{distinct} > N_2,2(5)");
    assert!(text.contains("Euclidean maximum N_{2,2}(5): 46"), "{text}");

    let text = stdout(&distperm(&["survey", "--vectors", f, "--ks", "4,6", "--rho-pairs", "4000"]));
    assert!(text.contains("database survey: n = 4000"), "{text}");
    assert!(text.contains("codebook"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn survey_on_flat_vectors_matches_pre_refactor_output_exactly() {
    // Frozen golden transcripts, captured from the generic per-point
    // survey engine *before* `cmd_survey` switched vector databases to
    // the flat batched path.  The flat engine is bit-identical, so the
    // report numbers — every ρ digit, every Huffman/entropy decimal —
    // must not move.  Any numeric diff here means a refactor changed
    // answers.  (The `counting engines:` line was added when the packed
    // pipeline went width-generic; the measurements around it are the
    // original transcripts.)
    const GOLDEN_L2: &str = "\
metric: L2
counting engines: packed-u64 (k = 4, 7)
database survey: n = 3000, rho = 3.501
   k   distinct     occup    naive      raw  codebook   huffman   entropy  minEd
   4         16    187.50        5        8         4     3.470     3.436      2
   7        193     15.54       13       21         8     6.477     6.451      2
";
    const GOLDEN_L1: &str = "\
metric: L1
counting engines: packed-u64 (k = 5)
database survey: n = 3000, rho = 3.163
   k   distinct     occup    naive      raw  codebook   huffman   entropy  minEd
   5         42     71.43        7       15         6     4.746     4.710      2
";
    let dir = temp_dir("survey_golden");
    let file = dir.join("g.vec");
    let f = file.to_str().unwrap();
    stdout(&distperm(&[
        "generate", "--kind", "uniform", "--n", "3000", "--dim", "3", "--seed", "41", "--out", f,
    ]));
    let l2 = stdout(&distperm(&[
        "survey",
        "--vectors",
        f,
        "--ks",
        "4,7",
        "--rho-pairs",
        "3000",
        "--seed",
        "77",
    ]));
    assert_eq!(l2, GOLDEN_L2, "L2 survey text drifted from the pre-refactor transcript");
    // The parallel counting path must render the identical report too.
    let l2_t4 = stdout(&distperm(&[
        "survey",
        "--vectors",
        f,
        "--ks",
        "4,7",
        "--rho-pairs",
        "3000",
        "--seed",
        "77",
        "--threads",
        "4",
    ]));
    assert_eq!(l2_t4, GOLDEN_L2, "--threads changed the survey text");
    let l1 = stdout(&distperm(&[
        "survey",
        "--vectors",
        f,
        "--metric",
        "l1",
        "--ks",
        "5",
        "--rho-pairs",
        "2000",
    ]));
    assert_eq!(l1, GOLDEN_L1, "L1 survey text drifted from the pre-refactor transcript");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wide_k_names_its_engine_in_count_survey_and_search() {
    // Regression: before the width-generic packed pipeline, k = 13..=24
    // silently degraded to hash counting with no indication in any
    // command's output.  Now `count`, `survey` and `search` name the
    // engine that actually ran, and k = 16 runs packed — this test
    // fails on the pre-refactor CLI, which printed no engine line.
    let dir = temp_dir("wide_engine");
    let db = dir.join("db.vec");
    let qs = dir.join("q.vec");
    let f = db.to_str().unwrap();
    stdout(&distperm(&[
        "generate", "--kind", "uniform", "--n", "1200", "--dim", "2", "--seed", "19", "--out", f,
    ]));
    stdout(&distperm(&[
        "generate",
        "--kind",
        "uniform",
        "--n",
        "4",
        "--dim",
        "2",
        "--seed",
        "20",
        "--out",
        qs.to_str().unwrap(),
    ]));

    for (k, engine) in [("8", "packed-u64"), ("16", "packed-u128"), ("26", "permutation")] {
        let text = stdout(&distperm(&["count", "--vectors", f, "--k", k, "--seed", "3"]));
        assert!(text.contains(&format!("counting engine: {engine}")), "k = {k}: {text}");
    }

    let text = stdout(&distperm(&["survey", "--vectors", f, "--ks", "8,16", "--rho-pairs", "500"]));
    assert!(text.contains("counting engines: packed-u64 (k = 8); packed-u128 (k = 16)"), "{text}");

    let text = stdout(&distperm(&[
        "search",
        "--vectors",
        f,
        "--queries",
        qs.to_str().unwrap(),
        "--index",
        "flatperm:16",
        "--knn",
        "2",
    ]));
    assert!(text.contains("ordering engine: packed-u128"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dictionary_pipeline_with_explicit_sites_and_prefixes() {
    let dir = temp_dir("dict");
    let file = dir.join("words.txt");
    let f = file.to_str().unwrap();

    stdout(&distperm(&[
        "generate",
        "--kind",
        "dictionary",
        "--language",
        "english",
        "--n",
        "800",
        "--seed",
        "2",
        "--out",
        f,
    ]));
    let text = stdout(&distperm(&[
        "count",
        "--strings",
        f,
        "--sites",
        "0,17,99,256,511",
        "--prefix-len",
        "2",
    ]));
    assert!(text.contains("sites (k = 5): [0, 17, 99, 256, 511]"), "{text}");
    assert!(text.contains("distinct ordered prefixes (l = 2):"), "{text}");
    assert!(text.contains("metric = levenshtein"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn search_serves_vector_queries_in_parallel() {
    let dir = temp_dir("search");
    let db = dir.join("db.vec");
    let qs = dir.join("q.vec");
    stdout(&distperm(&[
        "generate",
        "--kind",
        "uniform",
        "--n",
        "2000",
        "--dim",
        "3",
        "--seed",
        "5",
        "--out",
        db.to_str().unwrap(),
    ]));
    stdout(&distperm(&[
        "generate",
        "--kind",
        "uniform",
        "--n",
        "12",
        "--dim",
        "3",
        "--seed",
        "6",
        "--out",
        qs.to_str().unwrap(),
    ]));

    // Exact serving through the flat engine, 4 worker threads.
    let text = stdout(&distperm(&[
        "search",
        "--vectors",
        db.to_str().unwrap(),
        "--queries",
        qs.to_str().unwrap(),
        "--index",
        "flatperm:8",
        "--knn",
        "3",
        "--threads",
        "4",
    ]));
    assert!(text.contains("index flatperm:8 over n = 2000"), "{text}");
    assert!(text.contains("query 0:"), "{text}");
    assert!(text.contains("query 11:"), "{text}");
    // Exact flatperm scans everything: 8 sites + 2000 candidates.
    assert!(text.contains("2008.0 per query"), "{text}");

    // The same queries through an exact tree must return the same ids.
    let tree_text = stdout(&distperm(&[
        "search",
        "--vectors",
        db.to_str().unwrap(),
        "--queries",
        qs.to_str().unwrap(),
        "--index",
        "vptree",
        "--knn",
        "3",
        "--threads",
        "2",
    ]));
    let answers = |s: &str| -> Vec<String> {
        s.lines().filter(|l| l.starts_with("query ")).map(String::from).collect()
    };
    assert_eq!(answers(&text), answers(&tree_text), "flatperm vs vptree answers");

    // Budgeted serving reports fewer evaluations.
    let budget_text = stdout(&distperm(&[
        "search",
        "--vectors",
        db.to_str().unwrap(),
        "--queries",
        qs.to_str().unwrap(),
        "--index",
        "distperm:8",
        "--frac",
        "0.05",
        "--quiet",
    ]));
    assert!(budget_text.contains("108.0 per query"), "{budget_text}");
    assert!(!budget_text.contains("query 0:"), "--quiet must suppress rows: {budget_text}");

    // Unknown index specs are usage errors.
    let o = distperm(&[
        "search",
        "--vectors",
        db.to_str().unwrap(),
        "--queries",
        qs.to_str().unwrap(),
        "--index",
        "frobtree",
    ]);
    assert_eq!(o.status.code(), Some(2));

    // More pivots than points is a usage error on every spec, including
    // the flatperm fast path (never a library panic).
    for spec in ["flatperm:32", "laesa:32"] {
        let o = distperm(&[
            "search",
            "--vectors",
            qs.to_str().unwrap(), // the 12-point file as the database
            "--queries",
            qs.to_str().unwrap(),
            "--index",
            spec,
        ]);
        assert_eq!(o.status.code(), Some(2), "{spec}");
        let err = String::from_utf8_lossy(&o.stderr);
        assert!(err.contains("pivots"), "{spec}: {err}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn search_serves_string_queries_with_bktree() {
    let dir = temp_dir("search_str");
    let db = dir.join("words.txt");
    let qs = dir.join("queries.txt");
    stdout(&distperm(&[
        "generate",
        "--kind",
        "dictionary",
        "--language",
        "english",
        "--n",
        "600",
        "--seed",
        "3",
        "--out",
        db.to_str().unwrap(),
    ]));
    stdout(&distperm(&[
        "generate",
        "--kind",
        "dictionary",
        "--language",
        "english",
        "--n",
        "5",
        "--seed",
        "4",
        "--out",
        qs.to_str().unwrap(),
    ]));
    let bk = stdout(&distperm(&[
        "search",
        "--strings",
        db.to_str().unwrap(),
        "--queries",
        qs.to_str().unwrap(),
        "--index",
        "bktree",
        "--radius",
        "2",
    ]));
    assert!(bk.contains("index bktree over n = 600"), "{bk}");
    let linear = stdout(&distperm(&[
        "search",
        "--strings",
        db.to_str().unwrap(),
        "--queries",
        qs.to_str().unwrap(),
        "--index",
        "linear",
        "--radius",
        "2",
    ]));
    let answers = |s: &str| -> Vec<String> {
        s.lines().filter(|l| l.starts_with("query ")).map(String::from).collect()
    };
    assert_eq!(answers(&bk), answers(&linear), "bktree vs linear scan answers");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn figures_command_writes_files() {
    let dir = temp_dir("figs");
    let d = dir.to_str().unwrap();
    let text = stdout(&distperm(&["figures", "--out", d, "--size", "96"]));
    assert!(text.contains("exact Euclidean cell count: 18"), "{text}");
    for f in [
        "fig1_voronoi.ppm",
        "fig2_second_order.ppm",
        "fig3_full_l2.ppm",
        "fig4_full_l1.ppm",
        "fig3_bisectors.svg",
    ] {
        assert!(dir.join(f).exists(), "missing {f}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shard_rows_is_an_unknown_option() {
    // The shard size is a library parameter only: on the command line
    // `--shard-rows` is an unknown option, for vectors and strings alike.
    let dir = temp_dir("shard_usage");
    let file = dir.join("u.vec");
    let f = file.to_str().unwrap();
    stdout(&distperm(&[
        "generate", "--kind", "uniform", "--n", "64", "--dim", "2", "--seed", "1", "--out", f,
    ]));
    let words = dir.join("w.txt");
    std::fs::write(&words, "alpha\nbeta\ngamma\ndelta\n").expect("write words");
    let w = words.to_str().unwrap();
    for args in [
        vec!["count", "--vectors", f, "--k", "4", "--shard-rows", "8"],
        vec!["survey", "--vectors", f, "--ks", "4", "--shard-rows", "0"],
        vec!["count", "--strings", w, "--k", "2", "--shard-rows", "8"],
        vec!["survey", "--strings", w, "--ks", "2", "--shard-rows", "8"],
    ] {
        let o = distperm(&args);
        assert_eq!(o.status.code(), Some(2), "{args:?} must exit 2");
        let err = String::from_utf8_lossy(&o.stderr);
        let first = err.lines().next().unwrap_or_default();
        assert_eq!(first, "distperm: usage error: unknown option(s): --shard-rows", "{args:?}");
        assert!(o.stdout.is_empty(), "{args:?} printed a report");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_errors_exit_2_with_stderr() {
    let o = distperm(&["count", "--vectors"]); // missing value -> flag, then missing input? k missing first
    assert_eq!(o.status.code(), Some(2));
    let err = String::from_utf8_lossy(&o.stderr);
    assert!(err.contains("distperm:"), "{err}");

    let o = distperm(&["nonsense"]);
    assert_eq!(o.status.code(), Some(2));
}

#[test]
fn threads_zero_is_a_usage_error_everywhere() {
    // Regression: `count` and `survey` used to accept --threads 0
    // silently (clamping it to 1) while `search` rejected it; all three
    // must now fail fast with the same actionable message.
    let dir = temp_dir("threads0");
    let file = dir.join("tiny.vec");
    let f = file.to_str().unwrap();
    stdout(&distperm(&[
        "generate", "--kind", "uniform", "--n", "64", "--dim", "2", "--seed", "1", "--out", f,
    ]));
    let cases: Vec<Vec<&str>> = vec![
        vec!["count", "--vectors", f, "--k", "4", "--threads", "0"],
        vec!["survey", "--vectors", f, "--ks", "4", "--threads", "0"],
        vec!["search", "--vectors", f, "--queries", f, "--index", "linear", "--threads", "0"],
    ];
    for case in &cases {
        let o = distperm(case);
        assert_eq!(o.status.code(), Some(2), "{case:?} must be a usage error");
        let err = String::from_utf8_lossy(&o.stderr);
        assert!(err.contains("--threads must be at least 1"), "{case:?}: {err}");
        assert!(err.contains("--threads 1"), "{case:?} must suggest the fix: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn threads_above_the_bound_are_a_usage_error() {
    // `count` parses --threads before it reads the file, so a missing
    // file would turn an accepted bound into exit 1; no worker starts
    // either way.
    let o = distperm(&["count", "--vectors", "/no/such/file", "--k", "4", "--threads", "100000"]);
    assert_eq!(o.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&o.stderr).contains("--threads must be at most 1024"));
}

#[test]
fn data_errors_exit_1() {
    let o = distperm(&["count", "--vectors", "/no/such/file", "--k", "4"]);
    assert_eq!(o.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&o.stderr).contains("data error"));
}

#[test]
fn hostile_headers_are_one_line_data_errors() {
    // Regression: a header declaring more coordinates than memory holds
    // aborted the process on the up-front allocation, and one whose
    // dim × n wraps usize was read as an empty database.
    let dir = temp_dir("hostile_header");
    let cases = [
        ("huge.vec", "2 999999999999999\n0.5 0.5\n", "declared 999999999999999 rows, found 1"),
        ("wraps.vec", "4611686018427387904 4\n", "line 1: dim × n overflows"),
    ];
    for (name, text, message) in cases {
        let file = dir.join(name);
        std::fs::write(&file, text).expect("write");
        let o = distperm(&["count", "--vectors", file.to_str().unwrap(), "--k", "4"]);
        assert_eq!(o.status.code(), Some(1), "{name}");
        let err = String::from_utf8_lossy(&o.stderr);
        assert!(err.starts_with("distperm: data error:"), "{name}: {err}");
        assert!(err.contains(message), "{name}: {err}");
        assert_eq!(err.trim_end().lines().count(), 1, "{name} must be one line: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crlf_blank_lines_and_missing_final_newline_do_not_change_output() {
    // The same rows with CRLF endings, interior blank lines and no final
    // newline (the reader's end-of-input path) must report byte for byte
    // what the plain LF file does.
    let dir = temp_dir("crlf");
    let plain = dir.join("plain.vec");
    let p = plain.to_str().unwrap();
    stdout(&distperm(&[
        "generate", "--kind", "uniform", "--n", "3000", "--dim", "3", "--seed", "17", "--out", p,
    ]));
    let text = std::fs::read_to_string(&plain).expect("read");
    let messy = dir.join("messy.vec");
    let m = messy.to_str().unwrap();
    let crlf = text.trim_end().replace('\n', "\r\n").replacen("\r\n", "\r\n\r\n \t\r\n", 40);
    std::fs::write(&messy, crlf).expect("write");
    for args in [
        vec!["count", "--k", "6", "--seed", "3", "--threads", "2"],
        vec!["survey", "--ks", "4,7", "--rho-pairs", "3000", "--seed", "77"],
    ] {
        let run = |file: &str| {
            let mut full = args.clone();
            full.extend_from_slice(&["--vectors", file]);
            stdout(&distperm(&full))
        };
        assert_eq!(run(m), run(p), "{} output changed", args[0]);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn parse_workers_change_no_output_store_byte_or_error() {
    // A vector file of several 1 MiB parse segments, with CRLF endings
    // and blank lines, is parsed on the --threads workers: the output,
    // the store and the first error must not depend on how many.
    let dir = temp_dir("parse_threads");
    let plain = dir.join("plain.vec");
    stdout(&distperm(&[
        "generate",
        "--kind",
        "uniform",
        "--n",
        "70000",
        "--dim",
        "2",
        "--seed",
        "5",
        "--out",
        plain.to_str().unwrap(),
    ]));
    let text = std::fs::read_to_string(&plain).expect("read");
    let messy: String = text
        .lines()
        .enumerate()
        .map(
            |(i, line)| {
                if i % 5 == 0 {
                    format!("{line}\r\n \t\r\n")
                } else {
                    format!("{line}\r\n")
                }
            },
        )
        .collect();
    assert!(messy.len() > 3 << 20, "several segments: {} bytes", messy.len());
    let file = dir.join("messy.vec");
    std::fs::write(&file, &messy).expect("write");
    let (f, store) = (file.to_str().unwrap(), dir.join("db.dps"));
    let s = store.to_str().unwrap();
    let commands: [&[&str]; 3] = [
        &["count", "--vectors", f, "--k", "6", "--seed", "3"],
        &["survey", "--vectors", f, "--ks", "4,7", "--rho-pairs", "3000", "--seed", "77"],
        &["build", "--vectors", f, "--k", "8", "--out", s],
    ];
    for args in commands {
        let run = |threads: &str| {
            let out = stdout(&distperm(&[args, &["--threads", threads]].concat()));
            (out, std::fs::read(&store).unwrap_or_default())
        };
        let one = run("1");
        for threads in ["2", "4"] {
            assert_eq!(run(threads), one, "{} at --threads {threads}", args[0]);
        }
    }
    // A bad token in the last segment: the same exit-1 diagnostic.
    let at = messy.len() - 40;
    let line = 1 + messy[..at].matches('\n').count();
    let mut bad = messy.into_bytes();
    bad[at] = b'x';
    std::fs::write(&file, bad).expect("write");
    let errors: Vec<String> = ["1", "4"]
        .into_iter()
        .map(|threads| {
            let o = distperm(&["count", "--vectors", f, "--k", "6", "--threads", threads]);
            assert_eq!(o.status.code(), Some(1), "--threads {threads}");
            String::from_utf8_lossy(&o.stderr).into_owned()
        })
        .collect();
    assert!(errors[0].contains(&format!("parse error at line {line}:")), "{}", errors[0]);
    assert_eq!(errors[0], errors[1]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_file_is_a_one_line_diagnostic_in_every_command() {
    // Regression: a missing database file must exit 1 with a single
    // diagnostic line naming the path — no panic, no backtrace.
    let cases: Vec<Vec<&str>> = vec![
        vec!["count", "--vectors", "/no/such/file.vec", "--k", "4"],
        vec!["survey", "--vectors", "/no/such/file.vec"],
        vec![
            "search",
            "--vectors",
            "/no/such/file.vec",
            "--queries",
            "/no/such/q.vec",
            "--index",
            "linear",
        ],
        vec!["serve", "--vectors", "/no/such/file.vec", "--index", "linear"],
    ];
    for case in &cases {
        let o = distperm(case);
        assert_eq!(o.status.code(), Some(1), "{case:?}");
        let err = String::from_utf8_lossy(&o.stderr);
        assert!(err.starts_with("distperm: data error:"), "{case:?}: {err}");
        assert!(err.contains("/no/such/file.vec"), "{case:?}: {err}");
        assert_eq!(err.trim_end().lines().count(), 1, "{case:?} must be one line: {err}");
    }
}

#[test]
fn bad_index_spec_exits_2_with_usage_line() {
    // Regression: a malformed --index spec on a *valid* database is a
    // usage error (exit 2) and stderr carries the command's one-line
    // usage synopsis.
    let dir = temp_dir("badspec");
    let file = dir.join("db.vec");
    let f = file.to_str().unwrap();
    stdout(&distperm(&[
        "generate", "--kind", "uniform", "--n", "64", "--dim", "2", "--seed", "1", "--out", f,
    ]));
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (
            vec!["search", "--vectors", f, "--queries", f, "--index", "frobtree:9"],
            "usage: distperm search",
        ),
        (vec!["serve", "--vectors", f, "--index", "frobtree:9"], "usage: distperm serve"),
    ];
    for (case, usage) in &cases {
        let o = distperm(case);
        assert_eq!(o.status.code(), Some(2), "{case:?}");
        let err = String::from_utf8_lossy(&o.stderr);
        assert!(err.contains("usage error"), "{case:?}: {err}");
        assert!(err.contains(usage), "{case:?} must print its usage line: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_smoke_pipes_a_batch_through_stdin() {
    use std::io::Write as _;
    use std::process::Stdio;

    let dir = temp_dir("serve_smoke");
    let file = dir.join("db.vec");
    let f = file.to_str().unwrap();
    stdout(&distperm(&[
        "generate", "--kind", "uniform", "--n", "1000", "--dim", "2", "--seed", "11", "--out", f,
    ]));
    let mut child = Command::new(env!("CARGO_BIN_EXE_distperm"))
        .args(["serve", "--vectors", f, "--index", "distperm:6", "--threads", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(b"begin s1\nknn 3 0.5 0.5\nrange 0.2 0.1 0.9\nend\ngarbage line\n")
        .expect("write batch");
    // Dropping stdin sends EOF: the service must shut down cleanly.
    let output = child.wait_with_output().expect("serve exits");
    assert!(output.status.success(), "serve exited {:?}", output.status.code());
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(text.contains("ready dim=2"), "{text}");
    assert!(text.contains("done s1 ok=2 degraded=0 failed=0"), "{text}");
    assert!(text.contains("error line=5 unknown verb"), "{text}");
    assert!(text.contains("bye batches=1 queries=2 shed=0 errors=1"), "{text}");
    assert!(text.contains("session: 1 batches, 2 answered"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn build_then_load_matches_in_process_search_exactly() {
    let dir = temp_dir("build_load");
    let db = dir.join("db.vec");
    let qs = dir.join("q.vec");
    let store = dir.join("index.dps");
    let s = store.to_str().unwrap();
    stdout(&distperm(&[
        "generate",
        "--kind",
        "uniform",
        "--n",
        "1500",
        "--dim",
        "3",
        "--seed",
        "21",
        "--out",
        db.to_str().unwrap(),
    ]));
    stdout(&distperm(&[
        "generate",
        "--kind",
        "uniform",
        "--n",
        "10",
        "--dim",
        "3",
        "--seed",
        "22",
        "--out",
        qs.to_str().unwrap(),
    ]));

    let built =
        stdout(&distperm(&["build", "--vectors", db.to_str().unwrap(), "--k", "7", "--out", s]));
    assert!(built.contains("built flatperm:7 over n = 1500 (dim 3, metric L2)"), "{built}");
    assert!(built.contains("format v1"), "{built}");

    // The loaded index must answer bit-identically to one built
    // in-process from the same database — everything except the
    // timing line, which is the only nondeterministic output.
    let strip_timing = |s: &str| -> Vec<String> {
        s.lines().filter(|l| !l.starts_with("build: ")).map(String::from).collect()
    };
    for extra in [&["--knn", "3"][..], &["--radius", "0.4", "--frac", "0.3"][..]] {
        let mut loaded_args =
            vec!["search", "--load", s, "--queries", qs.to_str().unwrap(), "--threads", "2"];
        loaded_args.extend_from_slice(extra);
        let mut built_args = vec![
            "search",
            "--vectors",
            db.to_str().unwrap(),
            "--queries",
            qs.to_str().unwrap(),
            "--index",
            "flatperm:7",
            "--threads",
            "2",
        ];
        built_args.extend_from_slice(extra);
        let loaded = stdout(&distperm(&loaded_args));
        let built = stdout(&distperm(&built_args));
        assert_eq!(
            strip_timing(&loaded),
            strip_timing(&built),
            "{extra:?}: --load answers diverged from the in-process build"
        );
    }

    // --load excludes every option the store already records.
    for conflicting in ["--vectors", "--strings", "--metric", "--index"] {
        let o = distperm(&[
            "search",
            "--load",
            s,
            conflicting,
            "whatever",
            "--queries",
            qs.to_str().unwrap(),
        ]);
        assert_eq!(o.status.code(), Some(2), "{conflicting} with --load must be a usage error");
        let err = String::from_utf8_lossy(&o.stderr);
        assert!(err.contains(&format!("drop {conflicting}")), "{conflicting}: {err}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_and_corrupt_stores_are_data_errors() {
    let dir = temp_dir("bad_store");
    let qs = dir.join("q.vec");
    stdout(&distperm(&[
        "generate",
        "--kind",
        "uniform",
        "--n",
        "5",
        "--dim",
        "2",
        "--seed",
        "30",
        "--out",
        qs.to_str().unwrap(),
    ]));

    // Missing store file: exit 1, one diagnostic line naming the path.
    let o =
        distperm(&["search", "--load", "/no/such/index.dps", "--queries", qs.to_str().unwrap()]);
    assert_eq!(o.status.code(), Some(1));
    let err = String::from_utf8_lossy(&o.stderr);
    assert!(err.starts_with("distperm: data error:"), "{err}");
    assert!(err.contains("/no/such/index.dps"), "{err}");

    // Corrupt store: build a real one, flip a payload byte, load fails
    // with a typed diagnostic rather than a panic or a wrong answer.
    let db = dir.join("db.vec");
    let store = dir.join("index.dps");
    stdout(&distperm(&[
        "generate",
        "--kind",
        "uniform",
        "--n",
        "200",
        "--dim",
        "2",
        "--seed",
        "31",
        "--out",
        db.to_str().unwrap(),
    ]));
    stdout(&distperm(&[
        "build",
        "--vectors",
        db.to_str().unwrap(),
        "--k",
        "4",
        "--out",
        store.to_str().unwrap(),
    ]));
    let mut bytes = std::fs::read(&store).expect("read store");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x20;
    std::fs::write(&store, &bytes).expect("rewrite store");
    let o =
        distperm(&["search", "--load", store.to_str().unwrap(), "--queries", qs.to_str().unwrap()]);
    assert_eq!(o.status.code(), Some(1), "corrupt store must be a data error");
    let err = String::from_utf8_lossy(&o.stderr);
    assert!(err.contains("checksum"), "diagnostic should name the failed check: {err}");

    // `distperm build` without --out is a usage error.
    let o = distperm(&["build", "--vectors", db.to_str().unwrap(), "--k", "4"]);
    assert_eq!(o.status.code(), Some(2));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_loads_a_store_and_answers_a_session() {
    use std::io::Write as _;
    use std::process::Stdio;

    let dir = temp_dir("serve_load");
    let db = dir.join("db.vec");
    let store = dir.join("index.dps");
    stdout(&distperm(&[
        "generate",
        "--kind",
        "uniform",
        "--n",
        "800",
        "--dim",
        "2",
        "--seed",
        "13",
        "--out",
        db.to_str().unwrap(),
    ]));
    stdout(&distperm(&[
        "build",
        "--vectors",
        db.to_str().unwrap(),
        "--k",
        "6",
        "--out",
        store.to_str().unwrap(),
    ]));
    let mut child = Command::new(env!("CARGO_BIN_EXE_distperm"))
        .args(["serve", "--load", store.to_str().unwrap(), "--threads", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(b"begin s1\nknn 3 0.5 0.5\nend\n")
        .expect("write batch");
    let output = child.wait_with_output().expect("serve exits");
    assert!(output.status.success(), "serve exited {:?}", output.status.code());
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(text.contains("ready dim=2"), "{text}");
    assert!(text.contains("done s1 ok=1 degraded=0 failed=0"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn theory_and_table1_roundtrip_key_numbers() {
    let text = stdout(&distperm(&["theory", "--d", "3", "--k", "12"]));
    assert!(text.contains("34662"), "{text}");
    let text = stdout(&distperm(&["table1", "--dmax", "4", "--kmax", "8"]));
    assert!(text.contains("9080"), "{text}");
}
