//! # dp-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §4 for the
//! experiment index):
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table 1 (exact N_{d,2}(k)) |
//! | `table2` | Table 2 (synthetic SISAP databases) |
//! | `table3` | Table 3 (uniform random vectors) |
//! | `figures` | Figures 1–4 (cell maps + SVG bisectors) |
//! | `fig7` | Figure 7 (cells missed by bounded databases) |
//! | `theorem6` | Theorem 6 construction check |
//! | `corollary5` | Corollary 5 tree-path bound |
//! | `counterexample` | Eq. 12 and the further L1/L∞ counterexamples |
//! | `storage` | §1/§4 storage comparison |
//! | `search_eval` | §1 search-cost context (LAESA/distperm/iAESA…) |
//!
//! Criterion micro-benchmarks live in `benches/`.
//!
//! This library crate holds the tiny CLI/table plumbing the binaries
//! share, and the one strip pass the kernel benches time; it has no
//! public API stability promises.

#![forbid(unsafe_code)]

use dp_metric::{load_strip, BatchDistance, TransposedSites, STRIP};
use std::collections::HashMap;

/// Minimal `--flag value` parser (no external dependency needed for a
/// bench harness).
#[derive(Debug, Clone)]
pub struct Args {
    named: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses the process arguments.  `--key value` become named values,
    /// bare `--switch` (followed by another option or nothing) become
    /// flags.
    pub fn parse() -> Args {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Args {
        let mut named = HashMap::new();
        let mut flags = Vec::new();
        let mut iter = args.into_iter().peekable();
        while let Some(a) = iter.next() {
            if let Some(key) = a.strip_prefix("--") {
                match iter.peek() {
                    Some(v) if !v.starts_with("--") => {
                        named.insert(key.to_string(), iter.next().expect("peeked"));
                    }
                    _ => flags.push(key.to_string()),
                }
            }
        }
        Args { named, flags }
    }

    /// A named value parsed as `T`, or `default`.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.named.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    /// True iff `--key` was passed as a bare switch.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

/// Right-aligns `value` in a cell of `width`.
pub fn cell(value: impl std::fmt::Display, width: usize) -> String {
    format!("{value:>width$}")
}

/// Prints a rule line of the given width.
pub fn rule(width: usize) -> String {
    "-".repeat(width)
}

/// Creates the output directory used by figure-producing binaries.
pub fn ensure_out_dir(path: &str) -> std::io::Result<std::path::PathBuf> {
    let p = std::path::PathBuf::from(path);
    std::fs::create_dir_all(&p)?;
    Ok(p)
}

/// All `n × k` distances of a row-major database through
/// [`BatchDistance::column_distances`], one [`STRIP`]-row strip from
/// [`load_strip`] at a time — the distance half of the flat strip scan,
/// as the `kernels` and `counting_phases` benches time it.  Returns the
/// sum of one tile entry per strip, for the caller to black-box.
pub fn column_pass<M: BatchDistance>(
    metric: &M,
    db: &[f64],
    sites: &TransposedSites,
    tile: &mut [[f64; STRIP]],
) -> f64 {
    let mut cols = vec![[0.0; STRIP]; sites.dim()];
    let mut sink = 0.0;
    for strip in db.chunks(STRIP * sites.dim()) {
        load_strip(&mut cols, strip);
        metric.column_distances(&cols, sites, tile);
        sink += tile[0][0];
    }
    sink
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::parse_from(s.iter().map(std::string::ToString::to_string))
    }

    #[test]
    fn parses_named_and_flags() {
        let a = args(&["--points", "5000", "--full", "--runs", "3"]);
        assert_eq!(a.get("points", 0usize), 5000);
        assert_eq!(a.get("runs", 0usize), 3);
        assert_eq!(a.get("missing", 7usize), 7);
        assert!(a.flag("full"));
        assert!(!a.flag("quick"));
    }

    #[test]
    fn trailing_switch_is_flag() {
        let a = args(&["--full"]);
        assert!(a.flag("full"));
    }

    #[test]
    fn unparseable_value_falls_back() {
        let a = args(&["--points", "many"]);
        // "many" consumed as value but fails parse -> default.
        assert_eq!(a.get("points", 42usize), 42);
    }

    #[test]
    fn cell_alignment() {
        assert_eq!(cell(7, 5), "    7");
        assert_eq!(rule(3), "---");
    }
}
