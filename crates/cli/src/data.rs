//! Database loading and metric selection shared by `count` and `survey`.
//!
//! A database is either a vector set (SISAP `dim n` header format) under
//! a Minkowski metric, or a string set (one per line) under an edit-type
//! metric.  The metric is named on the command line; defaults are L2 for
//! vectors (the paper's Euclidean tables) and Levenshtein for strings
//! (the paper's dictionary databases).

use crate::args::ParsedArgs;
use crate::CliError;
use dp_datasets::sisap_io;
use dp_datasets::VectorSet;

/// Which Minkowski metric to use on vectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VectorMetricSpec {
    /// Manhattan distance.
    L1,
    /// Euclidean distance.
    L2,
    /// Chebyshev distance.
    LInf,
    /// General Minkowski with exponent p ≥ 1.
    Lp(f64),
}

/// Which metric to use on strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StringMetricSpec {
    /// Edit distance (insert/delete/substitute).
    Levenshtein,
    /// Positional mismatches (equal lengths).
    Hamming,
    /// The paper's Definition 3 tree metric.
    Prefix,
}

/// A loaded database plus its metric choice.
///
/// Vector data loads straight into flat [`VectorSet`] storage, so the
/// counting commands run through the batched permutation engine.
#[derive(Debug)]
pub enum Database {
    /// Real vectors of a fixed dimension, flat row-major storage.
    Vectors {
        /// Vector dimension from the file header.
        dim: usize,
        /// The points.
        data: VectorSet,
        /// Chosen metric.
        metric: VectorMetricSpec,
    },
    /// Strings.
    Strings {
        /// The points.
        data: Vec<String>,
        /// Chosen metric.
        metric: StringMetricSpec,
    },
}

impl Database {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            Database::Vectors { data, .. } => data.len(),
            Database::Strings { data, .. } => data.len(),
        }
    }

    /// True iff no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Human-readable metric name.
    pub fn metric_name(&self) -> String {
        match self {
            Database::Vectors { metric, .. } => match metric {
                VectorMetricSpec::L1 => "L1".into(),
                VectorMetricSpec::L2 => "L2".into(),
                VectorMetricSpec::LInf => "Linf".into(),
                VectorMetricSpec::Lp(p) => format!("L{p}"),
            },
            Database::Strings { metric, .. } => match metric {
                StringMetricSpec::Levenshtein => "levenshtein".into(),
                StringMetricSpec::Hamming => "hamming".into(),
                StringMetricSpec::Prefix => "prefix".into(),
            },
        }
    }
}

/// Parses a vector metric name: `l1`, `l2`, `linf`, or `lp:<p>`.
pub fn parse_vector_metric(name: &str) -> Result<VectorMetricSpec, CliError> {
    match name {
        "l1" => Ok(VectorMetricSpec::L1),
        "l2" => Ok(VectorMetricSpec::L2),
        "linf" => Ok(VectorMetricSpec::LInf),
        other => {
            if let Some(p) = other.strip_prefix("lp:") {
                let p: f64 = p
                    .parse()
                    .map_err(|e| CliError::usage(format!("bad Lp exponent `{p}`: {e}")))?;
                if p.is_nan() || p < 1.0 {
                    return Err(CliError::usage(format!("Lp requires p >= 1, got {p}")));
                }
                Ok(VectorMetricSpec::Lp(p))
            } else {
                Err(CliError::usage(format!(
                    "unknown vector metric `{other}` (want l1, l2, linf, lp:<p>)"
                )))
            }
        }
    }
}

/// Parses a string metric name: `levenshtein`, `hamming`, or `prefix`.
pub fn parse_string_metric(name: &str) -> Result<StringMetricSpec, CliError> {
    match name {
        "levenshtein" => Ok(StringMetricSpec::Levenshtein),
        "hamming" => Ok(StringMetricSpec::Hamming),
        "prefix" => Ok(StringMetricSpec::Prefix),
        other => Err(CliError::usage(format!(
            "unknown string metric `{other}` (want levenshtein, hamming, prefix)"
        ))),
    }
}

/// Loads the database named by `--vectors` or `--strings`, resolving
/// `--metric` (default: l2 for vectors, levenshtein for strings).  A
/// vector file is parsed on the command's `threads` workers.
pub fn load(parsed: &ParsedArgs, threads: usize) -> Result<Database, CliError> {
    let vectors = parsed.str_opt("vectors").map(str::to_string);
    let strings = parsed.str_opt("strings").map(str::to_string);
    match (vectors, strings) {
        (Some(_), Some(_)) => Err(CliError::usage("give either --vectors or --strings, not both")),
        (None, None) => Err(CliError::usage("missing input: --vectors <file> or --strings <file>")),
        (Some(path), None) => {
            let metric = parse_vector_metric(&parsed.str_or("metric", "l2"))?;
            let data = sisap_io::read_vectors_file(&path, threads)
                .map_err(|e| CliError::data(format!("{path}: {e}")))?;
            Ok(Database::Vectors { dim: data.dim(), data, metric })
        }
        (None, Some(path)) => {
            let metric = parse_string_metric(&parsed.str_or("metric", "levenshtein"))?;
            let data = sisap_io::read_strings_file(&path)
                .map_err(|e| CliError::data(format!("{path}: {e}")))?;
            Ok(Database::Strings { data, metric })
        }
    }
}

/// Parses an explicit `--sites 0,5,9` list, validating range and
/// distinctness against the database size.
pub fn parse_sites(parsed: &ParsedArgs, n: usize) -> Result<Option<Vec<usize>>, CliError> {
    let Some(list) = parsed.str_opt("sites") else {
        return Ok(None);
    };
    let mut ids = Vec::new();
    for tok in list.split(',') {
        let id: usize =
            tok.trim().parse().map_err(|e| CliError::usage(format!("bad site id `{tok}`: {e}")))?;
        if id >= n {
            return Err(CliError::usage(format!("site id {id} out of range (n = {n})")));
        }
        if ids.contains(&id) {
            return Err(CliError::usage(format!("duplicate site id {id}")));
        }
        ids.push(id);
    }
    if ids.is_empty() {
        return Err(CliError::usage("--sites list is empty"));
    }
    Ok(Some(ids))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_metric_names() {
        assert_eq!(parse_vector_metric("l1").unwrap(), VectorMetricSpec::L1);
        assert_eq!(parse_vector_metric("linf").unwrap(), VectorMetricSpec::LInf);
        assert_eq!(parse_vector_metric("lp:3.5").unwrap(), VectorMetricSpec::Lp(3.5));
        assert!(parse_vector_metric("lp:0.5").is_err());
        assert!(parse_vector_metric("cosine").is_err());
    }

    #[test]
    fn string_metric_names() {
        assert_eq!(parse_string_metric("prefix").unwrap(), StringMetricSpec::Prefix);
        assert!(parse_string_metric("l2").is_err());
    }

    #[test]
    fn sites_validation() {
        let args = ParsedArgs::parse(&["x", "--sites", "0,2,5"]).unwrap();
        assert_eq!(parse_sites(&args, 10).unwrap(), Some(vec![0, 2, 5]));
        let args = ParsedArgs::parse(&["x", "--sites", "0,2,5"]).unwrap();
        assert!(parse_sites(&args, 5).is_err(), "out of range");
        let args = ParsedArgs::parse(&["x", "--sites", "1,1"]).unwrap();
        assert!(parse_sites(&args, 5).is_err(), "duplicate");
        let args = ParsedArgs::parse(&["x"]).unwrap();
        assert_eq!(parse_sites(&args, 5).unwrap(), None);
    }

    #[test]
    fn load_requires_exactly_one_input() {
        let args = ParsedArgs::parse(&["count"]).unwrap();
        assert!(load(&args, 1).is_err());
        let args = ParsedArgs::parse(&["count", "--vectors", "a", "--strings", "b"]).unwrap();
        assert!(load(&args, 1).is_err());
    }

    #[test]
    fn load_reports_missing_file_as_data_error() {
        let args = ParsedArgs::parse(&["count", "--vectors", "/nonexistent/file"]).unwrap();
        match load(&args, 1) {
            Err(CliError::Data(msg)) => assert!(msg.contains("/nonexistent/file")),
            other => panic!("expected data error, got {other:?}"),
        }
    }
}
