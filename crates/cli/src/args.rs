//! A small, strict command-line argument parser.
//!
//! Grammar: positionals come first (the subcommand and its operands);
//! options are `--key value` or `--key=value`; a `--key` followed by
//! another option or end of input is a boolean flag.  Every option must
//! be consumed by the command — [`ParsedArgs::finish`] rejects leftovers,
//! so a typo (`--poins`) fails loudly instead of silently using the
//! default.

use crate::CliError;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// Most workers `--threads` accepts: every worker is an OS thread
/// started at once, so the bound keeps a typo from asking for a thread
/// per row.
const MAX_THREADS: usize = 1024;

/// Parsed command-line arguments with typo detection.
#[derive(Debug)]
pub struct ParsedArgs {
    positionals: Vec<String>,
    values: BTreeMap<String, String>,
    flags: BTreeSet<String>,
    consumed: RefCell<BTreeSet<String>>,
}

impl ParsedArgs {
    /// Parses raw tokens (without the program name).
    pub fn parse<S: AsRef<str>>(tokens: &[S]) -> Result<Self, CliError> {
        let mut positionals = Vec::new();
        let mut values = BTreeMap::new();
        let mut flags = BTreeSet::new();
        let mut i = 0;
        while i < tokens.len() {
            let tok = tokens[i].as_ref();
            if let Some(rest) = tok.strip_prefix("--") {
                if rest.is_empty() {
                    return Err(CliError::usage("bare `--` is not accepted"));
                }
                let (key, inline) = match rest.split_once('=') {
                    Some((k, v)) => (k.to_string(), Some(v.to_string())),
                    None => (rest.to_string(), None),
                };
                if values.contains_key(&key) || flags.contains(&key) {
                    return Err(CliError::usage(format!("duplicate option --{key}")));
                }
                match inline {
                    Some(v) => {
                        values.insert(key, v);
                    }
                    None => {
                        let next = tokens.get(i + 1).map(std::convert::AsRef::as_ref);
                        match next {
                            Some(v) if !v.starts_with("--") => {
                                values.insert(key, v.to_string());
                                i += 1;
                            }
                            _ => {
                                flags.insert(key);
                            }
                        }
                    }
                }
            } else {
                if !values.is_empty() || !flags.is_empty() {
                    return Err(CliError::usage(format!(
                        "positional `{tok}` after options; positionals come first"
                    )));
                }
                positionals.push(tok.to_string());
            }
            i += 1;
        }
        Ok(Self { positionals, values, flags, consumed: RefCell::new(BTreeSet::new()) })
    }

    /// The positional arguments (subcommand and operands).
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    fn touch(&self, key: &str) {
        self.consumed.borrow_mut().insert(key.to_string());
    }

    /// String option, if present.
    pub fn str_opt(&self, key: &str) -> Option<&str> {
        self.touch(key);
        self.values.get(key).map(String::as_str)
    }

    /// String option with a default.
    pub fn str_or(&self, key: &str, default: &str) -> String {
        self.str_opt(key).unwrap_or(default).to_string()
    }

    /// Required string option.
    pub fn require_str(&self, key: &str) -> Result<&str, CliError> {
        self.str_opt(key).ok_or_else(|| CliError::usage(format!("missing required option --{key}")))
    }

    fn parse_as<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, CliError>
    where
        T::Err: std::fmt::Display,
    {
        match self.str_opt(key) {
            None => Ok(None),
            Some(s) => s
                .parse::<T>()
                .map(Some)
                .map_err(|e| CliError::usage(format!("bad value for --{key}: {e}"))),
        }
    }

    /// `usize` option with a default.
    pub fn usize_or(&self, key: &str, default: usize) -> Result<usize, CliError> {
        Ok(self.parse_as::<usize>(key)?.unwrap_or(default))
    }

    /// Required `usize` option.
    pub fn require_usize(&self, key: &str) -> Result<usize, CliError> {
        self.parse_as::<usize>(key)?
            .ok_or_else(|| CliError::usage(format!("missing required option --{key}")))
    }

    /// `u64` option with a default.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, CliError> {
        Ok(self.parse_as::<u64>(key)?.unwrap_or(default))
    }

    /// `f64` option with a default.
    pub fn f64_or(&self, key: &str, default: f64) -> Result<f64, CliError> {
        Ok(self.parse_as::<f64>(key)?.unwrap_or(default))
    }

    /// Comma-separated `usize` list with a default.
    pub fn usize_list_or(&self, key: &str, default: &[usize]) -> Result<Vec<usize>, CliError> {
        match self.str_opt(key) {
            None => Ok(default.to_vec()),
            Some(s) => s
                .split(',')
                .map(|t| {
                    t.trim().parse::<usize>().map_err(|e| {
                        CliError::usage(format!("bad list element `{t}` for --{key}: {e}"))
                    })
                })
                .collect(),
        }
    }

    /// The `--threads` worker count with a default.
    ///
    /// Rejects 0 and anything above `MAX_THREADS` with an actionable
    /// message — every parallel command shares this validation, so
    /// `--threads 0` cannot silently mean "sequential" in one command
    /// and panic in another, and no command starts one OS thread per
    /// row of a large file.
    pub fn threads_or(&self, default: usize) -> Result<usize, CliError> {
        let threads = self.usize_or("threads", default)?;
        if threads == 0 {
            return Err(CliError::usage(
                "--threads must be at least 1 (use --threads 1 for a sequential run)",
            ));
        }
        if threads > MAX_THREADS {
            return Err(CliError::usage(format!("--threads must be at most {MAX_THREADS}")));
        }
        Ok(threads)
    }

    /// Boolean flag presence.
    pub fn flag(&self, key: &str) -> bool {
        self.touch(key);
        self.flags.contains(key)
    }

    /// Rejects any option the command did not consume.
    pub fn finish(&self) -> Result<(), CliError> {
        let consumed = self.consumed.borrow();
        let unknown: Vec<&String> = self
            .values
            .keys()
            .chain(self.flags.iter())
            .filter(|k| !consumed.contains(*k))
            .collect();
        if unknown.is_empty() {
            Ok(())
        } else {
            let list: Vec<String> = unknown.iter().map(|k| format!("--{k}")).collect();
            Err(CliError::usage(format!("unknown option(s): {}", list.join(", "))))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(tokens).expect("parse")
    }

    #[test]
    fn positionals_then_options() {
        let a = parse(&["count", "--k", "8", "--seed=42", "--parallel"]);
        assert_eq!(a.positionals(), ["count"]);
        assert_eq!(a.require_usize("k").unwrap(), 8);
        assert_eq!(a.u64_or("seed", 0).unwrap(), 42);
        assert!(a.flag("parallel"));
        a.finish().unwrap();
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = parse(&["x"]);
        assert_eq!(a.usize_or("n", 10).unwrap(), 10);
        assert_eq!(a.str_or("metric", "l2"), "l2");
        assert_eq!(a.usize_list_or("ks", &[4, 8]).unwrap(), vec![4, 8]);
        assert!(!a.flag("big"));
        a.finish().unwrap();
    }

    #[test]
    fn list_parsing() {
        let a = parse(&["x", "--ks", "3, 4,12"]);
        assert_eq!(a.usize_list_or("ks", &[]).unwrap(), vec![3, 4, 12]);
        a.finish().unwrap();
    }

    #[test]
    fn unknown_option_rejected_by_finish() {
        let a = parse(&["x", "--poins", "5"]);
        let err = a.finish().unwrap_err();
        assert!(err.to_string().contains("--poins"), "{err}");
    }

    #[test]
    fn duplicate_option_rejected() {
        let err = ParsedArgs::parse(&["x", "--k", "1", "--k", "2"]).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn positional_after_option_rejected() {
        let err = ParsedArgs::parse(&["x", "--k", "1", "oops"]).unwrap_err();
        assert!(err.to_string().contains("positionals come first"), "{err}");
    }

    #[test]
    fn bad_number_reported_with_key() {
        let a = parse(&["x", "--k", "abc"]);
        let err = a.require_usize("k").unwrap_err();
        assert!(err.to_string().contains("--k"), "{err}");
    }

    #[test]
    fn missing_required_reported() {
        let a = parse(&["x"]);
        let err = a.require_str("out").unwrap_err();
        assert!(err.to_string().contains("--out"), "{err}");
    }

    #[test]
    fn threads_are_bounded_on_both_sides() {
        assert_eq!(parse(&["x"]).threads_or(4).unwrap(), 4);
        assert_eq!(parse(&["x", "--threads", "1024"]).threads_or(4).unwrap(), MAX_THREADS);
        for (value, message) in
            [("0", "at least 1"), ("1025", "at most 1024"), ("100000", "at most 1024")]
        {
            let err = parse(&["x", "--threads", value]).threads_or(4).unwrap_err();
            assert_eq!(err.exit_code(), 2, "--threads {value}");
            assert!(err.to_string().contains(message), "--threads {value}: {err}");
        }
    }

    #[test]
    fn flag_followed_by_option_is_boolean() {
        let a = parse(&["x", "--verbose", "--k", "3"]);
        assert!(a.flag("verbose"));
        assert_eq!(a.require_usize("k").unwrap(), 3);
        a.finish().unwrap();
    }
}
