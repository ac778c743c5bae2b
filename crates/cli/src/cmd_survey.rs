//! `distperm survey`: the full §5-style report for a database file.

use crate::args::ParsedArgs;
use crate::data::{self, Database, StringMetricSpec, VectorMetricSpec};
use crate::CliError;
use dp_core::dimension::ReferenceProfile;
use dp_core::{survey_database, survey_database_flat_sharded, CountEngine, SurveyConfig};
use dp_metric::{Hamming, LInf, Levenshtein, Lp, PrefixDistance, L1, L2};
use dp_permutation::MAX_K;
use std::io::Write;

/// One line naming the counting engine each surveyed k runs on, with
/// consecutive same-engine ks grouped:
/// `packed-u64 (k = 4, 8, 12); packed-u128 (k = 16)`.
fn engine_line(ks: &[usize]) -> String {
    let mut groups: Vec<(&'static str, Vec<usize>)> = Vec::new();
    for &k in ks {
        let name = CountEngine::for_k(k).name();
        match groups.last_mut() {
            Some((n, list)) if *n == name => list.push(k),
            _ => groups.push((name, vec![k])),
        }
    }
    groups
        .iter()
        .map(|(name, list)| {
            let ks: Vec<String> = list.iter().map(usize::to_string).collect();
            format!("{name} (k = {})", ks.join(", "))
        })
        .collect::<Vec<_>>()
        .join("; ")
}

pub(crate) fn run(parsed: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let threads = parsed.threads_or(1)?;
    let db = data::load(parsed, threads)?;
    if db.len() < 2 {
        return Err(CliError::data("database has fewer than two elements"));
    }
    let ks = parsed.usize_list_or("ks", &[4, 8, 12])?;
    if ks.is_empty() {
        return Err(CliError::usage("--ks list is empty"));
    }
    for &k in &ks {
        if k == 0 || k > db.len() || k > MAX_K {
            return Err(CliError::usage(format!(
                "k = {k} out of range (database n = {}, max {MAX_K})",
                db.len()
            )));
        }
    }
    let seed = parsed.u64_or("seed", 0x5EED)?;
    let rho_pairs = parsed.usize_or("rho-pairs", 20_000)?.max(1);
    let with_reference = parsed.flag("with-reference");
    parsed.finish()?;

    let reference = if with_reference {
        // A reference curve at the largest surveyed k, sized to the data.
        let k = *ks.iter().max().expect("non-empty");
        let n = db.len().min(20_000);
        Some(ReferenceProfile::build(k, n, 8, 3, seed ^ 0x00C0_FFEE, 4))
    } else {
        None
    };
    let cfg = SurveyConfig { ks, seed, rho_pairs, reference };

    // Vector databases are already stored flat, so the survey runs
    // straight through the batched engine at the default shard size —
    // same report, bit for bit, as the generic per-point path.
    let report = match &db {
        Database::Vectors { data, metric, .. } => match metric {
            VectorMetricSpec::L1 => survey_database_flat_sharded(&L1, data, &cfg, threads, 0),
            VectorMetricSpec::L2 => survey_database_flat_sharded(&L2, data, &cfg, threads, 0),
            VectorMetricSpec::LInf => survey_database_flat_sharded(&LInf, data, &cfg, threads, 0),
            VectorMetricSpec::Lp(p) => {
                survey_database_flat_sharded(&Lp::new(*p), data, &cfg, threads, 0)
            }
        },
        Database::Strings { data, metric } => match metric {
            StringMetricSpec::Levenshtein => survey_database(&Levenshtein, data, &cfg, threads),
            StringMetricSpec::Hamming => survey_database(&Hamming, data, &cfg, threads),
            StringMetricSpec::Prefix => survey_database(&PrefixDistance, data, &cfg, threads),
        },
    };
    writeln!(out, "metric: {}", db.metric_name())?;
    match &db {
        Database::Vectors { .. } => {
            writeln!(out, "counting engines: {}", engine_line(&cfg.ks))?;
        }
        Database::Strings { .. } => writeln!(out, "counting engine: generic")?,
    }
    write!(out, "{report}")?;
    Ok(())
}
