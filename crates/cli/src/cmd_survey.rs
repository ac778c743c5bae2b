//! `distperm survey`: the full §5-style report for a database file.

use crate::args::ParsedArgs;
use crate::data::{self, Database, StringMetricSpec, VectorMetricSpec};
use crate::CliError;
use dp_core::dimension::ReferenceProfile;
use dp_core::{survey_database, survey_database_flat_sharded, CountEngine, SurveyConfig};
use dp_metric::{Hamming, LInf, Levenshtein, Lp, Metric, PrefixDistance, L1, L2};
use dp_permutation::MAX_K;
use std::io::Write;

fn survey<P, M>(metric: &M, data: &[P], cfg: &SurveyConfig) -> dp_core::DatabaseSurvey
where
    P: Clone,
    M: Metric<P>,
{
    survey_database(metric, data, cfg)
}

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
    let shard_rows = parsed.usize_or("shard-rows", 0)?;
    if shard_rows > 0 && matches!(&db, Database::Strings { .. }) {
        return Err(CliError::usage("--shard-rows applies only to vector databases"));
    }
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

    let report = match &db {
        Database::Vectors { data, metric, .. } => {
            // Vector databases are already stored flat, so the survey
            // runs straight through the batched engine — same report,
            // bit for bit, as the generic per-point path, at every
            // --shard-rows (the per-k counting buffers at most that many
            // keys per worker; 0 means the default 131,072).
            match metric {
                VectorMetricSpec::L1 => {
                    survey_database_flat_sharded(&L1, data, &cfg, threads, shard_rows)
                }
                VectorMetricSpec::L2 => {
                    survey_database_flat_sharded(&L2, data, &cfg, threads, shard_rows)
                }
                VectorMetricSpec::LInf => {
                    survey_database_flat_sharded(&LInf, data, &cfg, threads, shard_rows)
                }
                VectorMetricSpec::Lp(p) => {
                    survey_database_flat_sharded(&Lp::new(*p), data, &cfg, threads, shard_rows)
                }
            }
        }
        Database::Strings { data, metric } => match metric {
            StringMetricSpec::Levenshtein => survey(&Levenshtein, data, &cfg),
            StringMetricSpec::Hamming => survey(&Hamming, data, &cfg),
            StringMetricSpec::Prefix => survey(&PrefixDistance, data, &cfg),
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
