//! `distperm count`: the paper's measurement on a database file.

use crate::args::ParsedArgs;
use crate::data::{self, Database, StringMetricSpec, VectorMetricSpec};
use crate::CliError;
use dp_core::dimension::min_euclidean_dimension;
use dp_core::{count_distinct_prefixes, PrefixKind};
use dp_core::{count_permutations, count_permutations_flat_sharded, CountEngine, CountReport};
use dp_datasets::vectors::choose_distinct_indices;
use dp_datasets::VectorSet;
use dp_metric::{
    BatchDistance, Hamming, LInf, Levenshtein, Lp, Metric, PrefixDistance, SliceRefMetric, L1, L2,
};
use dp_permutation::MAX_K;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;

struct CountOutcome {
    report: CountReport,
    site_ids: Vec<usize>,
    prefix_distinct: Option<(usize, usize)>,
}

fn measure<P, M>(
    metric: &M,
    data: &[P],
    site_ids: Vec<usize>,
    threads: usize,
    prefix_len: Option<usize>,
) -> CountOutcome
where
    P: Clone + Sync,
    M: Metric<P> + Sync,
{
    let sites: Vec<P> = site_ids.iter().map(|&i| data[i].clone()).collect();
    let report = count_permutations(metric, &sites, data, threads);
    let prefix_distinct = prefix_len
        .map(|l| (l, count_distinct_prefixes(metric, &sites, data, l, PrefixKind::Ordered)));
    CountOutcome { report, site_ids, prefix_distinct }
}

/// Vector databases run through the flat batched engine at the default
/// shard size; the optional prefix count reuses the generic per-point
/// path over row views.
fn measure_flat<M>(
    metric: &M,
    data: &VectorSet,
    site_ids: Vec<usize>,
    threads: usize,
    prefix_len: Option<usize>,
) -> CountOutcome
where
    M: BatchDistance + Sync,
{
    let sites = data.gather(&site_ids);
    let report = count_permutations_flat_sharded(metric, &sites, data, threads, 0);
    let prefix_distinct = prefix_len.map(|l| {
        // Borrow rows as slice views: no copy of the database.
        let rows: Vec<&[f64]> = data.rows().collect();
        let site_rows: Vec<&[f64]> = site_ids.iter().map(|&i| data.row(i)).collect();
        let adapter = SliceRefMetric(metric);
        (l, count_distinct_prefixes(&adapter, &site_rows, &rows, l, PrefixKind::Ordered))
    });
    CountOutcome { report, site_ids, prefix_distinct }
}

pub(crate) fn run(parsed: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let threads = parsed.threads_or(4)?;
    let db = data::load(parsed, threads)?;
    if db.len() < 2 {
        return Err(CliError::data("database has fewer than two elements"));
    }
    let explicit_sites = data::parse_sites(parsed, db.len())?;
    let k = match &explicit_sites {
        Some(ids) => {
            if let Some(klag) = parsed.str_opt("k") {
                if klag.parse::<usize>().ok() != Some(ids.len()) {
                    return Err(CliError::usage("--k disagrees with the --sites list length"));
                }
            }
            ids.len()
        }
        None => parsed.require_usize("k")?,
    };
    if k == 0 || k > db.len() || k > MAX_K {
        return Err(CliError::usage(format!(
            "k = {k} out of range (database n = {}, max {MAX_K})",
            db.len()
        )));
    }
    let seed = parsed.u64_or("seed", 0x5EED)?;
    let prefix_len = match parsed.str_opt("prefix-len") {
        None => None,
        Some(s) => {
            let l: usize =
                s.parse().map_err(|e| CliError::usage(format!("bad --prefix-len: {e}")))?;
            if l == 0 || l > k || l > 8 {
                return Err(CliError::usage(format!(
                    "--prefix-len must be in 1..=min(k, 8), got {l}"
                )));
            }
            Some(l)
        }
    };
    parsed.finish()?;

    let site_ids = match explicit_sites {
        Some(ids) => ids,
        None => {
            let mut rng = StdRng::seed_from_u64(seed);
            choose_distinct_indices(db.len(), k, &mut rng)
        }
    };

    let outcome = match &db {
        Database::Vectors { data, metric, .. } => match metric {
            VectorMetricSpec::L1 => measure_flat(&L1, data, site_ids, threads, prefix_len),
            VectorMetricSpec::L2 => measure_flat(&L2, data, site_ids, threads, prefix_len),
            VectorMetricSpec::LInf => measure_flat(&LInf, data, site_ids, threads, prefix_len),
            VectorMetricSpec::Lp(p) => {
                measure_flat(&Lp::new(*p), data, site_ids, threads, prefix_len)
            }
        },
        Database::Strings { data, metric } => match metric {
            StringMetricSpec::Levenshtein => {
                measure(&Levenshtein, data, site_ids, threads, prefix_len)
            }
            StringMetricSpec::Hamming => measure(&Hamming, data, site_ids, threads, prefix_len),
            StringMetricSpec::Prefix => {
                measure(&PrefixDistance, data, site_ids, threads, prefix_len)
            }
        },
    };

    let r = &outcome.report;
    writeln!(out, "database: n = {}, metric = {}", db.len(), db.metric_name())?;
    let ids: Vec<String> = outcome.site_ids.iter().map(usize::to_string).collect();
    writeln!(out, "sites (k = {k}): [{}]", ids.join(", "))?;
    // Name the engine so a k outside a packed range is visible instead
    // of a silent fallback.
    let engine = match &db {
        Database::Vectors { .. } => CountEngine::for_k(k).name(),
        Database::Strings { .. } => "generic",
    };
    writeln!(out, "counting engine: {engine}")?;
    writeln!(out, "distinct distance permutations: {}", r.distinct)?;
    writeln!(out, "mean occupancy: {:.2} elements/permutation", r.mean_occupancy)?;
    if let Some((l, distinct)) = outcome.prefix_distinct {
        writeln!(out, "distinct ordered prefixes (l = {l}): {distinct}")?;
    }
    if k <= 20 {
        let fact: u128 = (1..=k as u128).product();
        writeln!(out, "k! ceiling: {fact}")?;
    }
    if let Database::Vectors { dim, metric, .. } = &db {
        if *metric == VectorMetricSpec::L2 {
            if let Some(max) = dp_theory::n_euclidean(*dim as u32, k as u32) {
                writeln!(out, "Euclidean maximum N_{{{dim},2}}({k}): {max}")?;
            }
        }
        writeln!(
            out,
            "min Euclidean dimension admitting this count: {}",
            min_euclidean_dimension(r.distinct, k as u32)
        )?;
    }
    Ok(())
}
