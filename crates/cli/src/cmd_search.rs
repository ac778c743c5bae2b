//! `distperm search` — build any index by spec and serve a query file.
//!
//! The serving pipeline is the crate's unified query API end to end:
//! [`dp_index::IndexSpec`] parses `--index`, [`dp_index::AnyIndex`] (or
//! [`dp_index::FlatDistPermIndex`] for `flatperm`, [`dp_index::BkTree`]
//! for `bktree` on strings) builds the structure, and
//! [`dp_index::serve::query_batch_parallel_approx`] fans the query file
//! out over scoped worker threads — one searcher session per worker,
//! deterministic output order.  Every answer carries its native
//! metric-evaluation count, which the summary aggregates.
//!
//! `--load <store>` replaces the build: the index (database, metric and
//! all) comes out of a `dp-store` container written by `distperm build`,
//! and because loading is bit-exact the answers are identical to
//! building in-process.  `--load` excludes `--vectors`, `--strings`,
//! `--metric` and `--index` — the store already records all of them.

use crate::args::ParsedArgs;
use crate::data::{self, Database, StringMetricSpec, VectorMetricSpec};
use crate::CliError;
use dp_datasets::{sisap_io, VectorSet};
use dp_index::serve::{
    query_batch_parallel, query_batch_parallel_approx, total_stats, ApproxRequest, Request,
    Response,
};
use dp_index::{
    AnyIndex, ApproxSearcher, BkTree, FlatDistPermIndex, IndexSpec, PivotSelection, ProximityIndex,
};
use dp_metric::{
    Distance, F64Dist, Hamming, LInf, Levenshtein, Lp, Metric, PrefixDistance, L1, L2,
};
use dp_store::StoredIndex;
use std::borrow::Borrow;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// What the batch asks of every query.
enum Mode {
    Knn(usize),
    Range(f64),
}

struct SearchOptions {
    mode: Mode,
    frac: f64,
    threads: usize,
    quiet: bool,
}

fn parse_options(parsed: &ParsedArgs) -> Result<SearchOptions, CliError> {
    let radius = parsed.str_opt("radius").map(str::to_string);
    let knn = parsed.str_opt("knn").map(str::to_string);
    let mode = match (knn, radius) {
        (Some(_), Some(_)) => {
            return Err(CliError::usage("give either --knn or --radius, not both"))
        }
        (None, Some(r)) => {
            let r: f64 =
                r.parse().map_err(|e| CliError::usage(format!("bad value for --radius: {e}")))?;
            if r.is_nan() || r < 0.0 {
                return Err(CliError::usage(format!("--radius must be >= 0, got {r}")));
            }
            Mode::Range(r)
        }
        (Some(k), None) => {
            let k: usize =
                k.parse().map_err(|e| CliError::usage(format!("bad value for --knn: {e}")))?;
            if k == 0 {
                return Err(CliError::usage("--knn must be at least 1"));
            }
            Mode::Knn(k)
        }
        (None, None) => Mode::Knn(1),
    };
    let frac = parsed.f64_or("frac", 1.0)?;
    if !(0.0..=1.0).contains(&frac) {
        return Err(CliError::usage(format!("--frac must be in [0,1], got {frac}")));
    }
    let threads = parsed.threads_or(4)?;
    Ok(SearchOptions { mode, frac, threads, quiet: parsed.flag("quiet") })
}

/// Runs `distperm search`.
pub fn run(parsed: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    if parsed.str_opt("load").is_some() {
        return run_loaded(parsed, out);
    }
    let spec = IndexSpec::parse(parsed.require_str("index")?)
        .map_err(|e| CliError::usage(e.to_string()))?;
    let options = parse_options(parsed)?;
    let db = data::load(parsed, options.threads)?;
    let queries_path = parsed.require_str("queries")?.to_string();
    parsed.finish()?;

    match db {
        Database::Vectors { dim, data, metric } => {
            let queries = read_queries(&queries_path, dim, options.threads)?;
            match metric {
                VectorMetricSpec::L1 => serve_vectors(L1, spec, data, queries, &options, out),
                VectorMetricSpec::L2 => serve_vectors(L2, spec, data, queries, &options, out),
                VectorMetricSpec::LInf => serve_vectors(LInf, spec, data, queries, &options, out),
                VectorMetricSpec::Lp(p) => {
                    serve_vectors(Lp::new(p), spec, data, queries, &options, out)
                }
            }
        }
        Database::Strings { data, metric } => {
            let queries = sisap_io::read_strings_file(&queries_path)
                .map_err(|e| CliError::data(format!("{queries_path}: {e}")))?;
            match metric {
                StringMetricSpec::Levenshtein => {
                    serve_strings(Levenshtein, spec, data, queries, &options, out)
                }
                StringMetricSpec::Hamming => {
                    serve_strings(Hamming, spec, data, queries, &options, out)
                }
                StringMetricSpec::Prefix => {
                    serve_strings(PrefixDistance, spec, data, queries, &options, out)
                }
            }
        }
    }
}

/// The `--load` fast path: everything but the queries comes from the
/// store, so the conflicting build-path options are usage errors.
fn run_loaded(parsed: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let store_path = parsed.require_str("load")?.to_string();
    for conflicting in ["vectors", "strings", "metric", "index"] {
        if parsed.str_opt(conflicting).is_some() {
            return Err(CliError::usage(format!(
                "--load reads the database, metric and index from the store; drop --{conflicting}"
            )));
        }
    }
    let queries_path = parsed.require_str("queries")?.to_string();
    let options = parse_options(parsed)?;
    parsed.finish()?;

    let load_start = Instant::now();
    let stored = dp_store::load_store(Path::new(&store_path))
        .map_err(|e| CliError::data(format!("{store_path}: {e}")))?;
    let queries = read_queries(&queries_path, stored.dim(), options.threads)?;
    let name = stored.spec_name();
    match stored {
        StoredIndex::L1(index) => serve_loaded(&index, &name, queries, &options, load_start, out),
        StoredIndex::L2(index) => serve_loaded(&index, &name, queries, &options, load_start, out),
        StoredIndex::L2Squared(index) => {
            serve_loaded(&index, &name, queries, &options, load_start, out)
        }
        StoredIndex::LInf(index) => serve_loaded(&index, &name, queries, &options, load_start, out),
        StoredIndex::Lp(index) => serve_loaded(&index, &name, queries, &options, load_start, out),
    }
}

fn read_queries(queries_path: &str, dim: usize, threads: usize) -> Result<VectorSet, CliError> {
    let queries = sisap_io::read_vectors_file(queries_path, threads)
        .map_err(|e| CliError::data(format!("{queries_path}: {e}")))?;
    if queries.dim() != dim {
        return Err(CliError::data(format!(
            "query dimension {} disagrees with database dimension {dim}",
            queries.dim()
        )));
    }
    Ok(queries)
}

fn serve_loaded<M: dp_metric::BatchDistance + Sync>(
    index: &FlatDistPermIndex<M>,
    name: &str,
    queries: VectorSet,
    options: &SearchOptions,
    load_start: Instant,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let request = request_for(&options.mode, options.frac, |r| Ok(F64Dist::new(r)))?;
    let rows: Vec<&[f64]> = queries.rows().collect();
    serve_batch::<[f64], _, _>(
        index,
        &rows,
        request,
        name,
        Some(index.ordering_engine()),
        true,
        options,
        load_start,
        out,
    )
}

fn request_for<D: Distance>(
    mode: &Mode,
    frac: f64,
    radius: impl FnOnce(f64) -> Result<D, CliError>,
) -> Result<ApproxRequest<D>, CliError> {
    Ok(match *mode {
        Mode::Knn(k) => ApproxRequest::Knn { k, frac },
        Mode::Range(r) => ApproxRequest::Range { radius: radius(r)?, frac },
    })
}

fn serve_vectors<M>(
    metric: M,
    spec: IndexSpec,
    data: VectorSet,
    queries: VectorSet,
    options: &SearchOptions,
    out: &mut dyn Write,
) -> Result<(), CliError>
where
    M: Metric<Vec<f64>, Dist = F64Dist> + dp_metric::BatchDistance + Copy + Sync,
{
    let request = request_for(&options.mode, options.frac, |r| Ok(F64Dist::new(r)))?;
    let name = spec.name();
    let budget = spec.supports_budget();
    if let IndexSpec::FlatDistPerm { k } = spec {
        // Same graceful pivot-count check AnyIndex::build performs for
        // every other spec — a usage error, not a library panic.
        if k > data.len() {
            return Err(CliError::usage(format!(
                "index spec `{name}` asks for {k} pivots from {} points",
                data.len()
            )));
        }
        let build_start = Instant::now();
        let index =
            FlatDistPermIndex::build(metric, data, k, PivotSelection::MaxMin, options.threads);
        let rows: Vec<&[f64]> = queries.rows().collect();
        return serve_batch::<[f64], _, _>(
            &index,
            &rows,
            request,
            &name,
            Some(index.ordering_engine()),
            budget,
            options,
            build_start,
            out,
        );
    }
    let build_start = Instant::now();
    let index = AnyIndex::build(spec, metric, data.to_nested(), PivotSelection::MaxMin)
        .map_err(|e| CliError::usage(e.to_string()))?;
    let nested = queries.to_nested();
    serve_batch(&index, &nested, request, &name, None, budget, options, build_start, out)
}

fn serve_strings<M>(
    metric: M,
    spec: IndexSpec,
    data: Vec<String>,
    queries: Vec<String>,
    options: &SearchOptions,
    out: &mut dyn Write,
) -> Result<(), CliError>
where
    M: Metric<String, Dist = u32> + Copy + Sync,
{
    let int_radius = |r: f64| {
        if r.fract() != 0.0 {
            return Err(CliError::usage(format!(
                "--radius must be an integer for string metrics, got {r}"
            )));
        }
        Ok(r as u32)
    };
    let request = request_for(&options.mode, options.frac, int_radius)?;
    let name = spec.name();
    let budget = spec.supports_budget();
    if spec == IndexSpec::BkTree {
        let build_start = Instant::now();
        let index = BkTree::build(metric, data);
        // The BK-tree is exact-only: serve through the exact request.
        let exact = match request {
            ApproxRequest::Knn { k, .. } => Request::Knn { k },
            ApproxRequest::Range { radius, .. } => Request::Range { radius },
        };
        return serve_batch_exact(
            &index,
            &queries,
            exact,
            &name,
            budget,
            options,
            build_start,
            out,
        );
    }
    let build_start = Instant::now();
    let index = AnyIndex::build(spec, metric, data, PivotSelection::MaxMin)
        .map_err(|e| CliError::usage(e.to_string()))?;
    serve_batch(&index, &queries, request, &name, None, budget, options, build_start, out)
}

#[allow(clippy::too_many_arguments)]
fn serve_batch<'i, P, Q, I>(
    index: &'i I,
    queries: &[Q],
    request: ApproxRequest<I::Dist>,
    name: &str,
    ordering_engine: Option<&'static str>,
    supports_budget: bool,
    options: &SearchOptions,
    build_start: Instant,
    out: &mut dyn Write,
) -> Result<(), CliError>
where
    P: ?Sized + Sync,
    Q: Borrow<P> + Sync,
    I: ProximityIndex<P>,
    I::Searcher<'i>: ApproxSearcher<P>,
{
    let build_secs = build_start.elapsed().as_secs_f64();
    write_header(out, name, supports_budget, options, index.size(), queries.len())?;
    if let Some(engine) = ordering_engine {
        writeln!(out, "ordering engine: {engine}")?;
    }
    let serve_start = Instant::now();
    let responses = query_batch_parallel_approx(index, queries, request, options.threads);
    let serve_secs = serve_start.elapsed().as_secs_f64();
    write_report(out, options, &responses, queries.len(), build_secs, serve_secs)
}

/// Exact-only serving (the BK-tree path, which has no budget surface).
#[allow(clippy::too_many_arguments)]
fn serve_batch_exact<P, Q, I>(
    index: &I,
    queries: &[Q],
    request: Request<I::Dist>,
    name: &str,
    supports_budget: bool,
    options: &SearchOptions,
    build_start: Instant,
    out: &mut dyn Write,
) -> Result<(), CliError>
where
    P: ?Sized + Sync,
    Q: Borrow<P> + Sync,
    I: ProximityIndex<P>,
{
    let build_secs = build_start.elapsed().as_secs_f64();
    write_header(out, name, supports_budget, options, index.size(), queries.len())?;
    let serve_start = Instant::now();
    let responses = query_batch_parallel(index, queries, request, options.threads);
    let serve_secs = serve_start.elapsed().as_secs_f64();
    write_report(out, options, &responses, queries.len(), build_secs, serve_secs)
}

fn write_header(
    out: &mut dyn Write,
    name: &str,
    supports_budget: bool,
    options: &SearchOptions,
    n: usize,
    queries: usize,
) -> Result<(), CliError> {
    writeln!(
        out,
        "index {name} over n = {n} ({queries} queries, {} threads, budget frac = {})",
        options.threads, options.frac,
    )?;
    if options.frac < 1.0 && !supports_budget {
        writeln!(out, "note: `{name}` is an exact index; --frac has no effect")?;
    }
    Ok(())
}

fn write_report<D: Distance>(
    out: &mut dyn Write,
    options: &SearchOptions,
    responses: &[Response<D>],
    queries: usize,
    build_secs: f64,
    serve_secs: f64,
) -> Result<(), CliError> {
    if !options.quiet {
        for (i, (neighbors, _)) in responses.iter().enumerate() {
            write!(out, "query {i}:")?;
            for n in neighbors {
                write!(out, " {}:{}", n.id, format_dist(n.dist.to_f64()))?;
            }
            writeln!(out)?;
        }
    }

    let totals = total_stats(responses);
    let nq = queries.max(1) as f64;
    let hits: usize = responses.iter().map(|(n, _)| n.len()).sum();
    writeln!(out, "build: {:.3} s; serve: {:.3} s ({:.0} queries/s)", build_secs, serve_secs, {
        if serve_secs > 0.0 {
            queries as f64 / serve_secs
        } else {
            f64::INFINITY
        }
    })?;
    writeln!(
        out,
        "results: {hits} neighbours; metric evals: {} total, {:.1} per query",
        totals.metric_evals,
        totals.metric_evals as f64 / nq
    )?;
    Ok(())
}

fn format_dist(d: f64) -> String {
    if d == d.trunc() && d.abs() < 1e15 {
        format!("{}", d as i64)
    } else {
        format!("{d:.6}")
    }
}
