//! `perfbench-trace <workload> <db> [queries]`: the traced run.
//!
//! Replays a workload's op in process through the public functions of
//! each crate, timing a span around every call, and prints one JSON
//! object.  A survey or count run replays one op (the driver pairs each
//! with an untraced op); a serving run reports set-up spans and per-batch
//! medians.  The op is split into spans that follow one
//! another (`trace.attributed_ms` is their sum, `trace.op_ms` the op's
//! wall time); sub-spans that the library fuses into one call
//! (distances inside counting, the radix sort inside finalize) are
//! replayed on their own and subtracted or reported beside it.
//!
//! The settings mirror what `distperm` does with the workload's flags:
//! site seed 0x5EED, 20 000 rho pairs, MaxMin pivots, two serving threads.

use dp_core::{count_permutations_flat_sharded, survey_database_flat_sharded, SurveyConfig};
use dp_datasets::rho::intrinsic_dimensionality_flat;
use dp_datasets::sisap_io::read_vectors_file_flat;
use dp_datasets::vectors::choose_distinct_indices;
use dp_datasets::VectorSet;
use dp_index::serve::{
    serve_resilient, serve_session, BatchOptions, FaultPlan, Frame, LineParser, QueryKind,
    ServeRequest, SessionConfig,
};
use dp_index::serve::{ApproxRequest, Request};
use dp_index::{FlatDistPermIndex, PivotSelection, ProximityIndex, Searcher};
use dp_metric::{BatchDistance, TransposedSites, L2};
use dp_permutation::compute::{collect_packed_flat_parallel, packed_keys_flat, PACKED_MAX_K};
use dp_permutation::huffman::entropy_bits;
use dp_permutation::{HuffmanCode, PackedKey, RadixSorter};
use dp_store::StoredIndex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const SEED: u64 = 0x5EED;
const RHO_PAIRS: usize = 20_000;
const SURVEY_KS: [usize; 4] = [4, 8, 12, 16];
const COUNT_K: usize = 24;
const COUNT_THREADS: usize = 2;
const SERVE_K: usize = 12;
const SERVE_THREADS: usize = 2;
const SERVE_POOL: usize = 16;
const SERVE_BATCH: usize = 64;
/// Rows per distance block, as the library's counting scan uses.
const BLOCK_ROWS: usize = 256;
/// Set-ups and in-process sessions replayed by a serving run.
const OPS: usize = 5;

/// Every metric the traced run reports; layers a workload does not use
/// read 0.
const METRICS: [&str; 25] = [
    "datasets.parse_ms",
    "datasets.rho_ms",
    "metric.transpose_ms",
    "metric.distances_ms",
    "metric.bytes_computed_mb",
    "permutation.count_ms",
    "permutation.sort_ms",
    "permutation.huffman_ms",
    "permutation.keys",
    "permutation.distinct",
    "core.survey_ms",
    "core.count_ms",
    "store.write_ms",
    "store.read_ms",
    "store.bytes",
    "index.build_ms",
    "index.exact_query_ms",
    "index.approx_query_ms",
    "index.exact_evals",
    "index.approx_evals",
    "serve.protocol_parse_ms",
    "serve.engine_ms",
    "serve.session_overhead_ms",
    "trace.attributed_ms",
    "trace.op_ms",
];

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e3)
}

/// Per-op totals of one replayed op.
#[derive(Default)]
struct Op {
    values: BTreeMap<&'static str, f64>,
    /// Time spent in replays that are not part of the op.
    probe_ms: f64,
}

impl Op {
    fn add(&mut self, name: &'static str, value: f64) {
        *self.values.entry(name).or_default() += value;
    }

    /// A span that is part of the op.
    fn span(&mut self, name: &'static str, ms: f64) {
        self.add(name, ms);
        self.add("trace.attributed_ms", ms);
    }
}

/// Per-metric medians over the replayed ops or batches.
#[derive(Default)]
struct Trace {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Trace {
    fn record(&mut self, op: Op, op_wall_ms: f64) {
        for (name, value) in op.values {
            self.samples.entry(name).or_default().push(value);
        }
        self.samples.entry("trace.op_ms").or_default().push(op_wall_ms - op.probe_ms);
    }

    fn print(&self) {
        let fields: Vec<String> = METRICS
            .iter()
            .map(|name| {
                let value = self.samples.get(name).map_or(0.0, |v| median(v.clone()));
                format!("\"{name}\": {value}")
            })
            .collect();
        println!("{{{}}}", fields.join(", "));
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn load(db: &str) -> VectorSet {
    read_vectors_file_flat(db).unwrap_or_else(|e| panic!("{db}: {e}"))
}

/// The distance kernel alone over every row, split across `threads`
/// workers as the counting scan splits it.
fn distance_pass(sites: &TransposedSites, rows: &[f64], threads: usize) {
    let (k, dim) = (sites.k(), sites.dim());
    let per = (rows.len() / dim).div_ceil(threads);
    std::thread::scope(|scope| {
        for part in rows.chunks(per * dim) {
            scope.spawn(move || {
                let mut out = vec![0.0f64; BLOCK_ROWS * k];
                for block in part.chunks(BLOCK_ROWS * dim) {
                    let m = block.len() / dim;
                    L2.batch_distances(block, sites, &mut out[..m * k]);
                    black_box(&mut out);
                }
            });
        }
    });
}

/// One k of a count or survey: transpose, distances, the public
/// counting call (rank, pack, sort, merge), and optionally the
/// storage-cost tables.
fn count_k<K: PackedKey>(
    data: &VectorSet,
    site_ids: &[usize],
    threads: usize,
    sorter: &mut RadixSorter<K>,
    huffman: bool,
    op: &mut Op,
) {
    let (n, dim, k) = (data.len(), data.dim(), site_ids.len());
    let flat = data.as_flat();
    let sites = data.gather(site_ids);
    let (sites_t, ms) = timed(|| TransposedSites::from_rows(sites.as_flat(), dim));
    op.span("metric.transpose_ms", ms);

    let ((), dist_ms) = timed(|| distance_pass(&sites_t, flat, threads));
    op.probe_ms += dist_ms;
    op.span("metric.distances_ms", dist_ms);
    op.add("metric.bytes_computed_mb", (n * (dim + k) * 8) as f64 / 1e6);

    let (summary, ms) = timed(|| {
        collect_packed_flat_parallel::<K, _>(&L2, &sites_t, flat, threads).finalize_with(sorter)
    });
    op.span("permutation.count_ms", ms - dist_ms);
    op.add("permutation.keys", n as f64);
    op.add("permutation.distinct", summary.distinct() as f64);

    // The sort replayed on the same keys, one buffer per worker.
    let start = Instant::now();
    let mut parts: Vec<Vec<K>> = flat
        .chunks(n.div_ceil(threads) * dim)
        .map(|rows| packed_keys_flat::<K, _>(&L2, &sites_t, rows))
        .collect();
    let ((), sort_ms) = timed(|| {
        std::thread::scope(|scope| {
            for part in &mut parts {
                scope.spawn(move || RadixSorter::<K>::new().sort_keys(part, K::key_bits(k)));
            }
        });
    });
    black_box(&parts);
    op.add("permutation.sort_ms", sort_ms);
    op.probe_ms += start.elapsed().as_secs_f64() * 1e3;

    if huffman {
        let ((), ms) = timed(|| {
            let freqs = summary.lexicographic_counts();
            let code = HuffmanCode::from_frequencies(&freqs);
            black_box((code.mean_bits(&freqs), entropy_bits(&freqs)));
        });
        op.span("permutation.huffman_ms", ms);
    }
}

/// One survey op, in a fresh process as `distperm survey` runs it.
fn survey(db: &str) -> Trace {
    let mut op = Op::default();
    let mut narrow = RadixSorter::<u64>::new();
    let mut wide = RadixSorter::<u128>::new();
    let start = Instant::now();
    let (data, ms) = timed(|| load(db));
    op.span("datasets.parse_ms", ms);
    let (_, ms) = timed(|| {
        black_box(intrinsic_dimensionality_flat(&L2, &data, RHO_PAIRS, SEED ^ 0x9E37_79B9))
    });
    op.span("datasets.rho_ms", ms);
    for (i, &k) in SURVEY_KS.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(SEED.wrapping_add(i as u64));
        let site_ids = choose_distinct_indices(data.len(), k, &mut rng);
        if k <= PACKED_MAX_K {
            count_k(&data, &site_ids, 1, &mut narrow, true, &mut op);
        } else {
            count_k(&data, &site_ids, 1, &mut wide, true, &mut op);
        }
    }
    let wall = start.elapsed().as_secs_f64() * 1e3;

    let config =
        SurveyConfig { ks: SURVEY_KS.to_vec(), seed: SEED, rho_pairs: RHO_PAIRS, reference: None };
    let (_, ms) = timed(|| black_box(survey_database_flat_sharded(&L2, &data, &config, 1, 0)));
    op.add("core.survey_ms", ms);
    let mut trace = Trace::default();
    trace.record(op, wall);
    trace
}

/// One count op, in a fresh process as `distperm count` runs it.
fn count(db: &str) -> Trace {
    let mut op = Op::default();
    let start = Instant::now();
    let (data, ms) = timed(|| load(db));
    op.span("datasets.parse_ms", ms);
    let mut rng = StdRng::seed_from_u64(SEED);
    let site_ids = choose_distinct_indices(data.len(), COUNT_K, &mut rng);
    count_k(&data, &site_ids, COUNT_THREADS, &mut RadixSorter::<u128>::new(), false, &mut op);
    let wall = start.elapsed().as_secs_f64() * 1e3;

    let sites = data.gather(&site_ids);
    let (_, ms) =
        timed(|| black_box(count_permutations_flat_sharded(&L2, &sites, &data, COUNT_THREADS, 0)));
    op.add("core.count_ms", ms);
    let mut trace = Trace::default();
    trace.record(op, wall);
    trace
}

/// The serving pool as protocol lines: even positions exact `knn 3`,
/// odd positions `knn 3 frac=0.05`, 64 queries a batch.
fn serve_pool(queries: &str) -> Vec<Vec<String>> {
    let text = std::fs::read_to_string(queries).unwrap_or_else(|e| panic!("{queries}: {e}"));
    let points: Vec<&str> = text.lines().collect();
    assert!(points.len() >= SERVE_POOL * SERVE_BATCH, "{queries}: too few query points");
    (0..SERVE_POOL)
        .map(|b| {
            (0..SERVE_BATCH)
                .map(|i| {
                    let coords = points[b * SERVE_BATCH + i];
                    if i % 2 == 0 {
                        format!("knn 3 {coords}")
                    } else {
                        format!("knn 3 frac=0.05 {coords}")
                    }
                })
                .collect()
        })
        .collect()
}

fn request_of(kind: QueryKind, frac: Option<f64>) -> ServeRequest<dp_metric::F64Dist> {
    match (kind, frac) {
        (QueryKind::Knn { k }, None) => ServeRequest::Exact(Request::Knn { k }),
        (QueryKind::Knn { k }, Some(frac)) => ServeRequest::Approx(ApproxRequest::Knn { k, frac }),
        (QueryKind::Range { .. }, _) => unreachable!("the pool holds knn queries only"),
    }
}

/// Parses one batch's protocol lines, `begin` to `end`, into query
/// points and requests.
fn parse_batch(
    parser: &LineParser,
    lines: &[String],
) -> (Vec<Vec<f64>>, Vec<ServeRequest<dp_metric::F64Dist>>) {
    let mut points = Vec::with_capacity(SERVE_BATCH);
    let mut requests = Vec::with_capacity(SERVE_BATCH);
    let body = lines.iter().map(String::as_str);
    for line in std::iter::once("begin b").chain(body).chain(std::iter::once("end")) {
        if let Frame::Query { kind, frac, point } = parser.parse(line).expect("valid line") {
            requests.push(request_of(kind, frac));
            points.push(point);
        }
    }
    (points, requests)
}

fn serve(db: &str, queries: &str) -> Trace {
    let mut trace = Trace::default();
    let store = Path::new(db).with_file_name("trace-index.dps");

    // Set-up: parse, build, write and read back the store.
    let mut index = None;
    for _ in 0..OPS {
        let mut op = Op::default();
        let (data, ms) = timed(|| load(db));
        op.add("datasets.parse_ms", ms);
        let (built, ms) = timed(|| {
            FlatDistPermIndex::build(L2, data, SERVE_K, PivotSelection::MaxMin, SERVE_THREADS)
        });
        op.add("index.build_ms", ms);
        let (bytes, ms) = timed(|| dp_store::save_store(&built, &store).expect("write store"));
        op.add("store.write_ms", ms);
        op.add("store.bytes", bytes as f64);
        let (loaded, ms) = timed(|| dp_store::load_store(&store).expect("read store"));
        op.add("store.read_ms", ms);
        let StoredIndex::L2(loaded) = loaded else { panic!("store holds another metric") };
        index = Some(loaded);
        for (name, value) in op.values {
            trace.samples.entry(name).or_default().push(value);
        }
    }
    std::fs::remove_file(&store).ok();
    let index = index.expect("at least one build");
    let dim = index.points().dim();
    let pool = serve_pool(queries);
    let parser = LineParser::new(dim);
    let options = BatchOptions::with_threads(SERVE_THREADS);
    let faults = FaultPlan::none();

    // Each query kind alone through one searcher, once per batch.
    let mut per_batch: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for lines in &pool {
        let (points, _) = parse_batch(&parser, lines);
        let mut searcher = index.searcher();
        let (mut exact_ms, mut approx_ms, mut exact_evals, mut approx_evals) = (0.0, 0.0, 0, 0);
        for (i, point) in points.iter().enumerate() {
            if i % 2 == 0 {
                let ((_, stats), ms) = timed(|| searcher.knn(point, 3));
                exact_ms += ms;
                exact_evals += stats.metric_evals;
            } else {
                let ((_, stats), ms) = timed(|| searcher.knn_approx(point, 3, 0.05));
                approx_ms += ms;
                approx_evals += stats.metric_evals;
            }
        }
        per_batch.entry("index.exact_query_ms").or_default().push(exact_ms);
        per_batch.entry("index.approx_query_ms").or_default().push(approx_ms);
        per_batch.entry("index.exact_evals").or_default().push(exact_evals as f64);
        per_batch.entry("index.approx_evals").or_default().push(approx_evals as f64);
    }

    // Whole sessions in process (reader thread, admission queue, engine,
    // reply formatting; no pipes, no child process), alternating with
    // parse-only and engine-only passes over the same batches so all
    // three see the same host state.
    let mut input = String::new();
    for (b, lines) in pool.iter().enumerate() {
        input.push_str(&format!("begin s{b}\n{}\nend\n", lines.join("\n")));
    }
    let config = SessionConfig {
        threads: SERVE_THREADS,
        queue_capacity: SERVE_POOL,
        ..SessionConfig::default()
    };
    let mut session_ms = Vec::new();
    for _ in 0..OPS {
        let mut out = Vec::new();
        let (summary, ms) = timed(|| {
            serve_session::<[f64], _, _, _>(
                &index,
                dim,
                input.as_bytes(),
                &mut out,
                &config,
                &faults,
            )
            .expect("in-memory output")
        });
        assert_eq!((summary.ok, summary.shed), (SERVE_POOL * SERVE_BATCH, 0), "session failed");
        session_ms.push(ms / SERVE_POOL as f64);
        for lines in &pool {
            let ((points, requests), ms) = timed(|| parse_batch(&parser, lines));
            per_batch.entry("serve.protocol_parse_ms").or_default().push(ms);
            let (report, ms) = timed(|| {
                serve_resilient::<[f64], _, _, _>(
                    &index,
                    &points,
                    |i| requests[i],
                    &options,
                    &faults,
                )
            });
            assert_eq!(report.failed() + report.degraded(), 0, "a batch did not serve cleanly");
            per_batch.entry("serve.engine_ms").or_default().push(ms);
        }
    }

    let session = median(session_ms);
    let parse = median(per_batch["serve.protocol_parse_ms"].clone());
    let engine = median(per_batch["serve.engine_ms"].clone());
    for (name, values) in per_batch {
        trace.samples.insert(name, vec![median(values)]);
    }
    trace.samples.insert("serve.session_overhead_ms", vec![session - parse - engine]);
    trace.samples.insert("trace.attributed_ms", vec![session]);
    trace.samples.insert("trace.op_ms", vec![session]);
    trace
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace = match (args.first().map(String::as_str), args.get(1), args.get(2)) {
        (Some("survey_200k_d8"), Some(db), None) => survey(db),
        (Some("count_1m_d2"), Some(db), None) => count(db),
        (Some("serve_50k_mixed"), Some(db), Some(queries)) => serve(db, queries),
        _ => {
            eprintln!("usage: perfbench-trace <survey_200k_d8|count_1m_d2> <db>");
            eprintln!("       perfbench-trace serve_50k_mixed <db> <queries>");
            std::process::exit(2);
        }
    };
    trace.print();
}
