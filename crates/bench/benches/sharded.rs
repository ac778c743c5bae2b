//! Shard size of the packed counter: time *and* bounded-memory evidence
//! on the survey's counting core.
//!
//! One cell = one k = 16 survey (u128 keys) over uniform d = 2 points
//! at n = 10⁵ and 10⁶, across shard sizes from aggressive (16384
//! rows/shard) through 65536 and the default (131072) to lazy
//! (262144).  d = 2 keeps the distinct count far below n, so the
//! counter's working set is one shard of keys plus its sorted counted
//! runs — about one entry per distinct permutation — instead of all n
//! keys.
//!
//! The `peak_kib_*` rows encode the measured high-water working set of
//! a [`PackedPermutationCounter`] drive over the same keys: the shard
//! buffer plus the peak entries across its run stack — reported through
//! the benchmark's throughput column (KiB as "elements") rather than a
//! side-channel file, so the JSON baseline carries the memory story
//! next to the time story.
//!
//! Set `CRITERION_JSON=BENCH_sharded.json` to append machine-readable
//! medians; the committed baseline was recorded that way.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dp_core::{survey_database_flat_sharded, SurveyConfig};
use dp_datasets::vectors::uniform_unit_cube_flat;
use dp_metric::{L2Squared, TransposedSites};
use dp_permutation::compute::packed_keys_flat;
use dp_permutation::PackedPermutationCounter;
use std::hint::black_box;

const DIM: usize = 2;
const K: usize = 16;
const SHARDS: [usize; 4] = [16_384, 65_536, 131_072, 262_144];

/// High-water working set of the counter in KiB: the shard key buffer
/// plus the peak entries across its run stack, each a `u128` key and a
/// `u64` count.
fn peak_working_set_kib(keys: &[u128], shard_rows: usize) -> u64 {
    let mut counter = PackedPermutationCounter::<u128>::with_shard_rows(K, shard_rows);
    for &key in keys {
        counter.insert_key(key);
    }
    counter.flush();
    let buffered = shard_rows.min(keys.len()) * std::mem::size_of::<u128>();
    let entry = std::mem::size_of::<u128>() + std::mem::size_of::<u64>();
    ((buffered + counter.peak_run_entries() * entry) / 1024) as u64
}

fn bench_sharded(c: &mut Criterion) {
    for n in [100_000usize, 1_000_000] {
        let db = uniform_unit_cube_flat(n, DIM, 1);
        let sites = uniform_unit_cube_flat(K, DIM, 2);
        let sites_t = TransposedSites::from_rows(sites.as_flat(), DIM);
        let cfg = SurveyConfig { ks: vec![K], ..Default::default() };
        let mut group = c.benchmark_group(format!("sharded_survey_n{n}_k{K}_d{DIM}"));
        group.sample_size(10);
        group.throughput(Throughput::Elements(n as u64));
        for shard_rows in SHARDS {
            group.bench_function(format!("shard{shard_rows}"), |b| {
                b.iter(|| {
                    black_box(
                        survey_database_flat_sharded(&L2Squared, &db, &cfg, 1, shard_rows).per_k[0]
                            .report
                            .distinct,
                    )
                });
            });
        }
        // Memory rows: the measured peak working set, encoded as KiB in
        // the throughput column (the time per "iteration" is just the
        // counter drive and is not the statistic of interest).
        let keys: Vec<u128> = packed_keys_flat(&L2Squared, &sites_t, db.as_flat());
        for shard_rows in SHARDS {
            let kib = peak_working_set_kib(&keys, shard_rows);
            group.throughput(Throughput::Elements(kib));
            group.bench_function(format!("peak_kib_shard{shard_rows}"), |b| {
                b.iter(|| black_box(peak_working_set_kib(&keys, shard_rows)));
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_sharded);
criterion_main!(benches);
