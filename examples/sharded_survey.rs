//! Survey in bounded memory — the same report at every shard size.
//!
//! The flat survey streams each row's packed key through a counter that
//! buffers at most `shard_rows` keys: each full shard is radix-sorted
//! into a run of `(key, count)` entries, and the runs merge on a tiered
//! stack.  Because merging sorted multiset runs is associative, the
//! report — floats included — is bit-identical to the generic per-point
//! survey at every shard size; only the working set changes.  This
//! example runs the generic survey and the flat survey at several shard
//! sizes on the same database, checks the reports render identically,
//! and then drives a [`PackedPermutationCounter`] directly to show the
//! measured high-water working set next to the n-key footprint.
//!
//! Run with: `cargo run --release --example sharded_survey`

use distance_permutations::core::{survey_database, survey_database_flat_sharded, SurveyConfig};
use distance_permutations::datasets::vectors::uniform_unit_cube_flat;
use distance_permutations::metric::{TransposedSites, L2};
use distance_permutations::permutation::compute::packed_keys_flat;
use distance_permutations::permutation::PackedPermutationCounter;

fn main() {
    let n = 200_000;
    let dim = 2;
    let k = 16;
    let db = uniform_unit_cube_flat(n, dim, 1);
    let config = SurveyConfig { ks: vec![k], seed: 7, rho_pairs: 10_000, reference: None };

    // The generic per-point survey is the reference; the shard size
    // bounds the buffered keys without changing a single output bit
    // (0 is the default of 131,072).
    let rows: Vec<Vec<f64>> = db.rows().map(<[f64]>::to_vec).collect();
    let reference = format!("{}", survey_database(&L2, &rows, &config, 1));
    for shard_rows in [0, 4_096, 65_536, n] {
        let flat = format!("{}", survey_database_flat_sharded(&L2, &db, &config, 1, shard_rows));
        assert_eq!(reference, flat, "shard_rows = {shard_rows}: survey must be bit-identical");
    }
    println!("=== k = {k} survey of {n} uniform {dim}-D points (every shard size agrees) ===");
    println!("{reference}");

    // The memory story, measured rather than asserted: drive the counter
    // over the same keys and read its high-water marks.
    let sites = uniform_unit_cube_flat(k, dim, 2);
    let sites_t = TransposedSites::from_rows(sites.as_flat(), dim);
    let keys: Vec<u128> = packed_keys_flat(&L2, &sites_t, db.as_flat());
    let key_bytes = std::mem::size_of::<u128>();
    let entry_bytes = key_bytes + std::mem::size_of::<u64>();
    println!("=== counter working set ===");
    println!("all n keys:            {:>8} KiB ({n} keys)", n * key_bytes / 1024);
    for shard_rows in [4_096, 131_072] {
        let mut counter = PackedPermutationCounter::<u128>::with_shard_rows(k, shard_rows);
        for &key in &keys {
            counter.insert_key(key);
        }
        counter.flush();
        let peak = counter.peak_run_entries();
        let buffered = shard_rows.min(n) * key_bytes;
        let distinct = counter.finalize().distinct();
        println!(
            "shard_rows = {shard_rows:>6}:  {:>8} KiB (one shard + {peak} run entries at peak, \
             {distinct} distinct)",
            (buffered + peak * entry_bytes) / 1024,
        );
    }
}
