//! Build-by-spec and parallel batch serving through the unified
//! proximity-query API.
//!
//! The workflow a query server would run:
//!
//! 1. parse an index name (`IndexSpec::parse("laesa:16")`) and build it
//!    over the database with `AnyIndex::build` — no per-type dispatch;
//! 2. serve a batch of queries with `serve::query_batch_parallel`:
//!    scoped worker threads, one `Searcher` session per worker,
//!    deterministic output order, native `QueryStats` per answer;
//! 3. compare against the flat-storage engine (`FlatDistPermIndex`),
//!    which serves `&[f64]` rows through the same trait surface.
//!
//! Run with: `cargo run --release --example parallel_serving`

use distance_permutations::datasets::{uniform_unit_cube, VectorSet};
use distance_permutations::index::laesa::PivotSelection;
use distance_permutations::index::serve::{query_batch_parallel, total_stats, Request};
use distance_permutations::index::{AnyIndex, FlatDistPermIndex, IndexSpec};
use distance_permutations::metric::L2;
use std::time::Instant;

fn main() {
    let n = 20_000;
    let d = 6;
    let batch = 256;
    let threads = 8;
    let points = uniform_unit_cube(n, d, 1);
    let queries = uniform_unit_cube(batch, d, 2);

    println!("database: {n} uniform points in [0,1]^{d}; batch of {batch} 3-NN queries\n");

    // 1. Build any index by name.  Swap the spec string freely:
    //    "vptree", "laesa:16", "distperm:12", "ghtree", …
    for spec_name in ["vptree", "laesa:16", "distperm:12"] {
        let spec = IndexSpec::parse(spec_name).expect("valid spec");
        let index = AnyIndex::build(spec, L2, points.clone(), PivotSelection::MaxMin)
            .expect("generic index");

        // 2. Serve the batch sequentially and in parallel; answers and
        //    stats are bit-identical, only wall-clock changes.
        let t0 = Instant::now();
        let seq = query_batch_parallel(&index, &queries, Request::Knn { k: 3 }, 1);
        let seq_time = t0.elapsed();
        let t0 = Instant::now();
        let par = query_batch_parallel(&index, &queries, Request::Knn { k: 3 }, threads);
        let par_time = t0.elapsed();
        assert_eq!(seq, par, "parallel serving must be bit-identical");

        let stats = total_stats(&seq);
        println!(
            "{:<12} {:>9.1} evals/query   sequential {:>7.1?}   {} threads {:>7.1?}",
            spec.name(),
            stats.metric_evals as f64 / batch as f64,
            seq_time,
            threads,
            par_time,
        );
    }

    // 3. The flat engine serves &[f64] rows through the same traits.
    let flat = FlatDistPermIndex::build(
        L2,
        VectorSet::from_nested(&points),
        12,
        PivotSelection::MaxMin,
        threads,
    );
    let qset = VectorSet::from_nested(&queries);
    let rows: Vec<&[f64]> = qset.rows().collect();
    let t0 = Instant::now();
    let responses =
        query_batch_parallel::<[f64], _, _>(&flat, &rows, Request::Knn { k: 3 }, threads);
    let elapsed = t0.elapsed();
    let stats = total_stats(&responses);
    println!(
        "{:<12} {:>9.1} evals/query   flat rows, {} threads   {:>7.1?}",
        "flatperm:12",
        stats.metric_evals as f64 / batch as f64,
        threads,
        elapsed,
    );

    // Show one served answer end to end.
    let (neighbors, stats) = &responses[0];
    println!("\nfirst query served: {} metric evaluations", stats.metric_evals);
    for nb in neighbors {
        println!("  id {:>5}  distance {:.4}", nb.id, nb.dist.get());
    }
}
