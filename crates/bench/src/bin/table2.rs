//! E2 — regenerates the paper's **Table 2**: the number of distance
//! permutations occurring in the SISAP sample databases, for k = 3..12
//! sites, plus each database's cardinality n and intrinsic
//! dimensionality ρ.
//!
//! The original SISAP archives are not redistributable, so the roster
//! walks the synthetic analogues of `dp-datasets` (same n, same metric,
//! matched dimensional character — DESIGN.md §2).  By default databases
//! are scaled to `--points` elements (default 20,000) so the run finishes
//! in minutes; pass `--full` to use the paper's cardinalities.
//!
//! Expected shape versus the paper: counts for k <= 5 near k!
//! (dictionaries) or far below (listeria/long/colors), then growing far
//! more slowly than k!, and never anywhere near n for the clustered
//! databases.

use dp_bench::Args;
use dp_core::count::count_permutations;
use dp_datasets::intrinsic_dimensionality;
use dp_datasets::table2::{table2_roster, Table2Data};
use dp_datasets::vectors::choose_distinct_indices;
use dp_metric::{CosineDistance, Levenshtein, L2};
use rand::rngs::StdRng;
use rand::SeedableRng;

const KS: [usize; 10] = [3, 4, 5, 6, 7, 8, 9, 10, 11, 12];

fn main() {
    let args = Args::parse();
    let cap: usize = args.get("points", 20_000);
    let full = args.flag("full");
    let threads: usize = args.get("threads", 8);
    let seed: u64 = args.get("seed", 20080411); // SISAP'08 workshop date

    println!("Table 2 — distance permutations in (synthetic) SISAP sample databases");
    println!(
        "scale: {}",
        if full { "paper cardinalities".into() } else { format!("capped at n = {cap}") }
    );
    print!("{:<11} {:>8} {:>8}", "database", "n", "rho");
    for k in KS {
        print!(" {:>8}", format!("k={k}"));
    }
    println!();

    for entry in table2_roster() {
        let n = if full { entry.n } else { entry.n.min(cap) };
        let data = entry.generate(n, seed);
        let (rho, counts) = match &data {
            Table2Data::Strings(points) => run(&Levenshtein, points, threads, seed),
            Table2Data::Documents(points) => run(&CosineDistance, points, threads, seed),
            Table2Data::Vectors(points) => run(&L2, points, threads, seed),
        };
        print!("{:<11} {:>8} {:>8.3}", entry.name, n, rho);
        for c in counts {
            print!(" {c:>8}");
        }
        println!();
    }
    println!("\n(paper rho values for reference: Dutch 7.159, listeria 0.894, long 2.603,");
    println!(" short 808.739, colors 2.745, nasa 5.186)");
}

/// ρ plus the distinct-permutation count for each k, with k random
/// database elements as sites (the paper's protocol).
fn run<P: Clone + Sync, M: dp_metric::Metric<P> + Sync>(
    metric: &M,
    points: &[P],
    threads: usize,
    seed: u64,
) -> (f64, Vec<usize>) {
    let rho = intrinsic_dimensionality(metric, points, 2000.min(points.len() * 2), seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
    let counts = KS
        .iter()
        .map(|&k| {
            let ids = choose_distinct_indices(points.len(), k, &mut rng);
            let sites: Vec<P> = ids.iter().map(|&i| points[i].clone()).collect();
            count_permutations(metric, &sites, points, threads).distinct
        })
        .collect();
    (rho, counts)
}
