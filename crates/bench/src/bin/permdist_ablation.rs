//! Ablation: which permutation-similarity measure should the `distperm`
//! index order candidates by?
//!
//! Chávez–Figueroa–Navarro picked the Spearman footrule, the one ordering
//! the index runs; this harness compares footrule, Spearman rho (squared
//! form), Kendall tau and Cayley on budgeted 1-NN recall over uniform
//! vectors and a synthetic dictionary, holding the index, sites and
//! budget fixed.  It orders the index's stored permutations itself, the
//! way the index's budgeted 1-NN does: candidates sorted by
//! `(measure, id)`, the first ⌈frac·n⌉ (at least one) measured, the
//! nearest by `(distance, id)` kept.
//!
//! `cargo run --release -p dp-bench --bin permdist_ablation [--n 20000]
//!  [--d 3] [--k 10] [--queries 200] [--frac 0.05] [--seed 1]`

use dp_bench::Args;
use dp_datasets::dictionary::{generate_words, language_profiles};
use dp_datasets::uniform_unit_cube;
use dp_index::laesa::PivotSelection;
use dp_index::{DistPermIndex, LinearScan};
use dp_metric::{Levenshtein, Metric, L2};
use dp_permutation::permdist::{cayley, kendall_tau, spearman_footrule, spearman_rho_sq};
use dp_permutation::Permutation;

/// The measures compared, in table column order.
const MEASURES: [fn(&Permutation, &Permutation) -> u64; 4] =
    [spearman_footrule, spearman_rho_sq, kendall_tau, cayley];

fn recall_sweep<P, M>(label: &str, metric: M, db: Vec<P>, queries: &[P], k: usize, frac: f64)
where
    P: Clone,
    M: Metric<P> + Clone,
{
    let scan = LinearScan::new(metric.clone(), db.clone());
    let truth: Vec<usize> = queries.iter().map(|q| scan.knn(q, 1)[0].id).collect();
    let idx = DistPermIndex::build(metric.clone(), db.clone(), k, PivotSelection::MaxMin);
    let perms = idx.permutations();
    let budget = ((frac * db.len() as f64).ceil() as usize).clamp(1, db.len());
    let qperms: Vec<Permutation> = queries.iter().map(|q| idx.query_permutation(q)).collect();
    print!("{label:<22}");
    for measure in MEASURES {
        let hits = queries
            .iter()
            .zip(&qperms)
            .zip(&truth)
            .filter(|((q, qperm), &t)| {
                let mut order: Vec<(u64, usize)> =
                    perms.iter().map(|p| measure(qperm, p)).zip(0..).collect();
                order.sort_unstable();
                let nearest =
                    order[..budget].iter().map(|&(_, id)| (metric.distance(q, &db[id]), id));
                nearest.min().map(|(_, id)| id) == Some(t)
            })
            .count();
        print!(" {:>7.1}%", 100.0 * hits as f64 / queries.len() as f64);
    }
    println!();
}

fn main() {
    let args = Args::parse();
    let n: usize = args.get("n", 20_000);
    let d: usize = args.get("d", 3);
    let k: usize = args.get("k", 10);
    let n_queries: usize = args.get("queries", 200);
    let frac: f64 = args.get("frac", 0.05);
    let seed: u64 = args.get("seed", 1);

    println!(
        "candidate-ordering ablation: k = {k}, budget = {:.0}% of n, \
         1-NN recall over {n_queries} queries\n",
        frac * 100.0
    );
    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>8}",
        "workload", "footrule", "rho_sq", "kendall", "cayley"
    );

    let db = uniform_unit_cube(n, d, seed);
    let queries = uniform_unit_cube(n_queries, d, seed ^ 0xBEEF);
    recall_sweep(&format!("uniform d={d} n={n}"), L2, db, &queries, k, frac);

    let profiles = language_profiles();
    let english = profiles.iter().find(|p| p.name == "english").expect("profile");
    let words = generate_words(english, n.min(10_000), seed);
    let queries = generate_words(english, n_queries, seed ^ 0xF00D);
    recall_sweep(&format!("english n={}", n.min(10_000)), Levenshtein, words, &queries, k, frac);
}
