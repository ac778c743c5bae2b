//! The paper's §5 suggestion, as a tool: estimate the *effective
//! dimension* of a database from its distance-permutation count, by
//! placing the count on the uniform-Euclidean reference curve.
//!
//! Unlike the intrinsic dimensionality ρ (which depends on the data's
//! probability distribution), the permutation count depends only on which
//! points exist at all.  Both statistics are printed side by side.
//!
//! Run with: `cargo run --release --example dimensionality`

use distance_permutations::core::count::count_permutations;
use distance_permutations::core::dimension::{estimate_dimension, ReferenceProfile};
use distance_permutations::datasets::intrinsic_dimensionality;
use distance_permutations::datasets::vectors::{clustered, curve_embedded, uniform_unit_cube};
use distance_permutations::datasets::{colors, nasa};
use distance_permutations::metric::L2;

const K: usize = 8;
const N: usize = 20_000;

fn main() {
    println!("building the uniform-Euclidean reference curve (k = {K}, n = {N})…");
    let profile = ReferenceProfile::build(K, N, 8, 5, 2024, 8);
    for (d, mean) in &profile.curve {
        println!("  d = {d}: mean {mean:.1} distinct permutations");
    }
    println!();

    let cases: Vec<(&str, Vec<Vec<f64>>)> = vec![
        ("uniform 2-D", uniform_unit_cube(N, 2, 1)),
        ("uniform 5-D", uniform_unit_cube(N, 5, 2)),
        ("curve in 6-D (intrinsically 1-D)", curve_embedded(N, 6, 3)),
        ("5 clusters in 8-D", clustered(N, 8, 5, 0.02, 4)),
        ("colors analogue (112-D histograms)", colors::generate_histograms(N, 5)),
        ("nasa analogue (20-D, rank ~5)", nasa::generate_features(N, 6)),
    ];

    println!("{:<36} {:>10} {:>12} {:>10}", "database", "perms", "perm-dim", "rho");
    for (name, db) in cases {
        let sites: Vec<Vec<f64>> = db[..K].to_vec();
        let observed = count_permutations(&L2, &sites, &db, 1).distinct;
        let est = estimate_dimension(observed, &profile);
        let rho = intrinsic_dimensionality(&L2, &db, 2000, 7);
        println!("{name:<36} {observed:>10} {est:>12.2} {rho:>10.2}");
    }
    println!("\nthe permutation dimension tracks *intrinsic* structure: the embedded");
    println!("curve and the low-rank sets read far below their embedding dimension —");
    println!("the paper's observation for the nasa/colors/listeria databases.");
}
