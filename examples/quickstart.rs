//! Quickstart: compute distance permutations, count the distinct ones,
//! compare against the paper's exact Euclidean maximum, and see the
//! storage win.
//!
//! Run with: `cargo run --release --example quickstart`

use distance_permutations::core::count::count_permutations;
use distance_permutations::core::spaces::{theoretical_max, SpaceKind};
use distance_permutations::datasets::uniform_unit_cube;
use distance_permutations::index::laesa::PivotSelection;
use distance_permutations::index::DistPermIndex;
use distance_permutations::metric::L2;
use distance_permutations::permutation::distance_permutation;
use distance_permutations::theory::storage::log2_factorial_ceil;

fn main() {
    // A database of 50,000 uniform points in the plane and k = 8 sites.
    let db = uniform_unit_cube(50_000, 2, 42);
    let sites: Vec<Vec<f64>> = db[..8].to_vec();

    // The distance permutation of one point: sites ordered by distance.
    let y = &db[100];
    let perm = distance_permutation(&L2, &sites, y);
    println!(
        "distance permutation of db[100]: {perm} (paper notation {})",
        perm.display_one_based()
    );

    // The paper's central quantity: how many distinct permutations occur?
    let report = count_permutations(&L2, &sites, &db, 1);
    let max = theoretical_max(SpaceKind::Euclidean { d: 2 }, 8).expect("small");
    println!(
        "distinct permutations: {} of a theoretical maximum N_2,2(8) = {max} \
         (k! = 40320); mean occupancy {:.1} points/cell",
        report.distinct, report.mean_occupancy
    );
    assert!(report.distinct as u128 <= max);

    // The storage consequence (§1/§4): store one small codebook id per
    // element instead of a full permutation.
    let idx = DistPermIndex::build(L2, db, 8, PivotSelection::Prefix);
    let (cb, _ids) = idx.codebook();
    println!(
        "storage: {} bits/element as codebook ids vs {} bits as an \
         unrestricted permutation rank",
        cb.id_bits(),
        log2_factorial_ceil(8)
    );
}
