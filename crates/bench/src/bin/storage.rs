//! E13 — the storage claim of §1/§4: distance permutations need
//! O(nk log k) bits against LAESA's O(nk log n); in d-dimensional
//! Euclidean space the codebook representation reaches Θ(nd log k) —
//! "an improvement on the previous best known theoretical result".
//!
//! Prints per-element bit costs across (d, k) and then demonstrates the
//! codebook on live data: a uniform 2-D database with k = 12 sites, whose
//! distinct-permutation count (≤ N_{2,2}(12) = 1992, so ≤ 11 bits) is
//! far below the 29 bits of an unrestricted 12-element permutation.

use dp_bench::Args;
use dp_datasets::uniform_unit_cube;
use dp_index::laesa::PivotSelection;
use dp_index::DistPermIndex;
use dp_metric::L2;
use dp_theory::storage::{render_table, storage_row};

fn main() {
    let args = Args::parse();
    let n: usize = args.get("points", 100_000);

    println!("storage comparison (bits per database element)\n");
    println!("{}", render_table(&[1, 2, 3, 4, 6, 8, 10], &[4, 8, 12, 16, 24], n as u64));

    println!("asymptotics along k at fixed d = 3 (codebook grows ~ 6 log2 k, rank ~ k log2 k):");
    for k in [4u32, 8, 16, 32] {
        let r = storage_row(3, k, n as u64);
        println!(
            "  k={k:>2}: codebook {:>3} bits, unrestricted rank {:>4} bits, LAESA {:>5} bits",
            r.codebook_bits, r.full_perm_bits, r.laesa_bits
        );
    }

    println!("\nlive demonstration (uniform 2-D data, k = 12, n = {n}):");
    let pts = uniform_unit_cube(n, 2, 99);
    let idx = DistPermIndex::build(L2, pts, 12, PivotSelection::MaxMin);
    let (cb, ids) = idx.codebook();
    let distinct = cb.distinct();
    let bits = cb.id_bits();
    println!("  distinct permutations observed: {distinct} (max possible N_2,2(12) = 1992)");
    println!("  codebook id: {bits} bits/element; packed permutation: 48 bits; rank: 29 bits");
    println!(
        "  index payload: {} bytes as ids vs {} bytes as packed permutations",
        (ids.len() * bits as usize).div_ceil(8),
        ids.len() * 6
    );
}
