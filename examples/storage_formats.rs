//! Storage-format tour: every physical layout for a permutation column,
//! measured on the same data.
//!
//! The paper's §1/§4 storage argument in runnable form.  For a uniform
//! 3-D database with k = 10 sites we build the permutation column once,
//! then store it four ways:
//!
//! 1. unrestricted rank — ⌈log₂ k!⌉ bits/element (what LAESA-style
//!    reasoning would budget for "a permutation");
//! 2. raw positional packing — k·⌈log₂ k⌉ bits/element (the CFN layout);
//! 3. the paper's codebook — ⌈log₂ N⌉ bits/element where N is the number
//!    of distinct permutations that actually occur (Θ(d log k) in
//!    Euclidean space by Corollary 8);
//! 4. Huffman over the empirical distribution — §4's "more sophisticated
//!    structure", within one bit of the entropy floor.
//!
//! Run with: `cargo run --release --example storage_formats`

use distance_permutations::core::count::count_permutations;
use distance_permutations::datasets::uniform_unit_cube;
use distance_permutations::metric::L2;
use distance_permutations::permutation::huffman::entropy_bits;
use distance_permutations::permutation::{
    distance_permutation, HuffmanPermStore, PackedPermStore, Permutation, RawPermStore,
};
use distance_permutations::theory::storage::log2_factorial_ceil;

fn main() {
    let (n, d, k) = (100_000usize, 3usize, 10usize);
    let db = uniform_unit_cube(n, d, 2024);
    let sites: Vec<Vec<f64>> = db[..k].to_vec();

    // The permutation column.
    let perms: Vec<Permutation> = db.iter().map(|y| distance_permutation(&L2, &sites, y)).collect();
    let report = count_permutations(&L2, &sites, &db, 1);
    println!("database: n = {n}, d = {d}, k = {k}");
    println!(
        "distinct permutations N = {} (Theorem 7 ceiling N_{{3,2}}(10) = {})",
        report.distinct,
        distance_permutations::theory::n_euclidean(3, 10).unwrap()
    );

    // 1. Unrestricted rank.
    let naive_bits = log2_factorial_ceil(k as u32);
    // 2. Raw positional packing.
    let raw = RawPermStore::from_permutations(k, &perms);
    // 3. The paper's codebook ids.
    let packed = PackedPermStore::from_permutations(&perms);
    // 4. Huffman.
    let huff = HuffmanPermStore::from_permutations(&perms);

    // The entropy floor of the observed distribution: the codebook's
    // occurrence counts, in id order.
    let h = entropy_bits(&packed.codebook().lexicographic_counts());

    println!("\nbits per element:");
    println!("  unrestricted rank  ⌈log2 k!⌉ : {naive_bits:>8}");
    println!("  raw positional     k⌈log2 k⌉ : {:>8}", raw.bits_per_element());
    println!("  codebook ids       ⌈log2 N⌉  : {:>8}", packed.bits_per_element());
    println!("  huffman (mean)               : {:>11.2}", huff.mean_bits());
    println!("  entropy floor                : {h:>11.2}");

    println!("\ntotal heap bytes (column + tables):");
    println!("  raw positional : {:>12}", raw.heap_bytes());
    println!("  codebook       : {:>12}", packed.heap_bytes());
    println!("  huffman        : {:>12}", huff.heap_bytes());

    // All three stores decode to the same column.
    assert!(raw.iter().eq(perms.iter().copied()));
    assert!(packed.iter().eq(perms.iter().copied()));
    assert!(huff.iter().eq(perms.iter().copied()));
    println!("\nall layouts round-trip the {n}-element column exactly");

    // The paper's claim in one line: once the space is low-dimensional,
    // the codebook beats the unrestricted budget.
    assert!(packed.bits_per_element() < naive_bits);
    println!(
        "codebook saves {:.1}% over the unrestricted-permutation budget",
        100.0 * (1.0 - f64::from(packed.bits_per_element()) / f64::from(naive_bits))
    );
}
