//! The refinement chain of §2: Voronoi diagrams of every order from the
//! same permutation data.
//!
//! The division of a space by full distance permutations *refines* the
//! classical nearest-neighbour Voronoi diagram (Fig 1: the length-1
//! prefix), the order-j Voronoi diagrams (Fig 2: the **unordered** set of
//! the j nearest sites), and the ordered-prefix diagrams in between.
//! Counting distinct keys at every truncation length measures that chain
//! on real data, on the same sorted-run counter as the full
//! permutations.

use dp_metric::Metric;
use dp_permutation::{DistPermComputer, PackedKey, PackedPermutationCounter, Permutation};

/// How a truncated permutation identifies a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefixKind {
    /// The j nearest sites *in order* — the ordered-prefix diagram.
    Ordered,
    /// The j nearest sites as a set — the classical order-j Voronoi
    /// diagram (Fig 2 for j = 2).
    Unordered,
}

/// A prefix's key: its `len` sites (ascending for an unordered prefix)
/// in the 5-bit fields of a packed length-`len` permutation key, so the
/// sorted-run counter counts distinct prefixes as it counts
/// permutations.
fn prefix_key(p: &Permutation, len: usize, kind: PrefixKind) -> u64 {
    debug_assert!(len <= p.len() && len <= 8, "prefix keys pack 8 elements max");
    let mut items = [0u8; 8];
    items[..len].copy_from_slice(&p.as_slice()[..len]);
    if kind == PrefixKind::Unordered {
        items[..len].sort_unstable();
    }
    items[..len].iter().fold(0, |key, &site| (key << u64::elem_shift(1)) | u64::from_elem(site))
}

/// Counts distinct length-`len` prefixes of the database's distance
/// permutations.
///
/// `len = 1` counts occupied nearest-neighbour Voronoi cells; `len = k`
/// (ordered) equals the paper's full distinct-permutation count.
///
/// # Panics
/// Panics if `len` is 0, exceeds `sites.len()`, or exceeds 8 (order-8
/// diagrams are far past anything the analysis uses).
pub fn count_distinct_prefixes<P, M: Metric<P>>(
    metric: &M,
    sites: &[P],
    database: &[P],
    len: usize,
    kind: PrefixKind,
) -> usize {
    assert!(len >= 1 && len <= sites.len() && len <= 8, "invalid prefix length {len}");
    let mut computer = DistPermComputer::new(sites.len());
    let mut counter = PackedPermutationCounter::<u64>::new(len);
    for y in database {
        counter.insert_key(prefix_key(&computer.compute(metric, sites, y), len, kind));
    }
    counter.finalize().distinct()
}

/// The whole refinement chain: distinct ordered-prefix counts for
/// `len = 1..=max_len` in one database pass.
pub fn refinement_chain<P, M: Metric<P>>(
    metric: &M,
    sites: &[P],
    database: &[P],
    max_len: usize,
) -> Vec<usize> {
    assert!(max_len >= 1 && max_len <= sites.len() && max_len <= 8);
    let mut computer = DistPermComputer::new(sites.len());
    let mut counters: Vec<PackedPermutationCounter<u64>> =
        (1..=max_len).map(PackedPermutationCounter::new).collect();
    for y in database {
        let p = computer.compute(metric, sites, y);
        for (j, counter) in counters.iter_mut().enumerate() {
            counter.insert_key(prefix_key(&p, j + 1, PrefixKind::Ordered));
        }
    }
    counters.into_iter().map(|c| c.finalize().distinct()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::count_permutations;
    use dp_datasets::uniform_unit_cube;
    use dp_metric::L2;

    fn setup() -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let db = uniform_unit_cube(20_000, 2, 3);
        let sites: Vec<Vec<f64>> = db[..5].to_vec();
        (db, sites)
    }

    #[test]
    fn length_one_counts_voronoi_cells() {
        let (db, sites) = setup();
        let cells = count_distinct_prefixes(&L2, &sites, &db, 1, PrefixKind::Ordered);
        assert!(cells <= 5);
        assert!(cells >= 4, "a dense uniform sample hits almost every Voronoi cell");
        // Ordered and unordered coincide at length 1.
        assert_eq!(cells, count_distinct_prefixes(&L2, &sites, &db, 1, PrefixKind::Unordered));
    }

    #[test]
    fn ordered_chain_is_monotone_and_ends_at_full_count() {
        let (db, sites) = setup();
        let chain = refinement_chain(&L2, &sites, &db, 5);
        assert_eq!(chain.len(), 5);
        for w in chain.windows(2) {
            assert!(w[0] <= w[1], "refinement can only split cells: {chain:?}");
        }
        let full = count_permutations(&L2, &sites, &db, 1).distinct;
        assert_eq!(*chain.last().unwrap(), full);
    }

    #[test]
    fn unordered_is_coarser_than_ordered() {
        let (db, sites) = setup();
        for len in 2..=4usize {
            let unordered = count_distinct_prefixes(&L2, &sites, &db, len, PrefixKind::Unordered);
            let ordered = count_distinct_prefixes(&L2, &sites, &db, len, PrefixKind::Ordered);
            assert!(unordered <= ordered, "len={len}: {unordered} > {ordered}");
        }
    }

    #[test]
    fn fig2_second_order_cells_are_few() {
        // Order-2 Voronoi diagram of 4 generic sites in the plane has at
        // most C(4,2) = 6 distinct unordered pairs occupied (plus nothing
        // else); the refinement into full permutations reaches 18.
        let db = uniform_unit_cube(40_000, 2, 9);
        let sites: Vec<Vec<f64>> = vec![
            vec![0.9867, 0.5630],
            vec![0.3364, 0.5875],
            vec![0.4702, 0.8210],
            vec![0.8423, 0.3812],
        ];
        let pairs = count_distinct_prefixes(&L2, &sites, &db, 2, PrefixKind::Unordered);
        assert!(pairs <= 6);
        let full = count_permutations(&L2, &sites, &db, 1).distinct;
        assert!(full > pairs);
    }

    #[test]
    #[should_panic(expected = "invalid prefix length")]
    fn zero_length_rejected() {
        let (db, sites) = setup();
        let _ = count_distinct_prefixes(&L2, &sites, &db[..10], 0, PrefixKind::Ordered);
    }
}
