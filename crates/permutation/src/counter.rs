//! Counting distinct distance permutations.
//!
//! This is the measurement the paper's experiments perform: enumerate the
//! distance permutation of every database element and count the distinct
//! values (`sort | uniq | wc` over the SISAP `build-distperm-*` output, §5).
//! Two counters implement it:
//!
//! * [`PermutationCounter`] — an Fx-hashed multiset for arbitrary k and
//!   point streams; also tracks occupancy (how many elements map to each
//!   permutation), which Table 2's analysis uses ("about 10 database
//!   points per permutation").
//! * [`crate::shard::PackedPermutationCounter`] — the sorted-run engine
//!   behind the flat pipeline: packed keys (a [`PackedKey`] word — `u64`
//!   for k ≤ 12, `u128` for k ≤ 25) stream through bounded shards that
//!   are radix-sorted, collapsed by [`count_sorted_runs`] and merged as
//!   sorted counted runs.  No hashing anywhere on the hot path.
//!
//! The packed engine ends in a [`PackedCountSummary`], which keeps one
//! `(key, occupancy)` pair per **distinct** permutation — O(distinct)
//! memory, so downstream consumers (codebooks, Huffman, the survey)
//! never pay for n again.

use crate::compute::DistPermComputer;
use crate::fxhash::FxHashMap;
use crate::key::PackedKey;
use crate::perm::Permutation;
use crate::radix::RadixSorter;
use dp_metric::Metric;

/// Run lengths of consecutive equal values in a sorted (or at least
/// run-grouped) slice: `[3, 3, 3, 7, 9, 9]` → `[3, 1, 2]`.
///
/// The shared scan under every sort-then-dedup consumer in this crate —
/// the packed counter run-length encodes each sorted shard with it,
/// [`PermutationCounter::sorted_counts`] collapses its sorted key stream
/// with it, and the flat codebooks in [`crate::encoding`] locate run
/// starts through it.
pub fn count_sorted_runs<T: PartialEq>(sorted: &[T]) -> Vec<u64> {
    let mut runs = Vec::new();
    let mut start = 0usize;
    for i in 1..sorted.len() {
        if sorted[i] != sorted[start] {
            runs.push((i - start) as u64);
            start = i;
        }
    }
    if start < sorted.len() {
        runs.push((sorted.len() - start) as u64);
    }
    runs
}

/// Accumulates distance permutations and distinct-count statistics.
#[derive(Debug, Clone, Default)]
pub struct PermutationCounter {
    counts: FxHashMap<Permutation, u64>,
    total: u64,
}

impl PermutationCounter {
    /// An empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one occurrence of `p`.
    pub fn insert(&mut self, p: Permutation) {
        *self.counts.entry(p).or_insert(0) += 1;
        self.total += 1;
    }

    /// Number of distinct permutations observed.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean occupancy: observations per distinct permutation.
    pub fn mean_occupancy(&self) -> f64 {
        if self.counts.is_empty() {
            0.0
        } else {
            self.total as f64 / self.counts.len() as f64
        }
    }

    /// Iterator over `(permutation, occurrence count)`.
    pub fn iter(&self) -> impl Iterator<Item = (&Permutation, &u64)> {
        self.counts.iter()
    }

    /// The observed permutations, sorted lexicographically — a stable order
    /// for codebook assignment and for diffing against other runs.
    pub fn sorted_permutations(&self) -> Vec<Permutation> {
        let mut v: Vec<Permutation> = self.counts.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// `(permutation, occurrence count)` pairs sorted lexicographically —
    /// the order a codebook built from [`Self::sorted_permutations`]
    /// assigns ids in, so mapping this to its counts *is* the frequency
    /// table both survey engines emit.
    ///
    /// For a uniform permutation length `k ≤ WIDE_MAX_K` the sort runs
    /// as a radix sort over packed lexicographic keys at the width that
    /// fits `k` (no `Permutation` is compared); mixed or longer lengths
    /// fall back to a comparison sort with identical output.
    pub fn sorted_counts(&self) -> Vec<(Permutation, u64)> {
        let uniform_k = self.counts.keys().next().map(super::perm::Permutation::len).filter(|&k| {
            k <= crate::compute::WIDE_MAX_K && self.counts.keys().all(|p| p.len() == k)
        });
        if let Some(k) = uniform_k {
            crate::for_packed_k!(k, K => self.sorted_counts_radix::<K>(k),
                _ => self.sorted_counts_cmp())
        } else {
            self.sorted_counts_cmp()
        }
    }

    /// The radix arm of [`Self::sorted_counts`]: sort packed
    /// (lexicographic-layout) keys of a uniform length `k` at width `K`.
    fn sorted_counts_radix<K: PackedKey>(&self, k: usize) -> Vec<(Permutation, u64)> {
        let mut pairs: Vec<(K, u64)> =
            self.counts.iter().map(|(p, &c)| (pack_perm::<K>(p), c)).collect();
        RadixSorter::<K>::new().sort_pairs(&mut pairs, K::key_bits(k));
        pairs.into_iter().map(|(key, c)| (decode_packed(key, k), c)).collect()
    }

    /// The comparison-sort arm of [`Self::sorted_counts`] — identical
    /// output, works for any mix of lengths.
    fn sorted_counts_cmp(&self) -> Vec<(Permutation, u64)> {
        let mut v: Vec<(Permutation, u64)> = self.counts.iter().map(|(&p, &c)| (p, c)).collect();
        v.sort_unstable_by_key(|&(p, _)| p);
        v
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &PermutationCounter) {
        for (&p, &c) in other.counts.iter() {
            *self.counts.entry(p).or_insert(0) += c;
        }
        self.total += other.total;
    }

    /// Occupancy histogram: `histogram[i]` = number of permutations seen
    /// exactly `i+1` times (Fig 7's "cells the database happens to miss"
    /// analysis looks at the other side of this distribution).
    pub fn occupancy_histogram(&self) -> Vec<u64> {
        let max = self.counts.values().copied().max().unwrap_or(0) as usize;
        let mut hist = vec![0u64; max];
        for &c in self.counts.values() {
            hist[(c - 1) as usize] += 1;
        }
        hist
    }

    /// The most heavily occupied permutation and its count.
    pub fn mode(&self) -> Option<(Permutation, u64)> {
        self.counts.iter().map(|(&p, &c)| (p, c)).max_by_key(|&(p, c)| (c, std::cmp::Reverse(p)))
    }
}

/// Finalized statistics of a [`crate::shard::PackedPermutationCounter`].
///
/// Holds one key per **distinct** permutation (ascending key order, which
/// the [`pack_perm`] layout makes lexicographic order) plus its occupancy
/// count and the observation total — `O(distinct)` memory, independent of
/// the database size.
#[derive(Debug, Clone)]
pub struct PackedCountSummary<K: PackedKey = u64> {
    k: usize,
    keys: Vec<K>,
    occupancies: Vec<u64>,
    total: u64,
}

impl<K: PackedKey> PackedCountSummary<K> {
    /// Wraps strictly ascending distinct keys and their counts — the
    /// packed counter's merged runs.
    pub(crate) fn from_sorted_counts(k: usize, keys: Vec<K>, occupancies: Vec<u64>) -> Self {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys must be strictly ascending");
        let total = occupancies.iter().sum::<u64>();
        Self { k, keys, occupancies, total }
    }

    /// Number of distinct permutations observed.
    pub fn distinct(&self) -> usize {
        self.occupancies.len()
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean occupancy: observations per distinct permutation.
    pub fn mean_occupancy(&self) -> f64 {
        if self.occupancies.is_empty() {
            0.0
        } else {
            self.total() as f64 / self.distinct() as f64
        }
    }

    /// Permutation length k.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The distinct permutations, decoded, in lexicographic order —
    /// the same order as [`PermutationCounter::sorted_permutations`].
    pub fn permutations(&self) -> Vec<Permutation> {
        self.distinct_keys().map(|key| self.decode(key)).collect()
    }

    /// The distinct packed keys in ascending key order — one per
    /// occupancy entry.  The [`pack_perm`] layout makes this the
    /// lexicographic order of the decoded permutations.
    pub fn distinct_keys(&self) -> impl Iterator<Item = K> + '_ {
        self.keys.iter().copied()
    }

    /// Iterator over `(permutation, occurrence count)`, in
    /// lexicographic order.  The counterpart of
    /// [`PermutationCounter::iter`] — the flat survey path uses it to
    /// recover the occupancy distribution without re-hashing every
    /// observation.
    pub fn iter(&self) -> impl Iterator<Item = (Permutation, u64)> + '_ {
        self.keys
            .iter()
            .zip(self.occupancies.iter())
            .map(|(&key, &count)| (self.decode(key), count))
    }

    /// Occurrence counts ordered by the **lexicographic** rank of each
    /// distinct permutation — the order a codebook built from
    /// [`PermutationCounter::sorted_permutations`] assigns ids in, so a
    /// frequency table built from this vector is element-for-element
    /// identical to the hash-counter path's.
    ///
    /// The [`pack_perm`] layout puts position 0 in the most significant
    /// occupied group, so ascending key order *is* lexicographic order
    /// and the finalized occupancies are already this table — no second
    /// sort, no decode.
    pub fn lexicographic_counts(&self) -> Vec<u64> {
        self.occupancies.clone()
    }

    /// Expands into an ordinary [`PermutationCounter`] (same counts).
    pub fn unpack(&self) -> PermutationCounter {
        let mut out = PermutationCounter::new();
        for (p, count) in self.iter() {
            for _ in 0..count {
                out.insert(p);
            }
        }
        out
    }

    fn decode(&self, key: K) -> Permutation {
        decode_packed(key, self.k)
    }
}

/// Packs a permutation into its 5-bits-per-element **lexicographic**
/// key — position `p` lives in group `k-1-p`, so position 0 occupies
/// the most significant occupied group and ascending integer order on
/// keys of a fixed length coincides with [`Permutation`]'s
/// lexicographic order.  The packed counter's key layout, at either
/// [`PackedKey`] width.
///
/// Public so the integration suites can pack their reference keys;
/// panics are impossible for any valid `Permutation` with
/// `len() ≤ K::MAX_K` in debug (longer inputs silently alias in release
/// — callers dispatch widths first).
pub fn pack_perm<K: PackedKey>(p: &Permutation) -> K {
    debug_assert!(p.len() <= K::MAX_K, "permutation too long for this key width");
    let k = p.len();
    let mut key = K::ZERO;
    for (pos, &site) in p.as_slice().iter().enumerate() {
        // width: position pos goes in group k-1-pos; k ≤ MAX_K groups fit.
        key |= K::from_elem(site) << K::elem_shift(k - 1 - pos);
    }
    key
}

/// Inverse of [`pack_perm`] for a known length `k`.
pub(crate) fn decode_packed<K: PackedKey>(key: K, k: usize) -> Permutation {
    let mut items = [0u8; crate::perm::MAX_K];
    for (pos, slot) in items[..k].iter_mut().enumerate() {
        *slot = key.field(k - 1 - pos);
    }
    Permutation::from_slice(&items[..k]).expect("packed key decodes to a permutation")
}

/// Counts the distinct distance permutations of `database` w.r.t. `sites`.
///
/// The headline operation of the paper: |{Π_y : y ∈ database}|.
pub fn count_distinct<P, M: Metric<P>>(metric: &M, sites: &[P], database: &[P]) -> usize {
    collect_counter(metric, sites, database).distinct()
}

/// Runs the full scan and returns the counter (distinct count + occupancy).
pub fn collect_counter<P, M: Metric<P>>(
    metric: &M,
    sites: &[P],
    database: &[P],
) -> PermutationCounter {
    let mut computer = DistPermComputer::new(sites.len());
    let mut counter = PermutationCounter::new();
    for y in database {
        counter.insert(computer.compute(metric, sites, y));
    }
    counter
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::PackedPermutationCounter;
    use dp_metric::L2;

    #[test]
    fn counter_basics() {
        let mut c = PermutationCounter::new();
        let a = Permutation::identity(3);
        let b = Permutation::from_slice(&[1, 0, 2]).unwrap();
        c.insert(a);
        c.insert(a);
        c.insert(b);
        assert_eq!(c.distinct(), 2);
        assert_eq!(c.total(), 3);
        assert!((c.mean_occupancy() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_counter() {
        let c = PermutationCounter::new();
        assert_eq!(c.distinct(), 0);
        assert_eq!(c.total(), 0);
        assert_eq!(c.mean_occupancy(), 0.0);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = PermutationCounter::new();
        let mut b = PermutationCounter::new();
        let p = Permutation::identity(2);
        let q = Permutation::from_slice(&[1, 0]).unwrap();
        a.insert(p);
        b.insert(p);
        b.insert(q);
        a.merge(&b);
        assert_eq!(a.distinct(), 2);
        assert_eq!(a.total(), 3);
        let pc = a.iter().find(|(x, _)| **x == p).map(|(_, c)| *c);
        assert_eq!(pc, Some(2));
    }

    #[test]
    fn one_dimensional_two_sites_yields_two_permutations() {
        // Sites at 0 and 1; the bisector is the midpoint 0.5: points left
        // of it see [0,1], points right see [1,0].
        let sites = vec![vec![0.0], vec![1.0]];
        let db: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 50.0 - 0.5]).collect();
        assert_eq!(count_distinct(&L2, &sites, &db), 2);
    }

    #[test]
    fn one_dimensional_count_bounded_by_theorem() {
        // N_{1,2}(k) = C(k,2) + 1. With k=4 sites on a line, at most 7.
        let sites: Vec<Vec<f64>> = vec![vec![0.0], vec![0.3], vec![0.55], vec![1.0]];
        let db: Vec<Vec<f64>> = (0..2000).map(|i| vec![i as f64 / 1000.0 - 0.5]).collect();
        let n = count_distinct(&L2, &sites, &db);
        assert!(n <= 7, "got {n} > C(4,2)+1");
        assert_eq!(n, 7, "a dense 1-D sweep should realise all cells");
    }

    #[test]
    fn occupancy_histogram_and_mode() {
        let mut c = PermutationCounter::new();
        let a = Permutation::identity(3);
        let b = Permutation::from_slice(&[1, 0, 2]).unwrap();
        let d = Permutation::from_slice(&[2, 1, 0]).unwrap();
        for _ in 0..3 {
            c.insert(a);
        }
        c.insert(b);
        c.insert(d);
        // Two permutations seen once, one seen three times.
        assert_eq!(c.occupancy_histogram(), vec![2, 0, 1]);
        assert_eq!(c.mode(), Some((a, 3)));
        let empty = PermutationCounter::new();
        assert!(empty.occupancy_histogram().is_empty());
        assert_eq!(empty.mode(), None);
    }

    #[test]
    fn packed_summary_iter_matches_hash_counter() {
        let mut packed = PackedPermutationCounter::<u64>::new(3);
        let mut hash = PermutationCounter::new();
        let perms = [
            Permutation::identity(3),
            Permutation::from_slice(&[1, 0, 2]).unwrap(),
            Permutation::from_slice(&[2, 1, 0]).unwrap(),
        ];
        for (i, p) in perms.iter().enumerate() {
            for _ in 0..=i {
                packed.insert(p);
                hash.insert(*p);
            }
        }
        let summary = packed.finalize();
        let mut pairs: Vec<(Permutation, u64)> = summary.iter().collect();
        pairs.sort_unstable();
        let mut expected: Vec<(Permutation, u64)> = hash.iter().map(|(&p, &c)| (p, c)).collect();
        expected.sort_unstable();
        assert_eq!(pairs, expected);
        // Counts align with the decoded permutations, not just the totals.
        assert_eq!(summary.iter().map(|(_, c)| c).sum::<u64>(), summary.total());
        assert!(PackedPermutationCounter::<u64>::new(2).finalize().iter().next().is_none());
    }

    #[test]
    fn lexicographic_counts_match_permutation_sorted_pairs() {
        // Fill a packed counter with an irregular multiset of k = 4
        // permutations covering every tie of first vs last position.
        let mut packed = PackedPermutationCounter::<u64>::new(4);
        let perms: Vec<Permutation> =
            [[0u8, 1, 2, 3], [0, 1, 3, 2], [3, 0, 1, 2], [1, 0, 2, 3], [3, 2, 1, 0], [0, 2, 1, 3]]
                .iter()
                .map(|s| Permutation::from_slice(s).unwrap())
                .collect();
        for (i, p) in perms.iter().enumerate() {
            for _ in 0..(7 - i) {
                packed.insert(p);
            }
        }
        let summary = packed.finalize();
        let mut pairs: Vec<(Permutation, u64)> = summary.iter().collect();
        pairs.sort_unstable_by_key(|&(p, _)| p);
        let expected: Vec<u64> = pairs.into_iter().map(|(_, c)| c).collect();
        assert_eq!(summary.lexicographic_counts(), expected);
    }

    #[test]
    fn sorted_permutations_is_sorted_and_complete() {
        let sites = vec![vec![0.0], vec![0.4], vec![1.0]];
        let db: Vec<Vec<f64>> = (0..500).map(|i| vec![i as f64 / 250.0 - 0.5]).collect();
        let counter = collect_counter(&L2, &sites, &db);
        let sorted = counter.sorted_permutations();
        assert_eq!(sorted.len(), counter.distinct());
        assert!(sorted.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn count_sorted_runs_examples() {
        assert_eq!(count_sorted_runs::<u64>(&[]), Vec::<u64>::new());
        assert_eq!(count_sorted_runs(&[5]), vec![1]);
        assert_eq!(count_sorted_runs(&[3, 3, 3, 7, 9, 9]), vec![3, 1, 2]);
        assert_eq!(count_sorted_runs(&[1, 2, 3]), vec![1, 1, 1]);
        assert_eq!(count_sorted_runs(&[4u8; 100]), vec![100]);
    }

    #[test]
    fn count_sorted_runs_matches_finalize_occupancies() {
        let mut keys: Vec<u64> = (0..500u64).map(|i| i.wrapping_mul(0x9E37) % 37).collect();
        keys.sort_unstable();
        let runs = count_sorted_runs(&keys);
        assert_eq!(runs.iter().sum::<u64>(), 500);
        assert_eq!(runs.len(), 37.min(keys.len()));
    }

    #[test]
    fn sorted_counts_matches_sorted_permutations_and_counts() {
        let sites = vec![vec![0.0, 0.3], vec![0.9, 0.1], vec![0.5, 0.8], vec![0.2, 0.9]];
        let db: Vec<Vec<f64>> =
            (0..900).map(|i| vec![(i % 30) as f64 / 30.0, (i / 30) as f64 / 30.0]).collect();
        let counter = collect_counter(&L2, &sites, &db);
        let pairs = counter.sorted_counts();
        let perms: Vec<Permutation> = pairs.iter().map(|&(p, _)| p).collect();
        assert_eq!(perms, counter.sorted_permutations());
        for (p, c) in &pairs {
            let direct = counter.iter().find(|(q, _)| *q == p).map(|(_, &c)| c);
            assert_eq!(direct, Some(*c));
        }
        assert!(PermutationCounter::new().sorted_counts().is_empty());
    }

    #[test]
    fn sorted_counts_mixed_lengths_fall_back_to_comparison_order() {
        let mut c = PermutationCounter::new();
        c.insert(Permutation::identity(3));
        c.insert(Permutation::identity(2));
        c.insert(Permutation::from_slice(&[1, 0]).unwrap());
        let pairs = c.sorted_counts();
        let perms: Vec<Permutation> = pairs.iter().map(|&(p, _)| p).collect();
        assert_eq!(perms, c.sorted_permutations());
    }

    #[test]
    fn packed_key_order_is_lexicographic() {
        // Integer order on pack_perm keys must equal Permutation order —
        // the invariant lexicographic_counts and the codebooks lean on.
        let k = 4usize;
        let mut perms: Vec<Permutation> = Vec::new();
        for a in 0..k as u8 {
            for b in 0..k as u8 {
                for c in 0..k as u8 {
                    for d in 0..k as u8 {
                        if let Ok(p) = Permutation::from_slice(&[a, b, c, d]) {
                            perms.push(p);
                        }
                    }
                }
            }
        }
        let mut by_perm = perms.clone();
        by_perm.sort_unstable();
        let mut by_key = perms;
        by_key.sort_unstable_by_key(pack_perm::<u64>);
        assert_eq!(by_perm, by_key);
    }

    #[test]
    fn wide_pack_decode_round_trips() {
        // k = 25 exercises fields strictly above bit 64.
        let items: Vec<u8> = (0..25u8).rev().collect();
        let p = Permutation::from_slice(&items).unwrap();
        let key: u128 = pack_perm(&p);
        assert!(key >> 64 != 0, "high word must be populated");
        assert_eq!(decode_packed(key, 25), p);
    }

    #[test]
    fn wide_packed_counter_matches_hash_counter() {
        // An irregular multiset of k = 20 permutations.
        let k = 20usize;
        let mut packed: PackedPermutationCounter<u128> = PackedPermutationCounter::new(k);
        let mut hash = PermutationCounter::new();
        let mut items: Vec<u8> = (0..k as u8).collect();
        for round in 0..600usize {
            // Deterministic Fisher–Yates from a splitmix-style stream.
            let mut state = round as u64 % 37;
            for i in (1..k).rev() {
                state = state.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x1234_5678);
                items.swap(i, (state >> 33) as usize % (i + 1));
            }
            let p = Permutation::from_slice(&items).unwrap();
            packed.insert(&p);
            hash.insert(p);
        }
        let summary = packed.finalize();
        assert_eq!(summary.distinct(), hash.distinct());
        assert_eq!(summary.total(), hash.total());
        assert_eq!(summary.mean_occupancy().to_bits(), hash.mean_occupancy().to_bits());
        // Lexicographic frequency tables agree element for element.
        let expected: Vec<u64> = hash.sorted_counts().into_iter().map(|(_, c)| c).collect();
        assert_eq!(summary.lexicographic_counts(), expected);
        // Decoded permutations agree with the hash counter's sorted set.
        let mut decoded = summary.permutations();
        decoded.sort_unstable();
        assert_eq!(decoded, hash.sorted_permutations());
    }

    #[test]
    fn sorted_counts_uses_radix_above_the_u64_seam() {
        // k = 14 permutations take the u128 radix arm of sorted_counts;
        // the output must equal the comparison-sort arm's.
        let mut c = PermutationCounter::new();
        let mut items: Vec<u8> = (0..14u8).collect();
        for round in 0..300usize {
            items.rotate_left(round % 14);
            if round % 3 == 0 {
                items.swap(0, 7);
            }
            c.insert(Permutation::from_slice(&items).unwrap());
        }
        let radix = c.sorted_counts();
        let expected = c.sorted_counts_cmp();
        assert_eq!(radix, expected);
        let perms: Vec<Permutation> = radix.iter().map(|&(p, _)| p).collect();
        assert_eq!(perms, c.sorted_permutations());
    }
}
