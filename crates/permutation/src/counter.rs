//! Counting distinct distance permutations.
//!
//! This is the measurement the paper's experiments perform: enumerate the
//! distance permutation of every database element and count the distinct
//! values (`sort | uniq | wc` over the SISAP `build-distperm-*` output, §5).
//! One engine implements it, literally as a sort and a run scan:
//! [`crate::shard::PackedPermutationCounter`] streams keys through
//! bounded shards that are sorted, collapsed by [`count_sorted_runs`]
//! and merged as sorted counted runs.  A key is the narrowest
//! [`RunKey`] that holds the permutation — a [`PackedKey`] word (`u64`
//! for k ≤ 12, `u128` for k ≤ 25, radix-sorted) or the [`Permutation`]
//! itself above that — so no hashing happens anywhere.
//!
//! The engine ends in a [`PackedCountSummary`], which keeps one
//! `(key, occupancy)` pair per **distinct** permutation — O(distinct)
//! memory, so downstream consumers (Huffman, the survey, the stores)
//! never pay for n again.  The summary is also the paper's codebook
//! (§4): a distinct permutation's id is its position in the sorted keys.
//! [`collect_counter`] feeds it from the per-point path, for any metric
//! over any point type.

use crate::bits::element_bits;
use crate::compute::DistPermComputer;
use crate::key::PackedKey;
use crate::perm::Permutation;
use crate::shard::{PackedPermutationCounter, RunKey};
use dp_metric::par::{fork_join, worker_chunks};
use dp_metric::Metric;

/// Run lengths of consecutive equal values in a sorted (or at least
/// run-grouped) slice: `[3, 3, 3, 7, 9, 9]` → `[3, 1, 2]`.
///
/// The run counter run-length encodes each sorted shard with it.
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

/// Finalized statistics of a [`PackedPermutationCounter`].
///
/// Holds one key per **distinct** permutation (ascending key order, which
/// every [`RunKey`] makes lexicographic order) plus its occupancy count
/// and the observation total — `O(distinct)` memory, independent of the
/// database size.
///
/// It is the one codebook of the paper's storage layout (§4): the id of
/// a distinct permutation is its lexicographic rank, found by binary
/// search over the sorted keys ([`Self::id_of`]) and decoded by index
/// ([`Self::permutation`]); [`Self::id_bits`] is the stored id width.
#[derive(Debug, Clone)]
pub struct PackedCountSummary<K: RunKey = u64> {
    k: usize,
    keys: Vec<K>,
    occupancies: Vec<u64>,
    total: u64,
}

impl<K: RunKey> PackedCountSummary<K> {
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

    /// The distinct permutations, decoded, in lexicographic order.
    pub fn permutations(&self) -> Vec<Permutation> {
        self.distinct_keys().map(|key| key.to_permutation(self.k)).collect()
    }

    /// The distinct keys in ascending key order — one per occupancy
    /// entry.  Every [`RunKey`] makes this the lexicographic order of
    /// the decoded permutations.
    pub fn distinct_keys(&self) -> impl Iterator<Item = K> + '_ {
        self.keys.iter().copied()
    }

    /// Iterator over `(permutation, occurrence count)`, in
    /// lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = (Permutation, u64)> + '_ {
        self.keys
            .iter()
            .zip(self.occupancies.iter())
            .map(|(&key, &count)| (key.to_permutation(self.k), count))
    }

    /// Occurrence counts ordered by the **lexicographic** rank of each
    /// distinct permutation — indexed by codebook id ([`Self::id_of`]),
    /// so this is the survey's and the Huffman store's frequency table
    /// at every key width.
    ///
    /// The [`pack_perm`] layout puts position 0 in the most significant
    /// occupied group, so ascending key order *is* lexicographic order
    /// and the finalized occupancies are already this table — no second
    /// sort, no decode.
    pub fn lexicographic_counts(&self) -> Vec<u64> {
        self.occupancies.clone()
    }

    /// The codebook id of `p` — its lexicographic rank among the distinct
    /// permutations — or `None` if `p` is absent or its length is not k.
    /// The length is checked before packing, so a longer permutation
    /// never aliases a packed key.
    pub fn id_of(&self, p: &Permutation) -> Option<u32> {
        if p.len() != self.k {
            return None;
        }
        self.keys.binary_search(&K::from_permutation(p)).ok().map(|id| id as u32)
    }

    /// The distinct permutation with codebook id `id`, decoded.
    pub fn permutation(&self, id: u32) -> Option<Permutation> {
        self.keys.get(id as usize).map(|&key| key.to_permutation(self.k))
    }

    /// Bits per stored codebook id: ⌈log₂ distinct⌉.
    pub fn id_bits(&self) -> u32 {
        element_bits(self.distinct())
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

/// Counts the distinct distance permutations of `database` w.r.t. `sites`
/// on the calling thread.
///
/// The headline operation of the paper: |{Π_y : y ∈ database}|.
pub fn count_distinct<P: Sync, M>(metric: &M, sites: &[P], database: &[P]) -> usize
where
    M: Metric<P> + Sync,
{
    crate::for_packed_k!(sites.len(), K => {
        collect_counter::<K, P, M>(metric, sites, database, 1).finalize().distinct()
    })
}

/// Runs the full per-point scan into an unfinalized counter of `K` keys
/// (dispatch `K` on `sites.len()` with
/// [`for_packed_k!`](crate::for_packed_k)).
///
/// The points split by [`worker_chunks`] (one inline chunk at one
/// thread or below 1024 points); each worker counts its chunk and their
/// runs merge into one counter, so the summary is independent of the
/// split.
///
/// # Panics
/// Panics if `sites.len()` exceeds `K::MAX_LEN`.
pub fn collect_counter<K, P, M>(
    metric: &M,
    sites: &[P],
    database: &[P],
    threads: usize,
) -> PackedPermutationCounter<K>
where
    K: RunKey,
    P: Sync,
    M: Metric<P> + Sync,
{
    let new_counter = || PackedPermutationCounter::new(sites.len());
    let workers = fork_join(worker_chunks(database, 1, threads), |part| {
        let mut computer = DistPermComputer::new(sites.len());
        let mut counter = new_counter();
        for y in part {
            counter.insert(&computer.compute(metric, sites, y));
        }
        counter.flush();
        counter
    });
    PackedPermutationCounter::join(workers, new_counter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_metric::L2;

    fn perm(items: &[u8]) -> Permutation {
        Permutation::from_slice(items).unwrap()
    }

    #[test]
    fn counter_basics_with_permutation_keys() {
        let mut c = PackedPermutationCounter::<Permutation>::new(3);
        let a = Permutation::identity(3);
        let b = perm(&[1, 0, 2]);
        c.insert(&a);
        c.insert(&a);
        c.insert(&b);
        let summary = c.finalize();
        assert_eq!(summary.distinct(), 2);
        assert_eq!(summary.total(), 3);
        assert!((summary.mean_occupancy() - 1.5).abs() < 1e-12);
        assert_eq!(summary.permutations(), vec![a, b]);
    }

    #[test]
    fn empty_summary() {
        let packed = PackedPermutationCounter::<u64>::new(3).finalize();
        let whole = PackedPermutationCounter::<Permutation>::new(3).finalize();
        assert_eq!((packed.distinct(), packed.total()), (0, 0));
        assert_eq!((whole.distinct(), whole.total()), (0, 0));
        assert_eq!(packed.mean_occupancy(), 0.0);
        assert_eq!(whole.mean_occupancy(), 0.0);
        assert!(packed.iter().next().is_none() && whole.iter().next().is_none());
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
    fn summary_iter_matches_sorted_pairs_at_both_key_types() {
        let perms = [Permutation::identity(3), perm(&[1, 0, 2]), perm(&[2, 1, 0])];
        let mut packed = PackedPermutationCounter::<u64>::new(3);
        let mut whole = PackedPermutationCounter::<Permutation>::new(3);
        for (i, p) in perms.iter().enumerate() {
            for _ in 0..=i {
                packed.insert(p);
                whole.insert(p);
            }
        }
        let expected: Vec<(Permutation, u64)> = vec![(perms[0], 1), (perms[1], 2), (perms[2], 3)];
        assert_eq!(packed.finalize().iter().collect::<Vec<_>>(), expected);
        assert_eq!(whole.finalize().iter().collect::<Vec<_>>(), expected);
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
    fn collected_permutations_are_sorted_and_complete() {
        let sites = vec![vec![0.0], vec![0.4], vec![1.0]];
        let db: Vec<Vec<f64>> = (0..500).map(|i| vec![i as f64 / 250.0 - 0.5]).collect();
        let packed = collect_counter::<u64, _, _>(&L2, &sites, &db, 1).finalize();
        let sorted = packed.permutations();
        assert_eq!(sorted.len(), packed.distinct());
        assert!(sorted.windows(2).all(|w| w[0] < w[1]));
        let mut computer = DistPermComputer::new(3);
        let mut all: Vec<Permutation> =
            db.iter().map(|y| computer.compute(&L2, &sites, y)).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(sorted, all);
        let whole = collect_counter::<Permutation, _, _>(&L2, &sites, &db, 1).finalize();
        assert_eq!(whole.permutations(), sorted);
        assert_eq!(whole.lexicographic_counts(), packed.lexicographic_counts());
    }

    #[test]
    fn parallel_collector_is_independent_of_the_split() {
        // Around the 1024-point split threshold, at worker counts that
        // split unevenly, the merged runs must equal the one-thread scan
        // at every key type.
        let sites = vec![vec![0.0, 0.3], vec![0.9, 0.1], vec![0.5, 0.8], vec![0.2, 0.9]];
        for n in [1023usize, 1024, 1031, 1500] {
            let db: Vec<Vec<f64>> =
                (0..n).map(|i| vec![(i % 40) as f64 / 40.0, (i / 40) as f64 / 40.0]).collect();
            let seq = collect_counter::<u64, _, _>(&L2, &sites, &db, 1).finalize();
            assert_eq!(seq.total(), n as u64);
            for threads in [0usize, 2, 3, 5, 7] {
                let tag = format!("n = {n}, threads = {threads}");
                let par = collect_counter::<u64, _, _>(&L2, &sites, &db, threads).finalize();
                assert_eq!(par.total(), seq.total(), "{tag}");
                assert_eq!(par.permutations(), seq.permutations(), "{tag}");
                assert_eq!(par.lexicographic_counts(), seq.lexicographic_counts(), "{tag}");
                let whole =
                    collect_counter::<Permutation, _, _>(&L2, &sites, &db, threads).finalize();
                assert_eq!(whole.permutations(), seq.permutations(), "{tag}");
                assert_eq!(whole.lexicographic_counts(), seq.lexicographic_counts(), "{tag}");
            }
        }
    }

    /// A duplicate-rich stream of length-`k` permutations: `n` seeded
    /// Fisher–Yates shuffles over 37 seeds.
    fn shuffled_stream(k: usize, n: usize) -> Vec<Permutation> {
        (0..n)
            .map(|round| {
                let mut items: Vec<u8> = (0..k as u8).collect();
                let mut state = round as u64 % 37;
                for i in (1..k).rev() {
                    state = state.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x1234_5678);
                    items.swap(i, (state >> 33) as usize % (i + 1));
                }
                perm(&items)
            })
            .collect()
    }

    /// The summary's codebook against a sorted, deduplicated permutation
    /// list searched with `binary_search`; returns the summary.
    fn assert_codebook_matches_sorted_oracle<K: RunKey>(k: usize) -> PackedCountSummary<K> {
        let perms = shuffled_stream(k, 120);
        let mut counter = PackedPermutationCounter::<K>::new(k);
        perms.iter().for_each(|p| counter.insert(p));
        let summary = counter.finalize();
        let mut oracle = perms.clone();
        oracle.sort_unstable();
        oracle.dedup();
        assert_eq!(summary.distinct(), oracle.len(), "k = {k}");
        assert_eq!(summary.id_bits(), element_bits(oracle.len()), "k = {k}");
        for p in &perms {
            assert_eq!(summary.id_of(p), oracle.binary_search(p).ok().map(|i| i as u32), "{p}");
        }
        for (id, p) in oracle.iter().enumerate() {
            assert_eq!(summary.permutation(id as u32), Some(*p), "k = {k}, id = {id}");
        }
        assert_eq!(summary.permutation(oracle.len() as u32), None);
        let mut absent = Permutation::identity(k);
        while oracle.binary_search(&absent).is_ok() {
            assert!(absent.next_lex(), "every length-{k} permutation occurs");
        }
        assert_eq!(summary.id_of(&absent), None, "absent {absent}");
        assert_eq!(summary.id_of(&Permutation::identity(k - 1)), None, "shorter, k = {k}");
        summary
    }

    #[test]
    fn summary_codebook_matches_sorted_oracle_at_every_key_type() {
        let narrow = assert_codebook_matches_sorted_oracle::<u64>(4);
        assert_codebook_matches_sorted_oracle::<u128>(15);
        assert_codebook_matches_sorted_oracle::<Permutation>(27);
        // A k = 13 permutation overflows a u64 key; the length check
        // rejects it before it is packed.
        assert_eq!(narrow.id_of(&Permutation::identity(13)), None);
        assert_eq!(narrow.id_of(&shuffled_stream(13, 1)[0]), None);
        // The id width at every distinct count 0..=24, across each power
        // of two.
        let all: Vec<Permutation> = Permutation::all(4).collect();
        for n in 0..=all.len() {
            let mut counter = PackedPermutationCounter::<u64>::new(4);
            all[..n].iter().for_each(|p| counter.insert(p));
            assert_eq!(counter.finalize().id_bits(), element_bits(n), "n = {n}");
        }
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
    fn wide_packed_counter_matches_permutation_keys() {
        // An irregular multiset of k = 20 permutations.
        let k = 20usize;
        let mut packed: PackedPermutationCounter<u128> = PackedPermutationCounter::new(k);
        let mut whole: PackedPermutationCounter<Permutation> = PackedPermutationCounter::new(k);
        let mut all = Vec::new();
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
            whole.insert(&p);
            all.push(p);
        }
        let (packed, whole) = (packed.finalize(), whole.finalize());
        assert_eq!(packed.distinct(), whole.distinct());
        assert_eq!(packed.total(), whole.total());
        assert_eq!(packed.mean_occupancy().to_bits(), whole.mean_occupancy().to_bits());
        assert_eq!(packed.lexicographic_counts(), whole.lexicographic_counts());
        all.sort_unstable();
        assert_eq!(packed.lexicographic_counts(), count_sorted_runs(&all));
        all.dedup();
        assert_eq!(packed.permutations(), all);
        assert_eq!(whole.permutations(), all);
    }
}
