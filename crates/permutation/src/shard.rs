//! The one counting engine: distinct-permutation counts streamed
//! through bounded shards and a tiered stack of sorted runs.
//!
//! [`PackedPermutationCounter`] never holds all n keys.  Inserts append
//! to a **shard** of at most `shard_rows` keys ([`DEFAULT_SHARD_ROWS`]
//! unless set with [`PackedPermutationCounter::with_shard_rows`]).  Each
//! full shard is sorted ([`RunKey::sort_run`]: a radix sort for packed
//! keys, with one [`RadixSorter`] per counter so the scratch is paid
//! once; a comparison sort for [`Permutation`] keys) and run-length
//! encoded into a sorted **run**: ascending distinct keys and their
//! counts, stored as two arrays (`Vec<K>` + `Vec<u64>`, 24 bytes an
//! entry at `u128`).
//!
//! The key is the narrowest [`RunKey`] that holds the permutation: a
//! packed `u64` for k ≤ 12, a packed `u128` for k ≤ 25 and the
//! [`Permutation`] value itself above that, chosen once per workload by
//! [`for_packed_k!`](crate::for_packed_k).  Every key type orders like
//! the permutations it holds, so the summary is the same at every width.
//!
//! Runs live on a stack, largest at the bottom.  After a push, while the
//! run below the top holds at most twice as many entries as the top,
//! the two merge (counts summed on equal keys).  So every run holds more
//! than twice the entries of the run above it, the stack is at most
//! `log₂ n` deep, and the merge work is `O(n log(n / shard_rows))` even
//! when nearly every key is distinct.  When distinct ≪ n — the paper's
//! regime, "about 10 database points per permutation" (§5) — every new
//! run lands on a bottom run no more than twice its size and merges
//! straight in, so between flushes the stack holds about one entry per
//! distinct permutation.  In general the settled stack holds fewer than
//! twice the distinct keys seen, and its high-water mark adds one fresh
//! run on top.  [`PackedPermutationCounter::finalize`] flushes the
//! tail shard and merges what is left, smallest run first.
//!
//! The result is exact: a merge of sorted counted multisets is the
//! run-length scan of the sorted concatenation whatever the grouping,
//! so the finalized [`PackedCountSummary`] — distinct keys,
//! occupancies, total, and every float derived from them downstream —
//! does not depend on the shard size, the merge order or the thread
//! count (`tests/sharded_equivalence.rs` pins it against the per-point
//! path).

use crate::counter::{count_sorted_runs, decode_packed, pack_perm, PackedCountSummary};
use crate::key::PackedKey;
use crate::perm::{Permutation, MAX_K};
use crate::radix::RadixSorter;
use std::fmt::Debug;

/// Keys a counter buffers before sorting them into a run: 1 MiB of
/// `u64` keys or 2 MiB of `u128`, plus equal sort scratch, which bounds
/// the counter's working set to the runs plus this one shard.  Measured
/// against 65,536 and 262,144 on a 200k-point survey (distinct ≈ n) and
/// a 10⁶-point count (distinct ≪ n): smaller shards cost the survey
/// merge time, larger ones cost the count memory and time.
pub const DEFAULT_SHARD_ROWS: usize = 131_072;

/// A key the sorted-run counter counts: one permutation of length k,
/// ordered like the permutations themselves (lexicographically at a
/// fixed k), so ascending key order is the codebook id order at every
/// width.
///
/// Implemented by both [`PackedKey`] widths (a blanket impl: radix sort
/// over the [`pack_perm`] layout) and by [`Permutation`] itself (a
/// comparison sort), which serves every k above
/// [`WIDE_MAX_K`](crate::WIDE_MAX_K).
pub trait RunKey: Copy + Ord + Send + Debug + 'static {
    /// Sort scratch a counter keeps from shard to shard.
    type Sorter: Default + Clone + Debug + Send;

    /// Longest permutation a key holds.
    const MAX_LEN: usize;

    /// Sorts one shard of keys of length-`k` permutations ascending.
    fn sort_run(keys: &mut [Self], k: usize, sorter: &mut Self::Sorter);

    /// The key of a permutation (at most [`Self::MAX_LEN`] long).
    fn from_permutation(p: &Permutation) -> Self;

    /// The length-`k` permutation a key holds.
    fn to_permutation(self, k: usize) -> Permutation;
}

impl<K: PackedKey> RunKey for K {
    type Sorter = RadixSorter<K>;
    const MAX_LEN: usize = K::MAX_K;

    fn sort_run(keys: &mut [Self], k: usize, sorter: &mut RadixSorter<K>) {
        sorter.sort_keys(keys, K::key_bits(k));
    }

    fn from_permutation(p: &Permutation) -> Self {
        pack_perm(p)
    }

    fn to_permutation(self, k: usize) -> Permutation {
        decode_packed(self, k)
    }
}

impl RunKey for Permutation {
    type Sorter = ();
    const MAX_LEN: usize = MAX_K;

    fn sort_run(keys: &mut [Self], _k: usize, _sorter: &mut ()) {
        keys.sort_unstable();
    }

    fn from_permutation(p: &Permutation) -> Self {
        *p
    }

    fn to_permutation(self, _k: usize) -> Permutation {
        self
    }
}

/// One sorted counted run: strictly ascending keys and the number of
/// observations of each.
#[derive(Debug, Clone)]
struct Run<K> {
    keys: Vec<K>,
    counts: Vec<u64>,
}

impl<K: RunKey> Run<K> {
    fn len(&self) -> usize {
        self.keys.len()
    }

    /// Run-length encodes a sorted key slice.
    fn from_sorted(sorted: &[K]) -> Self {
        let counts = count_sorted_runs(sorted);
        let mut keys = Vec::with_capacity(counts.len());
        let mut start = 0usize;
        for &count in &counts {
            keys.push(sorted[start]);
            start += count as usize;
        }
        Self { keys, counts }
    }

    /// The run holding both inputs' observations.
    fn merge(a: &Self, b: &Self) -> Self {
        let mut out = Self {
            keys: Vec::with_capacity(a.len() + b.len()),
            counts: Vec::with_capacity(a.len() + b.len()),
        };
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            let (ka, kb) = (a.keys[i], b.keys[j]);
            if ka < kb {
                out.keys.push(ka);
                out.counts.push(a.counts[i]);
                i += 1;
            } else if kb < ka {
                out.keys.push(kb);
                out.counts.push(b.counts[j]);
                j += 1;
            } else {
                out.keys.push(ka);
                out.counts.push(a.counts[i] + b.counts[j]);
                i += 1;
                j += 1;
            }
        }
        for (run, from) in [(a, i), (b, j)] {
            out.keys.extend_from_slice(&run.keys[from..]);
            out.counts.extend_from_slice(&run.counts[from..]);
        }
        out
    }
}

/// Occurrence counter over permutation keys ([`RunKey`]: a packed `u64`
/// for k ≤ 12, a packed `u128` for k ≤ 25, the [`Permutation`] above),
/// in bounded memory.
///
/// The one counting engine, flat and per-point alike: feed keys with
/// [`Self::insert_key`] (or permutations with [`Self::insert`]) and
/// take the summary with [`Self::finalize`].  Inserts only append to
/// the shard (no hashing, no per-insert cache miss); distinct-counting
/// happens per shard as a sort and run scan.  Keys are injective, so
/// the distinct count equals the distinct count of the underlying
/// permutations exactly.  See the [module docs](self) for the run stack
/// and its memory bound.
#[derive(Debug, Clone)]
pub struct PackedPermutationCounter<K: RunKey = u64> {
    k: usize,
    shard_rows: usize,
    /// Unsorted keys of the shard in flight — never more than `shard_rows`.
    shard: Vec<K>,
    /// Sorted counted runs, largest at the bottom; each holds more than
    /// twice the entries of the run above it.
    runs: Vec<Run<K>>,
    sorter: K::Sorter,
    /// Observations already in `runs`.
    flushed: u64,
    peak_run_entries: usize,
}

impl<K: RunKey> PackedPermutationCounter<K> {
    /// An empty counter for permutations of length `k`, flushing every
    /// [`DEFAULT_SHARD_ROWS`] inserts.
    ///
    /// # Panics
    /// Panics if `k` exceeds the key's capacity (`K::MAX_LEN`).
    pub fn new(k: usize) -> Self {
        Self::with_shard_rows(k, DEFAULT_SHARD_ROWS)
    }

    /// An empty counter flushing every `shard_rows` inserts; 0 means
    /// [`DEFAULT_SHARD_ROWS`].
    ///
    /// # Panics
    /// Panics if `k` exceeds the key's capacity (`K::MAX_LEN`).
    pub fn with_shard_rows(k: usize, shard_rows: usize) -> Self {
        assert!(k <= K::MAX_LEN, "k = {k} exceeds MAX_LEN = {} for this key type", K::MAX_LEN);
        let shard_rows = match shard_rows {
            0 => DEFAULT_SHARD_ROWS,
            rows => rows,
        };
        Self {
            k,
            shard_rows,
            shard: Vec::new(),
            runs: Vec::new(),
            sorter: K::Sorter::default(),
            flushed: 0,
            peak_run_entries: 0,
        }
    }

    /// Permutation length k.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total number of observations so far (flushed or buffered).
    pub fn total(&self) -> u64 {
        self.flushed + self.shard.len() as u64
    }

    /// Records one occurrence of a key ([`RunKey::from_permutation`]'s
    /// layout), flushing the shard if this insert fills it.
    #[inline]
    pub fn insert_key(&mut self, key: K) {
        self.shard.push(key);
        if self.shard.len() == self.shard_rows {
            self.flush();
        }
    }

    /// Records one occurrence of a permutation value.
    ///
    /// # Panics
    /// Panics if `p.len() != k`.
    pub fn insert(&mut self, p: &Permutation) {
        assert_eq!(p.len(), self.k, "permutation length mismatch");
        self.insert_key(K::from_permutation(p));
    }

    /// Sorts the shard in flight into a run now, even if it is only
    /// partially full.  A no-op on an empty shard; [`Self::finalize`]
    /// calls this, so explicit calls are only needed to count the tail
    /// shard in [`Self::peak_run_entries`].
    pub fn flush(&mut self) {
        let mut sorter = std::mem::take(&mut self.sorter);
        self.flush_with(&mut sorter);
        self.sorter = sorter;
    }

    fn flush_with(&mut self, sorter: &mut K::Sorter) {
        if self.shard.is_empty() {
            return;
        }
        K::sort_run(&mut self.shard, self.k, sorter);
        let run = Run::from_sorted(&self.shard);
        self.flushed += self.shard.len() as u64;
        self.shard.clear();
        self.push_run(run);
    }

    /// Pushes a run and merges the top two runs while the lower holds at
    /// most twice the entries of the upper.
    fn push_run(&mut self, run: Run<K>) {
        self.runs.push(run);
        self.peak_run_entries = self.peak_run_entries.max(self.run_entries());
        while let Some(top) = self.runs.pop() {
            match self.runs.last_mut() {
                Some(below) if below.len() <= 2 * top.len() => *below = Run::merge(below, &top),
                _ => {
                    self.runs.push(top);
                    break;
                }
            }
        }
    }

    /// Moves every observation of `other` into this counter.  `other`'s
    /// runs go in smallest first, so its small runs merge into this
    /// counter's small runs before the two bottom runs meet.
    fn absorb(&mut self, mut other: Self) {
        other.flush();
        self.flushed += other.flushed;
        for run in other.runs.into_iter().rev() {
            self.push_run(run);
        }
    }

    /// One counter holding every observation of `workers` (`empty` when
    /// there are none) — the parallel collectors' hand-off.  Each
    /// worker should flush its tail shard before it returns, so the
    /// sorts run on the workers.
    pub(crate) fn join(workers: Vec<Self>, empty: impl FnOnce() -> Self) -> Self {
        workers
            .into_iter()
            .reduce(|mut all, worker| {
                all.absorb(worker);
                all
            })
            .unwrap_or_else(empty)
    }

    /// `(key, count)` entries across the run stack now.
    fn run_entries(&self) -> usize {
        self.runs.iter().map(Run::len).sum::<usize>()
    }

    /// Most `(key, count)` entries the run stack has held, counted after
    /// a push and before its merges — with the shard size, the counter's
    /// whole memory story.
    pub fn peak_run_entries(&self) -> usize {
        self.peak_run_entries
    }

    /// Flushes the tail shard, merges the runs and returns the summary.
    pub fn finalize(mut self) -> PackedCountSummary<K> {
        let mut sorter = std::mem::take(&mut self.sorter);
        self.finalize_with(&mut sorter)
    }

    /// [`Self::finalize`], sorting the tail shard through a caller-owned
    /// sorter (a [`RadixSorter`] for packed keys) instead of the
    /// counter's own.
    pub fn finalize_with(mut self, sorter: &mut K::Sorter) -> PackedCountSummary<K> {
        self.flush_with(sorter);
        let mut smallest_first = self.runs.into_iter().rev();
        let all = match smallest_first.next() {
            Some(top) => smallest_first.fold(top, |acc, run| Run::merge(&run, &acc)),
            None => Run { keys: Vec::new(), counts: Vec::new() },
        };
        PackedCountSummary::from_sorted_counts(self.k, all.keys, all.counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::{collect_sharded_flat_parallel, packed_keys_flat};
    use dp_metric::{L2Squared, TransposedSites};

    fn weyl_keys(n: usize, k: usize, salt: u64) -> Vec<u64> {
        // Pseudo-random valid packed permutations: rotate the identity by
        // a Weyl stream and swap two fields for irregular multiplicities.
        let mut items: Vec<u8> = (0..k as u8).collect();
        (0..n)
            .map(|i| {
                let s = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15 ^ salt) >> 7;
                items.rotate_left(s as usize % k.max(1));
                let p = crate::perm::Permutation::from_slice(&items).unwrap();
                pack_perm::<u64>(&p)
            })
            .collect()
    }

    /// The oracle: `sort_unstable` and a run-length scan.
    fn sorted_counts<K: PackedKey>(keys: &[K]) -> (Vec<K>, Vec<u64>) {
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        let mut out: (Vec<K>, Vec<u64>) = (Vec::new(), Vec::new());
        for key in sorted {
            if out.0.last() == Some(&key) {
                *out.1.last_mut().unwrap() += 1;
            } else {
                out.0.push(key);
                out.1.push(1);
            }
        }
        out
    }

    fn assert_matches_oracle<K: PackedKey>(summary: &PackedCountSummary<K>, keys: &[K], tag: &str) {
        let (expected_keys, expected_counts) = sorted_counts(keys);
        assert_eq!(summary.distinct_keys().collect::<Vec<_>>(), expected_keys, "{tag}");
        assert_eq!(summary.lexicographic_counts(), expected_counts, "{tag}");
        assert_eq!(summary.total(), keys.len() as u64, "{tag}");
    }

    fn count(k: usize, keys: &[u64], shard_rows: usize) -> PackedPermutationCounter<u64> {
        let mut counter = PackedPermutationCounter::with_shard_rows(k, shard_rows);
        for &key in keys {
            counter.insert_key(key);
        }
        counter
    }

    #[test]
    fn matches_oracle_across_shard_sizes() {
        let k = 6;
        let n = 997; // prime: never a multiple of any shard size tested
        let keys = weyl_keys(n, k, 3);
        for shard_rows in [0usize, 1, n - 1, n, n + 1, 64] {
            let counter = count(k, &keys, shard_rows);
            assert_eq!(counter.total(), n as u64, "shard_rows = {shard_rows}");
            assert_matches_oracle(
                &counter.finalize(),
                &keys,
                &format!("shard_rows = {shard_rows}"),
            );
        }
    }

    #[test]
    fn all_distinct_keys_cascade_and_match_oracle() {
        // Every key distinct: each flush pushes a full-size run, so the
        // stack behaves as a binary counter and merges cascade.
        let keys: Vec<u64> =
            (0..5000u64).map(|i| i.wrapping_mul(0x9E37_79B9) % (1 << 40)).collect();
        assert_eq!(sorted_counts(&keys).0.len(), keys.len(), "keys must be distinct");
        let mut counter = PackedPermutationCounter::<u64>::with_shard_rows(8, 100);
        let mut max_depth = 0;
        for &key in &keys {
            counter.insert_key(key);
            max_depth = max_depth.max(counter.runs.len());
        }
        // 50 runs of 100 merge down to a stack of at most log₂ 50 + 1.
        assert!(max_depth <= 6, "stack depth {max_depth}");
        assert_eq!(counter.run_entries(), keys.len());
        assert_matches_oracle(&counter.finalize(), &keys, "all distinct");
    }

    #[test]
    fn all_equal_keys_collapse_to_one_entry() {
        let keys = vec![pack_perm::<u64>(&Permutation::identity(5)); 1000];
        for shard_rows in [1usize, 7, 1000, 1001] {
            let counter = count(5, &keys, shard_rows);
            assert!(counter.peak_run_entries() <= 2, "shard_rows = {shard_rows}");
            let summary = counter.finalize();
            assert_eq!(summary.distinct(), 1);
            assert_matches_oracle(&summary, &keys, &format!("shard_rows = {shard_rows}"));
        }
    }

    #[test]
    fn every_flush_leaves_each_run_over_twice_the_one_above() {
        for (salt, shard_rows) in [(5u64, 16usize), (9, 37), (13, 1)] {
            let keys = weyl_keys(3000, 7, salt);
            let mut counter = PackedPermutationCounter::<u64>::with_shard_rows(7, shard_rows);
            for &key in &keys {
                counter.insert_key(key);
                if counter.shard.is_empty() {
                    assert!(
                        counter.runs.windows(2).all(|w| w[0].len() > 2 * w[1].len()),
                        "shard_rows = {shard_rows}: run sizes {:?}",
                        counter.runs.iter().map(Run::len).collect::<Vec<_>>()
                    );
                }
            }
        }
    }

    #[test]
    fn run_entries_stay_bounded_by_distinct_count() {
        // Each run is a set of keys already seen, and sizes more than
        // double down the stack, so after every flush's merges the stack
        // holds fewer than twice the distinct keys seen so far (the
        // bottom run alone holds at most that many).  The high-water
        // mark, taken after a push and before its merges, is the settled
        // stack plus exactly one fresh run: the shard's distinct keys.
        let (k, shard_rows) = (5, 128);
        let keys = weyl_keys(5000, k, 9);
        let mut counter = PackedPermutationCounter::<u64>::with_shard_rows(k, shard_rows);
        let mut settled = 0usize; // stack entries after the previous flush
        for (i, shard) in keys.chunks(shard_rows).enumerate() {
            let peak_before = counter.peak_run_entries();
            for &key in shard {
                counter.insert_key(key);
            }
            counter.flush();
            let seen = sorted_counts(&keys[..i * shard_rows + shard.len()]).0.len();
            let fresh = sorted_counts(shard).0.len();
            let entries = counter.run_entries();
            let bottom = counter.runs[0].len();
            assert!(bottom <= seen, "flush {i}: bottom run {bottom}, {seen} seen");
            assert!(entries < 2 * bottom, "flush {i}: {entries} entries, bottom {bottom}");
            assert_eq!(counter.peak_run_entries(), peak_before.max(settled + fresh), "flush {i}");
            settled = entries;
        }
        let peak = counter.peak_run_entries();
        let distinct = counter.finalize().distinct();
        assert_eq!(distinct, sorted_counts(&keys).0.len());
        assert!(peak < 2 * distinct + shard_rows.min(distinct), "peak {peak}, {distinct} distinct");
    }

    #[test]
    fn collector_matches_oracle_at_every_shard_size_and_worker_count() {
        let (n, k, dim) = (2063, 6, 3); // ≥ 2048 rows, so workers split
        let coords = |salt: u64, len: usize| -> Vec<f64> {
            (0..len)
                .map(|i| {
                    ((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15 ^ salt) >> 11) as f64
                        / (1u64 << 53) as f64
                })
                .collect()
        };
        let db = coords(1, n * dim);
        let sites_t = TransposedSites::from_rows(&coords(2, k * dim), dim);
        let keys: Vec<u64> = packed_keys_flat(&L2Squared, &sites_t, &db);
        for shard_rows in [0usize, 1, n - 1, n, n + 1] {
            for threads in [1usize, 2, 5] {
                let counter = collect_sharded_flat_parallel::<u64, _>(
                    &L2Squared, &sites_t, &db, threads, shard_rows,
                );
                let tag = format!("shard_rows = {shard_rows}, threads = {threads}");
                assert_matches_oracle(&counter.finalize(), &keys, &tag);
            }
        }
    }

    #[test]
    fn finalize_with_sorts_the_tail_through_the_callers_sorter() {
        let keys = weyl_keys(700, 6, 17);
        let summary = count(6, &keys, 256).finalize_with(&mut RadixSorter::new());
        assert_matches_oracle(&summary, &keys, "finalize_with");
        assert_eq!(PackedPermutationCounter::<u64>::new(3).finalize().distinct(), 0);
    }
}
