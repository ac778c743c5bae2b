//! LSD radix sort specialized for packed permutation keys.
//!
//! The packed counting pipeline ([`crate::shard::PackedPermutationCounter`])
//! reduces "count distinct distance permutations" to "sort key shards
//! and scan runs".  After the strip-mined distance kernels and the tiled
//! ranking, that sort is a large slice of the 100k-point count — and the
//! keys are far from arbitrary machine words: a permutation of `k` sites
//! occupies only the low `5·k` bits of a [`PackedKey`] (5 bits per
//! position, `u64` for k ≤ 12 and `u128` for k ≤ 25), so a comparison
//! sort's `n log n` branchy compares can be replaced by at most
//! `⌈5k/12⌉` branch-free counting-sort passes.
//!
//! [`RadixSorter`] is that sort, generic over the key width:
//!
//! * **LSD 12-bit passes** — 4096-bucket counting sort per digit, least
//!   significant first, ping-ponging between the input and a scratch
//!   buffer.  Equal keys need no tie-break (they are *identical* words),
//!   so the result is exactly what `sort_unstable` produces.  Twelve bits
//!   is the sweet spot for this workload: k = 12 keys sort in 5 passes
//!   (vs 8 byte passes), k = 25 `u128` keys in 11, and the live histogram
//!   set stays L1/L2-resident.  Digit extraction narrows through
//!   [`PackedKey::low64`] after the shift, so the inner loops do 64-bit
//!   arithmetic at both widths.
//! * **MSD hybrid for wide keys** — above the u64 key width a single
//!   top-digit scatter partitions the buffer into 4096 ascending ranges
//!   and each range finishes with a cache-hot comparison sort, touching
//!   every key ~twice where seven-plus LSD passes (k = 16 and up) would
//!   stream the whole buffer once per digit.  Bucket order times bucket
//!   content equals `sort_unstable` exactly, so the contract is
//!   unchanged; pair sorts keep the stable LSD path at every width.
//! * **Per-word constant-digit skip** — all histograms are built in one
//!   pre-pass; any digit on which every key agrees (the high digits for
//!   small `k` — including the entire high word of a barely-wide `u128`
//!   workload — or any constant digit of a skewed distribution) costs
//!   nothing.  The `significant_bits` bound skips the constant high
//!   digits without even histogramming them.
//! * **Sorted-input fast path** — an `O(n)` check returns immediately on
//!   already-sorted input: a database stored in key order, a shard of one
//!   repeated permutation, or a caller re-sorting keys it already sorted
//!   cost one scan instead of the digit passes.
//! * **Reusable scratch** — the sorter owns its scratch and histogram
//!   buffers, so repeated sorts never reallocate.
//!   [`crate::shard::PackedPermutationCounter`] sorts every shard of a
//!   count through one sorter, so the scratch allocation is paid once
//!   per counter, not per shard.
//!
//! The property suite (`tests/radix_properties.rs`) pins
//! `radix == sort_unstable` over adversarial distributions at both
//! widths; the `counting_phases` bench records the phase-level speedup.

use crate::key::PackedKey;

/// Bits consumed per counting-sort pass.
const DIGIT_BITS: u32 = 12;
/// Buckets per pass: 4096 `u32` counters = 16 KiB per digit.
const BUCKETS: usize = 1 << DIGIT_BITS;
/// Below this length a comparison sort beats the histogram pre-pass.
const SMALL_SORT: usize = 512;
/// Keys wider than this route through the MSD hybrid instead of LSD
/// passes: one top-digit scatter plus per-bucket comparison sorts
/// touches each key ~twice, where six-plus LSD passes would touch it
/// that many times.  Set just above the u64 key width so the narrow
/// (k ≤ 12) pipeline keeps its measured LSD profile exactly.
const MSD_MIN_BITS: u32 = 64;

/// Reusable scratch state for [`radix sorting`](self) packed keys and
/// key-tagged pairs.
///
/// Generic over the key width (`u64` by default, `u128` for the wide
/// pipeline); payloads stay `u64` at both widths.  Sorting through a
/// sorter amortises the scratch allocation across calls; a fresh sorter
/// per call is still faster than `sort_unstable` on large inputs, it
/// just pays the allocations once.
#[derive(Debug, Clone, Default)]
pub struct RadixSorter<K: PackedKey = u64> {
    keys: Vec<K>,
    pairs: Vec<(K, u64)>,
    hist: Vec<u32>,
}

impl<K: PackedKey> RadixSorter<K> {
    /// A sorter with empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sorts `keys` ascending — output identical to `sort_unstable`.
    ///
    /// `significant_bits` bounds the highest set bit across all keys
    /// (pass `K::BITS` when unknown); digits above the bound are never
    /// histogrammed or scattered.  Packed permutation keys of length `k`
    /// use [`PackedKey::key_bits`]`(k)` significant bits.
    ///
    /// # Panics
    /// Panics in debug builds if a key exceeds the declared bound.
    pub fn sort_keys(&mut self, keys: &mut [K], significant_bits: u32) {
        debug_assert!(bound_holds(keys.iter().copied(), significant_bits));
        if keys.len() < SMALL_SORT {
            keys.sort_unstable();
            return;
        }
        if keys.windows(2).all(|w| w[0] <= w[1]) {
            return;
        }
        // Grow-only: the scatter overwrites every slot it reads, so the
        // existing contents (and any zero-fill) are irrelevant.
        if self.keys.len() < keys.len() {
            self.keys.resize(keys.len(), K::ZERO);
        }
        let scratch = &mut self.keys[..keys.len()];
        if significant_bits.min(K::BITS) > MSD_MIN_BITS {
            msd_hybrid(keys, scratch, &mut self.hist, significant_bits.min(K::BITS));
        } else {
            lsd_passes(keys, scratch, &mut self.hist, significant_bits, |&k| k);
        }
    }

    /// Sorts `(key, value)` pairs ascending by `key` — identical to
    /// `sort_unstable` whenever the keys are distinct (equal keys keep
    /// their input order instead of comparing values).
    ///
    /// `significant_bits` bounds the keys as in [`Self::sort_keys`].
    pub fn sort_pairs(&mut self, pairs: &mut [(K, u64)], significant_bits: u32) {
        debug_assert!(bound_holds(pairs.iter().map(|p| p.0), significant_bits));
        if pairs.len() < SMALL_SORT {
            // Stable, like the radix passes — the order contract must
            // not depend on which side of the size cutoff a call lands.
            pairs.sort_by_key(|p| p.0);
            return;
        }
        if pairs.windows(2).all(|w| w[0].0 <= w[1].0) {
            return;
        }
        if self.pairs.len() < pairs.len() {
            self.pairs.resize(pairs.len(), (K::ZERO, 0));
        }
        let scratch = &mut self.pairs[..pairs.len()];
        lsd_passes(pairs, scratch, &mut self.hist, significant_bits, |p| p.0);
    }
}

/// MSD top-digit hybrid for wide keys: one 4096-way counting-sort pass
/// on the most significant [`DIGIT_BITS`] of the significant range,
/// then `sort_unstable` inside each bucket.  Buckets partition the key
/// space into disjoint ascending ranges, so fully sorting each bucket
/// yields exactly `sort_unstable`'s output (plain keys carry no payload
/// — no stability contract).  For 100k wide permutation keys the
/// buckets average a few dozen contiguous cache-hot elements, so the
/// whole sort touches each key about twice instead of once per LSD
/// digit (seven passes at k = 16, eleven at k = 25).
fn msd_hybrid<K: PackedKey>(keys: &mut [K], scratch: &mut [K], hist: &mut Vec<u32>, bits: u32) {
    debug_assert!(bits > DIGIT_BITS);
    let n = keys.len();
    debug_assert_eq!(n, scratch.len());
    assert!(n <= u32::MAX as usize, "radix histogram counts are u32");
    let shift = bits - DIGIT_BITS;
    let mask = (BUCKETS - 1) as u64;
    hist.clear();
    hist.resize(BUCKETS, 0);
    for &k in keys.iter() {
        hist[((k >> shift).low64() & mask) as usize] += 1;
    }
    // Inclusive prefix sum, then a reverse scatter with pre-decrement:
    // afterwards each histogram slot holds its bucket's START offset,
    // which the sweep below uses as the bucket boundaries.
    let mut sum = 0u32;
    for c in hist.iter_mut() {
        sum += *c;
        *c = sum;
    }
    for &k in keys.iter().rev() {
        let digit = ((k >> shift).low64() & mask) as usize;
        hist[digit] -= 1;
        scratch[hist[digit] as usize] = k;
    }
    keys.copy_from_slice(scratch);
    let mut start = 0usize;
    for digit in 0..BUCKETS {
        let end = if digit + 1 < BUCKETS { hist[digit + 1] as usize } else { n };
        keys[start..end].sort_unstable();
        start = end;
    }
}

fn bound_holds<K: PackedKey>(keys: impl IntoIterator<Item = K>, significant_bits: u32) -> bool {
    if significant_bits >= K::BITS {
        return true;
    }
    keys.into_iter().all(|k| (k >> significant_bits) == K::ZERO)
}

/// The LSD engine: histogram every candidate digit in one pre-pass, then
/// run one stable counting-sort pass per non-constant digit, ping-ponging
/// `data` and `scratch`.  `scratch` must be the same length as `data`.
/// Stability makes equal-key pairs keep input order.
fn lsd_passes<T: Copy, K: PackedKey>(
    data: &mut [T],
    scratch: &mut [T],
    hist: &mut Vec<u32>,
    significant_bits: u32,
    key: impl Fn(&T) -> K,
) {
    let n = data.len();
    debug_assert_eq!(n, scratch.len());
    assert!(n <= u32::MAX as usize, "radix histogram counts are u32");
    let digits = (significant_bits.min(K::BITS).div_ceil(DIGIT_BITS) as usize).max(1);
    hist.clear();
    hist.resize(digits * BUCKETS, 0);
    let mask = (BUCKETS - 1) as u64;
    for item in data.iter() {
        let k = key(item);
        for (d, h) in hist.chunks_exact_mut(BUCKETS).enumerate() {
            h[((k >> (DIGIT_BITS * d as u32)).low64() & mask) as usize] += 1;
        }
    }
    // Ping-pong: the source flips between `data` and `scratch`; a pass
    // is skipped entirely when one bucket holds every key (constant
    // digit).  The histogram slice is prefix-summed in place into the
    // pass's scatter offsets.
    let mut in_data = true;
    for (d, h) in hist.chunks_exact_mut(BUCKETS).enumerate() {
        if h.iter().any(|&c| c as usize == n) {
            continue;
        }
        let mut sum = 0u32;
        for c in h.iter_mut() {
            let count = *c;
            *c = sum;
            sum += count;
        }
        let shift = DIGIT_BITS * d as u32;
        let (src, dst): (&[T], &mut [T]) =
            if in_data { (&*data, &mut *scratch) } else { (&*scratch, &mut *data) };
        for item in src.iter() {
            let digit = ((key(item) >> shift).low64() & mask) as usize;
            dst[h[digit] as usize] = *item;
            h[digit] += 1;
        }
        in_data = !in_data;
    }
    if !in_data {
        data.copy_from_slice(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_matches_std(mut keys: Vec<u64>, bits: u32) {
        let mut expected = keys.clone();
        expected.sort_unstable();
        RadixSorter::new().sort_keys(&mut keys, bits);
        assert_eq!(keys, expected);
    }

    fn assert_matches_std_wide(mut keys: Vec<u128>, bits: u32) {
        let mut expected = keys.clone();
        expected.sort_unstable();
        RadixSorter::new().sort_keys(&mut keys, bits);
        assert_eq!(keys, expected);
    }

    #[test]
    fn empty_and_singleton() {
        assert_matches_std(vec![], 64);
        assert_matches_std(vec![42], 64);
        assert_matches_std(vec![0, 0], 0);
    }

    #[test]
    fn small_falls_back_to_comparison_sort() {
        assert_matches_std((0..SMALL_SORT as u64 - 1).rev().collect(), 64);
    }

    #[test]
    fn large_random_full_width() {
        let keys: Vec<u64> =
            (0..10_000u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)).collect();
        assert_matches_std(keys, 64);
    }

    #[test]
    fn bounded_bits_skip_high_digits() {
        // 5·4 = 20 significant bits: only two 12-bit passes may run.
        let keys: Vec<u64> = (0..5_000u64).map(|i| (i * 2654435761) % (1 << 20)).collect();
        assert_matches_std(keys, 20);
    }

    #[test]
    fn all_equal_and_presorted_short_circuit() {
        assert_matches_std(vec![7; 4096], 64);
        assert_matches_std((0..4096).collect(), 64);
        assert_matches_std((0..4096).rev().collect(), 64);
    }

    #[test]
    fn keys_differing_only_in_the_top_byte() {
        let keys: Vec<u64> =
            (0..2_000u64).map(|i| ((i * 37) % 251) << 56 | 0x00AA_BBCC_DDEE_FF11).collect();
        assert_matches_std(keys, 64);
    }

    #[test]
    fn wide_large_random_full_width() {
        let keys: Vec<u128> = (0..10_000u128)
            .map(|i| {
                let lo = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
                let hi = (i as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F).rotate_left(31);
                (u128::from(hi) << 64) | u128::from(lo)
            })
            .collect();
        assert_matches_std_wide(keys, 128);
    }

    #[test]
    fn wide_keys_differing_only_above_bit_64() {
        // The low word is constant, so every pass below digit 6 is a
        // constant-digit skip and the order is decided entirely in the
        // high word.
        let keys: Vec<u128> =
            (0..3_000u128).map(|i| ((i * 37) % 1021) << 80 | 0xDEAD_BEEF).collect();
        assert_matches_std_wide(keys, 128);
    }

    #[test]
    fn wide_bounded_bits_skip_high_digits() {
        // 5·25 = 125 significant bits: eleven 12-bit passes cover them.
        let keys: Vec<u128> = (0..5_000u128)
            .map(|i| (i * 0x9E37_79B9u128).wrapping_mul(0x1_0000_0001) % (1u128 << 125))
            .collect();
        assert_matches_std_wide(keys, 125);
    }

    #[test]
    fn wide_presorted_and_equal_short_circuit() {
        assert_matches_std_wide(vec![7u128 << 90; 4096], 128);
        assert_matches_std_wide((0..4096u128).map(|i| i << 70).collect(), 128);
    }

    #[test]
    fn pairs_sort_by_key_and_keep_payload() {
        let mut pairs: Vec<(u64, u64)> =
            (0..3_000u64).map(|i| (i.wrapping_mul(0x9E37_79B9) % 4096, i)).collect();
        let mut expected = pairs.clone();
        expected.sort_by_key(|p| p.0); // stable, like the radix passes
        RadixSorter::new().sort_pairs(&mut pairs, 64);
        assert_eq!(pairs, expected);
    }

    #[test]
    fn wide_pairs_sort_by_key_and_keep_payload() {
        let mut pairs: Vec<(u128, u64)> = (0..3_000u64)
            .map(|i| (u128::from(i.wrapping_mul(0x9E37_79B9) % 4096) << 72, i))
            .collect();
        let mut expected = pairs.clone();
        expected.sort_by_key(|p| p.0); // stable, like the radix passes
        RadixSorter::new().sort_pairs(&mut pairs, 128);
        assert_eq!(pairs, expected);
    }

    #[test]
    fn small_pairs_with_duplicate_keys_stay_stable() {
        // Below SMALL_SORT the fallback must keep the radix passes'
        // stability contract: equal keys preserve input order.
        let mut pairs: Vec<(u64, u64)> = (0..300u64).map(|i| (i % 4, i)).collect();
        let mut expected = pairs.clone();
        expected.sort_by_key(|p| p.0);
        RadixSorter::new().sort_pairs(&mut pairs, 64);
        assert_eq!(pairs, expected);
    }

    #[test]
    fn sorter_reuse_across_widths() {
        let mut sorter = RadixSorter::new();
        for k in 2..=12u32 {
            let bits = 5 * k;
            let mut keys: Vec<u64> = (0..1_500u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & ((1u64 << bits) - 1))
                .collect();
            let mut expected = keys.clone();
            expected.sort_unstable();
            sorter.sort_keys(&mut keys, bits);
            assert_eq!(keys, expected, "k = {k}");
        }
    }

    #[test]
    fn wide_sorter_reuse_across_k() {
        let mut sorter: RadixSorter<u128> = RadixSorter::new();
        for k in [13u32, 17, 21, 25] {
            let bits = 5 * k;
            let mut keys: Vec<u128> = (0..1_500u128)
                .map(|i| {
                    let x = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_C060);
                    x & ((1u128 << bits) - 1)
                })
                .collect();
            let mut expected = keys.clone();
            expected.sort_unstable();
            sorter.sort_keys(&mut keys, bits);
            assert_eq!(keys, expected, "k = {k}");
        }
    }
}
