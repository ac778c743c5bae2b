//! Compact storage of distance permutations.
//!
//! The paper's storage argument (§1, §4): an unrestricted permutation of k
//! sites needs Θ(k log k) bits, but when the space limits the achievable
//! set to N permutations, "the bound can be achieved simply by storing the
//! full permutations in a separate table and storing the index numbers into
//! that table alongside the points".  [`FlatCodebook`] is that table; in
//! d-dimensional Euclidean space its ids take ⌈log₂ N_{d,2}(k)⌉ = Θ(d log k)
//! bits each.
//!
//! [`pack`]/[`unpack`] provide the naive alternative (⌈log₂ k⌉ bits per
//! element) so the two strategies can be compared byte-for-byte in the
//! storage experiment (E13).
//!
//! One codebook family, ids = lexicographic ranks, in two shapes:
//!
//! * [`FlatCodebook`] — a sorted array of distinct permutations, lookup
//!   by binary search; built by a sort + run scan of any permutation
//!   stream, any k, with no hash table.
//! * [`PackedCodebook`] — [`FlatCodebook`] for the packed counting
//!   pipeline at either key width (`u64` for k ≤ 12, `u128` for
//!   k ≤ 25): built straight off a [`PackedCountSummary`]'s sorted
//!   distinct keys — the lexicographic key layout makes the sorted key
//!   rank *be* the codebook id, so no permutation is ever decoded.
//!
//! Neither the ⌈log₂ N⌉ id width nor a Huffman code's total bits depend
//! on which id a permutation gets, so the storage costs are those of any
//! other id assignment.

use crate::counter::{count_sorted_runs, decode_packed, pack_perm, PackedCountSummary};
use crate::key::PackedKey;
use crate::perm::{Permutation, PermutationError};

/// Bits needed per element for naive positional packing: ⌈log₂ k⌉ (k ≥ 2).
pub fn element_bits(k: usize) -> u32 {
    match k {
        0 | 1 => 0,
        _ => usize::BITS - (k - 1).leading_zeros(),
    }
}

/// Packs a permutation into a little-endian bit string of
/// `k * element_bits(k)` bits.
pub fn pack(p: &Permutation) -> Vec<u8> {
    let k = p.len();
    let bits = element_bits(k) as usize;
    let total_bits = k * bits;
    let mut out = vec![0u8; total_bits.div_ceil(8)];
    for (i, &e) in p.as_slice().iter().enumerate() {
        let mut value = e as usize;
        let mut pos = i * bits;
        let mut remaining = bits;
        while remaining > 0 {
            let byte = pos / 8;
            let bit = pos % 8;
            let take = remaining.min(8 - bit);
            out[byte] |= ((value & ((1 << take) - 1)) as u8) << bit;
            value >>= take;
            pos += take;
            remaining -= take;
        }
    }
    out
}

/// Unpacks a permutation of length `k` previously produced by [`pack`].
pub fn unpack(bytes: &[u8], k: usize) -> Result<Permutation, PermutationError> {
    let bits = element_bits(k) as usize;
    let mut items = Vec::with_capacity(k);
    for i in 0..k {
        let mut value = 0usize;
        let mut pos = i * bits;
        let mut got = 0;
        while got < bits {
            let byte = pos / 8;
            let bit = pos % 8;
            let take = (bits - got).min(8 - bit);
            let chunk = (bytes.get(byte).copied().unwrap_or(0) >> bit) & ((1u16 << take) - 1) as u8;
            value |= (chunk as usize) << got;
            got += take;
            pos += take;
        }
        items.push(value as u8);
    }
    if k == 1 {
        // element_bits(1) = 0, so the single element is implicit.
        return Permutation::from_slice(&[0]);
    }
    Permutation::from_slice(&items)
}

/// A permutation → small-integer-id table (the paper's storage strategy)
/// as a sorted array.
///
/// Ids are **lexicographic ranks**: building one is a sort + run scan,
/// and id `i` is the `i`-th entry of
/// [`crate::counter::PackedCountSummary::permutations`] over the same
/// permutations.  Lookup
/// is a binary search over the sorted table (no hash table, no
/// per-entry heap box), decoding is an array index;
/// [`FlatCodebook::id_bits`] is the per-element storage cost.  Build one
/// from a database scan with `collect()` (it implements `FromIterator`).
#[derive(Debug, Clone, Default)]
pub struct FlatCodebook {
    perms: Vec<Permutation>,
}

impl FlatCodebook {
    /// Builds the codebook from an arbitrary permutation stream
    /// (sorts a copy, collapses runs).
    pub fn from_permutations(perms: &[Permutation]) -> Self {
        Self::from_permutations_with_counts(perms).0
    }

    /// [`Self::from_permutations`], also returning the occurrence count
    /// of each distinct permutation **indexed by id** — the frequency
    /// table entropy/Huffman analyses want, produced by the same single
    /// sorted-run scan ([`count_sorted_runs`]).
    pub fn from_permutations_with_counts(perms: &[Permutation]) -> (Self, Vec<u64>) {
        let mut sorted = perms.to_vec();
        sorted.sort_unstable();
        let counts = count_sorted_runs(&sorted);
        let mut uniq = Vec::with_capacity(counts.len());
        let mut pos = 0usize;
        for &c in &counts {
            uniq.push(sorted[pos]);
            pos += c as usize;
        }
        (Self { perms: uniq }, counts)
    }

    /// Wraps an already strictly-sorted run of distinct permutations.
    ///
    /// # Panics
    /// Panics if the input is not strictly ascending.
    pub fn from_sorted_unique(perms: Vec<Permutation>) -> Self {
        assert!(
            perms.windows(2).all(|w| w[0] < w[1]),
            "FlatCodebook input must be strictly sorted"
        );
        Self { perms }
    }

    /// The id of `p`: its lexicographic rank among the distinct
    /// permutations, or `None` if absent.
    pub fn id_of(&self, p: &Permutation) -> Option<u32> {
        self.perms.binary_search(p).ok().map(|i| i as u32)
    }

    /// The permutation with a given id.
    pub fn permutation(&self, id: u32) -> Option<&Permutation> {
        self.perms.get(id as usize)
    }

    /// Number of distinct permutations.
    pub fn len(&self) -> usize {
        self.perms.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.perms.is_empty()
    }

    /// Bits per element needed to store an id: ⌈log₂ len⌉.
    pub fn id_bits(&self) -> u32 {
        element_bits(self.len())
    }

    /// The distinct permutations in id (= lexicographic) order.
    pub fn as_slice(&self) -> &[Permutation] {
        &self.perms
    }

    /// Encodes a database of permutations as ids.
    ///
    /// # Panics
    /// Panics if any permutation is absent.
    pub fn encode_all(&self, perms: &[Permutation]) -> Vec<u32> {
        perms.iter().map(|p| self.id_of(p).expect("permutation missing from codebook")).collect()
    }

    /// Decodes ids back to permutations.
    ///
    /// # Panics
    /// Panics if any id is out of range.
    pub fn decode_all(&self, ids: &[u32]) -> Vec<Permutation> {
        ids.iter().map(|&id| *self.permutation(id).expect("id out of range")).collect()
    }
}

impl FromIterator<Permutation> for FlatCodebook {
    fn from_iter<I: IntoIterator<Item = Permutation>>(perms: I) -> Self {
        let collected: Vec<Permutation> = perms.into_iter().collect();
        Self::from_permutations(&collected)
    }
}

/// The flat codebook of the packed counting pipeline: built straight
/// off a [`PackedCountSummary`]'s sorted distinct keys with **no hash
/// interning, no permutation decode, and no extra sort** — the
/// [`pack_perm`] lexicographic layout makes the summary's ascending
/// key order the id order.  Generic over the key width like the
/// summary it is built from.
///
/// Ids are the same lexicographic ranks [`FlatCodebook`] assigns, so
/// frequency tables indexed by either agree element for element (the
/// survey equivalence suite pins this across engines).
#[derive(Debug, Clone)]
pub struct PackedCodebook<K: PackedKey = u64> {
    k: usize,
    /// Distinct packed keys ascending; the index of a key *is* its
    /// codebook id (lexicographic rank), serving both the
    /// binary-search lookup side and the decode side.
    keys: Vec<K>,
}

impl<K: PackedKey> PackedCodebook<K> {
    /// Builds the codebook from a finalized counting summary.
    pub fn from_summary(summary: &PackedCountSummary<K>) -> Self {
        Self { k: summary.k(), keys: summary.distinct_keys().collect() }
    }

    /// Permutation length k.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The id of a packed key: its rank in the sorted distinct keys
    /// (binary search) — the lexicographic layout makes rank and id the
    /// same number.
    pub fn id_of_key(&self, key: K) -> Option<u32> {
        self.keys.binary_search(&key).ok().map(|rank| rank as u32)
    }

    /// The id of a permutation value (packs, then [`Self::id_of_key`]).
    /// `None` for absent permutations or a length other than k.
    pub fn id_of(&self, p: &Permutation) -> Option<u32> {
        if p.len() != self.k {
            return None;
        }
        self.id_of_key(pack_perm(p))
    }

    /// The permutation with a given id, decoded.
    pub fn permutation(&self, id: u32) -> Option<Permutation> {
        self.keys.get(id as usize).map(|&key| decode_packed(key, self.k))
    }

    /// Number of distinct permutations.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Bits per element needed to store an id: ⌈log₂ len⌉.
    pub fn id_bits(&self) -> u32 {
        element_bits(self.len())
    }

    /// Expands into a [`FlatCodebook`] (identical ids), decoding each
    /// distinct permutation once.
    pub fn to_flat(&self) -> FlatCodebook {
        FlatCodebook::from_sorted_unique(
            self.keys.iter().map(|&key| decode_packed(key, self.k)).collect(),
        )
    }
}

/// Packs a stream of codebook ids into a little-endian bit string of
/// `bits` bits per id — the physical layout of the paper's
/// ⌈log₂ N⌉-bits-per-element index.
///
/// # Panics
/// Panics if any id needs more than `bits` bits, or `bits > 32`.
pub fn pack_ids(ids: &[u32], bits: u32) -> Vec<u8> {
    assert!(bits <= 32);
    let mask: u64 = if bits == 0 { 0 } else { (1u64 << bits) - 1 };
    let mut out = vec![0u8; (ids.len() * bits as usize).div_ceil(8)];
    for (i, &id) in ids.iter().enumerate() {
        assert!(u64::from(id) <= mask, "id {id} does not fit in {bits} bits");
        let mut value = u64::from(id);
        let mut pos = i * bits as usize;
        let mut remaining = bits as usize;
        while remaining > 0 {
            let byte = pos / 8;
            let bit = pos % 8;
            let take = remaining.min(8 - bit);
            out[byte] |= ((value & ((1 << take) - 1)) as u8) << bit;
            value >>= take;
            pos += take;
            remaining -= take;
        }
    }
    out
}

/// Unpacks `count` ids of `bits` bits each from a [`pack_ids`] stream.
pub fn unpack_ids(bytes: &[u8], bits: u32, count: usize) -> Vec<u32> {
    assert!(bits <= 32);
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let mut value = 0u64;
        let mut pos = i * bits as usize;
        let mut got = 0usize;
        while got < bits as usize {
            let byte = pos / 8;
            let bit = pos % 8;
            let take = (bits as usize - got).min(8 - bit);
            let chunk = (bytes.get(byte).copied().unwrap_or(0) >> bit) & ((1u16 << take) - 1) as u8;
            value |= u64::from(chunk) << got;
            got += take;
            pos += take;
        }
        out.push(value as u32);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_bits_values() {
        assert_eq!(element_bits(0), 0);
        assert_eq!(element_bits(1), 0);
        assert_eq!(element_bits(2), 1);
        assert_eq!(element_bits(3), 2);
        assert_eq!(element_bits(4), 2);
        assert_eq!(element_bits(5), 3);
        assert_eq!(element_bits(8), 3);
        assert_eq!(element_bits(9), 4);
        assert_eq!(element_bits(32), 5);
    }

    #[test]
    fn pack_unpack_roundtrip_all_k5() {
        for p in Permutation::all(5) {
            let bytes = pack(&p);
            assert_eq!(bytes.len(), (5 * 3usize).div_ceil(8));
            assert_eq!(unpack(&bytes, 5).unwrap(), p);
        }
    }

    #[test]
    fn pack_unpack_roundtrip_various_k() {
        for k in [1usize, 2, 3, 4, 7, 8, 12, 16] {
            let p = Permutation::identity(k);
            assert_eq!(unpack(&pack(&p), k).unwrap(), p, "identity k={k}");
            let rev: Vec<u8> = (0..k as u8).rev().collect();
            let r = Permutation::from_slice(&rev).unwrap();
            assert_eq!(unpack(&pack(&r), k).unwrap(), r, "reverse k={k}");
        }
    }

    #[test]
    fn packed_size_matches_formula() {
        // k = 12: 12 * 4 bits = 48 bits = 6 bytes (vs 12 bytes naive).
        let p = Permutation::identity(12);
        assert_eq!(pack(&p).len(), 6);
    }

    #[test]
    fn codebook_id_bits_tracks_size() {
        assert_eq!(FlatCodebook::default().id_bits(), 0);
        let all: Vec<Permutation> = Permutation::all(4).collect();
        for n in 1..=all.len() {
            let cb = FlatCodebook::from_permutations(&all[..n]);
            assert_eq!(cb.id_bits(), element_bits(n), "n = {n}");
        }
        assert_eq!(FlatCodebook::from_permutations(&all).id_bits(), 5);
    }

    #[test]
    #[should_panic(expected = "missing from codebook")]
    fn encode_unknown_panics() {
        let cb = FlatCodebook::default();
        let _ = cb.encode_all(&[Permutation::identity(2)]);
    }

    #[test]
    fn pack_ids_roundtrip_all_widths() {
        for bits in 1..=17u32 {
            let max = (1u64 << bits) - 1;
            let ids: Vec<u32> = (0..100u64).map(|i| ((i * 37) % (max + 1)) as u32).collect();
            let stream = pack_ids(&ids, bits);
            assert_eq!(stream.len(), (100 * bits as usize).div_ceil(8), "bits={bits}");
            assert_eq!(unpack_ids(&stream, bits, 100), ids, "bits={bits}");
        }
    }

    #[test]
    fn pack_ids_zero_bits_for_singleton_codebook() {
        // A database where every element has the same permutation needs 0
        // bits per element.
        let ids = vec![0u32; 50];
        let stream = pack_ids(&ids, 0);
        assert!(stream.is_empty());
        assert_eq!(unpack_ids(&stream, 0, 50), ids);
    }

    #[test]
    fn packed_stream_matches_storage_formula() {
        // 10,000 elements at 11 bits/id = 13,750 bytes.
        let ids = vec![1234u32; 10_000];
        assert_eq!(pack_ids(&ids, 11).len(), 13_750);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_id_rejected() {
        let _ = pack_ids(&[8], 3);
    }

    fn sample_perms() -> Vec<Permutation> {
        // An irregular multiset of k = 4 permutations.
        let base: Vec<Permutation> =
            [[0u8, 1, 2, 3], [3, 0, 1, 2], [1, 0, 2, 3], [3, 2, 1, 0], [0, 2, 1, 3]]
                .iter()
                .map(|s| Permutation::from_slice(s).unwrap())
                .collect();
        (0..40).map(|i| base[(i * 7) % base.len()]).collect()
    }

    #[test]
    fn flat_codebook_ids_are_lexicographic_ranks() {
        let perms = sample_perms();
        let flat = FlatCodebook::from_permutations(&perms);
        let mut sorted = perms.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(flat.as_slice(), sorted.as_slice());
        for p in &perms {
            assert_eq!(flat.id_of(p), sorted.binary_search(p).ok().map(|i| i as u32), "{p}");
        }
        assert_eq!(flat.id_bits(), element_bits(sorted.len()));
        assert_eq!(flat.id_of(&Permutation::identity(4)), Some(0));
        assert!(flat.id_of(&Permutation::identity(5)).is_none());
    }

    #[test]
    fn flat_codebook_counts_are_the_frequency_table() {
        let perms = sample_perms();
        let (flat, counts) = FlatCodebook::from_permutations_with_counts(&perms);
        assert_eq!(counts.len(), flat.len());
        assert_eq!(counts.iter().sum::<u64>(), perms.len() as u64);
        for (id, &c) in counts.iter().enumerate() {
            let p = flat.permutation(id as u32).unwrap();
            let direct = perms.iter().filter(|q| *q == p).count() as u64;
            assert_eq!(c, direct, "id {id}");
        }
    }

    #[test]
    fn flat_codebook_roundtrips_and_collects() {
        let perms = sample_perms();
        let flat: FlatCodebook = perms.iter().copied().collect();
        let ids = flat.encode_all(&perms);
        assert_eq!(flat.decode_all(&ids), perms);
        assert!(FlatCodebook::default().is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn flat_codebook_rejects_unsorted_input() {
        let _ = FlatCodebook::from_sorted_unique(vec![
            Permutation::from_slice(&[1, 0]).unwrap(),
            Permutation::identity(2),
        ]);
    }

    #[test]
    fn packed_codebook_assigns_flat_codebook_ids() {
        use crate::shard::PackedPermutationCounter;
        let perms = sample_perms();
        let mut counter = PackedPermutationCounter::<u64>::new(4);
        for p in &perms {
            counter.insert(p);
        }
        let summary = counter.finalize();
        let packed = PackedCodebook::from_summary(&summary);
        let flat = FlatCodebook::from_permutations(&perms);
        assert_eq!(packed.len(), flat.len());
        assert_eq!(packed.id_bits(), flat.id_bits());
        for p in &perms {
            assert_eq!(packed.id_of(p), flat.id_of(p), "{p}");
        }
        for id in 0..packed.len() as u32 {
            assert_eq!(packed.permutation(id).as_ref(), flat.permutation(id));
        }
        // Absent key / wrong length.
        assert!(packed.id_of(&Permutation::from_slice(&[2, 3, 0, 1]).unwrap()).is_none());
        assert!(packed.id_of(&Permutation::identity(3)).is_none());
        // Full expansion agrees.
        assert_eq!(packed.to_flat().as_slice(), flat.as_slice());
    }

    #[test]
    fn wide_packed_codebook_assigns_flat_codebook_ids() {
        use crate::shard::PackedPermutationCounter;
        // k = 15 permutations only fit the u128 key width.
        let k = 15usize;
        let mut base: Vec<u8> = (0..k as u8).collect();
        let mut perms = Vec::new();
        for round in 0..120usize {
            base.rotate_left(1 + round % 5);
            if round % 2 == 0 {
                base.swap(3, 11);
            }
            perms.push(Permutation::from_slice(&base).unwrap());
        }
        let mut counter: PackedPermutationCounter<u128> = PackedPermutationCounter::new(k);
        for p in &perms {
            counter.insert(p);
        }
        let packed = PackedCodebook::from_summary(&counter.finalize());
        let flat = FlatCodebook::from_permutations(&perms);
        assert_eq!(packed.len(), flat.len());
        for p in &perms {
            assert_eq!(packed.id_of(p), flat.id_of(p), "{p}");
        }
        for id in 0..packed.len() as u32 {
            assert_eq!(packed.permutation(id).as_ref(), flat.permutation(id));
        }
        assert_eq!(packed.to_flat().as_slice(), flat.as_slice());
    }

    #[test]
    fn end_to_end_codebook_pipeline() {
        // permutations -> codebook -> ids -> packed bits -> back.
        let perms: Vec<Permutation> = Permutation::all(4).collect();
        let cb: FlatCodebook = perms.iter().copied().collect();
        let ids = cb.encode_all(&perms);
        let stream = pack_ids(&ids, cb.id_bits());
        let restored = cb.decode_all(&unpack_ids(&stream, cb.id_bits(), ids.len()));
        assert_eq!(restored, perms);
    }
}
