//! Random-access permutation stores realising the paper's storage claims.
//!
//! Section 4's practical consequence: an index holding one distance
//! permutation per database element should not spend ⌈log₂ k!⌉ bits per
//! element when the space admits only N ≪ k! distinct permutations.  Two
//! physical layouts are provided, both with O(1) random access:
//!
//! * [`RawPermStore`] — each permutation packed positionally at
//!   `k·⌈log₂ k⌉` bits (the unrestricted O(nk log k)-bit layout the paper
//!   credits to Chávez–Figueroa–Navarro);
//! * [`PackedPermStore`] — a codebook of the N distinct permutations plus
//!   ⌈log₂ N⌉ bits per element (the paper's improvement; Θ(nd log k)
//!   bits in d-dimensional Euclidean space by Corollary 8).  The codebook
//!   is the run counter's [`PackedCountSummary`], so ids are
//!   lexicographic ranks.
//!
//! For the entropy-optimal but sequential-access layout, see
//! [`crate::huffman`].  All three are compared byte-for-byte by the E13
//! storage experiment and the `storage_formats` example.

use crate::bits::{element_bits, read_bits_at, BitWriter};
use crate::counter::PackedCountSummary;
use crate::perm::{Permutation, MAX_K};
use crate::shard::PackedPermutationCounter;

/// The codebook of a permutation stream: its distinct permutations and
/// their counts, sorted by the run counter.  k is the first
/// permutation's length (0 for an empty stream).
///
/// # Panics
/// Panics if the permutations differ in length.
pub(crate) fn count_codebook(perms: &[Permutation]) -> PackedCountSummary<Permutation> {
    let mut counter = PackedPermutationCounter::new(perms.first().map_or(0, Permutation::len));
    perms.iter().for_each(|p| counter.insert(p));
    counter.finalize()
}

/// Fixed-width positional store: `k·⌈log₂ k⌉` bits per permutation.
#[derive(Debug, Clone)]
pub struct RawPermStore {
    data: Vec<u8>,
    k: usize,
    len: usize,
}

impl RawPermStore {
    /// Packs `perms`, all of which must have length `k`.
    ///
    /// # Panics
    /// Panics if any permutation's length differs from `k`, or `k > MAX_K`.
    pub fn from_permutations(k: usize, perms: &[Permutation]) -> Self {
        assert!(k <= MAX_K, "k = {k} exceeds MAX_K = {MAX_K}");
        let bits = element_bits(k);
        let mut w = BitWriter::with_capacity(perms.len() * k * bits as usize);
        for p in perms {
            assert_eq!(p.len(), k, "permutation length {} != k = {k}", p.len());
            for &e in p.as_slice() {
                w.write(u64::from(e), bits);
            }
        }
        let (data, _) = w.finish();
        Self { data, k, len: perms.len() }
    }

    /// Number of stored permutations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no permutations are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The permutation length k.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Bits consumed per stored permutation.
    pub fn bits_per_element(&self) -> u32 {
        self.k as u32 * element_bits(self.k)
    }

    /// Retrieves permutation `i` in O(k).
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> Permutation {
        assert!(i < self.len, "index {i} out of range (len {})", self.len);
        let bits = element_bits(self.k);
        let mut items = [0u8; MAX_K];
        if bits == 0 {
            // k <= 1: the only permutation is the identity.
            return Permutation::identity(self.k);
        }
        let base = i * self.k * bits as usize;
        for (j, slot) in items.iter_mut().take(self.k).enumerate() {
            *slot = read_bits_at(&self.data, base + j * bits as usize, bits) as u8;
        }
        Permutation::from_slice(&items[..self.k]).expect("store holds valid permutations")
    }

    /// Iterates over all stored permutations in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = Permutation> + '_ {
        (0..self.len).map(|i| self.get(i))
    }

    /// Heap bytes held by the packed buffer.
    pub fn heap_bytes(&self) -> usize {
        self.data.len()
    }
}

/// The paper's codebook store: one ⌈log₂ N⌉-bit id per element plus the table of the
/// N distinct permutations.
///
/// This is the paper's storage strategy verbatim: "the bound can be
/// achieved simply by storing the full permutations in a separate table
/// and storing the index numbers into that table alongside the points"
/// (§4).
#[derive(Debug, Clone)]
pub struct PackedPermStore {
    codebook: PackedCountSummary<Permutation>,
    data: Vec<u8>,
    bits: u32,
    len: usize,
}

impl PackedPermStore {
    /// Builds the codebook and packs ids in two passes over `perms`.
    ///
    /// # Panics
    /// Panics if the permutations differ in length.
    pub fn from_permutations(perms: &[Permutation]) -> Self {
        let codebook = count_codebook(perms);
        let bits = codebook.id_bits();
        let mut w = BitWriter::with_capacity(perms.len() * bits as usize);
        for p in perms {
            let id = codebook.id_of(p).expect("interned in first pass");
            w.write(u64::from(id), bits);
        }
        let (data, _) = w.finish();
        Self { codebook, data, bits, len: perms.len() }
    }

    /// Number of stored permutations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no permutations are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of *distinct* permutations (the paper's N).
    pub fn distinct(&self) -> usize {
        self.codebook.distinct()
    }

    /// Bits per element: ⌈log₂ N⌉.
    pub fn bits_per_element(&self) -> u32 {
        self.bits
    }

    /// The codebook id stored at position `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn id_at(&self, i: usize) -> u32 {
        assert!(i < self.len, "index {i} out of range (len {})", self.len);
        read_bits_at(&self.data, i * self.bits as usize, self.bits) as u32
    }

    /// Retrieves permutation `i` in O(1).
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> Permutation {
        self.codebook.permutation(self.id_at(i)).expect("id interned at build")
    }

    /// Iterates over all stored permutations in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = Permutation> + '_ {
        (0..self.len).map(|i| self.get(i))
    }

    /// Borrows the codebook (e.g. to share with a Huffman store).
    pub fn codebook(&self) -> &PackedCountSummary<Permutation> {
        &self.codebook
    }

    /// Heap bytes: packed ids + the codebook's permutation table
    /// (`N × size_of::<Permutation>()`), matching how the paper accounts
    /// storage (table + ids).
    pub fn heap_bytes(&self) -> usize {
        self.data.len() + self.codebook.distinct() * std::mem::size_of::<Permutation>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lehmer::unrank;

    fn sample_perms(k: usize, n: usize) -> Vec<Permutation> {
        // Deterministic, heavily repetitive stream: cycle over k! ranks
        // with a stride, so stores see realistic duplicate-rich data.
        let kfact: u128 = (1..=k as u128).product();
        (0..n).map(|i| unrank(k, (i as u128 * 7) % kfact)).collect()
    }

    #[test]
    fn raw_store_roundtrips() {
        let perms = sample_perms(5, 200);
        let store = RawPermStore::from_permutations(5, &perms);
        assert_eq!(store.len(), 200);
        assert_eq!(store.k(), 5);
        for (i, p) in perms.iter().enumerate() {
            assert_eq!(store.get(i), *p);
        }
        let collected: Vec<_> = store.iter().collect();
        assert_eq!(collected, perms);
    }

    #[test]
    fn raw_store_bits_match_formula() {
        let perms = sample_perms(5, 64);
        let store = RawPermStore::from_permutations(5, &perms);
        // k = 5 needs ⌈log₂ 5⌉ = 3 bits per element, 15 per permutation.
        assert_eq!(store.bits_per_element(), 15);
        assert_eq!(store.heap_bytes(), (64usize * 15).div_ceil(8));
    }

    #[test]
    fn raw_store_handles_k_zero_and_one() {
        let empty = RawPermStore::from_permutations(0, &[Permutation::identity(0); 3]);
        assert_eq!(empty.get(1), Permutation::identity(0));
        assert_eq!(empty.bits_per_element(), 0);
        let one = RawPermStore::from_permutations(1, &[Permutation::identity(1); 3]);
        assert_eq!(one.get(2), Permutation::identity(1));
        assert_eq!(one.heap_bytes(), 0);
    }

    #[test]
    fn packed_store_roundtrips_and_is_smaller() {
        let perms = sample_perms(6, 500);
        let packed = PackedPermStore::from_permutations(&perms);
        let raw = RawPermStore::from_permutations(6, &perms);
        assert_eq!(packed.len(), 500);
        for (i, p) in perms.iter().enumerate() {
            assert_eq!(packed.get(i), *p, "mismatch at {i}");
        }
        // Only ≤ k! = 720 distinct values appear but the cycle stride
        // limits it further; either way ids are narrower than raw records.
        assert!(packed.bits_per_element() < raw.bits_per_element());
        assert!(packed.distinct() <= 720);
    }

    #[test]
    fn packed_store_ids_are_dense() {
        let perms = sample_perms(4, 100);
        let store = PackedPermStore::from_permutations(&perms);
        for i in 0..store.len() {
            assert!((store.id_at(i) as usize) < store.distinct());
        }
    }

    #[test]
    fn packed_store_single_distinct_permutation_needs_zero_bits() {
        let perms = vec![Permutation::identity(7); 42];
        let store = PackedPermStore::from_permutations(&perms);
        assert_eq!(store.distinct(), 1);
        assert_eq!(store.bits_per_element(), 0);
        assert_eq!(store.get(41), Permutation::identity(7));
    }

    #[test]
    fn empty_stores() {
        let raw = RawPermStore::from_permutations(3, &[]);
        assert!(raw.is_empty());
        let packed = PackedPermStore::from_permutations(&[]);
        assert!(packed.is_empty());
        assert_eq!(packed.distinct(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn raw_get_out_of_range_panics() {
        RawPermStore::from_permutations(3, &[]).get(0);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn raw_store_rejects_mixed_lengths() {
        let perms = vec![Permutation::identity(3), Permutation::identity(4)];
        RawPermStore::from_permutations(3, &perms);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn packed_store_rejects_mixed_lengths() {
        let perms = vec![Permutation::identity(3), Permutation::identity(4)];
        PackedPermStore::from_permutations(&perms);
    }
}
