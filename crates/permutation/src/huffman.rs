//! Entropy coding of permutation streams — the paper's §4 open door.
//!
//! After presenting the codebook layout (⌈log₂ N⌉ bits per element) the
//! paper notes: "For smaller databases a more sophisticated structure may
//! be possible, taking into account the special structure of the set of
//! permutations."  The Table 2/3 experiments show permutation occupancy
//! is *heavily* skewed (mean ≈ 10 points per permutation with a long
//! tail), so the obvious sophistication is an entropy code over the
//! empirical distribution: a canonical Huffman code spends
//! H ≤ mean bits < H + 1 per element, where H is the empirical entropy —
//! never worse than the flat codebook by more than one bit and often far
//! better.
//!
//! [`HuffmanCode`] is a canonical Huffman code over `u32` symbols
//! (codebook ids); [`HuffmanPermStore`] couples it with the run
//! counter's [`PackedCountSummary`] as the codebook into a
//! sequential-access permutation store.  The trade-off against
//! [`crate::store::PackedPermStore`] (random access, fixed width) is
//! measured by the E13 storage experiment.

use crate::bits::{BitReader, BitWriter};
use crate::counter::PackedCountSummary;
use crate::perm::Permutation;
use crate::radix::RadixSorter;
use crate::store::count_codebook;

/// Empirical entropy of a frequency table, in bits per symbol.
///
/// Zero-frequency symbols contribute nothing; an empty or all-zero table
/// has entropy 0.
pub fn entropy_bits(freqs: &[u64]) -> f64 {
    let total = freqs.iter().sum::<u64>();
    if total == 0 {
        return 0.0;
    }
    let total_f = total as f64;
    // Explicit sequential accumulation: the entropy sum is part of the
    // survey's bit-identity contract, so its order is spelled out in the
    // source rather than left to an iterator reduction.  Frequency-1
    // symbols dominate high-k tables (almost every permutation is
    // unique), and their term is the same expression every time, so it
    // is computed once and reused — bit-identical to recomputing it,
    // with the accumulation order unchanged.
    let mut bits = 0.0f64;
    let mut one_term = f64::NAN;
    for &f in freqs.iter().filter(|&&f| f > 0) {
        let term = if f == 1 {
            if one_term.is_nan() {
                let p = 1.0f64 / total_f;
                one_term = -p * p.log2();
            }
            one_term
        } else {
            let p = f as f64 / total_f;
            -p * p.log2()
        };
        bits += term;
    }
    bits
}

/// A canonical Huffman code over symbols `0..n`.
///
/// Symbols with zero frequency get no code and cannot be encoded.
/// A single-symbol alphabet is assigned a 1-bit code so the stream stays
/// self-delimiting.
#[derive(Debug, Clone)]
pub struct HuffmanCode {
    /// Code length per symbol; 0 = symbol absent.
    lengths: Vec<u8>,
    /// Canonical code value per symbol (MSB-first within the code).
    codes: Vec<u64>,
    /// Symbols sorted by (length, symbol) — the canonical order.
    sorted_symbols: Vec<u32>,
    /// For each length L: (first canonical code of length L, offset into
    /// `sorted_symbols` of the first symbol of length L, count).
    decode_rows: Vec<(u64, u32, u32)>,
    max_len: u8,
}

impl HuffmanCode {
    /// Builds the code from a frequency table indexed by symbol.
    pub fn from_frequencies(freqs: &[u64]) -> Self {
        let lengths = code_lengths(freqs);
        Self::from_lengths(lengths)
    }

    fn from_lengths(lengths: Vec<u8>) -> Self {
        // Canonical order is (length, symbol) ascending.  Lengths fit a
        // u8, so a 256-bucket counting sort over the naturally
        // symbol-ordered scan produces exactly the order
        // `sort_unstable_by_key(|s| (length, s))` would — stable within
        // a length because symbols arrive ascending — without the
        // comparison sort (measurable at ~10⁵ coded symbols, where the
        // sort dominated the canonical build).
        let mut len_hist = [0u32; 256];
        let mut coded = 0usize;
        for &l in &lengths {
            len_hist[l as usize] += 1;
            coded += usize::from(l > 0);
        }
        let mut offsets = [0u32; 256];
        let mut sum = 0u32;
        for (off, &count) in offsets.iter_mut().zip(len_hist.iter()).skip(1) {
            *off = sum;
            sum += count;
        }
        let mut sorted_symbols: Vec<u32> = vec![0; coded];
        for (s, &l) in lengths.iter().enumerate() {
            if l > 0 {
                sorted_symbols[offsets[l as usize] as usize] = s as u32;
                offsets[l as usize] += 1;
            }
        }
        let max_len = (0..256).rfind(|&l| l > 0 && len_hist[l] > 0).unwrap_or(0) as u8;

        let mut codes = vec![0u64; lengths.len()];
        let mut decode_rows = vec![(0u64, 0u32, 0u32); max_len as usize + 1];
        let mut code: u64 = 0;
        let mut prev_len = 0u8;
        for (idx, &s) in sorted_symbols.iter().enumerate() {
            let len = lengths[s as usize];
            code <<= len - prev_len;
            if decode_rows[len as usize].2 == 0 {
                decode_rows[len as usize] = (code, idx as u32, 0);
            }
            decode_rows[len as usize].2 += 1;
            codes[s as usize] = code;
            code += 1;
            prev_len = len;
        }
        Self { lengths, codes, sorted_symbols, decode_rows, max_len }
    }

    /// Code length of `symbol` in bits, or `None` if it has no code.
    pub fn length(&self, symbol: u32) -> Option<u8> {
        match self.lengths.get(symbol as usize) {
            Some(&l) if l > 0 => Some(l),
            _ => None,
        }
    }

    /// Number of symbols with a code.
    pub fn coded_symbols(&self) -> usize {
        self.sorted_symbols.len()
    }

    /// Longest code length in bits.
    pub fn max_code_length(&self) -> u8 {
        self.max_len
    }

    /// Appends the code for `symbol` to `w`, MSB first.
    ///
    /// # Panics
    /// Panics if `symbol` has no code.
    pub fn encode_symbol(&self, symbol: u32, w: &mut BitWriter) {
        let len = self.length(symbol).expect("symbol has no Huffman code");
        let code = self.codes[symbol as usize];
        // MSB-first: emit from the top bit of the code down.
        for i in (0..len).rev() {
            w.write_bit((code >> i) & 1 == 1);
        }
    }

    /// Decodes one symbol from `r`, or `None` at (clean) end of stream.
    ///
    /// # Panics
    /// Panics on a corrupt stream (a bit pattern no code matches, or a
    /// truncated final code).
    pub fn decode_symbol(&self, r: &mut BitReader<'_>) -> Option<u32> {
        let mut code: u64 = 0;
        let mut len = 0u8;
        loop {
            let Some(bit) = r.read_bit() else {
                assert!(len == 0, "truncated Huffman stream");
                return None;
            };
            code = (code << 1) | u64::from(bit);
            len += 1;
            assert!(len <= self.max_len, "corrupt Huffman stream: no code matches");
            let (first, offset, count) = self.decode_rows[len as usize];
            if count > 0 && code >= first && code - first < u64::from(count) {
                let idx = offset as usize + (code - first) as usize;
                return Some(self.sorted_symbols[idx]);
            }
        }
    }

    /// Total bits this code spends on a stream with the given frequencies.
    pub fn total_bits(&self, freqs: &[u64]) -> u64 {
        freqs
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f > 0)
            .map(|(s, &f)| f * u64::from(self.length(s as u32).expect("frequency without code")))
            .sum::<u64>()
    }

    /// Mean bits per symbol under the given frequencies.
    pub fn mean_bits(&self, freqs: &[u64]) -> f64 {
        let total = freqs.iter().sum::<u64>();
        if total == 0 {
            0.0
        } else {
            self.total_bits(freqs) as f64 / total as f64
        }
    }
}

/// Huffman code lengths for a frequency table (0 for absent symbols).
///
/// O(N log N) in the sort, O(N) after it: one stable radix pass
/// ([`RadixSorter::sort_pairs`]) puts the leaves in weight order, then
/// the classic **two-queue** merge replaces the old `BinaryHeap` —
/// merged weights emerge in non-decreasing order, so the internal nodes
/// form a second already-sorted queue and each merge step is O(1).
///
/// Deterministic and bit-identical to the heap construction it
/// replaced: the stable sort keeps equal-weight leaves in symbol order,
/// internal nodes pop in creation order, and weight ties between the
/// queues prefer the leaf — exactly the `(weight, node id)` order the
/// old heap popped in.
fn code_lengths(freqs: &[u64]) -> Vec<u8> {
    let present: Vec<u32> = (0..freqs.len() as u32).filter(|&s| freqs[s as usize] > 0).collect();
    let mut lengths = vec![0u8; freqs.len()];
    match present.len() {
        0 => return lengths,
        1 => {
            // A lone symbol still needs 1 bit for self-delimiting streams.
            lengths[present[0] as usize] = 1;
            return lengths;
        }
        _ => {}
    }

    // Count-sort the leaves by weight.  Frequency tables arrive in
    // codebook (lexicographic-id) order; the stable pair sort preserves
    // that order among equal weights.
    let mut leaves: Vec<(u64, u64)> =
        present.iter().enumerate().map(|(i, &s)| (freqs[s as usize], i as u64)).collect();
    let max_freq = leaves.iter().map(|&(f, _)| f).max().expect("non-empty");
    RadixSorter::new().sort_pairs(&mut leaves, 64 - max_freq.leading_zeros());

    // Two-queue merge.  Leaves are ids `0..leaf_count`; internal nodes
    // take ids from `leaf_count` up, in creation order, and their
    // weights are non-decreasing — so `nodes[next_node..created]` is the
    // second sorted queue and no heap is needed.
    // Pops the lighter front of the two queues; `<=` on a weight tie
    // takes the leaf — its id is always smaller than any internal
    // node's, matching the old heap's `(weight, id)` order.
    fn take_min(
        leaves: &[(u64, u64)],
        node_weights: &[u64],
        leaf_count: u32,
        next_leaf: &mut usize,
        next_node: &mut usize,
    ) -> (u64, u32) {
        let leaf = leaves.get(*next_leaf).map(|&(w, i)| (w, i as u32));
        let node = node_weights.get(*next_node).map(|&w| (w, leaf_count + *next_node as u32));
        match (leaf, node) {
            (Some((lw, li)), Some((nw, _))) if lw <= nw => {
                *next_leaf += 1;
                (lw, li)
            }
            (Some((lw, li)), None) => {
                *next_leaf += 1;
                (lw, li)
            }
            (_, Some((nw, ni))) => {
                *next_node += 1;
                (nw, ni)
            }
            (None, None) => unreachable!("merge loop never overdraws the queues"),
        }
    }

    let leaf_count = present.len() as u32;
    let mut nodes: Vec<(u32, u32)> = Vec::with_capacity(present.len() - 1);
    let mut node_weights: Vec<u64> = Vec::with_capacity(present.len() - 1);
    let mut next_leaf = 0usize;
    let mut next_node = 0usize;
    for _ in 1..leaf_count {
        let (fa, a) = take_min(&leaves, &node_weights, leaf_count, &mut next_leaf, &mut next_node);
        let (fb, b) = take_min(&leaves, &node_weights, leaf_count, &mut next_leaf, &mut next_node);
        nodes.push((a, b));
        node_weights.push(fa + fb);
    }
    debug_assert!(node_weights.windows(2).all(|w| w[0] <= w[1]), "node queue must stay sorted");

    // Depth assignment by one reverse scan: the root is the last node
    // created, and every child id is smaller than its parent's, so
    // parents are always visited first.  Leaf ids index `present`
    // directly (they were carried through the sort as pair values).
    let mut depths = vec![0u8; nodes.len()];
    for parent in (0..nodes.len()).rev() {
        let depth = depths[parent];
        assert!(depth < 64, "Huffman depth exceeds 64 bits");
        let (a, b) = nodes[parent];
        for child in [a, b] {
            if child < leaf_count {
                lengths[present[child as usize] as usize] = depth + 1;
            } else {
                depths[(child - leaf_count) as usize] = depth + 1;
            }
        }
    }
    lengths
}

/// A sequential-access permutation store at (near-)entropy cost.
///
/// Layout: codebook table + canonical Huffman code + one variable-length
/// id code per element.  No random access — decoding is a front-to-back
/// scan — which is the price of beating the flat ⌈log₂ N⌉ layout.
#[derive(Debug, Clone)]
pub struct HuffmanPermStore {
    codebook: PackedCountSummary<Permutation>,
    code: HuffmanCode,
    data: Vec<u8>,
    len_bits: usize,
    len: usize,
}

impl HuffmanPermStore {
    /// Builds the store from a permutation stream (two passes: count,
    /// then encode).
    ///
    /// The codebook is the run counter's summary — ids are
    /// lexicographic ranks, no hash interning — and the frequency table
    /// is its [`PackedCountSummary::lexicographic_counts`].  Any Huffman
    /// code built on a permuted frequency table is equally optimal, so
    /// the per-stream cost ([`Self::mean_bits`]) does not depend on the
    /// id numbering.
    ///
    /// # Panics
    /// Panics if the permutations differ in length.
    pub fn from_permutations(perms: &[Permutation]) -> Self {
        let codebook = count_codebook(perms);
        let code = HuffmanCode::from_frequencies(&codebook.lexicographic_counts());
        let mut w = BitWriter::new();
        for p in perms {
            let id = codebook.id_of(p).expect("interned");
            code.encode_symbol(id, &mut w);
        }
        let (data, len_bits) = w.finish();
        Self { codebook, code, data, len_bits, len: perms.len() }
    }

    /// Number of stored permutations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct permutations.
    pub fn distinct(&self) -> usize {
        self.codebook.distinct()
    }

    /// Mean bits per element actually spent by the encoded stream.
    pub fn mean_bits(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.len_bits as f64 / self.len as f64
        }
    }

    /// The underlying canonical code.
    pub fn code(&self) -> &HuffmanCode {
        &self.code
    }

    /// Decodes the whole stream front to back.
    pub fn iter(&self) -> impl Iterator<Item = Permutation> + '_ {
        let mut reader = BitReader::new(&self.data, self.len_bits);
        let mut produced = 0usize;
        std::iter::from_fn(move || {
            if produced == self.len {
                return None;
            }
            produced += 1;
            let id = self.code.decode_symbol(&mut reader).expect("stream holds len symbols");
            Some(self.codebook.permutation(id).expect("id interned"))
        })
    }

    /// Heap bytes: encoded stream + codebook table + code lengths.
    ///
    /// Accounted like [`crate::store::PackedPermStore::heap_bytes`].  A
    /// *canonical* code is fully determined by its per-symbol lengths,
    /// so the code adds only one byte per distinct permutation.
    pub fn heap_bytes(&self) -> usize {
        self.data.len() + self.codebook.distinct() * (std::mem::size_of::<Permutation>() + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::element_bits;
    use crate::lehmer::unrank;

    #[test]
    fn entropy_of_uniform_and_degenerate() {
        assert_eq!(entropy_bits(&[]), 0.0);
        assert_eq!(entropy_bits(&[0, 0]), 0.0);
        assert_eq!(entropy_bits(&[7]), 0.0);
        let h = entropy_bits(&[1, 1, 1, 1]);
        assert!((h - 2.0).abs() < 1e-12);
    }

    #[test]
    fn kraft_equality_holds() {
        // An optimal prefix-free code on ≥2 symbols satisfies
        // Σ 2^{-len} = 1 exactly.
        let freqs = [5u64, 9, 12, 13, 16, 45];
        let code = HuffmanCode::from_frequencies(&freqs);
        let kraft: f64 = (0..freqs.len() as u32)
            .filter_map(|s| code.length(s))
            .map(|l| 0.5f64.powi(i32::from(l)))
            .sum();
        assert!((kraft - 1.0).abs() < 1e-12, "kraft sum {kraft}");
    }

    #[test]
    fn classic_textbook_code_lengths() {
        // Frequencies 5,9,12,13,16,45: the classic example; the symbol
        // with weight 45 gets 1 bit, the rest 3–4.
        let freqs = [5u64, 9, 12, 13, 16, 45];
        let code = HuffmanCode::from_frequencies(&freqs);
        assert_eq!(code.length(5), Some(1));
        assert_eq!(code.length(0), Some(4));
        assert_eq!(code.length(1), Some(4));
        let total = code.total_bits(&freqs);
        assert_eq!(total, 5 * 4 + 9 * 4 + 12 * 3 + 13 * 3 + 16 * 3 + 45);
    }

    #[test]
    fn mean_bits_within_one_of_entropy() {
        let freqs: Vec<u64> = (1..=40u64).map(|i| i * i).collect();
        let code = HuffmanCode::from_frequencies(&freqs);
        let h = entropy_bits(&freqs);
        let mean = code.mean_bits(&freqs);
        assert!(mean >= h - 1e-9, "mean {mean} below entropy {h}");
        assert!(mean < h + 1.0, "mean {mean} not within 1 bit of entropy {h}");
    }

    #[test]
    fn roundtrip_skewed_stream() {
        let freqs = [100u64, 10, 5, 1, 1, 0, 3];
        let code = HuffmanCode::from_frequencies(&freqs);
        let stream: Vec<u32> = (0..freqs.len() as u32)
            .flat_map(|s| std::iter::repeat_n(s, freqs[s as usize] as usize))
            .collect();
        let mut w = BitWriter::new();
        for &s in &stream {
            code.encode_symbol(s, &mut w);
        }
        let (bytes, len) = w.finish();
        assert_eq!(len as u64, code.total_bits(&freqs));
        let mut r = BitReader::new(&bytes, len);
        for &s in &stream {
            assert_eq!(code.decode_symbol(&mut r), Some(s));
        }
        assert_eq!(code.decode_symbol(&mut r), None);
    }

    #[test]
    fn single_symbol_alphabet_gets_one_bit() {
        let code = HuffmanCode::from_frequencies(&[0, 42, 0]);
        assert_eq!(code.length(1), Some(1));
        assert_eq!(code.coded_symbols(), 1);
        let mut w = BitWriter::new();
        code.encode_symbol(1, &mut w);
        code.encode_symbol(1, &mut w);
        let (bytes, len) = w.finish();
        let mut r = BitReader::new(&bytes, len);
        assert_eq!(code.decode_symbol(&mut r), Some(1));
        assert_eq!(code.decode_symbol(&mut r), Some(1));
        assert_eq!(code.decode_symbol(&mut r), None);
    }

    #[test]
    #[should_panic(expected = "no Huffman code")]
    fn encoding_absent_symbol_panics() {
        let code = HuffmanCode::from_frequencies(&[1, 0, 1]);
        code.encode_symbol(1, &mut BitWriter::new());
    }

    #[test]
    fn perm_store_roundtrips_and_beats_flat_ids_on_skewed_data() {
        // 90% of elements share one permutation — the skew Table 2
        // exhibits ("about 10 database points per permutation").
        let kfact: u128 = (1..=6u128).product();
        let mut perms = vec![unrank(6, 0); 900];
        perms.extend((0..100u128).map(|i| unrank(6, (i * 11) % kfact)));
        let store = HuffmanPermStore::from_permutations(&perms);
        assert_eq!(store.len(), 1000);
        let decoded: Vec<_> = store.iter().collect();
        assert_eq!(decoded, perms);
        let flat_bits = f64::from(element_bits(store.distinct()));
        assert!(store.mean_bits() < flat_bits, "huffman {} >= flat {flat_bits}", store.mean_bits());
    }

    #[test]
    fn empty_perm_store() {
        let store = HuffmanPermStore::from_permutations(&[]);
        assert!(store.is_empty());
        assert_eq!(store.iter().count(), 0);
        assert_eq!(store.mean_bits(), 0.0);
    }

    /// The `BinaryHeap` construction the two-queue build replaced, kept
    /// as a test oracle: the rewrite must reproduce its lengths bit for
    /// bit (same merge order, not merely the same total cost).
    fn heap_code_lengths(freqs: &[u64]) -> Vec<u8> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let present: Vec<u32> =
            (0..freqs.len() as u32).filter(|&s| freqs[s as usize] > 0).collect();
        let mut lengths = vec![0u8; freqs.len()];
        match present.len() {
            0 => return lengths,
            1 => {
                lengths[present[0] as usize] = 1;
                return lengths;
            }
            _ => {}
        }
        let mut nodes: Vec<(u32, u32)> = Vec::new();
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = present
            .iter()
            .enumerate()
            .map(|(i, &s)| Reverse((freqs[s as usize], i as u32)))
            .collect();
        let leaf_count = present.len() as u32;
        while heap.len() > 1 {
            let Reverse((fa, a)) = heap.pop().unwrap();
            let Reverse((fb, b)) = heap.pop().unwrap();
            let id = leaf_count + nodes.len() as u32;
            nodes.push((a, b));
            heap.push(Reverse((fa + fb, id)));
        }
        let Reverse((_, root)) = heap.pop().unwrap();
        let mut stack = vec![(root, 0u8)];
        while let Some((node, depth)) = stack.pop() {
            if node < leaf_count {
                lengths[present[node as usize] as usize] = depth.max(1);
            } else {
                let (a, b) = nodes[(node - leaf_count) as usize];
                stack.push((a, depth + 1));
                stack.push((b, depth + 1));
            }
        }
        lengths
    }

    #[test]
    fn two_queue_matches_heap_construction_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x48_75_66_66);
        for case in 0..200 {
            let n = 1 + (case % 64);
            let freqs: Vec<u64> = (0..n)
                .map(|_| {
                    // Mix zeros, heavy ties, and a skewed tail.
                    match rng.random::<u64>() % 4 {
                        0 => 0,
                        1 => 7,
                        2 => rng.random::<u64>() % 16,
                        _ => rng.random::<u64>() % 100_000,
                    }
                })
                .collect();
            assert_eq!(code_lengths(&freqs), heap_code_lengths(&freqs), "case {case}: {freqs:?}");
        }
    }

    #[test]
    fn deterministic_lengths() {
        let freqs: Vec<u64> = (0..100).map(|i| (i * 31 + 7) % 50 + 1).collect();
        let a = HuffmanCode::from_frequencies(&freqs);
        let b = HuffmanCode::from_frequencies(&freqs);
        for s in 0..freqs.len() as u32 {
            assert_eq!(a.length(s), b.length(s));
        }
    }
}
