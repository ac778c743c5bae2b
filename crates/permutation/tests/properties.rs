//! In-crate property tests for the permutation machinery.

use dp_permutation::bits::{element_bits, BitReader, BitWriter};
use dp_permutation::huffman::{entropy_bits, HuffmanCode, HuffmanPermStore};
use dp_permutation::lehmer::{factorial, rank, unrank};
use dp_permutation::perm::Permutation;
use dp_permutation::permdist::{cayley, kendall_tau, spearman_footrule, spearman_rho_sq};
use dp_permutation::prefix::{prefix_footrule, PrefixPermutation};
use dp_permutation::store::{PackedPermStore, RawPermStore};
use proptest::prelude::*;

fn arb_perm(k: usize) -> impl Strategy<Value = Permutation> {
    Just(k).prop_perturb(move |k, mut rng| {
        let mut items: Vec<u8> = (0..k as u8).collect();
        for i in (1..items.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
        Permutation::from_slice(&items).expect("valid")
    })
}

proptest! {
    #[test]
    fn rank_is_lexicographic_order_preserving(a in arb_perm(7), b in arb_perm(7)) {
        // rank orders exactly like the derived lexicographic Ord.
        prop_assert_eq!(rank(&a).cmp(&rank(&b)), a.cmp(&b));
    }

    #[test]
    fn unrank_rank_roundtrip_k10(r in 0u128..3_628_800) {
        prop_assert_eq!(rank(&unrank(10, r)), r);
    }

    #[test]
    fn next_lex_is_rank_successor(p in arb_perm(6)) {
        let mut q = p;
        let r = rank(&p);
        if q.next_lex() {
            prop_assert_eq!(rank(&q), r + 1);
        } else {
            prop_assert_eq!(r, factorial(6) - 1);
            prop_assert_eq!(q, Permutation::identity(6));
        }
    }

    #[test]
    fn inverse_is_involution(p in arb_perm(9)) {
        prop_assert_eq!(p.inverse().inverse(), p);
        prop_assert_eq!(p.compose(&p.inverse()), Permutation::identity(9));
    }

    #[test]
    fn composition_is_associative(a in arb_perm(6), b in arb_perm(6), c in arb_perm(6)) {
        prop_assert_eq!(a.compose(&b).compose(&c), a.compose(&b.compose(&c)));
    }

    #[test]
    fn permdist_left_invariance(a in arb_perm(6), b in arb_perm(6), g in arb_perm(6)) {
        // In this crate's convention the distances compare *positions of
        // elements* (they act on inverses), so they are invariant under a
        // common relabelling of the ranks: d(g∘a, g∘b) = d(a, b).
        let ga = g.compose(&a);
        let gb = g.compose(&b);
        prop_assert_eq!(kendall_tau(&ga, &gb), kendall_tau(&a, &b));
        prop_assert_eq!(spearman_footrule(&ga, &gb), spearman_footrule(&a, &b));
        prop_assert_eq!(spearman_rho_sq(&ga, &gb), spearman_rho_sq(&a, &b));
    }

    #[test]
    fn footrule_even_parity(a in arb_perm(8), b in arb_perm(8)) {
        // The Spearman footrule between permutations of the same set is
        // always even (displacements pair up).
        prop_assert_eq!(spearman_footrule(&a, &b) % 2, 0);
    }

    #[test]
    fn bit_writer_reader_roundtrip(values in prop::collection::vec((0u64..u64::MAX, 1u32..=64), 0..100)) {
        let mut w = BitWriter::new();
        let masked: Vec<(u64, u32)> = values
            .iter()
            .map(|&(v, b)| (if b == 64 { v } else { v & ((1u64 << b) - 1) }, b))
            .collect();
        for &(v, b) in &masked {
            w.write(v, b);
        }
        let total: usize = masked.iter().map(|&(_, b)| b as usize).sum();
        prop_assert_eq!(w.len_bits(), total);
        let (bytes, len) = w.finish();
        let mut r = BitReader::new(&bytes, len);
        for &(v, b) in &masked {
            prop_assert_eq!(r.read(b), Some(v));
        }
        prop_assert_eq!(r.read(1), None);
    }

    #[test]
    fn raw_store_random_access(perms in prop::collection::vec(arb_perm(9), 0..150)) {
        let store = RawPermStore::from_permutations(9, &perms);
        prop_assert_eq!(store.len(), perms.len());
        for (i, p) in perms.iter().enumerate() {
            prop_assert_eq!(store.get(i), *p);
        }
    }

    #[test]
    fn packed_store_random_access(perms in prop::collection::vec(arb_perm(6), 0..300)) {
        let store = PackedPermStore::from_permutations(&perms);
        prop_assert_eq!(store.len(), perms.len());
        for (i, p) in perms.iter().enumerate() {
            prop_assert_eq!(store.get(i), *p);
        }
        // The codebook never holds more entries than the stream length
        // or k!.
        prop_assert!(store.distinct() <= perms.len());
        prop_assert!(store.distinct() as u128 <= factorial(6));
    }

    #[test]
    fn huffman_store_roundtrip_and_entropy_bound(perms in prop::collection::vec(arb_perm(5), 1..300)) {
        let store = HuffmanPermStore::from_permutations(&perms);
        let decoded: Vec<Permutation> = store.iter().collect();
        prop_assert_eq!(decoded, perms.clone());
        // Shannon: entropy ≤ huffman mean < entropy + 1.
        let mut freq_map = std::collections::HashMap::new();
        for p in &perms {
            *freq_map.entry(*p).or_insert(0u64) += 1;
        }
        let freqs: Vec<u64> = freq_map.values().copied().collect();
        let h = entropy_bits(&freqs);
        // Single-symbol streams pay the forced 1-bit code.
        let mean = store.mean_bits();
        if freqs.len() > 1 {
            prop_assert!(mean + 1e-9 >= h, "mean {} < entropy {}", mean, h);
            prop_assert!(mean < h + 1.0, "mean {} >= entropy + 1 {}", mean, h + 1.0);
        } else {
            prop_assert_eq!(mean, 1.0);
        }
    }

    #[test]
    fn huffman_optimality_not_beaten_by_flat_code(freqs in prop::collection::vec(1u64..1000, 2..64)) {
        // Huffman is optimal among prefix codes, so it never loses to the
        // flat ⌈log₂ n⌉-bit code.
        let code = HuffmanCode::from_frequencies(&freqs);
        let total: u64 = freqs.iter().sum();
        let flat = u64::from(element_bits(freqs.len())) * total;
        prop_assert!(code.total_bits(&freqs) <= flat);
    }

    #[test]
    fn cayley_vs_kendall_bounds(a in arb_perm(8), b in arb_perm(8)) {
        // Every adjacent transposition is a transposition: C ≤ K; and a
        // cycle of length c costs c−1 transpositions but can need up to
        // C(c,2) adjacent swaps, so K ≤ C(k,2) always.
        let c = cayley(&a, &b);
        let k = kendall_tau(&a, &b);
        prop_assert!(c <= k);
        prop_assert!(c <= 7); // k − 1 cycles minimum 1
    }

    #[test]
    fn prefix_footrule_is_monotone_refinement(a in arb_perm(8), b in arb_perm(8), l in 1usize..=8) {
        // Truncating to the same length keeps footrule symmetric and
        // bounded by the full-permutation footrule + 2·l·(k−l) slack.
        let pa = PrefixPermutation::from_permutation(&a, l);
        let pb = PrefixPermutation::from_permutation(&b, l);
        let d = prefix_footrule(&pa, &pb);
        prop_assert_eq!(d, prefix_footrule(&pb, &pa));
        if l == 8 {
            prop_assert_eq!(d, spearman_footrule(&a, &b));
        }
        // Agreement on the prefix means distance zero and conversely.
        prop_assert_eq!(d == 0, pa == pb);
    }

    #[test]
    fn prefix_truncation_chain_is_consistent(p in arb_perm(8)) {
        let full = PrefixPermutation::from_permutation(&p, 8);
        for l in (0..8).rev() {
            let direct = PrefixPermutation::from_permutation(&p, l);
            let chained = full.truncate(l);
            prop_assert_eq!(direct, chained);
        }
    }
}
