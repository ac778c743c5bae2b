//! The storage-space comparison of §1/§4.
//!
//! The chain of improvements the paper traces, in bits per database
//! element for n elements, k sites/pivots, d dimensions:
//!
//! | scheme | bits/element | total |
//! |---|---|---|
//! | AESA (full matrix) | n·b | O(n²) distances |
//! | LAESA (k pivot distances) | k·⌈log₂ n⌉ | O(nk log n) |
//! | distance permutation, unrestricted | ⌈log₂ k!⌉ | O(nk log k) |
//! | positional packing | k·⌈log₂ k⌉ | O(nk log k) |
//! | **codebook (this paper, Euclidean)** | ⌈log₂ N_{d,2}(k)⌉ | **Θ(nd log k)** |
//!
//! (LAESA's log n term follows the paper's accounting: distances stored to
//! the precision needed to discriminate n objects.)

use crate::euclidean::n_euclidean;

/// Per-element storage costs, in bits, for one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageRow {
    /// Dimension of the (Euclidean) space.
    pub d: u32,
    /// Number of sites / pivots.
    pub k: u32,
    /// Database size used for LAESA's distance precision.
    pub n: u64,
    /// LAESA: k distances at ⌈log₂ n⌉ bits each.
    pub laesa_bits: u64,
    /// Unrestricted permutation rank: ⌈log₂ k!⌉.
    pub full_perm_bits: u32,
    /// Positional packing: k·⌈log₂ k⌉.
    pub packed_bits: u32,
    /// The codebook id: ⌈log₂ N_{d,2}(k)⌉ (the paper's Θ(d log k) result).
    pub codebook_bits: u32,
}

fn ceil_log2_u128(v: u128) -> u32 {
    if v <= 1 {
        0
    } else {
        128 - (v - 1).leading_zeros()
    }
}

fn ceil_log2_u64(v: u64) -> u32 {
    if v <= 1 {
        0
    } else {
        64 - (v - 1).leading_zeros()
    }
}

/// ⌈log₂ k!⌉ without overflow (works for any k via summed logs when needed).
pub fn log2_factorial_ceil(k: u32) -> u32 {
    if k <= 33 {
        let f: u128 = (1..=u128::from(k)).product();
        ceil_log2_u128(f)
    } else {
        (1..=u64::from(k)).map(|i| (i as f64).log2()).sum::<f64>().ceil() as u32
    }
}

/// Computes all storage costs for one `(d, k, n)` configuration.
///
/// # Panics
/// Panics if N_{d,2}(k) overflows u128 (far outside any practical range).
pub fn storage_row(d: u32, k: u32, n: u64) -> StorageRow {
    let n_perms = n_euclidean(d, k).expect("N_{d,2}(k) fits in u128");
    StorageRow {
        d,
        k,
        n,
        laesa_bits: u64::from(k) * u64::from(ceil_log2_u64(n)),
        full_perm_bits: log2_factorial_ceil(k),
        packed_bits: k * ceil_log2_u64(u64::from(k)),
        codebook_bits: ceil_log2_u128(n_perms),
    }
}

/// Renders a storage comparison table over the given d and k ranges.
pub fn render_table(ds: &[u32], ks: &[u32], n: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!("bits per element (n = {n}): LAESA | perm-rank | packed | codebook\n"));
    for &d in ds {
        for &k in ks {
            let r = storage_row(d, k, n);
            out.push_str(&format!(
                "d={d:>2} k={k:>2}: {:>6} | {:>9} | {:>6} | {:>8}\n",
                r.laesa_bits, r.full_perm_bits, r.packed_bits, r.codebook_bits
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_factorial_values() {
        assert_eq!(log2_factorial_ceil(0), 0);
        assert_eq!(log2_factorial_ceil(1), 0);
        assert_eq!(log2_factorial_ceil(2), 1);
        assert_eq!(log2_factorial_ceil(4), 5);
        assert_eq!(log2_factorial_ceil(12), 29);
        // Large-k path uses the floating sum; compare against the exact
        // u128 value at the boundary.
        assert_eq!(log2_factorial_ceil(33), 123);
        assert!(log2_factorial_ceil(64) > 200);
    }

    #[test]
    fn codebook_beats_full_permutation_in_low_dimension() {
        // The paper's headline: for fixed d, codebook bits grow as d log k
        // while the unrestricted rank grows as k log k.
        for k in [8u32, 12, 16, 24] {
            let r = storage_row(2, k, 1_000_000);
            assert!(
                r.codebook_bits < r.full_perm_bits,
                "k={k}: {} >= {}",
                r.codebook_bits,
                r.full_perm_bits
            );
        }
    }

    #[test]
    fn codebook_matches_full_permutation_in_high_dimension() {
        // With d >= k-1 all k! permutations occur; the codebook saves
        // nothing (Theorem 6 limits what permutation storage can achieve).
        let r = storage_row(11, 12, 1_000_000);
        assert_eq!(r.codebook_bits, r.full_perm_bits);
    }

    #[test]
    fn laesa_dominates_all_permutation_schemes() {
        // The storage motivation of the paper: permutations always beat
        // storing k quantised distances.
        for (d, k) in [(2u32, 8u32), (4, 12), (6, 10)] {
            let r = storage_row(d, k, 1_000_000);
            assert!(r.laesa_bits > u64::from(r.full_perm_bits));
            assert!(r.laesa_bits > u64::from(r.codebook_bits));
        }
    }

    #[test]
    fn storage_row_field_formulas() {
        let r = storage_row(3, 12, 1 << 20);
        assert_eq!(r.laesa_bits, 12 * 20);
        assert_eq!(r.packed_bits, 12 * 4);
        assert_eq!(r.full_perm_bits, 29);
        // N_{3,2}(12) = 34662 -> 16 bits.
        assert_eq!(r.codebook_bits, 16);
    }

    #[test]
    fn render_contains_rows() {
        let s = render_table(&[1, 2], &[4, 8], 1024);
        assert!(s.contains("d= 1 k= 4"));
        assert!(s.contains("d= 2 k= 8"));
    }
}
