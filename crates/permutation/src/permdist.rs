//! Distances between permutations.
//!
//! The `distperm` and iAESA index types (Chávez–Figueroa–Navarro; Figueroa
//! et al.) order candidates by how similar their stored distance
//! permutation is to the query's.  The standard choices are implemented
//! here over 0-based [`Permutation`]s of equal length:
//!
//! * **Spearman footrule**  F(π,σ) = Σᵢ |π⁻¹(i) − σ⁻¹(i)|
//! * **Spearman rho (squared form)**  R(π,σ) = Σᵢ (π⁻¹(i) − σ⁻¹(i))²
//! * **Kendall tau**  number of discordant pairs.
//!
//! All three are genuine metrics on the symmetric group (rho in its
//! usual √-free form is, like squared Euclidean, only order-compatible; we
//! expose the sum of squares since index ordering is all the paper's
//! algorithms need).

use crate::perm::Permutation;

fn check_same_len(a: &Permutation, b: &Permutation) {
    assert_eq!(
        a.len(),
        b.len(),
        "permutation distance requires equal lengths ({} vs {})",
        a.len(),
        b.len()
    );
}

/// Spearman footrule: total displacement of each element between the two
/// rankings.  Maximum is ⌊k²/2⌋.
pub fn spearman_footrule(a: &Permutation, b: &Permutation) -> u64 {
    check_same_len(a, b);
    let ia = a.inverse();
    let ib = b.inverse();
    ia.as_slice().iter().zip(ib.as_slice()).map(|(&x, &y)| u64::from(x.abs_diff(y))).sum::<u64>()
}

/// Sum of squared rank displacements (the Spearman-rho statistic without
/// the normalisation).  Order-equivalent to Spearman's ρ.
pub fn spearman_rho_sq(a: &Permutation, b: &Permutation) -> u64 {
    check_same_len(a, b);
    let ia = a.inverse();
    let ib = b.inverse();
    ia.as_slice()
        .iter()
        .zip(ib.as_slice())
        .map(|(&x, &y)| {
            let d = u64::from(x.abs_diff(y));
            d * d
        })
        .sum::<u64>()
}

/// Kendall tau: number of pairs ordered differently by the two
/// permutations.  Maximum is C(k,2).
pub fn kendall_tau(a: &Permutation, b: &Permutation) -> u64 {
    check_same_len(a, b);
    // Relabel b through a's frame: sigma = positions of a's elements in b.
    // Kendall tau is then the inversion count of sigma; k <= 32 so the
    // quadratic count is faster than merge-sort bookkeeping.
    let ib = b.inverse();
    let sigma: Vec<u8> = a.as_slice().iter().map(|&e| ib.as_slice()[e as usize]).collect();
    let mut inversions = 0u64;
    for i in 0..sigma.len() {
        for j in (i + 1)..sigma.len() {
            inversions += u64::from(sigma[i] > sigma[j]);
        }
    }
    inversions
}

/// Cayley distance: minimum number of (arbitrary) transpositions turning
/// one permutation into the other, = k − #cycles(a⁻¹∘b).
///
/// Coarser than Kendall tau (which allows only *adjacent* swaps); useful
/// as a cheap diversity measure between stored permutations.
pub fn cayley(a: &Permutation, b: &Permutation) -> u64 {
    check_same_len(a, b);
    let k = a.len();
    // sigma = a^{-1} ∘ b maps rank-in-b to rank-in-a frames; its cycle
    // structure is what we need and is invariant under frame choice.
    let ia = a.inverse();
    let mut sigma = [0u8; crate::perm::MAX_K];
    for (i, &e) in b.as_slice().iter().enumerate() {
        sigma[i] = ia.as_slice()[e as usize];
    }
    let mut visited = [false; crate::perm::MAX_K];
    let mut cycles = 0u64;
    for start in 0..k {
        if visited[start] {
            continue;
        }
        cycles += 1;
        let mut at = start;
        while !visited[at] {
            visited[at] = true;
            at = sigma[at] as usize;
        }
    }
    k as u64 - cycles
}

/// Positional Hamming distance: number of ranks where the permutations
/// name different sites.
pub fn hamming(a: &Permutation, b: &Permutation) -> u64 {
    check_same_len(a, b);
    a.as_slice().iter().zip(b.as_slice()).filter(|(x, y)| x != y).count() as u64
}

/// Maximum possible footrule value for permutations of length k: ⌊k²/2⌋.
pub fn max_footrule(k: usize) -> u64 {
    (k * k / 2) as u64
}

/// Maximum possible Kendall tau for length k: C(k,2).
pub fn max_kendall(k: usize) -> u64 {
    (k * (k.saturating_sub(1)) / 2) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: &[u8]) -> Permutation {
        Permutation::from_slice(v).unwrap()
    }

    #[test]
    fn identical_permutations_have_zero_distance() {
        let a = p(&[2, 0, 1, 3]);
        assert_eq!(spearman_footrule(&a, &a), 0);
        assert_eq!(spearman_rho_sq(&a, &a), 0);
        assert_eq!(kendall_tau(&a, &a), 0);
    }

    #[test]
    fn reverse_attains_maxima() {
        for k in [2usize, 3, 4, 5, 8] {
            let id = Permutation::identity(k);
            let rev_items: Vec<u8> = (0..k as u8).rev().collect();
            let rev = p(&rev_items);
            assert_eq!(kendall_tau(&id, &rev), max_kendall(k), "kendall k={k}");
            assert_eq!(spearman_footrule(&id, &rev), max_footrule(k), "footrule k={k}");
        }
    }

    #[test]
    fn adjacent_transposition_counts() {
        let a = p(&[0, 1, 2, 3]);
        let b = p(&[0, 2, 1, 3]);
        assert_eq!(kendall_tau(&a, &b), 1);
        assert_eq!(spearman_footrule(&a, &b), 2);
        assert_eq!(spearman_rho_sq(&a, &b), 2);
    }

    #[test]
    fn footrule_hand_example() {
        // a = [1,2,0]: positions 1->0, 2->1, 0->2, so a^{-1} = [2,0,1].
        // b = identity: b^{-1} = [0,1,2]. Footrule = 2+1+1 = 4.
        let a = p(&[1, 2, 0]);
        let b = Permutation::identity(3);
        assert_eq!(spearman_footrule(&a, &b), 4);
        assert_eq!(spearman_rho_sq(&a, &b), 4 + 1 + 1);
        assert_eq!(kendall_tau(&a, &b), 2);
    }

    #[test]
    fn symmetry() {
        let perms: Vec<Permutation> = Permutation::all(4).collect();
        for a in &perms {
            for b in &perms {
                assert_eq!(spearman_footrule(a, b), spearman_footrule(b, a));
                assert_eq!(kendall_tau(a, b), kendall_tau(b, a));
                assert_eq!(spearman_rho_sq(a, b), spearman_rho_sq(b, a));
            }
        }
    }

    #[test]
    fn triangle_inequality_exhaustive_k4() {
        let perms: Vec<Permutation> = Permutation::all(4).collect();
        for a in &perms {
            for b in &perms {
                for c in &perms {
                    assert!(kendall_tau(a, b) <= kendall_tau(a, c) + kendall_tau(c, b));
                    assert!(
                        spearman_footrule(a, b)
                            <= spearman_footrule(a, c) + spearman_footrule(c, b)
                    );
                }
            }
        }
    }

    #[test]
    fn diaconis_graham_inequalities() {
        // Diaconis–Graham: K <= F <= 2K for all pairs.
        let perms: Vec<Permutation> = Permutation::all(5).collect();
        for a in perms.iter().step_by(7) {
            for b in perms.iter().step_by(11) {
                let k = kendall_tau(a, b);
                let f = spearman_footrule(a, b);
                assert!(k <= f && f <= 2 * k, "K={k} F={f} a={a} b={b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn length_mismatch_panics() {
        let _ = spearman_footrule(&Permutation::identity(3), &Permutation::identity(4));
    }

    #[test]
    fn cayley_counts_transpositions() {
        let id = Permutation::identity(4);
        assert_eq!(cayley(&id, &id), 0);
        // One transposition away.
        assert_eq!(cayley(&id, &p(&[1, 0, 2, 3])), 1);
        // A 3-cycle needs two transpositions.
        assert_eq!(cayley(&id, &p(&[1, 2, 0, 3])), 2);
        // A 4-cycle needs three.
        assert_eq!(cayley(&id, &p(&[1, 2, 3, 0])), 3);
    }

    #[test]
    fn cayley_is_a_metric_and_below_kendall() {
        let perms: Vec<Permutation> = Permutation::all(4).collect();
        for a in &perms {
            for b in &perms {
                let c = cayley(a, b);
                assert_eq!(c, cayley(b, a));
                assert_eq!(c == 0, a == b);
                assert!(c <= kendall_tau(a, b), "cayley exceeds kendall");
                for mid in perms.iter().step_by(5) {
                    assert!(c <= cayley(a, mid) + cayley(mid, b));
                }
            }
        }
    }

    /// Histogram of `values`: entry d counts the values equal to d.
    fn histogram(values: impl IntoIterator<Item = u64>) -> Vec<u64> {
        let mut counts = Vec::new();
        for d in values {
            let d = d as usize;
            if counts.len() <= d {
                counts.resize(d + 1, 0);
            }
            counts[d] += 1;
        }
        counts
    }

    /// Mahonian numbers: the coefficients of ∏ᵢ₌₁ᵏ (1 + q + … + q^{i−1}),
    /// the permutations of k elements counted by inversions.
    fn mahonian_numbers(k: usize) -> Vec<u64> {
        let mut poly = vec![1u64];
        for i in 1..=k {
            let mut next = vec![0u64; poly.len() + i - 1];
            for (d, &c) in poly.iter().enumerate() {
                for slot in &mut next[d..d + i] {
                    *slot += c;
                }
            }
            poly = next;
        }
        poly
    }

    /// Unsigned Stirling numbers of the first kind c(k, j), the
    /// permutations of k elements with j cycles, indexed by the Cayley
    /// distance k − j.
    fn cayley_numbers(k: usize) -> Vec<u64> {
        let mut row = vec![1u64];
        for n in 0..k {
            let mut next = vec![0u64; n + 2];
            for (j, &c) in row.iter().enumerate() {
                next[j] += n as u64 * c;
                next[j + 1] += c;
            }
            row = next;
        }
        row.iter().rev().copied().take(k.max(1)).collect()
    }

    /// Counts all k! permutations by their Kendall tau and Cayley
    /// distance from the identity against the Mahonian and Stirling
    /// numbers, and checks Spearman rho's maximum (k³ − k)/3.
    fn check_closed_forms(k: usize) {
        let id = Permutation::identity(k);
        let perms: Vec<Permutation> = Permutation::all(k).collect();
        let kendall = histogram(perms.iter().map(|p| kendall_tau(&id, p)));
        assert_eq!(kendall, mahonian_numbers(k), "Kendall tau, k = {k}");
        let cayley = histogram(perms.iter().map(|p| cayley(&id, p)));
        assert_eq!(cayley, cayley_numbers(k), "Cayley, k = {k}");
        let rho_max = perms.iter().map(|p| spearman_rho_sq(&id, p)).max();
        assert_eq!(rho_max, Some(((k * k * k - k) / 3) as u64), "Spearman rho maximum, k = {k}");
    }

    #[test]
    fn closed_form_oracles_match_known_values() {
        // k = 4, small enough to count by hand.
        assert_eq!(mahonian_numbers(4), [1, 3, 5, 6, 5, 3, 1]);
        assert_eq!(cayley_numbers(4), [1, 6, 11, 6]);
    }

    #[test]
    fn distance_histograms_match_closed_forms_up_to_k8() {
        for k in 1..=8 {
            check_closed_forms(k);
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "all 9! permutations; runs in the release suite")]
    fn distance_histograms_match_closed_forms_at_k9() {
        check_closed_forms(9);
    }

    #[test]
    fn hamming_basic_properties() {
        let id = Permutation::identity(5);
        assert_eq!(hamming(&id, &id), 0);
        assert_eq!(hamming(&id, &p(&[1, 0, 2, 3, 4])), 2);
        // No two permutations differ in exactly one position.
        for a in Permutation::all(4) {
            for b in Permutation::all(4) {
                assert_ne!(hamming(&a, &b), 1);
            }
        }
    }
}
