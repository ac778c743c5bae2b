//! The inverse-position key column behind the permutation indexes.
//!
//! [`crate::DistPermIndex`], [`crate::FlatDistPermIndex`] and
//! [`crate::PrefixPermIndex`] keep one key per point and nothing else of
//! its permutation.  Field `e` of a key is the *position* of site `e` in
//! the point's distance permutation, clamped to the stored prefix length
//! ℓ (ℓ = k for the two full-permutation indexes).  A key is a `u64` of
//! 5-bit fields for k ≤ 12, a `u128` for k ≤ 25, and a `[u8; MAX_K]`
//! position array above that.
//!
//! Candidates are ordered by the Spearman footrule, the field-wise
//! `|a − b|` sum of two keys (SWAR on the packed widths).  Over clamped
//! keys it is exactly `prefix_footrule`: a site missing from one prefix
//! costs |r − ℓ|, from both 0.
//!
//! A key decodes back to the permutation (or prefix) it encodes, and
//! the distinct count sorts and dedups a copy of the column.

use crate::query::budgeted_order;
use dp_permutation::compute::{PACKED_MAX_K, WIDE_MAX_K};
use dp_permutation::{PackedKey, Permutation, PrefixPermutation, MAX_K};

/// Site positions indexed by site; entries past k are zero.
type Positions = [u8; MAX_K];

/// One point's key, at one of the three widths.
trait Key: Copy + Ord {
    /// Packs the positions of sites `0..pos.len()`.
    fn pack(pos: &[u8]) -> Self;

    /// The positions of sites `0..k` (zero past k).
    fn positions(self, k: usize) -> Positions;

    /// The field-wise `|a − b|` sum: the footrule over positions.
    fn footrule(self, other: Self) -> u64;
}

/// The packed widths: site `e` in the 5-bit field `e`.
macro_rules! packed_key {
    ($word:ty, $footrule:ident) => {
        impl Key for $word {
            fn pack(pos: &[u8]) -> Self {
                let fields = pos.iter().enumerate();
                fields.fold(0, |key, (e, &p)| key | Self::from(p) << Self::elem_shift(e))
            }

            fn positions(self, k: usize) -> Positions {
                std::array::from_fn(|e| if e < k { self.field(e) } else { 0 })
            }

            #[inline]
            fn footrule(self, other: Self) -> u64 {
                $footrule(self, other)
            }
        }
    };
}

packed_key!(u64, footrule_u64);
packed_key!(u128, footrule_u128);

impl Key for Positions {
    fn pack(pos: &[u8]) -> Self {
        std::array::from_fn(|e| pos.get(e).copied().unwrap_or(0))
    }

    fn positions(self, _k: usize) -> Positions {
        self
    }

    fn footrule(self, other: Self) -> u64 {
        self.iter().zip(&other).map(|(&a, &b)| u64::from(a.abs_diff(b))).sum()
    }
}

/// Bits of one key field.
// width: a field holds a position below MAX_K = 32 in the 5 bits the
// packed counting keys give a site; two fields make one SWAR lane, six
// lanes (60 bits) fit a u64.
const FIELD_BITS: u32 = <u64 as PackedKey>::BITS_PER_ELEM;

/// One 10-bit SWAR lane: two key fields.
const LANE_BITS: u32 = 2 * FIELD_BITS;

/// The low five bits of a lane: one field.
const FIELD_MASK: u64 = (1 << FIELD_BITS) - 1;

/// One in the low bit of each of the six lanes of a `u64`.
const LANE_ONES: u64 = ((1 << (6 * LANE_BITS)) - 1) / ((1 << LANE_BITS) - 1);

/// The low field of every lane: where key fields 0, 2, …, 10 sit as
/// they are, and fields 1, 3, …, 11 after a shift right by one field.
const LANE_FIELDS: u64 = FIELD_MASK * LANE_ONES;

/// The bit above every lane's field, the borrow guard of
/// [`lane_abs_diff`].
const LANE_GUARDS: u64 = LANE_ONES << FIELD_BITS;

/// The lane-wise `|a − b|` of two words whose six lanes each hold a
/// value below 32 (and nothing else).
///
/// Setting every lane's guard bit before subtracting keeps a borrow
/// inside its lane, and the guard survives exactly where the minuend's
/// value was not the smaller.  Both differences are taken, and each
/// lane keeps the one whose guard survived.
#[inline]
fn lane_abs_diff(a: u64, b: u64) -> u64 {
    let ab = (a | LANE_GUARDS) - b;
    let ba = (b | LANE_GUARDS) - a;
    let keep_ab = ((ab & LANE_GUARDS) >> FIELD_BITS) * FIELD_MASK;
    (ab & keep_ab) | (ba & !keep_ab & LANE_FIELDS)
}

/// The footrule over two `u64` keys: the field-wise `|a − b|` summed
/// over all twelve fields (fields past k are zero in both and add
/// nothing).
///
/// SWAR: the even and the odd fields are each spread one to a lane,
/// their lane-wise differences added, and the six lane sums (each at
/// most 62, together at most 372 < 2¹⁰) gathered into the top lane by
/// one multiply with [`LANE_ONES`].
#[inline]
fn footrule_u64(a: u64, b: u64) -> u64 {
    let even = lane_abs_diff(a & LANE_FIELDS, b & LANE_FIELDS);
    let odd = lane_abs_diff((a >> FIELD_BITS) & LANE_FIELDS, (b >> FIELD_BITS) & LANE_FIELDS);
    ((even + odd).wrapping_mul(LANE_ONES) >> (5 * LANE_BITS)) & ((1 << LANE_BITS) - 1)
}

/// [`footrule_u64`] over `u128` keys: fields 0–11, 12–23 and 24 each go
/// through the `u64` footrule.
#[inline]
fn footrule_u128(a: u128, b: u128) -> u64 {
    const TWELVE_FIELDS: u32 = 12 * FIELD_BITS;
    const LOW: u128 = (1 << TWELVE_FIELDS) - 1;
    let part = |shift: u32| footrule_u64(((a >> shift) & LOW) as u64, ((b >> shift) & LOW) as u64);
    part(0) + part(TWELVE_FIELDS) + part(2 * TWELVE_FIELDS)
}

/// The keys of a column, at the width that fits k.
#[derive(Debug, Clone)]
enum Keys {
    Narrow(Vec<u64>),
    Wide(Vec<u128>),
    Positions(Vec<Positions>),
}

/// Runs `$body` with `$keys` bound to the column's key vector.
macro_rules! with_keys {
    ($column:expr, $keys:ident => $body:expr) => {
        match &$column.keys {
            Keys::Narrow($keys) => $body,
            Keys::Wide($keys) => $body,
            Keys::Positions($keys) => $body,
        }
    };
}

/// One inverse-position key per point (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct KeyColumn {
    k: usize,
    /// The length ℓ positions are clamped to (k for full permutations).
    pub(crate) prefix_len: usize,
    keys: Keys,
}

impl KeyColumn {
    /// The column of the `n` position rows `rows` emits, field `e` of
    /// each the position of site `e` clamped to `prefix_len` (≤ k).
    pub(crate) fn collect(
        k: usize,
        prefix_len: usize,
        n: usize,
        rows: impl FnOnce(&mut dyn FnMut(&Positions)),
    ) -> Self {
        fn keys<K: Key>(
            k: usize,
            n: usize,
            rows: impl FnOnce(&mut dyn FnMut(&Positions)),
        ) -> Vec<K> {
            let mut keys = Vec::with_capacity(n);
            rows(&mut |pos| keys.push(K::pack(&pos[..k])));
            keys
        }
        let keys = if k <= PACKED_MAX_K {
            Keys::Narrow(keys(k, n, rows))
        } else if k <= WIDE_MAX_K {
            Keys::Wide(keys(k, n, rows))
        } else {
            Keys::Positions(keys(k, n, rows))
        };
        Self { k, prefix_len, keys }
    }

    /// The columns `parts` (at least one, all of one k and ℓ) laid end
    /// to end in order.
    pub(crate) fn concat(parts: Vec<Self>) -> Self {
        fn append<K>(all: &mut Vec<K>, keys: Vec<K>, n: usize) {
            all.reserve_exact(n - all.len());
            all.extend(keys);
        }
        let n = parts.iter().map(|part| with_keys!(part, keys => keys.len())).sum();
        let mut parts = parts.into_iter();
        let mut column = parts.next().expect("a column has at least one part");
        for part in parts {
            match (&mut column.keys, part.keys) {
                (Keys::Narrow(all), Keys::Narrow(keys)) => append(all, keys, n),
                (Keys::Wide(all), Keys::Wide(keys)) => append(all, keys, n),
                (Keys::Positions(all), Keys::Positions(keys)) => append(all, keys, n),
                _ => unreachable!("the parts of one column share its key width"),
            }
        }
        column
    }

    /// The key width: `"packed-u64"`, `"packed-u128"` or `"permutation"`.
    pub(crate) fn engine(&self) -> &'static str {
        match self.keys {
            Keys::Narrow(_) => "packed-u64",
            Keys::Wide(_) => "packed-u128",
            Keys::Positions(_) => "permutation",
        }
    }

    /// Point `i`'s stored prefix: the sites at positions below ℓ, in
    /// position order.
    pub(crate) fn prefix(&self, i: usize) -> PrefixPermutation {
        let pos = with_keys!(self, keys => keys[i].positions(self.k));
        let mut items = [0u8; MAX_K];
        for (site, &p) in pos[..self.k].iter().enumerate() {
            if usize::from(p) < self.prefix_len {
                items[usize::from(p)] = site as u8;
            }
        }
        PrefixPermutation::from_slice(self.k, &items[..self.prefix_len])
            .expect("a key decodes to a prefix")
    }

    /// Point `i`'s permutation, from a full-length column.
    pub(crate) fn permutation(&self, i: usize) -> Permutation {
        self.prefix(i).to_permutation().expect("a full-length key decodes to a permutation")
    }

    /// Number of distinct keys: distinct permutations, or distinct
    /// prefixes of a clamped column.
    pub(crate) fn distinct(&self) -> usize {
        with_keys!(self, keys => {
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            sorted.dedup();
            sorted.len()
        })
    }

    /// Fills `order` with the `budget` candidates nearest to the query
    /// permutation `query` by footrule, through [`budgeted_order`] (at
    /// full budget it orders nothing).
    pub(crate) fn order(&self, query: &Permutation, budget: usize, order: &mut Vec<u64>) {
        let pos = clamped_positions(query, self.prefix_len);
        with_keys!(self, keys => {
            let packed = Key::pack(&pos[..self.k]);
            budgeted_order(keys.iter().map(|&c| c.footrule(packed)), budget, order);
        });
    }
}

/// `perm`'s site positions, each clamped to `prefix_len`.
pub(crate) fn clamped_positions(perm: &Permutation, prefix_len: usize) -> Positions {
    let mut pos = [0; MAX_K];
    for (rank, &site) in perm.as_slice().iter().enumerate() {
        pos[usize::from(site)] = rank.min(prefix_len) as u8;
    }
    pos
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::MAX_ORDERING_DISTANCE;
    use dp_permutation::permdist::spearman_footrule;
    use dp_permutation::prefix_footrule;
    use proptest::prelude::*;

    /// The ordering the key column replaced, kept as its oracle: the
    /// footrule walk over stored permutations.
    fn order_candidates(
        perms: &[Permutation],
        qperm: &Permutation,
        budget: usize,
        order: &mut Vec<u64>,
    ) {
        budgeted_order(perms.iter().map(|p| spearman_footrule(qperm, p)), budget, order);
    }

    /// The footrule from `query` to each key of `column`.
    fn distances(column: &KeyColumn, query: &Permutation) -> Vec<u64> {
        let pos = clamped_positions(query, column.prefix_len);
        with_keys!(column, keys => {
            let packed = Key::pack(&pos[..column.k]);
            keys.iter().map(|&c| c.footrule(packed)).collect()
        })
    }

    /// The column of `perms`, positions clamped to `len`.
    fn column_of(k: usize, len: usize, perms: &[Permutation]) -> KeyColumn {
        KeyColumn::collect(k, len, perms.len(), |push| {
            perms.iter().for_each(|p| push(&clamped_positions(p, len)));
        })
    }

    /// A pseudo-random permutation of `0..k`.
    fn shuffled(k: usize, seed: u64) -> Permutation {
        let mut items: Vec<u8> = (0..k as u8).collect();
        let mut s = seed;
        for i in (1..items.len()).rev() {
            s = s.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            items.swap(i, (s >> 33) as usize % (i + 1));
        }
        Permutation::from_slice(&items).unwrap()
    }

    /// The footrule the SWAR form replaced, kept as its oracle: the
    /// field-wise `abs_diff` summed over every field of the key width.
    fn footrule_fields<K: PackedKey>(a: K, b: K) -> u64 {
        (0..K::MAX_K).map(|pos| u64::from(a.field(pos).abs_diff(b.field(pos)))).sum()
    }

    /// The packed key of `p`'s positions at width `K`.
    fn packed<K: Key>(p: &Permutation) -> K {
        K::pack(&clamped_positions(p, p.len())[..p.len()])
    }

    #[test]
    fn footrule_over_keys_matches_the_permutation_walk() {
        // Every k from 1 to a full key (12 fields of a u64, 25 of a
        // u128): the unused fields must add nothing and the used ones,
        // the top field included, everything.
        for k in 1..=WIDE_MAX_K {
            for s in 0..40u64 {
                let (a, b) = (shuffled(k, 2 * s), shuffled(k, 2 * s + 1));
                let expected = spearman_footrule(&a, &b);
                if k <= PACKED_MAX_K {
                    let (ka, kb) = (packed::<u64>(&a), packed::<u64>(&b));
                    assert_eq!(footrule_fields(ka, kb), expected, "u64 fields, k = {k}");
                    assert_eq!(footrule_u64(ka, kb), expected, "u64 SWAR, k = {k}");
                }
                let (ka, kb) = (packed::<u128>(&a), packed::<u128>(&b));
                assert_eq!(footrule_fields(ka, kb), expected, "u128 fields, k = {k}");
                assert_eq!(footrule_u128(ka, kb), expected, "u128 SWAR, k = {k}");
            }
        }
    }

    #[test]
    fn swar_footrule_handles_the_extreme_fields() {
        // Every field 31 against every field 0, both ways, and each
        // single field at 31 against 0: the largest lane differences,
        // in every lane, must neither borrow nor carry into a neighbour.
        let all_u64 = (1u64 << 60) - 1;
        let all_u128 = (1u128 << 125) - 1;
        assert_eq!(footrule_u64(all_u64, 0), 12 * 31);
        assert_eq!(footrule_u64(0, all_u64), 12 * 31);
        assert_eq!(footrule_u128(all_u128, 0), 25 * 31);
        assert_eq!(footrule_u128(0, all_u128), 25 * 31);
        for pos in 0..25u32 {
            let one = 0x1Fu128 << (5 * pos);
            assert_eq!(footrule_u128(one, 0), 31, "u128 field {pos}");
            assert_eq!(footrule_u128(all_u128 ^ one, all_u128), 31, "u128 field {pos}");
            if pos < 12 {
                let one = one as u64;
                assert_eq!(footrule_u64(0, one), 31, "u64 field {pos}");
                assert_eq!(footrule_u64(all_u64, all_u64 ^ one), 31, "u64 field {pos}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        // Any 5-bit field values, not only permutations: the SWAR
        // footrule equals the field loop at both widths.
        #[test]
        fn swar_footrule_matches_the_field_loop(a in any::<u128>(), b in any::<u128>()) {
            let (a, b) = (a & ((1 << 125) - 1), b & ((1 << 125) - 1));
            prop_assert_eq!(footrule_u128(a, b), footrule_fields(a, b));
            let (a, b) = (a as u64 & ((1 << 60) - 1), b as u64 & ((1 << 60) - 1));
            prop_assert_eq!(footrule_u64(a, b), footrule_fields(a, b));
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

    /// Total displacement numbers: entry d counts the permutations of k
    /// elements at footrule distance d from the identity, by the
    /// weighted Motzkin-path recurrence (Bärtschi et al., "On computing
    /// the total displacement number via weighted Motzkin paths").
    ///
    /// Step t brings in position t and value t; the height h is the
    /// number of positions (equally, values) left open so far.  A step
    /// keeps h in 2h + 1 ways (a fixed point, or one of the two sides
    /// matched with one of h open partners), falls to h − 1 in h² ways
    /// (both matched) and rises to h + 1 in one way (neither).  The
    /// displacement is twice the sum of the heights after every step.
    fn total_displacement_numbers(k: usize) -> Vec<u64> {
        let max_half = k * k / 4;
        // paths[h][s]: paths at height h whose heights sum to s so far.
        let mut paths = vec![vec![0u64; max_half + 1]; k + 2];
        paths[0][0] = 1;
        for _ in 0..k {
            let mut next = vec![vec![0u64; max_half + 1]; k + 2];
            for (h, row) in paths.iter().enumerate() {
                for (s, &count) in row.iter().enumerate() {
                    if count == 0 {
                        continue;
                    }
                    let hw = h as u64;
                    let mut moves = vec![(h, 2 * hw + 1), (h + 1, 1)];
                    if h > 0 {
                        moves.push((h - 1, hw * hw));
                    }
                    for (to, ways) in moves {
                        if s + to <= max_half {
                            next[to][s + to] += count * ways;
                        }
                    }
                }
            }
            paths = next;
        }
        let mut counts = vec![0u64; 2 * max_half + 1];
        for (s, &count) in paths[0].iter().enumerate() {
            counts[2 * s] = count;
        }
        counts
    }

    /// Counts all k! permutations by their footrule distance from the
    /// identity under the SWAR and the field loop at both key widths and
    /// the key column at each of its three widths, and checks each
    /// histogram against the total displacement numbers, the maximum
    /// ⌊k²/2⌋ included.
    fn check_closed_forms(k: usize) {
        let id = Permutation::identity(k);
        let perms: Vec<Permutation> = Permutation::all(k).collect();
        let narrow: Vec<u64> = perms.iter().map(packed).collect();
        let wide: Vec<u128> = perms.iter().map(packed).collect();
        let (n0, w0) = (packed::<u64>(&id), packed::<u128>(&id));
        let footrule = total_displacement_numbers(k);
        let columns = [
            Keys::Narrow(narrow.clone()),
            Keys::Wide(wide.clone()),
            Keys::Positions(perms.iter().map(packed).collect()),
        ]
        .map(|keys| KeyColumn { k, prefix_len: k, keys });
        let mut measured = vec![
            ("SWAR u64", histogram(narrow.iter().map(|&key| footrule_u64(n0, key)))),
            ("SWAR u128", histogram(wide.iter().map(|&key| footrule_u128(w0, key)))),
            ("fields u64", histogram(narrow.iter().map(|&key| footrule_fields(n0, key)))),
            ("fields u128", histogram(wide.iter().map(|&key| footrule_fields(w0, key)))),
        ];
        for column in &columns {
            measured.push((column.engine(), histogram(distances(column, &id))));
        }
        for (name, counts) in &measured {
            assert_eq!(counts, &footrule, "{name} footrule, k = {k}");
            assert_eq!(counts.len() - 1, k * k / 2, "{name} footrule maximum, k = {k}");
        }
    }

    #[test]
    fn closed_form_oracles_match_known_values() {
        // k = 4, small enough to count by hand.
        assert_eq!(total_displacement_numbers(4), [1, 0, 3, 0, 7, 0, 9, 0, 4]);
    }

    #[test]
    fn distance_histograms_match_closed_forms_up_to_k8() {
        for k in 1..=8 {
            check_closed_forms(k);
        }
        // The candidate-order words must hold the footrule over keys
        // clamped to any ℓ ≤ k at the largest k the indexes accept: each
        // of the k fields differs by at most ℓ, so by at most k².  The
        // full footrule's maximum ⌊k²/2⌋, checked there, is below it.
        let m = MAX_K as u64;
        assert_eq!(MAX_ORDERING_DISTANCE, m * m, "k² at MAX_K");
        assert!(m * m / 2 <= MAX_ORDERING_DISTANCE, "footrule maximum at MAX_K");
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "all 9! permutations; runs in the release suite")]
    fn distance_histograms_match_closed_forms_at_k9() {
        check_closed_forms(9);
    }

    #[test]
    fn column_footrule_matches_the_permutation_footrule_exhaustively() {
        // Every pair of permutations for k ≤ 6: the key column's
        // distance is `spearman_footrule` to the bit.
        for k in 0..=6 {
            let perms: Vec<Permutation> = Permutation::all(k).collect();
            let column = column_of(k, k, &perms);
            for q in &perms {
                let expected: Vec<u64> = perms.iter().map(|p| spearman_footrule(q, p)).collect();
                assert_eq!(distances(&column, q), expected, "k = {k}, query {q}");
            }
        }
    }

    #[test]
    fn clamped_footrule_is_the_prefix_footrule_exhaustively() {
        // Every k ≤ 6, every ℓ ≤ k and every pair of permutations: the
        // footrule over keys clamped to ℓ is `prefix_footrule` over the
        // length-ℓ prefixes, and the keys decode back to those prefixes.
        for k in 0..=6 {
            let perms: Vec<Permutation> = Permutation::all(k).collect();
            for len in 0..=k {
                let prefixes: Vec<PrefixPermutation> =
                    perms.iter().map(|p| PrefixPermutation::from_permutation(p, len)).collect();
                let column = column_of(k, len, &perms);
                for (i, prefix) in prefixes.iter().enumerate() {
                    assert_eq!(&column.prefix(i), prefix, "k = {k}, ℓ = {len}, row {i}");
                }
                for (q, qpre) in perms.iter().zip(&prefixes) {
                    let expected: Vec<u64> =
                        prefixes.iter().map(|p| prefix_footrule(qpre, p)).collect();
                    let got = distances(&column, q);
                    assert_eq!(got, expected, "k = {k}, ℓ = {len}, query {q}");
                }
            }
        }
    }

    #[test]
    fn keys_decode_count_and_label_at_every_width() {
        for (k, label) in [(1, "packed-u64"), (12, "packed-u64"), (13, "packed-u128")]
            .into_iter()
            .chain([(25, "packed-u128"), (26, "permutation"), (32, "permutation")])
        {
            // Twelve rows, four of them repeats.
            let perms: Vec<Permutation> = (0..12).map(|s| shuffled(k, s % 8)).collect();
            let column = column_of(k, k, &perms);
            assert_eq!(column.engine(), label, "k = {k}");
            for (i, p) in perms.iter().enumerate() {
                assert_eq!(&column.permutation(i), p, "k = {k}, row {i}");
            }
            let mut distinct = perms.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(column.distinct(), distinct.len(), "k = {k}");
            // Split into three parts and joined, the column is unchanged.
            let parts = [&perms[..5], &perms[5..5], &perms[5..]].map(|p| column_of(k, k, p));
            let joined = KeyColumn::concat(parts.to_vec());
            for (i, p) in perms.iter().enumerate() {
                assert_eq!(&joined.permutation(i), p, "k = {k}, joined row {i}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // At every width and any budget, the column's order is the
        // footrule walk's, word for word; prefix columns order as the
        // walk over `prefix_footrule` does.
        #[test]
        fn column_order_matches_the_permutation_walk(
            k in 1usize..=MAX_K,
            n in 1usize..120,
            budget_pick in 0usize..4,
            len_pick in any::<usize>(),
            seed in any::<u64>(),
        ) {
            let perms: Vec<Permutation> =
                (0..n as u64).map(|s| shuffled(k, seed.wrapping_add(s % 37))).collect();
            let qperm = shuffled(k, seed ^ 0x5EED);
            let budget = [1, n / 3, n.saturating_sub(1), n][budget_pick];
            let column = column_of(k, k, &perms);
            let (mut got, mut expected) = (Vec::new(), Vec::new());
            column.order(&qperm, budget, &mut got);
            order_candidates(&perms, &qperm, budget, &mut expected);
            prop_assert_eq!(&got, &expected);
            let len = len_pick % (k + 1);
            let prefixes: Vec<PrefixPermutation> =
                perms.iter().map(|p| PrefixPermutation::from_permutation(p, len)).collect();
            let qpre = PrefixPermutation::from_permutation(&qperm, len);
            let column = column_of(k, len, &perms);
            column.order(&qperm, budget, &mut got);
            budgeted_order(prefixes.iter().map(|p| prefix_footrule(&qpre, p)), budget, &mut expected);
            prop_assert_eq!(&got, &expected, "prefix length {}", len);
        }
    }
}
