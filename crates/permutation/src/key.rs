//! Width-generic packed permutation keys.
//!
//! The flat counting pipeline never materialises a [`crate::Permutation`]:
//! each database row becomes one integer **key** holding the permutation's
//! elements in 5-bit fields (element at position `p` of Π occupies bits
//! `5p..5p+5`).  Packing is injective, so sorting and run-scanning keys
//! counts permutations exactly.
//!
//! [`PackedKey`] abstracts the key's machine word so the same monomorphized
//! kernels run at two widths:
//!
//! * `u64` — 12 fields (`5·12 = 60 ≤ 64` bits), the historical fast path;
//! * `u128` — 25 fields (`5·25 = 125 ≤ 128` bits), opening k = 13..=25
//!   to the sorted-run pipeline that previously fell back to hashing.
//!
//! The trait is **sealed**: exactly these two widths exist, and every
//! consumer dispatches over them (and over [`crate::Permutation`] keys
//! for longer k) once per workload through
//! [`for_packed_k!`](crate::for_packed_k) so the per-row loops stay
//! branch-free.  Code outside this module must derive shifts and masks
//! through [`PackedKey::elem_shift`] / [`PackedKey::key_bits`] /
//! [`PackedKey::field`] rather than spelling the field width; dplint's
//! `key-width` pass requires a `// width:` proof comment at every
//! `BITS_PER_ELEM` call site to keep that discipline auditable.

use std::fmt::Debug;
use std::hash::Hash;
use std::ops::{BitAnd, BitOr, BitOrAssign, Shl, Shr};

mod sealed {
    /// Closed world: packed keys are exactly `u64` and `u128`.
    pub trait Sealed {}
    impl Sealed for u64 {}
    impl Sealed for u128 {}
}

/// An unsigned machine word holding a packed permutation in 5-bit fields.
///
/// Implemented by `u64` (k ≤ 12) and `u128` (k ≤ 25) only — the trait is
/// sealed.  All bit arithmetic the pipeline needs is expressed through
/// this surface, so the radix sorter, counters, codebooks, and the fused
/// rank-tile packer are written once and monomorphized per width.
pub trait PackedKey:
    sealed::Sealed
    + Copy
    + Ord
    + Eq
    + Hash
    + Debug
    + Default
    + Send
    + Sync
    + 'static
    + Shl<u32, Output = Self>
    + Shr<u32, Output = Self>
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitOrAssign
{
    /// Total bits in the word (64 or 128).
    const BITS: u32;

    /// Bits per permutation element.  Five bits hold any site index
    /// below [`crate::perm::MAX_K`] = 32.
    // width: the 5-bit field is the definition of the packed layout; both
    // widths share it so field arithmetic is width-independent.
    const BITS_PER_ELEM: u32 = 5;

    /// Largest permutation length whose packed key fits this word:
    /// `⌊BITS / BITS_PER_ELEM⌋` (12 for `u64`, 25 for `u128`).
    const MAX_K: usize;

    /// The all-zero key (the empty permutation's packing).
    const ZERO: Self;

    /// Widens a permutation element (a site index `< 32`) into the word.
    fn from_elem(e: u8) -> Self;

    /// The low 64 bits of the word — digit and field extraction narrows
    /// through this so the scalar loops do 64-bit arithmetic at both
    /// widths.
    fn low64(self) -> u64;

    /// The key whose low 64 bits are `lo` and whose next 64 are `hi` —
    /// the inverse of splitting the word; `hi` must be 0 for `u64`.
    fn from_words(lo: u64, hi: u64) -> Self;

    /// Bit offset of the field at position `pos`.
    #[inline]
    fn elem_shift(pos: usize) -> u32 {
        // width: positions map to fields at a fixed 5-bit stride.
        Self::BITS_PER_ELEM * pos as u32
    }

    /// Significant bits of a packed permutation of length `k` — the
    /// radix sorter's bound.
    #[inline]
    fn key_bits(k: usize) -> u32 {
        // width: k fields of 5 bits each; positions above k are zero.
        Self::BITS_PER_ELEM * k as u32
    }

    /// The element stored at position `pos` (the inverse of packing one
    /// field).
    #[inline]
    fn field(self, pos: usize) -> u8 {
        ((self >> Self::elem_shift(pos)).low64() & 0x1F) as u8
    }
}

impl PackedKey for u64 {
    const BITS: u32 = u64::BITS;
    // width: ⌊64 / 5⌋ = 12 fields fit a u64.
    const MAX_K: usize = (u64::BITS / Self::BITS_PER_ELEM) as usize;
    const ZERO: Self = 0;

    #[inline]
    fn from_elem(e: u8) -> Self {
        u64::from(e)
    }

    #[inline]
    fn low64(self) -> u64 {
        self
    }

    #[inline]
    fn from_words(lo: u64, hi: u64) -> Self {
        debug_assert_eq!(hi, 0, "a u64 key has no high word");
        lo
    }
}

impl PackedKey for u128 {
    const BITS: u32 = u128::BITS;
    // width: ⌊128 / 5⌋ = 25 fields fit a u128.
    const MAX_K: usize = (u128::BITS / Self::BITS_PER_ELEM) as usize;
    const ZERO: Self = 0;

    #[inline]
    fn from_elem(e: u8) -> Self {
        u128::from(e)
    }

    #[inline]
    fn low64(self) -> u64 {
        self as u64
    }

    #[inline]
    fn from_words(lo: u64, hi: u64) -> Self {
        (u128::from(hi) << u64::BITS) | u128::from(lo)
    }
}

/// Dispatches a block of code over the narrowest run key that holds a
/// length-`k` permutation.
///
/// The body runs once, with the caller-named type parameter bound to
/// `u64` (k ≤ 12), `u128` (k ≤ 25) or [`crate::Permutation`] (every
/// longer k) — the three [`crate::shard::RunKey`]s.  Each workload
/// dispatches **once**, so the monomorphized kernels under the body
/// contain no width branches:
///
/// ```
/// let k = 16;
/// let key_bytes = dp_permutation::for_packed_k!(k, K => std::mem::size_of::<K>());
/// assert_eq!(key_bytes, 16);
/// ```
#[macro_export]
macro_rules! for_packed_k {
    ($k:expr, $K:ident => $body:expr $(,)?) => {{
        let for_packed_k: usize = $k;
        if for_packed_k <= <u64 as $crate::key::PackedKey>::MAX_K {
            #[allow(non_camel_case_types)]
            type $K = u64;
            $body
        } else if for_packed_k <= <u128 as $crate::key::PackedKey>::MAX_K {
            #[allow(non_camel_case_types)]
            type $K = u128;
            $body
        } else {
            #[allow(non_camel_case_types)]
            type $K = $crate::Permutation;
            $body
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_and_capacities() {
        assert_eq!(<u64 as PackedKey>::BITS, 64);
        assert_eq!(<u128 as PackedKey>::BITS, 128);
        assert_eq!(<u64 as PackedKey>::MAX_K, 12);
        assert_eq!(<u128 as PackedKey>::MAX_K, 25);
        // width: 5·MAX_K must fit the word with < 5 bits to spare.
        assert!(<u64 as PackedKey>::key_bits(<u64 as PackedKey>::MAX_K) <= 64);
        assert!(<u128 as PackedKey>::key_bits(<u128 as PackedKey>::MAX_K) <= 128);
    }

    fn pack_fields<K: PackedKey>(fields: &[u8]) -> K {
        let mut key = K::ZERO;
        for (pos, &f) in fields.iter().enumerate() {
            key |= K::from_elem(f) << K::elem_shift(pos);
        }
        key
    }

    #[test]
    fn field_round_trips_u64() {
        let fields: Vec<u8> = (0..12u8).rev().collect();
        let key: u64 = pack_fields(&fields);
        for (pos, &f) in fields.iter().enumerate() {
            assert_eq!(key.field(pos), f, "pos {pos}");
        }
    }

    #[test]
    fn field_round_trips_u128_above_the_u64_boundary() {
        // Fields at positions 12..25 live strictly above bit 64.
        let fields: Vec<u8> = (0..25u8).map(|i| (i * 7) % 32).collect();
        let key: u128 = pack_fields(&fields);
        for (pos, &f) in fields.iter().enumerate() {
            assert_eq!(key.field(pos), f, "pos {pos}");
        }
        assert!(key >> 64 != 0, "test must exercise the high word");
    }

    #[test]
    fn low64_truncates() {
        let key: u128 = (1u128 << 100) | 0xABCD;
        assert_eq!(key.low64(), 0xABCD);
    }

    #[test]
    fn for_packed_k_selects_by_k() {
        use std::any::TypeId;
        let cases = [
            (0, TypeId::of::<u64>()),
            (12, TypeId::of::<u64>()),
            (13, TypeId::of::<u128>()),
            (25, TypeId::of::<u128>()),
            (26, TypeId::of::<crate::Permutation>()),
            (32, TypeId::of::<crate::Permutation>()),
        ];
        for (k, expected) in cases {
            assert_eq!(for_packed_k!(k, K => TypeId::of::<K>()), expected, "k = {k}");
        }
    }
}
