//! Format constants, section identifiers, metric tags and the checksum.
//!
//! The byte-level layout is specified in the crate docs ([`crate`]);
//! this module is the single source of truth for every constant in it.

use crate::StoreError;
use dp_metric::{BatchDistance, L2Squared, LInf, Lp, L1, L2};

/// The first eight bytes of every store file.
pub const MAGIC: [u8; 8] = *b"DPSTORE\0";

/// The format version this crate writes and reads.
pub const FORMAT_VERSION: u32 = 1;

/// Endianness sentinel: written little-endian, so a store produced on a
/// big-endian writer reads back as a different value and is rejected
/// before any payload field is trusted.
pub const ENDIAN_TAG: u32 = 0x1A2B_3C4D;

/// Fixed header size in bytes.
pub const HEADER_LEN: u64 = 64;

/// Size of one TOC entry in bytes.
pub const TOC_ENTRY_LEN: u64 = 32;

/// Section payload alignment: offsets are cache-line aligned so the
/// f64/u64 payloads land aligned when the file is block-read (or
/// mmapped, a planned follow-up) straight into their in-memory layouts.
pub const SECTION_ALIGN: u64 = 64;

/// The sections of a version-1 store, in their required TOC order.
///
/// A v1 file contains exactly these four, each once, ascending by id.
/// Ids 5 (packed permutation keys for the index's key column) and
/// 6 (a page index for mmap loading) are reserved for future versions —
/// adding a section is a format-version bump, never a silent extension.
///
/// Since the PR 9 width-generic refactor, packed keys come in two
/// widths (`u64` for k ≤ 12, `u128` for k ≤ 25), so a future section 5
/// must carry a key-width byte (8 or 16) in its payload header and its
/// element size follows that byte — it is **not** a fixed-stride u64
/// array.  `FlatDistPermIndex::from_parts` currently builds its key
/// column from the PERMS section at load, so section 5 stays an
/// optimisation, never a correctness input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionId {
    /// Geometry, metric tag and site ids.
    Meta = 1,
    /// The row-major `VectorSet` buffer (n·d f64).
    Vectors = 2,
    /// The coordinate-major `TransposedSites` buffer (k·d f64).
    SitesT = 3,
    /// Permutation items, one length-k row of u8 per point.
    Perms = 4,
}

impl SectionId {
    /// All v1 sections in required order.
    pub const ALL: [SectionId; 4] =
        [SectionId::Meta, SectionId::Vectors, SectionId::SitesT, SectionId::Perms];

    /// The on-disk id.
    pub fn code(self) -> u32 {
        self as u32
    }
}

impl std::fmt::Display for SectionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            SectionId::Meta => "META",
            SectionId::Vectors => "VECTORS",
            SectionId::SitesT => "SITES_T",
            SectionId::Perms => "PERMS",
        };
        f.write_str(name)
    }
}

/// Which metric a store was built under, as recorded in META.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricTag {
    /// Manhattan distance.
    L1,
    /// Euclidean distance.
    L2,
    /// Squared Euclidean distance.
    L2Squared,
    /// Chebyshev distance.
    LInf,
    /// Minkowski distance with exponent p ≥ 1.
    Lp(f64),
}

impl MetricTag {
    /// The on-disk metric code.
    pub fn code(self) -> u32 {
        match self {
            MetricTag::L1 => 1,
            MetricTag::L2 => 2,
            MetricTag::L2Squared => 3,
            MetricTag::LInf => 4,
            MetricTag::Lp(_) => 5,
        }
    }

    /// The on-disk metric parameter (f64 bits; zero for all but Lp).
    pub fn param_bits(self) -> u64 {
        match self {
            MetricTag::Lp(p) => p.to_bits(),
            _ => 0,
        }
    }

    /// Decodes a (code, param) pair, rejecting unknown codes, nonzero
    /// parameters on parameterless metrics, and Lp exponents outside
    /// the metric domain (NaN, infinite, or < 1).
    pub fn decode(code: u32, param_bits: u64) -> Result<Self, StoreError> {
        let tag = match code {
            1 => MetricTag::L1,
            2 => MetricTag::L2,
            3 => MetricTag::L2Squared,
            4 => MetricTag::LInf,
            5 => {
                let p = f64::from_bits(param_bits);
                if !p.is_finite() || p < 1.0 {
                    return Err(StoreError::BadMeta { field: "metric-param", value: param_bits });
                }
                return Ok(MetricTag::Lp(p));
            }
            other => {
                return Err(StoreError::BadMeta { field: "metric-code", value: u64::from(other) })
            }
        };
        if param_bits != 0 {
            return Err(StoreError::BadMeta { field: "metric-param", value: param_bits });
        }
        Ok(tag)
    }

    /// Human-readable name, matching the CLI's metric naming.
    pub fn name(self) -> String {
        match self {
            MetricTag::L1 => "L1".into(),
            MetricTag::L2 => "L2".into(),
            MetricTag::L2Squared => "L2sq".into(),
            MetricTag::LInf => "Linf".into(),
            MetricTag::Lp(p) => format!("L{p}"),
        }
    }
}

/// Metrics the store can persist: every batched vector metric, each
/// knowing its own [`MetricTag`].
pub trait StoreMetric: BatchDistance + Sync {
    /// This metric's on-disk tag.
    fn metric_tag(&self) -> MetricTag;
}

impl StoreMetric for L1 {
    fn metric_tag(&self) -> MetricTag {
        MetricTag::L1
    }
}

impl StoreMetric for L2 {
    fn metric_tag(&self) -> MetricTag {
        MetricTag::L2
    }
}

impl StoreMetric for L2Squared {
    fn metric_tag(&self) -> MetricTag {
        MetricTag::L2Squared
    }
}

impl StoreMetric for LInf {
    fn metric_tag(&self) -> MetricTag {
        MetricTag::LInf
    }
}

impl StoreMetric for Lp {
    fn metric_tag(&self) -> MetricTag {
        MetricTag::Lp(self.p())
    }
}

/// FNV-1a 64 over a byte slice — the store's checksum.
///
/// Chosen over a CRC not for speed but for a provable property the
/// robustness suite leans on: the absorb step `h = (h ^ b) * PRIME` is
/// a bijection of the 64-bit state for every fixed byte `b` (the prime
/// is odd, so multiplication is invertible mod 2⁶⁴), and substituting
/// `b` changes `h ^ b`.  Therefore **any single-byte substitution
/// changes the digest with certainty**, not merely with probability
/// 1 − 2⁻⁶⁴ — every one-byte corruption of a checksummed region is
/// guaranteed to be caught.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET_BASIS;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// Rounds `offset` up to the next [`SECTION_ALIGN`] boundary.
///
/// Returns `None` on u64 overflow (only reachable from hostile TOC
/// values; the writer's offsets are bounded by real buffer sizes).
pub fn align_up(offset: u64) -> Option<u64> {
    let rem = offset % SECTION_ALIGN;
    if rem == 0 {
        Some(offset)
    } else {
        offset.checked_add(SECTION_ALIGN - rem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_distinguishes_single_byte_substitutions() {
        let base = vec![0u8; 256];
        let h0 = fnv1a64(&base);
        for i in 0..base.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut corrupt = base.clone();
                corrupt[i] ^= flip;
                assert_ne!(fnv1a64(&corrupt), h0, "byte {i} flip {flip:02x}");
            }
        }
    }

    #[test]
    fn metric_tag_roundtrip() {
        for tag in [
            MetricTag::L1,
            MetricTag::L2,
            MetricTag::L2Squared,
            MetricTag::LInf,
            MetricTag::Lp(3.5),
        ] {
            let decoded = MetricTag::decode(tag.code(), tag.param_bits()).unwrap();
            assert_eq!(decoded, tag);
        }
    }

    #[test]
    fn metric_tag_rejects_bad_codes_and_params() {
        assert!(MetricTag::decode(0, 0).is_err());
        assert!(MetricTag::decode(6, 0).is_err());
        // Nonzero parameter on a parameterless metric.
        assert!(MetricTag::decode(2, 1).is_err());
        // Lp exponents outside the metric domain.
        assert!(MetricTag::decode(5, 0.5f64.to_bits()).is_err());
        assert!(MetricTag::decode(5, f64::NAN.to_bits()).is_err());
        assert!(MetricTag::decode(5, f64::INFINITY.to_bits()).is_err());
    }

    #[test]
    fn align_up_is_canonical() {
        assert_eq!(align_up(0), Some(0));
        assert_eq!(align_up(1), Some(64));
        assert_eq!(align_up(64), Some(64));
        assert_eq!(align_up(65), Some(128));
        assert_eq!(align_up(u64::MAX), None);
    }
}
