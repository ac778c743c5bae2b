//! The total, typed-error store reader.
//!
//! [`read_store`] validates **every** header, TOC and checksum field
//! before touching a payload byte, in a fixed order (see the crate
//! docs): header presence → magic → version → endianness → header
//! checksum → reserved fields → TOC placement → recorded file length →
//! TOC checksum → per-entry layout (ids, alignment, canonical offsets,
//! coverage) → zero padding → per-section checksums → META geometry →
//! payload content.  Only after all of that does it assemble a
//! [`FlatDistPermIndex`] via `from_parts`, whose inputs are by then
//! fully validated.
//!
//! The reader is **total**: every slice access is bounds-checked
//! (`get`), every offset computation uses checked arithmetic, and every
//! failure is a [`StoreError`] — hostile bytes can never reach a panic.
//! dplint's panic-boundary pass polices this lexically; the release-mode
//! robustness suite (`tests/store_robustness.rs`) proves it dynamically
//! by truncating at every byte prefix and corrupting every byte offset.

use crate::format::{
    fnv1a64, MetricTag, SectionId, ENDIAN_TAG, FORMAT_VERSION, HEADER_LEN, MAGIC, TOC_ENTRY_LEN,
};
use crate::StoreError;
use dp_datasets::VectorSet;
use dp_index::FlatDistPermIndex;
use dp_metric::{L2Squared, LInf, Lp, TransposedSites, L1, L2};
use dp_permutation::{Permutation, MAX_K};
use std::path::Path;

/// A loaded index, tagged by the metric the store recorded.
///
/// The variants carry fully assembled [`FlatDistPermIndex`] values that
/// are field-for-field identical to the freshly built originals, so
/// every query answers bit-identically to an in-process build.
#[derive(Debug, Clone)]
pub enum StoredIndex {
    /// Manhattan metric.
    L1(FlatDistPermIndex<L1>),
    /// Euclidean metric.
    L2(FlatDistPermIndex<L2>),
    /// Squared-Euclidean metric.
    L2Squared(FlatDistPermIndex<L2Squared>),
    /// Chebyshev metric.
    LInf(FlatDistPermIndex<LInf>),
    /// Minkowski metric with recorded exponent.
    Lp(FlatDistPermIndex<Lp>),
}

impl StoredIndex {
    /// The metric tag recorded in the store.
    pub fn metric_tag(&self) -> MetricTag {
        match self {
            StoredIndex::L1(_) => MetricTag::L1,
            StoredIndex::L2(_) => MetricTag::L2,
            StoredIndex::L2Squared(_) => MetricTag::L2Squared,
            StoredIndex::LInf(_) => MetricTag::LInf,
            StoredIndex::Lp(i) => MetricTag::Lp(i.metric().p()),
        }
    }

    /// Database size n.
    pub fn len(&self) -> usize {
        match self {
            StoredIndex::L1(i) => i.len(),
            StoredIndex::L2(i) => i.len(),
            StoredIndex::L2Squared(i) => i.len(),
            StoredIndex::LInf(i) => i.len(),
            StoredIndex::Lp(i) => i.len(),
        }
    }

    /// True iff the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of sites k.
    pub fn k(&self) -> usize {
        match self {
            StoredIndex::L1(i) => i.k(),
            StoredIndex::L2(i) => i.k(),
            StoredIndex::L2Squared(i) => i.k(),
            StoredIndex::LInf(i) => i.k(),
            StoredIndex::Lp(i) => i.k(),
        }
    }

    /// Point dimension d.
    pub fn dim(&self) -> usize {
        match self {
            StoredIndex::L1(i) => i.points().dim(),
            StoredIndex::L2(i) => i.points().dim(),
            StoredIndex::L2Squared(i) => i.points().dim(),
            StoredIndex::LInf(i) => i.points().dim(),
            StoredIndex::Lp(i) => i.points().dim(),
        }
    }

    /// The index-spec name of the loaded structure (`flatperm:k`).
    pub fn spec_name(&self) -> String {
        format!("flatperm:{}", self.k())
    }
}

/// Reads and validates a store file from disk.
pub fn load_store(path: &Path) -> Result<StoredIndex, StoreError> {
    let bytes = std::fs::read(path)?;
    read_store(&bytes)
}

/// Validates a store image and assembles the index it describes.
pub fn read_store(bytes: &[u8]) -> Result<StoredIndex, StoreError> {
    let sections = validate_container(bytes)?;
    let meta = parse_meta(sections.payload(bytes, SectionId::Meta))?;
    let vectors = parse_vectors(sections.payload(bytes, SectionId::Vectors), &meta)?;
    let sites_t = parse_sites_t(sections.payload(bytes, SectionId::SitesT), &meta, &vectors)?;
    let perms = check_perms(sections.payload(bytes, SectionId::Perms), &meta)?;

    let points = VectorSet::from_raw(meta.dim, vectors);
    let sites_t = TransposedSites::from_transposed(meta.k, meta.dim, sites_t);
    let Meta { site_ids, tag, .. } = meta;
    Ok(match tag {
        MetricTag::L1 => {
            StoredIndex::L1(FlatDistPermIndex::from_parts(L1, points, site_ids, sites_t, perms))
        }
        MetricTag::L2 => {
            StoredIndex::L2(FlatDistPermIndex::from_parts(L2, points, site_ids, sites_t, perms))
        }
        MetricTag::L2Squared => StoredIndex::L2Squared(FlatDistPermIndex::from_parts(
            L2Squared, points, site_ids, sites_t, perms,
        )),
        MetricTag::LInf => {
            StoredIndex::LInf(FlatDistPermIndex::from_parts(LInf, points, site_ids, sites_t, perms))
        }
        MetricTag::Lp(p) => StoredIndex::Lp(FlatDistPermIndex::from_parts(
            Lp::new(p),
            points,
            site_ids,
            sites_t,
            perms,
        )),
    })
}

/// Validated section placement: payload ranges for the four sections,
/// in [`SectionId::ALL`] order.
struct Sections {
    ranges: [(usize, usize); 4],
}

impl Sections {
    fn payload<'a>(&self, bytes: &'a [u8], section: SectionId) -> &'a [u8] {
        // Ranges were bounds-checked during container validation; an
        // out-of-range get here is unreachable, and the empty-slice
        // fallback keeps the reader total rather than trusting that.
        let (start, end) = self.ranges[section.code() as usize - 1];
        bytes.get(start..end).unwrap_or(&[])
    }
}

/// Header + TOC + checksum + padding validation (steps before any
/// payload content is interpreted).
fn validate_container(bytes: &[u8]) -> Result<Sections, StoreError> {
    let actual = bytes.len() as u64;

    // Header presence and identity fields, in diagnostic order.
    let header = bytes.get(..HEADER_LEN as usize).ok_or(StoreError::TooShort { actual })?;
    let mut magic = [0u8; 8];
    magic.copy_from_slice(&header[0..8]);
    if magic != MAGIC {
        return Err(StoreError::BadMagic { found: magic });
    }
    let version = u32_at(header, 8).ok_or(StoreError::TooShort { actual })?;
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion { found: version });
    }
    let endian = u32_at(header, 12).ok_or(StoreError::TooShort { actual })?;
    if endian != ENDIAN_TAG {
        return Err(StoreError::BadEndianness { found: endian });
    }

    // The header checksum covers bytes 0..56, i.e. every other header
    // field including the reserved ones; verify it before trusting any
    // of them.
    let stored_header_sum = u64_at(header, 56).ok_or(StoreError::TooShort { actual })?;
    let computed_header_sum = fnv1a64(&header[..56]);
    if stored_header_sum != computed_header_sum {
        return Err(StoreError::HeaderChecksum {
            stored: stored_header_sum,
            computed: computed_header_sum,
        });
    }

    let section_count = u32_at(header, 16).ok_or(StoreError::TooShort { actual })?;
    let reserved_a = u32_at(header, 20).ok_or(StoreError::TooShort { actual })?;
    let toc_offset = u64_at(header, 24).ok_or(StoreError::TooShort { actual })?;
    let stored_len = u64_at(header, 32).ok_or(StoreError::TooShort { actual })?;
    let stored_toc_sum = u64_at(header, 40).ok_or(StoreError::TooShort { actual })?;
    let reserved_b = u64_at(header, 48).ok_or(StoreError::TooShort { actual })?;
    if reserved_a != 0 {
        return Err(StoreError::BadLayout {
            detail: "header reserved field is nonzero",
            value: u64::from(reserved_a),
        });
    }
    if reserved_b != 0 {
        return Err(StoreError::BadLayout {
            detail: "header reserved field is nonzero",
            value: reserved_b,
        });
    }
    if toc_offset != HEADER_LEN {
        return Err(StoreError::BadLayout {
            detail: "TOC does not start directly after the header",
            value: toc_offset,
        });
    }
    if stored_len != actual {
        return Err(StoreError::LengthMismatch { stored: stored_len, actual });
    }
    if section_count as usize != SectionId::ALL.len() {
        return Err(StoreError::BadLayout {
            detail: "a version-1 store holds exactly four sections",
            value: u64::from(section_count),
        });
    }

    // TOC bytes and their checksum.
    let toc_len = SectionId::ALL.len() * TOC_ENTRY_LEN as usize;
    let toc_end = HEADER_LEN as usize + toc_len;
    let toc = bytes
        .get(HEADER_LEN as usize..toc_end)
        .ok_or(StoreError::BadLayout { detail: "TOC extends past end of file", value: actual })?;
    let computed_toc_sum = fnv1a64(toc);
    if stored_toc_sum != computed_toc_sum {
        return Err(StoreError::TocChecksum { stored: stored_toc_sum, computed: computed_toc_sum });
    }

    // Entries: required ids in order, canonical aligned offsets, exact
    // file coverage.
    let mut ranges = [(0usize, 0usize); 4];
    let mut cursor = toc_end as u64;
    for (i, section) in SectionId::ALL.iter().enumerate() {
        let base = i * TOC_ENTRY_LEN as usize;
        let id = u32_at(toc, base).ok_or(toc_short(actual))?;
        let reserved = u32_at(toc, base + 4).ok_or(toc_short(actual))?;
        let offset = u64_at(toc, base + 8).ok_or(toc_short(actual))?;
        let len = u64_at(toc, base + 16).ok_or(toc_short(actual))?;
        if id != section.code() {
            return Err(StoreError::BadLayout {
                detail: "TOC section ids must be 1,2,3,4 in order",
                value: u64::from(id),
            });
        }
        if reserved != 0 {
            return Err(StoreError::BadLayout {
                detail: "TOC reserved field is nonzero",
                value: u64::from(reserved),
            });
        }
        let expected_offset = crate::format::align_up(cursor)
            .ok_or(StoreError::BadLayout { detail: "section offset overflows", value: cursor })?;
        if offset != expected_offset {
            return Err(StoreError::BadLayout {
                detail: "section offset is not the canonical aligned placement",
                value: offset,
            });
        }
        let end = offset
            .checked_add(len)
            .ok_or(StoreError::BadLayout { detail: "section end overflows", value: len })?;
        if end > actual {
            return Err(StoreError::BadLayout {
                detail: "section extends past end of file",
                value: end,
            });
        }
        // In-range u64 → usize conversions: end ≤ actual = bytes.len(),
        // which fits usize by construction, so the fallback is
        // unreachable and merely keeps the conversion total.
        let start_us = usize::try_from(offset).unwrap_or(usize::MAX);
        let end_us = usize::try_from(end).unwrap_or(usize::MAX);
        ranges[i] = (start_us, end_us);

        // Zero padding between the previous section (or TOC) and this one.
        let pad = bytes.get(cursor as usize..start_us).unwrap_or(&[]);
        for (j, &b) in pad.iter().enumerate() {
            if b != 0 {
                return Err(StoreError::NonZeroPadding { offset: cursor + j as u64 });
            }
        }
        cursor = end;
    }
    if cursor != actual {
        return Err(StoreError::BadLayout {
            detail: "sections do not cover the file exactly",
            value: cursor,
        });
    }

    // Per-section payload checksums, still content-agnostic.
    let sections = Sections { ranges };
    for (i, section) in SectionId::ALL.iter().enumerate() {
        let base = i * TOC_ENTRY_LEN as usize;
        let stored = u64_at(toc, base + 24).ok_or(toc_short(actual))?;
        let computed = fnv1a64(sections.payload(bytes, *section));
        if stored != computed {
            return Err(StoreError::SectionChecksum { section: *section, stored, computed });
        }
    }
    Ok(sections)
}

/// Decoded META section.
struct Meta {
    n: usize,
    dim: usize,
    k: usize,
    tag: MetricTag,
    site_ids: Vec<usize>,
}

fn parse_meta(meta: &[u8]) -> Result<Meta, StoreError> {
    let found = meta.len() as u64;
    if meta.len() < 40 {
        return Err(StoreError::BadSectionLength { section: SectionId::Meta, expected: 40, found });
    }
    let n64 = u64_at(meta, 0).ok_or(meta_short(found))?;
    let dim64 = u64_at(meta, 8).ok_or(meta_short(found))?;
    let k64 = u64_at(meta, 16).ok_or(meta_short(found))?;
    let n = usize::try_from(n64).map_err(|_| StoreError::BadMeta { field: "n", value: n64 })?;
    let dim =
        usize::try_from(dim64).map_err(|_| StoreError::BadMeta { field: "dim", value: dim64 })?;
    let k = usize::try_from(k64).map_err(|_| StoreError::BadMeta { field: "k", value: k64 })?;
    if k > MAX_K {
        return Err(StoreError::BadMeta { field: "k", value: k64 });
    }
    if n > 0 && dim == 0 {
        return Err(StoreError::BadMeta { field: "dim", value: 0 });
    }
    let expected = 40u64 + 8 * k64;
    if found != expected {
        return Err(StoreError::BadSectionLength { section: SectionId::Meta, expected, found });
    }
    let code = u32_at(meta, 24).ok_or(meta_short(found))?;
    let reserved = u32_at(meta, 28).ok_or(meta_short(found))?;
    if reserved != 0 {
        return Err(StoreError::BadMeta { field: "meta-reserved", value: u64::from(reserved) });
    }
    let param = u64_at(meta, 32).ok_or(meta_short(found))?;
    let tag = MetricTag::decode(code, param)?;
    let mut site_ids = Vec::with_capacity(k);
    for j in 0..k {
        let id64 = u64_at(meta, 40 + 8 * j).ok_or(meta_short(found))?;
        if id64 >= n64 {
            return Err(StoreError::BadMeta { field: "site-id", value: id64 });
        }
        // id64 < n64 and n fits usize, so this cannot truncate.
        let id = usize::try_from(id64).unwrap_or(usize::MAX);
        if site_ids.contains(&id) {
            return Err(StoreError::BadMeta { field: "site-id-duplicate", value: id64 });
        }
        site_ids.push(id);
    }
    Ok(Meta { n, dim, k, tag, site_ids })
}

fn parse_vectors(payload: &[u8], meta: &Meta) -> Result<Vec<f64>, StoreError> {
    let values = parse_f64s(payload, meta.n, meta.dim, SectionId::Vectors)?;
    for (i, v) in values.iter().enumerate() {
        if v.is_nan() {
            return Err(StoreError::NaNCoordinate { index: i });
        }
    }
    Ok(values)
}

fn parse_sites_t(payload: &[u8], meta: &Meta, vectors: &[f64]) -> Result<Vec<f64>, StoreError> {
    let values = parse_f64s(payload, meta.k, meta.dim, SectionId::SitesT)?;
    // The stored transpose must be the bitwise image of the site rows in
    // VECTORS: `values[c*k + j] == vectors[site_ids[j]*dim + c]`.  The
    // loaded buffer is still used directly (no re-transposition); this
    // is a consistency *check*, and since VECTORS is NaN-free, bitwise
    // equality makes SITES_T NaN-free too.
    for (j, &site) in meta.site_ids.iter().enumerate() {
        for c in 0..meta.dim {
            let stored = values.get(c * meta.k + j).map(|v| v.to_bits());
            let expected = vectors.get(site * meta.dim + c).map(|v| v.to_bits());
            if stored != expected || stored.is_none() {
                return Err(StoreError::InconsistentSites { index: c * meta.k + j });
            }
        }
    }
    Ok(values)
}

fn check_perms<'a>(payload: &'a [u8], meta: &Meta) -> Result<&'a [u8], StoreError> {
    let expected = (meta.n as u64).wrapping_mul(meta.k as u64);
    if payload.len() as u64 != expected {
        return Err(StoreError::BadSectionLength {
            section: SectionId::Perms,
            expected,
            found: payload.len() as u64,
        });
    }
    // `chunks_exact(0)` is not a thing; k = 0 rows are all empty, and
    // the empty row is a permutation.
    for (row, chunk) in payload.chunks_exact(meta.k.max(1)).enumerate() {
        Permutation::from_slice(chunk).map_err(|_| StoreError::BadPermutation { row })?;
    }
    Ok(payload)
}

/// Decodes a `rows × dim` f64 payload, first checking the byte length
/// against the META geometry with overflow-checked arithmetic.
fn parse_f64s(
    payload: &[u8],
    rows: usize,
    dim: usize,
    section: SectionId,
) -> Result<Vec<f64>, StoreError> {
    let count = (rows as u64).checked_mul(dim as u64).and_then(|c| c.checked_mul(8)).ok_or(
        StoreError::BadSectionLength { section, expected: u64::MAX, found: payload.len() as u64 },
    )?;
    if payload.len() as u64 != count {
        return Err(StoreError::BadSectionLength {
            section,
            expected: count,
            found: payload.len() as u64,
        });
    }
    let mut out = Vec::with_capacity(payload.len() / 8);
    for chunk in payload.chunks_exact(8) {
        let mut a = [0u8; 8];
        a.copy_from_slice(chunk);
        out.push(f64::from_bits(u64::from_le_bytes(a)));
    }
    Ok(out)
}

fn toc_short(actual: u64) -> StoreError {
    StoreError::BadLayout { detail: "TOC entry truncated", value: actual }
}

fn meta_short(found: u64) -> StoreError {
    StoreError::BadSectionLength { section: SectionId::Meta, expected: 40, found }
}

fn u32_at(bytes: &[u8], off: usize) -> Option<u32> {
    let end = off.checked_add(4)?;
    let slice = bytes.get(off..end)?;
    let mut a = [0u8; 4];
    a.copy_from_slice(slice);
    Some(u32::from_le_bytes(a))
}

fn u64_at(bytes: &[u8], off: usize) -> Option<u64> {
    let end = off.checked_add(8)?;
    let slice = bytes.get(off..end)?;
    let mut a = [0u8; 8];
    a.copy_from_slice(slice);
    Some(u64::from_le_bytes(a))
}
