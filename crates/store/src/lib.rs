//! Versioned on-disk container for distance-permutation indexes.
//!
//! `dp-store` persists a [`dp_index::FlatDistPermIndex`] (including its
//! [`dp_datasets::VectorSet`]) as a single binary file, so an index can
//! be built once (`distperm build`) and served many times
//! (`distperm search --load` / `distperm serve --load`) without paying
//! the k·n distance computations of a rebuild.  Loading reproduces the
//! in-memory structures **field for field** — the transposed site
//! matrix is stored in its in-memory layout and loaded without
//! re-transposition, and the permutation rows (decoded from the index's
//! key column on write) are checked and packed back into it on load —
//! so a loaded index answers every query bit-identically to the freshly
//! built original.
//!
//! # Format specification (version 1)
//!
//! All multi-byte integers are **little-endian**; floats are stored as
//! their IEEE-754 bit patterns (`f64::to_bits`, little-endian).  A file
//! is laid out as `header → TOC → sections`, with every section payload
//! starting on a 64-byte boundary:
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------
//!      0     8  magic  "DPSTORE\0"
//!      8     4  format version            (u32, = 1)
//!     12     4  endianness tag            (u32, = 0x1A2B3C4D)
//!     16     4  section count             (u32, = 4 in version 1)
//!     20     4  reserved                  (u32, = 0)
//!     24     8  TOC offset                (u64, = 64)
//!     32     8  total file length         (u64)
//!     40     8  TOC checksum              (u64, FNV-1a 64 of the TOC)
//!     48     8  reserved                  (u64, = 0)
//!     56     8  header checksum           (u64, FNV-1a 64 of bytes 0..56)
//! ```
//!
//! The TOC is an array of `section count` 32-byte entries starting at
//! byte 64:
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------
//!     +0     4  section id                (u32)
//!     +4     4  reserved                  (u32, = 0)
//!     +8     8  payload offset            (u64, 64-byte aligned)
//!    +16     8  payload length            (u64, bytes)
//!    +24     8  payload checksum          (u64, FNV-1a 64)
//! ```
//!
//! Version 1 has exactly four sections, required to appear in id order:
//!
//! | id | name      | payload                                          |
//! |----|-----------|--------------------------------------------------|
//! | 1  | `META`    | geometry, metric tag, site ids (below)           |
//! | 2  | `VECTORS` | the row-major `VectorSet` buffer, n·d f64        |
//! | 3  | `SITES_T` | the coordinate-major `TransposedSites` buffer, k·d f64 |
//! | 4  | `PERMS`   | permutation items, one length-k u8 row per point |
//!
//! Ids 5 (packed permutation keys) and 6 (an mmap page index) are
//! reserved for future versions.  `META` is `40 + 8k` bytes:
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------
//!      0     8  n    — database size      (u64)
//!      8     8  d    — point dimension    (u64)
//!     16     8  k    — number of sites    (u64, ≤ 32)
//!     24     4  metric code               (u32: 1=L1 2=L2 3=L2² 4=L∞ 5=Lp)
//!     28     4  reserved                  (u32, = 0)
//!     32     8  metric parameter          (u64, f64 bits; 0 unless Lp)
//!     40    8k  site ids                  (k × u64, distinct, < n)
//! ```
//!
//! ## Canonical layout
//!
//! The writer's placement is the *only* accepted one: the TOC directly
//! after the header, each payload at the lowest 64-byte-aligned offset
//! past the previous one (the first at offset 192), zero bytes in the
//! alignment gaps, and the file ending exactly at the last payload
//! byte.  Canonical placement means every byte of a valid file is
//! covered by a checksummed region or by verified-zero padding — which
//! is what lets `tests/store_robustness.rs` assert that **any** flipped
//! byte at **any** offset yields a typed [`StoreError`].  The checksum
//! is FNV-1a 64 ([`fnv1a64`]), chosen because every single-byte
//! substitution provably changes it (see its docs).
//!
//! ## Reader totality
//!
//! [`read_store`] validates in a fixed order — file length → magic →
//! version → endianness → header checksum → reserved fields → TOC
//! placement → recorded length → TOC checksum → entry layout → padding
//! → section checksums → META geometry → payload content (NaN-free
//! vectors, valid permutation rows, `SITES_T` bitwise-consistent with
//! the site rows of `VECTORS`) — and never panics on hostile bytes.
//! dplint's panic-boundary pass polices the module lexically; the
//! robustness suite pins it dynamically under `--release`.

#![forbid(unsafe_code)]

mod error;
pub mod format;
pub mod reader;
pub mod writer;

pub use error::StoreError;
pub use format::{
    fnv1a64, MetricTag, SectionId, StoreMetric, ENDIAN_TAG, FORMAT_VERSION, HEADER_LEN, MAGIC,
    SECTION_ALIGN, TOC_ENTRY_LEN,
};
pub use reader::{load_store, read_store, StoredIndex};
pub use writer::{save_store, store_to_bytes, write_store};
