//! # dp-permutation — distance-permutation machinery
//!
//! Implements the object at the centre of *Counting distance permutations*
//! (Skala, SISAP'08 / JDA 2009): given k fixed **sites** x₁…x_k in a metric
//! space, the **distance permutation** Π_y of a point y is the permutation
//! of site indices sorted by increasing distance from y, ties broken by
//! smaller site index (the paper's Definition, §1).
//!
//! ## One counting engine: sorted runs
//!
//! Counting distinct permutations is a sort and a run scan, at every k
//! and for every point type.  Each permutation becomes one **run key**
//! ([`shard::RunKey`]): a packed machine word holding the permutation in
//! 5-bit fields ([`key::PackedKey`], sealed over `u64` for
//! k ≤ [`PACKED_MAX_K`] = 12 and `u128` for k ≤ [`WIDE_MAX_K`] = 25), or
//! the [`Permutation`] value itself for every longer k.  Every stage is
//! generic over the key and monomorphized once per workload by
//! [`for_packed_k!`], so the per-row loops carry no width branches:
//!
//! 1. one 32-row strip tile computes, ranks and packs every row
//!    ([`compute::packed_keys_flat`]): the strip is transposed
//!    coordinate-major, its site-major distance tile comes from
//!    [`dp_metric::BatchDistance::column_distances`] and is checked for
//!    NaN while it sits in L1, and one pairwise-halved compare schedule
//!    runs lane-wise across the 32 rows — the width at which the lane
//!    loop vectorizes instead of being unrolled into shuffles — folding
//!    each site's finished rank straight into `lo`/`hi` key words with
//!    no rank-array round-trip; tails of `n mod 32` rows run the same
//!    path on a padded strip.  Above k = 25 the strip's rank rows
//!    become [`Permutation`] keys, and the per-point path
//!    ([`counter::collect_counter`], any metric over any point type)
//!    packs each computed permutation with [`pack_perm`];
//! 2. [`shard::PackedPermutationCounter`] buffers at most `shard_rows`
//!    keys ([`shard::DEFAULT_SHARD_ROWS`] = 131,072 by default) — never
//!    all n;
//! 3. each full shard is sorted: [`radix`] sorts packed keys in at most
//!    `⌈5k/12⌉` LSD 12-bit-digit passes (5 for `u64` at k = 12, 11 for
//!    `u128` at k = 25), with a per-word constant-digit skip so the high
//!    word of a barely-wide workload costs nothing; [`Permutation`] keys
//!    take a comparison sort;
//! 4. [`counter::count_sorted_runs`] collapses the sorted shard into a
//!    run of `(key, count)` entries, and the runs merge on a tiered
//!    stack (a run merges into the one below it while that one is at
//!    most twice its size) into a [`counter::PackedCountSummary`] — one
//!    `(key, count)` pair per *distinct* permutation, in lexicographic
//!    order at every key type;
//! 5. the summary is also the codebook: [`PackedCountSummary::id_of`]
//!    finds a permutation's lexicographic id by binary search over the
//!    sorted distinct keys, and [`PackedCountSummary::permutation`]
//!    decodes an id — no hash table anywhere.
//!
//! The shard size bounds the working set, never the answer: merging
//! sorted multiset runs is associative, so the finalized summary — and
//! everything downstream of it, including the float Huffman/entropy
//! sums — is the same at every shard size, thread count and key type.
//!
//! Each threaded scan has **one entry point** taking a `threads` count:
//! [`counter::collect_counter`] (per point) and
//! [`compute::collect_sharded_flat_parallel`] (flat rows, plus
//! `shard_rows`; [`compute::collect_packed_flat_parallel`] is it at the
//! default shard size).  Both split their input by
//! [`dp_metric::par::worker_chunks`] — at most one worker per 1024
//! items, one inline chunk at one worker — so results never depend on
//! `threads`.  The flat
//! index build splits its rows by the same rule and keys each point by
//! its rank row ([`compute::rank_rows_flat`]).
//!
//! ## Everything else
//!
//! * [`Permutation`] — a compact, copyable permutation of up to
//!   [`MAX_K`] = 32 elements (the paper's experiments use k ≤ 12);
//! * [`compute::distance_permutation`] and the allocation-free
//!   [`compute::DistPermComputer`] for per-point scans; the flat strip
//!   scans above are bit-identical to that per-point path;
//! * [`lehmer`] — factorial-base ranking/unranking (k ≤ 33 fits in `u128`);
//! * [`permdist`] — Kendall tau, Spearman footrule and Spearman rho
//!   permutation distances (used by the `distperm`/iAESA index types for
//!   candidate ordering);
//! * [`store`] — random-access physical layouts: [`store::RawPermStore`]
//!   (k·⌈log₂ k⌉ bits/element) and [`store::PackedPermStore`], the
//!   paper's storage claim: once only N distinct permutations occur, a
//!   codebook of them plus ⌈log₂ N⌉ bits per element suffice;
//! * [`huffman`] — entropy coding of permutation streams, implementing
//!   §4's "more sophisticated structure may be possible" remark;
//! * [`prefix`] — truncated permutations ([`prefix::PrefixPermutation`])
//!   and the induced top-ℓ footrule, the practical CFN index form;
//! * [`bits`] — the LSB-first bit I/O under all the packed layouts, and
//!   [`bits::element_bits`], the ⌈log₂ n⌉ field width.

#![forbid(unsafe_code)]

pub mod bits;
pub mod compute;
pub mod counter;
pub mod huffman;
pub mod key;
pub mod lehmer;
pub mod perm;
pub mod permdist;
pub mod prefix;
pub mod radix;
pub mod shard;
pub mod store;

pub use compute::{
    collect_packed_flat_parallel, collect_sharded_flat_parallel, distance_permutation,
    packed_keys_flat, rank_rows_flat, DistPermComputer, FlatKey, PACKED_MAX_K, WIDE_MAX_K,
};
pub use counter::{count_sorted_runs, pack_perm, PackedCountSummary};
pub use huffman::{HuffmanCode, HuffmanPermStore};
pub use key::PackedKey;
pub use perm::{Permutation, PermutationError, MAX_K};
pub use prefix::{prefix_footrule, PrefixPermutation};
pub use radix::RadixSorter;
pub use shard::{PackedPermutationCounter, RunKey, DEFAULT_SHARD_ROWS};
pub use store::{PackedPermStore, RawPermStore};
