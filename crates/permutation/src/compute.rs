//! Computing distance permutations (the paper's Π_y).
//!
//! `Π_y` is the unique permutation sorting site indices by increasing
//! distance from `y`, ties broken by increasing site index.  Sorting on the
//! pair `(distance, index)` realises exactly that rule, and because
//! [`dp_metric::Distance`] is totally ordered the result is deterministic.

use crate::key::PackedKey;
use crate::perm::{Permutation, MAX_K};
use crate::shard::{PackedPermutationCounter, RunKey};
use dp_metric::par::{chunk_len, fork_join};
use dp_metric::{BatchDistance, Metric, TransposedSites};

/// Computes the distance permutation of `query` with respect to `sites`.
///
/// Performs exactly `sites.len()` metric evaluations.  Convenience wrapper
/// around [`DistPermComputer`] for one-off calls; bulk scans should reuse a
/// computer to avoid per-call allocation.
///
/// # Panics
/// Panics if `sites.len() > MAX_K`.
pub fn distance_permutation<P, M: Metric<P>>(metric: &M, sites: &[P], query: &P) -> Permutation {
    DistPermComputer::new(sites.len()).compute(metric, sites, query)
}

/// Reusable scratch state for computing distance permutations without
/// per-call allocation.
///
/// The scratch is a `(distance, site index)` vector sorted per query; the
/// index in the sort key implements the paper's tie-break.
#[derive(Debug, Clone)]
pub struct DistPermComputer<D> {
    scratch: Vec<(D, u8)>,
    k: usize,
}

impl<D: dp_metric::Distance> DistPermComputer<D> {
    /// Creates a computer for `k` sites.
    ///
    /// # Panics
    /// Panics if `k > MAX_K`.
    pub fn new(k: usize) -> Self {
        assert!(k <= MAX_K, "k = {k} exceeds MAX_K = {MAX_K}");
        Self { scratch: Vec::with_capacity(k), k }
    }

    /// Number of sites this computer was sized for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Computes Π_query for `sites` (must have length `k`).
    pub fn compute<P, M: Metric<P, Dist = D>>(
        &mut self,
        metric: &M,
        sites: &[P],
        query: &P,
    ) -> Permutation {
        assert_eq!(sites.len(), self.k, "site count changed under computer");
        self.scratch.clear();
        for (i, site) in sites.iter().enumerate() {
            self.scratch.push((metric.distance(site, query), i as u8));
        }
        // (distance, site index) — the index component is the tie-break.
        self.scratch.sort_unstable();
        let mut items = [0u8; MAX_K];
        for (slot, &(_, i)) in items.iter_mut().zip(self.scratch.iter()) {
            *slot = i;
        }
        Permutation::from_sorted_indices(&items[..self.k])
    }

    /// Computes Π_query and also returns the sorted `(distance, site)`
    /// pairs — used by index structures that need the distances anyway.
    pub fn compute_with_distances<P, M: Metric<P, Dist = D>>(
        &mut self,
        metric: &M,
        sites: &[P],
        query: &P,
    ) -> (Permutation, &[(D, u8)]) {
        let perm = self.compute(metric, sites, query);
        (perm, &self.scratch)
    }
}

/// Computes the distance permutation of every database element.
///
/// This is the core of the paper's `distperm` index build: `k·n` metric
/// evaluations producing one permutation per element.
pub fn database_permutations<P, M: Metric<P>>(
    metric: &M,
    sites: &[P],
    database: &[P],
) -> Vec<Permutation> {
    let mut computer = DistPermComputer::new(sites.len());
    database.iter().map(|y| computer.compute(metric, sites, y)).collect()
}

/// Rows scanned per batched-kernel call: large enough to amortise loop
/// overhead, small enough that the `block × k` distance buffer stays in
/// L1 while the k site vectors stay resident throughout.  A whole
/// multiple of the kernel's strip width, so full blocks run entirely on
/// the register-tiled strip path and only the final partial block ever
/// reaches the row-at-a-time remainder.
const FLAT_BLOCK_ROWS: usize = 64 * dp_metric::STRIP_POINTS;
const _: () = assert!(FLAT_BLOCK_ROWS.is_multiple_of(dp_metric::STRIP_POINTS));

/// The contiguous row ranges `threads` workers scan: the whole database
/// as one range, scanned inline, at one thread or below 1024 rows.
fn worker_rows<'a>(sites: &TransposedSites, db_rows: &'a [f64], threads: usize) -> Vec<&'a [f64]> {
    let dim = sites.dim().max(1);
    assert_eq!(db_rows.len() % dim, 0, "database rows not a multiple of dim");
    let n = db_rows.len() / dim;
    if threads <= 1 || n < 1024 {
        return vec![db_rows];
    }
    db_rows.chunks(chunk_len(n, threads) * dim).collect()
}

/// Computes Π_y for every row of a flat row-major database, split
/// across `threads` scoped workers.
///
/// The batched equivalent of [`database_permutations`]: distances come
/// from [`BatchDistance::batch_distances`] (site-transposed, strip-mined
/// four points per pass with register-tiled accumulators) in blocks of
/// 256 rows, and each row's ranking runs on a stack
/// scratch — no per-row allocation.
/// Results are **identical** (bit-for-bit distances, same tie-break) to
/// the per-point path, at any thread count.
///
/// # Panics
/// Panics if `sites.k() > MAX_K`, if `db_rows` is not a multiple of
/// `sites.dim()`, or if any distance is NaN.
pub fn database_permutations_flat_parallel<M: BatchDistance + Sync>(
    metric: &M,
    sites: &TransposedSites,
    db_rows: &[f64],
    threads: usize,
) -> Vec<Permutation> {
    let dim = sites.dim().max(1);
    let parts = worker_rows(sites, db_rows, threads);
    let mut perms = vec![Permutation::identity(0); db_rows.len() / dim];
    let mut free = perms.as_mut_slice();
    let work: Vec<_> = parts
        .into_iter()
        .map(|rows| {
            let (slots, rest) = std::mem::take(&mut free).split_at_mut(rows.len() / dim);
            free = rest;
            (rows, slots)
        })
        .collect();
    fork_join(work, |(rows, slots)| {
        let mut slot = slots.iter_mut();
        flat_scan(metric, sites, rows, |p| *slot.next().expect("chunk sizes agree") = p);
    });
    perms
}

/// Largest k whose permutations pack into a u64 key (5 bits per
/// element) — covers every configuration the paper's experiments use.
pub const PACKED_MAX_K: usize = <u64 as PackedKey>::MAX_K;

/// Largest k the packed pipeline covers at all: the u128 key width
/// (5 bits per element, 25 fields).  `k > WIDE_MAX_K` counts
/// [`Permutation`] keys instead, through the same run counter.
pub const WIDE_MAX_K: usize = <u128 as PackedKey>::MAX_K;

/// Branchless distance-permutation ranking.
///
/// `ranks[i]` receives the position of site `i` in Π (the number of
/// sites strictly closer, ties to the smaller index — `d_i <= d_j` with
/// `i < j` resolves ties exactly like sorting `(distance, index)` pairs).
/// k²/2 branch-free comparisons beat a comparison sort on this workload:
/// sorting 12 random keys mispredicts a branch every few comparisons,
/// which costs more than the extra arithmetic.
///
/// Distances must be non-NaN (checked by the callers); on that domain
/// plain `<=` coincides with the `F64Dist` total order.
#[inline]
fn rank_row(row_dists: &[f64], ranks: &mut [u8; MAX_K]) {
    let k = row_dists.len();
    for i in 0..k {
        let di = row_dists[i];
        // Site i's rank = closer-or-tied earlier sites + strictly closer
        // later ones: two pure reductions with no cross-iteration memory
        // traffic, which the vectorizer turns into masked lane sums.
        let mut r = 0u8;
        for &dj in &row_dists[..i] {
            r += u8::from(dj <= di);
        }
        for &dj in &row_dists[i + 1..k] {
            r += u8::from(dj < di);
        }
        ranks[i] = r;
    }
}

/// Rows ranked per tile by [`rank_rows`]: the comparison loops run
/// lane-wise across this many rows at once, so every `(i, j)` site pair
/// costs one vector compare instead of `RANK_LANES` scalar ones.
const RANK_LANES: usize = 4;

/// Transposes a `RANK_LANES × k` row-major tile site-major, so each
/// `(i, j)` site comparison is one `f64×LANES` vector compare.
#[inline]
fn transpose_tile(tile: &[f64], k: usize, cols: &mut [[f64; RANK_LANES]; MAX_K]) {
    debug_assert_eq!(tile.len(), RANK_LANES * k);
    for (lane, row) in tile.chunks_exact(k).enumerate() {
        for (col, &d) in cols[..k].iter_mut().zip(row.iter()) {
            col[lane] = d;
        }
    }
}

/// Dispatches a tile kernel on the runtime `k` to its `const`-generic
/// instantiation.  The call site defines a one-argument `arm!` macro
/// mapping a literal `k` to the monomorphic call.
///
/// The constant bound is what makes the pairwise schedule pay off: with
/// `k` known at compile time every per-site loop fully unrolls, and the
/// whole `k × RANK_LANES` i64 accumulator tile is register-allocated
/// (an AVX-512 build has 32 vector registers — enough even at the
/// `u128` widths), so the halved compare count is not bought back by
/// loads and stores of in-memory accumulator rows.
macro_rules! dispatch_tile_k {
    ($k:expr, $arm:ident) => {
        match $k {
            1 => $arm!(1),
            2 => $arm!(2),
            3 => $arm!(3),
            4 => $arm!(4),
            5 => $arm!(5),
            6 => $arm!(6),
            7 => $arm!(7),
            8 => $arm!(8),
            9 => $arm!(9),
            10 => $arm!(10),
            11 => $arm!(11),
            12 => $arm!(12),
            13 => $arm!(13),
            14 => $arm!(14),
            15 => $arm!(15),
            16 => $arm!(16),
            17 => $arm!(17),
            18 => $arm!(18),
            19 => $arm!(19),
            20 => $arm!(20),
            21 => $arm!(21),
            22 => $arm!(22),
            23 => $arm!(23),
            24 => $arm!(24),
            25 => $arm!(25),
            26 => $arm!(26),
            27 => $arm!(27),
            28 => $arm!(28),
            29 => $arm!(29),
            30 => $arm!(30),
            31 => $arm!(31),
            32 => $arm!(32),
            _ => unreachable!("tile kernels require 1 <= k <= MAX_K"),
        }
    };
}

/// Pairwise-halved rank accumulation over a transposed tile: fills
/// `acc[i][lane]` with site `i`'s rank in lane `lane`'s row.
///
/// Each unordered site pair `(i, j)`, `i < j`, is compared **once**:
/// the mask `c = (d_i <= d_j)` settles both sides — site `j` gains `c`
/// (a closer-or-tied earlier site), and site `i` gains `1 - c`, because
/// on the non-NaN domain the callers guarantee `!(d_i <= d_j)` is
/// exactly `d_j < d_i`, the strictly-closer-later rule.  Seeding site
/// `i`'s accumulator with its later-pair count `KC-1-i` and
/// *subtracting* `c` folds the complement into the same mask, so the
/// output is bit-for-bit [`rank_row`]'s at k(k-1)/2 vector compares per
/// tile instead of k(k-1).  The masks accumulate as i64 lanes — a
/// `vcmppd`/`vpsubq` pair on AVX2, no scalar booleans anywhere in the
/// hot loop — and the `pend` tile of not-yet-final rows stays in
/// registers because `KC` is a compile-time constant (see
/// [`dispatch_tile_k`]).
///
/// After outer step `i`, row `i` is **final**: its pairs with smaller
/// indices contributed in earlier steps, the rest in step `i` — so the
/// row streams straight out to `acc[i]` and the fused packer can fold
/// each site into the key lanes without a second pass.
#[inline]
fn pairwise_rank_lanes_k<const KC: usize>(
    cols: &[[f64; RANK_LANES]; MAX_K],
    acc: &mut [[i64; RANK_LANES]; MAX_K],
) {
    let mut pend = [[0i64; RANK_LANES]; KC];
    for i in 0..KC {
        let ci = cols[i];
        let mut ri = pend[i];
        for r in &mut ri {
            *r += (KC - 1 - i) as i64;
        }
        for j in i + 1..KC {
            for lane in 0..RANK_LANES {
                let c = i64::from(ci[lane] <= cols[j][lane]);
                pend[j][lane] += c;
                ri[lane] -= c;
            }
        }
        acc[i] = ri;
    }
}

/// Runtime-`k` front end for [`pairwise_rank_lanes_k`].
#[inline]
fn pairwise_rank_lanes(
    cols: &[[f64; RANK_LANES]; MAX_K],
    k: usize,
    acc: &mut [[i64; RANK_LANES]; MAX_K],
) {
    macro_rules! arm {
        ($kc:literal) => {
            pairwise_rank_lanes_k::<$kc>(cols, acc)
        };
    }
    dispatch_tile_k!(k, arm);
}

/// Ranks a tile of [`RANK_LANES`] rows at once — the
/// [`pairwise_rank_lanes`] schedule over a freshly transposed tile.
/// Tie-break and output are exactly [`rank_row`]'s, row by row.
#[inline]
fn rank_rows_tile(tile: &[f64], k: usize, rank_lanes: &mut [[i64; RANK_LANES]; MAX_K]) {
    let mut cols = [[0.0f64; RANK_LANES]; MAX_K];
    transpose_tile(tile, k, &mut cols);
    pairwise_rank_lanes(&cols, k, rank_lanes);
}

/// Ranks every `k`-wide row of a distance block, emitting one rank
/// vector per row in order — full tiles through [`rank_rows_tile`], the
/// remainder through [`rank_row`] (identical results; the tile is just
/// the vectorized schedule).
#[inline]
fn rank_rows(block_dists: &[f64], k: usize, mut emit: impl FnMut(&[u8; MAX_K])) {
    debug_assert!(k > 0);
    let ranks = &mut [0u8; MAX_K];
    let tiles = block_dists.chunks_exact(RANK_LANES * k);
    let remainder = tiles.remainder();
    let mut rank_lanes = [[0i64; RANK_LANES]; MAX_K];
    for tile in tiles {
        rank_rows_tile(tile, k, &mut rank_lanes);
        for lane in 0..RANK_LANES {
            for (r, lanes) in ranks[..k].iter_mut().zip(rank_lanes.iter()) {
                *r = lanes[lane] as u8;
            }
            emit(ranks);
        }
    }
    for row_dists in remainder.chunks_exact(k) {
        rank_row(row_dists, ranks);
        emit(ranks);
    }
}

/// Shared block driver for the flat kernels: computes batched distances
/// and hands each row's rank vector (`ranks[site] = position`) to `emit`.
fn flat_scan_ranks<M: BatchDistance>(
    metric: &M,
    sites: &TransposedSites,
    db_rows: &[f64],
    mut emit: impl FnMut(&[u8; MAX_K], usize),
) {
    let k = sites.k();
    assert!(k <= MAX_K, "k = {k} exceeds MAX_K = {MAX_K}");
    let dim = sites.dim();
    // Zero-dim flat storage cannot represent a non-empty database (n
    // rows of width 0 are 0 floats) — row count would be unrecoverable.
    assert!(
        dim > 0 || db_rows.is_empty(),
        "sites declare dim 0 but the database has coordinates; build the \
         TransposedSites with the database's dimension"
    );
    let dim = dim.max(1);
    assert_eq!(db_rows.len() % dim, 0, "database rows not a multiple of dim");
    if k == 0 {
        let ranks = &[0u8; MAX_K];
        for _ in 0..db_rows.len() / dim {
            emit(ranks, 0);
        }
        return;
    }
    let mut dists = vec![0.0f64; FLAT_BLOCK_ROWS * k];
    for block in db_rows.chunks(FLAT_BLOCK_ROWS * dim) {
        let rows_in_block = block.len() / dim;
        let block_dists = &mut dists[..rows_in_block * k];
        metric.batch_distances(block, sites, block_dists);
        let any_nan = block_dists.iter().fold(false, |acc, &d| acc | d.is_nan());
        assert!(!any_nan, "distance must not be NaN");
        rank_rows(block_dists, k, |ranks| emit(ranks, k));
    }
}

/// Builds the permutation value from a rank vector.
#[inline]
fn permutation_from_ranks(ranks: &[u8; MAX_K], k: usize) -> Permutation {
    let mut items = [0u8; MAX_K];
    for (i, &r) in ranks[..k].iter().enumerate() {
        items[r as usize] = i as u8;
    }
    Permutation::from_sorted_indices(&items[..k])
}

/// Packs a rank vector into the 5-bits-per-element lexicographic key
/// (requires `k <= K::MAX_K`): element at position `p` of Π occupies
/// group `k-1-p`, the [`crate::pack_perm`] layout, so ascending key order is
/// the permutations' lexicographic order.  Injective, so distinct
/// keys ⇔ distinct permutations.  The fused tile made this test-only:
/// it is the reference the equivalence tests pack against.
#[cfg(test)]
fn packed_key_from_ranks<K: PackedKey>(ranks: &[u8; MAX_K], k: usize) -> K {
    debug_assert!(k <= K::MAX_K);
    let mut key = K::ZERO;
    for (i, &r) in ranks[..k].iter().enumerate() {
        key |= K::from_elem(i as u8) << K::elem_shift(k - 1 - r as usize);
    }
    key
}

/// Ranks **and packs** a tile of [`RANK_LANES`] rows in one fused pass:
/// `keys[lane]` receives row `lane`'s packed lexicographic key, with no
/// intermediate rank rows between compare and key field.
///
/// Built on [`pairwise_rank_lanes`]'s halved-compare schedule.  At the
/// `u64` width, the moment outer step `i` finalizes site `i`'s rank
/// lanes the site's 5-bit field ORs into the lane keys — rank to key
/// field while both are register-resident.  Wide (`u128`) keys keep
/// the rank accumulator for the whole tile instead: a variable 128-bit
/// shift is several ops on 64-bit hardware, so each lane de-transposes
/// into a position-ordered row and shift-accumulates with a constant
/// one-field shift — the same Σ site·2^(5·(k-1-pos)) value, field by
/// field.
#[inline]
fn rank_pack_cols<K: PackedKey, const KC: usize>(
    cols: &[[f64; RANK_LANES]; MAX_K],
    keys: &mut [K; RANK_LANES],
) {
    if K::BITS > 64 {
        let mut acc = [[0i64; RANK_LANES]; MAX_K];
        pairwise_rank_lanes_k::<KC>(cols, &mut acc);
        for (lane, key) in keys.iter_mut().enumerate() {
            let mut items = [0u8; MAX_K];
            for (i, lanes) in acc[..KC].iter().enumerate() {
                items[lanes[lane] as usize] = i as u8;
            }
            for &site in &items[..KC] {
                *key = (*key << K::elem_shift(1)) | K::from_elem(site);
            }
        }
        return;
    }
    // The u64 arm inlines the pairwise schedule so each finalized site
    // folds into the keys immediately (see pairwise_rank_lanes_k for
    // the rank arithmetic and its bit-identity argument).
    let mut pend = [[0i64; RANK_LANES]; KC];
    for i in 0..KC {
        let ci = cols[i];
        let mut ri = pend[i];
        for r in &mut ri {
            *r += (KC - 1 - i) as i64;
        }
        for j in i + 1..KC {
            for lane in 0..RANK_LANES {
                let c = i64::from(ci[lane] <= cols[j][lane]);
                pend[j][lane] += c;
                ri[lane] -= c;
            }
        }
        for (key, &r) in keys.iter_mut().zip(ri.iter()) {
            *key |= K::from_elem(i as u8) << K::elem_shift(KC - 1 - r as usize);
        }
    }
}

/// Runtime-`k` front end for [`rank_pack_cols`]: transposes the tile
/// and dispatches to the constant-`k` fused rank+pack kernel.
#[inline]
fn rank_pack_tile<K: PackedKey>(tile: &[f64], k: usize, keys: &mut [K; RANK_LANES]) {
    debug_assert!(k > 0 && k <= K::MAX_K);
    let mut cols = [[0.0f64; RANK_LANES]; MAX_K];
    transpose_tile(tile, k, &mut cols);
    *keys = [K::ZERO; RANK_LANES];
    macro_rules! arm {
        ($kc:literal) => {
            rank_pack_cols::<K, $kc>(&cols, keys)
        };
    }
    dispatch_tile_k!(k, arm);
}

/// Ranks every `k`-wide row of a distance block and emits one **packed
/// key** per row, in order — every row, full tile or tail, through the
/// fused [`rank_pack_tile`].
///
/// A tail of `n mod RANK_LANES ≠ 0` rows is padded to a full tile by
/// replicating its last real row: lanes are computed independently, so
/// the real lanes' keys are unchanged and the padding lanes' keys are
/// simply not emitted.  One code path, one set of rank/pack semantics.
#[inline]
fn rank_rows_keys<K: PackedKey>(block_dists: &[f64], k: usize, mut emit: impl FnMut(K)) {
    debug_assert!(k > 0 && k <= K::MAX_K);
    let mut keys = [K::ZERO; RANK_LANES];
    let tiles = block_dists.chunks_exact(RANK_LANES * k);
    let remainder = tiles.remainder();
    for tile in tiles {
        rank_pack_tile(tile, k, &mut keys);
        for &key in &keys {
            emit(key);
        }
    }
    let rem_rows = remainder.len() / k;
    if rem_rows > 0 {
        let mut padded = [0.0f64; RANK_LANES * MAX_K];
        let padded = &mut padded[..RANK_LANES * k];
        padded[..remainder.len()].copy_from_slice(remainder);
        for lane in rem_rows..RANK_LANES {
            padded.copy_within((rem_rows - 1) * k..rem_rows * k, lane * k);
        }
        rank_pack_tile(padded, k, &mut keys);
        for &key in &keys[..rem_rows] {
            emit(key);
        }
    }
}

/// Block driver for the packed-key kernels: computes batched distances
/// and hands each row's fused packed key to `emit` — [`flat_scan_ranks`]
/// with the ranking and packing phases fused per tile.
fn flat_scan_keys<K: PackedKey, M: BatchDistance>(
    metric: &M,
    sites: &TransposedSites,
    db_rows: &[f64],
    mut emit: impl FnMut(K),
) {
    let k = sites.k();
    assert!(k <= K::MAX_K, "k = {k} exceeds MAX_K = {} for {}-bit packed keys", K::MAX_K, K::BITS);
    let dim = sites.dim();
    assert!(
        dim > 0 || db_rows.is_empty(),
        "sites declare dim 0 but the database has coordinates; build the \
         TransposedSites with the database's dimension"
    );
    let dim = dim.max(1);
    assert_eq!(db_rows.len() % dim, 0, "database rows not a multiple of dim");
    if k == 0 {
        for _ in 0..db_rows.len() / dim {
            emit(K::ZERO);
        }
        return;
    }
    let mut dists = vec![0.0f64; FLAT_BLOCK_ROWS * k];
    for block in db_rows.chunks(FLAT_BLOCK_ROWS * dim) {
        let rows_in_block = block.len() / dim;
        let block_dists = &mut dists[..rows_in_block * k];
        metric.batch_distances(block, sites, block_dists);
        let any_nan = block_dists.iter().fold(false, |acc, &d| acc | d.is_nan());
        assert!(!any_nan, "distance must not be NaN");
        rank_rows_keys(block_dists, k, &mut emit);
    }
}

fn flat_scan<M: BatchDistance>(
    metric: &M,
    sites: &TransposedSites,
    db_rows: &[f64],
    mut emit: impl FnMut(Permutation),
) {
    flat_scan_ranks(metric, sites, db_rows, |ranks, k| emit(permutation_from_ranks(ranks, k)));
}

/// A [`RunKey`] the flat block scan emits, one per row in order: packed
/// keys come from the fused rank+pack tile, [`Permutation`]s (every
/// k above [`WIDE_MAX_K`]) from the rank rows.
pub trait FlatKey: RunKey {
    /// Emits the key of every row of `db_rows`, in order.
    ///
    /// # Panics
    /// Panics if `sites.k()` exceeds [`RunKey::MAX_LEN`], if `db_rows`
    /// is not a multiple of `sites.dim()`, or if any distance is NaN.
    fn scan_flat<M: BatchDistance>(
        metric: &M,
        sites: &TransposedSites,
        db_rows: &[f64],
        emit: impl FnMut(Self),
    );
}

impl<K: PackedKey> FlatKey for K {
    fn scan_flat<M: BatchDistance>(
        metric: &M,
        sites: &TransposedSites,
        db_rows: &[f64],
        emit: impl FnMut(K),
    ) {
        flat_scan_keys(metric, sites, db_rows, emit);
    }
}

impl FlatKey for Permutation {
    fn scan_flat<M: BatchDistance>(
        metric: &M,
        sites: &TransposedSites,
        db_rows: &[f64],
        emit: impl FnMut(Permutation),
    ) {
        flat_scan(metric, sites, db_rows, emit);
    }
}

/// Computes the packed permutation key of every row — the
/// distance + ranking phases of the counting pipeline with no sort and
/// no counter, in database order, at either key width.  The one-thread
/// [`collect_sharded_flat_parallel`] feeds exactly this key stream into
/// its [`PackedPermutationCounter`]; the `counting_phases` bench and the
/// equivalence suites use it to time and check the phases separately.
///
/// # Panics
/// Panics if `sites.k() > K::MAX_K`.
pub fn packed_keys_flat<K: PackedKey, M: BatchDistance>(
    metric: &M,
    sites: &TransposedSites,
    db_rows: &[f64],
) -> Vec<K> {
    let n = db_rows.len() / sites.dim().max(1);
    let mut keys = Vec::with_capacity(n);
    flat_scan_keys(metric, sites, db_rows, |key| keys.push(key));
    keys
}

/// Ranks every row of an `n × k` distance buffer into packed keys — the
/// ranking phase in isolation (the pipeline normally interleaves it with
/// blocked distance computation; this entry point exists so the phase
/// benchmarks can time it against a precomputed buffer).
///
/// # Panics
/// Panics if `k` is 0 or exceeds `K::MAX_K`, if the buffer is not a
/// whole number of rows, or if any distance is NaN.
pub fn rank_distance_rows_packed<K: PackedKey>(row_dists: &[f64], k: usize) -> Vec<K> {
    assert!((1..=K::MAX_K).contains(&k), "k = {k} outside 1..=MAX_K for this key width");
    assert_eq!(row_dists.len() % k, 0, "distance buffer not a multiple of k");
    let any_nan = row_dists.iter().fold(false, |acc, &d| acc | d.is_nan());
    assert!(!any_nan, "distance must not be NaN");
    let mut keys = Vec::with_capacity(row_dists.len() / k);
    rank_rows_keys(row_dists, k, |key| keys.push(key));
    keys
}

/// [`collect_sharded_flat_parallel`] at the default shard size.
///
/// # Panics
/// Panics if `sites.k() > K::MAX_LEN`.
pub fn collect_packed_flat_parallel<K: FlatKey, M: BatchDistance + Sync>(
    metric: &M,
    sites: &TransposedSites,
    db_rows: &[f64],
    threads: usize,
) -> PackedPermutationCounter<K> {
    collect_sharded_flat_parallel(metric, sites, db_rows, threads, 0)
}

/// Counts permutation occurrences over a flat database into one
/// unfinalized [`PackedPermutationCounter`] — the flat counting path at
/// every k.  For packed keys no permutation value is materialised: the
/// block scan feeds fused rank+pack tiles straight into the counter;
/// [`Permutation`] keys come from the rank rows ([`FlatKey`]).
///
/// Each of `threads` scoped workers (1 scans inline) streams its row
/// range through its own counter flushing every `shard_rows` keys
/// (0 means [`crate::shard::DEFAULT_SHARD_ROWS`]).  Workers sort their
/// tail shards, and their runs land in one counter; its `finalize`
/// merges them.  The finalized summary is independent of the split and
/// the shard size (a merge of sorted counted multisets is the
/// run-length scan of the whole).
///
/// # Panics
/// Panics if `sites.k() > K::MAX_LEN`.
pub fn collect_sharded_flat_parallel<K: FlatKey, M: BatchDistance + Sync>(
    metric: &M,
    sites: &TransposedSites,
    db_rows: &[f64],
    threads: usize,
    shard_rows: usize,
) -> PackedPermutationCounter<K> {
    let new_counter = || PackedPermutationCounter::<K>::with_shard_rows(sites.k(), shard_rows);
    let workers = fork_join(worker_rows(sites, db_rows, threads), |rows| {
        let mut counter = new_counter();
        K::scan_flat(metric, sites, rows, |key| counter.insert_key(key));
        counter.flush();
        counter
    });
    PackedPermutationCounter::join(workers, new_counter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_metric::{Levenshtein, L1, L2};

    #[test]
    fn permutation_sorts_sites_by_distance() {
        // Sites on a line at 0, 10, 4; query at 3 -> nearest 4 (idx 2),
        // then 0 (idx 0), then 10 (idx 1).
        let sites = vec![vec![0.0], vec![10.0], vec![4.0]];
        let q = vec![3.0];
        let p = distance_permutation(&L2, &sites, &q);
        assert_eq!(p.as_slice(), &[2, 0, 1]);
    }

    #[test]
    fn tie_break_uses_smaller_site_index() {
        // Sites at -1 and +1; query at 0 is equidistant: site 0 wins.
        let sites = vec![vec![-1.0], vec![1.0]];
        let p = distance_permutation(&L2, &sites, &vec![0.0]);
        assert_eq!(p.as_slice(), &[0, 1]);

        // Renumber the sites the other way; the tie still favours index 0,
        // which is now the +1 site.
        let sites = vec![vec![1.0], vec![-1.0]];
        let p = distance_permutation(&L2, &sites, &vec![0.0]);
        assert_eq!(p.as_slice(), &[0, 1]);
    }

    #[test]
    fn query_at_a_site_puts_that_site_first() {
        let sites = vec![vec![0.0, 0.0], vec![5.0, 5.0], vec![-3.0, 2.0]];
        for (i, s) in sites.iter().enumerate() {
            let p = distance_permutation(&L1, &sites, s);
            assert_eq!(p.get(0) as usize, i);
        }
    }

    #[test]
    fn works_for_string_metrics() {
        let sites: Vec<String> = ["hello", "help", "world"].map(String::from).to_vec();
        let q = String::from("helm");
        let p = distance_permutation(&Levenshtein, &sites, &q);
        // d(hello, helm)=2, d(help, helm)=1, d(world, helm)=4.
        assert_eq!(p.as_slice(), &[1, 0, 2]);
    }

    #[test]
    fn computer_reuse_matches_oneshot() {
        let sites = vec![vec![0.0, 1.0], vec![2.0, -1.0], vec![0.5, 0.5], vec![9.0, 9.0]];
        let queries = vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![-5.0, 3.0]];
        let mut computer = DistPermComputer::new(sites.len());
        for q in &queries {
            assert_eq!(computer.compute(&L2, &sites, q), distance_permutation(&L2, &sites, q));
        }
    }

    #[test]
    fn compute_with_distances_returns_sorted_pairs() {
        let sites = vec![vec![0.0], vec![10.0], vec![4.0]];
        let mut computer = DistPermComputer::new(3);
        let (p, pairs) = computer.compute_with_distances(&L2, &sites, &vec![3.0]);
        assert_eq!(p.as_slice(), &[2, 0, 1]);
        assert_eq!(pairs.len(), 3);
        assert!(pairs.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(pairs[0].1, 2);
    }

    #[test]
    fn database_permutations_bulk() {
        let sites = vec![vec![0.0], vec![1.0]];
        let db = vec![vec![-1.0], vec![0.4], vec![0.6], vec![2.0]];
        let perms = database_permutations(&L2, &sites, &db);
        assert_eq!(perms.len(), 4);
        assert_eq!(perms[0].as_slice(), &[0, 1]);
        assert_eq!(perms[1].as_slice(), &[0, 1]);
        assert_eq!(perms[2].as_slice(), &[1, 0]);
        assert_eq!(perms[3].as_slice(), &[1, 0]);
    }

    #[test]
    #[should_panic(expected = "site count changed")]
    fn site_count_mismatch_panics() {
        let mut computer: DistPermComputer<dp_metric::F64Dist> = DistPermComputer::new(2);
        let sites = vec![vec![0.0]];
        let _ = computer.compute(&L2, &sites, &vec![0.0]);
    }

    fn weyl_rows(n: usize, dim: usize, salt: u64) -> Vec<f64> {
        (0..n * dim)
            .map(|i| {
                ((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15 ^ salt) >> 11) as f64
                    / (1u64 << 53) as f64
            })
            .collect()
    }

    #[test]
    fn flat_kernel_matches_per_point_path() {
        use dp_metric::{L2Squared, LInf};
        let (n, k, dim) = (517, 9, 5); // odd n exercises the partial block
        let db = weyl_rows(n, dim, 1);
        let site_rows = weyl_rows(k, dim, 2);
        let sites_t = TransposedSites::from_rows(&site_rows, dim);
        let nested_db: Vec<Vec<f64>> = db.chunks_exact(dim).map(<[f64]>::to_vec).collect();
        let nested_sites: Vec<Vec<f64>> =
            site_rows.chunks_exact(dim).map(<[f64]>::to_vec).collect();
        let flat = database_permutations_flat_parallel(&L2Squared, &sites_t, &db, 1);
        let nested = database_permutations(&L2Squared, &nested_sites, &nested_db);
        assert_eq!(flat, nested);
        let flat_linf = database_permutations_flat_parallel(&LInf, &sites_t, &db, 1);
        let nested_linf = database_permutations(&LInf, &nested_sites, &nested_db);
        assert_eq!(flat_linf, nested_linf);
    }

    #[test]
    fn flat_parallel_is_deterministic_in_thread_count() {
        use dp_metric::L2Squared;
        let (n, k, dim) = (5000, 7, 3);
        let db = weyl_rows(n, dim, 3);
        let sites_t = TransposedSites::from_rows(&weyl_rows(k, dim, 4), dim);
        let seq = database_permutations_flat_parallel(&L2Squared, &sites_t, &db, 1);
        for threads in [1, 2, 3, 8] {
            assert_eq!(
                database_permutations_flat_parallel(&L2Squared, &sites_t, &db, threads),
                seq,
                "threads = {threads}"
            );
        }
    }

    /// The oracle: the permutation stream sorted, then deduplicated.
    fn sorted_distinct(mut perms: Vec<Permutation>) -> Vec<Permutation> {
        perms.sort_unstable();
        perms.dedup();
        perms
    }

    #[test]
    fn flat_counter_agrees_with_permutation_stream() {
        use dp_metric::L1;
        let (n, k, dim) = (800, 6, 2);
        let db = weyl_rows(n, dim, 5);
        let sites_t = TransposedSites::from_rows(&weyl_rows(k, dim, 6), dim);
        let perms = database_permutations_flat_parallel(&L1, &sites_t, &db, 1);
        let expected = sorted_distinct(perms);
        let packed = collect_packed_flat_parallel::<u64, _>(&L1, &sites_t, &db, 1).finalize();
        let whole =
            collect_packed_flat_parallel::<Permutation, _>(&L1, &sites_t, &db, 1).finalize();
        for summary in [packed.permutations(), whole.permutations()] {
            assert_eq!(summary, expected);
        }
        assert_eq!(packed.total(), n as u64);
        assert_eq!(whole.total(), n as u64);
    }

    #[test]
    fn parallel_collectors_match_sequential_collectors() {
        use dp_metric::L2Squared;
        let (n, k, dim) = (6000, 8, 3);
        let db = weyl_rows(n, dim, 7);
        let sites_t = TransposedSites::from_rows(&weyl_rows(k, dim, 8), dim);
        let seq_packed =
            collect_packed_flat_parallel::<u64, _>(&L2Squared, &sites_t, &db, 1).finalize();
        for threads in [1, 2, 3, 8] {
            let par = collect_packed_flat_parallel::<u64, _>(&L2Squared, &sites_t, &db, threads)
                .finalize();
            assert_eq!(par.distinct(), seq_packed.distinct(), "threads = {threads}");
            assert_eq!(par.total(), seq_packed.total());
            assert_eq!(par.permutations(), seq_packed.permutations());
            let whole =
                collect_packed_flat_parallel::<Permutation, _>(&L2Squared, &sites_t, &db, threads)
                    .finalize();
            assert_eq!(whole.permutations(), seq_packed.permutations(), "threads = {threads}");
            assert_eq!(whole.lexicographic_counts(), seq_packed.lexicographic_counts());
        }
    }

    #[test]
    fn wide_collectors_match_permutation_keys_above_the_u64_seam() {
        use dp_metric::L2Squared;
        // k = 16 only fits the u128 key width; the wide sorted-run
        // pipeline must agree with Permutation keys and the sorted
        // permutation stream exactly.
        let (n, k, dim) = (4000, 16, 3);
        let db = weyl_rows(n, dim, 11);
        let sites_t = TransposedSites::from_rows(&weyl_rows(k, dim, 12), dim);
        let wide = collect_packed_flat_parallel::<u128, _>(&L2Squared, &sites_t, &db, 1).finalize();
        let whole =
            collect_packed_flat_parallel::<Permutation, _>(&L2Squared, &sites_t, &db, 1).finalize();
        assert_eq!(wide.distinct(), whole.distinct());
        assert_eq!(wide.total(), whole.total());
        assert_eq!(wide.mean_occupancy().to_bits(), whole.mean_occupancy().to_bits());
        assert_eq!(wide.lexicographic_counts(), whole.lexicographic_counts());
        let perms = database_permutations_flat_parallel(&L2Squared, &sites_t, &db, 1);
        assert_eq!(wide.permutations(), sorted_distinct(perms));
        for threads in [1, 2, 4] {
            let par = collect_packed_flat_parallel::<u128, _>(&L2Squared, &sites_t, &db, threads)
                .finalize();
            assert_eq!(par.distinct(), wide.distinct(), "threads = {threads}");
            assert_eq!(par.permutations(), wide.permutations(), "threads = {threads}");
        }
    }

    #[test]
    fn fused_key_packing_matches_rank_then_pack() {
        // The fused tile packer must emit exactly the keys the two-phase
        // rank → pack path produces, at both widths, for every tail
        // shape (n mod RANK_LANES ∈ {0, 1, 2, 3} — the padded tail
        // shares the fused path and must stay invisible).
        for n in [1024usize, 1025, 1026, 1027, 1, 2, 3] {
            for k in [1usize, 7, 12] {
                let row_dists = weyl_rows(n, k, 31 + (n * 31 + k) as u64);
                let fused: Vec<u64> = rank_distance_rows_packed(&row_dists, k);
                let mut unfused: Vec<u64> = Vec::new();
                rank_rows(&row_dists, k, |ranks| unfused.push(packed_key_from_ranks(ranks, k)));
                assert_eq!(fused, unfused, "n = {n}, k = {k}");
            }
            for k in [13usize, 20, 25] {
                let row_dists = weyl_rows(n, k, 41 + (n * 37 + k) as u64);
                let fused: Vec<u128> = rank_distance_rows_packed(&row_dists, k);
                let mut unfused: Vec<u128> = Vec::new();
                rank_rows(&row_dists, k, |ranks| unfused.push(packed_key_from_ranks(ranks, k)));
                assert_eq!(fused, unfused, "n = {n}, k = {k}");
            }
        }
    }

    #[test]
    fn flat_kernel_handles_empty_inputs() {
        let sites_t = TransposedSites::from_rows(&[0.25, 0.75], 1);
        assert!(database_permutations_flat_parallel(&L2, &sites_t, &[], 1).is_empty());
        let no_sites = TransposedSites::from_rows(&[], 0);
        let perms = database_permutations_flat_parallel(&L2, &no_sites, &[], 1);
        assert!(perms.is_empty());
    }
}
