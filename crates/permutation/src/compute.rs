//! Computing distance permutations (the paper's Π_y).
//!
//! `Π_y` is the unique permutation sorting site indices by increasing
//! distance from `y`, ties broken by increasing site index.  Sorting on the
//! pair `(distance, index)` realises exactly that rule, and because
//! [`dp_metric::Distance`] is totally ordered the result is deterministic.

use crate::key::PackedKey;
use crate::perm::{Permutation, MAX_K};
use crate::shard::{PackedPermutationCounter, RunKey};
use dp_metric::par::{fork_join, worker_chunks};
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
}

/// Largest k whose permutations pack into a u64 key (5 bits per
/// element) — covers every configuration the paper's experiments use.
pub const PACKED_MAX_K: usize = <u64 as PackedKey>::MAX_K;

/// Largest k the packed pipeline covers at all: the u128 key width
/// (5 bits per element, 25 fields).  `k > WIDE_MAX_K` counts
/// [`Permutation`] keys instead, through the same run counter.
pub const WIDE_MAX_K: usize = <u128 as PackedKey>::MAX_K;

/// Rows per strip tile.  Every flat row is computed, ranked and packed
/// in a strip of this many rows, one lane per row: the strip is
/// transposed coordinate-major, its `k × STRIP` distance tile computed
/// site-major by [`BatchDistance::column_distances`], and every
/// per-site step of the ranking runs lane-wise across the strip.
///
/// The width is measured, not a knob.  Ranking alone at k = 24 on an
/// AVX-512 host took about 135–150, 175–200, 190–240 and 56–71 ns a
/// row at 4, 8, 16 and 32 lanes.  Below 32 LLVM fully unrolls the lane
/// loop and vectorizes the site loop `j` instead, with shuffles
/// (`vpermt2pd`/`vpermt2q`/`vpunpck*`) to gather each pair's lanes; at
/// 32 the lane loop survives unrolling and every site pair becomes
/// eight 4-lane `vcmplepd` with no shuffle.  The tile (`32 × k` f64,
/// 8 KiB at k = 32) and the pending ranks stay in L1.
const STRIP: usize = 32;

/// One value per row of a strip.
type Lanes<T> = [T; STRIP];

/// Branchless distance-permutation ranking of one row — the scalar
/// reference the strip tile is tested against.
///
/// `ranks[i]` receives the position of site `i` in Π (the number of
/// sites strictly closer, ties to the smaller index — `d_i <= d_j` with
/// `i < j` resolves ties exactly like sorting `(distance, index)` pairs).
/// Distances must be non-NaN; on that domain plain `<=` coincides with
/// the `F64Dist` total order.
#[cfg(test)]
fn rank_row(row_dists: &[f64], ranks: &mut [u8; MAX_K]) {
    let k = row_dists.len();
    for i in 0..k {
        let di = row_dists[i];
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

/// Dispatches a strip kernel on the runtime `k` to its `const`-generic
/// instantiation.  The call site defines a one-argument `arm!` macro
/// mapping a literal `k` to the monomorphic call.
///
/// What the constant buys is measured, and it is not register
/// residency: the pending-rank rows (`k` lane arrays of i64, 96
/// AVX-512 registers' worth at k = 24) live in L1 either way.  Ranking
/// alone at 32 lanes and k = 24 ran 56–71 ns a row with a constant `k`
/// and 56–62 ns with a runtime one, and the key scan of 10⁶ × 2 rows
/// was within noise; but the 2-thread count of those rows ran 78–86 ms
/// on the constant-`k` instantiation against 91–96 ms over a runtime
/// `k`, in five alternating sessions.
macro_rules! dispatch_tile_k {
    ($k:expr, $arm:ident) => {
        match $k {
            0 => $arm!(0),
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
            _ => unreachable!("strip kernels require k <= MAX_K"),
        }
    };
}

/// Pairwise-halved rank accumulation over a site-major strip tile
/// (`dists[j][l]` = distance of row `l` to site `j`): hands each site's
/// finished rank lanes (`ranks[l]` = position of site `i` in row `l`'s
/// Π) to `site`, in ascending site order.
///
/// Each unordered site pair `(i, j)`, `i < j`, is compared **once**:
/// the mask `c = (d_i <= d_j)` settles both sides — site `j` gains `c`
/// (a closer-or-tied earlier site), and site `i` gains `1 - c`, because
/// on the non-NaN domain the callers guarantee `!(d_i <= d_j)` is
/// exactly `d_j < d_i`, the strictly-closer-later rule.  Seeding site
/// `i`'s accumulator with its later-pair count `KC-1-i` and
/// *subtracting* `c` folds the complement into the same mask, so every
/// lane is bit-for-bit the scalar `rank_row` at k(k-1)/2 lane-wise
/// compares instead of k(k-1).  The masks accumulate as i64 lanes, the
/// width of an f64 compare mask, so no lane ever changes width.
///
/// After outer step `i`, site `i`'s ranks are **final**: its pairs with
/// smaller indices contributed in earlier steps, the rest in step `i`
/// — so the emit folds them into keys without a second pass.
#[inline(always)]
fn rank_strip_k<const KC: usize>(dists: &[Lanes<f64>], mut site: impl FnMut(usize, &Lanes<i64>)) {
    let d: &[Lanes<f64>; KC] = dists.try_into().expect("the strip tile holds k sites");
    let mut pend = [[0i64; STRIP]; KC];
    for i in 0..KC {
        let mut ri = pend[i];
        for r in &mut ri {
            *r += (KC - 1 - i) as i64;
        }
        for j in i + 1..KC {
            for l in 0..STRIP {
                let c = i64::from(d[i][l] <= d[j][l]);
                pend[j][l] += c;
                ri[l] -= c;
            }
        }
        site(i, &ri);
    }
}

/// Ranks **and packs** a strip tile: `keys[l]` receives row `l`'s
/// packed lexicographic key (element at position `p` of Π in field
/// `k-1-p`, the [`crate::pack_perm`] layout).
///
/// Each site's field ORs into the lane keys the moment its ranks are
/// final, by a lane-wise variable shift.  The key is built as a `lo`/
/// `hi` pair of 64-bit words, so both widths keep every lane op 64 bits
/// wide: a `u64` key is `lo` alone, and a `u128` field at bit offset
/// `s` lands in `lo` below bit 64, in `hi` above it, and in both when
/// it straddles bit 64 (`s = 60`).  No lane is ever de-transposed.
#[inline(always)]
fn pack_strip_k<K: PackedKey, const KC: usize>(dists: &[Lanes<f64>], keys: &mut Lanes<K>) {
    const WORD: u32 = u64::BITS;
    let mut lo = [0u64; STRIP];
    let mut hi = [0u64; STRIP];
    rank_strip_k::<KC>(dists, |site, ranks| {
        let e = site as u64;
        for l in 0..STRIP {
            let s = K::elem_shift(KC - 1 - ranks[l] as usize);
            if K::BITS > WORD {
                // The field's bits below 64, then its bits from 64 up:
                // the straddling field (s < 64 < s + 5) sets both.
                let low = if s < WORD { e << s } else { 0 };
                let high =
                    if s < WORD { e.checked_shr(WORD - s).unwrap_or(0) } else { e << (s - WORD) };
                lo[l] |= low;
                hi[l] |= high;
            } else {
                lo[l] |= e << s;
            }
        }
    });
    for ((key, &lo), &hi) in keys.iter_mut().zip(lo.iter()).zip(hi.iter()) {
        *key = K::from_words(lo, hi);
    }
}

/// Runtime-`k` front end for [`pack_strip_k`].
#[inline]
fn pack_strip<K: PackedKey>(dists: &[Lanes<f64>], keys: &mut Lanes<K>) {
    macro_rules! arm {
        ($kc:literal) => {
            pack_strip_k::<K, $kc>(dists, keys)
        };
    }
    dispatch_tile_k!(dists.len(), arm);
}

/// Ranks a strip tile into one rank row per lane: `rows[l][i]` is the
/// position of site `i` in row `l`'s Π.
#[inline]
fn rank_strip(dists: &[Lanes<f64>], rows: &mut Lanes<[u8; MAX_K]>) {
    macro_rules! arm {
        ($kc:literal) => {
            rank_strip_k::<$kc>(dists, |site, ranks| {
                for (row, &r) in rows.iter_mut().zip(ranks.iter()) {
                    row[site] = r as u8;
                }
            })
        };
    }
    dispatch_tile_k!(dists.len(), arm);
}

/// The strip driver behind every flat scan: walks `db_rows` one strip
/// of [`STRIP`] rows at a time, transposes it coordinate-major,
/// computes its site-major distance tile, rejects NaN distances on the
/// tile, and hands the tile (`k` lane arrays) with its count of real
/// rows to `tile`.
///
/// A tail strip of `live < STRIP` rows is padded by replicating its
/// last real row into the remaining lanes: lanes are independent, so
/// the real lanes are unchanged, and the callers emit only the first
/// `live`.  One code path serves full strips and tails.
fn scan_strips<M: BatchDistance>(
    metric: &M,
    sites: &TransposedSites,
    db_rows: &[f64],
    mut tile: impl FnMut(&[Lanes<f64>], usize),
) {
    let (k, dim) = (sites.k(), sites.dim());
    assert!(k <= MAX_K, "k = {k} exceeds MAX_K = {MAX_K}");
    // Zero-dim flat storage cannot represent a non-empty database (n
    // rows of width 0 are 0 floats) — row count would be unrecoverable.
    assert!(
        dim > 0 || db_rows.is_empty(),
        "sites declare dim 0 but the database has coordinates; build the \
         TransposedSites with the database's dimension"
    );
    let row_len = dim.max(1);
    assert_eq!(db_rows.len() % row_len, 0, "database rows not a multiple of dim");
    let mut cols = vec![[0.0f64; STRIP]; dim];
    let mut tile_buf = [[0.0f64; STRIP]; MAX_K];
    let dists = &mut tile_buf[..k];
    for strip in db_rows.chunks(STRIP * row_len) {
        let live = strip.len() / row_len;
        for lane in 0..STRIP {
            let row = &strip[lane.min(live - 1) * dim..][..dim];
            for (col, &x) in cols.iter_mut().zip(row.iter()) {
                col[lane] = x;
            }
        }
        metric.column_distances(&cols, sites, dists);
        let any_nan = dists.iter().flatten().fold(false, |acc, d| acc | d.is_nan());
        assert!(!any_nan, "distance must not be NaN");
        tile(dists, live);
    }
}

/// Emits the rank row of every row of `db_rows`, in order: entry `e`
/// is the position of site `e` in the row's Π (entries past k are 0).
/// The strip tile's ranking without the pack — the flat index keys
/// each point by exactly this row.
///
/// # Panics
/// Panics if `sites.k() > MAX_K`, if `db_rows` is not a multiple of
/// `sites.dim()`, or if any distance is NaN.
pub fn rank_rows_flat<M: BatchDistance>(
    metric: &M,
    sites: &TransposedSites,
    db_rows: &[f64],
    mut emit: impl FnMut(&[u8; MAX_K]),
) {
    let mut rows = [[0u8; MAX_K]; STRIP];
    scan_strips(metric, sites, db_rows, |dists, live| {
        rank_strip(dists, &mut rows);
        for row in &rows[..live] {
            emit(row);
        }
    });
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
/// the permutations' lexicographic order.  The fused strip tile made
/// this test-only: it is the reference the equivalence tests pack
/// against.
#[cfg(test)]
fn packed_key_from_ranks<K: PackedKey>(ranks: &[u8; MAX_K], k: usize) -> K {
    debug_assert!(k <= K::MAX_K);
    let mut key = K::ZERO;
    for (i, &r) in ranks[..k].iter().enumerate() {
        key |= K::from_elem(i as u8) << K::elem_shift(k - 1 - r as usize);
    }
    key
}

/// A [`RunKey`] the flat strip scan emits, one per row in order: packed
/// keys come from the fused rank+pack strip tile, [`Permutation`]s
/// (every k above [`WIDE_MAX_K`]) from its rank rows.
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
        mut emit: impl FnMut(K),
    ) {
        let k = sites.k();
        assert!(
            k <= K::MAX_K,
            "k = {k} exceeds MAX_K = {} for {}-bit packed keys",
            K::MAX_K,
            K::BITS
        );
        let mut keys = [K::ZERO; STRIP];
        scan_strips(metric, sites, db_rows, |dists, live| {
            pack_strip(dists, &mut keys);
            for &key in &keys[..live] {
                emit(key);
            }
        });
    }
}

impl FlatKey for Permutation {
    fn scan_flat<M: BatchDistance>(
        metric: &M,
        sites: &TransposedSites,
        db_rows: &[f64],
        mut emit: impl FnMut(Permutation),
    ) {
        let k = sites.k();
        rank_rows_flat(metric, sites, db_rows, |ranks| emit(permutation_from_ranks(ranks, k)));
    }
}

/// Computes the packed permutation key of every row — the strip scan
/// (distances, ranking and packing) of the counting pipeline with no
/// sort and no counter, in database order, at either key width.  The one-thread
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
    K::scan_flat(metric, sites, db_rows, |key| keys.push(key));
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
/// strip scan feeds each strip tile's fused keys straight into the
/// counter; [`Permutation`] keys come from its rank rows ([`FlatKey`]).
///
/// The rows split by [`worker_chunks`] (one inline chunk at one thread
/// or below 1024 rows); each worker streams its chunk through its own
/// counter flushing every `shard_rows` keys
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
    let workers = fork_join(worker_chunks(db_rows, sites.dim(), threads), |rows| {
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
    use crate::for_packed_k;
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

    /// Every point's permutation through one reused [`DistPermComputer`].
    fn per_point<P, M: Metric<P>>(metric: &M, sites: &[P], db: &[P]) -> Vec<Permutation> {
        let mut computer = DistPermComputer::new(sites.len());
        db.iter().map(|y| computer.compute(metric, sites, y)).collect()
    }

    /// Every row's permutation through the strip tile's rank rows.
    fn flat_perms<M: BatchDistance>(
        metric: &M,
        sites_t: &TransposedSites,
        db: &[f64],
    ) -> Vec<Permutation> {
        let mut perms = Vec::new();
        Permutation::scan_flat(metric, sites_t, db, |p| perms.push(p));
        perms
    }

    #[test]
    fn per_point_permutations_of_a_small_database() {
        let sites = vec![vec![0.0], vec![1.0]];
        let db = vec![vec![-1.0], vec![0.4], vec![0.6], vec![2.0]];
        let perms = per_point(&L2, &sites, &db);
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
        let (n, k, dim) = (517, 9, 5); // odd n exercises the padded tail strip
        let db = weyl_rows(n, dim, 1);
        let site_rows = weyl_rows(k, dim, 2);
        let sites_t = TransposedSites::from_rows(&site_rows, dim);
        let nested_db: Vec<Vec<f64>> = db.chunks_exact(dim).map(<[f64]>::to_vec).collect();
        let nested_sites: Vec<Vec<f64>> =
            site_rows.chunks_exact(dim).map(<[f64]>::to_vec).collect();
        let flat = flat_perms(&L2Squared, &sites_t, &db);
        assert_eq!(flat, per_point(&L2Squared, &nested_sites, &nested_db));
        let flat_linf = flat_perms(&LInf, &sites_t, &db);
        assert_eq!(flat_linf, per_point(&LInf, &nested_sites, &nested_db));
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
        let expected = sorted_distinct(flat_perms(&L1, &sites_t, &db));
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
        assert_eq!(wide.permutations(), sorted_distinct(flat_perms(&L2Squared, &sites_t, &db)));
        for threads in [1, 2, 4] {
            let par = collect_packed_flat_parallel::<u128, _>(&L2Squared, &sites_t, &db, threads)
                .finalize();
            assert_eq!(par.distinct(), wide.distinct(), "threads = {threads}");
            assert_eq!(par.permutations(), wide.permutations(), "threads = {threads}");
        }
    }

    /// The two input families of the strip-tile differential test:
    /// irregular Weyl rows, and a tie-heavy integer grid whose rows come
    /// in duplicated pairs and whose sites repeat above k = 9, so the
    /// index tie-break decides many ranks.
    fn strip_inputs(n: usize, k: usize) -> [(Vec<f64>, Vec<f64>, usize); 2] {
        let grid = |i: usize| [(i * 7 % 5) as f64, (i * 3 % 4) as f64];
        [
            (weyl_rows(n, 3, 17), weyl_rows(k, 3, 18), 3),
            (
                (0..n).flat_map(|i| grid(i / 2)).collect(),
                (0..k).flat_map(|j| grid(j % 9)).collect(),
                2,
            ),
        ]
    }

    /// The oracle's rank rows: scalar `Metric::distance`, then `rank_row`.
    fn oracle_ranks<M: BatchDistance>(
        metric: &M,
        db: &[f64],
        site_rows: &[f64],
        dim: usize,
    ) -> Vec<[u8; MAX_K]> {
        db.chunks_exact(dim)
            .map(|row| {
                let dists: Vec<f64> =
                    site_rows.chunks_exact(dim).map(|s| metric.distance(row, s).get()).collect();
                let mut ranks = [0u8; MAX_K];
                rank_row(&dists, &mut ranks);
                ranks
            })
            .collect()
    }

    fn assert_keys_match<K: PackedKey, M: BatchDistance>(
        metric: &M,
        sites_t: &TransposedSites,
        db: &[f64],
        ranks: &[[u8; MAX_K]],
        ctx: &str,
    ) {
        let k = sites_t.k();
        let want: Vec<K> = ranks.iter().map(|r| packed_key_from_ranks(r, k)).collect();
        assert_eq!(
            packed_keys_flat::<K, _>(metric, sites_t, db),
            want,
            "{ctx}: {}-bit keys",
            K::BITS
        );
    }

    /// Every output of the strip tile — rank rows, permutations, packed
    /// keys at both widths and the counted summary — against the scalar
    /// oracle, at every k, at tail shapes that pad (n mod 32 ≠ 0), and
    /// (the counts) at worker chunks that are not multiples of 32
    /// (n = 1031 split 2 and 3 ways).
    fn assert_strip_tile_matches_oracle<M: BatchDistance + Sync>(metric: &M, tag: &str) {
        for k in 1..=MAX_K {
            for n in [0usize, 1, 31, 32, 33, 1031] {
                for (db, site_rows, dim) in strip_inputs(n, k) {
                    let ctx = format!("{tag}, k = {k}, n = {n}, dim = {dim}");
                    let sites_t = TransposedSites::from_rows(&site_rows, dim);
                    let ranks = oracle_ranks(metric, &db, &site_rows, dim);
                    let mut rows = Vec::new();
                    rank_rows_flat(metric, &sites_t, &db, |r| rows.push(r[..k].to_vec()));
                    let want_rows: Vec<Vec<u8>> = ranks.iter().map(|r| r[..k].to_vec()).collect();
                    assert_eq!(rows, want_rows, "{ctx}: rank rows");
                    if k <= PACKED_MAX_K {
                        assert_keys_match::<u64, _>(metric, &sites_t, &db, &ranks, &ctx);
                    }
                    if k <= WIDE_MAX_K {
                        assert_keys_match::<u128, _>(metric, &sites_t, &db, &ranks, &ctx);
                    }
                    let perms: Vec<Permutation> =
                        ranks.iter().map(|r| permutation_from_ranks(r, k)).collect();
                    assert_eq!(flat_perms(metric, &sites_t, &db), perms, "{ctx}: permutations");
                    let mut counted: Vec<(Permutation, u64)> = Vec::new();
                    for p in sorted_distinct(perms.clone()) {
                        counted.push((p, perms.iter().filter(|&q| *q == p).count() as u64));
                    }
                    for threads in [1usize, 2, 3] {
                        let summary: Vec<(Permutation, u64)> = for_packed_k!(k, K => {
                            collect_packed_flat_parallel::<K, _>(metric, &sites_t, &db, threads)
                                .finalize()
                                .iter()
                                .collect()
                        });
                        assert_eq!(summary, counted, "{ctx}, threads = {threads}: counts");
                    }
                }
            }
        }
    }

    #[test]
    fn strip_tile_matches_scalar_oracle_l1_l2() {
        assert_strip_tile_matches_oracle(&L1, "L1");
        assert_strip_tile_matches_oracle(&L2, "L2");
    }

    #[test]
    fn strip_tile_matches_scalar_oracle_l2sq_linf_lp3() {
        use dp_metric::{L2Squared, LInf, Lp};
        assert_strip_tile_matches_oracle(&L2Squared, "L2Squared");
        assert_strip_tile_matches_oracle(&LInf, "LInf");
        assert_strip_tile_matches_oracle(&Lp::new(3.0), "Lp(3)");
    }

    #[test]
    fn flat_kernel_handles_empty_inputs() {
        let sites_t = TransposedSites::from_rows(&[0.25, 0.75], 1);
        assert!(flat_perms(&L2, &sites_t, &[]).is_empty());
        let no_sites = TransposedSites::from_rows(&[], 0);
        assert!(flat_perms(&L2, &no_sites, &[]).is_empty());
    }
}
