//! # dp-index — proximity-search index substrate
//!
//! A from-scratch reimplementation of the slice of the SISAP metric-space
//! library that *Counting distance permutations* builds on (§5: "we
//! implemented distance permutations for the SISAP library … as a new
//! index type called `distperm`, a minor modification of the library's
//! `pivots` index type").  The cost model is the field's: **count metric
//! evaluations**, everything else is free.
//!
//! ## The unified query API
//!
//! Every index type answers queries through the same trait family
//! ([`api`]):
//!
//! * [`ProximityIndex`] — the immutable, `Sync` build product; exact
//!   `knn`/`range` with answers identical to [`LinearScan`];
//! * [`Searcher`] — a per-session cursor from
//!   [`ProximityIndex::searcher`] that owns all per-query scratch, is
//!   `Send`, and counts metric evaluations natively: every query returns
//!   `(Vec<Neighbor>, QueryStats)`;
//! * [`ApproxSearcher`] — the budgeted surface of the permutation
//!   family's searchers (`knn_approx`/`range_approx` with a scan
//!   fraction; `frac = 1.0` is exact).
//!
//! On top of the traits sit [`spec`] — build any index by name
//! ([`IndexSpec`] → [`AnyIndex`]) — and [`serve`] — deterministic batch
//! serving, sequentially or across scoped worker threads with one
//! searcher per worker ([`serve::query_batch_parallel`], and
//! [`serve::query_batch_parallel_approx`] for budgeted queries).
//!
//! ## Serving & failure model
//!
//! Every batch, strict or resilient, goes through one dispatcher: up to
//! `threads` workers, one searcher each, claim runs of up to eight
//! consecutive queries from a shared atomic cursor, and results come
//! back in query order.  On the strict path
//! ([`serve::query_batch_parallel_approx`], behind `distperm search`;
//! the BK-tree, which has no budget, through
//! [`serve::query_batch_parallel`]) a panicking query takes the batch
//! down with its own message.  The [`serve`] module also hosts the fault-tolerant
//! serving subsystem behind `distperm serve` (see its module docs for
//! the full contract):
//!
//! * **isolation** — every query runs under `catch_unwind`
//!   ([`serve::serve_resilient`]); a panicking query becomes a
//!   structured [`serve::QueryError`] in its own slot and the worker's
//!   searcher is rebuilt — one bad query can neither kill the process
//!   nor corrupt its successors;
//! * **degradation** — past a batch's soft deadline, remaining exact
//!   queries downgrade to the budgeted [`ApproxSearcher`] surface at a
//!   configured fraction, flagged [`serve::Outcome::Degraded`]; a
//!   client's own budget is never raised;
//! * **backpressure** — the session loop ([`serve::serve_session`])
//!   admits a bounded number of batches and *sheds* the excess with
//!   explicit replies instead of queueing without bound;
//! * **hardening** — the line protocol parser ([`serve::LineParser`])
//!   is total: garbage input yields typed error replies, never a dead
//!   session.
//!
//! With zero faults and no deadline the resilient path returns answers
//! and stats bit-identical to one searcher serving the batch in order,
//! at any thread count — the release-mode robustness suite pins this
//! against a sequential loop of its own.
//!
//! ## Index types
//!
//! * [`LinearScan`] — the naive baseline (n evaluations per query);
//! * [`Aesa`] — Vidal's AESA: the full O(n²) distance matrix, fewest
//!   evaluations, impractical storage (the paper's framing in §1);
//! * [`Laesa`] — Micó–Oncina–Vidal LAESA: k pivot distances per element
//!   (the SISAP `pivots` type);
//! * [`DistPermIndex`] — the paper's `distperm`: one distance permutation
//!   per element; supports exporting/counting the permutation multiset
//!   (the paper's measurement) and permutation-ordered approximate search
//!   (Chávez–Figueroa–Navarro);
//! * [`FlatDistPermIndex`] — `distperm` over flat
//!   [`dp_datasets::VectorSet`] storage with batched distance kernels;
//! * [`PrefixPermIndex`] — truncated permutations (length-ℓ prefixes);
//! * [`IAesa`] — improved AESA (Figueroa–Chávez–Navarro–Paredes): AESA
//!   elimination with permutation-similarity candidate ordering;
//! * [`VpTree`] / [`GhTree`] — classical metric trees (Uhlmann, Yianilos)
//!   for comparison;
//! * [`BkTree`] — Burkhard–Keller tree for integer-valued metrics.
//!
//! Exact structures are property-tested to return *identical* answers to
//! [`LinearScan`] through the trait surface.  [`counting::CountingMetric`]
//! remains for instrumenting *build* costs; query costs ride in
//! [`QueryStats`].

#![forbid(unsafe_code)]

pub mod aesa;
pub mod api;
pub mod bktree;
pub mod counting;
pub mod distperm;
pub mod flatperm;
pub mod ghtree;
pub mod iaesa;
mod keys;
pub mod laesa;
pub mod linear;
pub mod pivots;
pub mod prefixindex;
pub mod query;
pub mod serve;
pub mod spec;
pub mod vptree;

pub use aesa::{Aesa, AesaSearcher};
pub use api::{ApproxSearcher, ProximityIndex, Searcher};
pub use bktree::{BkSearcher, BkTree};
pub use counting::CountingMetric;
pub use distperm::{DistPermIndex, DistPermSearcher};
pub use flatperm::{FlatDistPermIndex, FlatDistPermSearcher};
pub use ghtree::{GhSearcher, GhTree};
pub use iaesa::{IAesa, IAesaSearcher};
pub use laesa::{Laesa, LaesaSearcher, PivotSelection};
pub use linear::{LinearScan, LinearSearcher};
pub use prefixindex::{PrefixPermIndex, PrefixPermSearcher};
pub use query::{Neighbor, QueryStats};
pub use spec::{AnyIndex, AnySearcher, IndexSpec, SpecError, DEFAULT_K};
pub use vptree::{VpSearcher, VpTree};
