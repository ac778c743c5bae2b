//! The lint passes and the driver that runs them over a [`Workspace`].
//!
//! Each pass encodes one invariant the workspace already lives by (see
//! the crate docs for the catalogue).  Passes are scoped by
//! workspace-relative path — the scopes are data, kept here so a glance
//! shows exactly which modules each contract binds.

use crate::source::{Diagnostic, SourceFile};
use crate::workspace::Workspace;

pub mod atomic_ordering;
pub mod bench_citations;
pub mod crate_hygiene;
pub mod float_reassoc;
pub mod hot_path_hash;
pub mod key_width;
pub mod panic_boundary;
pub mod vendored_deps;

/// Every pass name, for waiver validation and `dplint --list`.
pub const PASS_NAMES: &[&str] = &[
    float_reassoc::NAME,
    hot_path_hash::NAME,
    panic_boundary::NAME,
    atomic_ordering::NAME,
    key_width::NAME,
    crate_hygiene::NAME,
    vendored_deps::NAME,
    bench_citations::NAME,
];

/// Bit-identity modules: float accumulations here must be explicit
/// sequential loops, never iterator reductions whose order/type is
/// implicit (`tests/survey_equivalence.rs` pins the sums to the bit).
/// The decimal fast path joins them: Clinger's exact path is one
/// multiply or divide, and must stay one rounding.
pub const FLOAT_REASSOC_SCOPE: &[&str] = &[
    "crates/metric/src/batch.rs",
    "crates/metric/src/vector.rs",
    "crates/permutation/src/huffman.rs",
    "crates/permutation/src/permdist.rs",
    "crates/permutation/src/shard.rs",
    "crates/core/src/survey.rs",
    "crates/core/src/count.rs",
    "crates/core/src/dimension.rs",
    "crates/datasets/src/rho.rs",
    "crates/datasets/src/decimal.rs",
];

/// Counting, kernel, radix and codebook modules: the PR 5 sorted-run
/// pipeline evicted hash containers from the flat hot paths, and the
/// one sorted-run counter now counts every k and point type, so none
/// may creep back.  PR 9's width-generic key module joins the scope:
/// both packed widths sort and count through it.  So do the index key
/// column, which orders the candidates of all three permutation indexes
/// and counts their distinct keys by sorting, and the prefix index built
/// on it.  The counter and every module that counts distinct
/// permutations or prefixes (the dp-core count, survey and refinement
/// chain, pivot selection, grid sampling) joined when the hash counter
/// was deleted.  The packed and Huffman stores joined when their
/// codebook became the run counter's summary.
pub const HOT_PATH_HASH_SCOPE: &[&str] = &[
    "crates/metric/src/batch.rs",
    "crates/index/src/keys.rs",
    "crates/index/src/pivots.rs",
    "crates/index/src/prefixindex.rs",
    "crates/geometry/src/sampling.rs",
    "crates/permutation/src/counter.rs",
    "crates/permutation/src/key.rs",
    "crates/permutation/src/radix.rs",
    "crates/permutation/src/bits.rs",
    "crates/permutation/src/compute.rs",
    "crates/permutation/src/huffman.rs",
    "crates/permutation/src/shard.rs",
    "crates/permutation/src/store.rs",
    "crates/core/src/count.rs",
    "crates/core/src/orders.rs",
    "crates/core/src/survey.rs",
];

/// Total-by-contract subsystems — only the isolation boundary may
/// panic: the serving subsystem (a panicking worker would take the
/// session down), the store I/O layer (the reader must turn hostile
/// bytes into typed `StoreError`s, never a panic; the writer shares the
/// modules) and the SISAP file reader (hostile bytes become typed
/// `SisapIoError`s; its workers share one lock and join), with the
/// decimal fast path it runs on every token of a file.
pub const PANIC_BOUNDARY_SCOPES: &[&str] = &[
    "crates/index/src/serve/",
    "crates/store/src/",
    "crates/datasets/src/sisap_io.rs",
    "crates/datasets/src/decimal.rs",
];

/// The one file inside the serve scope allowed to panic (it is the
/// `catch_unwind` boundary and the test-only fault injector).
pub const PANIC_BOUNDARY_EXEMPT: &[&str] = &["crates/index/src/serve/isolate.rs"];

/// Library files allowed to use `println!`-family macros: binaries.
pub fn is_bin_file(rel_path: &str) -> bool {
    rel_path.contains("/src/bin/") || rel_path == "crates/cli/src/main.rs"
}

fn in_scope(file: &SourceFile, scope: &[&str]) -> bool {
    scope.contains(&file.rel_path.as_str())
}

/// Runs every pass plus the waiver-syntax checks; diagnostics come back
/// sorted by path, line, column.
pub fn run_all(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &ws.files {
        out.extend(file.waiver_diagnostics(PASS_NAMES));
        if in_scope(file, FLOAT_REASSOC_SCOPE) {
            float_reassoc::check(file, &mut out);
        }
        if in_scope(file, HOT_PATH_HASH_SCOPE) {
            hot_path_hash::check(file, &mut out);
        }
        if PANIC_BOUNDARY_SCOPES.iter().any(|scope| file.rel_path.starts_with(scope))
            && !PANIC_BOUNDARY_EXEMPT.contains(&file.rel_path.as_str())
        {
            panic_boundary::check(file, &mut out);
        }
        atomic_ordering::check(file, &mut out);
        key_width::check(file, &mut out);
        crate_hygiene::check_file(file, &mut out);
    }
    crate_hygiene::check_crate_roots(ws, &mut out);
    crate_hygiene::check_manifests(ws, &mut out);
    vendored_deps::check(ws, &mut out);
    bench_citations::check(ws, &mut out);
    out.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.pass).cmp(&(b.path.as_str(), b.line, b.col, b.pass))
    });
    out
}
