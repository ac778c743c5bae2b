#!/usr/bin/env bash
# Workspace gate: formatting, lints, tests, and bench compilation.
#
# Run from the repository root.  Mirrors what a CI job would run; every
# PR should pass this locally before review.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

# dplint runs before clippy so workspace-invariant findings (bit-identity
# float rules, panic boundary, atomic-ordering proofs, offline-dep audit,
# bench citations) surface ahead of generic lint noise.
echo "== dplint (workspace invariant linter)"
cargo run -q -p dp-analyze --bin dplint

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The benchmark's own packages build against the library crates' public
# API: perfbench/trace imports count_permutations_flat_sharded,
# survey_database_flat_sharded, collect_packed_flat_parallel and
# packed_keys_flat by name.  collect_packed_flat_parallel is now only
# the packed collector at the default shard size, kept for the trace.
# Checking both here makes a rename they depend on fail this gate
# before it fails a benchmark run.  Cargo
# rewrites a package's Cargo.lock when a path crate's dependency list
# moves; those lock files belong to the benchmark, so each is put back
# as it was after its check.
echo "== cargo check perfbench/{trace,tools} (the benchmark's packages)"
for pkg in trace tools; do
    lock="perfbench/$pkg/Cargo.lock"
    saved=$(mktemp)
    cp "$lock" "$saved"
    status=0
    cargo check --release --manifest-path "perfbench/$pkg/Cargo.toml" \
        --target-dir target/perfbench || status=$?
    cp "$saved" "$lock"
    rm -f "$saved"
    [ "$status" -eq 0 ] || exit "$status"
done

echo "== cargo build --workspace --release"
# --workspace so the `distperm` binary exists for the serve smoke below.
cargo build --workspace --release

echo "== cargo test --workspace"
cargo test --workspace -q

# The survey and kernel equivalence suites assert bit-for-bit
# floating-point and integer-overflow behaviour; debug-only runs have
# missed overflow-class bugs before, and the strip-mined kernel tiles
# only vectorize under optimized codegen — which is exactly where their
# bit-identity could break — so both must also pass under release.
# survey_equivalence covers both packed-key width seams (k = 12 → 13
# and k = 25 → 26), so the u128 wide path gets release coverage here.
echo "== cargo test --release --test survey_equivalence (release-mode property run)"
cargo test -p distance-permutations --release -q --test survey_equivalence

echo "== cargo test --release --test kernel_equivalence (release-mode property run)"
cargo test -p distance-permutations --release -q --test kernel_equivalence

# The fused rank+pack tile and the sharded packed counter are pure
# optimizations whose contract is bit-identity with the phase-separated
# key stream and the generic hash-counting path; the fused tile only
# vectorizes under optimized codegen and the suite's million-point
# memory-bound run is only tractable there, so it runs under release.
echo "== cargo test --release --test sharded_equivalence (release-mode property run)"
cargo test -p distance-permutations --release -q --test sharded_equivalence

# The radix sorter's contract is exact equality with sort_unstable at
# both key widths (u64 and u128 since the width-generic refactor); its
# histogram/scatter loops only vectorize under optimized codegen, so the
# adversarial-distribution property suite must also pass under release.
echo "== cargo test --release --test radix_properties (release-mode property run)"
cargo test -p dp-permutation --release -q --test radix_properties

# The SISAP block reader must accept and reject exactly what the line
# reader it replaced did (its test module keeps that reader as the
# oracle); its byte loop and UTF-8 checks are what optimized codegen
# transforms, so the differential suite also runs under release.
echo "== cargo test --release -p dp-datasets sisap_io (release-mode differential run)"
cargo test -p dp-datasets --release -q --lib sisap_io

# The serving robustness suites pin panic isolation and bit-identity of
# the resilient engine against a one-searcher sequential loop written in
# the suite itself; catch_unwind and the degraded-path float behaviour
# must hold under optimized codegen, so both suites also run under
# release.
echo "== cargo test --release --test serve_robustness (release-mode fault-injection run)"
cargo test -p distance-permutations --release -q --test serve_robustness

echo "== cargo test --release --test protocol_robustness (release-mode adversarial-input run)"
cargo test -p dp-index --release -q --test protocol_robustness

# index_consistency pins that query_batch_parallel answers identically
# at every thread count for every index type; the serving dispatcher
# hands queries to workers through an atomic cursor, so its ordering
# must also hold under optimized codegen.
echo "== cargo test --release --test index_consistency (release-mode serving-invariance run)"
cargo test -p distance-permutations --release -q --test index_consistency

# The store reader's totality promise (typed errors on truncation at
# every prefix and corruption at every offset, bit-identical reload)
# must hold under optimized codegen — bounds checks and checksum loops
# are exactly what release builds transform — so both store suites also
# run under release.
echo "== cargo test --release --test store_robustness (release-mode adversarial-bytes run)"
cargo test -p distance-permutations --release -q --test store_robustness

echo "== cargo test --release --test store_roundtrip (release-mode bit-identity run)"
cargo test -p distance-permutations --release -q --test store_roundtrip

# End-to-end smoke of `distperm serve`: generate a tiny database, pipe a
# batch through stdin, and require a served batch plus a clean EOF
# shutdown (`bye`) from the release binary.
echo "== distperm serve smoke (stdin pipe, clean EOF shutdown)"
SERVE_TMP=$(mktemp -d)
trap 'rm -rf "$SERVE_TMP"' EXIT
./target/release/distperm generate --kind uniform --out "$SERVE_TMP/db.vec" --n 200 --dim 4 \
    --seed 7 > /dev/null
SERVE_OUT=$(printf 'begin smoke\nknn 3 0.5 0.5 0.5 0.5\nrange 0.4 0.1 0.9 0.2 0.8\nend\n' \
    | ./target/release/distperm serve --vectors "$SERVE_TMP/db.vec" --index distperm:4 \
        --threads 2)
echo "$SERVE_OUT" | grep -q '^done smoke ok=2 degraded=0 failed=0' || {
    echo "serve smoke: batch was not served cleanly" >&2
    echo "$SERVE_OUT" >&2
    exit 1
}
echo "$SERVE_OUT" | grep -q '^bye batches=1 queries=2 shed=0 errors=0' || {
    echo "serve smoke: missing clean bye line" >&2
    echo "$SERVE_OUT" >&2
    exit 1
}

# ROADMAP bench-baseline validation (formerly a bash/jq loop here) now
# lives in dplint's bench-citations pass, which runs above with real
# file:line:col diagnostics and no jq dependency.

echo "== cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== cargo bench --no-run (bench code must keep compiling)"
cargo bench -p dp-bench --no-run

echo "All checks passed."
