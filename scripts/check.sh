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
# survey_database_flat_sharded, collect_packed_flat_parallel,
# packed_keys_flat and read_vectors_file_flat by name.  collect_packed_flat_parallel is now only
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

# The 32-row strip tile and the sharded packed counter are pure
# optimizations whose contract is bit-identity with the scalar rank
# oracle and the generic sort-and-count path; the strip tile only
# vectorizes under optimized codegen and the suite's million-point
# memory-bound run is only tractable there, so it runs under release.
echo "== cargo test --release --test sharded_equivalence (release-mode property run)"
cargo test -p distance-permutations --release -q --test sharded_equivalence

# The strip tile's differential test (every k in 1..=32, padded tails,
# odd worker chunks, five metrics, tie-heavy grids) against the scalar
# rank_row oracle, under the codegen that vectorizes the tile.
echo "== cargo test --release -p dp-permutation --lib compute (strip tile vs scalar oracle)"
cargo test -p dp-permutation --release -q --lib compute

# The radix sorter's contract is exact equality with sort_unstable at
# both key widths (u64 and u128 since the width-generic refactor); its
# histogram/scatter loops only vectorize under optimized codegen, so the
# adversarial-distribution property suite must also pass under release.
echo "== cargo test --release --test radix_properties (release-mode property run)"
cargo test -p dp-permutation --release -q --test radix_properties

# The SISAP block reader must accept and reject exactly what the line
# reader it replaced did (its test module keeps that reader as the
# oracle), and its decimal fast path must give exactly f64::from_str's
# bits (its test module recomputes the powers-of-five table and compares
# against from_str).  The byte loop, the UTF-8 checks, the 8-digit SWAR
# chunks and the u128 products are what optimized codegen transforms, so
# the crate's whole unit suite, both differential suites included, also
# runs under release.
echo "== cargo test --release -p dp-datasets --lib (release-mode differential run)"
cargo test -p dp-datasets --release -q --lib

# `distperm count` parses a --vectors file on its --threads workers, in
# line-aligned segments of about 1 MiB committed in file order: a 30k × 2
# file (two segments) must count byte for byte the same at one and two
# workers.  From 1024 items on, every permutation scan splits its rows
# across the workers too: the index `build` writes the same store bytes
# (u64 keys at k = 8, position keys at k = 26), and a string survey
# (the per-point counter) prints the same report, at one and two workers.
echo "== distperm count/build/survey smoke (1 and 2 workers, same stdout and store)"
PARSE_TMP=$(mktemp -d)
./target/release/distperm generate --kind uniform --out "$PARSE_TMP/db.vec" --n 30000 --dim 2 \
    --seed 3 > /dev/null
./target/release/distperm generate --kind dictionary --out "$PARSE_TMP/words.txt" --n 3000 \
    --seed 3 > /dev/null
for t in 1 2; do
    ./target/release/distperm count --vectors "$PARSE_TMP/db.vec" --k 8 --threads "$t" \
        > "$PARSE_TMP/count_t$t.txt"
    for k in 8 26; do
        ./target/release/distperm build --vectors "$PARSE_TMP/db.vec" --k "$k" --threads "$t" \
            --out "$PARSE_TMP/db_k${k}_t$t.dps" > /dev/null
    done
    ./target/release/distperm survey --strings "$PARSE_TMP/words.txt" --threads "$t" \
        > "$PARSE_TMP/survey_t$t.txt"
done
for pair in count_t1.txt:count_t2.txt db_k8_t1.dps:db_k8_t2.dps db_k26_t1.dps:db_k26_t2.dps \
    survey_t1.txt:survey_t2.txt; do
    cmp "$PARSE_TMP/${pair%%:*}" "$PARSE_TMP/${pair##*:}" || {
        echo "smoke: ${pair%%:*} differs between --threads 1 and --threads 2" >&2
        exit 1
    }
done
rm -rf "$PARSE_TMP"

# The serving robustness suites pin panic isolation and bit-identity of
# the resilient engine against a one-searcher sequential loop written in
# the suite itself; catch_unwind and the degraded-path float behaviour
# must hold under optimized codegen, so both suites also run under
# release.
echo "== cargo test --release --test serve_robustness (release-mode fault-injection run)"
cargo test -p distance-permutations --release -q --test serve_robustness

# The exhaustive closed-form checks of the permutation distances
# enumerate all 9! permutations only under release; the debug suites
# stop at k = 8.  dp-index checks the footrule the indexes order by (its
# SWAR form and field loop at both key widths, and the key column at
# each width); dp-permutation checks Kendall tau, Cayley and Spearman
# rho's maximum, the measures the candidate-ordering ablation compares.
echo "== cargo test --release -p dp-index closed_forms (release-mode exhaustive run)"
cargo test -p dp-index --release -q --lib closed_forms

echo "== cargo test --release -p dp-permutation closed_forms (release-mode exhaustive run)"
cargo test -p dp-permutation --release -q --lib closed_forms

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

# The path the benchmark serves: `distperm build` persists a flatperm
# index (--k 8, i.e. flatperm:8) and `serve --load` answers from it.
# The batch interleaves exact k-NN at k = 3 and k = 5 with budgeted
# (`frac=`) queries, so a worker's run sweeps exact queries of two k
# values together.  The exact replies are full-budget scans, so ids and
# distances must match `serve --index linear` on the same file byte for
# byte, and each must account k + n = 8 + 200 metric evaluations.
echo "== distperm build + serve --load smoke (exact knn equals the linear scan)"
./target/release/distperm build --vectors "$SERVE_TMP/db.vec" --k 8 --out "$SERVE_TMP/db.dps" \
    > /dev/null
KNN_BATCH='begin mixed
knn 3 0.5 0.5 0.5 0.5
knn 3 frac=0.05 0.2 0.3 0.4 0.5
knn 5 0.1 0.9 0.2 0.8
knn 5 frac=0.1 0.9 0.1 0.8 0.2
knn 3 0.0 0.0 0.0 0.0
knn 3 frac=0.05 0.6 0.6 0.1 0.1
knn 5 0.3 0.7 0.3 0.7
knn 5 frac=0.2 0.5 0.4 0.3 0.2
knn 3 1.0 1.0 1.0 1.0
knn 5 0.25 0.5 0.75 1.0
knn 3 frac=0.05 0.9 0.8 0.7 0.6
knn 5 0.45 0.55 0.65 0.35
end'
EXACT_QUERIES='^(0|2|4|6|8|9|11) '
LOADED_OUT=$(echo "$KNN_BATCH" | ./target/release/distperm serve --load "$SERVE_TMP/db.dps" \
    --threads 2)
LINEAR_OUT=$(echo "$KNN_BATCH" | ./target/release/distperm serve --vectors "$SERVE_TMP/db.vec" \
    --index linear --threads 2)
exact_replies() { sed -n 's/^ok \([0-9]*\) evals=\([0-9]*\) /\1 \2 /p' | grep -E "$EXACT_QUERIES"; }
LOADED_REPLIES=$(echo "$LOADED_OUT" | exact_replies | cut -d' ' -f1,3-)
LINEAR_REPLIES=$(echo "$LINEAR_OUT" | exact_replies | cut -d' ' -f1,3-)
LOADED_EVALS=$(echo "$LOADED_OUT" | exact_replies | cut -d' ' -f2 | sort -u)
if [ "$(echo "$LOADED_REPLIES" | wc -l)" -ne 7 ] || [ "$LOADED_REPLIES" != "$LINEAR_REPLIES" ] \
    || [ "$LOADED_EVALS" != "208" ] \
    || ! echo "$LOADED_OUT" | grep -q '^done mixed ok=12 degraded=0 failed=0'; then
    echo "serve --load smoke: exact knn replies differ from the linear scan" >&2
    echo "$LOADED_OUT" >&2
    echo "$LINEAR_OUT" >&2
    exit 1
fi

# ROADMAP bench-baseline validation (formerly a bash/jq loop here) now
# lives in dplint's bench-citations pass, which runs above with real
# file:line:col diagnostics and no jq dependency.

echo "== cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== cargo bench --no-run (bench code must keep compiling)"
cargo bench -p dp-bench --no-run

echo "All checks passed."
