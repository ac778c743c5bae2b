//! Meta-test: the live workspace is dplint-clean.
//!
//! This is the self-hosting guarantee — `crates/analyze` is scanned
//! like every other crate, every waiver in the tree carries a reason,
//! and `scripts/check.sh`'s dplint gate can never fail if this passes.

use std::path::Path;

#[test]
fn live_workspace_has_no_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analyze sits two levels under the workspace root");
    let diags = dp_analyze::lint_workspace(root).expect("workspace loads");
    assert!(
        diags.is_empty(),
        "dplint findings in the live workspace:\n{}",
        diags.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}

/// Scopes name files by path, so a deleted or renamed module would
/// silently drop out of its lint; every listed path must exist.
#[test]
fn every_scoped_path_exists() {
    use dp_analyze::passes::{
        FLOAT_REASSOC_SCOPE, HOT_PATH_HASH_SCOPE, PANIC_BOUNDARY_EXEMPT, PANIC_BOUNDARY_SCOPES,
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analyze sits two levels under the workspace root");
    let scopes =
        [FLOAT_REASSOC_SCOPE, HOT_PATH_HASH_SCOPE, PANIC_BOUNDARY_SCOPES, PANIC_BOUNDARY_EXEMPT];
    let missing: Vec<&str> = scopes
        .iter()
        .flat_map(|scope| scope.iter())
        .copied()
        .filter(|p| !root.join(p).exists())
        .collect();
    assert!(missing.is_empty(), "scoped paths that do not exist: {missing:?}");
}
