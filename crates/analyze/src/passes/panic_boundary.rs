//! `panic-boundary` — the total-by-contract subsystems stay total.
//!
//! Three subsystems promise totality.  `distperm serve` promises that
//! input garbage, query panics, and overload all stay inside the
//! session as reply lines; the only place allowed to panic is the
//! isolation boundary itself (`isolate.rs`, which owns `catch_unwind`
//! and the test-only fault injector).  The `dp-store` I/O layer
//! promises that hostile bytes — truncation anywhere, corruption at any
//! offset — surface as typed `StoreError`s, never as a panic
//! (`tests/store_robustness.rs` pins that dynamically).  The SISAP
//! reader (`crates/datasets/src/sisap_io.rs`) promises the same of a
//! vector file, on every worker that parses it, and so does the decimal
//! fast path it runs on every token (`decimal.rs`).  In all three scopes
//! (`crates/index/src/serve/`, `crates/store/src/`, `sisap_io.rs` with
//! `decimal.rs`), panicking constructs outside `#[cfg(test)]` are
//! findings: each must be rewritten total (poison recovery, `let …
//! else`, bounds-checked reads) or carry a waiver arguing why the crash
//! is genuinely unreachable or unservable.

use crate::source::{Diagnostic, SourceFile};

pub const NAME: &str = "panic-boundary";

const BANNED_MACROS: &[&str] =
    &["panic", "assert", "assert_eq", "assert_ne", "unreachable", "todo", "unimplemented"];
const BANNED_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];

pub fn check(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (i, tok) in file.code.iter().enumerate() {
        let next_bang = file.code.get(i + 1).is_some_and(|t| t.is_punct(b'!'));
        let is_macro = next_bang && BANNED_MACROS.iter().any(|m| tok.is_ident(m));
        let prev_dot = i > 0 && file.code[i - 1].is_punct(b'.');
        let next_paren = file.code.get(i + 1).is_some_and(|t| t.is_punct(b'('));
        let is_method = prev_dot && next_paren && BANNED_METHODS.iter().any(|m| tok.is_ident(m));
        if is_macro || is_method {
            let call = if is_macro { format!("{}!", tok.text) } else { format!(".{}()", tok.text) };
            file.finding(
                NAME,
                tok,
                true,
                format!(
                    "`{call}` inside a total-by-contract subsystem (serve loop / store I/O / \
                     SISAP reader); only isolate.rs may panic.  Recover (e.g. \
                     `unwrap_or_else(PoisonError::into_inner)`, `let … else`, bounds-checked \
                     reads) or waive with a reason proving the crash is unreachable or \
                     unservable"
                ),
                out,
            );
        }
    }
}
