//! `atomic-ordering` — every atomic memory ordering carries a proof.
//!
//! Atomics are the one place the workspace's property suites cannot see
//! a wrong answer deterministically: a too-weak ordering is a latent
//! reordering bug, a too-strong one is silent cost.  So every
//! `Ordering::{Relaxed, Acquire, Release, AcqRel, SeqCst}` use must have
//! an adjacent `// ordering:` comment (same line, or the contiguous
//! comment block directly above) justifying the choice — starting with
//! the serving dispatcher's cursor `fetch_add(1, Ordering::Relaxed)`.
//! `std::cmp::Ordering`'s variants (`Less`/`Equal`/`Greater`) never
//! collide with the atomic set, so the pass keys on the variant names.

use crate::source::{Diagnostic, SourceFile};

pub const NAME: &str = "atomic-ordering";

const ATOMIC_VARIANTS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Is line `l` annotated by an `// ordering:` comment on the same line
/// or in the contiguous comment block immediately above it?
fn has_ordering_comment(file: &SourceFile, line: u32) -> bool {
    let annotated =
        |l: u32| file.comments.iter().any(|c| c.line == l && c.text.contains("ordering:"));
    if annotated(line) {
        return true;
    }
    let mut l = line.saturating_sub(1);
    while l >= 1 && file.comment_only_lines.contains(&l) {
        if annotated(l) {
            return true;
        }
        l -= 1;
    }
    false
}

pub fn check(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (i, tok) in file.code.iter().enumerate() {
        if !tok.is_ident("Ordering") {
            continue;
        }
        let t = &file.code;
        let is_atomic_variant = t.get(i + 1).is_some_and(|t| t.is_punct(b':'))
            && t.get(i + 2).is_some_and(|t| t.is_punct(b':'))
            && t.get(i + 3).is_some_and(|v| ATOMIC_VARIANTS.iter().any(|a| v.is_ident(a)));
        if is_atomic_variant && !has_ordering_comment(file, tok.line) {
            let variant = &t[i + 3].text;
            file.finding(
                NAME,
                tok,
                true,
                format!(
                    "`Ordering::{variant}` without an adjacent `// ordering:` justification; \
                     state why {variant} is correct here (what the atomic synchronizes, and \
                     what provides any ordering it does not)"
                ),
                out,
            );
        }
    }
}
