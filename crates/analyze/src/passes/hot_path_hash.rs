//! `hot-path-hash` — no hash/tree containers in the counting hot paths.
//!
//! Sorted-run codebooks and radix-sorted packed counting replaced hash
//! interning, and since the FxHash counter was deleted every distinct
//! count — any k, any point type — is a sort and a run scan, whose
//! finalized summary is also the one codebook the stores use.  The
//! scoped modules are exactly the ones that won that eviction.  A
//! `HashMap` creeping back in costs the iteration-order determinism and
//! the cache behaviour the engine's speed and bit-identity rest on.  A
//! container that counts nothing (a sampler's sparse swap map) may stay
//! under an explicit waiver that says so.

use crate::source::{Diagnostic, SourceFile};

pub const NAME: &str = "hot-path-hash";

const BANNED: &[&str] = &[
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
    "FxHashMap",
    "FxHashSet",
    "FxHasher",
    "FxBuildHasher",
];

pub fn check(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for tok in &file.code {
        if BANNED.iter().any(|b| tok.is_ident(b)) {
            file.finding(
                NAME,
                tok,
                true,
                format!(
                    "`{}` in a counting/kernel/radix/codebook module; the hot paths \
                     use sorted-run scans and flat codebooks — hash/tree containers \
                     were deliberately evicted (waive only a container that counts \
                     nothing, with a reason)",
                    tok.text
                ),
                out,
            );
        }
    }
}
