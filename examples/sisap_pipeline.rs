//! The paper's experimental pipeline, end to end, on files.
//!
//! Section 5: "Our `build-distperm-*` programs write out the permutations
//! in ASCII as a side effect of index generation, so that the number of
//! unique permutations can easily be counted with `sort | uniq | wc`."
//! This example reproduces that workflow byte for byte:
//!
//! 1. generate a synthetic English dictionary and write it in the SISAP
//!    one-word-per-line format;
//! 2. read the file back (as an external user would);
//! 3. build the `distperm` index over Levenshtein distance;
//! 4. dump the ASCII permutation file;
//! 5. count unique lines — and check it equals the index's in-memory
//!    count, which is the same `sort | uniq` done as a sorted-run scan.
//!
//! Run with: `cargo run --release --example sisap_pipeline`

use distance_permutations::datasets::dictionary::{generate_words, language_profiles};
use distance_permutations::datasets::sisap_io;
use distance_permutations::index::laesa::PivotSelection;
use distance_permutations::index::DistPermIndex;
use distance_permutations::metric::Levenshtein;
use std::collections::BTreeSet;

fn main() {
    let dir = std::env::temp_dir().join("distperm_sisap_pipeline");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let db_path = dir.join("english.dic");
    let perm_path = dir.join("english.perms");

    // 1. Generate and write the database file.
    let profiles = language_profiles();
    let english = profiles.iter().find(|p| p.name == "english").expect("profile");
    let words = generate_words(english, 20_000, 8);
    sisap_io::write_strings_file(&db_path, &words).expect("write dictionary");
    println!("wrote {} words to {}", words.len(), db_path.display());

    // 2. Read it back — the index sees only the file.
    let db = sisap_io::read_strings_file(&db_path).expect("read dictionary");
    assert_eq!(db.len(), words.len());

    // 3. Build the distperm index (k = 8 sites, the paper's mid column).
    let index = DistPermIndex::build(Levenshtein, db, 8, PivotSelection::Random(41));
    println!("built distperm index: n = {}, k = {}", index.len(), index.k());

    // 4. ASCII dump, exactly like build-distperm-*.
    let ascii = index.export_ascii();
    std::fs::write(&perm_path, &ascii).expect("write permutations");
    println!("dumped permutations to {}", perm_path.display());

    // 5. `sort | uniq | wc -l`, in-process.
    let unique: BTreeSet<&str> = ascii.lines().collect();
    let counts = index.counter();
    println!(
        "unique permutations: {} (ascii) = {} (in-memory sorted-run count)",
        unique.len(),
        counts.distinct()
    );
    assert_eq!(unique.len(), counts.distinct());

    // The Table 2 shape: far fewer distinct permutations than both k! and n.
    let kfact = 40_320u64; // 8!
    println!(
        "k! = {kfact}, n = {}; observed {} — the Table 2 phenomenon",
        index.len(),
        counts.distinct()
    );
    assert!((counts.distinct() as u64) < kfact);
    println!("mean occupancy: {:.1} words per permutation", counts.mean_occupancy());

    std::fs::remove_dir_all(&dir).ok();
}
