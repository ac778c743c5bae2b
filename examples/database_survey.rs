//! One-call database characterisation — "what would a permutation index
//! cost me, and what does it reveal about my data?"
//!
//! The workflow a downstream user actually runs before choosing an index:
//! [`survey_database`] measures ρ, the distinct-permutation count at each
//! candidate k, the storage cost of every layout, and the paper's §5
//! dimension estimates — here over three databases with very different
//! geometry (a synthetic English dictionary under Levenshtein, smooth
//! colour histograms under L2, and uniform 3-D vectors as the control).
//!
//! Run with: `cargo run --release --example database_survey`

use distance_permutations::core::dimension::ReferenceProfile;
use distance_permutations::core::survey::{survey_database, SurveyConfig};
use distance_permutations::datasets::dictionary::{generate_words, language_profiles};
use distance_permutations::datasets::{colors, uniform_unit_cube};
use distance_permutations::metric::{Levenshtein, L2};

fn main() {
    let n = 10_000;
    let config = SurveyConfig {
        ks: vec![4, 8, 12],
        seed: 7,
        rho_pairs: 10_000,
        // A reference curve at k = 12 enables the fractional dimension
        // estimate for the vector databases.
        reference: Some(ReferenceProfile::build(12, n, 8, 3, 99, 8)),
    };

    println!("=== uniform 3-D control ===");
    let uniform = uniform_unit_cube(n, 3, 1);
    let report = survey_database(&L2, &uniform, &config, 1);
    println!("{report}");
    // Sanity: the control should read back as ≈ 3-dimensional.
    if let Some(d) = report.dimension_estimate {
        assert!((d - 3.0).abs() < 1.0, "uniform 3-D estimated at {d}");
    }

    println!("=== colour histograms (112-dim embedding, low effective dimension) ===");
    let hists = colors::generate_histograms(n, 2);
    let report = survey_database(&L2, &hists, &config, 1);
    println!("{report}");

    println!("=== english dictionary under Levenshtein ===");
    let profiles = language_profiles();
    let english = profiles.iter().find(|p| p.name == "english").expect("profile");
    let words = generate_words(english, n, 3);
    let report = survey_database(&Levenshtein, &words, &config, 1);
    println!("{report}");

    println!("reading the reports:");
    println!("* `codebook` column ≪ `naive` column = the paper's storage win;");
    println!("* `huffman` within one bit of `entropy` = §4's sophisticated structure;");
    println!("* `minEd` grows with k toward the database's effective dimension;");
    println!("* the histogram database needs far fewer bits than its 112 axes suggest.");
}
