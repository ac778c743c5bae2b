//! `distperm figures`: regenerate the paper's Figures 1–4.

use crate::args::ParsedArgs;
use crate::CliError;
use dp_geometry::arrangement::euclidean_cells;
use dp_geometry::faces::exact_permutations;
use dp_geometry::render::{render_cells, svg_euclidean_bisectors, CellKey};
use dp_geometry::sampling::{grid_count, BBox};
use dp_metric::{L1, L2};
use std::io::Write;
use std::path::PathBuf;

pub(crate) fn run(parsed: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let dir = PathBuf::from(parsed.str_or("out", "figures"));
    let size = parsed.usize_or("size", 640)?;
    parsed.finish()?;
    if !(64..=4096).contains(&size) {
        return Err(CliError::usage("--size must be in 64..=4096"));
    }
    std::fs::create_dir_all(&dir)?;

    // The canonical configuration: four sites in general position whose
    // L2 and L1 bisector systems both have 18 cells (§2, Figs 3–4).
    let sites_f: Vec<Vec<f64>> = vec![
        vec![0.9867, 0.5630],
        vec![0.3364, 0.5875],
        vec![0.4702, 0.8210],
        vec![0.8423, 0.3812],
    ];
    let sites_i: Vec<(i64, i64)> = vec![(9867, 5630), (3364, 5875), (4702, 8210), (8423, 3812)];
    let bbox = BBox { x_min: 0.0, x_max: 1.3, y_min: 0.0, y_max: 1.3 };

    writeln!(out, "exact Euclidean cell count: {} (paper: 18)", euclidean_cells(&sites_i))?;
    let l2 = grid_count(&L2, &sites_f, bbox, 800, 800);
    let l1 = grid_count(&L1, &sites_f, bbox, 800, 800);
    writeln!(out, "grid census: L2 = {}, L1 = {} cells", l2.distinct(), l1.distinct())?;
    let exact = exact_permutations(&sites_i);
    let l1_set = l1.permutations();
    let shared = l1_set.iter().filter(|p| exact.binary_search(p).is_ok()).count();
    writeln!(
        out,
        "exact L2 permutation set: {}; L1 shares {shared}/{} — not the same cells (§2)",
        exact.len(),
        l1_set.len()
    )?;

    let figs: [(&str, CellKey, bool); 4] = [
        ("fig1_voronoi.ppm", CellKey::Nearest, false),
        ("fig2_second_order.ppm", CellKey::TopTwoUnordered, false),
        ("fig3_full_l2.ppm", CellKey::FullPermutation, false),
        ("fig4_full_l1.ppm", CellKey::FullPermutation, true),
    ];
    for (name, key, use_l1) in figs {
        let img = if use_l1 {
            render_cells(&L1, &sites_f, bbox, size, size, key)
        } else {
            render_cells(&L2, &sites_f, bbox, size, size, key)
        };
        let path = dir.join(name);
        std::fs::write(&path, img.to_ppm())?;
        writeln!(out, "wrote {}", path.display())?;
    }
    let svg = svg_euclidean_bisectors(
        &sites_i,
        BBox { x_min: 0.0, x_max: 13000.0, y_min: 0.0, y_max: 13000.0 },
        size as f64,
    );
    let path = dir.join("fig3_bisectors.svg");
    std::fs::write(&path, svg)?;
    writeln!(out, "wrote {}", path.display())?;
    Ok(())
}
