//! E4–E7 — regenerates the paper's **Figures 1–4**:
//!
//! * Fig 1: Euclidean nearest-neighbour Voronoi diagram (4 sites);
//! * Fig 2: second-order Euclidean Voronoi diagram (unordered 2-NN);
//! * Fig 3: all six bisectors of the 4 sites under L2 — 18 cells,
//!   verified **exactly** by the rational line-arrangement counter;
//! * Fig 4: the same under L1 — also 18 cells, but not the same 18
//!   permutations (the paper's §2 observation).
//!
//! Outputs PPM cell maps and an SVG line overlay into `--out`
//! (default `figures/`).

use dp_bench::{ensure_out_dir, Args};
use dp_geometry::arrangement::euclidean_cells;
use dp_geometry::faces::exact_permutations;
use dp_geometry::render::{render_cells, svg_euclidean_bisectors, CellKey};
use dp_geometry::sampling::{grid_count, BBox};
use dp_metric::{L1, L2};
use std::fs;

fn main() {
    let args = Args::parse();
    let out = ensure_out_dir(&args.get("out", String::from("figures"))).expect("create out dir");
    let size: usize = args.get("size", 640);

    // The figure configuration: four sites in general position for which
    // both the L2 and L1 bisector systems have the full 18 cells.
    let sites_f: Vec<Vec<f64>> = vec![
        vec![0.9867, 0.5630],
        vec![0.3364, 0.5875],
        vec![0.4702, 0.8210],
        vec![0.8423, 0.3812],
    ];
    let sites_i: Vec<(i64, i64)> = vec![(9867, 5630), (3364, 5875), (4702, 8210), (8423, 3812)];
    let bbox = BBox { x_min: 0.0, x_max: 1.3, y_min: 0.0, y_max: 1.3 };

    // Exact Euclidean cell count (Fig 3's combinatorics).
    let exact = euclidean_cells(&sites_i);
    println!("exact Euclidean bisector-arrangement cells: {exact} (paper: 18)");

    // Grid census per metric.
    let l2_cells = grid_count(&L2, &sites_f, bbox, 800, 800);
    let l1_cells = grid_count(&L1, &sites_f, bbox, 800, 800);
    println!(
        "grid census (800x800): L2 = {} cells, L1 = {} cells",
        l2_cells.distinct(),
        l1_cells.distinct()
    );
    let same = l1_cells.permutations() == l2_cells.permutations();
    println!("L1 and L2 realise the same permutation sets: {same} (paper: false)");

    // Exact L2 permutation set (rational slab enumeration): the grid
    // census is validated against it, and the L1/L2 overlap quantified.
    let exact = exact_permutations(&sites_i);
    assert_eq!(exact.len() as u128, euclidean_cells(&sites_i));
    let l1_set = l1_cells.permutations();
    let shared = l1_set.iter().filter(|p| exact.binary_search(p).is_ok()).count();
    println!(
        "exact L2 set has {} permutations; sampled L1 set shares {shared} of its {}",
        exact.len(),
        l1_set.len()
    );

    // Figure renders.
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
        let path = out.join(name);
        fs::write(&path, img.to_ppm()).expect("write figure");
        println!("wrote {}", path.display());
    }
    let svg = svg_euclidean_bisectors(
        &sites_i,
        BBox { x_min: 0.0, x_max: 13000.0, y_min: 0.0, y_max: 13000.0 },
        size as f64,
    );
    let path = out.join("fig3_bisectors.svg");
    fs::write(&path, svg).expect("write svg");
    println!("wrote {}", path.display());
}
