//! `perfbench-tools`: the benchmark's own inputs, reference answers and
//! host calibration.  Nothing here calls program code.
//!
//! ```text
//! perfbench-tools vectors  <out> <n> <dim> <seed>   SISAP vector file (`dim n` header)
//! perfbench-tools queries  <out> <count> <dim> <seed>  one query point per line
//! perfbench-tools knn      <db> <queries> <k>      brute-force k-NN ids, one line per query
//! perfbench-tools distinct <db> <site,ids,...>     distinct L2 distance permutations
//! perfbench-tools calib                            alu_ms / mem_ms / parse_ms calibration loops
//! ```

use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

/// SplitMix64: a fixed, self-contained generator, so the inputs depend
/// only on the seed and this file.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Writes `rows` uniform points of width `dim`, one per line, in the
/// 17-significant-digit exponent notation of SISAP vector files.
fn uniform_rows(rows: usize, dim: usize, seed: u64, header: bool) -> String {
    let mut rng = SplitMix64(seed);
    let mut text = String::with_capacity(rows * dim * 25 + 32);
    if header {
        writeln!(text, "{dim} {rows}").expect("write to String");
    }
    for _ in 0..rows {
        for c in 0..dim {
            if c > 0 {
                text.push(' ');
            }
            write!(text, "{:.17e}", rng.next_f64()).expect("write to String");
        }
        text.push('\n');
    }
    text
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    println!("bytes={}", text.len());
    Ok(())
}

fn parse_numbers(text: &str, path: &str) -> Result<Vec<f64>, String> {
    text.split_ascii_whitespace()
        .map(|t| t.parse::<f64>().map_err(|e| format!("{path}: bad number {t:?}: {e}")))
        .collect()
}

/// Reads a SISAP vector file: returns `(dim, row-major coordinates)`.
fn read_db(path: &str) -> Result<(usize, Vec<f64>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let (head, body) = text.split_once('\n').ok_or(format!("{path}: no header"))?;
    let mut it = head.split_ascii_whitespace().map(str::parse::<usize>);
    let (Some(Ok(dim)), Some(Ok(n))) = (it.next(), it.next()) else {
        return Err(format!("{path}: bad header {head:?}"));
    };
    let data = parse_numbers(body, path)?;
    if dim == 0 || data.len() != n * dim {
        return Err(format!("{path}: expected {n} rows of {dim}, got {} numbers", data.len()));
    }
    Ok((dim, data))
}

/// Euclidean distance with coordinates summed in ascending order, the
/// rounding a straightforward implementation produces.
fn l2(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc.sqrt()
}

fn knn(db_path: &str, queries_path: &str, k: usize) -> Result<(), String> {
    let (dim, db) = read_db(db_path)?;
    let text = std::fs::read_to_string(queries_path).map_err(|e| format!("{queries_path}: {e}"))?;
    let queries = parse_numbers(&text, queries_path)?;
    let mut out = String::new();
    for q in queries.chunks_exact(dim) {
        // Keep the k best (distance, id) pairs in ascending order.
        let mut best: Vec<(f64, usize)> = Vec::with_capacity(k + 1);
        for (id, row) in db.chunks_exact(dim).enumerate() {
            let d = l2(q, row);
            if best.len() == k && d >= best[k - 1].0 {
                continue;
            }
            let at = best.partition_point(|&(bd, _)| bd <= d);
            best.insert(at, (d, id));
            best.truncate(k);
        }
        let ids: Vec<String> = best.iter().map(|&(_, id)| id.to_string()).collect();
        writeln!(out, "{}", ids.join(" ")).expect("write to String");
    }
    print!("{out}");
    Ok(())
}

fn distinct(db_path: &str, sites: &str) -> Result<(), String> {
    let (dim, db) = read_db(db_path)?;
    let site_ids: Vec<usize> = sites
        .split(',')
        .map(|t| t.trim().parse::<usize>().map_err(|e| format!("bad site id {t:?}: {e}")))
        .collect::<Result<_, _>>()?;
    let k = site_ids.len();
    if k == 0 || k > 25 {
        return Err(format!("site count {k} outside 1..=25"));
    }
    if let Some(&bad) = site_ids.iter().find(|&&i| (i + 1) * dim > db.len()) {
        return Err(format!("site id {bad} out of range"));
    }
    let site_rows: Vec<&[f64]> = site_ids.iter().map(|&i| &db[i * dim..(i + 1) * dim]).collect();
    let mut keys: Vec<u128> = Vec::with_capacity(db.len() / dim);
    let mut dists = vec![0.0f64; k];
    let mut order: Vec<usize> = (0..k).collect();
    for row in db.chunks_exact(dim) {
        for (d, s) in dists.iter_mut().zip(&site_rows) {
            *d = l2(row, s);
        }
        for (i, o) in order.iter_mut().enumerate() {
            *o = i;
        }
        // Stable: equal distances keep site order.
        order.sort_by(|&a, &b| dists[a].total_cmp(&dists[b]));
        keys.push(order.iter().fold(0u128, |key, &s| (key << 5) | s as u128));
    }
    keys.sort_unstable();
    keys.dedup();
    println!("distinct={}", keys.len());
    Ok(())
}

/// Median of `reps` timings of `f`, in milliseconds.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[reps / 2]
}

/// Three fixed loops that make host drift visible: a hash walk over a
/// 256 KiB table (resident in L2), four streaming sums over 64 MiB (far
/// beyond L2), and parsing 400 000 decimal floats.  The last one is
/// branchy scalar code, like the program's input parsing, and moves with
/// the host regimes that the first two do not show.
fn calib() {
    let table: Vec<u32> = {
        let mut rng = SplitMix64(1);
        (0..1 << 16).map(|_| rng.next_u64() as u32).collect()
    };
    let alu_ms = median_ms(5, || {
        let mut x = 0x1234_5678u32;
        for _ in 0..5_000_000u32 {
            x = x.wrapping_mul(0x9E37_79B1) ^ table[(x >> 16) as usize];
        }
        black_box(x);
    });
    let stream: Vec<u64> = (0..8u64 << 20).collect();
    let mem_ms = median_ms(5, || {
        for _ in 0..4 {
            let sum = black_box(&stream).iter().fold(0u64, |a, &v| a.wrapping_add(v));
            black_box(sum);
        }
    });
    let text = uniform_rows(400_000, 1, 2, false);
    let parse_ms = median_ms(5, || {
        let sum: f64 = black_box(&text)
            .split_ascii_whitespace()
            .map(|t| t.parse::<f64>().expect("own output parses"))
            .sum();
        black_box(sum);
    });
    println!("alu_ms={alu_ms} mem_ms={mem_ms} parse_ms={parse_ms}");
}

fn arg<T: std::str::FromStr>(args: &[String], i: usize, what: &str) -> Result<T, String> {
    args.get(i).ok_or(format!("missing {what}"))?.parse().map_err(|_| format!("bad {what}"))
}

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().map(String::as_str).unwrap_or("");
    let path = |i: usize| args.get(i).map(String::as_str).ok_or(format!("missing argument {i}"));
    match cmd {
        "vectors" => write_file(
            path(1)?,
            &uniform_rows(arg(args, 2, "n")?, arg(args, 3, "dim")?, arg(args, 4, "seed")?, true),
        ),
        "queries" => write_file(
            path(1)?,
            &uniform_rows(
                arg(args, 2, "count")?,
                arg(args, 3, "dim")?,
                arg(args, 4, "seed")?,
                false,
            ),
        ),
        "knn" => knn(path(1)?, path(2)?, arg(args, 3, "k")?),
        "distinct" => distinct(path(1)?, path(2)?),
        "calib" => {
            calib();
            Ok(())
        }
        _ => Err(format!("unknown command {cmd:?} (vectors, queries, knn, distinct, calib)")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-tools: {e}");
            ExitCode::FAILURE
        }
    }
}
