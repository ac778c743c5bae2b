//! The SISAP vector-text parse layer on the benchmark's two input shapes.
//!
//! `read_vectors_flat` runs over in-memory text written as `{:.17e}`
//! (the format `write_vectors_flat` and the benchmark's generator use) at
//! 200k × 8, the survey input, and 10⁶ × 2, the count input.  The
//! `from_str_floor` row converts the same tokens with `f64::from_str`
//! and nothing else: the reader can get no faster than that, and the
//! row shows how fast the host is running when the file was recorded.
//!
//! `CRITERION_JSON=$PWD/BENCH_parse.json cargo bench -p dp-bench --bench sisap_parse`
//! appends machine-readable medians; the committed baseline was recorded
//! that way.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dp_datasets::sisap_io::{read_vectors_flat, write_vectors_flat};
use dp_datasets::vectors::uniform_unit_cube_flat;
use std::hint::black_box;

fn bench_parse(c: &mut Criterion) {
    for (n, dim) in [(200_000usize, 8usize), (1_000_000, 2)] {
        let mut text = Vec::new();
        write_vectors_flat(&mut text, &uniform_unit_cube_flat(n, dim, 7)).expect("in-memory write");
        let mut group = c.benchmark_group(format!("sisap_parse_n{n}_d{dim}"));
        group.sample_size(10);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function("read_vectors_flat", |b| {
            b.iter(|| {
                black_box(read_vectors_flat(&mut text.as_slice()).expect("valid text").len())
            });
        });
        let body = std::str::from_utf8(&text).expect("ASCII text");
        group.bench_function("from_str_floor", |b| {
            b.iter(|| {
                let tokens = body.split_ascii_whitespace().skip(2);
                let values = tokens.map(|t| t.parse::<f64>().expect("valid token"));
                black_box(values.fold(0u64, |acc, x| acc ^ x.to_bits()))
            });
        });
        group.finish();
    }
}

criterion_group!(benches, bench_parse);
criterion_main!(benches);
