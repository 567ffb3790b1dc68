//! Criterion microbenchmarks of the `ADB2` block codec (every block read
//! pays a decode; every block written from rows pays an encode).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use adaptdb_common::rng::seeded;
use adaptdb_common::{Row, Value};
use adaptdb_storage::codec::{decode_block, encode_block_columnar};
use adaptdb_storage::Block;
use rand::RngExt;

fn block(rows: usize, seed: u64) -> Block {
    let mut rng = seeded(seed);
    Block::new(
        0,
        (0..rows)
            .map(|_| {
                Row::new(vec![
                    Value::Int(rng.random_range(0..1_000_000)),
                    Value::Double(rng.random_range(0..1_000) as f64 / 7.0),
                    Value::Date(rng.random_range(0..2555)),
                    Value::Str("DELIVER IN PERSON".into()),
                ])
            })
            .collect(),
    )
}

fn bench_codec(c: &mut Criterion) {
    let b200 = block(200, 3);
    c.bench_function("encode_block_200rows", |bch| {
        bch.iter(|| black_box(encode_block_columnar(&b200)))
    });
    let encoded = encode_block_columnar(&b200);
    c.bench_function("decode_block_200rows", |bch| {
        bch.iter(|| black_box(decode_block(encoded.clone()).unwrap()))
    });
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
