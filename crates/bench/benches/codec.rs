//! Criterion microbenchmarks of the `ADB2` block codec (every block read
//! pays a decode; every block written from rows pays an encode) and of
//! the bulk-load path that writes blocks from rows.
//!
//! * `encode_block_200rows` / `decode_block_200rows` — a 4-column block
//!   with one repeated string.
//! * `encode_lineitem_200rows` — one 200-row block of the 11-column
//!   TPC-H lineitem schema (4 Int, 2 Double, 2 Date, 3 Str columns), the
//!   block the loaders write most.
//! * `load_rows_lineitem_sf035` — `Database::load_rows` of TPC-H scale
//!   0.35 lineitem (21 000 rows, about 105 blocks): check, sample, tree
//!   build, routing, encoding and the consumed rows' drop. The rows are
//!   cloned outside the timed part.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use adaptdb::{Database, DbConfig};
use adaptdb_common::rng::seeded;
use adaptdb_common::{Row, Value};
use adaptdb_storage::codec::{decode_block, encode_block_columnar};
use adaptdb_storage::Block;
use adaptdb_workloads::TpchGen;
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
    let lineitem = Block::new(0, TpchGen::new(0.35, 1).lineitem()[..200].to_vec());
    c.bench_function("encode_lineitem_200rows", |bch| {
        bch.iter(|| black_box(encode_block_columnar(&lineitem)))
    });
}

fn bench_load(c: &mut Criterion) {
    let gen = TpchGen::new(0.35, 1);
    let rows = gen.lineitem();
    c.bench_function("load_rows_lineitem_sf035", |bch| {
        bch.iter_batched(
            || {
                let mut db = Database::new(DbConfig { seed: 1, ..DbConfig::default() });
                gen.create_tables(&mut db).unwrap();
                (db, rows.clone())
            },
            |(mut db, rows)| {
                db.load_rows("lineitem", rows).unwrap();
                db
            },
            BatchSize::LargeInput,
        )
    });
}

criterion_group!(benches, bench_codec, bench_load);
criterion_main!(benches);
