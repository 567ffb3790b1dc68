//! Criterion microbenchmarks of the columnar (`ADB2`) read path: the
//! per-block work the late-materialising scan actually does — parse the
//! header, select on the predicate columns, gather the few surviving
//! rows. `benches/codec.rs` times the full-block encode and decode.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use adaptdb_common::rng::seeded;
use adaptdb_common::{BitSet, CmpOp, Row, Value};
use adaptdb_storage::codec::{encode_block_columnar, LazyBlock};
use adaptdb_storage::Block;
use rand::RngExt;

/// A lineitem-shaped block: Str columns dominate row-decode cost.
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
                    Value::Str("REG AIR".into()),
                    Value::Str("A".into()),
                ])
            })
            .collect(),
    )
}

const INSTRUCT: [&str; 4] = ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"];
const MODE: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
const FLAG: [&str; 3] = ["R", "A", "N"];

/// A Q19-shaped lineitem block: quantity, then ship instruction and
/// ship mode drawn from their TPC-H domains.
fn q19_block(rows: usize, seed: u64) -> Block {
    let mut rng = seeded(seed);
    Block::new(
        0,
        (0..rows)
            .map(|_| {
                Row::new(vec![
                    Value::Int(rng.random_range(1..51)),
                    Value::Str(INSTRUCT[rng.random_range(0..4usize)].into()),
                    Value::Str(MODE[rng.random_range(0..7usize)].into()),
                ])
            })
            .collect(),
    )
}

/// Lineitem's three `Str` columns — ship instruction, ship mode,
/// return flag — drawn from their TPC-H domains: every cell of a full
/// gather is a string.
fn str_block(rows: usize, seed: u64) -> Block {
    let mut rng = seeded(seed);
    Block::new(
        0,
        (0..rows)
            .map(|_| {
                Row::new(vec![
                    Value::Str(INSTRUCT[rng.random_range(0..4usize)].into()),
                    Value::Str(MODE[rng.random_range(0..7usize)].into()),
                    Value::Str(FLAG[rng.random_range(0..3usize)].into()),
                ])
            })
            .collect(),
    )
}

fn bench_columnar(c: &mut Criterion) {
    let b200 = block(200, 3);
    let col_bytes = encode_block_columnar(&b200);

    c.bench_function("encode_block_columnar_200rows", |bch| {
        bch.iter(|| black_box(encode_block_columnar(&b200)))
    });
    // The columnar scan's per-block cost on a selective predicate:
    // parse the directory, decode the one Int predicate column,
    // evaluate, gather the handful of qualifying rows.
    c.bench_function("columnar_select_and_gather_200rows", |bch| {
        bch.iter(|| {
            let lazy = LazyBlock::parse(col_bytes.clone()).unwrap();
            let col = lazy.column(0).unwrap();
            let sel = col.eval(CmpOp::Lt, &Value::Int(10_000));
            black_box(lazy.gather_range(0, lazy.row_count(), &sel).unwrap())
        })
    });
    // Q19's lineitem selection on the encoded cells: two Str equalities
    // compared as bytes plus an Int range, narrowing one bitset, then
    // the gather of the survivors.
    let q19_bytes = encode_block_columnar(&q19_block(200, 5));
    let preds = [
        (1, CmpOp::Eq, Value::Str("DELIVER IN PERSON".into())),
        (2, CmpOp::Eq, Value::Str("AIR".into())),
        (0, CmpOp::Ge, Value::Int(10)),
        (0, CmpOp::Le, Value::Int(20)),
    ];
    c.bench_function("columnar_select_str_eq_200rows", |bch| {
        bch.iter(|| {
            let lazy = LazyBlock::parse(q19_bytes.clone()).unwrap();
            let mut sel = BitSet::all_set(lazy.row_count());
            for (attr, op, lit) in &preds {
                lazy.filter_into(*attr, *op, lit, &mut sel).unwrap();
            }
            black_box(lazy.gather_range(0, lazy.row_count(), &sel).unwrap())
        })
    });
    // Full materialization through the lazy path (worst case: nothing
    // filtered), where late materialization cannot help.
    c.bench_function("columnar_full_gather_200rows", |bch| {
        bch.iter(|| {
            let lazy = LazyBlock::parse(col_bytes.clone()).unwrap();
            let all = BitSet::all_set(lazy.row_count());
            black_box(lazy.gather_range(0, lazy.row_count(), &all).unwrap())
        })
    });
    // The same full gather where every cell is a string: the cost of
    // building (and dropping) 600 `Str` cells.
    let str_bytes = encode_block_columnar(&str_block(200, 7));
    c.bench_function("columnar_full_gather_str_200rows", |bch| {
        bch.iter(|| {
            let lazy = LazyBlock::parse(str_bytes.clone()).unwrap();
            let all = BitSet::all_set(lazy.row_count());
            black_box(lazy.gather_range(0, lazy.row_count(), &all).unwrap())
        })
    });
}

criterion_group!(benches, bench_columnar);
criterion_main!(benches);
