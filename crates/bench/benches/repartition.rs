//! Criterion microbenchmarks of adaptation's two wall-clock costs: one
//! migration step (the repartitioning iterator, §5.2/§6) and the
//! dispatch of a small fan-out through the shared worker pool.
//!
//! `repartition_32_blocks_64_buckets` migrates 32 lineitem-shaped
//! blocks (200 rows each) into a 64-bucket two-phase tree whose every
//! bucket already ends in an underfull tail, so the step reads the
//! sources, absorbs the tails and writes packed blocks. Retirement is
//! deferred and the written blocks are removed after each iteration,
//! so every iteration does the same work on the same store.
//!
//! `map_ordered_8_tiny_items` is the per-call overhead of
//! `parallel::map_ordered` at two threads when the items themselves
//! cost next to nothing.

use std::collections::BTreeMap;
use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};

use adaptdb_common::BlockId;
use adaptdb_dfs::SimClock;
use adaptdb_exec::{parallel, repartition_blocks_with, RetireMode};
use adaptdb_storage::writer::BucketId;
use adaptdb_storage::BlockStore;
use adaptdb_tree::TwoPhaseBuilder;
use adaptdb_workloads::tpch::li;
use adaptdb_workloads::TpchGen;

const ROWS_PER_BLOCK: usize = 200;
const SOURCES: usize = 32;
const TAIL_ROWS: usize = 40;

fn bench_repartition(c: &mut Criterion) {
    let rows = TpchGen::new(0.3, 5).lineitem();
    let arity = TpchGen::lineitem_schema().len();
    let tree = TwoPhaseBuilder::new(
        arity,
        li::ORDERKEY,
        3,
        vec![li::SHIPDATE, li::QUANTITY, li::DISCOUNT],
        6,
        7,
    )
    .build(&rows[..2000]);
    assert_eq!(tree.bucket_count(), 64);
    let store = BlockStore::new(10, 3, 1);
    let (sources, rest) = rows.split_at(SOURCES * ROWS_PER_BLOCK);
    let blocks: Vec<BlockId> = sources
        .chunks(ROWS_PER_BLOCK)
        .map(|chunk| store.write_block("lineitem", chunk.to_vec(), arity, None))
        .collect();
    let mut by_bucket: BTreeMap<BucketId, Vec<_>> = BTreeMap::new();
    for row in rest {
        by_bucket.entry(tree.route(row)).or_default().push(row.clone());
    }
    let existing: BTreeMap<BucketId, Vec<BlockId>> = by_bucket
        .into_iter()
        .map(|(bucket, rows)| {
            let tail = rows.into_iter().take(TAIL_ROWS).collect();
            (bucket, vec![store.write_block("lineitem", tail, arity, None)])
        })
        .collect();
    assert_eq!(existing.len(), 64, "every bucket has an underfull tail");

    let clock = SimClock::maintenance();
    c.bench_function("repartition_32_blocks_64_buckets", |b| {
        b.iter(|| {
            let out = repartition_blocks_with(
                &store,
                &clock,
                "lineitem",
                &blocks,
                &tree,
                ROWS_PER_BLOCK,
                &existing,
                RetireMode::Deferred,
                1,
            )
            .unwrap();
            for &id in out.added.values().flatten() {
                store.remove_block("lineitem", id).unwrap();
            }
            black_box(out)
        })
    });

    c.bench_function("map_ordered_8_tiny_items", |b| {
        b.iter(|| black_box(parallel::map_ordered((0..8u64).collect(), 2, |x| x * 3)))
    });
}

criterion_group!(benches, bench_repartition);
criterion_main!(benches);
