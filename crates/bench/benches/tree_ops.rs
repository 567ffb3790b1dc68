//! Criterion microbenchmarks of partitioning-tree operations: build
//! (upfront and two-phase), routing, lookup, and Amoeba's proposal step
//! with its candidate memo hit and missed.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use adaptdb_common::rng::seeded;
use adaptdb_common::{CmpOp, Predicate, PredicateSet, Row, Value};
use adaptdb_tree::{
    Adapter, CandidateMemo, QueryWindow, TwoPhaseBuilder, UpfrontPartitioner, WindowEntry,
};
use rand::RngExt;

fn sample(n: usize, arity: usize, seed: u64) -> Vec<Row> {
    let mut rng = seeded(seed);
    (0..n)
        .map(|_| Row::new((0..arity).map(|_| Value::Int(rng.random_range(0..1_000_000))).collect()))
        .collect()
}

fn bench_tree_ops(c: &mut Criterion) {
    let rows = sample(4000, 4, 3);

    c.bench_function("upfront_build_depth8", |b| {
        let p = UpfrontPartitioner::new(4, vec![0, 1, 2, 3], 8, 5);
        b.iter(|| black_box(p.build(&rows)))
    });
    c.bench_function("two_phase_build_depth8", |b| {
        let p = TwoPhaseBuilder::new(4, 0, 4, vec![1, 2, 3], 8, 5);
        b.iter(|| black_box(p.build(&rows)))
    });

    let tree = TwoPhaseBuilder::new(4, 0, 4, vec![1, 2, 3], 8, 5).build(&rows);
    c.bench_function("route_row", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % rows.len();
            black_box(tree.route(&rows[i]))
        })
    });
    c.bench_function("lookup_point_query", |b| {
        let preds = PredicateSet::none().and(Predicate::new(0, CmpOp::Eq, 500_000i64));
        b.iter(|| black_box(tree.lookup(&preds)))
    });
    c.bench_function("lookup_range_query", |b| {
        let preds = PredicateSet::none()
            .and(Predicate::new(0, CmpOp::Ge, 250_000i64))
            .and(Predicate::new(0, CmpOp::Lt, 750_000i64));
        b.iter(|| black_box(tree.lookup(&preds)))
    });

    // Amoeba's proposal on a tree partitioned on attr 0 while the window
    // filters attr 2: a hit reuses the memoised candidate subtrees and
    // only scores them; a miss (an empty memo) rebuilds every one.
    let upfront = UpfrontPartitioner::new(4, vec![0], 8, 5).build(&rows);
    let mut window = QueryWindow::new(10);
    for i in 0..10i64 {
        window.push(WindowEntry {
            join_attr: None,
            predicates: PredicateSet::none().and(Predicate::new(2, CmpOp::Lt, 1_000 * (i + 1))),
        });
    }
    let adapter = Adapter::default();
    c.bench_function("adapt_propose_hit", |b| {
        let mut memo = CandidateMemo::default();
        b.iter(|| black_box(adapter.propose_with(&upfront, &rows, 0, &window, &mut memo)))
    });
    c.bench_function("adapt_propose_miss", |b| {
        b.iter(|| {
            let mut memo = CandidateMemo::default();
            black_box(adapter.propose_with(&upfront, &rows, 0, &window, &mut memo))
        })
    });
}

criterion_group!(benches, bench_tree_ops);
criterion_main!(benches);
