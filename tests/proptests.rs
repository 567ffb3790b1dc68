//! Property-based tests over the core invariants, spanning crates.

use adaptdb_common::{CmpOp, Predicate, PredicateSet, Row, Value, ValueRange};
use adaptdb_join::{approx, bottom_up, exact, OverlapMatrix};
use adaptdb_storage::codec::{decode_block, encode_block_columnar};
use adaptdb_storage::{Block, Reservoir};
use adaptdb_tree::{TwoPhaseBuilder, UpfrontPartitioner};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Double),
        "[a-zA-Z0-9 ]{0,24}".prop_map(Value::from),
        any::<i32>().prop_map(Value::Date),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn arb_row(arity: usize) -> impl Strategy<Value = Row> {
    prop::collection::vec(arb_value(), arity).prop_map(Row::new)
}

/// Rows of `arity` columns, each column of one random type.
fn arb_typed_rows(arity: usize, rows: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Row>> {
    (prop::collection::vec(0usize..5, arity), prop::collection::vec(arb_cells(arity), rows))
        .prop_map(|(types, rows)| {
            rows.into_iter()
                .map(|cells| {
                    Row::new(cells.into_iter().zip(&types).map(|(c, &t)| c[t].clone()).collect())
                })
                .collect()
        })
}

/// Per column, one cell of every type (Int, Double, Str, Date, Bool).
fn arb_cells(arity: usize) -> impl Strategy<Value = Vec<Vec<Value>>> {
    let cells = (any::<i64>(), any::<f64>(), "[a-zA-Z0-9 ]{0,24}", any::<i32>(), any::<bool>());
    prop::collection::vec(cells, arity).prop_map(|cols| {
        cols.into_iter()
            .map(|(i, d, s, date, b)| {
                vec![
                    Value::Int(i),
                    Value::Double(d),
                    Value::from(s),
                    Value::Date(date),
                    Value::Bool(b),
                ]
            })
            .collect()
    })
}

fn arb_range() -> impl Strategy<Value = ValueRange> {
    (0i64..2_000, 1i64..400).prop_map(|(lo, w)| ValueRange::new(Value::Int(lo), Value::Int(lo + w)))
}

fn arb_int_rows(n: usize, arity: usize) -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(
        prop::collection::vec(0i64..10_000, arity)
            .prop_map(|vs| Row::new(vs.into_iter().map(Value::Int).collect())),
        n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The block codec is a lossless round trip for any rows typed per
    /// column.
    #[test]
    fn codec_round_trips(rows in arb_typed_rows(3, 0..40), id in any::<u32>()) {
        let block = Block::new(id, rows);
        let decoded = decode_block(encode_block_columnar(&block)).unwrap();
        prop_assert_eq!(decoded, block);
    }

    /// Truncating an encoded block never decodes successfully.
    #[test]
    fn codec_rejects_any_truncation(rows in arb_typed_rows(2, 1..8)) {
        let enc = encode_block_columnar(&Block::new(0, rows));
        // Sample a handful of cut points rather than all (speed).
        let step = (enc.len() / 7).max(1);
        for cut in (1..enc.len()).step_by(step) {
            prop_assert!(decode_block(enc.slice(0..cut)).is_err());
        }
    }

    /// Offering rows in batches keeps exactly the sample, and the count,
    /// that offering them one by one does — whatever the capacity, the
    /// seed, and where the batches split.
    #[test]
    fn reservoir_batch_offer_equals_per_row_offer(
        capacity in 1usize..40,
        seed in any::<u64>(),
        n in 0usize..300,
        cuts in prop::collection::vec(0usize..300, 0..6),
    ) {
        let rows: Vec<Row> = (0..n as i64).map(|i| Row::new(vec![Value::Int(i)])).collect();
        let mut one_by_one = Reservoir::new(capacity, seed);
        let mut batched = Reservoir::new(capacity, seed);
        let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c.min(n)).collect();
        bounds.push(n);
        bounds.sort_unstable();
        let mut start = 0;
        for end in bounds {
            for r in &rows[start..end] {
                one_by_one.offer(r.clone());
            }
            batched.offer_all(&rows[start..end]);
            prop_assert_eq!(batched.rows(), one_by_one.rows());
            prop_assert_eq!(batched.seen(), one_by_one.seen());
            start = end;
        }
    }

    /// Range overlap is symmetric and consistent with intersection.
    #[test]
    fn overlap_symmetry_and_intersection(a in arb_range(), b in arb_range()) {
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
        prop_assert_eq!(a.overlaps(&b), !a.intersect(&b).is_empty());
    }

    /// The sweep overlap computation agrees with the naive O(nm) one.
    #[test]
    fn overlap_sweep_equals_naive(
        rr in prop::collection::vec(arb_range(), 0..24),
        ss in prop::collection::vec(arb_range(), 0..24),
    ) {
        prop_assert_eq!(
            OverlapMatrix::compute_sweep(&rr, &ss),
            OverlapMatrix::compute_naive(&rr, &ss)
        );
    }

    /// Every grouping algorithm returns a valid partitioning whose cost
    /// is bounded below by the ideal (distinct S blocks) and above by the
    /// singleton grouping, and the exact solver is never beaten.
    #[test]
    fn grouping_invariants(
        rr in prop::collection::vec(arb_range(), 1..12),
        ss in prop::collection::vec(arb_range(), 1..10),
        cap in 1usize..5,
    ) {
        let m = OverlapMatrix::compute_naive(&rr, &ss);
        let ideal = m.distinct_s_blocks();
        let singleton: usize = (0..m.n()).map(|i| m.delta(i)).sum();

        let bu = bottom_up::solve(&m, cap);
        prop_assert!(bu.validate(m.n(), cap));
        prop_assert!(bu.cost() >= ideal);
        prop_assert!(bu.cost() <= singleton);

        let ag = approx::solve(&m, cap, approx::InnerStrategy::Greedy);
        prop_assert!(ag.validate(m.n(), cap));

        let ex = exact::solve(&m, cap, 2_000_000);
        prop_assert!(ex.grouping.validate(m.n(), cap));
        prop_assert!(ex.cost <= bu.cost());
        prop_assert!(ex.cost <= ag.cost());
        prop_assert!(ex.cost >= ideal);
    }

    /// Partitioning trees route every row to a bucket that lookup finds
    /// for the matching point query, for any tree shape the builders
    /// produce.
    #[test]
    fn tree_routing_lookup_consistency(
        rows in arb_int_rows(80, 3),
        depth in 1usize..6,
        join_levels in 0usize..3,
    ) {
        let join_levels = join_levels.min(depth);
        let tree = TwoPhaseBuilder::new(3, 0, join_levels, vec![1, 2], depth, 7)
            .build(&rows);
        for row in rows.iter().take(25) {
            let bucket = tree.route(row);
            let q = PredicateSet::none()
                .and(Predicate::new(0, CmpOp::Eq, row.get(0).clone()))
                .and(Predicate::new(1, CmpOp::Eq, row.get(1).clone()))
                .and(Predicate::new(2, CmpOp::Eq, row.get(2).clone()));
            prop_assert!(tree.lookup(&q).contains(&bucket));
        }
    }

    /// Upfront trees: lookup(no predicates) returns every bucket exactly
    /// once, and tree serialization round-trips.
    #[test]
    fn upfront_tree_wellformedness(rows in arb_int_rows(60, 2), depth in 0usize..6) {
        let tree = UpfrontPartitioner::new(2, vec![0, 1], depth, 3).build(&rows);
        let mut buckets = tree.lookup(&PredicateSet::none());
        let n = buckets.len();
        prop_assert_eq!(n, tree.bucket_count());
        buckets.sort_unstable();
        buckets.dedup();
        prop_assert_eq!(buckets.len(), n, "buckets must be unique");
        let decoded = adaptdb_tree::PartitionTree::decode(tree.encode()).unwrap();
        prop_assert_eq!(decoded, tree);
    }

    /// Predicate range pruning never loses matching rows: if a row
    /// matches the predicate set, the block-range test over that row's
    /// singleton ranges must pass.
    #[test]
    fn predicate_pruning_safety(row in arb_row(3), v in 0i64..100) {
        for op in [CmpOp::Eq, CmpOp::Neq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            let preds = PredicateSet::none().and(Predicate::new(1, op, v));
            let ranges: Vec<ValueRange> =
                row.values().iter().map(|x| ValueRange::point(x.clone())).collect();
            if preds.matches(&row) {
                prop_assert!(preds.may_match(&ranges), "pruned a matching row under {op:?}");
            }
        }
    }
}

/// Hyper-join and shuffle-join return identical multisets of rows on
/// randomly generated co-partitioned and non-co-partitioned tables.
#[test]
fn join_executors_agree_randomized() {
    use adaptdb::{Database, DbConfig, Mode};
    use adaptdb_common::{JoinQuery, Query, ScanQuery, Schema, ValueType};
    use rand::RngExt;

    let schema = Schema::from_pairs(&[("k", ValueType::Int), ("x", ValueType::Int)]);
    let mut rng = adaptdb_common::rng::seeded(99);
    for case in 0..6 {
        let nl = rng.random_range(50..300usize);
        let nr = rng.random_range(20..120usize);
        let key_space = rng.random_range(10..80i64);
        let l: Vec<Row> = (0..nl)
            .map(|i| {
                Row::new(vec![Value::Int(rng.random_range(0..key_space)), Value::Int(i as i64)])
            })
            .collect();
        let r: Vec<Row> = (0..nr)
            .map(|i| {
                Row::new(vec![Value::Int(rng.random_range(0..key_space)), Value::Int(i as i64)])
            })
            .collect();
        let q = Query::Join(JoinQuery::new(ScanQuery::full("l"), ScanQuery::full("r"), 0, 0));

        let mut counts = Vec::new();
        for mode in [Mode::Fixed, Mode::FullScan] {
            let config = DbConfig { rows_per_block: 16, buffer_blocks: 2, ..DbConfig::small() }
                .with_mode(mode);
            let mut db = Database::new(config);
            db.create_table("l", schema.clone(), vec![1]).unwrap();
            db.create_table("r", schema.clone(), vec![1]).unwrap();
            db.load_two_phase("l", l.clone(), 0, None).unwrap();
            db.load_two_phase("r", r.clone(), 0, None).unwrap();
            let res = db.run(&q).unwrap();
            let mut rows: Vec<Vec<Value>> = res.rows.iter().map(|r| r.values().to_vec()).collect();
            rows.sort();
            counts.push(rows);
        }
        assert_eq!(counts[0], counts[1], "case {case}: hyper vs shuffle disagree");
    }
}
