//! Property-based tests for the shared data model: ordering laws,
//! bitset algebra against a reference implementation, range algebra,
//! predicate semantics.

use adaptdb_common::{
    BitSet, CmpOp, Predicate, PredicateSet, Row, ShuffleStats, Value, ValueRange,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Double),
        "[a-z]{0,12}".prop_map(Value::from),
        any::<i32>().prop_map(Value::Date),
        any::<bool>().prop_map(Value::Bool),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `Value`'s ordering is a lawful total order: antisymmetric,
    /// transitive, and total on sampled triples.
    #[test]
    fn value_total_order_laws(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        // Totality + antisymmetry.
        match a.cmp(&b) {
            Ordering::Less => prop_assert_eq!(b.cmp(&a), Ordering::Greater),
            Ordering::Greater => prop_assert_eq!(b.cmp(&a), Ordering::Less),
            Ordering::Equal => prop_assert_eq!(b.cmp(&a), Ordering::Equal),
        }
        // Transitivity.
        if a <= b && b <= c {
            prop_assert!(a <= c);
        }
        // Consistency with PartialOrd.
        prop_assert_eq!(a.partial_cmp(&b), Some(a.cmp(&b)));
    }

    /// Equal values hash equally (the `Hash`/`Eq` contract, which the
    /// join hash tables rely on).
    #[test]
    fn value_hash_eq_contract(a in arb_value()) {
        let b = a.clone();
        prop_assert_eq!(a.stable_hash(), b.stable_hash());
    }

    /// BitSet behaves exactly like a set of indices.
    #[test]
    fn bitset_matches_reference_set(
        xs in prop::collection::btree_set(0usize..192, 0..40),
        ys in prop::collection::btree_set(0usize..192, 0..40),
    ) {
        let a = BitSet::from_indices(192, &xs.iter().copied().collect::<Vec<_>>());
        let b = BitSet::from_indices(192, &ys.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(a.count_ones(), xs.len());
        // union_count == |xs ∪ ys|
        let union_ref: BTreeSet<usize> = xs.union(&ys).copied().collect();
        prop_assert_eq!(a.union_count(&b), union_ref.len());
        // added_count == |ys \ xs|
        let added_ref: BTreeSet<usize> = ys.difference(&xs).copied().collect();
        prop_assert_eq!(a.added_count(&b), added_ref.len());
        // union_with materializes the same set.
        let mut u = a.clone();
        u.union_with(&b);
        let got: BTreeSet<usize> = u.iter_ones().collect();
        prop_assert_eq!(got, union_ref);
        // complement twice is identity; complement count is exact.
        prop_assert_eq!(a.complement().count_ones(), 192 - xs.len());
        prop_assert_eq!(&a.complement().complement(), &a);
    }

    /// Range insert/merge/contains/overlap are mutually consistent.
    #[test]
    fn range_algebra(vals in prop::collection::vec(-1000i64..1000, 1..20), probe in -1200i64..1200) {
        let mut r = ValueRange::empty();
        for v in &vals {
            r.insert(&Value::Int(*v));
        }
        let min = *vals.iter().min().unwrap();
        let max = *vals.iter().max().unwrap();
        prop_assert_eq!(r.min(), Some(&Value::Int(min)));
        prop_assert_eq!(r.max(), Some(&Value::Int(max)));
        // contains ⇔ within [min, max].
        prop_assert_eq!(r.contains(&Value::Int(probe)), probe >= min && probe <= max);
        // A range always overlaps itself; point ranges overlap iff contained.
        prop_assert!(r.overlaps(&r));
        let p = ValueRange::point(Value::Int(probe));
        prop_assert_eq!(r.overlaps(&p), r.contains(&Value::Int(probe)));
        // intersect is commutative.
        prop_assert_eq!(r.intersect(&p), p.intersect(&r));
    }

    /// Predicate row semantics agree with direct comparison, and range
    /// pruning never produces false negatives over point ranges.
    #[test]
    fn predicate_semantics(v in -100i64..100, x in -100i64..100) {
        let row = Row::new(vec![Value::Int(x)]);
        let point = ValueRange::point(Value::Int(x));
        for op in [CmpOp::Eq, CmpOp::Neq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            let p = Predicate::new(0, op, v);
            let expected = match op {
                CmpOp::Eq => x == v,
                CmpOp::Neq => x != v,
                CmpOp::Lt => x < v,
                CmpOp::Le => x <= v,
                CmpOp::Gt => x > v,
                CmpOp::Ge => x >= v,
            };
            prop_assert_eq!(p.matches(&row), expected);
            if expected {
                prop_assert!(p.may_match_range(&point), "{:?} false negative", op);
            }
        }
    }

    /// `range_for` narrows the domain soundly: every value satisfying the
    /// conjunction lies inside the narrowed range.
    #[test]
    fn range_for_soundness(
        lo in -50i64..0, hi in 1i64..50,
        bound_a in -60i64..60, bound_b in -60i64..60,
        probe in -50i64..50,
    ) {
        let domain = ValueRange::new(Value::Int(lo), Value::Int(hi));
        let ps = PredicateSet::none()
            .and(Predicate::new(0, CmpOp::Ge, bound_a))
            .and(Predicate::new(0, CmpOp::Le, bound_b));
        let narrowed = ps.range_for(0, &domain);
        let row = Row::new(vec![Value::Int(probe)]);
        if ps.matches(&row) && domain.contains(&Value::Int(probe)) {
            prop_assert!(
                narrowed.contains(&Value::Int(probe)),
                "{probe} satisfies predicates but fell outside narrowed range"
            );
        }
    }

    /// Row byte-size is positive and monotone under concatenation.
    #[test]
    fn row_byte_size_monotone(a in prop::collection::vec(arb_value(), 1..6),
                              b in prop::collection::vec(arb_value(), 1..6)) {
        let ra = Row::new(a);
        let rb = Row::new(b);
        let rc = ra.concat(&rb);
        prop_assert_eq!(rc.arity(), ra.arity() + rb.arity());
        prop_assert!(rc.byte_size() >= ra.byte_size());
        prop_assert!(rc.byte_size() >= rb.byte_size());
    }

    /// `ShuffleStats::merge` is order-independent: rate fields are
    /// sums and gauge fields (`max_recursion_depth`,
    /// `peak_reducer_mem_blocks`) are maxima — both commutative and
    /// associative — so folding any permutation of the same per-query
    /// tallies must produce the identical server-wide aggregate. This
    /// is what lets `ServerReport` merge worker-completed queries in
    /// whatever order they finish.
    #[test]
    fn shuffle_stats_merge_is_order_independent(
        parts in prop::collection::vec(
            (0usize..100, 0usize..100, 0usize..100, 0usize..100, 0usize..8, 0usize..64),
            1..10,
        ),
        seed in any::<u64>(),
    ) {
        let stats: Vec<ShuffleStats> = parts
            .iter()
            .map(|&(runs, spilled, local, remote, depth, peak)| ShuffleStats {
                runs_written: runs,
                blocks_spilled: spilled,
                bytes_spilled: spilled * 4096 + runs,
                local_fetches: local,
                remote_fetches: remote,
                build_blocks_spilled: spilled % 7,
                broadcast_fetches: local % 5,
                split_partitions: remote % 3,
                max_recursion_depth: depth,
                peak_reducer_mem_blocks: peak,
            })
            .collect();
        let fold = |xs: &[&ShuffleStats]| {
            let mut acc = ShuffleStats::default();
            for x in xs {
                acc.merge(x);
            }
            acc
        };
        let forward: Vec<&ShuffleStats> = stats.iter().collect();
        let reversed: Vec<&ShuffleStats> = stats.iter().rev().collect();
        let mut rng = adaptdb_common::rng::derived(seed, "merge-order");
        let perm = adaptdb_common::rng::sample_indices(&mut rng, stats.len(), stats.len());
        let shuffled: Vec<&ShuffleStats> = perm.iter().map(|&i| &stats[i]).collect();
        let a = fold(&forward);
        prop_assert_eq!(&a, &fold(&reversed));
        prop_assert_eq!(&a, &fold(&shuffled));
    }
}
