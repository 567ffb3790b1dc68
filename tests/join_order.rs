//! Order-exact join tests.
//!
//! Every join operator emits (probe id, build id) pairs and builds its
//! rows once, when they are asked for; a multi-way chain carries ids
//! from step to step. These tests pin that this changes nothing a
//! caller can see: each operator's output equals a nested-loop
//! reference *in output order* (not just as a multiset), with 0, 1, 2
//! and 5 build matches per probe key, with either side as the build
//! side, and through a chain of steps whose groups overlap. The split and
//! memory-budgeted reduce paths are pinned the same way in
//! `adaptdb_exec::shuffle_join`'s unit tests.

use adaptdb_common::{row, AttrId, CmpOp, Predicate, PredicateSet, Row, Value, ValueRange};
use adaptdb_dfs::SimClock;
use adaptdb_exec::{
    hash_join_rows, hyper_join, hyper_step_join, shuffle_join, ExecContext, HyperJoinSpec, Joined,
    ShuffleJoinSpec, ShuffleOptions, ShuffleService, StepGroup,
};
use adaptdb_join::{HyperJoinPlan, JoinSide};
use adaptdb_storage::{BlockStore, LazyBlock};

/// Distinct join keys on the build side.
const KEYS: i64 = 24;
const ROWS_PER_BLOCK: usize = 6;

/// Build-side matches of key `k`: 0, 1, 2 or 5.
fn matches_of(k: i64) -> usize {
    [0, 1, 2, 5][(k % 4) as usize]
}

/// Build rows `[key, payload]`: key `k` appears `matches_of(k)` times,
/// keys interleaved so equal keys are spread over blocks.
fn build_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for copy in 0..5 {
        for k in 0..KEYS {
            if copy < matches_of(k) {
                rows.push(row![k, format!("b{k}.{copy}")]);
            }
        }
    }
    rows
}

/// Probe rows `[key, payload]`: every build key in a scrambled order,
/// some twice, plus keys no build row has.
fn probe_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for i in 0..(KEYS + 24) {
        let k = (i * 7) % (KEYS + 6);
        rows.push(row![k, format!("p{i}")]);
        if i % 5 == 0 {
            rows.push(row![k, format!("p{i}'")]);
        }
    }
    rows
}

/// The nested-loop join in [`hash_join_rows`]'s order: the smaller
/// side (the left on a tie) is the inner loop, the other side drives
/// the outer loop in its order, and every output is `left ++ right`.
fn nested_loop(left: &[Row], right: &[Row], la: AttrId, ra: AttrId) -> Vec<Row> {
    let mut out = Vec::new();
    if left.len() <= right.len() {
        for r in right {
            for l in left.iter().filter(|l| l.get(la) == r.get(ra)) {
                out.push(l.concat(r));
            }
        }
    } else {
        for l in left {
            for r in right.iter().filter(|r| l.get(la) == r.get(ra)) {
                out.push(l.concat(r));
            }
        }
    }
    out
}

#[test]
fn hash_join_rows_matches_nested_loop_in_order() {
    let (build, probe) = (build_rows(), probe_rows());
    assert!(build.len() < probe.len());
    // The probe keys meet 0, 1, 2 and 5 build rows, and no other count.
    let mut seen = [false; 6];
    for p in &probe {
        seen[build.iter().filter(|b| b.get(0) == p.get(0)).count()] = true;
    }
    assert_eq!(seen, [true, true, true, false, false, true]);
    // Left builds (smaller), right builds (smaller), and a tie (left).
    let tie: Vec<Row> = probe[..build.len()].to_vec();
    for (left, right) in [(&build, &probe), (&probe, &build), (&build, &tie), (&tie, &build)] {
        let want = nested_loop(left, right, 0, 0);
        assert!(!want.is_empty());
        assert_eq!(hash_join_rows(left.clone(), right.clone(), 0, 0), want);
    }
}

/// `rows` written as blocks of [`ROWS_PER_BLOCK`] rows.
fn write_table(store: &BlockStore, table: &str, rows: &[Row]) -> Vec<u32> {
    rows.chunks(ROWS_PER_BLOCK).map(|c| store.write_block(table, c.to_vec(), 2, None)).collect()
}

/// Rows of `blocks` of `table` that pass `preds`, in block order.
fn stored(store: &BlockStore, table: &str, blocks: &[u32], preds: &PredicateSet) -> Vec<Row> {
    let mut rows = Vec::new();
    for &b in blocks {
        let block = store.read_block_unaccounted(table, b).unwrap();
        rows.extend(block.rows.into_iter().filter(|r| preds.matches(r)));
    }
    rows
}

#[test]
fn hyper_join_matches_nested_loop_in_order() {
    let store = BlockStore::new(4, 1, 7);
    // Sorted, so equal build keys share a group and probes meet up to
    // five matches inside one hash table.
    let mut build = build_rows();
    build.sort_by(|a, b| a.get(0).cmp(b.get(0)));
    let build_ids = write_table(&store, "b", &build);
    let probe_ids = write_table(&store, "p", &probe_rows());
    let build_preds = PredicateSet::none().and(Predicate::new(0, CmpOp::Lt, KEYS - 2));
    let probe_preds = PredicateSet::none().and(Predicate::new(0, CmpOp::Ge, 1i64));
    // Build blocks in groups of three; every group reads every probe
    // block (a superset of the overlap is still a correct schedule).
    let groups: Vec<Vec<u32>> = build_ids.chunks(3).map(<[u32]>::to_vec).collect();
    let probes = vec![probe_ids.clone(); groups.len()];
    for build_side in [JoinSide::Left, JoinSide::Right] {
        let plan = HyperJoinPlan {
            build_side,
            groups: groups.clone(),
            probes: probes.clone(),
            est_build_reads: 0,
            est_probe_reads: 0,
            c_hyj: 1.0,
        };
        // Reference: per group, per probe block, per probe row, the
        // group's build rows in block order.
        let mut want = Vec::new();
        for (g, pbs) in plan.groups.iter().zip(&plan.probes) {
            let build = stored(&store, "b", g, &build_preds);
            for p in stored(&store, "p", pbs, &probe_preds) {
                for b in build.iter().filter(|b| b.get(0) == p.get(0)) {
                    want.push(match build_side {
                        JoinSide::Left => b.concat(&p),
                        JoinSide::Right => p.concat(b),
                    });
                }
            }
        }
        assert!(want.len() > 40, "{} outputs", want.len());
        let (left_table, right_table, left_preds, right_preds) = match build_side {
            JoinSide::Left => ("b", "p", &build_preds, &probe_preds),
            JoinSide::Right => ("p", "b", &probe_preds, &build_preds),
        };
        for window in [1, 4] {
            let clock = SimClock::new();
            let ctx = ExecContext::new(&store, &clock).with_fetch_window(window);
            let got = hyper_join(
                ctx,
                HyperJoinSpec {
                    left_table,
                    right_table,
                    left_attr: 0,
                    right_attr: 0,
                    left_preds,
                    right_preds,
                    plan: &plan,
                },
            )
            .and_then(Joined::into_rows)
            .unwrap();
            assert_eq!(got, want, "{build_side:?} window={window}");
        }
    }
}

#[test]
fn hyper_step_join_matches_nested_loop_in_order() {
    let store = BlockStore::new(4, 1, 7);
    let mut build = build_rows();
    build.sort_by(|a, b| a.get(0).cmp(b.get(0)));
    let ids = write_table(&store, "c", &build);
    let preds = PredicateSet::none().and(Predicate::new(0, CmpOp::Neq, 6i64));
    // Overlapping group ranges: a probe row routes to two or three
    // groups; each build row still lives in exactly one group, and the
    // last group has no blocks at all.
    let half = ids.len() / 2;
    let groups = vec![
        StepGroup {
            blocks: ids[..half].to_vec(),
            range: ValueRange::new(Value::Int(0), Value::Int(14)),
        },
        StepGroup {
            blocks: ids[half..].to_vec(),
            range: ValueRange::new(Value::Int(8), Value::Int(KEYS)),
        },
        StepGroup { blocks: Vec::new(), range: ValueRange::new(Value::Int(0), Value::Int(KEYS)) },
    ];
    // Intermediate rows carry their key in column 1.
    let intermediate: Vec<Row> = probe_rows()
        .into_iter()
        .map(|r| Row::new(r.into_values().into_iter().rev().collect()))
        .collect();
    let want = step_reference(&store, "c", &groups, &preds, &intermediate, 1);
    assert!(want.len() > 40, "{} outputs", want.len());
    let clock = SimClock::new();
    let ctx = ExecContext::new(&store, &clock);
    let got = hyper_step_join(ctx, "c", groups, 0, &preds, intermediate.into(), 1, ROWS_PER_BLOCK)
        .and_then(Joined::into_rows)
        .unwrap();
    assert_eq!(got, want);
}

/// A step join's kernel order as a nested loop: per group, per
/// intermediate row whose column `attr` lies in the group's range, the
/// group's stored rows that pass `preds` and share the key (column 0),
/// in block order — every output `intermediate ++ stored`.
fn step_reference(
    store: &BlockStore,
    table: &str,
    groups: &[StepGroup],
    preds: &PredicateSet,
    intermediate: &[Row],
    attr: AttrId,
) -> Vec<Row> {
    let mut out = Vec::new();
    for g in groups {
        let stored_rows = stored(store, table, &g.blocks, preds);
        for p in intermediate.iter().filter(|p| g.range.contains(p.get(attr))) {
            for b in stored_rows.iter().filter(|b| b.get(0) == p.get(attr)) {
                out.push(p.concat(b));
            }
        }
    }
    out
}

/// Groups over `blocks` cut in `parts` pieces, with ranges `ranges`
/// (a group past the last piece has no blocks).
fn step_groups(blocks: &[u32], parts: usize, ranges: &[(i64, i64)]) -> Vec<StepGroup> {
    let per = blocks.len().div_ceil(parts);
    let mut pieces = blocks.chunks(per);
    ranges
        .iter()
        .map(|&(lo, hi)| StepGroup {
            blocks: pieces.next().map_or(Vec::new(), <[u32]>::to_vec),
            range: ValueRange::new(Value::Int(lo), Value::Int(hi)),
        })
        .collect()
}

/// A four-table chain: `a ⋈ b` by hyper-join, then two step joins
/// whose group ranges overlap, so one intermediate row lands in several
/// groups and a result carries ids through both steps. The rows come
/// back in the nested-loop order of every stage.
#[test]
fn four_table_chain_with_overlapping_step_groups_matches_nested_loop_in_order() {
    let store = BlockStore::new(4, 1, 7);
    let mut b = build_rows();
    b.sort_by(|x, y| x.get(0).cmp(y.get(0)));
    let (a_ids, b_ids) = (write_table(&store, "a", &probe_rows()), write_table(&store, "b", &b));
    // `c` rows `[key, d key]`: keys 0..KEYS, every third twice.
    let c: Vec<Row> =
        (0..KEYS).flat_map(|k| vec![row![k, (k * 5) % 11]; 1 + usize::from(k % 3 == 0)]).collect();
    let c_ids = write_table(&store, "c", &c);
    // `d` rows `[d key, payload]`: d keys 0..11, each once or twice.
    let d: Vec<Row> = (0..16i64).map(|i| row![(i * 7) % 11, format!("d{i}")]).collect();
    let d_ids = write_table(&store, "d", &d);
    let none = PredicateSet::none();
    let plan = HyperJoinPlan {
        build_side: JoinSide::Right,
        groups: b_ids.chunks(3).map(<[u32]>::to_vec).collect(),
        probes: vec![a_ids.clone(); b_ids.len().div_ceil(3)],
        est_build_reads: 0,
        est_probe_reads: 0,
        c_hyj: 1.0,
    };
    let c_groups = step_groups(&c_ids, 3, &[(0, 14), (8, KEYS), (4, 20)]);
    let d_groups = step_groups(&d_ids, 2, &[(0, 6), (3, 10), (0, 10)]);
    let c_preds = PredicateSet::none().and(Predicate::new(0, CmpOp::Neq, 9i64));
    let d_preds = PredicateSet::none().and(Predicate::new(0, CmpOp::Neq, 4i64));
    // Reference: the first join per group, per probe block, per probe
    // row, then each step as its nested loop.
    let mut first = Vec::new();
    for (g, pbs) in plan.groups.iter().zip(&plan.probes) {
        let build = stored(&store, "b", g, &none);
        for p in stored(&store, "a", pbs, &none) {
            first.extend(build.iter().filter(|b| b.get(0) == p.get(0)).map(|b| p.concat(b)));
        }
    }
    let second = step_reference(&store, "c", &c_groups, &c_preds, &first, 0);
    let want = step_reference(&store, "d", &d_groups, &d_preds, &second, 5);
    let in_groups = |groups: &[StepGroup], r: &Row, attr| {
        groups.iter().filter(|g| !g.blocks.is_empty() && g.range.contains(r.get(attr))).count()
    };
    assert!(first.iter().any(|r| in_groups(&c_groups, r, 0) > 1), "no row meets two c groups");
    assert!(second.iter().any(|r| in_groups(&d_groups, r, 5) > 1), "no row meets two d groups");
    assert!(want.len() > 40 && want.iter().all(|r| r.arity() == 8), "{} outputs", want.len());
    for window in [1, 4] {
        let clock = SimClock::new();
        let ctx = ExecContext::new(&store, &clock).with_fetch_window(window);
        let spec = HyperJoinSpec {
            left_table: "a",
            right_table: "b",
            left_attr: 0,
            right_attr: 0,
            left_preds: &none,
            right_preds: &none,
            plan: &plan,
        };
        let got = hyper_join(ctx, spec)
            .and_then(|j| hyper_step_join(ctx, "c", c_groups.clone(), 0, &c_preds, j, 0, 6))
            .and_then(|j| hyper_step_join(ctx, "d", d_groups.clone(), 0, &d_preds, j, 5, 6))
            .and_then(Joined::into_rows)
            .unwrap();
        assert_eq!(got, want, "window={window}");
    }
}

/// Every row of a reducer's drained runs, in arrival order.
fn decode(runs: Vec<LazyBlock>) -> Vec<Row> {
    runs.into_iter().flat_map(|run| run.into_block().unwrap().rows).collect()
}

#[test]
fn shuffle_join_matches_nested_loop_in_order() {
    let (build, probe) = (build_rows(), probe_rows());
    // Both orientations: the build rows on the left, then on the right.
    for (left_rows, right_rows) in [(&build, &probe), (&probe, &build)] {
        let store = BlockStore::new(2, 1, 5);
        let lids = write_table(&store, "l", left_rows);
        let rids = write_table(&store, "r", right_rows);
        let none = PredicateSet::none();
        let options = ShuffleOptions { partitions: Some(3), replication: 1, split_threshold: None };
        let clock = SimClock::new();
        let ctx = ExecContext::new(&store, &clock).with_shuffle(options);
        let got = shuffle_join(
            ctx,
            ShuffleJoinSpec {
                left_table: "l",
                left_blocks: &lids,
                right_table: "r",
                right_blocks: &rids,
                left_attr: 0,
                right_attr: 0,
                left_preds: &none,
                right_preds: &none,
                rows_per_block: ROWS_PER_BLOCK,
            },
        )
        .and_then(Joined::into_rows)
        .unwrap();
        // Reference: the same spill and fetch, then a nested loop per
        // partition in partition order.
        let clock = SimClock::new();
        let ctx = ExecContext::new(&store, &clock).with_shuffle(options);
        let svc = ShuffleService::new(ctx, 3, ROWS_PER_BLOCK, "ref").unwrap();
        let left = svc.spill_blocks("l", &lids, 0, &none).unwrap();
        let right = svc.spill_blocks("r", &rids, 0, &none).unwrap();
        let mut streams = svc.partition_streams();
        let mut seen = vec![0usize; svc.partitions()];
        svc.push_new_runs(&mut streams, &left, &mut seen, false);
        seen.fill(0);
        svc.push_new_runs(&mut streams, &right, &mut seen, true);
        let mut want = Vec::new();
        for mut stream in streams {
            let (l, r) = svc.drain_partition(&mut stream).unwrap();
            want.extend(nested_loop(&decode(l), &decode(r), 0, 0));
        }
        svc.cleanup();
        assert_eq!(want.len(), nested_loop(left_rows, right_rows, 0, 0).len());
        assert_eq!(got, want);
    }
}
