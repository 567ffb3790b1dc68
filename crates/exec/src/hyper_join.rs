//! Hyper-join execution (§4.1, §6).
//!
//! Each group of the plan becomes one task: read the group's build
//! blocks, build a hash table (bounded by the memory budget the planner
//! already enforced), then stream exactly the group's overlapping probe
//! blocks through it. No shuffle: probe blocks are read (possibly more
//! than once across groups — that is `C_HyJ`), never rewritten.
//!
//! The probe leg reads through the shared ordered-fetch helper: the
//! group's probe blocks stream through an
//! [`adaptdb_storage::FetchStream`] of the context's window, pinned to
//! the group's node, and come back in plan order — a window of 1 reads
//! one block at a time, a wider one overlaps reads; block counts and
//! output are identical either way. Build reads stay plain serial
//! reads: windowing them would change the simulated seconds.
//!
//! Both legs materialise late. A build block is selected column-wise
//! and stays encoded: the hash table maps the selected rows' key cells
//! to (block, row) ids. A probe block is selected the same way, and
//! the selected rows go through the probe kernel the shuffle reducers
//! share (`hash_table::Build::probe_block`): each key cell is looked up
//! where it lies, and each match is kept as a (probe id, build id)
//! pair. The join returns those ids ([`Joined`]) with the blocks they
//! point into, probe blocks that matched nothing dropped; its rows are
//! built once, when the query returns.

use adaptdb_common::{AttrId, PredicateSet, Result};
use adaptdb_join::{HyperJoinPlan, JoinSide};

use crate::context::ExecContext;
use crate::hash_table::Build;
use crate::joined::{pair, Joined, RowId, Source};
use crate::scan::{fetch_ordered, read_select, select_block};

/// Everything needed to execute one hyper-join.
#[derive(Debug, Clone)]
pub struct HyperJoinSpec<'a> {
    /// Left table name.
    pub left_table: &'a str,
    /// Right table name.
    pub right_table: &'a str,
    /// Join attribute on the left side.
    pub left_attr: AttrId,
    /// Join attribute on the right side.
    pub right_attr: AttrId,
    /// Row-level predicates on the left side.
    pub left_preds: &'a PredicateSet,
    /// Row-level predicates on the right side.
    pub right_preds: &'a PredicateSet,
    /// The block schedule produced by the planner.
    pub plan: &'a HyperJoinPlan,
}

/// Execute a hyper-join; output rows are `left ⋈ right` (left columns
/// first) regardless of which side the hash tables were built on.
pub fn hyper_join(ctx: ExecContext<'_>, spec: HyperJoinSpec<'_>) -> Result<Joined> {
    let (build_table, probe_table, build_attr, probe_attr, build_preds, probe_preds) =
        match spec.plan.build_side {
            JoinSide::Left => (
                spec.left_table,
                spec.right_table,
                spec.left_attr,
                spec.right_attr,
                spec.left_preds,
                spec.right_preds,
            ),
            JoinSide::Right => (
                spec.right_table,
                spec.left_table,
                spec.right_attr,
                spec.left_attr,
                spec.right_preds,
                spec.left_preds,
            ),
        };

    let mut out = Joined::default();
    for (build_blocks, probe_blocks) in spec.plan.groups.iter().zip(&spec.plan.probes) {
        out.extend(run_group(
            ctx,
            build_table,
            probe_table,
            build_attr,
            probe_attr,
            build_preds,
            probe_preds,
            spec.plan.build_side,
            build_blocks,
            probe_blocks,
        )?);
    }
    Ok(out)
}

/// Run one group.
#[allow(clippy::too_many_arguments)]
fn run_group(
    ctx: ExecContext<'_>,
    build_table: &str,
    probe_table: &str,
    build_attr: AttrId,
    probe_attr: AttrId,
    build_preds: &PredicateSet,
    probe_preds: &PredicateSet,
    build_side: JoinSide,
    build_blocks: &[u32],
    probe_blocks: &[u32],
) -> Result<Joined> {
    if build_blocks.is_empty() {
        return Ok(Joined::default());
    }
    // The whole group runs on the node holding the first build block's
    // primary replica (a locality-aware scheduler would do the same);
    // other blocks may be remote reads.
    let node = ctx.store.preferred_node(build_table, build_blocks[0])?;

    let mut build = Build::blocks();
    for &b in build_blocks {
        let (lazy, sel) = read_select(ctx, build_table, b, node, build_preds)?;
        build.add_block(lazy, build_attr, &sel)?;
    }
    // Probe windows are not traced: the caller's `hyper-join` span
    // already reports the leg's block reads. Each probe block's
    // predicates select, then the shared kernel probes the selected
    // rows.
    let probed =
        fetch_ordered(ctx.with_trace(None), probe_table, probe_blocks, Some(node), |lazy| {
            let sel = select_block(ctx, &lazy, probe_preds)?;
            let mut hits = Vec::new();
            build.probe_block(&lazy, probe_attr, &sel, |row, id| hits.push((row, id)))?;
            Ok((lazy, hits))
        })?;
    // Normalize output to left ⋈ right column order.
    let probe_left = build_side == JoinSide::Right;
    let (mut probes, mut ids) = (Vec::new(), Vec::new());
    ids.reserve_exact(2 * probed.iter().map(|(_, hits)| hits.len()).sum::<usize>());
    for (lazy, hits) in probed.into_iter().filter(|(_, hits)| !hits.is_empty()) {
        let src = probes.len() as u32;
        ids.extend(hits.into_iter().flat_map(|(row, b)| pair(RowId { src, row }, b, probe_left)));
        probes.push(Source::Block(lazy));
    }
    Ok(Joined::binary(probes, build.into_sources(), ids, probe_left))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::{row, CmpOp, CostParams, Predicate, Row, Value, ValueRange};
    use adaptdb_dfs::SimClock;
    use adaptdb_join::planner::{plan, BlockRange};
    use adaptdb_join::{HyperJoinPlan, JoinDecision};
    use adaptdb_storage::BlockStore;

    /// Build two co-partitioned tables: left has keys 0..n with payload,
    /// right has the same keys with another payload; k keys per block.
    fn setup(n: i64, per_block: i64) -> (BlockStore, Vec<BlockRange>, Vec<BlockRange>) {
        let store = BlockStore::new(4, 1, 1);
        let mut left = Vec::new();
        let mut right = Vec::new();
        let mut k = 0i64;
        while k < n {
            let hi = (k + per_block).min(n);
            let lrows = (k..hi).map(|i| row![i, i * 10]).collect();
            let rrows = (k..hi).map(|i| row![i, i * 100]).collect();
            let lb = store.write_block("l", lrows, 2, None);
            let rb = store.write_block("r", rrows, 2, None);
            left.push((lb, ValueRange::new(Value::Int(k), Value::Int(hi - 1))));
            right.push((rb, ValueRange::new(Value::Int(k), Value::Int(hi - 1))));
            k = hi;
        }
        (store, left, right)
    }

    fn run(
        store: &BlockStore,
        left: &[BlockRange],
        right: &[BlockRange],
        buffer: usize,
    ) -> (Vec<Row>, adaptdb_common::IoStats) {
        let decision = plan(left, right, buffer, &CostParams::default());
        let JoinDecision::Hyper(p) = decision else { panic!("expected hyper-join") };
        let clock = SimClock::new();
        let none = PredicateSet::none();
        let rows = hyper_join(
            ExecContext::new(store, &clock),
            HyperJoinSpec {
                left_table: "l",
                right_table: "r",
                left_attr: 0,
                right_attr: 0,
                left_preds: &none,
                right_preds: &none,
                plan: &p,
            },
        )
        .and_then(Joined::into_rows)
        .unwrap();
        (rows, clock.snapshot())
    }

    #[test]
    fn co_partitioned_join_is_complete_and_correct() {
        let (store, left, right) = setup(64, 8);
        let (mut rows, io) = run(&store, &left, &right, 2);
        assert_eq!(rows.len(), 64);
        rows.sort_by_key(|r| r.get(0).as_int().unwrap());
        for (i, r) in rows.iter().enumerate() {
            let i = i as i64;
            assert_eq!(
                r.values(),
                &[Value::Int(i), Value::Int(i * 10), Value::Int(i), Value::Int(i * 100)]
            );
        }
        // Co-partitioned: 8 build reads + 8 probe reads.
        assert_eq!(io.reads(), 16);
        assert_eq!(io.writes, 0, "hyper-join must not shuffle");
    }

    /// Parallelism comes from queries running side by side: joins on
    /// their own threads over one store, released together, each on its
    /// own clock, return the sequential run's rows in order and its
    /// counts.
    #[test]
    fn parallel_execution_matches_sequential() {
        let (store, left, right) = setup(100, 10);
        let want = run(&store, &left, &right, 3);
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            let side_by_side: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        run(&store, &left, &right, 3)
                    })
                })
                .collect();
            for h in side_by_side {
                assert_eq!(h.join().unwrap(), want);
            }
        });
    }

    #[test]
    fn output_column_order_is_left_then_right_even_building_right() {
        // Make left much larger so the planner builds on the right.
        let store = BlockStore::new(4, 1, 1);
        let mut left = Vec::new();
        for b in 0..8i64 {
            let rows = (b * 10..b * 10 + 10).map(|i| row![i, 7i64]).collect();
            let id = store.write_block("l", rows, 2, None);
            left.push((id, ValueRange::new(Value::Int(b * 10), Value::Int(b * 10 + 9))));
        }
        let rrows = (0..80i64).map(|i| row![i, 9i64]).collect();
        let rid = store.write_block("r", rrows, 2, None);
        let right = vec![(rid, ValueRange::new(Value::Int(0), Value::Int(79)))];

        let decision = plan(&right, &left, 4, &CostParams::default());
        // Plan with right as the "left" argument to force build_side games;
        // instead use the public API directly:
        let JoinDecision::Hyper(p) = plan(&left, &right, 4, &CostParams::default()) else {
            panic!("expected hyper");
        };
        drop(decision);
        let clock = SimClock::new();
        let none = PredicateSet::none();
        let rows = hyper_join(
            ExecContext::new(&store, &clock),
            HyperJoinSpec {
                left_table: "l",
                right_table: "r",
                left_attr: 0,
                right_attr: 0,
                left_preds: &none,
                right_preds: &none,
                plan: &p,
            },
        )
        .and_then(Joined::into_rows)
        .unwrap();
        assert_eq!(rows.len(), 80);
        for r in &rows {
            assert_eq!(r.get(1), &Value::Int(7), "left payload must be column 1");
            assert_eq!(r.get(3), &Value::Int(9), "right payload must be column 3");
        }
    }

    #[test]
    fn predicates_filter_both_sides() {
        let (store, left, right) = setup(40, 5);
        let JoinDecision::Hyper(p) = plan(&left, &right, 2, &CostParams::default()) else {
            panic!()
        };
        let clock = SimClock::new();
        let lp = PredicateSet::none().and(Predicate::new(0, CmpOp::Lt, 20i64));
        let rp = PredicateSet::none().and(Predicate::new(0, CmpOp::Ge, 10i64));
        let rows = hyper_join(
            ExecContext::new(&store, &clock),
            HyperJoinSpec {
                left_table: "l",
                right_table: "r",
                left_attr: 0,
                right_attr: 0,
                left_preds: &lp,
                right_preds: &rp,
                plan: &p,
            },
        )
        .and_then(Joined::into_rows)
        .unwrap();
        // Keys in [10, 20).
        assert_eq!(rows.len(), 10);
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

    /// The kernel's documented order as a nested loop over the plan:
    /// per group, per probe block in the group's probe list, per probe
    /// row that passes its predicates, the group's build rows that pass
    /// theirs and share the key, in build-block order — every output
    /// `left ⋈ right`. Keys are column 0 of both tables.
    fn nested_loop(store: &BlockStore, spec: &HyperJoinSpec<'_>) -> Vec<Row> {
        let p = spec.plan;
        let (build, probe, build_preds, probe_preds) = match p.build_side {
            JoinSide::Left => {
                (spec.left_table, spec.right_table, spec.left_preds, spec.right_preds)
            }
            JoinSide::Right => {
                (spec.right_table, spec.left_table, spec.right_preds, spec.left_preds)
            }
        };
        let mut out = Vec::new();
        for (group, probes) in p.groups.iter().zip(&p.probes) {
            let build_rows = stored(store, build, group, build_preds);
            for pr in stored(store, probe, probes, probe_preds) {
                for b in build_rows.iter().filter(|b| b.get(0) == pr.get(0)) {
                    out.push(match p.build_side {
                        JoinSide::Left => b.concat(&pr),
                        JoinSide::Right => pr.concat(b),
                    });
                }
            }
        }
        out
    }

    /// The join must return the nested-loop reference's rows in the same
    /// order, with the same counts at every fetch window, with
    /// predicates filtering both sides.
    #[test]
    fn columnar_and_pipelined_probe_match_row_join() {
        let (store, left, right) = setup(64, 8);
        let JoinDecision::Hyper(p) = plan(&left, &right, 2, &CostParams::default()) else {
            panic!("expected hyper-join")
        };
        let lp = PredicateSet::none().and(Predicate::new(0, CmpOp::Ge, 8i64));
        let rp = PredicateSet::none().and(Predicate::new(0, CmpOp::Lt, 56i64));
        let spec = HyperJoinSpec {
            left_table: "l",
            right_table: "r",
            left_attr: 0,
            right_attr: 0,
            left_preds: &lp,
            right_preds: &rp,
            plan: &p,
        };
        let expect = nested_loop(&store, &spec);
        assert_eq!(expect.len(), 48);
        let base_clock = SimClock::new();
        let first = hyper_join(ExecContext::new(&store, &base_clock), spec.clone())
            .and_then(Joined::into_rows)
            .unwrap();
        let base_io = base_clock.take();
        assert_eq!(first, expect);
        for window in [1, 4] {
            let clock = SimClock::new();
            let ctx = ExecContext::new(&store, &clock).with_fetch_window(window);
            let got = hyper_join(ctx, spec.clone()).and_then(Joined::into_rows).unwrap();
            assert_eq!(got, first, "w={window}");
            assert_eq!(clock.take(), base_io, "w={window}");
        }
    }

    /// Keys repeat on both sides, and most build rows match nothing:
    /// the join still returns the nested loop's rows in its order, with
    /// either side building, `Int` and `Str` keys, and predicates on
    /// both sides.
    #[test]
    fn repeated_keys_with_mostly_unmatched_build_rows_match_nested_loop() {
        for str_keys in [false, true] {
            let key = |k: i64| -> Value {
                if str_keys {
                    // Past the inline limit every fifth key.
                    let pad = if k % 5 == 0 { "-padded-beyond-the-inline-cell" } else { "" };
                    Value::Str(format!("k{k:03}{pad}").as_str().into())
                } else {
                    Value::Int(k)
                }
            };
            let store = BlockStore::new(3, 1, 4);
            // Build side: 96 rows over keys 0..48, each key twice, in
            // blocks of 8; only keys divisible by 6 reach the probe side.
            let build: Vec<Row> = (0..96i64)
                .map(|i| Row::new(vec![key(i % 48), Value::Int(i), format!("b{i}").into()]))
                .collect();
            // Probe side: 40 rows over the keys 0, 6, …, 42, each five
            // times, in blocks of 10.
            let probe: Vec<Row> =
                (0..40i64).map(|i| Row::new(vec![key((i % 8) * 6), Value::Int(-i)])).collect();
            let write = |t: &str, rows: &[Row], per: usize, arity| -> Vec<u32> {
                rows.chunks(per).map(|c| store.write_block(t, c.to_vec(), arity, None)).collect()
            };
            let (bids, pids) = (write("b", &build, 8, 3), write("p", &probe, 10, 2));
            let groups: Vec<Vec<u32>> = bids.chunks(4).map(<[u32]>::to_vec).collect();
            let probes = vec![pids.clone(); groups.len()];
            let bp = PredicateSet::none().and(Predicate::new(1, CmpOp::Neq, 12i64));
            let pp = PredicateSet::none().and(Predicate::new(1, CmpOp::Neq, -3i64));
            for build_side in [JoinSide::Left, JoinSide::Right] {
                let p = HyperJoinPlan {
                    build_side,
                    groups: groups.clone(),
                    probes: probes.clone(),
                    est_build_reads: 0,
                    est_probe_reads: 0,
                    c_hyj: 1.0,
                };
                let (lt, rt, lp, rp) = match build_side {
                    JoinSide::Left => ("b", "p", &bp, &pp),
                    JoinSide::Right => ("p", "b", &pp, &bp),
                };
                let spec = HyperJoinSpec {
                    left_table: lt,
                    right_table: rt,
                    left_attr: 0,
                    right_attr: 0,
                    left_preds: lp,
                    right_preds: rp,
                    plan: &p,
                };
                let want = nested_loop(&store, &spec);
                let matched: std::collections::BTreeSet<i64> = want
                    .iter()
                    .map(|r| r.get(if build_side == JoinSide::Left { 1 } else { 3 }))
                    .map(|v| v.as_int().unwrap())
                    .collect();
                // Each probe row meets its key's two build rows, less
                // build row 12 (key 12, five probe rows) and probe row
                // 3 (key 18, two build rows).
                assert_eq!(want.len(), 40 * 2 - 5 - 2);
                assert!(matched.len() * 4 < build.len(), "{} build rows match", matched.len());
                let clock = SimClock::new();
                let got = hyper_join(ExecContext::new(&store, &clock), spec)
                    .and_then(Joined::into_rows)
                    .unwrap();
                assert_eq!(got, want, "str keys {str_keys}, {build_side:?} builds");
            }
        }
    }

    /// The probe leg reads through the fetch stream; at window 1 the
    /// stream hides nothing. Counts stay equal either way (pinned above).
    #[test]
    fn pipelined_probe_leg_overlaps_fetches() {
        let (store, left, right) = setup(64, 8);
        let JoinDecision::Hyper(p) = plan(&left, &right, 4, &CostParams::default()) else {
            panic!("expected hyper-join")
        };
        let none = PredicateSet::none();
        let clock = SimClock::new();
        let spec = HyperJoinSpec {
            left_table: "l",
            right_table: "r",
            left_attr: 0,
            right_attr: 0,
            left_preds: &none,
            right_preds: &none,
            plan: &p,
        };
        hyper_join(ExecContext::new(&store, &clock).with_fetch_window(4), spec.clone())
            .and_then(Joined::into_rows)
            .unwrap();
        let ov = clock.overlap_snapshot();
        assert!(ov.fetches > 0, "probe blocks must go through the fetch stream");
        let c2 = SimClock::new();
        hyper_join(ExecContext::new(&store, &c2), spec).and_then(Joined::into_rows).unwrap();
        assert_eq!(c2.overlap_snapshot().hidden(), 0);
    }

    #[test]
    fn offset_partitions_read_probe_blocks_multiple_times() {
        // Shift right-side ranges so each build block overlaps two probe
        // blocks; with capacity 1, C(P) > distinct blocks.
        let store = BlockStore::new(4, 1, 1);
        let mut left = Vec::new();
        let mut right = Vec::new();
        for b in 0..8i64 {
            let lrows = (b * 10 + 5..b * 10 + 15).map(|i| row![i]).collect();
            let lid = store.write_block("l", lrows, 1, None);
            left.push((lid, ValueRange::new(Value::Int(b * 10 + 5), Value::Int(b * 10 + 14))));
            let rrows = (b * 10..b * 10 + 10).map(|i| row![i]).collect();
            let rid = store.write_block("r", rrows, 1, None);
            right.push((rid, ValueRange::new(Value::Int(b * 10), Value::Int(b * 10 + 9))));
        }
        let rrows = (80..90i64).map(|i| row![i]).collect();
        let rid = store.write_block("r", rrows, 1, None);
        right.push((rid, ValueRange::new(Value::Int(80), Value::Int(89))));

        let JoinDecision::Hyper(p) = plan(&left, &right, 1, &CostParams::default()) else {
            panic!()
        };
        let clock = SimClock::new();
        let none = PredicateSet::none();
        let rows = hyper_join(
            ExecContext::new(&store, &clock),
            HyperJoinSpec {
                left_table: "l",
                right_table: "r",
                left_attr: 0,
                right_attr: 0,
                left_preds: &none,
                right_preds: &none,
                plan: &p,
            },
        )
        .and_then(Joined::into_rows)
        .unwrap();
        // Every left key 5..85 matches exactly one right key.
        assert_eq!(rows.len(), 80);
        assert!(p.c_hyj > 1.0, "offset partitioning must re-read probes");
    }
}
