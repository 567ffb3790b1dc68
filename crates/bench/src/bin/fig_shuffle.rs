//! Shuffle-service cost: `C_SJ` per input block vs cluster size, vs
//! fetch-locality fraction (spill replication sweep), and vs pipelined
//! fetch depth (serial vs overlapped reducer fetches).
//!
//! The paper's Eq. 1 prices a shuffle join at `C_SJ = 3` block-I/Os per
//! input block. With the multi-node shuffle service the three legs are
//! real: input read, run spill to the mapper's node, reducer fetch —
//! the last split local/remote by actual DFS placement. This figure
//! verifies the `≈ 3` pattern holds as the cluster grows, shows how
//! spill replication buys fetch locality, and — new with the async
//! fetch backend — how a deeper in-flight window shrinks the fetch
//! leg's *wall-clock* while block counts (and `C_SJ`) stay identical:
//! a window of `w` concurrent fetches is charged max-of-window, so
//! `fetch_secs_pipelined` falls toward `windows × remote-read-cost`
//! while `fetch_secs_serial` (and every count column) is unchanged.
//!
//! The binary asserts the figure's contracts (the `≈ 3` pattern, count
//! invariance across windows, a minimum overlap factor on the pipelined
//! series) before it writes `BENCH_shuffle.json`. Everything here is
//! deterministic (simulated I/O, fixed seed), so CI also diffs every
//! value of the file against the committed baseline
//! (`scripts/check_bench.py`).
//!
//! With `--trace-out PATH` every measured cell
//! additionally records a query-lifecycle span tree on the simulated
//! clock, exported as one Chrome trace-event JSON (one viewer process
//! per cell) — and the binary asserts that each cell's root-span
//! duration equals its serial `sim_secs` within µs rounding. Tracing
//! never changes any measured count or cost column.
//!
//! Usage: `fig_shuffle [--scale X] [--seed N] [--quick] [--trace-out PATH]`

use adaptdb_bench::{parse_args, BenchOpts, Fields, Report};
use adaptdb_common::{chrome_trace_json, row, CostParams, PredicateSet, Trace, Tracer};
use adaptdb_dfs::{secs_to_us, SimClock, TraceCtx};
use adaptdb_exec::{shuffle_join, ExecContext, ShuffleJoinSpec, ShuffleOptions};
use adaptdb_storage::BlockStore;

const ROWS_PER_BLOCK: usize = 100;

/// One measured cell of any sweep.
struct Cell {
    nodes: usize,
    replication: usize,
    fetch_window: usize,
    input_blocks: usize,
    spill_blocks: usize,
    local_fetches: usize,
    remote_fetches: usize,
    hidden_fetches: usize,
    locality: f64,
    cost_per_block: f64,
    sim_secs: f64,
    sim_secs_pipelined: f64,
    fetch_secs_serial: f64,
    fetch_secs_pipelined: f64,
    /// Span tree of this cell's join when tracing is on.
    trace: Option<Trace>,
}

/// Weak scaling: data per node is constant, so a bigger cluster
/// shuffles a proportionally bigger table (fan-out × mappers grows
/// with nodes²; without weak scaling the runs degenerate into the
/// tiny-file regime and the per-block figure measures fragmentation,
/// not the shuffle pattern).
fn rows_per_side(opts: &BenchOpts, nodes: usize) -> usize {
    let per_node = ((3200.0 * opts.scale).round() as usize).max(400);
    per_node.div_ceil(ROWS_PER_BLOCK) * ROWS_PER_BLOCK * nodes
}

/// Load two join-ready tables and run one shuffle join with the given
/// pipelined fetch window, returning the measured cell (with its span
/// tree when `trace_on`).
fn measure(
    opts: &BenchOpts,
    nodes: usize,
    replication: usize,
    fetch_window: usize,
    trace_on: bool,
) -> Cell {
    let store = BlockStore::new(nodes, 1, opts.seed);
    let n = rows_per_side(opts, nodes) as i64;
    let mut lids = Vec::new();
    let mut rids = Vec::new();
    let mut k = 0i64;
    while k < n {
        let hi = k + ROWS_PER_BLOCK as i64;
        lids.push(store.write_block("l", (k..hi).map(|i| row![i, i * 2]).collect(), 2, None));
        rids.push(store.write_block("r", (k..hi).map(|i| row![i, i * 3]).collect(), 2, None));
        k = hi;
    }
    let params = CostParams::default();
    let clock = SimClock::new();
    let tracer = trace_on.then(Tracer::new);
    let root = tracer.as_ref().map(|t| t.start("cell", None, 0));
    let trace_ctx = tracer.as_ref().zip(root).map(|(t, root)| TraceCtx {
        tracer: t,
        params: &params,
        parent: root,
        base_us: 0,
    });
    let ctx = ExecContext::new(&store, &clock)
        .with_shuffle(ShuffleOptions {
            partitions: Some(nodes),
            replication,
            split_threshold: None,
        })
        .with_fetch_window(fetch_window)
        .with_trace(trace_ctx);
    let none = PredicateSet::none();
    let rows = shuffle_join(
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
    .expect("shuffle join");
    assert_eq!(rows.len(), n as usize, "join must be complete");
    let io = clock.snapshot();
    let sh = clock.shuffle_snapshot();
    let ov = clock.overlap_snapshot();
    let input_blocks = lids.len() + rids.len();
    // The fetch leg alone, serial vs overlapped (same parallelism
    // divisor as sim_secs so the columns are comparable).
    let fetch_secs_serial = (sh.local_fetches as f64 * params.block_read_secs
        + sh.remote_fetches as f64 * params.block_read_secs * params.remote_read_penalty)
        / params.parallelism.max(1) as f64;
    let saved = ov.saved_secs(&params);
    let sim_secs = io.simulated_secs(&params);
    let trace = if let (Some(t), Some(root)) = (tracer, root) {
        t.attr_i(root, "nodes", nodes as i64);
        t.attr_i(root, "replication", replication as i64);
        t.attr_i(root, "fetch_window", fetch_window as i64);
        t.attr_i(root, "input_blocks", input_blocks as i64);
        t.end(root, secs_to_us(sim_secs));
        Some(t.finish())
    } else {
        None
    };
    Cell {
        nodes,
        replication,
        fetch_window,
        input_blocks,
        spill_blocks: sh.blocks_spilled,
        local_fetches: sh.local_fetches,
        remote_fetches: sh.remote_fetches,
        hidden_fetches: ov.hidden(),
        locality: sh.locality_fraction(),
        cost_per_block: (io.reads() + io.writes) as f64 / input_blocks as f64,
        sim_secs,
        sim_secs_pipelined: sim_secs - saved,
        fetch_secs_serial,
        fetch_secs_pipelined: fetch_secs_serial - saved,
        trace,
    }
}

fn row(c: &Cell) -> Fields {
    Fields::default()
        .lit("nodes", c.nodes)
        .lit("replication", c.replication)
        .lit("fetch_window", c.fetch_window)
        .lit("input_blocks", c.input_blocks)
        .lit("spill_blocks", c.spill_blocks)
        .lit("local_fetches", c.local_fetches)
        .lit("remote_fetches", c.remote_fetches)
        .lit("hidden_fetches", c.hidden_fetches)
        .fixed("locality", c.locality, 4)
        .fixed("cost_per_block", c.cost_per_block, 4)
        .fixed("sim_secs", c.sim_secs, 4)
        .fixed("sim_secs_pipelined", c.sim_secs_pipelined, 4)
        .fixed("fetch_secs_serial", c.fetch_secs_serial, 4)
        .fixed("fetch_secs_pipelined", c.fetch_secs_pipelined, 4)
}

fn main() {
    // `--trace-out PATH` is the only own flag, so its path comes last.
    let (opts, rest) = parse_args(&["--trace-out PATH"]);
    let trace_out = rest.last();
    let trace_on = trace_out.is_some();
    let node_counts: &[usize] = if opts.quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let replications: &[usize] = if opts.quick { &[1, 4] } else { &[1, 2, 4] };
    let windows: &[usize] = if opts.quick { &[1, 4] } else { &[1, 2, 4, 8] };

    // The node and locality sweeps run pipelined at the default depth
    // (counts are window-invariant, so C_SJ columns are comparable with
    // any baseline); the window sweep isolates the pipelining axis.
    let node_sweep: Vec<Cell> =
        node_counts.iter().map(|&n| measure(&opts, n, 1, 4, trace_on)).collect();
    let locality_sweep: Vec<Cell> =
        replications.iter().map(|&r| measure(&opts, 4, r, 4, trace_on)).collect();
    let window_sweep: Vec<Cell> =
        windows.iter().map(|&w| measure(&opts, 4, 1, w, trace_on)).collect();

    let rows = |cells: &[Cell]| cells.iter().map(row).collect();
    let report =
        Report::new(Fields::header("shuffle", &opts).lit("rows_per_block", ROWS_PER_BLOCK))
            .table(
                "node_sweep",
                "Shuffle-join cost vs node count (unreplicated runs; paper: C_SJ = 3)",
                rows(&node_sweep),
            )
            .table(
                "locality_sweep",
                "Shuffle-join cost vs fetch locality (4 nodes, spill replication sweep)",
                rows(&locality_sweep),
            )
            .table(
                "window_sweep",
                "Shuffle-join fetch leg vs pipelined window (4 nodes; serial vs overlapped)",
                rows(&window_sweep),
            );
    report.print();

    // The figure's contracts, asserted before the file is written.
    for c in &node_sweep {
        assert!(
            c.cost_per_block >= 2.5 && c.cost_per_block <= 4.5,
            "C_SJ pattern broken at {} nodes: {:.2}",
            c.nodes,
            c.cost_per_block
        );
    }
    let single = node_sweep.iter().find(|c| c.nodes == 1).expect("1-node cell");
    assert_eq!(single.locality, 1.0, "single node must be fully local");

    // Pipelining invariants: block counts are window-invariant, and a
    // window ≥ 4 cuts the remote-dominated fetch leg by ≥ 1.5× (the
    // C_SJ-equal overlap win the async backend exists for).
    let serial = window_sweep.iter().find(|c| c.fetch_window == 1).expect("serial cell");
    for c in &window_sweep {
        assert_eq!(c.spill_blocks, serial.spill_blocks, "spill must be window-invariant");
        assert_eq!(
            (c.local_fetches, c.remote_fetches),
            (serial.local_fetches, serial.remote_fetches),
            "fetch counts must be window-invariant"
        );
        assert!(c.fetch_secs_pipelined <= c.fetch_secs_serial + 1e-9);
        if c.fetch_window >= 4 {
            assert!(
                c.fetch_secs_serial / c.fetch_secs_pipelined.max(1e-9) >= 1.5,
                "window {} overlap factor too low: {:.2}",
                c.fetch_window,
                c.fetch_secs_serial / c.fetch_secs_pipelined.max(1e-9)
            );
        }
    }
    assert_eq!(serial.hidden_fetches, 0, "serial fetching hides nothing");

    report.write("BENCH_shuffle.json");

    if let Some(path) = trace_out {
        // Every cell's span tree, one viewer "process" per cell. The
        // root span was closed at the cell's serial simulated seconds,
        // so the per-cell root durations must sum to the run's total
        // sim_secs within µs rounding — the tracing-vs-accounting
        // consistency check.
        let cells: Vec<&Cell> =
            node_sweep.iter().chain(locality_sweep.iter()).chain(window_sweep.iter()).collect();
        let parts: Vec<(u32, &Trace)> = cells
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.trace.as_ref().map(|t| (i as u32 + 1, t)))
            .collect();
        assert_eq!(parts.len(), cells.len(), "tracing was on for every cell");
        let total_sim_secs: f64 = cells.iter().map(|c| c.sim_secs).sum();
        let total_span_us: u64 = parts.iter().map(|(_, t)| t.root_duration_us()).sum();
        let diff_us = (total_span_us as f64 - total_sim_secs * 1e6).abs();
        assert!(
            diff_us <= cells.len() as f64,
            "span durations must sum to sim_secs within rounding: {total_span_us} µs vs \
             {total_sim_secs} s (diff {diff_us} µs)"
        );
        std::fs::write(path, chrome_trace_json(&parts)).expect("write trace JSON");
        println!(
            "wrote {path} ({} spans, root durations sum to {:.4} sim s)",
            parts.iter().map(|(_, t)| t.spans.len()).sum::<usize>(),
            total_span_us as f64 / 1e6
        );
    }
}
