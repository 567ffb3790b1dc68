//! Serving throughput: queries/sec vs client threads, with and without
//! background adaptation, on the TPC-H template mix — plus the
//! mixed-workload scheduler comparison (point queries + scan storm +
//! adaptation on) reporting per-lane latency percentiles per
//! scheduling policy.
//!
//! This is the concurrent-runtime companion to the paper's figures: the
//! serial engine answers one query at a time, while `DbServer` keeps
//! N clients running against snapshot reads as maintenance repartitions
//! in the background. Emits `BENCH_throughput.json` next to the table.
//!
//! Usage: `fig_throughput [--scale X] [--seed N] [--quick]`

use std::sync::Mutex;
use std::time::Instant;

use adaptdb::cost::Lane;
use adaptdb::{Database, DbConfig, Mode, SchedPolicy};
use adaptdb_bench::{parse_args, print_table, BenchOpts};
use adaptdb_common::rng;
use adaptdb_common::{CmpOp, Histogram, Predicate, PredicateSet, Query, ScanQuery};
use adaptdb_server::{DbServer, ServerOptions};
use adaptdb_workloads::tpch::{li, ord, Template, TpchGen};

/// One measured cell: client count × adaptation setting.
struct Cell {
    clients: usize,
    adaptive: bool,
    queries: u64,
    secs: f64,
    qps: f64,
    mean_latency_ms: f64,
    maintenance_writes: usize,
    /// Merged simulated seconds of all client queries, serial charging.
    sim_secs_serial: f64,
    /// The same total with pipelined fetches (overlap savings applied)
    /// — the pipelined-vs-serial series of the serving runtime.
    sim_secs_pipelined: f64,
}

fn build_db(opts: &BenchOpts, adaptive: bool) -> Database {
    let gen = TpchGen::new(opts.scale, opts.seed);
    let config =
        DbConfig { rows_per_block: 100, buffer_blocks: 8, seed: opts.seed, ..DbConfig::default() };
    if adaptive {
        let mut db = Database::new(config.with_mode(Mode::Adaptive));
        gen.load_upfront(&mut db).unwrap();
        db
    } else {
        let mut db = Database::new(config.with_mode(Mode::Fixed));
        gen.load_converged(&mut db, li::ORDERKEY).unwrap();
        db
    }
}

fn query_mix(opts: &BenchOpts, per_client: usize) -> Vec<Query> {
    let templates = Template::join_templates();
    let mut q_rng = rng::derived(opts.seed, "fig-throughput");
    (0..per_client).map(|i| templates[i % templates.len()].instantiate(&mut q_rng)).collect()
}

fn measure(opts: &BenchOpts, clients: usize, adaptive: bool, per_client: usize) -> Cell {
    let db = build_db(opts, adaptive);
    let server = DbServer::start_with(
        db,
        ServerOptions {
            workers: Some(clients),
            queue_capacity: Some(clients * 4),
            ..Default::default()
        },
    );
    let queries = query_mix(opts, per_client);
    let started = Instant::now();
    let params = adaptdb_common::CostParams::default();
    let mut sim_secs_serial = 0.0f64;
    let mut sim_secs_pipelined = 0.0f64;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for _ in 0..clients {
            let mut session = server.session();
            let queries = &queries;
            handles.push(s.spawn(move || {
                for q in queries {
                    session.run(q).expect("bench query");
                }
                let stats = session.stats().clone();
                (stats.io, stats.overlap)
            }));
        }
        for h in handles {
            let (io, overlap) = h.join().expect("client thread");
            let serial = io.simulated_secs(&params);
            sim_secs_serial += serial;
            sim_secs_pipelined += serial - overlap.saved_secs(&params);
        }
    });
    // Client wall-clock stops here; only the report waits for background
    // maintenance to finish so maintenance_writes is a stable total.
    let secs = started.elapsed().as_secs_f64();
    server.drain_maintenance();
    let report = server.report();
    let queries_run = (clients * per_client) as u64;
    Cell {
        clients,
        adaptive,
        queries: queries_run,
        secs,
        qps: queries_run as f64 / secs.max(1e-9),
        mean_latency_ms: report.mean_latency_ms,
        maintenance_writes: report.maintenance_io.writes,
        sim_secs_serial,
        sim_secs_pipelined,
    }
}

fn write_json(
    path: &str,
    cells: &[Cell],
    mixed_policies: &[MixedPolicyCell],
    mixed_lanes: &[MixedLaneCell],
    opts: &BenchOpts,
) {
    let mut rows = Vec::new();
    for c in cells {
        rows.push(format!(
            "    {{\"clients\": {}, \"adaptive\": {}, \"queries\": {}, \"secs\": {:.4}, \
             \"qps\": {:.2}, \"mean_latency_ms\": {:.3}, \"maintenance_writes\": {}, \
             \"sim_secs_serial\": {:.4}, \"sim_secs_pipelined\": {:.4}}}",
            c.clients,
            c.adaptive,
            c.queries,
            c.secs,
            c.qps,
            c.mean_latency_ms,
            c.maintenance_writes,
            c.sim_secs_serial,
            c.sim_secs_pipelined
        ));
    }
    let mut lane_rows = Vec::new();
    for l in mixed_lanes {
        lane_rows.push(format!(
            "      {{\"policy\": \"{}\", \"lane\": \"{}\", \"queries\": {}, \
             \"mean_ms\": {:.3}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}}}",
            l.policy, l.lane, l.queries, l.mean_ms, l.p50_ms, l.p95_ms, l.p99_ms
        ));
    }
    let mut policy_rows = Vec::new();
    for p in mixed_policies {
        policy_rows.push(format!(
            "      {{\"policy\": \"{}\", \"queries\": {}, \"secs\": {:.4}, \"qps\": {:.2}, \
             \"maintenance_writes\": {}, \"maintenance_deferrals\": {}, \
             \"fairness_index\": {:.4}, \"storm_batch_share\": {:.4}}}",
            p.policy,
            p.queries,
            p.secs,
            p.qps,
            p.maintenance_writes,
            p.maintenance_deferrals,
            p.fairness_index,
            p.storm_batch_share
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"throughput\",\n  \"workload\": \"tpch-join-templates\",\n  \
         \"scale\": {},\n  \"seed\": {},\n  \"cells\": [\n{}\n  ],\n  \"mixed\": {{\n    \
         \"storm_sessions\": {},\n    \"interactive_sessions\": {},\n    \"workers\": {},\n    \
         \"lanes\": [\n{}\n    ],\n    \"policies\": [\n{}\n    ]\n  }}\n}}\n",
        opts.scale,
        opts.seed,
        rows.join(",\n"),
        MIXED_STORM_SESSIONS,
        MIXED_INTERACTIVE_SESSIONS,
        MIXED_WORKERS,
        lane_rows.join(",\n"),
        policy_rows.join(",\n")
    );
    std::fs::write(path, json).expect("write BENCH_throughput.json");
    println!("wrote {path}");
}

/// Per-lane latency summary of one mixed-workload run.
struct MixedLaneCell {
    policy: &'static str,
    lane: &'static str,
    queries: usize,
    mean_ms: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

/// Per-policy totals of one mixed-workload run.
struct MixedPolicyCell {
    policy: &'static str,
    queries: u64,
    secs: f64,
    qps: f64,
    maintenance_writes: usize,
    maintenance_deferrals: u64,
    fairness_index: f64,
    /// Fraction of storm queries cost-classified into the batch lane
    /// (the rest pruned under the threshold and ran interactive).
    storm_batch_share: f64,
}

const MIXED_STORM_SESSIONS: usize = 6;
const MIXED_INTERACTIVE_SESSIONS: usize = 4;
const MIXED_WORKERS: usize = 2;

/// The mixed scenario: `MIXED_STORM_SESSIONS` sessions flood full join
/// templates (batch lane) against `MIXED_INTERACTIVE_SESSIONS`
/// sessions running selective point scans (interactive lane), with
/// background adaptation on, at a fixed worker count — the offered
/// load is identical for every policy, so per-lane percentiles compare
/// pure scheduling.
fn measure_mixed(
    opts: &BenchOpts,
    policy: SchedPolicy,
    storm_per: usize,
    interactive_per: usize,
) -> (MixedPolicyCell, [Vec<f64>; 2]) {
    let gen = TpchGen::new(opts.scale, opts.seed);
    // Threshold scales with the data: a point scan can never project
    // more than the whole orders table, while the template joins also
    // touch lineitem (4× the rows) — twice the orders block count
    // separates the classes at every scale.
    let orders_blocks = gen.counts().orders.div_ceil(100);
    let config = DbConfig {
        rows_per_block: 100,
        buffer_blocks: 8,
        batch_cost_blocks: (orders_blocks * 2).max(16),
        seed: opts.seed,
        ..DbConfig::default()
    };
    let mut db = Database::new(config.with_mode(Mode::Adaptive));
    gen.load_upfront(&mut db).unwrap();
    let max_orderkey = gen.counts().orders as i64;
    let server = DbServer::start_with(
        db,
        ServerOptions {
            workers: Some(MIXED_WORKERS),
            queue_capacity: Some(64),
            sched: Some(policy),
            ..Default::default()
        },
    );
    let storm_queries = query_mix(opts, storm_per);
    let interactive_ms: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let batch_ms: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let storm_batch = std::sync::atomic::AtomicUsize::new(0);
    let started = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..MIXED_STORM_SESSIONS {
            let mut session = server.session();
            let storm_queries = &storm_queries;
            let batch_ms = &batch_ms;
            let storm_batch = &storm_batch;
            s.spawn(move || {
                let mut ms = Vec::new();
                for q in storm_queries {
                    ms.push(session.run(q).expect("storm query").stats.wall_secs * 1e3);
                }
                // Most storm joins classify batch; a selective template
                // instance can legitimately prune under the threshold
                // (the cost model working), so the share is recorded
                // rather than asserted.
                storm_batch.fetch_add(
                    session.stats().lane_queries[Lane::Batch.index()],
                    std::sync::atomic::Ordering::Relaxed,
                );
                batch_ms.lock().unwrap().extend(ms);
            });
        }
        for i in 0..MIXED_INTERACTIVE_SESSIONS {
            let mut session = server.session();
            let interactive_ms = &interactive_ms;
            s.spawn(move || {
                let mut ms = Vec::new();
                for j in 0..interactive_per {
                    let lo = ((i * interactive_per + j) as i64 * 37) % max_orderkey.max(1);
                    let q = Query::Scan(ScanQuery::new(
                        "orders",
                        PredicateSet::none()
                            .and(Predicate::new(ord::ORDERKEY, CmpOp::Ge, lo))
                            .and(Predicate::new(ord::ORDERKEY, CmpOp::Lt, lo + 8)),
                    ));
                    ms.push(session.run(&q).expect("point query").stats.wall_secs * 1e3);
                }
                assert_eq!(
                    session.stats().lane_queries[Lane::Interactive.index()],
                    interactive_per,
                    "point queries must classify interactive"
                );
                interactive_ms.lock().unwrap().extend(ms);
            });
        }
    });
    let secs = started.elapsed().as_secs_f64();
    server.drain_maintenance();
    let report = server.report();
    let queries = report.queries;
    (
        MixedPolicyCell {
            policy: report.policy,
            queries,
            secs,
            qps: queries as f64 / secs.max(1e-9),
            maintenance_writes: report.maintenance_io.writes,
            maintenance_deferrals: report.maintenance_deferrals,
            fairness_index: report.fairness_index,
            storm_batch_share: storm_batch.load(std::sync::atomic::Ordering::Relaxed) as f64
                / (MIXED_STORM_SESSIONS * storm_per) as f64,
        },
        [interactive_ms.into_inner().unwrap(), batch_ms.into_inner().unwrap()],
    )
}

fn main() {
    let (opts, _) = parse_args();
    let client_counts: &[usize] = if opts.quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let per_client = if opts.quick { 4 } else { 8 };

    let mut cells = Vec::new();
    for &adaptive in &[false, true] {
        for &clients in client_counts {
            cells.push(measure(&opts, clients, adaptive, per_client));
        }
    }

    let table: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.clients.to_string(),
                if c.adaptive { "yes".into() } else { "no".into() },
                c.queries.to_string(),
                format!("{:.2}", c.secs),
                format!("{:.1}", c.qps),
                format!("{:.2}", c.mean_latency_ms),
                c.maintenance_writes.to_string(),
                format!("{:.1}/{:.1}", c.sim_secs_serial, c.sim_secs_pipelined),
            ]
        })
        .collect();
    print_table(
        "Serving throughput: TPC-H join templates, DbServer worker pool",
        &["clients", "adapting", "queries", "secs", "q/s", "mean ms", "maint writes", "sim s/p"],
        &table,
    );
    for c in &cells {
        assert!(
            c.sim_secs_pipelined <= c.sim_secs_serial + 1e-9,
            "pipelined simulated time can never exceed serial"
        );
    }

    for &adaptive in &[false, true] {
        let sub: Vec<&Cell> = cells.iter().filter(|c| c.adaptive == adaptive).collect();
        let single = sub.iter().find(|c| c.clients == 1).expect("1-client cell");
        let best = sub.iter().map(|c| c.qps).fold(0.0f64, f64::max);
        println!(
            "adaptation {}: 1-client {:.1} q/s, best {:.1} q/s ({:.2}x)",
            if adaptive { "on" } else { "off" },
            single.qps,
            best,
            best / single.qps.max(1e-9),
        );
    }

    // Mixed workload: point queries vs a scan storm with adaptation on,
    // identical offered load per scheduling policy.
    let (storm_per, interactive_per) = if opts.quick { (6, 16) } else { (8, 25) };
    let mut mixed_policies = Vec::new();
    let mut mixed_lanes = Vec::new();
    for policy in [SchedPolicy::Fifo, SchedPolicy::Lanes, SchedPolicy::Fair] {
        // Two runs per policy: wall-clock is noisy (background
        // maintenance, OS scheduling), so throughput takes the better
        // run while the latency percentiles pool both runs' samples —
        // the gated p95 is computed over twice the samples instead of
        // whichever single run happened to win on qps.
        let (first, first_ms) = measure_mixed(&opts, policy, storm_per, interactive_per);
        let (second, second_ms) = measure_mixed(&opts, policy, storm_per, interactive_per);
        let best = if second.qps > first.qps { second } else { first };
        for (lane, ms) in [Lane::Interactive, Lane::Batch].into_iter().zip(
            first_ms.into_iter().zip(second_ms).map(|(mut a, b)| {
                a.extend(b);
                a
            }),
        ) {
            // Pool both runs' wall samples into a log-bucketed
            // histogram; percentiles are quantized to one bucket width
            // (≲9%), far inside the 2x policy-comparison gates.
            let mut hist = Histogram::new();
            for &x in &ms {
                hist.record(x);
            }
            mixed_lanes.push(MixedLaneCell {
                policy: best.policy,
                lane: lane.name(),
                queries: ms.len(),
                mean_ms: hist.mean(),
                p50_ms: hist.quantile(0.50),
                p95_ms: hist.quantile(0.95),
                p99_ms: hist.quantile(0.99),
            });
        }
        mixed_policies.push(best);
    }
    let lane_table: Vec<Vec<String>> = mixed_lanes
        .iter()
        .map(|l| {
            vec![
                l.policy.to_string(),
                l.lane.to_string(),
                l.queries.to_string(),
                format!("{:.2}", l.mean_ms),
                format!("{:.2}", l.p50_ms),
                format!("{:.2}", l.p95_ms),
                format!("{:.2}", l.p99_ms),
            ]
        })
        .collect();
    print_table(
        "Mixed workload: point queries + scan storm + adaptation, per lane",
        &["policy", "lane", "queries", "mean ms", "p50 ms", "p95 ms", "p99 ms"],
        &lane_table,
    );
    let policy_table: Vec<Vec<String>> = mixed_policies
        .iter()
        .map(|p| {
            vec![
                p.policy.to_string(),
                p.queries.to_string(),
                format!("{:.2}", p.secs),
                format!("{:.1}", p.qps),
                p.maintenance_writes.to_string(),
                p.maintenance_deferrals.to_string(),
                format!("{:.3}", p.fairness_index),
            ]
        })
        .collect();
    print_table(
        "Mixed workload: per-policy totals",
        &["policy", "queries", "secs", "q/s", "maint writes", "deferrals", "fairness"],
        &policy_table,
    );
    let p95_of = |policy: &str| {
        mixed_lanes
            .iter()
            .find(|l| l.policy == policy && l.lane == "interactive")
            .expect("interactive cell")
            .p95_ms
    };
    println!(
        "interactive p95: fifo {:.2} ms, lanes {:.2} ms ({:.1}x lower), fair {:.2} ms",
        p95_of("fifo"),
        p95_of("lanes"),
        p95_of("fifo") / p95_of("lanes").max(1e-9),
        p95_of("fair"),
    );

    write_json("BENCH_throughput.json", &cells, &mixed_policies, &mixed_lanes, &opts);
}
