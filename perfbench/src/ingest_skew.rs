//! `ingest_skew`: one `DbServer` session on `orderkey`-converged tables
//! (`Mode::Fixed`) alternating bursts of small `lineitem` appends —
//! Zipf(1.2) `partkey`, fresh increasing `orderkey`s — with one query.
//! The query alternates between `lineitem ⋈ part` on `partkey`, always a
//! shuffle join with a per-reducer build budget, and a selective
//! `lineitem` scan. Delta folds run on the maintenance thread, holding
//! the engine lock while appends wait.

use std::time::Instant;

use adaptdb::readpath;
use adaptdb::{Database, Mode};
use adaptdb_common::stats::JoinStrategy;
use adaptdb_common::{
    rng, CmpOp, JoinQuery, Predicate, PredicateSet, Query, Result, Row, ScanQuery, Value,
};
use adaptdb_dfs::SimClock;
use adaptdb_server::{DbServer, ServerReport};
use adaptdb_workloads::tpch::{li, part, TpchGen, DATE_MAX, DATE_MIN};
use adaptdb_workloads::zipf::Zipf;
use rand::RngExt;

use crate::common::{
    best_of, p50_and_tail, pinned_config, server_options, tail_q, EndToEnd, Outcome, QueryRecord,
    FAILED_MS,
};
use crate::layers::{self, IngestSide, LayerInputs, ServerSide, READPATH};
use crate::oracle::{self, Digest, Tables};
use crate::probe;
use crate::spans::Spans;
use crate::{alloc, Args};

const SCALE: f64 = 1.0;
/// Cycles per second of `--seconds`; each cycle is a burst of appends
/// and then one query. Fixed work, whatever the engine's speed.
const CYCLES_PER_SECOND: usize = 30;
/// Cycles per round. Each round replays the same cycles on a fresh
/// server and each append's p50 latency is its best timed round, so a
/// round must hold the 1000 appends a p99 needs.
const CYCLES: usize = 100;
const APPENDS_PER_CYCLE: usize = 10;
const ROWS_PER_APPEND: usize = 10;
const ZIPF_S: f64 = 1.2;
/// Per-reducer build budget of the shuffle join, in blocks.
const JOIN_MEM_BUDGET: usize = 1;
/// Hyper-join buffer, in blocks. Smaller than `part`, so grouping would
/// re-read every `lineitem` block several times and the planner always
/// picks the shuffle join.
const HYPER_BUFFER: usize = 2;
const SETUPS: usize = 11;
const APPEND: &str = "server.append";

fn config(seed: u64) -> adaptdb::DbConfig {
    adaptdb::DbConfig {
        join_mem_budget_blocks: Some(JOIN_MEM_BUDGET),
        buffer_blocks: HYPER_BUFFER,
        ..pinned_config(seed, Mode::Fixed)
    }
}

struct Inputs {
    lineitem: Vec<Row>,
    part: Vec<Row>,
    /// `APPENDS_PER_CYCLE` batches per cycle, in order.
    batches: Vec<Vec<Row>>,
    /// One query per cycle.
    queries: Vec<Query>,
}

fn inputs(seed: u64) -> Inputs {
    let gen = TpchGen::new(SCALE, seed);
    let counts = gen.counts();
    let zipf = Zipf::new(counts.part, ZIPF_S);
    let mut rng = rng::derived(seed, "ingest_skew");
    let mut next_order = counts.orders as i64;
    let mut appended = 0usize;
    let (mut batches, mut queries) = (Vec::new(), Vec::new());
    for c in 0..CYCLES {
        for _ in 0..APPENDS_PER_CYCLE {
            let batch = (0..ROWS_PER_APPEND)
                .map(|_| {
                    appended += 1;
                    if appended.is_multiple_of(4) {
                        next_order += 1;
                    }
                    let ship = rng.random_range(DATE_MIN..DATE_MAX);
                    Row::new(vec![
                        Value::Int(next_order),
                        Value::Int(zipf.sample(&mut rng)),
                        Value::Int(rng.random_range(0..counts.supplier as i64)),
                        Value::Int(rng.random_range(1..=50)),
                        Value::Double(rng.random_range(100..100_000) as f64 / 100.0),
                        Value::Double(rng.random_range(0..=10) as f64 / 100.0),
                        Value::Date(ship),
                        Value::Date((ship + rng.random_range(1..60)).min(DATE_MAX - 1)),
                        Value::Str("NONE".into()),
                        Value::Str("TRUCK".into()),
                        Value::Str("N".into()),
                    ])
                })
                .collect();
            batches.push(batch);
        }
        let query = if c.is_multiple_of(2) {
            let d = rng.random_range(DATE_MIN..DATE_MAX - 365);
            Query::Join(JoinQuery::new(
                ScanQuery::new(
                    "lineitem",
                    PredicateSet::none()
                        .and(Predicate::new(li::SHIPDATE, CmpOp::Ge, Value::Date(d)))
                        .and(Predicate::new(li::SHIPDATE, CmpOp::Lt, Value::Date(d + 365))),
                ),
                ScanQuery::full("part"),
                li::PARTKEY,
                part::PARTKEY,
            ))
        } else {
            let k = rng.random_range(0..next_order);
            Query::Scan(ScanQuery::new(
                "lineitem",
                PredicateSet::none()
                    .and(Predicate::new(li::ORDERKEY, CmpOp::Ge, k))
                    .and(Predicate::new(li::ORDERKEY, CmpOp::Lt, k + 64))
                    .and(Predicate::new(li::QUANTITY, CmpOp::Lt, 25i64)),
            ))
        };
        queries.push(query);
    }
    Inputs { lineitem: gen.lineitem(), part: gen.part(), batches, queries }
}

/// Load `lineitem` (on `orderkey`) and `part` (on `partkey`) under
/// converged two-phase trees and start the server.
fn setup(inp: &Inputs, seed: u64) -> Result<(DbServer, f64)> {
    let (lineitem, part_rows) = (inp.lineitem.clone(), inp.part.clone());
    let t = Instant::now();
    let mut db = Database::new(config(seed));
    TpchGen::new(SCALE, seed).create_tables(&mut db)?;
    db.load_two_phase("lineitem", lineitem, li::ORDERKEY, None)?;
    db.load_two_phase("part", part_rows, part::PARTKEY, None)?;
    let server = DbServer::start_with(db, server_options());
    Ok((server, t.elapsed().as_secs_f64()))
}

#[derive(Default)]
struct Loop {
    append_ms: Vec<f64>,
    /// Wall of each cycle (its appends and its query), side-calls excluded.
    cycle_ms: Vec<f64>,
    failed_appends: usize,
    records: Vec<Option<QueryRecord>>,
    queue_wait_ms: Vec<f64>,
    service_ms: Vec<f64>,
    wall_s: f64,
    probes: Vec<probe::Probe>,
    delta_backlog_max: usize,
}

fn closed_loop(server: &DbServer, inp: &Inputs, mut spans: Option<&mut Spans>) -> Result<Loop> {
    let cost = config(0).cost;
    let mut session = server.session();
    let mut out = Loop::default();
    let t0 = Instant::now();
    for (c, q) in inp.queries.iter().enumerate() {
        let cycle = Instant::now();
        for a in 0..APPENDS_PER_CYCLE {
            let op = c * APPENDS_PER_CYCLE + a;
            let batch = inp.batches[op].clone();
            let t = Instant::now();
            let res = session.append("lineitem", batch);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if let Some(spans) = spans.as_deref_mut() {
                spans.record(APPEND, op, None, (ms * 1e6) as u64);
            }
            match res {
                Ok(_) => out.append_ms.push(ms),
                Err(_) => {
                    out.failed_appends += 1;
                    out.append_ms.push(FAILED_MS);
                }
            }
        }
        let t = Instant::now();
        let res = session.run(q);
        let run_ms = t.elapsed().as_secs_f64() * 1e3;
        out.cycle_ms.push(cycle.elapsed().as_secs_f64() * 1e3);
        match res {
            Ok(r) => {
                out.queue_wait_ms.push(r.stats.queue_wait_secs * 1e3);
                out.service_ms.push(run_ms - r.stats.queue_wait_secs * 1e3);
                out.records.push(Some(QueryRecord::new(Digest::of(&r.rows), &r.stats, &cost)));
            }
            Err(_) => out.records.push(None),
        }
        if let Some(spans) = spans.as_deref_mut() {
            let (probe, backlog) = server.with_engine(|db| -> Result<(probe::Probe, usize)> {
                let p = probe::probe(&*db, q, c, spans)?;
                let clock = SimClock::new();
                spans.time(READPATH, c, None, || readpath::execute_query(&*db, q, &clock))?;
                Ok((p, db.table("lineitem")?.delta().len()))
            })?;
            out.probes.push(probe);
            out.delta_backlog_max = out.delta_backlog_max.max(backlog);
        }
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    Ok(out)
}

pub fn run(args: &Args) -> Result<Outcome> {
    let mut out = Outcome::default();
    let inp = inputs(args.seed);
    let cfg = config(args.seed);
    out.detail("config", format!("{cfg:?}"));
    out.detail("server", format!("{:?}", server_options()));
    out.detail(
        "workload",
        format!(
            "ingest_skew scale={SCALE} cycles_per_round={} appends_per_cycle={APPENDS_PER_CYCLE} \
             rows_per_append={ROWS_PER_APPEND} zipf_s={ZIPF_S}",
            inp.queries.len()
        ),
    );

    // Each round replays the whole sequence on a fresh server. Round 0
    // is the warm-up: the heap is counted during it, set-up included,
    // and its timings are not used. The traced run makes one timed round
    // as its overhead baseline.
    let timed = if args.trace { 1 } else { rounds_for(args.seconds) - 1 };
    let mut setups = Vec::new();
    let round = |setups: &mut Vec<f64>| -> Result<(Loop, ServerReport)> {
        let (mut server, secs) = setup(&inp, args.seed)?;
        setups.push(secs);
        let run = closed_loop(&server, &inp, None)?;
        // Let maintenance fold what is due before reading counters.
        server.drain_maintenance();
        let report = server.report();
        server.stop();
        Ok((run, report))
    };
    let (warm, peak_heap_mb) = alloc::count(|| round(&mut setups));
    let (warm, report) = warm?;
    let mut runs = vec![warm];
    for _ in 0..timed {
        runs.push(round(&mut setups)?.0);
    }
    while setups.len() < SETUPS {
        setups.push(setup(&inp, args.seed)?.1);
    }

    // Reference answers: replay the appends in order over the rows as
    // generated, answering each query after its cycle's appends.
    let mut lineitem = inp.lineitem.clone();
    let mut want = Vec::new();
    for (c, q) in inp.queries.iter().enumerate() {
        for batch in &inp.batches[c * APPENDS_PER_CYCLE..(c + 1) * APPENDS_PER_CYCLE] {
            lineitem.extend(batch.iter().cloned());
        }
        let tables: Tables<'_> = [("lineitem", lineitem.as_slice()), ("part", inp.part.as_slice())]
            .into_iter()
            .collect();
        want.push(oracle::answer(&tables, q));
    }

    let (mut appends, mut cycles, mut pooled, mut sim_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut non_shuffle = 0;
    for (round, run) in runs.iter().enumerate() {
        out.attempted += run.append_ms.len() + run.records.len();
        out.failed += run.failed_appends;
        let mut cycle_ms = Vec::new();
        for (((q, rec), want), ms) in
            inp.queries.iter().zip(&run.records).zip(&want).zip(&run.cycle_ms)
        {
            match rec {
                Some(r) if r.digest == *want => {
                    cycle_ms.push(Some(*ms));
                    sim_s.push(r.sim_s);
                    if matches!(q, Query::Join(_)) && r.strategy != JoinStrategy::ShuffleJoin {
                        non_shuffle += 1;
                    }
                }
                _ => {
                    cycle_ms.push(None);
                    out.failed += 1;
                }
            }
        }
        if round > 0 {
            cycles.push(cycle_ms);
            appends.push(run.append_ms.iter().map(|&ms| (ms < FAILED_MS).then_some(ms)).collect());
            pooled.extend_from_slice(&run.append_ms);
        }
    }
    let appended_blocks = report.ingest.rows_appended as f64 / cfg.rows_per_block as f64;
    let write_amp = report.maintenance_io.writes as f64 / appended_blocks;
    out.detail("error_rate", out.failed as f64 / out.attempted as f64);
    out.detail("write_amp", write_amp);
    out.detail("non_shuffle_joins", non_shuffle);
    out.detail("ingest", format!("{:?}", report.ingest));

    if args.trace {
        let (mut traced_server, _) = setup(&inp, args.seed)?;
        let mut spans = Spans::new();
        let traced = closed_loop(&traced_server, &inp, Some(&mut spans))?;
        traced_server.drain_maintenance();
        let traced_report = traced_server.report();
        traced_server.stop();
        let covered_ms = spans.total_ms(APPEND)
            + traced.queue_wait_ms.iter().sum::<f64>()
            + spans.total_ms(READPATH);
        layers::report(
            &mut out,
            &LayerInputs {
                queries: &inp.queries,
                records: &traced.records,
                probes: &traced.probes,
                spans: &spans,
                server: Some(ServerSide {
                    queue_wait_ms: traced.queue_wait_ms,
                    service_ms: traced.service_ms,
                    report: traced_report,
                }),
                ingest: Some(IngestSide { delta_backlog_max: traced.delta_backlog_max, write_amp }),
                late_ms: Vec::new(),
                op_tail_ms: p50_and_tail(&runs[1].append_ms).1,
                overhead: traced.wall_s / runs[1].wall_s - 1.0,
                coverage: covered_ms / traced.cycle_ms.iter().sum::<f64>(),
            },
        );
        if let Some(path) = &args.spans_out {
            spans.write_jsonl(path).map_err(|e| adaptdb_common::Error::Plan(e.to_string()))?;
        }
    } else {
        // A cycle whose query failed in any round reads FAILED_MS and
        // is left out of the completed queries.
        let best_cycles: Vec<f64> =
            best_of(&cycles).into_iter().filter(|&ms| ms < FAILED_MS).collect();
        let qps = best_cycles.len() as f64 / (best_cycles.iter().sum::<f64>() / 1e3);
        let (p50_ms, _) = p50_and_tail(&best_of(&appends));
        // The tail pools every timed append rather than taking each
        // append's best round: a fold stall lands on whichever append
        // meets the fold, which is not the same append in every round.
        let (_, tail_ms) = p50_and_tail(&pooled);
        let tail_q = tail_q(pooled.len());
        out.detail(
            "op_stats",
            format!(
                "append acknowledgement: p50 of per-append best of {timed} rounds after a warm-up \
             round; tail = p{} of all {} timed appends; qps over per-cycle best",
                tail_q * 100.0,
                pooled.len()
            ),
        );
        let e2e = EndToEnd::p50_of("append", qps, p50_ms, tail_ms, tail_q);
        out.end_to_end(e2e, &sim_s, &setups, peak_heap_mb);
    }
    out.correct = out.failed == 0 && out.broken.is_empty();
    Ok(out)
}

/// Rounds per run, warm-up included: fixed by `--seconds` alone, never
/// by how fast the engine is, so both sides of a comparison do the same
/// work.
fn rounds_for(seconds: u32) -> usize {
    (CYCLES_PER_SECOND * seconds as usize / CYCLES).max(2)
}
