//! `point_lookup`: narrow `orders` key-range scans sent open-loop at one
//! fixed rate through `DbServer`, on tables sitting on converged
//! two-phase trees (`Mode::Fixed`). Latency is timed from each request's
//! due time, so a stall also charges the requests queued behind it.
//! Per-query fixed costs dominate: admission and classification, the
//! scheduler hand-off, the snapshot pin, the per-query config clone, the
//! metrics mutexes, and operator thread spawns.

use std::time::{Duration, Instant};

use adaptdb::readpath;
use adaptdb::{Database, Mode};
use adaptdb_common::{rng, CmpOp, Predicate, PredicateSet, Query, Result, Row, ScanQuery};
use adaptdb_dfs::SimClock;
use adaptdb_server::DbServer;
use adaptdb_workloads::tpch::{li, ord, TpchGen};
use rand::RngExt;

use crate::common::{
    best_of, counters_digest, mean, median, p50_and_tail, pinned_config, quantile, server_options,
    sorted, tail_q, EndToEnd, Outcome, QueryRecord, FAILED_MS,
};
use crate::layers::{self, LayerInputs, ServerSide, READPATH};
use crate::oracle::{self, Digest, Tables};
use crate::probe;
use crate::spans::Spans;
use crate::{alloc, Args};

const SCALE: f64 = 1.0;
/// Offered lookup rate (requests per second), well below the serving
/// capacity of one client against two workers.
const RATE: f64 = 1000.0;
/// Lookups per round: each round replays the same list, and each
/// lookup's latency is its best timed round, so a round must hold the
/// 1000 samples a p99 needs.
const LOOKUPS: usize = 1000;
/// Keys per lookup range.
const KEY_SPAN: i64 = 16;
const SETUPS: usize = 11;
/// The generator sleeps until this close to a due time, then spins, so
/// sleep overshoot does not show up as latency.
const SPIN: Duration = Duration::from_micros(300);

struct Inputs {
    orders: Vec<Row>,
    lineitem: Vec<Row>,
    lookups: Vec<Query>,
}

fn inputs(seed: u64) -> Inputs {
    let gen = TpchGen::new(SCALE, seed);
    let orders = gen.orders();
    let mut rng = rng::derived(seed, "point_lookup");
    let keys = orders.len() as i64 - KEY_SPAN;
    let lookups = (0..LOOKUPS)
        .map(|_| {
            let k = rng.random_range(0..keys);
            Query::Scan(ScanQuery::new(
                "orders",
                PredicateSet::none()
                    .and(Predicate::new(ord::ORDERKEY, CmpOp::Ge, k))
                    .and(Predicate::new(ord::ORDERKEY, CmpOp::Lt, k + KEY_SPAN)),
            ))
        })
        .collect();
    Inputs { orders, lineitem: gen.lineitem(), lookups }
}

/// Load `orders` and `lineitem` on converged two-phase trees and start
/// the server. Returns it with the wall seconds from rows in hand to
/// ready to serve.
fn setup(inp: &Inputs, seed: u64) -> Result<(DbServer, f64)> {
    let (orders, lineitem) = (inp.orders.clone(), inp.lineitem.clone());
    let t = Instant::now();
    let mut db = Database::new(pinned_config(seed, Mode::Fixed));
    TpchGen::new(SCALE, seed).create_tables(&mut db)?;
    db.load_two_phase("lineitem", lineitem, li::ORDERKEY, None)?;
    db.load_two_phase("orders", orders, ord::ORDERKEY, None)?;
    let server = DbServer::start_with(db, server_options());
    Ok((server, t.elapsed().as_secs_f64()))
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

#[derive(Default)]
struct Loop {
    records: Vec<Option<QueryRecord>>,
    /// Due time to completion, per lookup.
    lat_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// First due time to last completion.
    wall_s: f64,
    queue_wait_ms: Vec<f64>,
    service_ms: Vec<f64>,
    /// `Session::run` wall per lookup.
    run_ms: Vec<f64>,
    probes: Vec<probe::Probe>,
}

/// Send every lookup at its due time from one client thread. With
/// `spans`, also time the side-calls on the engine's snapshot between
/// requests.
fn open_loop(server: &DbServer, lookups: &[Query], mut spans: Option<&mut Spans>) -> Result<Loop> {
    let cost = pinned_config(0, Mode::Fixed).cost;
    let mut session = server.session();
    let mut out = Loop::default();
    let period = Duration::from_secs_f64(1.0 / RATE);
    let start = Instant::now();
    let mut last_done = start;
    for (i, q) in lookups.iter().enumerate() {
        let due = start + period * i as u32;
        wait_until(due);
        let sent = Instant::now();
        let res = session.run(q);
        last_done = Instant::now();
        out.late_ms.push((sent - due).as_secs_f64() * 1e3);
        let run_ms = (last_done - sent).as_secs_f64() * 1e3;
        match res {
            Ok(r) => {
                out.lat_ms.push((last_done - due).as_secs_f64() * 1e3);
                out.queue_wait_ms.push(r.stats.queue_wait_secs * 1e3);
                out.service_ms.push(run_ms - r.stats.queue_wait_secs * 1e3);
                out.run_ms.push(run_ms);
                out.records.push(Some(QueryRecord::new(Digest::of(&r.rows), &r.stats, &cost)));
            }
            Err(_) => {
                out.lat_ms.push(FAILED_MS);
                out.records.push(None);
            }
        }
        if let Some(spans) = spans.as_deref_mut() {
            out.probes.push(server.with_engine(|db| -> Result<probe::Probe> {
                let p = probe::probe(&*db, q, i, spans)?;
                let clock = SimClock::new();
                spans.time(READPATH, i, None, || readpath::execute_query(&*db, q, &clock))?;
                Ok(p)
            })?);
        }
    }
    out.wall_s = (last_done - start).as_secs_f64();
    Ok(out)
}

pub fn run(args: &Args) -> Result<Outcome> {
    let mut out = Outcome::default();
    let inp = inputs(args.seed);
    out.detail("config", format!("{:?}", pinned_config(args.seed, Mode::Fixed)));
    out.detail("server", format!("{:?}", server_options()));
    out.detail(
        "workload",
        format!(
            "point_lookup scale={SCALE} rate={RATE}/s lookups_per_round={} key_span={KEY_SPAN}",
            inp.lookups.len()
        ),
    );

    let mut setups = Vec::new();
    for _ in 1..SETUPS {
        let (server, secs) = setup(&inp, args.seed)?;
        setups.push(secs);
        drop(server);
    }
    // Round 0 is the warm-up (lazily built per-block state, allocator
    // arenas): the heap is counted during it, set-up included, and its
    // timings are not used. The traced run makes one timed round as its
    // overhead baseline.
    let (warm, peak_heap_mb) = alloc::count(|| -> Result<(DbServer, Loop)> {
        let (server, secs) = setup(&inp, args.seed)?;
        setups.push(secs);
        let warm = open_loop(&server, &inp.lookups, None)?;
        Ok((server, warm))
    });
    let (mut server, warm) = warm?;
    let rounds = if args.trace { 1 } else { rounds_for(args.seconds) - 1 };
    let mut runs = vec![warm];
    for _ in 0..rounds {
        runs.push(open_loop(&server, &inp.lookups, None)?);
    }

    let tables: Tables<'_> = [("orders", inp.orders.as_slice())].into_iter().collect();
    let want: Vec<Digest> = inp.lookups.iter().map(|q| oracle::answer(&tables, q)).collect();
    let mut lat_rounds = Vec::new();
    for (r, run) in runs.iter().enumerate() {
        let lat: Vec<Option<f64>> = run
            .records
            .iter()
            .zip(&want)
            .zip(&run.lat_ms)
            .map(|((rec, want), ms)| rec.as_ref().filter(|r| r.digest == *want).map(|_| *ms))
            .collect();
        out.attempted += lat.len();
        out.failed += lat.iter().filter(|l| l.is_none()).count();
        if r > 0 {
            lat_rounds.push(lat);
        }
        out.check(
            run.records == runs[0].records,
            format!("round {r} simulated counters differ from round 0 (same seed)"),
        );
    }
    let run = &runs[0];
    let ok: Vec<QueryRecord> = run.records.iter().flatten().cloned().collect();
    let sim_s: Vec<f64> = ok.iter().map(|r| r.sim_s).collect();
    out.detail("sim_counters_digest", format!("{:016x}", counters_digest(&ok)));
    out.detail("error_rate", out.failed as f64 / out.attempted as f64);
    let late: Vec<f64> = runs[1..].iter().flat_map(|r| r.late_ms.iter().copied()).collect();
    out.detail("late_p99_ms", quantile(&sorted(late), 0.99));

    if args.trace {
        let mut spans = Spans::new();
        let traced = open_loop(&server, &inp.lookups, Some(&mut spans))?;
        out.check(
            traced.records == runs[0].records,
            "traced lookups differ from untraced ones in rows or simulated counters",
        );
        let covered: f64 = traced.queue_wait_ms.iter().sum::<f64>() + spans.total_ms(READPATH);
        layers::report(
            &mut out,
            &LayerInputs {
                queries: &inp.lookups,
                records: &traced.records,
                probes: &traced.probes,
                spans: &spans,
                server: Some(ServerSide {
                    queue_wait_ms: traced.queue_wait_ms,
                    service_ms: traced.service_ms,
                    report: server.report(),
                }),
                ingest: None,
                late_ms: traced.late_ms,
                op_tail_ms: p50_and_tail(&runs[1].lat_ms).1,
                overhead: mean(&traced.lat_ms) / mean(&runs[1].lat_ms) - 1.0,
                coverage: covered / traced.run_ms.iter().sum::<f64>(),
            },
        );
        if let Some(path) = &args.spans_out {
            spans.write_jsonl(path).map_err(|e| adaptdb_common::Error::Plan(e.to_string()))?;
        }
    } else {
        let rates: Vec<f64> = runs[1..]
            .iter()
            .map(|r| r.records.iter().flatten().count() as f64 / r.wall_s)
            .collect();
        let best = best_of(&lat_rounds);
        let (p50_ms, tail_ms) = p50_and_tail(&best);
        let tail_q = tail_q(best.len());
        out.detail(
            "op_stats",
            format!(
            "per-lookup best of {rounds} rounds after a warm-up round; tail = p{} of {} lookups",
            tail_q * 100.0,
            best.len()
        ),
        );
        let e2e = EndToEnd::p50_of("lookup", median(&rates), p50_ms, tail_ms, tail_q);
        out.end_to_end(e2e, &sim_s, &setups, peak_heap_mb);
    }
    server.stop();
    out.correct = out.failed == 0 && out.broken.is_empty();
    Ok(out)
}

/// Rounds per run, warm-up included: fixed by `--seconds` alone (a
/// round takes `LOOKUPS / RATE` seconds), never by how fast the engine
/// is, so both sides of a comparison do the same work.
fn rounds_for(seconds: u32) -> usize {
    ((RATE * seconds as f64) as usize / LOOKUPS).max(2)
}
