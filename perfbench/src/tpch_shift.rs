//! `tpch_shift`: the paper's Fig. 13b shifting sequence over all eight
//! TPC-H templates, run closed-loop through the serial `Database::run`
//! in `Mode::Adaptive` on upfront-partitioned tables. Adaptation runs
//! inline, so every pass replays the same layout sequence and wall time
//! measures only the engine.

use std::time::Instant;

use adaptdb::readpath;
use adaptdb::{Database, Mode};
use adaptdb_common::{rng, Query, QueryStats, Result, Row};
use adaptdb_dfs::SimClock;
use adaptdb_workloads::patterns;
use adaptdb_workloads::tpch::{Template, TpchGen};

use crate::common::{
    best_of, counters_digest, p50_and_tail, pinned_config, secs_since, tail_q, EndToEnd, Outcome,
    QueryRecord,
};
use crate::layers::{self, LayerInputs, ADAPT, READPATH};
use crate::oracle::{self, Digest, Tables};
use crate::probe;
use crate::spans::Spans;
use crate::{alloc, Args};

/// TPC-H micro scale: 21k lineitem, 5.25k orders.
const SCALE: f64 = 0.35;
/// Queries per template transition (the paper's 20).
const TRANSITION: usize = 20;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 15;
/// Seed of the query sequence — the template schedule and each query's
/// predicate constants. The sequence is the workload's definition (one
/// Fig. 13b instance, as in the paper), so every run does comparable
/// work; `--seed` draws the table rows. The templates' costs differ
/// several-fold, so drawing constants per run would move queries
/// between cost modes and with them the median latency.
const SEQUENCE_SEED: u64 = 42;

struct Inputs {
    tables: Vec<(&'static str, Vec<Row>)>,
    queries: Vec<Query>,
}

fn inputs(seed: u64) -> Inputs {
    let gen = TpchGen::new(SCALE, seed);
    let tables = vec![
        ("lineitem", gen.lineitem()),
        ("orders", gen.orders()),
        ("customer", gen.customer()),
        ("part", gen.part()),
        ("supplier", gen.supplier()),
    ];
    let seq = patterns::shifting(&Template::all(), TRANSITION, SEQUENCE_SEED);
    let mut q_rng = rng::derived(SEQUENCE_SEED, "tpch_shift");
    let queries = seq.iter().map(|t| t.instantiate(&mut q_rng)).collect();
    Inputs { tables, queries }
}

/// Load the generated rows through the upfront partitioner. Returns the
/// database and the wall seconds from rows in hand to ready.
fn setup(inp: &Inputs, seed: u64) -> Result<(Database, f64)> {
    let tables = inp.tables.clone();
    let t = Instant::now();
    let mut db = Database::new(pinned_config(seed, Mode::Adaptive));
    TpchGen::new(SCALE, seed).create_tables(&mut db)?;
    for (name, rows) in tables {
        db.load_rows(name, rows)?;
    }
    Ok((db, secs_since(t)))
}

/// One closed-loop pass through `Database::run`.
struct Pass {
    records: Vec<Option<QueryRecord>>,
    wall_ms: Vec<f64>,
}

fn run_pass(db: &mut Database, queries: &[Query]) -> Pass {
    let cost = db.config().cost.clone();
    let mut pass = Pass { records: Vec::new(), wall_ms: Vec::new() };
    for q in queries {
        let t = Instant::now();
        let res = db.run(q);
        let wall = secs_since(t);
        pass.wall_ms.push(wall * 1e3);
        pass.records.push(res.ok().map(|r| QueryRecord::new(Digest::of(&r.rows), &r.stats, &cost)));
    }
    pass
}

/// `Database::run` replayed as its public parts, each timed under one
/// `query` span: window bookkeeping and adaptation, then the side-calls
/// on the adapted snapshot, then the read path. Returns the records (which must equal
/// the untraced pass's) and the wall seconds of the whole replay.
fn traced_pass(
    db: &mut Database,
    queries: &[Query],
    spans: &mut Spans,
    probes: &mut Vec<probe::Probe>,
) -> Result<(Vec<QueryRecord>, f64)> {
    let cost = db.config().cost.clone();
    let mut records = Vec::new();
    let t = Instant::now();
    for (i, q) in queries.iter().enumerate() {
        let root = spans.start("query", i, None);
        let repart = SimClock::new();
        spans.time(ADAPT, i, Some(root), || -> Result<()> {
            db.record_observation(q)?;
            db.adapt_now(q, &repart)
        })?;
        probes.push(probe::probe(&*db, q, i, spans)?);
        let clock = SimClock::new();
        let (rows, strategy, c_hyj) =
            spans.time(READPATH, i, Some(root), || readpath::execute_query(&*db, q, &clock))?;
        spans.end(root);
        let mut stats = QueryStats::empty(strategy);
        stats.query_io = clock.snapshot();
        stats.repartition_io = repart.snapshot();
        stats.shuffle = clock.shuffle_snapshot();
        stats.overlap = clock.overlap_snapshot();
        stats.cache = clock.cache_snapshot();
        stats.cache.merge(&repart.cache_snapshot());
        stats.estimated_c_hyj = c_hyj;
        records.push(QueryRecord::new(Digest::of(&rows), &stats, &cost));
    }
    Ok((records, secs_since(t)))
}

pub fn run(args: &Args) -> Result<Outcome> {
    let mut out = Outcome::default();
    let inp = inputs(args.seed);
    out.detail("config", format!("{:?}", pinned_config(args.seed, Mode::Adaptive)));
    out.detail(
        "workload",
        format!(
            "tpch_shift scale={SCALE} queries_per_pass={} transition={TRANSITION}",
            inp.queries.len()
        ),
    );
    // Pass 0 is the warm-up: the heap is counted during it (set-up
    // included) and its timings are not used. The traced run makes one
    // timed pass as its overhead baseline.
    let timed = if args.trace { 1 } else { passes_for(args.seconds) - 1 };
    let mut setups = Vec::new();
    let (warmup, peak_heap_mb) = alloc::count(|| -> Result<Pass> {
        let (mut db, s) = setup(&inp, args.seed)?;
        setups.push(s);
        Ok(run_pass(&mut db, &inp.queries))
    });
    let mut runs = vec![warmup?];
    for p in 0..timed.max(SETUPS) {
        let (mut db, s) = setup(&inp, args.seed)?;
        setups.push(s);
        if p < timed {
            runs.push(run_pass(&mut db, &inp.queries));
        }
    }

    // Reference answers, outside every timed window.
    let tables: Tables<'_> = inp.tables.iter().map(|(n, r)| (*n, r.as_slice())).collect();
    let want: Vec<Digest> = inp.queries.iter().map(|q| oracle::answer(&tables, q)).collect();

    let mut rounds = Vec::new();
    for (p, pass) in runs.iter().enumerate() {
        let lat: Vec<Option<f64>> = pass
            .records
            .iter()
            .zip(&want)
            .zip(&pass.wall_ms)
            .map(|((rec, want), ms)| rec.as_ref().filter(|r| r.digest == *want).map(|_| *ms))
            .collect();
        out.attempted += lat.len();
        out.failed += lat.iter().filter(|l| l.is_none()).count();
        if p > 0 {
            rounds.push(lat);
            out.check(
                pass.records == runs[0].records,
                format!("pass {p} simulated counters differ from pass 0 (same seed)"),
            );
        }
    }
    let sim_s: Vec<f64> = runs[0].records.iter().flatten().map(|r| r.sim_s).collect();
    let first: Vec<QueryRecord> = runs[0].records.iter().flatten().cloned().collect();
    out.detail("sim_counters_digest", format!("{:016x}", counters_digest(&first)));
    out.detail("error_rate", out.failed as f64 / out.attempted as f64);

    if args.trace {
        let (mut db, _) = setup(&inp, args.seed)?;
        let mut spans = Spans::new();
        let mut probes = Vec::new();
        let (records, traced_s) = traced_pass(&mut db, &inp.queries, &mut spans, &mut probes)?;
        out.check(
            records.iter().map(Some).eq(runs[0].records.iter().map(Option::as_ref)),
            "traced replay differs from Database::run in rows or simulated counters",
        );
        let untraced_s = runs[1].wall_ms.iter().sum::<f64>() / 1e3;
        let covered_s = (spans.total_ms(ADAPT) + spans.total_ms(READPATH)) / 1e3;
        layers::report(
            &mut out,
            &LayerInputs {
                queries: &inp.queries,
                records: &records.into_iter().map(Some).collect::<Vec<_>>(),
                probes: &probes,
                spans: &spans,
                server: None,
                ingest: None,
                late_ms: Vec::new(),
                op_tail_ms: p50_and_tail(&runs[1].wall_ms).1,
                overhead: traced_s / untraced_s - 1.0,
                coverage: covered_s / (traced_s - probe::side_call_ms(&spans) / 1e3),
            },
        );
        if let Some(path) = &args.spans_out {
            spans.write_jsonl(path).map_err(|e| adaptdb_common::Error::Plan(e.to_string()))?;
        }
    } else {
        let best = best_of(&rounds);
        let qps = best.len() as f64 / (best.iter().sum::<f64>() / 1e3);
        let tail_q = tail_q(best.len());
        out.detail(
            "op_stats",
            format!(
                "per-query best of {timed} passes after a warm-up pass; tail = p{} of {} queries",
                tail_q * 100.0,
                best.len()
            ),
        );
        let e2e = EndToEnd::gmean_of("query", qps, &best);
        out.end_to_end(e2e, &sim_s, &setups, peak_heap_mb);
    }
    out.correct = out.failed == 0 && out.broken.is_empty();
    Ok(out)
}

/// Passes per run, warm-up included: fixed by `--seconds` alone (one pass takes about
/// 3.5 s on a two-core host), never by how fast the engine is, so both
/// sides of a comparison do the same work.
fn passes_for(seconds: u32) -> usize {
    (seconds as usize * 2).div_ceil(7).max(2)
}
