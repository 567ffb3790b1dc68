//! EXPLAIN renders the plan execution runs. The Fig. 13b shifting
//! sequence (all eight TPC-H templates, multi-way joins included) is
//! replayed in every mode. After each query, EXPLAIN and an execution
//! on the same layout must agree on the strategy and, bit for bit, on
//! the `C_HyJ` estimate; EXPLAIN's candidate blocks must equal the
//! admission estimate's count, and under FullScan the table blocks
//! execution reads.

use adaptdb::{cost, readpath, Database, DbConfig, Mode};
use adaptdb_common::rng;
use adaptdb_common::stats::JoinStrategy;
use adaptdb_dfs::SimClock;
use adaptdb_workloads::patterns;
use adaptdb_workloads::tpch::{Template, TpchGen};

fn replay_and_compare(mode: Mode) {
    let seq = patterns::shifting(&Template::all(), 10, 42);
    assert_eq!(seq.len(), 80);
    let config = DbConfig {
        rows_per_block: 50,
        window_size: 10,
        buffer_blocks: 4,
        nodes: 4,
        replication: 1,
        join_mem_budget_blocks: None,
        ..DbConfig::default()
    }
    .with_mode(mode);
    let mut db = Database::new(config);
    TpchGen::new(0.05, 42).load_upfront(&mut db).unwrap();
    let mut q_rng = rng::seeded(7);
    let mut mismatches = Vec::new();
    let mut strategies = Vec::new();
    for (i, template) in seq.iter().enumerate() {
        let q = template.instantiate(&mut q_rng);
        db.run(&q).unwrap();
        let report = db.explain(&q).unwrap();
        let est = cost::estimate_query(&db, &q).unwrap();
        let clock = SimClock::new();
        let (_, strategy, c_hyj) = readpath::execute_query(&db, &q, &clock).unwrap();
        strategies.push(strategy);
        let candidates: usize = report.candidates.iter().map(|(_, m, o)| m + o).sum();
        let mut why = Vec::new();
        if report.strategy != strategy {
            why.push(format!("strategy {} vs ran {strategy}", report.strategy));
        }
        if report.est_c_hyj.map(f64::to_bits) != c_hyj.map(f64::to_bits) {
            why.push(format!("C_HyJ {:?} vs ran {c_hyj:?}", report.est_c_hyj));
        }
        if candidates != est.blocks {
            why.push(format!("{candidates} candidates vs {} estimated", est.blocks));
        }
        if mode == Mode::FullScan {
            // Table blocks read: every read that is not a shuffle run
            // fetch.
            let (io, sh) = (clock.snapshot(), clock.shuffle_snapshot());
            let table_reads = io.reads() - sh.fetches() - sh.broadcast_fetches;
            if candidates != table_reads {
                why.push(format!("{candidates} candidates vs {table_reads} blocks read"));
            }
        }
        if !why.is_empty() {
            mismatches.push(format!("q{i} {}: {}", template.name(), why.join(", ")));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{mode:?}: {} of {} queries disagree:\n{}",
        mismatches.len(),
        seq.len(),
        mismatches.join("\n")
    );
    if matches!(mode, Mode::Adaptive | Mode::FullRepartition) {
        assert!(
            strategies.contains(&JoinStrategy::HyperJoin),
            "{mode:?}: the sequence must reach hyper-joins"
        );
    }
}

#[test]
fn explain_agrees_with_execution_adaptive() {
    replay_and_compare(Mode::Adaptive);
}

#[test]
fn explain_agrees_with_execution_full_scan() {
    replay_and_compare(Mode::FullScan);
}

#[test]
fn explain_agrees_with_execution_full_repartition() {
    replay_and_compare(Mode::FullRepartition);
}

#[test]
fn explain_agrees_with_execution_amoeba() {
    replay_and_compare(Mode::Amoeba);
}

#[test]
fn explain_agrees_with_execution_fixed() {
    replay_and_compare(Mode::Fixed);
}
