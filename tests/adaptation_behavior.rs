//! Behavioural integration tests of the adaptive machinery on the
//! paper's workloads: convergence, smooth migration, window effects.

use adaptdb::{Database, DbConfig, Mode};
use adaptdb_common::rng;
use adaptdb_common::stats::JoinStrategy;
use adaptdb_workloads::cmt::CmtGen;
use adaptdb_workloads::patterns;
use adaptdb_workloads::tpch::{li, Template, TpchGen};

fn tpch_db(mode: Mode, scale: f64) -> (TpchGen, Database) {
    let gen = TpchGen::new(scale, 17);
    let config = DbConfig {
        rows_per_block: 50,
        window_size: 10,
        buffer_blocks: 4,
        nodes: 4,
        replication: 1,
        ..DbConfig::default()
    }
    .with_mode(mode);
    let mut db = Database::new(config);
    gen.load_upfront(&mut db).unwrap();
    (gen, db)
}

/// Repeating one join template converges to hyper-join with a single
/// lineitem tree on that template's join attribute, and the steady-state
/// query cost is below the starting cost (the Fig. 13 per-template arc).
#[test]
fn repeated_template_converges_to_hyper_join() {
    let (_, mut db) = tpch_db(Mode::Adaptive, 0.03);
    let mut q_rng = rng::seeded(3);
    let mut first = None;
    let mut last = None;
    for _ in 0..12 {
        let q = Template::Q12.instantiate(&mut q_rng);
        let res = db.run(&q).unwrap();
        let t = res.simulated_secs(db.config());
        if first.is_none() {
            first = Some(t);
        }
        last = Some((t, res.stats.strategy, res.stats.repartition_io.writes));
    }
    let (t_last, strategy, rep_writes) = last.unwrap();
    assert_eq!(strategy, JoinStrategy::HyperJoin, "must converge to hyper-join");
    assert_eq!(rep_writes, 0, "migration must have completed");
    assert!(t_last < first.unwrap(), "steady state must beat cold start");
    let lt = db.table("lineitem").unwrap();
    assert_eq!(lt.trees().len(), 1);
    assert_eq!(lt.trees()[0].join_attr(), Some(li::ORDERKEY));
}

/// Switching the join attribute (q12 → q14) smoothly migrates lineitem
/// from the orderkey tree to the partkey tree: two trees coexist, data
/// fractions track window fractions, and the old tree eventually drains.
#[test]
fn smooth_migration_tracks_window_fractions() {
    let (_, mut db) = tpch_db(Mode::Adaptive, 0.03);
    let mut q_rng = rng::seeded(5);
    for _ in 0..10 {
        let q = Template::Q12.instantiate(&mut q_rng);
        db.run(&q).unwrap();
    }
    // Now switch to q14 (partkey) and watch fractions move. Fractions
    // are measured in rows — the paper's |T| is data volume.
    let tree_row_fraction = |db: &Database| -> f64 {
        let lt = db.table("lineitem").unwrap();
        let rows_of = |blocks: Vec<u32>| -> usize {
            blocks.iter().map(|b| db.store().block_meta("lineitem", *b).unwrap().row_count).sum()
        };
        let total: usize = lt.trees().iter().map(|t| rows_of(t.all_blocks())).sum();
        let part = lt
            .tree_for_join_attr(li::PARTKEY)
            .map(|i| rows_of(lt.trees()[i].all_blocks()))
            .unwrap_or(0);
        part as f64 / total as f64
    };
    let mut fractions = Vec::new();
    for i in 0..10 {
        let q = Template::Q14.instantiate(&mut q_rng);
        db.run(&q).unwrap();
        let frac = tree_row_fraction(&db);
        fractions.push(frac);
        // Data fraction must roughly track the window fraction (i+1)/10,
        // never wildly overshooting it.
        let window_frac = ((i + 1) as f64 / 10.0).min(1.0);
        assert!(
            frac <= window_frac + 0.35,
            "query {i}: data fraction {frac:.2} overshot window {window_frac:.2}"
        );
    }
    assert!(fractions[9] > 0.9, "migration should be ~complete: {fractions:?}");
    assert!(
        fractions.windows(2).all(|w| w[1] >= w[0] - 1e-9),
        "migration must be monotone: {fractions:?}"
    );
}

/// f_min gates tree creation: with a high threshold, a single query with
/// a new join attribute must NOT trigger repartitioning.
#[test]
fn min_join_frequency_gates_tree_creation() {
    let gen = TpchGen::new(0.03, 17);
    let config = DbConfig {
        rows_per_block: 50,
        window_size: 10,
        min_join_frequency: 3,
        nodes: 4,
        replication: 1,
        adapt_selections: false,
        ..DbConfig::default()
    };
    let mut db = Database::new(config);
    gen.load_upfront(&mut db).unwrap();
    let mut q_rng = rng::seeded(7);
    // Two q14 queries: below f_min = 3 → no partkey tree yet.
    for _ in 0..2 {
        let q = Template::Q14.instantiate(&mut q_rng);
        let res = db.run(&q).unwrap();
        assert_eq!(res.stats.repartition_io.writes, 0);
    }
    assert!(db.table("lineitem").unwrap().tree_for_join_attr(li::PARTKEY).is_none());
    // Third query crosses the threshold.
    let q = Template::Q14.instantiate(&mut q_rng);
    db.run(&q).unwrap();
    assert!(db.table("lineitem").unwrap().tree_for_join_attr(li::PARTKEY).is_some());
}

/// The Repartitioning baseline triggers exactly at half the window and
/// rewrites everything at once — the latency spike of Figs. 13/18.
#[test]
fn full_repartition_baseline_spikes_once() {
    let (_, mut db) = tpch_db(Mode::FullRepartition, 0.03);
    let mut q_rng = rng::seeded(11);
    let mut spike_writes = 0usize;
    let mut spike_query = None;
    for i in 0..8 {
        let q = Template::Q14.instantiate(&mut q_rng);
        let res = db.run(&q).unwrap();
        if res.stats.repartition_io.writes > 0 {
            assert!(spike_query.is_none(), "must spike exactly once");
            spike_query = Some(i);
            spike_writes = res.stats.repartition_io.writes;
        }
    }
    // Trigger at n = |W|/2 = 5 → query index 4.
    assert_eq!(spike_query, Some(4));
    // The spike rewrites a large share of lineitem + part in one go.
    let total =
        db.table("lineitem").unwrap().total_blocks() + db.table("part").unwrap().total_blocks();
    assert!(spike_writes * 2 >= total, "spike of {spike_writes} vs {total} blocks");
}

/// A smaller query window adapts faster on the Fig. 15 workload.
#[test]
fn smaller_window_converges_faster() {
    let converged_at = |window: usize| -> usize {
        let gen = TpchGen::new(0.03, 17);
        let config = DbConfig {
            rows_per_block: 50,
            window_size: window,
            nodes: 4,
            replication: 1,
            adapt_selections: false,
            ..DbConfig::default()
        };
        let mut db = Database::new(config);
        gen.load_upfront(&mut db).unwrap();
        let mut q_rng = rng::seeded(13);
        // Warm up on orderkey joins.
        for _ in 0..4 {
            let q = Template::Q12.instantiate(&mut q_rng);
            db.run(&q).unwrap();
        }
        // Switch to partkey joins; count queries until pure hyper-join.
        for i in 0..40 {
            let q = Template::Q14.instantiate(&mut q_rng);
            let res = db.run(&q).unwrap();
            if res.stats.strategy == JoinStrategy::HyperJoin && res.stats.repartition_io.writes == 0
            {
                return i;
            }
        }
        40
    };
    let fast = converged_at(4);
    let slow = converged_at(20);
    assert!(fast < slow, "window 4 converged at {fast}, window 20 at {slow}");
}

/// The CMT trace runs end-to-end in every mode and AdaptDB's total beats
/// FullScan's (the Fig. 18 headline).
#[test]
fn cmt_trace_headline() {
    let gen = CmtGen::new(600, 23);
    let run_total = |mode: Mode| -> f64 {
        let config =
            DbConfig { rows_per_block: 50, nodes: 4, replication: 1, ..DbConfig::default() }
                .with_mode(mode);
        let mut db = Database::new(config);
        if mode == Mode::Fixed {
            gen.load_best_guess(&mut db).unwrap();
        } else {
            gen.load_upfront(&mut db).unwrap();
        }
        let mut total = 0.0;
        for q in gen.trace() {
            total += db.run(&q).unwrap().simulated_secs(db.config());
        }
        total
    };
    let full_scan = run_total(Mode::FullScan);
    let adaptive = run_total(Mode::Adaptive);
    let best_guess = run_total(Mode::Fixed);
    assert!(adaptive < full_scan, "AdaptDB ({adaptive:.0}) must beat FullScan ({full_scan:.0})");
    assert!(
        best_guess < full_scan,
        "hand-tuned ({best_guess:.0}) must beat FullScan ({full_scan:.0})"
    );
}

/// The per-template arc of Fig. 13a: within one template's activity
/// window, AdaptDB's *steady-state* queries (after migration amortizes)
/// are much cheaper than FullScan's. Aggregate totals additionally need
/// long activity windows, which the release-mode `fig13_workloads`
/// binary demonstrates at scale (the paper concedes the same: "the
/// aggregate benefit of repartitioning is dependent on the amount of
/// time each query is active").
#[test]
fn switching_workload_steady_state() {
    let seq = patterns::switching(&[Template::Q12], 16);
    let tail = |mode: Mode| -> f64 {
        let (_, mut db) = tpch_db(mode, 0.03);
        let mut q_rng = rng::seeded(31);
        let times: Vec<f64> = seq
            .iter()
            .map(|t| {
                let q = t.instantiate(&mut q_rng);
                db.run(&q).unwrap().simulated_secs(db.config())
            })
            .collect();
        times[times.len() - 4..].iter().sum::<f64>() / 4.0
    };
    let full = tail(Mode::FullScan);
    let adaptive = tail(Mode::Adaptive);
    assert!(adaptive < full * 0.75, "steady-state adaptive {adaptive:.1} vs full scan {full:.1}");
}

/// A seeded Fig. 13b shifting sequence through `Database::run` is
/// repeatable: a second database built from the same seeds gives every
/// query the same rows and the same simulated counters.
#[test]
fn shifting_sequence_counters_are_repeatable() {
    let seq = patterns::shifting(&Template::all(), 3, 5);
    let run = || {
        let gen = TpchGen::new(0.03, 17);
        let config = DbConfig {
            rows_per_block: 50,
            window_size: 10,
            buffer_blocks: 4,
            nodes: 4,
            replication: 1,
            fetch_window: 4,
            ..DbConfig::default()
        }
        .with_mode(Mode::Adaptive);
        let mut db = Database::new(config);
        gen.load_upfront(&mut db).unwrap();
        let mut q_rng = rng::seeded(13);
        seq.iter()
            .map(|t| {
                let r = db.run(&t.instantiate(&mut q_rng)).unwrap();
                let s = r.stats;
                let c_hyj = s.estimated_c_hyj.map(f64::to_bits);
                (r.rows, s.query_io, s.repartition_io, s.shuffle, s.overlap, s.strategy, c_hyj)
            })
            .collect::<Vec<_>>()
    };
    let want = run();
    assert!(want.iter().any(|q| q.2.writes > 0), "the sequence must trigger adaptation");
    let got = run();
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "query {i}");
    }
}
