//! The CMT telematics workload (§7.6, Fig. 18).
//!
//! The paper evaluates on anonymized trip logs from Cambridge Mobile
//! Telematics: one large fact table of trips (115 columns) plus
//! dimension tables of processed results (33 columns total), queried by
//! a 103-query production trace of exploratory lookups. The real data
//! and trace are proprietary; the paper itself ran a *synthetic* version
//! generated from the company's statistics. We synthesize one step
//! further removed, preserving the properties the experiment depends on:
//!
//! * a fact table (`trips`) much larger than the dimensions, with user /
//!   time / velocity attributes queried by range,
//! * a `history` table with several processed results per trip and a
//!   `latest` table with exactly one,
//! * a 103-query trace: mostly selective trip lookups and trip⋈history
//!   joins on `trip_id`, with a batch of large-fraction fetches around
//!   queries 30–50 (the spikes the paper calls out in Fig. 18).
//!
//! Column counts are reduced (12 fact columns instead of 115) — only
//! queried attributes influence partitioning behaviour; the rest would
//! be dead weight. Recorded as a substitution in DESIGN.md.

use adaptdb::Database;
use adaptdb_common::rng;
use adaptdb_common::{
    AttrId, CmpOp, JoinQuery, Predicate, PredicateSet, Query, Result, Row, ScanQuery, Schema,
    Value, ValueType,
};
use rand::RngExt;

/// trips attribute ids.
pub mod trips {
    use super::AttrId;
    pub const TRIP_ID: AttrId = 0;
    pub const USER_ID: AttrId = 1;
    pub const START_TIME: AttrId = 2;
    pub const END_TIME: AttrId = 3;
    pub const AVG_VELOCITY: AttrId = 4;
    pub const MAX_VELOCITY: AttrId = 5;
    pub const DISTANCE: AttrId = 6;
    pub const NIGHT: AttrId = 7;
    pub const PHONE: AttrId = 8;
    pub const SCORE: AttrId = 9;
    pub const BRAKING_EVENTS: AttrId = 10;
    pub const SPEEDING_EVENTS: AttrId = 11;
}

/// history attribute ids.
pub mod history {
    use super::AttrId;
    pub const TRIP_ID: AttrId = 0;
    pub const VERSION: AttrId = 1;
    pub const PROCESSED_AT: AttrId = 2;
    pub const SCORE: AttrId = 3;
}

/// latest attribute ids.
pub mod latest {
    use super::AttrId;
    pub const TRIP_ID: AttrId = 0;
    pub const PROCESSED_AT: AttrId = 1;
    pub const SCORE: AttrId = 2;
}

/// Time domain in minutes over ~3 days (matching the trace's span).
pub const TIME_MAX: i64 = 3 * 24 * 60;

/// Synthetic CMT generator.
#[derive(Debug, Clone)]
pub struct CmtGen {
    /// Number of trips in the fact table.
    pub trips: usize,
    /// Number of distinct users.
    pub users: usize,
    /// Seed.
    pub seed: u64,
}

impl CmtGen {
    /// Generator with `trips` fact rows.
    pub fn new(trips: usize, seed: u64) -> Self {
        CmtGen { trips, users: (trips / 20).max(4), seed }
    }

    /// trips schema.
    pub fn trips_schema() -> Schema {
        Schema::from_pairs(&[
            ("trip_id", ValueType::Int),
            ("user_id", ValueType::Int),
            ("start_time", ValueType::Int),
            ("end_time", ValueType::Int),
            ("avg_velocity", ValueType::Double),
            ("max_velocity", ValueType::Double),
            ("distance", ValueType::Double),
            ("night", ValueType::Bool),
            ("phone", ValueType::Str),
            ("score", ValueType::Double),
            ("braking_events", ValueType::Int),
            ("speeding_events", ValueType::Int),
        ])
    }

    /// history schema.
    pub fn history_schema() -> Schema {
        Schema::from_pairs(&[
            ("trip_id", ValueType::Int),
            ("version", ValueType::Int),
            ("processed_at", ValueType::Int),
            ("score", ValueType::Double),
        ])
    }

    /// latest schema.
    pub fn latest_schema() -> Schema {
        Schema::from_pairs(&[
            ("trip_id", ValueType::Int),
            ("processed_at", ValueType::Int),
            ("score", ValueType::Double),
        ])
    }

    /// Generate the fact table.
    pub fn trips(&self) -> Vec<Row> {
        let mut rng = rng::derived(self.seed, "cmt-trips");
        const PHONES: [&str; 4] = ["ios", "android", "other", "unknown"];
        (0..self.trips as i64)
            .map(|id| {
                let start = rng.random_range(0..TIME_MAX - 60);
                let avg = rng.random_range(10..80) as f64 + rng.random_range(0..100) as f64 / 100.0;
                Row::new(vec![
                    Value::Int(id),
                    Value::Int(rng.random_range(0..self.users as i64)),
                    Value::Int(start),
                    Value::Int(start + rng.random_range(5..120)),
                    Value::Double(avg),
                    Value::Double(avg * (1.2 + rng.random_range(0..50) as f64 / 100.0)),
                    Value::Double(rng.random_range(1..100) as f64),
                    Value::Bool(rng.random_bool(0.2)),
                    Value::Str(PHONES[rng.random_range(0..PHONES.len())].into()),
                    Value::Double(rng.random_range(0..100) as f64),
                    Value::Int(rng.random_range(0..20)),
                    Value::Int(rng.random_range(0..10)),
                ])
            })
            .collect()
    }

    /// Generate the history table (1–4 versions per trip).
    pub fn history(&self) -> Vec<Row> {
        let mut rng = rng::derived(self.seed, "cmt-history");
        let mut out = Vec::new();
        for id in 0..self.trips as i64 {
            let versions = rng.random_range(1..=4);
            for v in 0..versions {
                out.push(Row::new(vec![
                    Value::Int(id),
                    Value::Int(v),
                    Value::Int(rng.random_range(0..TIME_MAX)),
                    Value::Double(rng.random_range(0..100) as f64),
                ]));
            }
        }
        out
    }

    /// Generate the latest table (one row per trip).
    pub fn latest(&self) -> Vec<Row> {
        let mut rng = rng::derived(self.seed, "cmt-latest");
        (0..self.trips as i64)
            .map(|id| {
                Row::new(vec![
                    Value::Int(id),
                    Value::Int(rng.random_range(0..TIME_MAX)),
                    Value::Double(rng.random_range(0..100) as f64),
                ])
            })
            .collect()
    }

    /// Register schemas and bulk-load through the upfront partitioner.
    pub fn load_upfront(&self, db: &mut Database) -> Result<()> {
        self.create_tables(db)?;
        db.load_rows("trips", self.trips())?;
        db.load_rows("history", self.history())?;
        db.load_rows("latest", self.latest())?;
        Ok(())
    }

    /// The "Best Guess" fixed partitioning of Fig. 18: a hand-tuned
    /// two-phase tree per table built from the attributes appearing in
    /// the trace (trip_id joins; user/time selections).
    pub fn load_best_guess(&self, db: &mut Database) -> Result<()> {
        self.create_tables(db)?;
        let rows = self.trips();
        db.load_two_phase("trips", rows, trips::TRIP_ID, None)?;
        db.load_two_phase("history", self.history(), history::TRIP_ID, None)?;
        db.load_two_phase("latest", self.latest(), latest::TRIP_ID, None)?;
        Ok(())
    }

    fn create_tables(&self, db: &mut Database) -> Result<()> {
        db.create_table(
            "trips",
            Self::trips_schema(),
            vec![trips::USER_ID, trips::START_TIME, trips::AVG_VELOCITY, trips::DISTANCE],
        )?;
        db.create_table(
            "history",
            Self::history_schema(),
            vec![history::VERSION, history::PROCESSED_AT],
        )?;
        db.create_table("latest", Self::latest_schema(), vec![latest::PROCESSED_AT])?;
        Ok(())
    }

    /// The 103-query trace. Composition mirrors §7.6: "most queries ...
    /// either lookup a trip, or a combination of metadata about the trip
    /// and its historical processing, although a few look up the most
    /// recent processed result"; "the spikes between queries 30 and 50
    /// correspond to a batch of queries that fetch a large fraction of
    /// data".
    pub fn trace(&self) -> Vec<Query> {
        let mut rng = rng::derived(self.seed, "cmt-trace");
        let mut out = Vec::with_capacity(103);
        for i in 0..103usize {
            let big_batch = (30..50).contains(&i);
            let roll = rng.random_range(0..10);
            let q = if big_batch && roll < 5 {
                // Large-fraction fetch: wide time range join.
                let start = rng.random_range(0..TIME_MAX / 4);
                Query::Join(JoinQuery::new(
                    ScanQuery::new(
                        "trips",
                        PredicateSet::none().and(Predicate::new(
                            trips::START_TIME,
                            CmpOp::Ge,
                            start,
                        )),
                    ),
                    ScanQuery::full("history"),
                    trips::TRIP_ID,
                    history::TRIP_ID,
                ))
            } else if roll < 4 {
                // Trip lookup by user + time range.
                let user = rng.random_range(0..self.users as i64);
                let t0 = rng.random_range(0..TIME_MAX - 120);
                Query::Scan(ScanQuery::new(
                    "trips",
                    PredicateSet::none()
                        .and(Predicate::new(trips::USER_ID, CmpOp::Eq, user))
                        .and(Predicate::new(trips::START_TIME, CmpOp::Ge, t0))
                        .and(Predicate::new(trips::START_TIME, CmpOp::Lt, t0 + 120)),
                ))
            } else if roll < 8 {
                // Trip metadata ⋈ historical processing.
                let t0 = rng.random_range(0..TIME_MAX - 180);
                Query::Join(JoinQuery::new(
                    ScanQuery::new(
                        "trips",
                        PredicateSet::none()
                            .and(Predicate::new(trips::START_TIME, CmpOp::Ge, t0))
                            .and(Predicate::new(trips::START_TIME, CmpOp::Lt, t0 + 180)),
                    ),
                    ScanQuery::full("history"),
                    trips::TRIP_ID,
                    history::TRIP_ID,
                ))
            } else {
                // Most recent processed result.
                let user = rng.random_range(0..self.users as i64);
                Query::Join(JoinQuery::new(
                    ScanQuery::new(
                        "trips",
                        PredicateSet::none().and(Predicate::new(trips::USER_ID, CmpOp::Eq, user)),
                    ),
                    ScanQuery::full("latest"),
                    trips::TRIP_ID,
                    latest::TRIP_ID,
                ))
            };
            out.push(q);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb::DbConfig;

    fn small() -> CmtGen {
        CmtGen::new(400, 5)
    }

    #[test]
    fn tables_have_expected_shape() {
        let g = small();
        let t = g.trips();
        assert_eq!(t.len(), 400);
        assert_eq!(t[0].arity(), CmtGen::trips_schema().len());
        let h = g.history();
        assert!(h.len() >= 400 && h.len() <= 1600, "1-4 versions per trip");
        assert_eq!(g.latest().len(), 400);
        // End time after start time.
        for r in t.iter().take(100) {
            assert!(
                r.get(trips::END_TIME).as_int().unwrap()
                    > r.get(trips::START_TIME).as_int().unwrap()
            );
        }
    }

    #[test]
    fn trace_is_103_queries_with_big_batch() {
        let g = small();
        let trace = g.trace();
        assert_eq!(trace.len(), 103);
        // All queries reference known tables.
        for q in &trace {
            for t in q.tables() {
                assert!(["trips", "history", "latest"].contains(&t));
            }
        }
        // The 30..50 region contains at least one wide fetch (a Ge-only
        // predicate on start_time).
        let wide = trace[30..50].iter().filter(|q| matches!(q, Query::Join(_))).count();
        assert!(wide >= 10);
    }

    #[test]
    fn trace_runs_on_loaded_database() {
        let g = CmtGen::new(300, 7);
        let mut db = Database::new(DbConfig { rows_per_block: 32, ..DbConfig::small() });
        g.load_upfront(&mut db).unwrap();
        for q in g.trace().iter().take(12) {
            db.run(q).unwrap();
        }
    }

    #[test]
    fn best_guess_load_produces_trip_id_trees() {
        let g = CmtGen::new(300, 7);
        let mut db = Database::new(DbConfig { rows_per_block: 32, ..DbConfig::small() });
        g.load_best_guess(&mut db).unwrap();
        assert_eq!(db.table("trips").unwrap().trees()[0].join_attr(), Some(trips::TRIP_ID));
        assert_eq!(db.table("history").unwrap().trees()[0].join_attr(), Some(history::TRIP_ID));
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(small().trace(), small().trace());
        assert_eq!(small().trips()[..20], small().trips()[..20]);
    }
}
