//! TPC-H-like data and queries at micro scale.
//!
//! The generator reproduces the *structure* that matters to partitioning
//! experiments — key relationships (lineitem→orders→customer,
//! lineitem→part, lineitem→supplier), realistic cardinality ratios
//! (SF 1 ≈ 1.5M orders : 6M lineitems : 150k customers : 200k parts :
//! 10k suppliers, scaled down 100× per micro-SF unit), date domains, and
//! the categorical attributes the eight templates filter on. Absolute
//! sizes scale every series identically (Fig. 8 verifies linearity), so
//! micro scale preserves every comparison shape.

use adaptdb::Database;
use adaptdb_common::rng;
use adaptdb_common::{
    AttrId, CmpOp, JoinQuery, JoinStep, Predicate, PredicateSet, Query, Result, Row, ScanQuery,
    Schema, Value, ValueType,
};
use rand::rngs::StdRng;
use rand::RngExt;

/// lineitem attribute ids.
pub mod li {
    use super::AttrId;
    pub const ORDERKEY: AttrId = 0;
    pub const PARTKEY: AttrId = 1;
    pub const SUPPKEY: AttrId = 2;
    pub const QUANTITY: AttrId = 3;
    pub const EXTENDEDPRICE: AttrId = 4;
    pub const DISCOUNT: AttrId = 5;
    pub const SHIPDATE: AttrId = 6;
    pub const RECEIPTDATE: AttrId = 7;
    pub const SHIPINSTRUCT: AttrId = 8;
    pub const SHIPMODE: AttrId = 9;
    pub const RETURNFLAG: AttrId = 10;
}

/// orders attribute ids.
pub mod ord {
    use super::AttrId;
    pub const ORDERKEY: AttrId = 0;
    pub const CUSTKEY: AttrId = 1;
    pub const ORDERDATE: AttrId = 2;
    pub const SHIPPRIORITY: AttrId = 3;
}

/// customer attribute ids.
pub mod cust {
    use super::AttrId;
    pub const CUSTKEY: AttrId = 0;
    pub const MKTSEGMENT: AttrId = 1;
    pub const NATIONKEY: AttrId = 2;
}

/// part attribute ids.
pub mod part {
    use super::AttrId;
    pub const PARTKEY: AttrId = 0;
    pub const BRAND: AttrId = 1;
    pub const CONTAINER: AttrId = 2;
    pub const SIZE: AttrId = 3;
    pub const PTYPE: AttrId = 4;
}

/// supplier attribute ids.
pub mod supp {
    use super::AttrId;
    pub const SUPPKEY: AttrId = 0;
    pub const NATIONKEY: AttrId = 1;
}

/// Day-number domain of all dates (7 years, as in TPC-H 1992–1998).
pub const DATE_MIN: i32 = 0;
/// One past the last date.
pub const DATE_MAX: i32 = 7 * 365;

const SHIPMODES: [&str; 7] = ["AIR", "REG AIR", "SHIP", "TRUCK", "MAIL", "RAIL", "FOB"];
const SHIPINSTRUCTS: [&str; 4] = ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"];
const SEGMENTS: [&str; 5] = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"];
const RETURNFLAGS: [&str; 3] = ["R", "A", "N"];
const CONTAINERS: [&str; 4] = ["SM CASE", "MED BOX", "LG BOX", "JUMBO PKG"];
const TYPES: [&str; 5] = [
    "ECONOMY ANODIZED STEEL",
    "STANDARD BRUSHED BRASS",
    "PROMO BURNISHED COPPER",
    "SMALL PLATED TIN",
    "LARGE POLISHED NICKEL",
];

/// The TPC-H-like generator. `scale` 1.0 ≈ 15k orders / 60k lineitems.
#[derive(Debug, Clone)]
pub struct TpchGen {
    /// Micro scale factor.
    pub scale: f64,
    /// Seed for all generated data.
    pub seed: u64,
}

/// Row counts at a given scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpchCounts {
    /// orders rows.
    pub orders: usize,
    /// lineitem rows (≈ 4 per order).
    pub lineitem: usize,
    /// customer rows.
    pub customer: usize,
    /// part rows.
    pub part: usize,
    /// supplier rows.
    pub supplier: usize,
}

impl TpchGen {
    /// Generator at `scale` with a fixed seed.
    pub fn new(scale: f64, seed: u64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        TpchGen { scale, seed }
    }

    /// Row counts for this scale.
    pub fn counts(&self) -> TpchCounts {
        let orders = ((15_000.0 * self.scale) as usize).max(8);
        TpchCounts {
            orders,
            lineitem: orders * 4,
            customer: (orders / 10).max(4),
            part: (orders / 8).max(4),
            supplier: (orders / 150).max(2),
        }
    }

    /// lineitem schema.
    pub fn lineitem_schema() -> Schema {
        Schema::from_pairs(&[
            ("l_orderkey", ValueType::Int),
            ("l_partkey", ValueType::Int),
            ("l_suppkey", ValueType::Int),
            ("l_quantity", ValueType::Int),
            ("l_extendedprice", ValueType::Double),
            ("l_discount", ValueType::Double),
            ("l_shipdate", ValueType::Date),
            ("l_receiptdate", ValueType::Date),
            ("l_shipinstruct", ValueType::Str),
            ("l_shipmode", ValueType::Str),
            ("l_returnflag", ValueType::Str),
        ])
    }

    /// orders schema.
    pub fn orders_schema() -> Schema {
        Schema::from_pairs(&[
            ("o_orderkey", ValueType::Int),
            ("o_custkey", ValueType::Int),
            ("o_orderdate", ValueType::Date),
            ("o_shippriority", ValueType::Int),
        ])
    }

    /// customer schema.
    pub fn customer_schema() -> Schema {
        Schema::from_pairs(&[
            ("c_custkey", ValueType::Int),
            ("c_mktsegment", ValueType::Str),
            ("c_nationkey", ValueType::Int),
        ])
    }

    /// part schema.
    pub fn part_schema() -> Schema {
        Schema::from_pairs(&[
            ("p_partkey", ValueType::Int),
            ("p_brand", ValueType::Str),
            ("p_container", ValueType::Str),
            ("p_size", ValueType::Int),
            ("p_type", ValueType::Str),
        ])
    }

    /// supplier schema.
    pub fn supplier_schema() -> Schema {
        Schema::from_pairs(&[("s_suppkey", ValueType::Int), ("s_nationkey", ValueType::Int)])
    }

    fn rng(&self, table: &str) -> StdRng {
        rng::derived(self.seed, table)
    }

    /// Generate lineitem rows.
    pub fn lineitem(&self) -> Vec<Row> {
        let c = self.counts();
        let mut rng = self.rng("lineitem");
        (0..c.lineitem)
            .map(|_| {
                let ship = rng.random_range(DATE_MIN..DATE_MAX);
                Row::new(vec![
                    Value::Int(rng.random_range(0..c.orders as i64)),
                    Value::Int(rng.random_range(0..c.part as i64)),
                    Value::Int(rng.random_range(0..c.supplier as i64)),
                    Value::Int(rng.random_range(1..=50)),
                    Value::Double((rng.random_range(100..100_000) as f64) / 100.0),
                    Value::Double((rng.random_range(0..=10) as f64) / 100.0),
                    Value::Date(ship),
                    Value::Date((ship + rng.random_range(1..60)).min(DATE_MAX - 1)),
                    Value::Str(SHIPINSTRUCTS[rng.random_range(0..SHIPINSTRUCTS.len())].into()),
                    Value::Str(SHIPMODES[rng.random_range(0..SHIPMODES.len())].into()),
                    Value::Str(RETURNFLAGS[rng.random_range(0..RETURNFLAGS.len())].into()),
                ])
            })
            .collect()
    }

    /// Generate orders rows.
    pub fn orders(&self) -> Vec<Row> {
        let c = self.counts();
        let mut rng = self.rng("orders");
        (0..c.orders as i64)
            .map(|k| {
                Row::new(vec![
                    Value::Int(k),
                    Value::Int(rng.random_range(0..c.customer as i64)),
                    Value::Date(rng.random_range(DATE_MIN..DATE_MAX)),
                    Value::Int(rng.random_range(0..3)),
                ])
            })
            .collect()
    }

    /// Generate customer rows.
    pub fn customer(&self) -> Vec<Row> {
        let c = self.counts();
        let mut rng = self.rng("customer");
        (0..c.customer as i64)
            .map(|k| {
                Row::new(vec![
                    Value::Int(k),
                    Value::Str(SEGMENTS[rng.random_range(0..SEGMENTS.len())].into()),
                    Value::Int(rng.random_range(0..25)),
                ])
            })
            .collect()
    }

    /// Generate part rows.
    pub fn part(&self) -> Vec<Row> {
        let c = self.counts();
        let mut rng = self.rng("part");
        (0..c.part as i64)
            .map(|k| {
                Row::new(vec![
                    Value::Int(k),
                    Value::from(format!(
                        "Brand#{}{}",
                        rng.random_range(1..6),
                        rng.random_range(1..6)
                    )),
                    Value::Str(CONTAINERS[rng.random_range(0..CONTAINERS.len())].into()),
                    Value::Int(rng.random_range(1..=50)),
                    Value::Str(TYPES[rng.random_range(0..TYPES.len())].into()),
                ])
            })
            .collect()
    }

    /// Generate supplier rows.
    pub fn supplier(&self) -> Vec<Row> {
        let c = self.counts();
        let mut rng = self.rng("supplier");
        (0..c.supplier as i64)
            .map(|k| Row::new(vec![Value::Int(k), Value::Int(rng.random_range(0..25))]))
            .collect()
    }

    /// Create all five tables in `db` and bulk-load them through the
    /// Amoeba upfront partitioner (the starting state of §7.3: "each
    /// table is randomly partitioned by the upfront partitioner").
    pub fn load_upfront(&self, db: &mut Database) -> Result<()> {
        self.create_tables(db)?;
        db.load_rows("lineitem", self.lineitem())?;
        db.load_rows("orders", self.orders())?;
        db.load_rows("customer", self.customer())?;
        db.load_rows("part", self.part())?;
        db.load_rows("supplier", self.supplier())?;
        Ok(())
    }

    /// Create all five tables and load them under converged two-phase
    /// trees on the given lineitem join attribute (orderkey/partkey/
    /// suppkey), which is the §7.2 starting state.
    pub fn load_converged(&self, db: &mut Database, lineitem_join: AttrId) -> Result<()> {
        self.create_tables(db)?;
        db.load_two_phase("lineitem", self.lineitem(), lineitem_join, None)?;
        db.load_two_phase("orders", self.orders(), ord::ORDERKEY, None)?;
        db.load_two_phase("customer", self.customer(), cust::CUSTKEY, None)?;
        db.load_two_phase("part", self.part(), part::PARTKEY, None)?;
        db.load_two_phase("supplier", self.supplier(), supp::SUPPKEY, None)?;
        Ok(())
    }

    /// Register the five table schemas with selection-candidate attrs.
    pub fn create_tables(&self, db: &mut Database) -> Result<()> {
        db.create_table(
            "lineitem",
            Self::lineitem_schema(),
            vec![li::QUANTITY, li::DISCOUNT, li::SHIPDATE, li::RECEIPTDATE],
        )?;
        db.create_table("orders", Self::orders_schema(), vec![ord::ORDERDATE, ord::SHIPPRIORITY])?;
        db.create_table("customer", Self::customer_schema(), vec![cust::NATIONKEY])?;
        db.create_table("part", Self::part_schema(), vec![part::SIZE])?;
        db.create_table("supplier", Self::supplier_schema(), vec![supp::NATIONKEY])?;
        Ok(())
    }
}

/// The eight query templates the paper evaluates (§7.1: q3, q5, q6, q8,
/// q10, q12, q14, q19 — the templates that touch lineitem and have
/// selective filters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Template {
    /// Shipping priority: customer ⋈ orders ⋈ lineitem.
    Q3,
    /// Local supplier volume: lineitem ⋈ orders ⋈ customer ⋈ supplier,
    /// no lineitem predicate.
    Q5,
    /// Forecasting revenue change: lineitem scan only.
    Q6,
    /// National market share: (lineitem ⋈ part) ⋈ orders ⋈ customer.
    Q8,
    /// Returned items: lineitem ⋈ orders ⋈ customer, selective preds.
    Q10,
    /// Shipping modes: lineitem ⋈ orders, selective preds.
    Q12,
    /// Promotion effect: lineitem ⋈ part on partkey.
    Q14,
    /// Discounted revenue: lineitem ⋈ part, highly selective preds.
    Q19,
}

impl Template {
    /// All templates in the paper's run order.
    pub fn all() -> [Template; 8] {
        use Template::*;
        [Q3, Q5, Q6, Q8, Q10, Q12, Q14, Q19]
    }

    /// The seven join templates of Fig. 12 (q6 has no join).
    pub fn join_templates() -> [Template; 7] {
        use Template::*;
        [Q3, Q5, Q8, Q10, Q12, Q14, Q19]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Template::Q3 => "Q3",
            Template::Q5 => "Q5",
            Template::Q6 => "Q6",
            Template::Q8 => "Q8",
            Template::Q10 => "Q10",
            Template::Q12 => "Q12",
            Template::Q14 => "Q14",
            Template::Q19 => "Q19",
        }
    }

    /// The lineitem join attribute this template drives adaptation
    /// toward (`None` for the scan-only q6).
    pub fn lineitem_join_attr(&self) -> Option<AttrId> {
        match self {
            Template::Q6 => None,
            Template::Q14 | Template::Q19 => Some(li::PARTKEY),
            _ => Some(li::ORDERKEY),
        }
    }

    /// Instantiate the template with randomized predicate constants.
    pub fn instantiate(&self, rng: &mut StdRng) -> Query {
        // lineitem ⋈ orders output layout: lineitem columns 0..11,
        // orders columns 11..15.
        const LO_O_CUSTKEY: AttrId = 11 + ord::CUSTKEY;
        match self {
            Template::Q3 => {
                let date = rng.random_range(DATE_MAX / 4..3 * DATE_MAX / 4);
                let seg = SEGMENTS[rng.random_range(0..SEGMENTS.len())];
                Query::MultiJoin {
                    first: JoinQuery::new(
                        ScanQuery::new(
                            "lineitem",
                            PredicateSet::none().and(Predicate::new(
                                li::SHIPDATE,
                                CmpOp::Gt,
                                Value::Date(date),
                            )),
                        ),
                        ScanQuery::new(
                            "orders",
                            PredicateSet::none().and(Predicate::new(
                                ord::ORDERDATE,
                                CmpOp::Lt,
                                Value::Date(date),
                            )),
                        ),
                        li::ORDERKEY,
                        ord::ORDERKEY,
                    ),
                    steps: vec![JoinStep {
                        intermediate_attr: LO_O_CUSTKEY,
                        table: ScanQuery::new(
                            "customer",
                            PredicateSet::none().and(Predicate::new(
                                cust::MKTSEGMENT,
                                CmpOp::Eq,
                                seg,
                            )),
                        ),
                        table_attr: cust::CUSTKEY,
                    }],
                }
            }
            Template::Q5 => {
                let start = rng.random_range(0..6) * 365;
                Query::MultiJoin {
                    first: JoinQuery::new(
                        ScanQuery::full("lineitem"),
                        ScanQuery::new(
                            "orders",
                            PredicateSet::none()
                                .and(Predicate::new(ord::ORDERDATE, CmpOp::Ge, Value::Date(start)))
                                .and(Predicate::new(
                                    ord::ORDERDATE,
                                    CmpOp::Lt,
                                    Value::Date(start + 365),
                                )),
                        ),
                        li::ORDERKEY,
                        ord::ORDERKEY,
                    ),
                    steps: vec![
                        JoinStep {
                            intermediate_attr: LO_O_CUSTKEY,
                            table: ScanQuery::full("customer"),
                            table_attr: cust::CUSTKEY,
                        },
                        JoinStep {
                            intermediate_attr: li::SUPPKEY,
                            table: ScanQuery::full("supplier"),
                            table_attr: supp::SUPPKEY,
                        },
                    ],
                }
            }
            Template::Q6 => {
                let start = rng.random_range(0..6) * 365;
                let disc = rng.random_range(2..=8) as f64 / 100.0;
                Query::Scan(ScanQuery::new(
                    "lineitem",
                    PredicateSet::none()
                        .and(Predicate::new(li::SHIPDATE, CmpOp::Ge, Value::Date(start)))
                        .and(Predicate::new(li::SHIPDATE, CmpOp::Lt, Value::Date(start + 365)))
                        .and(Predicate::new(li::DISCOUNT, CmpOp::Ge, disc - 0.011))
                        .and(Predicate::new(li::DISCOUNT, CmpOp::Le, disc + 0.011))
                        .and(Predicate::new(li::QUANTITY, CmpOp::Lt, 24i64)),
                ))
            }
            Template::Q8 => {
                // (lineitem ⋈ part) ⋈ orders ⋈ customer.
                let ptype = TYPES[rng.random_range(0..TYPES.len())];
                const LP_ARITY: AttrId = 11 + 5; // lineitem + part columns
                let _ = LP_ARITY;
                Query::MultiJoin {
                    first: JoinQuery::new(
                        ScanQuery::full("lineitem"),
                        ScanQuery::new(
                            "part",
                            PredicateSet::none().and(Predicate::new(part::PTYPE, CmpOp::Eq, ptype)),
                        ),
                        li::PARTKEY,
                        part::PARTKEY,
                    ),
                    steps: vec![
                        JoinStep {
                            intermediate_attr: li::ORDERKEY,
                            table: ScanQuery::new(
                                "orders",
                                PredicateSet::none()
                                    .and(Predicate::new(
                                        ord::ORDERDATE,
                                        CmpOp::Ge,
                                        Value::Date(3 * 365),
                                    ))
                                    .and(Predicate::new(
                                        ord::ORDERDATE,
                                        CmpOp::Lt,
                                        Value::Date(5 * 365),
                                    )),
                            ),
                            table_attr: ord::ORDERKEY,
                        },
                        JoinStep {
                            // customer key inside lineitem⋈part⋈orders
                            // output: li(11) + part(5) + o_custkey offset.
                            intermediate_attr: 11 + 5 + ord::CUSTKEY,
                            table: ScanQuery::full("customer"),
                            table_attr: cust::CUSTKEY,
                        },
                    ],
                }
            }
            Template::Q10 => {
                let start = rng.random_range(0..27) * 91;
                Query::MultiJoin {
                    first: JoinQuery::new(
                        ScanQuery::new(
                            "lineitem",
                            PredicateSet::none().and(Predicate::new(
                                li::RETURNFLAG,
                                CmpOp::Eq,
                                "R",
                            )),
                        ),
                        ScanQuery::new(
                            "orders",
                            PredicateSet::none()
                                .and(Predicate::new(ord::ORDERDATE, CmpOp::Ge, Value::Date(start)))
                                .and(Predicate::new(
                                    ord::ORDERDATE,
                                    CmpOp::Lt,
                                    Value::Date(start + 91),
                                )),
                        ),
                        li::ORDERKEY,
                        ord::ORDERKEY,
                    ),
                    steps: vec![JoinStep {
                        intermediate_attr: LO_O_CUSTKEY,
                        table: ScanQuery::full("customer"),
                        table_attr: cust::CUSTKEY,
                    }],
                }
            }
            Template::Q12 => {
                let start = rng.random_range(0..6) * 365;
                let mode = SHIPMODES[rng.random_range(0..SHIPMODES.len())];
                Query::Join(JoinQuery::new(
                    ScanQuery::new(
                        "lineitem",
                        PredicateSet::none()
                            .and(Predicate::new(li::SHIPMODE, CmpOp::Eq, mode))
                            .and(Predicate::new(li::RECEIPTDATE, CmpOp::Ge, Value::Date(start)))
                            .and(Predicate::new(
                                li::RECEIPTDATE,
                                CmpOp::Lt,
                                Value::Date(start + 365),
                            )),
                    ),
                    ScanQuery::full("orders"),
                    li::ORDERKEY,
                    ord::ORDERKEY,
                ))
            }
            Template::Q14 => {
                let start = rng.random_range(0..83) * 30;
                Query::Join(JoinQuery::new(
                    ScanQuery::new(
                        "lineitem",
                        PredicateSet::none()
                            .and(Predicate::new(li::SHIPDATE, CmpOp::Ge, Value::Date(start)))
                            .and(Predicate::new(li::SHIPDATE, CmpOp::Lt, Value::Date(start + 30))),
                    ),
                    ScanQuery::full("part"),
                    li::PARTKEY,
                    part::PARTKEY,
                ))
            }
            Template::Q19 => {
                let qty = rng.random_range(1..=10);
                Query::Join(JoinQuery::new(
                    ScanQuery::new(
                        "lineitem",
                        PredicateSet::none()
                            .and(Predicate::new(li::SHIPINSTRUCT, CmpOp::Eq, "DELIVER IN PERSON"))
                            .and(Predicate::new(li::SHIPMODE, CmpOp::Eq, "AIR"))
                            .and(Predicate::new(li::QUANTITY, CmpOp::Ge, qty))
                            .and(Predicate::new(li::QUANTITY, CmpOp::Le, qty + 10)),
                    ),
                    ScanQuery::new(
                        "part",
                        PredicateSet::none()
                            .and(Predicate::new(part::SIZE, CmpOp::Ge, 1i64))
                            .and(Predicate::new(part::SIZE, CmpOp::Le, 15i64)),
                    ),
                    li::PARTKEY,
                    part::PARTKEY,
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb::{DbConfig, Mode};

    fn gen() -> TpchGen {
        TpchGen::new(0.05, 7)
    }

    #[test]
    fn counts_scale_proportionally() {
        let small = TpchGen::new(0.1, 1).counts();
        let large = TpchGen::new(1.0, 1).counts();
        assert_eq!(small.orders * 10, large.orders);
        assert_eq!(large.lineitem, large.orders * 4);
        assert!(large.customer < large.orders);
    }

    #[test]
    fn generated_rows_match_schemas() {
        let g = gen();
        let c = g.counts();
        let li_rows = g.lineitem();
        assert_eq!(li_rows.len(), c.lineitem);
        assert_eq!(li_rows[0].arity(), TpchGen::lineitem_schema().len());
        // Foreign keys stay in range.
        for r in li_rows.iter().take(500) {
            let ok = r.get(li::ORDERKEY).as_int().unwrap();
            assert!(ok >= 0 && (ok as usize) < c.orders);
            let pk = r.get(li::PARTKEY).as_int().unwrap();
            assert!(pk >= 0 && (pk as usize) < c.part);
        }
        assert_eq!(g.orders().len(), c.orders);
        assert_eq!(g.customer().len(), c.customer);
        assert_eq!(g.part().len(), c.part);
        assert_eq!(g.supplier().len(), c.supplier);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = gen().lineitem();
        let b = gen().lineitem();
        assert_eq!(a[..50], b[..50]);
    }

    #[test]
    fn every_template_instantiates_and_runs() {
        let g = TpchGen::new(0.02, 3);
        let mut db = Database::new(DbConfig { rows_per_block: 32, ..DbConfig::small() });
        g.load_upfront(&mut db).unwrap();
        let mut rng = rng::seeded(5);
        for t in Template::all() {
            let q = t.instantiate(&mut rng);
            let res = db.run(&q).unwrap_or_else(|e| panic!("{}: {e}", t.name()));
            // Sanity: q6 returns lineitem-arity rows; joins return wider.
            if t == Template::Q6 {
                assert!(res.rows.iter().all(|r| r.arity() == 11));
            }
        }
    }

    #[test]
    fn q12_join_keys_match_and_predicates_hold() {
        let g = TpchGen::new(0.02, 3);
        let mut db = Database::new(DbConfig { rows_per_block: 32, ..DbConfig::small() });
        g.load_upfront(&mut db).unwrap();
        let mut rng = rng::seeded(11);
        let q = Template::Q12.instantiate(&mut rng);
        let res = db.run(&q).unwrap();
        for r in &res.rows {
            assert_eq!(r.get(li::ORDERKEY), r.get(11 + ord::ORDERKEY));
        }
        // Cross-check cardinality against a brute-force join.
        let li_rows = g.lineitem();
        let Query::Join(jq) = &q else { panic!() };
        let matching: Vec<&Row> =
            li_rows.iter().filter(|r| jq.left.predicates.matches(r)).collect();
        // Every matching lineitem joins exactly one order.
        assert_eq!(res.rows.len(), matching.len());
    }

    #[test]
    fn converged_load_gives_hyper_join_on_q14() {
        let g = TpchGen::new(0.02, 3);
        let mut db = Database::new(
            DbConfig { rows_per_block: 32, buffer_blocks: 4, ..DbConfig::small() }
                .with_mode(Mode::Fixed),
        );
        g.load_converged(&mut db, li::PARTKEY).unwrap();
        let mut rng = rng::seeded(2);
        let q = Template::Q14.instantiate(&mut rng);
        let res = db.run(&q).unwrap();
        assert_eq!(
            res.stats.strategy,
            adaptdb_common::stats::JoinStrategy::HyperJoin,
            "converged partkey trees must hyper-join q14"
        );
    }

    #[test]
    fn template_metadata() {
        assert_eq!(Template::all().len(), 8);
        assert_eq!(Template::join_templates().len(), 7);
        assert_eq!(Template::Q3.lineitem_join_attr(), Some(li::ORDERKEY));
        assert_eq!(Template::Q14.lineitem_join_attr(), Some(li::PARTKEY));
        assert_eq!(Template::Q6.lineitem_join_attr(), None);
        assert_eq!(Template::Q19.name(), "Q19");
    }
}
