//! The independent reference: a naive executor over the rows exactly as
//! generated — no trees, no blocks, no simulated DFS — plus the
//! order-independent digest both sides are compared by.

use std::collections::HashMap;

use adaptdb_common::{AttrId, PredicateSet, Query, Row, Value};

/// Row count plus an order-independent checksum of a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub rows: usize,
    pub checksum: u64,
}

impl Digest {
    pub fn of(rows: &[Row]) -> Digest {
        let mut d = Digest::default();
        for r in rows {
            d.add(r.values());
        }
        d
    }

    fn add(&mut self, values: &[Value]) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in values {
            h = (h ^ v.stable_hash()).wrapping_mul(0x0100_0000_01b3);
        }
        // Finalise (splitmix64) before the commutative sum so row
        // permutations cancel but value permutations do not.
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        self.rows += 1;
        self.checksum = self.checksum.wrapping_add(h);
    }
}

/// Tables by name, as loaded plus anything appended since.
pub type Tables<'a> = HashMap<&'a str, &'a [Row]>;

fn table<'a>(tables: &Tables<'a>, name: &str) -> &'a [Row] {
    tables.get(name).copied().unwrap_or_else(|| panic!("oracle has no table {name}"))
}

fn filter<'a>(rows: &'a [Row], preds: &PredicateSet) -> Vec<&'a Row> {
    rows.iter().filter(|r| preds.matches(r)).collect()
}

/// Inner equi-join: every `left ++ right` pair with equal keys.
fn hash_join(left: &[Row], left_attr: AttrId, right: &[&Row], right_attr: AttrId) -> Vec<Row> {
    let mut index: HashMap<&Value, Vec<&Row>> = HashMap::new();
    for r in right {
        index.entry(r.get(right_attr)).or_default().push(r);
    }
    let mut out = Vec::new();
    for l in left {
        if let Some(matches) = index.get(l.get(left_attr)) {
            out.extend(matches.iter().map(|r| l.concat(r)));
        }
    }
    out
}

/// The reference answer to `query` over `tables`.
pub fn answer(tables: &Tables<'_>, query: &Query) -> Digest {
    match query {
        Query::Scan(s) => {
            let mut d = Digest::default();
            for r in filter(table(tables, &s.table), &s.predicates) {
                d.add(r.values());
            }
            d
        }
        Query::Join(j) => {
            let left: Vec<Row> = filter(table(tables, &j.left.table), &j.left.predicates)
                .into_iter()
                .cloned()
                .collect();
            let right = filter(table(tables, &j.right.table), &j.right.predicates);
            Digest::of(&hash_join(&left, j.left_attr, &right, j.right_attr))
        }
        Query::MultiJoin { first, steps } => {
            let left: Vec<Row> = filter(table(tables, &first.left.table), &first.left.predicates)
                .into_iter()
                .cloned()
                .collect();
            let right = filter(table(tables, &first.right.table), &first.right.predicates);
            let mut rows = hash_join(&left, first.left_attr, &right, first.right_attr);
            for step in steps {
                let side = filter(table(tables, &step.table.table), &step.table.predicates);
                rows = hash_join(&rows, step.intermediate_attr, &side, step.table_attr);
            }
            Digest::of(&rows)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::{row, CmpOp, JoinQuery, Predicate, ScanQuery};

    #[test]
    fn digest_ignores_row_order_but_not_value_order() {
        let a = [row![1i64, 2i64], row![3i64, 4i64]];
        let b = [row![3i64, 4i64], row![1i64, 2i64]];
        let c = [row![2i64, 1i64], row![3i64, 4i64]];
        assert_eq!(Digest::of(&a), Digest::of(&b));
        assert_ne!(Digest::of(&a), Digest::of(&c));
    }

    #[test]
    fn join_matches_hand_computed_pairs() {
        let l = vec![row![1i64, 10i64], row![2i64, 20i64], row![2i64, 21i64]];
        let r = vec![row![2i64, 7i64], row![3i64, 8i64]];
        let tables: Tables<'_> = [("l", l.as_slice()), ("r", r.as_slice())].into_iter().collect();
        let q = Query::Join(JoinQuery::new(
            ScanQuery::new("l", PredicateSet::none().and(Predicate::new(1, CmpOp::Gt, 10i64))),
            ScanQuery::full("r"),
            0,
            0,
        ));
        let want = [row![2i64, 20i64, 2i64, 7i64], row![2i64, 21i64, 2i64, 7i64]];
        assert_eq!(answer(&tables, &q), Digest::of(&want));
    }
}
