//! Selection predicates.
//!
//! Queries in AdaptDB carry conjunctions of single-attribute comparison
//! predicates. These drive three things: row filtering in the executor,
//! subtree pruning in `lookup(T, q)`, and the Amoeba-style adaptive
//! repartitioning decisions (predicate attributes are hints for new
//! tree structure).

use std::cmp::Ordering;

use crate::range::ValueRange;
use crate::row::Row;
use crate::schema::AttrId;
use crate::value::Value;

/// Comparison operators supported in predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `attr == v`
    Eq,
    /// `attr != v`
    Neq,
    /// `attr < v`
    Lt,
    /// `attr <= v`
    Le,
    /// `attr > v`
    Gt,
    /// `attr >= v`
    Ge,
}

impl CmpOp {
    /// Does a cell that compares `ord` against the literal satisfy the
    /// operator? The single definition columnar and encoded-cell
    /// evaluation both reduce to.
    #[inline]
    pub fn accepts(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Neq => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// A single-attribute comparison, e.g. `shipdate >= '1994-01-01'`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Predicate {
    /// Attribute the predicate constrains.
    pub attr: AttrId,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal to compare against.
    pub value: Value,
}

impl Predicate {
    /// Construct a predicate.
    pub fn new(attr: AttrId, op: CmpOp, value: impl Into<Value>) -> Self {
        Predicate { attr, op, value: value.into() }
    }

    /// Evaluate against a row.
    #[inline]
    pub fn matches(&self, row: &Row) -> bool {
        let v = row.get(self.attr);
        match self.op {
            CmpOp::Eq => v == &self.value,
            CmpOp::Neq => v != &self.value,
            CmpOp::Lt => v < &self.value,
            CmpOp::Le => v <= &self.value,
            CmpOp::Gt => v > &self.value,
            CmpOp::Ge => v >= &self.value,
        }
    }

    /// Can a block whose values for `self.attr` span `range` contain a
    /// matching row? Used for tree pruning and block skipping; must never
    /// return `false` for a block that contains a match (safety), and
    /// should return `false` as often as possible (effectiveness).
    pub fn may_match_range(&self, range: &ValueRange) -> bool {
        if range.is_empty() {
            return false;
        }
        let (lo, hi) = (range.min().unwrap(), range.max().unwrap());
        match self.op {
            CmpOp::Eq => range.contains(&self.value),
            // A range only fails `!=` if it is the single point `value`.
            CmpOp::Neq => !(lo == &self.value && hi == &self.value),
            CmpOp::Lt => lo < &self.value,
            CmpOp::Le => lo <= &self.value,
            CmpOp::Gt => hi > &self.value,
            CmpOp::Ge => hi >= &self.value,
        }
    }
}

/// A conjunction of predicates (the only query shape the paper's
/// workloads use; disjunctions in e.g. TPC-H q19 are expressed as a
/// union of conjunctive queries by the workload layer).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PredicateSet {
    preds: Vec<Predicate>,
}

impl PredicateSet {
    /// The empty conjunction (matches everything).
    pub fn none() -> Self {
        PredicateSet { preds: Vec::new() }
    }

    /// Build from a list of predicates.
    pub fn new(preds: Vec<Predicate>) -> Self {
        PredicateSet { preds }
    }

    /// Add a predicate (builder style).
    pub fn and(mut self, p: Predicate) -> Self {
        self.preds.push(p);
        self
    }

    /// Underlying predicates.
    pub fn predicates(&self) -> &[Predicate] {
        &self.preds
    }

    /// True if there are no predicates.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Row-level evaluation of the conjunction.
    #[inline]
    pub fn matches(&self, row: &Row) -> bool {
        self.preds.iter().all(|p| p.matches(row))
    }

    /// Block-level test: could any row within `ranges` (per-attribute
    /// min/max metadata) match?
    pub fn may_match(&self, ranges: &[ValueRange]) -> bool {
        self.preds.iter().all(|p| {
            ranges
                .get(p.attr as usize)
                .map(|r| p.may_match_range(r))
                // Missing metadata for an attribute → cannot prune.
                .unwrap_or(true)
        })
    }

    /// The distinct attributes referenced, in first-seen order. These are
    /// the "hints" the adaptive repartitioner uses (§3.2).
    pub fn attrs(&self) -> Vec<AttrId> {
        let mut out = Vec::new();
        for p in &self.preds {
            if !out.contains(&p.attr) {
                out.push(p.attr);
            }
        }
        out
    }

    /// Narrow an attribute's range according to this conjunction's
    /// predicates on that attribute; returns `None` if unconstrained.
    /// Used to estimate selectivity against samples.
    pub fn range_for(&self, attr: AttrId, domain: &ValueRange) -> ValueRange {
        let mut out = domain.clone();
        for p in self.preds.iter().filter(|p| p.attr == attr) {
            if out.is_empty() {
                break;
            }
            let (lo, hi) = (out.min().unwrap().clone(), out.max().unwrap().clone());
            out = match p.op {
                CmpOp::Eq => {
                    if out.contains(&p.value) {
                        ValueRange::point(p.value.clone())
                    } else {
                        ValueRange::empty()
                    }
                }
                // Closed-interval approximation: <, <=, >, >= all clamp the
                // corresponding bound (we cannot represent open endpoints,
                // which only costs pruning precision, never correctness).
                CmpOp::Lt | CmpOp::Le => {
                    if p.value < lo {
                        ValueRange::empty()
                    } else {
                        ValueRange::new(lo, hi.min(p.value.clone()))
                    }
                }
                CmpOp::Gt | CmpOp::Ge => {
                    if p.value > hi {
                        ValueRange::empty()
                    } else {
                        ValueRange::new(lo.max(p.value.clone()), hi)
                    }
                }
                CmpOp::Neq => out,
            };
        }
        out
    }
}

impl FromIterator<Predicate> for PredicateSet {
    fn from_iter<T: IntoIterator<Item = Predicate>>(iter: T) -> Self {
        PredicateSet::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn range(lo: i64, hi: i64) -> ValueRange {
        ValueRange::new(Value::Int(lo), Value::Int(hi))
    }

    #[test]
    fn row_matching() {
        let r = row![10i64, 5.0];
        assert!(Predicate::new(0, CmpOp::Eq, 10i64).matches(&r));
        assert!(Predicate::new(0, CmpOp::Ge, 10i64).matches(&r));
        assert!(!Predicate::new(0, CmpOp::Gt, 10i64).matches(&r));
        assert!(Predicate::new(1, CmpOp::Lt, 6.0).matches(&r));
    }

    #[test]
    fn range_pruning_is_safe() {
        let p = Predicate::new(0, CmpOp::Gt, 50i64);
        assert!(p.may_match_range(&range(0, 100)));
        assert!(!p.may_match_range(&range(0, 50))); // all ≤ 50 → no match
        assert!(p.may_match_range(&range(51, 60)));

        let eq = Predicate::new(0, CmpOp::Eq, 7i64);
        assert!(eq.may_match_range(&range(0, 10)));
        assert!(!eq.may_match_range(&range(8, 10)));

        let neq = Predicate::new(0, CmpOp::Neq, 7i64);
        assert!(neq.may_match_range(&range(0, 10)));
        assert!(!neq.may_match_range(&range(7, 7)));
    }

    #[test]
    fn conjunction_matches_and_prunes() {
        let ps = PredicateSet::none().and(Predicate::new(0, CmpOp::Ge, 10i64)).and(Predicate::new(
            0,
            CmpOp::Lt,
            20i64,
        ));
        assert!(ps.matches(&row![15i64]));
        assert!(!ps.matches(&row![25i64]));
        assert!(ps.may_match(&[range(0, 100)]));
        assert!(!ps.may_match(&[range(30, 100)]));
    }

    #[test]
    fn attrs_dedup_in_order() {
        let ps = PredicateSet::new(vec![
            Predicate::new(3, CmpOp::Eq, 1i64),
            Predicate::new(1, CmpOp::Eq, 1i64),
            Predicate::new(3, CmpOp::Lt, 5i64),
        ]);
        assert_eq!(ps.attrs(), vec![3, 1]);
    }

    #[test]
    fn range_for_narrows_domain() {
        let ps = PredicateSet::none().and(Predicate::new(0, CmpOp::Ge, 10i64)).and(Predicate::new(
            0,
            CmpOp::Le,
            20i64,
        ));
        assert_eq!(ps.range_for(0, &range(0, 100)), range(10, 20));
        // Unrelated attribute: unchanged domain.
        assert_eq!(ps.range_for(1, &range(0, 100)), range(0, 100));
        // Contradiction: empty.
        let ps = PredicateSet::none().and(Predicate::new(0, CmpOp::Ge, 50i64)).and(Predicate::new(
            0,
            CmpOp::Le,
            20i64,
        ));
        assert!(ps.range_for(0, &range(0, 100)).is_empty());
    }

    #[test]
    fn missing_metadata_never_prunes() {
        let ps = PredicateSet::none().and(Predicate::new(5, CmpOp::Eq, 1i64));
        // Only 1 range provided; attr 5 metadata missing → must not prune.
        assert!(ps.may_match(&[range(0, 1)]));
    }
}
