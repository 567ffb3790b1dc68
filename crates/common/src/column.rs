//! Typed column vectors.
//!
//! A [`crate::Row`] holds one boxed [`Value`] per cell; the columnar
//! read path decodes each attribute a query touches into a contiguous
//! typed vector ([`ColumnVec`]). Conversion from and to values is
//! lossless: today's `Value` semantics have no NULLs, so the "validity
//! story" is trivially all-present — a heterogeneous column simply
//! falls back to the [`ColumnVec::Mixed`] variant instead of inventing
//! nullability.
//!
//! Predicates evaluate column-wise into a selection [`BitSet`]
//! (per-predicate vectors combined with word-level AND), reproducing
//! [`crate::Predicate::matches`] bit for bit — including `Value`'s
//! cross-type rank comparisons and `total_cmp` double ordering.

use crate::bitset::BitSet;
use crate::predicate::CmpOp;
use crate::value::{Value, ValueType};
use std::cmp::Ordering;

/// A single column stored as a contiguous typed vector.
///
/// The typed variants cover homogeneous columns (the common case for
/// generated and TPC-H data); [`ColumnVec::Mixed`] keeps arbitrary
/// `Value` mixtures representable so cells → column → cells
/// is lossless for any input.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnVec {
    /// Homogeneous [`ValueType::Int`] column.
    Int(Vec<i64>),
    /// Homogeneous [`ValueType::Double`] column.
    Double(Vec<f64>),
    /// Homogeneous [`ValueType::Str`] column.
    Str(Vec<String>),
    /// Homogeneous [`ValueType::Date`] column.
    Date(Vec<i32>),
    /// Homogeneous [`ValueType::Bool`] column.
    Bool(Vec<bool>),
    /// Heterogeneous fallback: one [`Value`] per cell.
    Mixed(Vec<Value>),
}

/// Apply a comparison operator to an already-computed [`Ordering`] —
/// the single definition both row and columnar evaluation reduce to.
#[inline]
fn op_matches(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Neq => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

impl ColumnVec {
    /// Build a column from cell values: a typed vector when every cell
    /// shares one type, [`ColumnVec::Mixed`] otherwise. An empty input
    /// yields an empty `Mixed` column.
    pub fn from_values(values: Vec<Value>) -> ColumnVec {
        let Some(first) = values.first() else {
            return ColumnVec::Mixed(values);
        };
        let t = first.value_type();
        if values.iter().any(|v| v.value_type() != t) {
            return ColumnVec::Mixed(values);
        }
        match t {
            ValueType::Int => ColumnVec::Int(
                values.into_iter().map(|v| if let Value::Int(x) = v { x } else { 0 }).collect(),
            ),
            ValueType::Double => ColumnVec::Double(
                values
                    .into_iter()
                    .map(|v| if let Value::Double(x) = v { x } else { 0.0 })
                    .collect(),
            ),
            ValueType::Str => ColumnVec::Str(
                values
                    .into_iter()
                    .map(|v| if let Value::Str(x) = v { x } else { String::new() })
                    .collect(),
            ),
            ValueType::Date => ColumnVec::Date(
                values.into_iter().map(|v| if let Value::Date(x) = v { x } else { 0 }).collect(),
            ),
            ValueType::Bool => ColumnVec::Bool(
                values
                    .into_iter()
                    .map(|v| if let Value::Bool(x) = v { x } else { false })
                    .collect(),
            ),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            ColumnVec::Int(v) => v.len(),
            ColumnVec::Double(v) => v.len(),
            ColumnVec::Str(v) => v.len(),
            ColumnVec::Date(v) => v.len(),
            ColumnVec::Bool(v) => v.len(),
            ColumnVec::Mixed(v) => v.len(),
        }
    }

    /// True when the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shared cell type for typed variants, `None` for
    /// [`ColumnVec::Mixed`].
    pub fn value_type(&self) -> Option<ValueType> {
        match self {
            ColumnVec::Int(_) => Some(ValueType::Int),
            ColumnVec::Double(_) => Some(ValueType::Double),
            ColumnVec::Str(_) => Some(ValueType::Str),
            ColumnVec::Date(_) => Some(ValueType::Date),
            ColumnVec::Bool(_) => Some(ValueType::Bool),
            ColumnVec::Mixed(_) => None,
        }
    }

    /// Cell `i` as a [`Value`] (clones string payloads).
    #[inline]
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            ColumnVec::Int(v) => Value::Int(v[i]),
            ColumnVec::Double(v) => Value::Double(v[i]),
            ColumnVec::Str(v) => Value::Str(v[i].clone()),
            ColumnVec::Date(v) => Value::Date(v[i]),
            ColumnVec::Bool(v) => Value::Bool(v[i]),
            ColumnVec::Mixed(v) => v[i].clone(),
        }
    }

    /// Compare cell `i` with `lit` under [`Value`]'s order (`total_cmp`
    /// for doubles, type rank across types) without building a
    /// [`Value`] for the cell.
    #[inline]
    pub fn cmp_at(&self, i: usize, lit: &Value) -> Ordering {
        match (self, lit) {
            (ColumnVec::Int(v), Value::Int(c)) => v[i].cmp(c),
            (ColumnVec::Double(v), Value::Double(c)) => v[i].total_cmp(c),
            (ColumnVec::Str(v), Value::Str(c)) => v[i].as_str().cmp(c.as_str()),
            (ColumnVec::Date(v), Value::Date(c)) => v[i].cmp(c),
            (ColumnVec::Bool(v), Value::Bool(c)) => v[i].cmp(c),
            (ColumnVec::Mixed(v), c) => v[i].cmp(c),
            (typed, c) => {
                let t = typed.value_type().expect("Mixed is matched above");
                t.rank().cmp(&c.value_type().rank())
            }
        }
    }

    /// Same row-semantic footprint as summing [`Value::byte_size`] over
    /// the cells — the canonical sizing definition shared with the row
    /// path (see `Row::byte_size`).
    pub fn byte_size(&self) -> usize {
        match self {
            ColumnVec::Int(v) => v.len() * 8,
            ColumnVec::Double(v) => v.len() * 8,
            ColumnVec::Str(v) => v.iter().map(|s| s.len() + 4).sum(),
            ColumnVec::Date(v) => v.len() * 4,
            ColumnVec::Bool(v) => v.len(),
            ColumnVec::Mixed(v) => v.iter().map(Value::byte_size).sum(),
        }
    }

    /// Evaluate one comparison against every cell, returning a
    /// selection vector with bit `i` set iff cell `i` matches.
    /// Bit-for-bit equivalent to calling [`crate::Predicate::matches`]
    /// per row: same-type cells compare natively (`total_cmp` for
    /// doubles), differently-typed cells fall back to `Value`'s fixed
    /// cross-type rank — a constant for a whole typed column, so those
    /// columns fill in O(words).
    pub fn eval(&self, op: CmpOp, lit: &Value) -> BitSet {
        let n = self.len();
        // Cross-type comparison against a typed column: every cell
        // compares identically (rank order), so the answer is all-ones
        // or all-zeros without touching the payload.
        if let Some(t) = self.value_type() {
            if t != lit.value_type() {
                let ord = t.rank().cmp(&lit.value_type().rank());
                return if op_matches(op, ord) { BitSet::all_set(n) } else { BitSet::new(n) };
            }
        }
        let mut sel = BitSet::new(n);
        match (self, lit) {
            (ColumnVec::Int(v), Value::Int(c)) => {
                for (i, x) in v.iter().enumerate() {
                    if op_matches(op, x.cmp(c)) {
                        sel.set(i);
                    }
                }
            }
            (ColumnVec::Double(v), Value::Double(c)) => {
                for (i, x) in v.iter().enumerate() {
                    if op_matches(op, x.total_cmp(c)) {
                        sel.set(i);
                    }
                }
            }
            (ColumnVec::Str(v), Value::Str(c)) => {
                for (i, x) in v.iter().enumerate() {
                    if op_matches(op, x.as_str().cmp(c.as_str())) {
                        sel.set(i);
                    }
                }
            }
            (ColumnVec::Date(v), Value::Date(c)) => {
                for (i, x) in v.iter().enumerate() {
                    if op_matches(op, x.cmp(c)) {
                        sel.set(i);
                    }
                }
            }
            (ColumnVec::Bool(v), Value::Bool(c)) => {
                for (i, x) in v.iter().enumerate() {
                    if op_matches(op, x.cmp(c)) {
                        sel.set(i);
                    }
                }
            }
            (ColumnVec::Mixed(v), c) => {
                for (i, x) in v.iter().enumerate() {
                    if op_matches(op, x.cmp(c)) {
                        sel.set(i);
                    }
                }
            }
            // Typed column with a same-type literal is covered above;
            // typed column with a different-type literal early-returned.
            _ => unreachable!("typed column vs same-type literal handled above"),
        }
        sel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{Predicate, PredicateSet};
    use crate::row;
    use crate::row::Row;

    fn sample_rows() -> Vec<Row> {
        vec![
            row![1i64, 1.5, "aa", true],
            row![2i64, 2.5, "bb", false],
            row![3i64, f64::NAN, "cc", true],
        ]
    }

    fn columns(rows: &[Row]) -> Vec<ColumnVec> {
        (0..rows[0].arity())
            .map(|a| ColumnVec::from_values(rows.iter().map(|r| r.values()[a].clone()).collect()))
            .collect()
    }

    /// Column-wise conjunction: one selection per predicate, ANDed.
    fn select(cols: &[ColumnVec], rows: usize, preds: &PredicateSet) -> BitSet {
        let mut sel = BitSet::all_set(rows);
        for Predicate { attr, op, value } in preds.predicates() {
            sel.intersect_with(&cols[*attr as usize].eval(*op, value));
        }
        sel
    }

    #[test]
    fn round_trip_is_lossless() {
        let rows = sample_rows();
        let cols = columns(&rows);
        // Typed columns for homogeneous input.
        assert_eq!(cols[0].value_type(), Some(ValueType::Int));
        assert_eq!(cols[2].value_type(), Some(ValueType::Str));
        for (i, r) in rows.iter().enumerate() {
            let back: Vec<Value> = cols.iter().map(|c| c.value_at(i)).collect();
            assert_eq!(&back[..], r.values());
        }
    }

    #[test]
    fn mixed_columns_round_trip() {
        let values = vec![Value::Int(1), Value::Double(2.5), Value::Str("x".into())];
        let col = ColumnVec::from_values(values.clone());
        assert_eq!(col.value_type(), None);
        assert_eq!((0..3).map(|i| col.value_at(i)).collect::<Vec<_>>(), values);
        // An empty input is an empty Mixed column.
        assert!(ColumnVec::from_values(Vec::new()).is_empty());
    }

    #[test]
    fn select_matches_row_evaluation() {
        let rows = sample_rows();
        let cols = columns(&rows);
        let cases = vec![
            PredicateSet::none(),
            PredicateSet::none().and(Predicate::new(0, CmpOp::Ge, 2i64)),
            PredicateSet::none().and(Predicate::new(0, CmpOp::Gt, 1i64)).and(Predicate::new(
                3,
                CmpOp::Eq,
                true,
            )),
            PredicateSet::none().and(Predicate::new(2, CmpOp::Neq, "bb")),
            PredicateSet::none().and(Predicate::new(1, CmpOp::Le, 2.5)),
            // Cross-type literal: Int column vs Str literal — constant
            // rank comparison, Int < Str for every row.
            PredicateSet::none().and(Predicate::new(0, CmpOp::Lt, "z")),
            PredicateSet::none().and(Predicate::new(0, CmpOp::Gt, "z")),
        ];
        for preds in cases {
            let sel = select(&cols, rows.len(), &preds);
            for (i, r) in rows.iter().enumerate() {
                assert_eq!(sel.get(i), preds.matches(r), "preds {preds:?} row {i}");
            }
        }
    }

    #[test]
    fn nan_selects_like_total_cmp() {
        let col = &columns(&sample_rows())[1];
        // total_cmp: NaN > 2.5, and NaN == NaN.
        let gt = col.eval(CmpOp::Gt, &Value::Double(2.5));
        assert_eq!(gt.iter_ones().collect::<Vec<_>>(), vec![2]);
        let eq = col.eval(CmpOp::Eq, &Value::Double(f64::NAN));
        assert_eq!(eq.iter_ones().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn cmp_at_matches_value_order() {
        let cells = [
            Value::Int(-1),
            Value::Double(-0.0),
            Value::Double(0.0),
            Value::Double(f64::NAN),
            Value::Str(String::new()),
            Value::Str("b".into()),
            Value::Date(3),
            Value::Bool(true),
        ];
        let mut cols: Vec<ColumnVec> =
            cells.iter().map(|v| ColumnVec::from_values(vec![v.clone()])).collect();
        cols.push(ColumnVec::from_values(cells.to_vec()));
        for col in &cols {
            for i in 0..col.len() {
                for lit in &cells {
                    assert_eq!(
                        col.cmp_at(i, lit),
                        col.value_at(i).cmp(lit),
                        "{col:?}[{i}] vs {lit:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn byte_size_matches_row_definition() {
        for rows in [sample_rows(), vec![row![1i64, "x"], row![2.5, "y"]]] {
            let cols = columns(&rows);
            let row_total: usize = rows.iter().map(Row::byte_size).sum();
            // Each row carries a fixed 8-byte overhead in that definition.
            assert_eq!(
                cols.iter().map(ColumnVec::byte_size).sum::<usize>() + rows.len() * 8,
                row_total
            );
        }
    }
}
