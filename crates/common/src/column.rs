//! Typed column vectors.
//!
//! A [`crate::Row`] holds one boxed [`Value`] per cell; the columnar
//! read path decodes each attribute a query touches into a contiguous
//! typed vector ([`ColumnVec`]). A column holds cells of one type —
//! its field's, which every load checks — and `Value` semantics have
//! no NULLs, so the "validity story" is trivially all-present.
//!
//! Predicates evaluate column-wise into a selection [`BitSet`]
//! (per-predicate vectors combined with word-level AND), reproducing
//! [`crate::Predicate::matches`] bit for bit — including `Value`'s
//! cross-type rank comparisons and `total_cmp` double ordering.

use crate::bitset::BitSet;
use crate::predicate::CmpOp;
use crate::value::{Str, Value, ValueType};
use std::cmp::Ordering;

/// A single column stored as a contiguous typed vector.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnVec {
    /// Homogeneous [`ValueType::Int`] column.
    Int(Vec<i64>),
    /// Homogeneous [`ValueType::Double`] column.
    Double(Vec<f64>),
    /// Homogeneous [`ValueType::Str`] column.
    Str(Vec<Str>),
    /// Homogeneous [`ValueType::Date`] column.
    Date(Vec<i32>),
    /// Homogeneous [`ValueType::Bool`] column.
    Bool(Vec<bool>),
}

impl ColumnVec {
    /// Build a column of type `ty` from cell values.
    ///
    /// # Panics
    ///
    /// If a cell is of another type.
    pub fn from_values(ty: ValueType, values: Vec<Value>) -> ColumnVec {
        let n = values.len();
        let mut col = match ty {
            ValueType::Int => ColumnVec::Int(Vec::with_capacity(n)),
            ValueType::Double => ColumnVec::Double(Vec::with_capacity(n)),
            ValueType::Str => ColumnVec::Str(Vec::with_capacity(n)),
            ValueType::Date => ColumnVec::Date(Vec::with_capacity(n)),
            ValueType::Bool => ColumnVec::Bool(Vec::with_capacity(n)),
        };
        for v in values {
            match (&mut col, v) {
                (ColumnVec::Int(c), Value::Int(x)) => c.push(x),
                (ColumnVec::Double(c), Value::Double(x)) => c.push(x),
                (ColumnVec::Str(c), Value::Str(x)) => c.push(x),
                (ColumnVec::Date(c), Value::Date(x)) => c.push(x),
                (ColumnVec::Bool(c), Value::Bool(x)) => c.push(x),
                (_, v) => panic!("{ty:?} column got a {:?} cell", v.value_type()),
            }
        }
        col
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            ColumnVec::Int(v) => v.len(),
            ColumnVec::Double(v) => v.len(),
            ColumnVec::Str(v) => v.len(),
            ColumnVec::Date(v) => v.len(),
            ColumnVec::Bool(v) => v.len(),
        }
    }

    /// True when the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cells' type.
    pub fn value_type(&self) -> ValueType {
        match self {
            ColumnVec::Int(_) => ValueType::Int,
            ColumnVec::Double(_) => ValueType::Double,
            ColumnVec::Str(_) => ValueType::Str,
            ColumnVec::Date(_) => ValueType::Date,
            ColumnVec::Bool(_) => ValueType::Bool,
        }
    }

    /// Cell `i` as a [`Value`] (clones string payloads; only those
    /// longer than [`Str::INLINE_CAP`] allocate).
    #[inline]
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            ColumnVec::Int(v) => Value::Int(v[i]),
            ColumnVec::Double(v) => Value::Double(v[i]),
            ColumnVec::Str(v) => Value::Str(v[i].clone()),
            ColumnVec::Date(v) => Value::Date(v[i]),
            ColumnVec::Bool(v) => Value::Bool(v[i]),
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
            (col, c) => col.value_type().rank().cmp(&c.value_type().rank()),
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
        }
    }

    /// Evaluate one comparison against every cell, returning a
    /// selection vector with bit `i` set iff cell `i` matches.
    /// Bit-for-bit equivalent to calling [`crate::Predicate::matches`]
    /// per row: same-type cells compare natively (`total_cmp` for
    /// doubles), differently-typed cells fall back to `Value`'s fixed
    /// cross-type rank — a constant for the whole column, so such a
    /// comparison fills in O(words).
    pub fn eval(&self, op: CmpOp, lit: &Value) -> BitSet {
        let n = self.len();
        // Cross-type comparison: every cell compares identically (rank
        // order), so the answer is all-ones or all-zeros without
        // touching the payload.
        let t = self.value_type();
        if t != lit.value_type() {
            let ord = t.rank().cmp(&lit.value_type().rank());
            return if op.accepts(ord) { BitSet::all_set(n) } else { BitSet::new(n) };
        }
        let mut sel = BitSet::new(n);
        match (self, lit) {
            (ColumnVec::Int(v), Value::Int(c)) => {
                for (i, x) in v.iter().enumerate() {
                    if op.accepts(x.cmp(c)) {
                        sel.set(i);
                    }
                }
            }
            (ColumnVec::Double(v), Value::Double(c)) => {
                for (i, x) in v.iter().enumerate() {
                    if op.accepts(x.total_cmp(c)) {
                        sel.set(i);
                    }
                }
            }
            (ColumnVec::Str(v), Value::Str(c)) => {
                for (i, x) in v.iter().enumerate() {
                    if op.accepts(x.as_str().cmp(c.as_str())) {
                        sel.set(i);
                    }
                }
            }
            (ColumnVec::Date(v), Value::Date(c)) => {
                for (i, x) in v.iter().enumerate() {
                    if op.accepts(x.cmp(c)) {
                        sel.set(i);
                    }
                }
            }
            (ColumnVec::Bool(v), Value::Bool(c)) => {
                for (i, x) in v.iter().enumerate() {
                    if op.accepts(x.cmp(c)) {
                        sel.set(i);
                    }
                }
            }
            // A different-type literal early-returned.
            _ => unreachable!("same-type literals are matched above"),
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
            .map(|a| {
                let ty = rows[0].values()[a].value_type();
                ColumnVec::from_values(ty, rows.iter().map(|r| r.values()[a].clone()).collect())
            })
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
        assert_eq!(cols[0].value_type(), ValueType::Int);
        assert_eq!(cols[2].value_type(), ValueType::Str);
        for (i, r) in rows.iter().enumerate() {
            let back: Vec<Value> = cols.iter().map(|c| c.value_at(i)).collect();
            assert_eq!(&back[..], r.values());
        }
    }

    /// A column has one type: an empty input is an empty column of the
    /// asked-for type, and a cell of another type panics.
    #[test]
    #[should_panic(expected = "Int column got a Str cell")]
    fn from_values_panics_on_a_cell_of_another_type() {
        assert_eq!(ColumnVec::from_values(ValueType::Date, Vec::new()), ColumnVec::Date(vec![]));
        ColumnVec::from_values(ValueType::Int, vec![Value::Int(1), Value::Str("x".into())]);
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
            Value::Str(Str::default()),
            Value::Str("b".into()),
            Value::Date(3),
            Value::Bool(true),
        ];
        for v in &cells {
            let col = ColumnVec::from_values(v.value_type(), vec![v.clone()]);
            for lit in &cells {
                assert_eq!(col.cmp_at(0, lit), v.cmp(lit), "{col:?} vs {lit:?}");
            }
        }
    }

    #[test]
    fn byte_size_matches_row_definition() {
        for rows in [sample_rows(), vec![row![1i64, "x"], row![2i64, "yy"]]] {
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
