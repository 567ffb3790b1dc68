//! Row-oriented tuples.

use crate::schema::AttrId;
use crate::value::Value;

/// A row is an ordered list of values matching some [`crate::Schema`].
///
/// Blocks in the storage layer hold `Vec<Row>`; the executor's join
/// operators produce concatenated rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    /// Construct a row from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row { values }
    }

    /// Value at an attribute position.
    #[inline]
    pub fn get(&self, attr: AttrId) -> &Value {
        &self.values[attr as usize]
    }

    /// All values.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Approximate in-memory footprint, used for block sizing.
    pub fn byte_size(&self) -> usize {
        self.values.iter().map(Value::byte_size).sum::<usize>() + 8
    }

    /// Concatenate two rows (join output), copying both.
    pub fn concat(&self, other: &Row) -> Row {
        let mut values = Vec::with_capacity(self.values.len() + other.values.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Row::new(values)
    }

    /// `self ++ right` (join output), reusing `self`'s values: only
    /// `right`'s are copied.
    pub fn append(mut self, right: &Row) -> Row {
        self.values.reserve_exact(right.values.len());
        self.values.extend_from_slice(&right.values);
        self
    }

    /// `left ++ self` (join output), reusing `self`'s values: `left`'s
    /// are copied in behind them and rotated to the front, in place
    /// when the capacity is already there.
    pub fn prepend(mut self, left: &Row) -> Row {
        self.values.reserve_exact(left.values.len());
        self.values.extend_from_slice(&left.values);
        self.values.rotate_right(left.values.len());
        self
    }

    /// Consume the row, yielding its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

/// Build a row from heterogeneous literals: `row![1i64, 2.5, "x"]`.
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::row::Row::new(vec![$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macro_and_accessors() {
        let r = row![1i64, 2.5, "abc"];
        assert_eq!(r.arity(), 3);
        assert_eq!(r.get(0), &Value::Int(1));
        assert_eq!(r.get(2), &Value::Str("abc".into()));
    }

    #[test]
    fn concat_preserves_order() {
        let a = row![1i64];
        let b = row![2i64, 3i64];
        let c = a.concat(&b);
        assert_eq!(c.values(), &[Value::Int(1), Value::Int(2), Value::Int(3)]);
    }

    #[test]
    fn append_and_prepend_equal_concat() {
        let a = row![1i64, "x"];
        let b = row![2.5, "yz", 3i64];
        assert_eq!(a.clone().append(&b), a.concat(&b));
        assert_eq!(b.clone().prepend(&a), a.concat(&b));
        assert_eq!(row![].append(&a), a);
        assert_eq!(row![].prepend(&a), a);
    }

    #[test]
    fn append_and_prepend_fill_spare_capacity_in_place() {
        let spare = || {
            let mut values = Vec::with_capacity(5);
            values.extend([Value::Int(1), Value::Int(2)]);
            Row::new(values)
        };
        let build = row![7i64, "b", 9i64];
        let probe = spare();
        let at = probe.values().as_ptr();
        let out = probe.append(&build);
        assert_eq!(out, row![1i64, 2i64].concat(&build));
        assert_eq!(out.values().as_ptr(), at, "append moved the row");
        let probe = spare();
        let at = probe.values().as_ptr();
        let out = probe.prepend(&build);
        assert_eq!(out, build.concat(&row![1i64, 2i64]));
        assert_eq!(out.values().as_ptr(), at, "prepend moved the row");
    }

    #[test]
    fn byte_size_counts_values_plus_overhead() {
        let r = row![1i64, "ab"];
        assert_eq!(r.byte_size(), 8 + (2 + 4) + 8);
    }
}
