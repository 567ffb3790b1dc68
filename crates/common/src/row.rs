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
    fn byte_size_counts_values_plus_overhead() {
        let r = row![1i64, "ab"];
        assert_eq!(r.byte_size(), 8 + (2 + 4) + 8);
    }
}
