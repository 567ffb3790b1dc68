//! Blocks and their metadata.
//!
//! A block is the unit of storage, I/O accounting, and join scheduling.
//! `BlockMeta.ranges[a]` is the paper's `Range_a(block)`: the closed
//! min/max interval of attribute `a` within the block, "stored with each
//! block in the partitioning tree" (§4.1.1).

use std::cmp::Ordering;

use adaptdb_common::{BlockId, Row, Str, Value, ValueRange};

/// An in-memory block of rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Block id, unique within its table.
    pub id: BlockId,
    /// The rows.
    pub rows: Vec<Row>,
}

impl Block {
    /// Construct a block.
    pub fn new(id: BlockId, rows: Vec<Row>) -> Self {
        Block { id, rows }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Compute metadata (row/byte counts and per-attribute ranges) for a
    /// block whose rows have `arity` columns, without encoding it — the
    /// `ADB1` fallback and journal recovery use this walk; every `ADB2`
    /// write builds the same per-column zones while it encodes.
    pub fn compute_meta(&self, arity: usize) -> BlockMeta {
        let mut zones: Vec<Zone<'_>> = (0..arity).map(|_| Zone::Empty).collect();
        let mut bytes = 0usize;
        for row in &self.rows {
            bytes += row.byte_size();
            for (z, v) in zones.iter_mut().zip(row.values()) {
                z.add(v);
            }
        }
        let ranges = zones.into_iter().map(Zone::into_range).collect();
        BlockMeta { id: self.id, row_count: self.rows.len(), byte_size: bytes, ranges }
    }
}

/// Running min/max of one column — the one zone-map implementation
/// behind every [`BlockMeta::ranges`] entry. While every cell shares a
/// type the bounds stay typed and compare natively (doubles by
/// `total_cmp`, strings by their UTF-8 bytes), which is exactly [`Value`]'s order
/// within a type. The first cell of another type demotes the zone to a
/// [`ValueRange`], whose cross-type rank order takes over. Either way
/// the bounds are the column's minimum and maximum under `Value::cmp`.
#[derive(Debug, Clone)]
pub(crate) enum Zone<'a> {
    /// No cell seen yet.
    Empty,
    Int(i64, i64),
    Double(f64, f64),
    /// UTF-8 bytes of the least and greatest string.
    Str(&'a [u8], &'a [u8]),
    Date(i32, i32),
    Bool(bool, bool),
    /// Cells of more than one type.
    Mixed(ValueRange),
}

/// A `Str` value from bytes that came from a `String` or a validated
/// `ADB2` cell: valid UTF-8, so the lossy conversion borrows and a short
/// string is copied straight into its inline cell.
pub(crate) fn utf8_value(bytes: &[u8]) -> Value {
    Value::Str(Str::from(&*String::from_utf8_lossy(bytes)))
}

/// Widen `[lo, hi]` to include `x` under `cmp`.
#[inline]
pub(crate) fn widen<T: Copy>(lo: &mut T, hi: &mut T, x: T, cmp: impl Fn(&T, &T) -> Ordering) {
    if cmp(&x, lo).is_lt() {
        *lo = x;
    } else if cmp(&x, hi).is_gt() {
        *hi = x;
    }
}

macro_rules! typed_widen {
    ($name:ident, $variant:ident, $t:ty, $cmp:expr) => {
        /// Widen by one cell of this zone's type; `false` (and no
        /// change) when the zone already holds another type.
        #[inline]
        pub(crate) fn $name(&mut self, x: $t) -> bool {
            match self {
                Zone::$variant(lo, hi) => {
                    widen(lo, hi, x, $cmp);
                    true
                }
                Zone::Empty => {
                    *self = Zone::$variant(x, x);
                    true
                }
                _ => false,
            }
        }
    };
}

impl<'a> Zone<'a> {
    typed_widen!(int, Int, i64, i64::cmp);
    typed_widen!(double, Double, f64, f64::total_cmp);
    typed_widen!(str, Str, &'a [u8], |a: &&[u8], b: &&[u8]| a.cmp(b));
    typed_widen!(date, Date, i32, i32::cmp);
    typed_widen!(bool, Bool, bool, bool::cmp);

    /// Widen by one cell of any type.
    pub(crate) fn add(&mut self, v: &'a Value) {
        let typed = match v {
            Value::Int(x) => self.int(*x),
            Value::Double(x) => self.double(*x),
            Value::Str(s) => self.str(s.as_bytes()),
            Value::Date(x) => self.date(*x),
            Value::Bool(x) => self.bool(*x),
        };
        if !typed {
            self.demote().insert(v);
        }
    }

    /// Whether the cells seen so far do not share one type.
    pub(crate) fn is_mixed(&self) -> bool {
        matches!(self, Zone::Mixed(_))
    }

    /// The bounds as a [`ValueRange`], turning this zone into a mixed
    /// one so cells of any type can widen it further.
    pub(crate) fn demote(&mut self) -> &mut ValueRange {
        if !self.is_mixed() {
            let range = std::mem::replace(self, Zone::Empty).into_range();
            *self = Zone::Mixed(range);
        }
        match self {
            Zone::Mixed(range) => range,
            _ => unreachable!("zone was just demoted"),
        }
    }

    /// The finished zone map entry.
    pub(crate) fn into_range(self) -> ValueRange {
        let pair = |lo, hi| ValueRange::new(lo, hi);
        match self {
            Zone::Empty => ValueRange::empty(),
            Zone::Int(lo, hi) => pair(Value::Int(lo), Value::Int(hi)),
            Zone::Double(lo, hi) => pair(Value::Double(lo), Value::Double(hi)),
            Zone::Str(lo, hi) => pair(utf8_value(lo), utf8_value(hi)),
            Zone::Date(lo, hi) => pair(Value::Date(lo), Value::Date(hi)),
            Zone::Bool(lo, hi) => pair(Value::Bool(lo), Value::Bool(hi)),
            Zone::Mixed(range) => range,
        }
    }
}

/// Metadata describing one stored block, kept in memory by the catalog
/// (the actual rows live encoded in the store).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMeta {
    /// Block id, unique within its table.
    pub id: BlockId,
    /// Number of rows stored.
    pub row_count: usize,
    /// Approximate encoded size in bytes.
    pub byte_size: usize,
    /// Per-attribute min/max — the paper's `Range_t`.
    pub ranges: Vec<ValueRange>,
}

impl BlockMeta {
    /// Range of one attribute (empty if the block has no rows).
    pub fn range(&self, attr: u16) -> &ValueRange {
        &self.ranges[attr as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::row;
    use adaptdb_common::Value;

    #[test]
    fn meta_computes_ranges_per_attribute() {
        let b = Block::new(0, vec![row![1i64, 10.0], row![5i64, 2.0], row![3i64, 7.5]]);
        let m = b.compute_meta(2);
        assert_eq!(m.row_count, 3);
        assert_eq!(m.range(0).min(), Some(&Value::Int(1)));
        assert_eq!(m.range(0).max(), Some(&Value::Int(5)));
        assert_eq!(m.range(1).min(), Some(&Value::Double(2.0)));
        assert_eq!(m.range(1).max(), Some(&Value::Double(10.0)));
    }

    #[test]
    fn empty_block_has_empty_ranges() {
        let b = Block::new(0, vec![]);
        let m = b.compute_meta(3);
        assert!(b.is_empty());
        assert_eq!(m.byte_size, 0);
        assert!(m.ranges.iter().all(ValueRange::is_empty));
    }

    #[test]
    fn byte_size_sums_rows() {
        let r = row![1i64];
        let b = Block::new(1, vec![r.clone(), r.clone()]);
        assert_eq!(b.compute_meta(1).byte_size, 2 * r.byte_size());
    }
}
