//! Blocks and their metadata.
//!
//! A block is the unit of storage, I/O accounting, and join scheduling.
//! `BlockMeta.ranges[a]` is the paper's `Range_a(block)`: the closed
//! min/max interval of attribute `a` within the block, "stored with each
//! block in the partitioning tree" (§4.1.1).

use std::cmp::Ordering;

use adaptdb_common::{BlockId, Row, Str, Value, ValueRange, ValueType};

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
    /// block whose rows have `arity` columns, without encoding it —
    /// journal recovery uses this walk over the rows it decodes; every
    /// write builds the same per-column zones while it encodes.
    ///
    /// # Panics
    ///
    /// If a column holds cells of more than one type.
    pub fn compute_meta(&self, arity: usize) -> BlockMeta {
        let mut zones: Vec<Zone<'_>> = (0..arity).map(|_| Zone::Empty).collect();
        let mut bytes = 0usize;
        for row in &self.rows {
            bytes += row.byte_size();
            for (a, (z, v)) in zones.iter_mut().zip(row.values()).enumerate() {
                z.add(a, v);
            }
        }
        let ranges = zones.into_iter().map(Zone::into_range).collect();
        BlockMeta { id: self.id, row_count: self.rows.len(), byte_size: bytes, ranges }
    }
}

/// Running min/max of one column — the one zone-map implementation
/// behind every [`BlockMeta::ranges`] entry. A column holds cells of
/// one type, so the bounds stay typed and compare natively (doubles by
/// `total_cmp`, strings by their UTF-8 bytes), which is exactly
/// [`Value`]'s order within a type.
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
}

/// Panic for a cell of type `got` arriving in column `col`, which
/// already holds `held` cells: a column has one type.
#[cold]
#[inline(never)]
pub(crate) fn type_clash(col: usize, held: ValueType, got: ValueType) -> ! {
    panic!("column {col} holds {held:?} cells, got a {got:?} cell")
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

/// `a.cmp(b)` for byte strings, inlined: eight bytes at a time as
/// big-endian words, then byte by byte, then by length. Zone maps
/// compare every `Str` cell they see, and most are short, so the call
/// into `memcmp` a slice comparison makes would cost more than the
/// compare.
#[inline(always)]
pub(crate) fn bytes_cmp(a: &[u8], b: &[u8]) -> Ordering {
    let n = a.len().min(b.len());
    let (mut x, mut y) = (a[..n].chunks_exact(8), b[..n].chunks_exact(8));
    for (p, q) in x.by_ref().zip(y.by_ref()) {
        let (p, q) =
            (u64::from_be_bytes(p.try_into().unwrap()), u64::from_be_bytes(q.try_into().unwrap()));
        if p != q {
            return p.cmp(&q);
        }
    }
    for (p, q) in x.remainder().iter().zip(y.remainder()) {
        if p != q {
            return p.cmp(q);
        }
    }
    a.len().cmp(&b.len())
}

macro_rules! typed_widen {
    ($name:ident, $variant:ident, $t:ty, $cmp:expr) => {
        /// Widen column `col`'s zone by one cell of this type, panicking
        /// if the column holds cells of another type.
        #[inline]
        pub(crate) fn $name(&mut self, col: usize, x: $t) {
            match self {
                Zone::$variant(lo, hi) => widen(lo, hi, x, $cmp),
                Zone::Empty => *self = Zone::$variant(x, x),
                held => type_clash(
                    col,
                    held.value_type().expect("an empty zone takes a cell of any type"),
                    ValueType::$variant,
                ),
            }
        }
    };
}

impl<'a> Zone<'a> {
    typed_widen!(int, Int, i64, i64::cmp);
    typed_widen!(double, Double, f64, f64::total_cmp);
    typed_widen!(str, Str, &'a [u8], |a: &&[u8], b: &&[u8]| bytes_cmp(a, b));
    typed_widen!(date, Date, i32, i32::cmp);
    typed_widen!(bool, Bool, bool, bool::cmp);

    /// Widen column `col`'s zone by one cell of any type, panicking if
    /// the column holds cells of another type.
    pub(crate) fn add(&mut self, col: usize, v: &'a Value) {
        match v {
            Value::Int(x) => self.int(col, *x),
            Value::Double(x) => self.double(col, *x),
            Value::Str(s) => self.str(col, s.as_bytes()),
            Value::Date(x) => self.date(col, *x),
            Value::Bool(x) => self.bool(col, *x),
        }
    }

    /// The type of the cells seen so far (`None` before the first).
    pub(crate) fn value_type(&self) -> Option<ValueType> {
        Some(match self {
            Zone::Empty => return None,
            Zone::Int(..) => ValueType::Int,
            Zone::Double(..) => ValueType::Double,
            Zone::Str(..) => ValueType::Str,
            Zone::Date(..) => ValueType::Date,
            Zone::Bool(..) => ValueType::Bool,
        })
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

    /// The inlined compare orders byte strings exactly as slices do,
    /// across the word boundary and on common prefixes.
    #[test]
    fn bytes_cmp_equals_slice_order() {
        let words: [&[u8]; 9] = [
            b"",
            b"a",
            b"ab",
            b"abcdefgh",
            b"abcdefgh\x00",
            b"abcdefgi",
            b"abcdefghijklmnopq",
            b"abcdefghijklmnopr",
            "\u{e9}t\u{e9}".as_bytes(),
        ];
        for a in words {
            for b in words {
                assert_eq!(bytes_cmp(a, b), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }

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
