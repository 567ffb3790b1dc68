//! Binary encoding of values and blocks.
//!
//! Blocks are stored *encoded* in the block store so every read pays a
//! realistic decode cost, and so the format is pinned: little-endian,
//! no external serialization framework — a storage manager's on-disk
//! format should be explicit.
//!
//! There is one block format, the columnar `ADB2`
//! ([`encode_block_columnar`]): a per-column directory followed by
//! contiguous per-column payloads, so a reader can decode a single
//! column — or a single row range — without touching the rest of the
//! block ([`LazyBlock`]):
//!
//! ```text
//! block     := "ADB2" id(u32) row_count(u32) col_count(u16)
//!              directory payloads
//! directory := col_count × [tag(u8) byte_len(u32)]
//! payload   := tag 0   Int    8×rows bytes, i64 LE each
//!              tag 1   Double 8×rows bytes, f64 bits LE each
//!              tag 2   Str    per cell len(u32) + UTF-8 bytes
//!              tag 3   Date   4×rows bytes, i32 LE each
//!              tag 4   Bool   1×rows bytes
//! ```
//!
//! **One type per column.** A column's tag is the single type of its
//! cells. Loads check every cell against its field's type before a
//! block is written, so the rows the encoder sees are typed per column;
//! rows of differing width, or a cell of another type, make the encoder
//! panic naming the column rather than write a block that decodes to
//! different values. Both directions copy each cell once: the encoder
//! writes columns straight from the rows, and decoding writes cells
//! straight into row vectors. A single value (a partitioning tree's cut)
//! encodes as its type's tag byte followed by its cell bytes
//! ([`encode_value`]).
//!
//! **One typed write pass.** The encoder also builds the block's
//! [`BlockMeta`]: each column's type is matched once, and one tight loop
//! per column writes the cells and widens that column's zone map with
//! typed comparisons ([`encode_block_with_meta`]). Its cells can come
//! from rows or, for migrations, from other blocks' still-encoded
//! columns ([`RawColumn`], [`encode_gathered`]): cells are then copied
//! payload to payload, and no value or row is built. Either way every
//! column's length is known before the first byte is written, so the
//! block is written in place into the one buffer the store keeps.
//!
//! **Predicates on encoded cells.** A filtered read narrows its
//! selection on the `ADB2` payload itself ([`LazyBlock::filter_into`]):
//! fixed-width cells are read where they lie, `Str` cells compare as
//! bytes, and the column is never decoded. That needs no per-read
//! checks: parsing walks each `Str` column once (framing, UTF-8, exact
//! length) and records what a full decode would reject, and every read
//! path — column decode, predicate, gather, framing for a copy —
//! returns that error for a faulty column, so each rejects exactly the
//! corrupt blocks a full decode does.

use std::sync::{Arc, OnceLock};

use adaptdb_common::{
    BitSet, BlockId, CmpOp, ColumnVec, Error, KeyRef, Result, Row, Value, ValueRange, ValueType,
};
use bytes::{Buf, BufMut, Bytes};

use crate::block::{bytes_cmp, type_clash, utf8_value, widen, Block, BlockMeta, Zone};

/// Magic prefix of an encoded (`ADB2`) block.
pub const BLOCK_MAGIC_V2: &[u8; 4] = b"ADB2";

/// The `ADB2` directory tag of a column of `t` cells (also the tag byte
/// of a single value's encoding).
fn type_tag(t: ValueType) -> u8 {
    match t {
        ValueType::Int => 0,
        ValueType::Double => 1,
        ValueType::Str => 2,
        ValueType::Date => 3,
        ValueType::Bool => 4,
    }
}

/// The cell type of a column tag (validated at parse: 0..=4).
fn tag_type(tag: u8) -> ValueType {
    match tag {
        0 => ValueType::Int,
        1 => ValueType::Double,
        2 => ValueType::Str,
        3 => ValueType::Date,
        _ => ValueType::Bool,
    }
}

/// Append the encoding of one value.
pub fn encode_value(buf: &mut impl BufMut, v: &Value) {
    buf.put_u8(type_tag(v.value_type()));
    match v {
        Value::Int(x) => buf.put_i64_le(*x),
        Value::Double(x) => buf.put_u64_le(x.to_bits()),
        Value::Str(s) => {
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
        Value::Date(d) => buf.put_i32_le(*d),
        Value::Bool(b) => buf.put_u8(*b as u8),
    }
}

/// Decode one value, advancing `buf`.
pub fn decode_value(buf: &mut Bytes) -> Result<Value> {
    if buf.remaining() < 1 {
        return Err(Error::Codec("truncated value tag".into()));
    }
    let tag = buf.get_u8();
    macro_rules! need {
        ($n:expr, $what:literal) => {
            if buf.remaining() < $n {
                return Err(Error::Codec(concat!("truncated ", $what).into()));
            }
        };
    }
    match tag {
        0 => {
            need!(8, "Int");
            Ok(Value::Int(buf.get_i64_le()))
        }
        1 => {
            need!(8, "Double");
            Ok(Value::Double(f64::from_bits(buf.get_u64_le())))
        }
        2 => {
            need!(4, "Str length");
            let len = buf.get_u32_le() as usize;
            need!(len, "Str payload");
            let bytes = buf.split_to(len);
            Ok(Value::Str(utf8(&bytes)?.into()))
        }
        3 => {
            need!(4, "Date");
            Ok(Value::Date(buf.get_i32_le()))
        }
        4 => {
            need!(1, "Bool");
            Ok(Value::Bool(buf.get_u8() != 0))
        }
        other => Err(Error::Codec(format!("unknown value tag {other}"))),
    }
}

/// Decode a whole block.
pub fn decode_block(buf: Bytes) -> Result<Block> {
    LazyBlock::parse(buf)?.into_block()
}

/// Encode a block — the bytes half of [`encode_block_with_meta`].
pub fn encode_block_columnar(block: &Block) -> Bytes {
    encode_block_with_meta(block, 0).0
}

/// Encode a block and compute its [`BlockMeta`] for a schema of `arity`
/// columns in the same pass. Each column's type is read once, from its
/// first cell; one typed loop per column then writes the cells and
/// widens that column's zone map, and the byte size falls out of the
/// payload lengths.
///
/// # Panics
///
/// If the rows differ in width, are zero columns wide, or a column
/// holds cells of more than one type (the panic names the column): no
/// such block can be written column-major and read back as the same
/// rows.
pub fn encode_block_with_meta(block: &Block, arity: usize) -> (Bytes, BlockMeta) {
    let rows = &block.rows;
    let cols = rows.first().map_or(0, Row::arity);
    assert!(
        rows.iter().all(|r| r.arity() == cols) && (cols > 0 || rows.is_empty()),
        "block {}: rows need one non-zero width",
        block.id
    );
    let lens: Vec<usize> = (0..cols).map(|a| rows_payload_len(rows, a)).collect();
    write_columns(block.id, rows.len(), &lens, arity, |a, out| encode_rows_column(rows, a, out))
}

/// The byte width of a fixed-width cell type (`None` for `Str`).
fn fixed_width(t: ValueType) -> Option<usize> {
    match t {
        ValueType::Int | ValueType::Double => Some(8),
        ValueType::Date => Some(4),
        ValueType::Bool => Some(1),
        ValueType::Str => None,
    }
}

/// The payload length of column `a` of `rows` (at least one row), typed
/// by its first cell. A `Str` column's cells are measured one by one,
/// and one of another type panics naming the column.
fn rows_payload_len(rows: &[Row], a: usize) -> usize {
    let t = rows[0].values()[a].value_type();
    match fixed_width(t) {
        Some(w) => w * rows.len(),
        None => rows
            .iter()
            .map(|r| match &r.values()[a] {
                Value::Str(s) => 4 + s.len(),
                v => type_clash(a, t, v.value_type()),
            })
            .sum(),
    }
}

/// Write column `a` of `rows` into `out`, which is exactly its payload
/// length ([`rows_payload_len`]), and return its zone map. The column's
/// type is matched once and its bounds kept in locals: one tight loop
/// per type, and a cell of another type panics naming the column.
fn encode_rows_column<'a>(rows: &'a [Row], a: usize, mut out: &mut [u8]) -> Zone<'a> {
    macro_rules! fixed {
        ($variant:ident, $w:literal, $bytes:expr, $cmp:expr) => {{
            let Value::$variant(first) = rows[0].values()[a] else { unreachable!() };
            let (mut lo, mut hi) = (first, first);
            for (r, c) in rows.iter().zip(out.chunks_exact_mut($w)) {
                let x = match r.values()[a] {
                    Value::$variant(x) => x,
                    ref v => type_clash(a, ValueType::$variant, v.value_type()),
                };
                widen(&mut lo, &mut hi, x, $cmp);
                c.copy_from_slice(&$bytes(x));
            }
            Zone::$variant(lo, hi)
        }};
    }
    match rows[0].values()[a].value_type() {
        ValueType::Int => fixed!(Int, 8, i64::to_le_bytes, i64::cmp),
        ValueType::Double => {
            fixed!(Double, 8, |x: f64| x.to_bits().to_le_bytes(), f64::total_cmp)
        }
        ValueType::Date => fixed!(Date, 4, i32::to_le_bytes, i32::cmp),
        ValueType::Bool => fixed!(Bool, 1, |x: bool| [x as u8], bool::cmp),
        ValueType::Str => {
            // `rows_payload_len` checked that every cell is a `Str`.
            let str_bytes = |r: &'a Row| match &r.values()[a] {
                Value::Str(s) => s.as_bytes(),
                _ => unreachable!(),
            };
            let first = str_bytes(&rows[0]);
            let (mut lo, mut hi) = (first, first);
            for r in rows {
                let s = str_bytes(r);
                widen(&mut lo, &mut hi, s, |x, y| x.cmp(y));
                out.put_u32_le(s.len() as u32);
                out.put_slice(s);
            }
            Zone::Str(lo, hi)
        }
    }
}

/// Encode the rows picked by `chunks` — each a block's still-encoded
/// columns (all blocks with the same column count) and ascending row
/// indices into them — as one `ADB2` block, with its [`BlockMeta`] for
/// `arity` schema columns. The bytes and metadata equal
/// [`encode_block_with_meta`] over the same rows materialized in chunk
/// order, but no row or value is built: each output column copies its
/// cells straight from the source payloads, widening its zone map on
/// the way.
pub fn encode_gathered(
    id: BlockId,
    chunks: &[(&[RawColumn], &[u32])],
    arity: usize,
) -> (Bytes, BlockMeta) {
    let rows = chunks.iter().map(|(_, picked)| picked.len()).sum();
    let cols = chunks.first().map_or(0, |(src, _)| src.len());
    assert!(
        chunks.iter().all(|(src, _)| src.len() == cols) && (cols > 0 || rows == 0),
        "gathered chunks need one non-zero column count"
    );
    // No rows, no columns: the layout an empty row block gets.
    let cols = if rows == 0 { 0 } else { cols };
    let lens: Vec<usize> = (0..cols)
        .map(|a| chunks.iter().map(|(src, picked)| src[a].picked_len(picked)).sum())
        .collect();
    write_columns(id, rows, &lens, arity, |a, out| {
        let mut sink = ColumnSink { out, col: a, zone: Zone::Empty };
        for (src, picked) in chunks {
            sink.gather(&src[a], picked);
        }
        assert!(sink.out.is_empty(), "column {a} filled short of its length");
        sink.zone
    })
}

/// Lay out an `ADB2` block of `rows` rows whose column `a` has a
/// payload of `lens[a]` bytes, letting `fill` write that payload into
/// the slice it is given and return the column's zone map, and build
/// the block's [`BlockMeta`] for `arity` schema columns alongside. The
/// block is written in place into the one buffer it is stored in.
fn write_columns<'a>(
    id: BlockId,
    rows: usize,
    lens: &[usize],
    arity: usize,
    mut fill: impl FnMut(usize, &mut [u8]) -> Zone<'a>,
) -> (Bytes, BlockMeta) {
    let dir = 14 + lens.len() * 5;
    let payload: usize = lens.iter().sum();
    let mut data: Arc<[u8]> = std::iter::repeat_n(0, dir + payload).collect();
    let (mut head, mut body) =
        Arc::get_mut(&mut data).expect("a fresh buffer is unshared").split_at_mut(dir);
    head.put_slice(BLOCK_MAGIC_V2);
    head.put_u32_le(id);
    head.put_u32_le(rows as u32);
    head.put_u16_le(lens.len() as u16);
    let mut ranges = Vec::with_capacity(arity);
    for (a, &len) in lens.iter().enumerate() {
        let (out, rest) = std::mem::take(&mut body).split_at_mut(len);
        body = rest;
        let zone = fill(a, out);
        let t = zone.value_type().expect("a written column holds at least one cell");
        head.put_u8(type_tag(t));
        head.put_u32_le(len as u32);
        if a < arity {
            ranges.push(zone.into_range());
        }
    }
    ranges.resize(arity, ValueRange::empty());
    // A typed payload is exactly its cells' row-semantic size.
    let byte_size = rows * 8 + payload;
    (Bytes::from_owner(data), BlockMeta { id, row_count: rows, byte_size, ranges })
}

/// One `ADB2` column being written into its payload slice, together
/// with its zone map. Cells arrive one at a time or as runs gathered
/// from encoded columns, and are written as typed cells: the first
/// fixes the column's type, and a cell of another type panics naming
/// the column.
struct ColumnSink<'a, 'b> {
    /// What is left of the column's payload slice.
    out: &'b mut [u8],
    /// The column's index in its block.
    col: usize,
    zone: Zone<'a>,
}

/// The tight loop of `ColumnSink::gather` for a fixed-width typed
/// column of `$w`-byte cells: an empty zone is seeded from the first
/// cell, then — if the zone holds `$variant` — each picked cell widens
/// the bounds and is copied as is. Evaluates to whether it took the
/// cells.
macro_rules! gather_fixed {
    ($sink:ident, $p:ident, $picked:ident, $variant:ident, $w:literal, $decode:expr, $cmp:expr) => {{
        if let (Zone::Empty, Some(&first)) = (&$sink.zone, $picked.first()) {
            let x = $decode(cell::<$w>($p, first as usize));
            $sink.zone = Zone::$variant(x, x);
        }
        match &mut $sink.zone {
            Zone::$variant(lo, hi) => {
                let (mut l, mut h) = (*lo, *hi);
                for &i in $picked {
                    let c = cell::<$w>($p, i as usize);
                    widen(&mut l, &mut h, $decode(c), $cmp);
                    $sink.out.put_slice(&c);
                }
                (*lo, *hi) = (l, h);
                true
            }
            _ => false,
        }
    }};
}

impl<'a> ColumnSink<'a, '_> {
    #[inline]
    fn int(&mut self, x: i64) {
        self.zone.int(self.col, x);
        self.out.put_i64_le(x);
    }

    #[inline]
    fn double(&mut self, x: f64) {
        self.zone.double(self.col, x);
        self.out.put_u64_le(x.to_bits());
    }

    /// A `Str` cell in its encoded form — length prefix, then the UTF-8
    /// bytes — copied in one piece.
    #[inline]
    fn str_cell(&mut self, c: &'a [u8]) {
        self.zone.str(self.col, &c[4..]);
        self.out.put_slice(c);
    }

    #[inline]
    fn date(&mut self, x: i32) {
        self.zone.date(self.col, x);
        self.out.put_i32_le(x);
    }

    #[inline]
    fn bool(&mut self, x: bool) {
        self.zone.bool(self.col, x);
        self.out.put_u8(x as u8);
    }

    /// Append the cells `picked` of a still-encoded column. The whole
    /// of a column that carries its stored zone map, gathered into an
    /// empty sink, is copied in one piece and the zone taken from the
    /// stored range. Otherwise, while the zone is empty or holds the
    /// column's type, a fixed-width column is widened and copied in one
    /// tight loop, and a `Str` column run by run of consecutive picked
    /// cells ([`ColumnSink::gather_str`]); anything else goes cell by
    /// cell.
    fn gather(&mut self, col: &'a RawColumn, picked: &[u32]) {
        if matches!(self.zone, Zone::Empty) && col.is_whole(picked) && self.seed_zone(col) {
            self.out.put_slice(&col.payload);
            return;
        }
        let p: &'a [u8] = &col.payload;
        let done = match col.tag {
            0 => gather_fixed!(self, p, picked, Int, 8, i64::from_le_bytes, i64::cmp),
            1 => {
                let decode = |c| f64::from_bits(u64::from_le_bytes(c));
                gather_fixed!(self, p, picked, Double, 8, decode, f64::total_cmp)
            }
            2 => self.gather_str(col, picked),
            3 => gather_fixed!(self, p, picked, Date, 4, i32::from_le_bytes, i32::cmp),
            _ => false,
        };
        if !done {
            for &i in picked {
                self.value_cell(col.tag, col.cell(i as usize));
            }
        }
    }

    /// The tight loop of [`ColumnSink::gather`] for a `Str` column: an
    /// empty zone is seeded from the first picked cell, then — if the
    /// zone holds strings — each run of consecutive picked cells is
    /// copied with one `put_slice`, and its cells widen the bounds with
    /// an inlined byte compare. Returns whether it took the cells.
    fn gather_str(&mut self, col: &'a RawColumn, picked: &[u32]) -> bool {
        let (p, b): (&'a [u8], &'a [u32]) = (&col.payload, col.bounds());
        let cell = |i: usize| &p[b[i] as usize + 4..b[i + 1] as usize];
        if let (Zone::Empty, Some(&first)) = (&self.zone, picked.first()) {
            let c = cell(first as usize);
            self.zone = Zone::Str(c, c);
        }
        let Zone::Str(lo, hi) = &mut self.zone else { return false };
        let (mut l, mut h) = (*lo, *hi);
        let mut k = 0;
        while k < picked.len() {
            let start = picked[k] as usize;
            let mut end = start + 1;
            k += 1;
            while picked.get(k) == Some(&(end as u32)) {
                end += 1;
                k += 1;
            }
            self.out.put_slice(&p[b[start] as usize..b[end] as usize]);
            for i in start..end {
                widen(&mut l, &mut h, cell(i), |x, y| bytes_cmp(x, y));
            }
        }
        (*lo, *hi) = (l, h);
        true
    }

    /// Take an empty sink's zone from `col`'s stored range, when the
    /// column is not `Bool` (whose bytes the cell path normalises) and
    /// the range's bounds are of its type.
    fn seed_zone(&mut self, col: &'a RawColumn) -> bool {
        let Some((lo, hi)) = col.range.as_ref().and_then(|r| r.min().zip(r.max())) else {
            return false;
        };
        self.zone = match (col.tag, lo, hi) {
            (0, Value::Int(l), Value::Int(h)) => Zone::Int(*l, *h),
            (1, Value::Double(l), Value::Double(h)) => Zone::Double(*l, *h),
            (2, Value::Str(l), Value::Str(h)) => Zone::Str(l.as_bytes(), h.as_bytes()),
            (3, Value::Date(l), Value::Date(h)) => Zone::Date(*l, *h),
            _ => return false,
        };
        true
    }

    /// Append a cell given by its column tag and typed encoding
    /// ([`RawColumn::cell`]).
    fn value_cell(&mut self, tag: u8, c: &'a [u8]) {
        match tag {
            0 => self.int(i64::from_le_bytes(fixed(c))),
            1 => self.double(f64::from_bits(u64::from_le_bytes(fixed(c)))),
            2 => self.str_cell(c),
            3 => self.date(i32::from_le_bytes(fixed(c))),
            _ => self.bool(c[0] != 0),
        }
    }
}

/// Location of one column's payload inside a lazy block, and what
/// parse found wrong with its cells, if anything.
#[derive(Debug, Clone)]
struct ColRegion {
    tag: u8,
    start: usize,
    end: usize,
    /// The error a full decode of this column would raise ([`check_str_cells`]),
    /// returned by every read that touches it (boxed: directories are
    /// memoised per live block, and sound columns are the norm).
    fault: Option<Box<Error>>,
}

impl ColRegion {
    /// This column's payload within the block's payload bytes, or its
    /// fault.
    fn payload<'b>(&self, bytes: &'b [u8]) -> Result<&'b [u8]> {
        match &self.fault {
            Some(e) => Err(Error::clone(e)),
            None => Ok(&bytes[self.start..self.end]),
        }
    }
}

/// The validated column directory of an `ADB2` block: where each
/// column's payload lives and whether its cells decode, plus enough
/// framing (total encoded length, payload offset) to re-attach the
/// directory to the same encoded bytes without re-validating them.
///
/// Blocks are immutable and block ids are never reused, so a directory
/// memoized per [`adaptdb_common::GlobalBlockId`] stays valid for the
/// block's whole lifetime — multi-column access paths that re-fetch a
/// block can skip the header/directory walk entirely
/// ([`LazyBlock::parse_with_directory`]). As a cheap guard the encoded
/// length is still checked; a mismatch falls back to a full parse.
#[derive(Debug)]
pub struct ColDirectory {
    rows: usize,
    cols: Vec<ColRegion>,
    /// Byte offset where column payloads begin (header + directory).
    payload_offset: usize,
    /// Total encoded length the directory was validated against.
    encoded_len: usize,
}

/// A parsed block whose columns have *not* (necessarily) been decoded
/// yet.
///
/// Parse validates the header and column directory and checks each
/// `Str` column's cells once; predicates evaluate on the encoded
/// columns ([`LazyBlock::filter_into`]), and individual columns
/// ([`LazyBlock::column`]) and selected row ranges
/// ([`LazyBlock::gather_range`]) decode on demand, which is what makes
/// late materialization (select on the predicate columns, then decode
/// only the selected rows) cheap.
#[derive(Debug, Clone)]
pub struct LazyBlock {
    id: u32,
    /// Validated (possibly memoized) directory.
    dir: Arc<ColDirectory>,
    /// The column payloads, undecoded.
    bytes: Bytes,
}

impl LazyBlock {
    /// Parse an encoded block. The header and directory are validated
    /// here (bad magic, truncation, length mismatches, trailing bytes),
    /// and each `Str` column is walked once as a full decode would walk
    /// it: a column whose cells are misframed or not UTF-8 keeps its
    /// error, and every later read that touches the column returns it —
    /// so a codec error surfaces at parse time or at first access,
    /// never silently.
    pub fn parse(buf: Bytes) -> Result<LazyBlock> {
        LazyBlock::parse_with_directory(buf, None).map(|(lazy, _)| lazy)
    }

    /// Like [`LazyBlock::parse`], but reuse a memoized [`ColDirectory`]
    /// from an earlier parse of the *same* encoded block, skipping
    /// header and directory validation. Returns the freshly validated
    /// directory when `memo` was not usable (so the caller can memoize
    /// it), `None` otherwise. A stale memo (encoded length mismatch)
    /// silently falls back to a full parse — correctness never depends
    /// on the memo.
    pub fn parse_with_directory(
        buf: Bytes,
        memo: Option<&Arc<ColDirectory>>,
    ) -> Result<(LazyBlock, Option<Arc<ColDirectory>>)> {
        if !buf.starts_with(BLOCK_MAGIC_V2) {
            return Err(Error::Codec("bad block magic".into()));
        }
        if let Some(dir) = memo {
            if buf.len() == dir.encoded_len {
                let id = u32::from_le_bytes(buf[4..8].try_into().unwrap());
                let bytes = buf.slice(dir.payload_offset..buf.len());
                return Ok((LazyBlock { id, dir: Arc::clone(dir), bytes }, None));
            }
        }
        let (lazy, dir) = LazyBlock::parse_columnar(buf)?;
        Ok((lazy, Some(dir)))
    }

    fn parse_columnar(buf: Bytes) -> Result<(LazyBlock, Arc<ColDirectory>)> {
        let (id, mut dir, bytes) = LazyBlock::read_directory(buf)?;
        for c in dir.cols.iter_mut().filter(|c| c.tag == 2) {
            c.fault = check_str_cells(dir.rows, &bytes[c.start..c.end]).err().map(Box::new);
        }
        let dir = Arc::new(dir);
        Ok((LazyBlock { id, dir: Arc::clone(&dir), bytes }, dir))
    }

    /// Validate an `ADB2` block's header and column directory — not its
    /// `Str` cells — returning its id, its directory (every column marked
    /// sound) and its payload bytes.
    fn read_directory(mut buf: Bytes) -> Result<(u32, ColDirectory, Bytes)> {
        let encoded_len = buf.remaining();
        if buf.remaining() < 14 {
            return Err(Error::Codec("truncated columnar block header".into()));
        }
        buf.advance(4); // magic, checked by the caller
        let id = buf.get_u32_le();
        let rows = buf.get_u32_le() as usize;
        let col_count = buf.get_u16_le() as usize;
        if buf.remaining() < col_count * 5 {
            return Err(Error::Codec("truncated column directory".into()));
        }
        let mut cols = Vec::with_capacity(col_count);
        let mut offset = 0usize;
        for _ in 0..col_count {
            let tag = buf.get_u8();
            let len = buf.get_u32_le() as usize;
            // Fixed-width payloads must match the row count exactly;
            // a `Str` payload must at least hold every cell's length
            // prefix, which bounds the untrusted row count by the bytes
            // present.
            let (width, exact) = match tag {
                0 | 1 => (8, true),
                3 => (4, true),
                4 => (1, true),
                2 => (4, false),
                other => return Err(Error::Codec(format!("unknown column tag {other}"))),
            };
            let need = rows.saturating_mul(width);
            if (exact && len != need) || len < need {
                return Err(Error::Codec(format!(
                    "column payload length {len} does not fit {rows} rows of tag {tag}"
                )));
            }
            cols.push(ColRegion { tag, start: offset, end: offset + len, fault: None });
            offset += len;
        }
        if buf.remaining() != offset {
            return Err(Error::Codec(format!(
                "column payloads occupy {} bytes, directory claims {offset}",
                buf.remaining()
            )));
        }
        // A zero-column block still carries a row count on the wire;
        // only rows == 0 survives that round trip.
        if col_count == 0 && rows != 0 {
            return Err(Error::Codec(format!("{rows} rows but no columns")));
        }
        let payload_offset = encoded_len - buf.remaining();
        Ok((id, ColDirectory { rows, cols, payload_offset, encoded_len }, buf))
    }

    /// Block id carried in the encoding.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Number of rows in the block (known without decoding).
    pub fn row_count(&self) -> usize {
        self.dir.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.dir.cols.len()
    }

    /// Column `idx`'s directory entry.
    fn region(&self, idx: usize) -> Result<&ColRegion> {
        self.dir.cols.get(idx).ok_or_else(|| Error::Codec(format!("column {idx} out of range")))
    }

    /// Decode a single column, touching only that column's bytes.
    pub fn column(&self, idx: usize) -> Result<ColumnVec> {
        let col = self.region(idx)?;
        decode_column(col.tag, self.dir.rows, col.payload(&self.bytes)?)
    }

    /// AND `column idx <op> lit` into the running selection `sel` (one
    /// bit per row), in place — stage A of late materialisation.
    /// Bit-for-bit the selection `column(idx)?.eval(op, lit)` would
    /// give, and an error on exactly the blocks `column(idx)` rejects,
    /// but the column is read where it lies: fixed-width cells at the
    /// selected rows only (doubles by `total_cmp`), and `Str` cells as
    /// raw bytes against the literal's bytes (UTF-8 byte order is `str`
    /// order) — no `String` is built. A literal of another type
    /// compares by the fixed type rank, one answer for the whole
    /// column.
    pub fn filter_into(
        &self,
        idx: usize,
        op: CmpOp,
        lit: &Value,
        sel: &mut adaptdb_common::BitSet,
    ) -> Result<()> {
        let n = self.row_count();
        assert_eq!(sel.len(), n, "selection width mismatch");
        let col = self.region(idx)?;
        let (p, tag) = (col.payload(&self.bytes)?, col.tag);
        let ty = tag_type(tag);
        let same_type = ty == lit.value_type();
        match (tag, lit) {
            (2, _) => {
                let want = if let Value::Str(c) = lit { Some(c.as_bytes()) } else { None };
                let mut rest = p;
                for i in 0..n {
                    let s = sound_frame(&mut rest);
                    if want.is_some_and(|c| sel.get(i) && !op.accepts(s.cmp(c))) {
                        sel.clear(i);
                    }
                }
            }
            (0, Value::Int(c)) => sel.retain(|i| op.accepts(i64::from_le_bytes(cell(p, i)).cmp(c))),
            (1, Value::Double(c)) => sel.retain(|i| {
                op.accepts(f64::from_bits(u64::from_le_bytes(cell(p, i))).total_cmp(c))
            }),
            (3, Value::Date(c)) => {
                sel.retain(|i| op.accepts(i32::from_le_bytes(cell(p, i)).cmp(c)))
            }
            (4, Value::Bool(c)) => sel.retain(|i| op.accepts((p[i] != 0).cmp(c))),
            _ => debug_assert!(!same_type, "typed column vs same-type literal handled above"),
        }
        if !same_type && !op.accepts(ty.rank().cmp(&lit.value_type().rank())) {
            *sel = adaptdb_common::BitSet::new(n);
        }
        Ok(())
    }

    /// Materialize rows `start..end` whose bit is set in the
    /// block-wide selection `sel`, in ascending row order. Only the set
    /// bits are visited, so a sparse selection costs little more than
    /// the rows it picks. Fixed-width columns seek directly to each
    /// selected cell; `Str` columns skip-walk their payload, advancing
    /// past unselected cells without allocating. Any gather of a block with a faulty column fails with
    /// that column's error, so every gather rejects exactly the blocks
    /// a full decode does.
    pub fn gather_range(
        &self,
        start: usize,
        end: usize,
        sel: &adaptdb_common::BitSet,
    ) -> Result<Vec<Row>> {
        let n = self.row_count();
        assert!(start <= end && end <= n, "gather range {start}..{end} out of {n} rows");
        assert_eq!(sel.len(), n, "selection width mismatch");
        let mut picked = sel.iter_ones().skip_while(|&i| i < start).take_while(|&i| i < end);
        gather_columns(&self.dir, &self.bytes, &mut picked)
    }

    /// Append the cells of row `r` to `out[t]`, one column after
    /// another, for each `(r, t)` of `picks` — a join's materialiser
    /// builds rows from several blocks this way, each row allocated
    /// once. Rows must not descend; a row may repeat. Fails exactly as
    /// [`LazyBlock::gather_range`] does.
    pub fn gather_onto<I>(&self, picks: I, out: &mut [Vec<Value>]) -> Result<()>
    where
        I: Iterator<Item = (usize, usize)> + Clone,
    {
        self.check_columns()?;
        for col in &self.dir.cols {
            let payload = &self.bytes[col.start..col.end];
            cells(col.tag, payload, picks.clone(), |t, v| out[t].push(v))?;
        }
        Ok(())
    }

    /// Call `f(t, cell)` with the cell of column `idx` at row `r`, for
    /// each `(r, t)` of `picks`; rows as for [`LazyBlock::gather_onto`].
    /// Fails exactly as [`LazyBlock::column`] does.
    pub fn gather_column(
        &self,
        idx: usize,
        picks: impl Iterator<Item = (usize, usize)>,
        f: impl FnMut(usize, Value),
    ) -> Result<()> {
        let col = self.region(idx)?;
        cells(col.tag, col.payload(&self.bytes)?, picks, f)
    }

    /// The error of the block's first faulty column, if any: what every
    /// gather of the block fails with ([`LazyBlock::gather_range`]).
    pub fn check_columns(&self) -> Result<()> {
        for col in &self.dir.cols {
            col.payload(&self.bytes)?;
        }
        Ok(())
    }

    /// Call `f` with each row `sel` selects and its cell in column
    /// `idx` as a join key, in ascending row order — the cells read
    /// where they lie: fixed-width cells at the selected rows only,
    /// `Str` cells as the bytes a skip-walk of the payload finds, up to
    /// the last selected row. No value and no column is built. Fails
    /// exactly as [`LazyBlock::column`] does.
    pub fn for_each_key(
        &self,
        idx: usize,
        sel: &BitSet,
        mut f: impl FnMut(usize, KeyRef<'_>),
    ) -> Result<()> {
        assert_eq!(sel.len(), self.row_count(), "selection width mismatch");
        let col = self.region(idx)?;
        let p = col.payload(&self.bytes)?;
        match col.tag {
            0 => sel.iter_ones().for_each(|i| f(i, KeyRef::Int(i64::from_le_bytes(cell(p, i))))),
            1 => sel.iter_ones().for_each(|i| f(i, KeyRef::Double(u64::from_le_bytes(cell(p, i))))),
            2 => {
                let (mut rest, mut at) = (p, 0);
                for i in sel.iter_ones() {
                    for _ in at..i {
                        sound_frame(&mut rest);
                    }
                    f(i, KeyRef::Str(sound_frame(&mut rest)));
                    at = i + 1;
                }
            }
            3 => sel.iter_ones().for_each(|i| f(i, KeyRef::Date(i32::from_le_bytes(cell(p, i))))),
            _ => sel.iter_ones().for_each(|i| f(i, KeyRef::Bool(p[i] != 0))),
        }
        Ok(())
    }

    /// Every column left encoded, for copying cells into other blocks
    /// ([`encode_gathered`]). Nothing is framed yet: a `Str` column
    /// finds its cell boundaries the first time a cell is looked up.
    pub fn raw_columns(&self) -> Result<Vec<RawColumn>> {
        self.check_columns()?;
        Ok(self
            .dir
            .cols
            .iter()
            .map(|c| RawColumn {
                tag: c.tag,
                rows: self.dir.rows,
                payload: self.bytes.slice(c.start..c.end),
                bounds: OnceLock::new(),
                range: None,
            })
            .collect())
    }

    /// Decode everything to a [`Block`] — the eager path, used by
    /// consumers that need whole rows (a reducer's build-spill
    /// fetch-back, journal recovery). Cells decode straight into rows,
    /// one copy per cell.
    pub fn into_block(self) -> Result<Block> {
        let rows = gather_columns(&self.dir, &self.bytes, &mut (0..self.dir.rows))?;
        Ok(Block::new(self.id, rows))
    }
}

/// The directory of a block this codec encoded from sound cells (rows,
/// or cells gathered from columns parse found sound): the header walk
/// of [`LazyBlock::parse`] without its `Str` cell walk, which could
/// find nothing.
pub(crate) fn encoded_directory(encoded: Bytes) -> Arc<ColDirectory> {
    Arc::new(LazyBlock::read_directory(encoded).expect("the codec parses its own encoding").1)
}

/// One `ADB2` column left encoded: its directory tag, its payload, and
/// — once a cell is looked up — where each cell of a `Str` column
/// starts. Copying cells from it into another block
/// ([`encode_gathered`]) moves bytes without building values. Only
/// columns that parse found sound are made into one.
#[derive(Debug, Clone)]
pub struct RawColumn {
    tag: u8,
    rows: usize,
    payload: Bytes,
    /// Cell boundaries (`rows + 1` of them) of a `Str` column, framed
    /// the first time a cell is looked up ([`RawColumn::bounds`]): a
    /// column only ever copied whole is never framed.
    bounds: OnceLock<Vec<u32>>,
    /// The column's stored zone map entry, when the caller attached it
    /// ([`RawColumn::with_range`]).
    range: Option<ValueRange>,
}

impl RawColumn {
    /// The cell boundaries of a `Str` column (a column parse found
    /// sound, so its cells frame), framed on first use.
    fn bounds(&self) -> &[u32] {
        self.bounds.get_or_init(|| {
            let mut bounds = Vec::with_capacity(self.rows + 1);
            bounds.push(0);
            let mut at = 0;
            for _ in 0..self.rows {
                at += 4 + u32::from_le_bytes(cell(&self.payload[at..], 0)) as usize;
                bounds.push(at as u32);
            }
            bounds
        })
    }

    /// Whether `picked` (ascending) is every row of the column.
    fn is_whole(&self, picked: &[u32]) -> bool {
        picked.len() == self.rows
            && picked.first() == Some(&0)
            && picked.last() == Some(&(self.rows as u32 - 1))
    }

    /// Attach the column's stored zone map entry (its block's
    /// [`BlockMeta::ranges`] entry). A gather that takes every cell of
    /// the column into a fresh output column then copies the payload in
    /// one piece and starts the output's zone from `range`, instead of
    /// copying and comparing cell by cell. `range` must be the one the
    /// block was written with.
    pub fn with_range(mut self, range: ValueRange) -> RawColumn {
        self.range = Some(range);
        self
    }

    /// The bytes the cells `picked` take in a payload: all of it for
    /// the whole column, without framing it.
    fn picked_len(&self, picked: &[u32]) -> usize {
        match fixed_width(tag_type(self.tag)) {
            Some(w) => w * picked.len(),
            None if self.is_whole(picked) => self.payload.len(),
            None => {
                let b = self.bounds();
                picked.iter().map(|&i| (b[i as usize + 1] - b[i as usize]) as usize).sum()
            }
        }
    }

    /// Cell `i`'s typed encoding (a `Str` cell keeps its length prefix).
    #[inline]
    fn cell(&self, i: usize) -> &[u8] {
        let (start, end) = match self.tag {
            0 | 1 => (i * 8, i * 8 + 8),
            3 => (i * 4, i * 4 + 4),
            4 => (i, i + 1),
            _ => {
                let b = self.bounds();
                (b[i] as usize, b[i + 1] as usize)
            }
        };
        &self.payload[start..end]
    }

    /// Cell `i` as a join key, read where it lies.
    #[inline]
    fn key(&self, i: usize) -> KeyRef<'_> {
        let c = self.cell(i);
        match self.tag {
            0 => KeyRef::Int(i64::from_le_bytes(fixed(c))),
            1 => KeyRef::Double(u64::from_le_bytes(fixed(c))),
            2 => KeyRef::Str(&c[4..]),
            3 => KeyRef::Date(i32::from_le_bytes(fixed(c))),
            _ => KeyRef::Bool(c[0] != 0),
        }
    }

    /// [`Value::stable_hash`] of cell `i`, hashed from its encoded
    /// bytes: no value (in particular no `String`) is built.
    #[inline]
    pub fn stable_hash(&self, i: usize) -> u64 {
        self.key(i).stable_hash()
    }

    /// Cell `i` decoded to a [`Value`]. A `Str` cell is found by
    /// walking the payload, so reading a value frames nothing.
    pub fn value(&self, i: usize) -> Value {
        let p: &[u8] = &self.payload;
        match self.tag {
            0 => Value::Int(i64::from_le_bytes(cell(p, i))),
            1 => Value::Double(f64::from_bits(u64::from_le_bytes(cell(p, i)))),
            2 => {
                let mut rest = p;
                for _ in 0..i {
                    sound_frame(&mut rest);
                }
                utf8_value(sound_frame(&mut rest))
            }
            3 => Value::Date(i32::from_le_bytes(cell(p, i))),
            _ => Value::Bool(p[i] != 0),
        }
    }
}

/// A fixed-width cell's bytes as an array (its width was checked when
/// the column was framed).
#[inline]
fn fixed<const W: usize>(c: &[u8]) -> [u8; W] {
    cell(c, 0)
}

/// Split `n` bytes off the front of `p`, or fail as a truncated `what`.
fn take<'p>(p: &mut &'p [u8], n: usize, what: &str) -> Result<&'p [u8]> {
    if p.len() < n {
        return Err(Error::Codec(format!("truncated {what}")));
    }
    let (head, rest) = p.split_at(n);
    *p = rest;
    Ok(head)
}

/// The bytes of one `Str` cell as a `str`, or a codec error if they
/// are not UTF-8.
fn utf8(raw: &[u8]) -> Result<&str> {
    std::str::from_utf8(raw).map_err(|e| Error::Codec(format!("invalid UTF-8 in Str: {e}")))
}

/// Check that a `Str` cell's bytes are UTF-8, taking the word-wise
/// ASCII test first (the common case, and much cheaper per short cell).
#[inline]
fn check_utf8(raw: &[u8]) -> Result<()> {
    if raw.is_ascii() {
        return Ok(());
    }
    utf8(raw).map(|_| ())
}

/// The bytes of the next cell of a `Str` payload — a length prefix,
/// then that many bytes — checked for truncation only, advancing `p`.
#[inline]
fn str_frame<'p>(p: &mut &'p [u8]) -> Result<&'p [u8]> {
    let len = u32::from_le_bytes(cell(take(p, 4, "Str length")?, 0)) as usize;
    take(p, len, "Str payload")
}

/// The next cell of a `Str` payload parse found sound — a length
/// prefix, then that many bytes — advancing `p`. Parse checked the
/// framing, so this only slices: the walks of every read of a sound
/// column go through here, not through [`str_frame`]'s checks.
#[inline]
fn sound_frame<'p>(p: &mut &'p [u8]) -> &'p [u8] {
    let len = u32::from_le_bytes(cell(p, 0)) as usize;
    let (c, rest) = p[4..].split_at(len);
    *p = rest;
    c
}

/// Walk a `Str` payload of `rows` cells the way a full decode would —
/// each cell framed, each string UTF-8, the payload used up exactly —
/// building nothing. Parse runs it once per `Str` column, so reads of a
/// sound column need not repeat the checks.
fn check_str_cells(rows: usize, mut p: &[u8]) -> Result<()> {
    for _ in 0..rows {
        check_utf8(str_frame(&mut p)?)?;
    }
    if !p.is_empty() {
        return Err(Error::Codec("trailing bytes after Str column".into()));
    }
    Ok(())
}

/// The fixed-width cell at row `i` of a payload of `W`-byte cells
/// (lengths were validated against the row count at parse time).
#[inline]
fn cell<const W: usize>(payload: &[u8], i: usize) -> [u8; W] {
    payload[i * W..i * W + W].try_into().unwrap()
}

/// Gathers of up to this many rows list their row indices on the stack.
const STACK_PICKS: usize = 256;

/// Rows at the strictly ascending indices `picked` of a columnar
/// payload, each allocated once at the block's width, decoded column
/// by column straight into the row vectors; a faulty column fails the
/// gather. The indices are listed once — on the stack for up to
/// [`STACK_PICKS`] rows — then walked per column. `picked` is a trait
/// object so that this one loop is compiled once for every caller.
fn gather_columns(
    dir: &ColDirectory,
    bytes: &Bytes,
    picked: &mut dyn Iterator<Item = usize>,
) -> Result<Vec<Row>> {
    for col in &dir.cols {
        col.payload(bytes)?;
    }
    let (mut stack, mut heap, mut rows, mut last) = ([0u32; STACK_PICKS], Vec::new(), 0, None);
    while let Some(i) = picked.next() {
        assert!(
            i < dir.rows && last.replace(i).is_none_or(|l| l < i),
            "gathered rows must ascend within {} rows",
            dir.rows
        );
        match stack.get_mut(rows) {
            Some(slot) => *slot = i as u32,
            None => {
                if heap.is_empty() {
                    heap.reserve(STACK_PICKS + 1 + picked.size_hint().0);
                    heap.extend_from_slice(&stack);
                }
                heap.push(i as u32);
            }
        }
        rows += 1;
    }
    let picked: &[u32] = if rows <= STACK_PICKS { &stack[..rows] } else { &heap };
    let width = dir.cols.len();
    let mut out: Vec<Vec<Value>> = (0..rows).map(|_| Vec::with_capacity(width)).collect();
    for col in &dir.cols {
        let picks = picked.iter().zip(out.iter_mut()).map(|(&i, o)| (i as usize, o));
        cells(col.tag, &bytes[col.start..col.end], picks, Vec::push)?;
    }
    // Same layout: the row vectors become rows in place.
    Ok(out.into_iter().map(Row::new).collect())
}

/// Call `f(t, cell)` with the cell at row `r` of a sound column
/// payload of directory tag `tag`, for each `(r, t)` of `picks`. Rows
/// must not descend and may repeat: `Str` cells are skip-walked up to
/// the last pick, and a repeated row reuses its framed cell.
#[inline]
fn cells<T>(
    tag: u8,
    payload: &[u8],
    picks: impl Iterator<Item = (usize, T)>,
    mut f: impl FnMut(T, Value),
) -> Result<()> {
    match tag {
        0 => picks.for_each(|(i, t)| f(t, Value::Int(i64::from_le_bytes(cell(payload, i))))),
        1 => picks.for_each(|(i, t)| {
            f(t, Value::Double(f64::from_bits(u64::from_le_bytes(cell(payload, i)))))
        }),
        2 => {
            let (mut p, mut framed, mut raw) = (payload, 0, &payload[..0]);
            for (i, t) in picks {
                assert!(i + 1 >= framed, "gathered rows must not descend");
                while framed <= i {
                    raw = sound_frame(&mut p);
                    framed += 1;
                }
                f(t, Value::Str(utf8(raw)?.into()));
            }
        }
        3 => picks.for_each(|(i, t)| f(t, Value::Date(i32::from_le_bytes(cell(payload, i))))),
        _ => picks.for_each(|(i, t)| f(t, Value::Bool(payload[i] != 0))),
    }
    Ok(())
}

/// Decode one full column payload (of a column parse found sound) into
/// a typed vector — the join-key columns of late materialization.
fn decode_column(tag: u8, rows: usize, payload: &[u8]) -> Result<ColumnVec> {
    Ok(match tag {
        0 => ColumnVec::Int((0..rows).map(|i| i64::from_le_bytes(cell(payload, i))).collect()),
        1 => ColumnVec::Double(
            (0..rows).map(|i| f64::from_bits(u64::from_le_bytes(cell(payload, i)))).collect(),
        ),
        2 => {
            let mut p = payload;
            let mut v = Vec::with_capacity(rows);
            for _ in 0..rows {
                v.push(utf8(sound_frame(&mut p))?.into());
            }
            ColumnVec::Str(v)
        }
        3 => ColumnVec::Date((0..rows).map(|i| i32::from_le_bytes(cell(payload, i))).collect()),
        _ => ColumnVec::Bool(payload.iter().map(|&b| b != 0).collect()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::row;
    use bytes::BytesMut;

    /// Encode, then decode both eagerly and lazily: each must give the
    /// block back.
    fn round_trip(block: Block) {
        let enc = encode_block_columnar(&block);
        assert_eq!(decode_block(enc.clone()).unwrap(), block);
        let lazy = LazyBlock::parse(enc).unwrap();
        assert_eq!(lazy.id(), block.id);
        assert_eq!(lazy.row_count(), block.rows.len());
        assert_eq!(lazy.into_block().unwrap(), block);
    }

    #[test]
    fn block_round_trip_all_types() {
        round_trip(Block::new(
            7,
            vec![
                Row::new(vec![
                    Value::Int(1),
                    Value::Double(2.5),
                    Value::Str("hello".into()),
                    Value::Bool(true),
                    Value::Date(19_000),
                ]),
                Row::new(vec![
                    Value::Int(-1),
                    Value::Double(-0.0),
                    Value::Str("".into()),
                    Value::Bool(false),
                    Value::Date(-3),
                ]),
            ],
        ));
    }

    #[test]
    fn empty_block_round_trip() {
        round_trip(Block::new(77, vec![]));
        let lazy = LazyBlock::parse(encode_block_columnar(&Block::new(77, vec![]))).unwrap();
        assert_eq!(lazy.num_columns(), 0);
    }

    #[test]
    fn truncation_is_detected() {
        let enc = encode_block_columnar(&Block::new(1, vec![row![42i64, "ab"]]));
        for cut in 0..enc.len() {
            let res = decode_block(enc.slice(0..cut));
            assert!(matches!(res, Err(Error::Codec(_))), "cut at {cut} should fail");
        }
    }

    /// Anything but `ADB2` is bad magic — the retired row format's
    /// `ADB1` included.
    #[test]
    fn bad_magic_is_rejected() {
        for magic in [b"NOPE", b"ADB1"] {
            let mut raw = BytesMut::new();
            raw.put_slice(magic);
            raw.put_u32_le(0);
            raw.put_u32_le(0);
            assert!(matches!(decode_block(raw.clone().freeze()), Err(Error::Codec(_))));
            assert!(matches!(LazyBlock::parse(raw.freeze()), Err(Error::Codec(_))));
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let enc = encode_block_columnar(&Block::new(1, vec![]));
        let mut raw = BytesMut::from(enc.as_ref());
        raw.put_u8(0xFF);
        assert!(decode_block(raw.freeze()).is_err());
    }

    #[test]
    fn nan_double_round_trips_bitwise() {
        let block = Block::new(2, vec![Row::new(vec![Value::Double(f64::NAN)])]);
        let dec = decode_block(encode_block_columnar(&block)).unwrap();
        match dec.rows[0].get(0) {
            Value::Double(d) => assert!(d.is_nan()),
            other => panic!("expected Double, got {other:?}"),
        }
    }

    /// An unknown value tag, and an unknown column tag — the retired
    /// heterogeneous column's 255 among them — are codec errors.
    #[test]
    fn unknown_tag_is_rejected() {
        let mut raw = BytesMut::new();
        raw.put_u8(9);
        let mut b = raw.freeze();
        assert!(decode_value(&mut b).is_err());
        let mut raw = BytesMut::new();
        raw.put_slice(BLOCK_MAGIC_V2);
        raw.put_u32_le(1); // id
        raw.put_u32_le(1); // rows
        raw.put_u16_le(1); // cols
        raw.put_u8(255);
        raw.put_u32_le(9);
        raw.put_u8(0); // Int tag, then its 8 bytes
        raw.put_i64_le(5);
        assert!(matches!(LazyBlock::parse(raw.freeze()), Err(Error::Codec(_))));
    }

    #[test]
    fn columnar_round_trip_all_types() {
        round_trip(Block::new(
            9,
            vec![
                row![1i64, 2.5, "hello", true],
                Row::new(vec![
                    Value::Int(-4),
                    Value::Double(f64::NAN),
                    Value::Str("".into()),
                    Value::Bool(false),
                ]),
            ],
        ));
    }

    #[test]
    fn columnar_empty_block_round_trip() {
        round_trip(Block::new(0, vec![]));
    }

    /// A cell whose type differs from its column's is never written: the
    /// encoder panics and names the column.
    #[test]
    #[should_panic(expected = "column 1 holds Int cells, got a Str cell")]
    fn mistyped_cell_panics_naming_its_column() {
        encode_block_columnar(&Block::new(3, vec![row![1i64, 2i64], row![3i64, "x"]]));
    }

    /// The same in a `Str` column, whose cells are measured before any
    /// is written.
    #[test]
    #[should_panic(expected = "column 0 holds Str cells, got a Int cell")]
    fn mistyped_cell_in_a_str_column_panics_naming_it() {
        encode_block_columnar(&Block::new(3, vec![row!["x", 2i64], row![3i64, 4i64]]));
    }

    /// Rows of differing width cannot be laid out column-major.
    #[test]
    #[should_panic(expected = "rows need one non-zero width")]
    fn ragged_rows_panic_the_encoder() {
        encode_block_columnar(&Block::new(5, vec![row![1i64], row![1i64, 2i64]]));
    }

    #[test]
    fn columnar_magic_is_adb2() {
        let enc = encode_block_columnar(&Block::new(1, vec![row![7i64]]));
        assert_eq!(&enc[0..4], BLOCK_MAGIC_V2);
    }

    #[test]
    fn lazy_single_column_decode() {
        let block = Block::new(
            2,
            vec![row![1i64, "aa", 1.5], row![2i64, "bb", 2.5], row![3i64, "cc", 3.5]],
        );
        let lazy = LazyBlock::parse(encode_block_columnar(&block)).unwrap();
        assert_eq!(lazy.num_columns(), 3);
        assert_eq!(lazy.column(0).unwrap(), ColumnVec::Int(vec![1, 2, 3]));
        assert_eq!(
            lazy.column(1).unwrap(),
            ColumnVec::Str(vec!["aa".into(), "bb".into(), "cc".into()])
        );
        assert!(lazy.column(3).is_err());
    }

    #[test]
    fn gather_range_materializes_selected_rows_only() {
        let rows = vec![
            row![1i64, "aa", 1.5],
            row![2i64, "bb", 2.5],
            row![3i64, "cc", 3.5],
            row![4i64, "dd", 4.5],
        ];
        let block = Block::new(2, rows.clone());
        let lazy = LazyBlock::parse(encode_block_columnar(&block)).unwrap();
        let sel = adaptdb_common::BitSet::from_indices(4, &[0, 2, 3]);
        // Full range.
        assert_eq!(
            lazy.gather_range(0, 4, &sel).unwrap(),
            vec![rows[0].clone(), rows[2].clone(), rows[3].clone()]
        );
        // Sub-ranges concatenate to the same output.
        let mut pieces = lazy.gather_range(0, 2, &sel).unwrap();
        pieces.extend(lazy.gather_range(2, 4, &sel).unwrap());
        assert_eq!(pieces, lazy.gather_range(0, 4, &sel).unwrap());
        // Empty selection.
        let none = adaptdb_common::BitSet::new(4);
        assert!(lazy.gather_range(0, 4, &none).unwrap().is_empty());
        // Onto rows that already hold cells, in any target order, a
        // row picked twice: each target gets the row's cells appended.
        let mut out = vec![vec![Value::Int(7)], vec![], vec![Value::Bool(true)]];
        lazy.gather_onto([(0, 2), (2, 0), (2, 1)].into_iter(), &mut out).unwrap();
        let want = |head: Vec<Value>, r: &Row| [head, r.values().to_vec()].concat();
        assert_eq!(out[0], want(vec![Value::Int(7)], &rows[2]));
        assert_eq!(out[1], want(vec![], &rows[2]));
        assert_eq!(out[2], want(vec![Value::Bool(true)], &rows[0]));
        let mut col = vec![Value::Int(0); 3];
        lazy.gather_column(1, [(0, 1), (3, 0), (3, 2)].into_iter(), |t, v| col[t] = v).unwrap();
        assert_eq!(col, [rows[3].get(1).clone(), rows[0].get(1).clone(), rows[3].get(1).clone()]);
    }

    /// Gathers past the stack's index buffer list the rest on the heap
    /// and return the same rows.
    #[test]
    fn gathers_beyond_the_stack_buffer_return_every_picked_row() {
        let n = 3 * STACK_PICKS + 7;
        let rows: Vec<Row> = (0..n as i64).map(|i| row![i, format!("s{i}"), i % 2 == 0]).collect();
        let lazy = LazyBlock::parse(encode_block_columnar(&Block::new(1, rows.clone()))).unwrap();
        assert_eq!(lazy.clone().into_block().unwrap().rows, rows);
        let picked: Vec<usize> = (0..n).filter(|i| i % 3 != 1).collect();
        let sel = adaptdb_common::BitSet::from_indices(n, &picked);
        let want: Vec<Row> = picked.iter().map(|&i| rows[i].clone()).collect();
        assert!(want.len() > STACK_PICKS);
        assert_eq!(lazy.gather_range(0, n, &sel).unwrap(), want);
        let mut onto = vec![Vec::new(); want.len()];
        lazy.gather_onto(picked.iter().copied().zip(0..), &mut onto).unwrap();
        assert_eq!(onto.into_iter().map(Row::new).collect::<Vec<_>>(), want);
    }

    #[test]
    #[should_panic(expected = "gathered rows must not descend")]
    fn gather_onto_rejects_descending_rows() {
        let block = Block::new(1, (0..4i64).map(|i| row![i, format!("s{i}")]).collect());
        let lazy = LazyBlock::parse(encode_block_columnar(&block)).unwrap();
        let _ = lazy.gather_onto([(2, 0), (1, 1)].into_iter(), &mut [Vec::new(), Vec::new()]);
    }

    #[test]
    fn memoized_directory_parse_is_equivalent() {
        let block = Block::new(2, vec![row![1i64, "aa", 1.5], row![2i64, "bb", 2.5]]);
        let enc = encode_block_columnar(&block);
        let (first, dir) = LazyBlock::parse_with_directory(enc.clone(), None).unwrap();
        let dir = dir.expect("a full parse yields a directory");
        // Re-parse with the memo: no new directory, identical payload.
        let (second, fresh) = LazyBlock::parse_with_directory(enc, Some(&dir)).unwrap();
        assert!(fresh.is_none(), "memo hit must not re-validate");
        assert_eq!(second.id(), first.id());
        assert_eq!(second.row_count(), first.row_count());
        assert_eq!(second.column(1).unwrap(), first.column(1).unwrap());
        assert_eq!(second.into_block().unwrap(), block);
        // A stale memo (encoded length mismatch) falls back to a full parse.
        let other = encode_block_columnar(&Block::new(9, vec![row![1i64]]));
        let (lazy, fresh) = LazyBlock::parse_with_directory(other, Some(&dir)).unwrap();
        assert!(fresh.is_some());
        assert_eq!(lazy.into_block().unwrap(), Block::new(9, vec![row![1i64]]));
    }
    #[test]
    fn columnar_truncation_is_detected() {
        let enc = encode_block_columnar(&Block::new(
            1,
            vec![row![42i64, "abc", 1.0], row![43i64, "de", 2.0]],
        ));
        for cut in 4..enc.len() {
            let sliced = enc.slice(0..cut);
            // Either the parse fails, or a later full decode does —
            // truncation can never produce a successful round trip.
            let ok = LazyBlock::parse(sliced).and_then(LazyBlock::into_block);
            assert!(ok.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn columnar_trailing_garbage_is_rejected() {
        let enc = encode_block_columnar(&Block::new(1, vec![row![7i64]]));
        let mut raw = BytesMut::from(enc.as_ref());
        raw.put_u8(0xFF);
        assert!(LazyBlock::parse(raw.freeze()).is_err());
    }

    #[test]
    fn columnar_fixed_width_length_mismatch_is_rejected() {
        // Hand-build a directory claiming an Int column of the wrong size.
        let mut raw = BytesMut::new();
        raw.put_slice(BLOCK_MAGIC_V2);
        raw.put_u32_le(1); // id
        raw.put_u32_le(2); // rows
        raw.put_u16_le(1); // cols
        raw.put_u8(0); // Int
        raw.put_u32_le(8); // should be 16 for 2 rows
        raw.put_u64_le(0);
        assert!(LazyBlock::parse(raw.freeze()).is_err());
    }

    /// Blocks that pin the `ADB2` wire format: every column tag (Int,
    /// Double with `-0.0` and NaN, Str with empty and multi-byte UTF-8,
    /// Date, Bool) and an empty block.
    fn golden_blocks() -> Vec<Block> {
        vec![
            Block::new(
                0x0102_0304,
                vec![
                    Row::new(vec![
                        Value::Int(1),
                        Value::Double(-0.0),
                        Value::Str("".into()),
                        Value::Date(-5),
                        Value::Bool(true),
                    ]),
                    Row::new(vec![
                        Value::Int(-2),
                        Value::Double(f64::NAN),
                        Value::Str("h\u{e9}llo \u{2713}".into()),
                        Value::Date(19_000),
                        Value::Bool(false),
                    ]),
                    Row::new(vec![
                        Value::Int(i64::MAX),
                        Value::Double(1.5),
                        Value::Str("abc".into()),
                        Value::Date(0),
                        Value::Bool(true),
                    ]),
                    Row::new(vec![
                        Value::Int(i64::MIN),
                        Value::Double(f64::INFINITY),
                        Value::Str("\u{1f600}".into()),
                        Value::Date(i32::MAX),
                        Value::Bool(false),
                    ]),
                    Row::new(vec![
                        Value::Int(0),
                        Value::Double(-1e300),
                        Value::Str("z".into()),
                        Value::Date(1),
                        Value::Bool(true),
                    ]),
                ],
            ),
            Block::new(9, vec![]),
        ]
    }
    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Durable journals store these bytes: the encoder must reproduce
    /// them exactly, and they must decode back to the same rows.
    #[test]
    fn adb2_wire_format_is_pinned() {
        const GOLDEN: [&str; 2] = [
            "4144423204030201050000000500002800000001280000000226000000031400000004050000000100000000000000feffffffffffffffffffffffffffff7f000000000000008000000000000000000000000000000080000000000000f87f000000000000f83f000000000000f07f9c7500883ce437fe000000000a00000068c3a96c6c6f20e29c930300000061626304000000f09f9880010000007afbffffff384a000000000000ffffff7f010000000100010001",
            "4144423209000000000000000000",
        ];
        for (block, want) in golden_blocks().into_iter().zip(GOLDEN) {
            let enc = encode_block_columnar(&block);
            assert_eq!(hex(&enc), want, "block {} encoding drifted", block.id);
            assert_eq!(decode_block(enc).unwrap(), block);
        }
    }

    /// A `Str` region longer than its cells passes the directory check,
    /// but every decode path must reject it — the gather included.
    #[test]
    fn overlong_variable_width_column_is_rejected_by_every_path() {
        let block = Block::new(1, vec![row![1i64, "aa"], row![2i64, "bb"]]);
        let enc = encode_block_columnar(&block);
        // Grow the last column's directory length by one and append the
        // extra byte at the end of its payload.
        let mut raw = enc.to_vec();
        let entry = 14 + 5;
        let len = u32::from_le_bytes(raw[entry + 1..entry + 5].try_into().unwrap());
        raw[entry + 1..entry + 5].copy_from_slice(&(len + 1).to_le_bytes());
        raw.push(0);
        let lazy = LazyBlock::parse(Bytes::from(raw)).unwrap();
        let all = adaptdb_common::BitSet::all_set(2);
        assert!(matches!(lazy.column(1), Err(Error::Codec(_))));
        assert!(matches!(lazy.raw_columns(), Err(Error::Codec(_))));
        assert!(matches!(lazy.gather_range(0, 2, &all), Err(Error::Codec(_))));
        assert!(matches!(lazy.into_block(), Err(Error::Codec(_))));
    }

    /// A `Str` cell that is not UTF-8 fails every read path, a gather
    /// that skips it included.
    #[test]
    fn invalid_utf8_is_rejected_by_every_path() {
        let block = Block::new(1, vec![row![1i64, "aa"], row![2i64, "bb"]]);
        let mut raw = encode_block_columnar(&block).to_vec();
        let at = raw.len() - 2;
        raw[at..].copy_from_slice(&[0xFF, 0xFE]);
        let lazy = LazyBlock::parse(Bytes::from(raw)).unwrap();
        let first_only = adaptdb_common::BitSet::from_indices(2, &[0]);
        assert!(matches!(lazy.gather_range(0, 2, &first_only), Err(Error::Codec(_))));
        let mut onto = [Vec::new()];
        assert!(matches!(lazy.gather_onto([(0, 0)].into_iter(), &mut onto), Err(Error::Codec(_))));
        let col = lazy.gather_column(1, [(0, 0)].into_iter(), |_, _| ());
        assert!(matches!(col, Err(Error::Codec(_))));
        assert!(lazy.gather_column(0, [(0, 0)].into_iter(), |_, _| ()).is_ok());
        assert!(matches!(lazy.column(1), Err(Error::Codec(_))));
        assert!(matches!(lazy.raw_columns(), Err(Error::Codec(_))));
        let mut sel = first_only.clone();
        let lit = Value::Str("aa".into());
        assert!(matches!(lazy.filter_into(1, CmpOp::Eq, &lit, &mut sel), Err(Error::Codec(_))));
        assert!(matches!(lazy.into_block(), Err(Error::Codec(_))));
    }
    /// What `filter_into` must equal: decode the column, evaluate,
    /// intersect with the incoming selection.
    fn reference_filter(
        lazy: &LazyBlock,
        idx: usize,
        op: CmpOp,
        lit: &Value,
        incoming: &adaptdb_common::BitSet,
    ) -> Result<adaptdb_common::BitSet> {
        let mut sel = incoming.clone();
        sel.intersect_with(&lazy.column(idx)?.eval(op, lit));
        Ok(sel)
    }

    /// The kernel against the reference on one parsed block: every
    /// column (and one past the last), every op, a literal of every
    /// type, a random incoming selection. Errors must coincide.
    fn check_filter_agrees(lazy: &LazyBlock, rng: &mut impl RngExt) {
        const OPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Neq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        let n = lazy.row_count();
        for idx in 0..=lazy.num_columns() {
            for op in OPS {
                for t in 0..5 {
                    let lit = random_cell(rng, t);
                    let picks: Vec<usize> =
                        (0..n).filter(|_| rng.random_range(0..4u32) > 0).collect();
                    let incoming = adaptdb_common::BitSet::from_indices(n, &picks);
                    let want = reference_filter(lazy, idx, op, &lit, &incoming);
                    let mut got = incoming.clone();
                    match (lazy.filter_into(idx, op, &lit, &mut got), want) {
                        (Ok(()), Ok(want)) => {
                            assert_eq!(got, want, "column {idx} {op:?} {lit:?}")
                        }
                        (Err(_), Err(_)) => {}
                        (got, want) => panic!(
                            "column {idx} {op:?} {lit:?}: kernel {got:?}, reference {want:?}"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn filter_into_equals_decode_then_eval() {
        let mut rng = adaptdb_common::rng::seeded(13);
        for case in 0..600u32 {
            let block = random_block(&mut rng, case);
            let enc = encode_block_columnar(&block);
            check_filter_agrees(&LazyBlock::parse(enc.clone()).unwrap(), &mut rng);
            // Corrupt one payload byte (past the header): wherever the
            // damage lands, kernel and decode must agree on rejecting it.
            if enc.len() > 14 {
                let mut raw = enc.to_vec();
                let at = rng.random_range(14..raw.len());
                raw[at] = [0xFF, 0x80, 0x00, 0xC3][rng.random_range(0..4usize)];
                if let Ok(lazy) = LazyBlock::parse(Bytes::from(raw)) {
                    check_filter_agrees(&lazy, &mut rng);
                }
            }
        }
    }

    /// The encoder before the fused pass: each column written straight
    /// from the rows, a cell's value encoding less its tag byte.
    fn reference_encode(block: &Block) -> Bytes {
        let rows = &block.rows;
        let arity = rows.first().map_or(0, Row::arity);
        let mut buf = Vec::new();
        buf.put_slice(BLOCK_MAGIC_V2);
        buf.put_u32_le(block.id);
        buf.put_u32_le(rows.len() as u32);
        buf.put_u16_le(arity as u16);
        buf.resize(14 + arity * 5, 0);
        for a in 0..arity {
            let start = buf.len();
            for r in rows {
                let mut one = Vec::new();
                encode_value(&mut one, &r.values()[a]);
                buf.extend_from_slice(&one[1..]);
            }
            let len = (buf.len() - start) as u32;
            buf[14 + a * 5] = type_tag(rows[0].values()[a].value_type());
            buf[14 + a * 5 + 1..14 + a * 5 + 5].copy_from_slice(&len.to_le_bytes());
        }
        Bytes::from(buf)
    }

    /// The zone maps before the fused pass: one `ValueRange::insert`
    /// per cell.
    fn reference_meta(block: &Block, arity: usize) -> BlockMeta {
        let mut ranges = vec![ValueRange::empty(); arity];
        let mut bytes = 0;
        for row in &block.rows {
            bytes += row.byte_size();
            for (a, v) in row.values().iter().enumerate().take(arity) {
                ranges[a].insert(v);
            }
        }
        BlockMeta { id: block.id, row_count: block.rows.len(), byte_size: bytes, ranges }
    }

    /// A random cell of type `t` (0..5, in column tag order).
    fn random_cell(rng: &mut impl RngExt, t: u32) -> Value {
        match t {
            0 => Value::Int([-3, -1, 0, 2, 3, i64::MIN, i64::MAX][rng.random_range(0..7usize)]),
            1 => Value::Double(
                [-0.0, 0.0, f64::NAN, -f64::NAN, 1.5, -2.25, f64::INFINITY]
                    [rng.random_range(0..7usize)],
            ),
            2 => Value::Str(
                [
                    "",
                    "a",
                    "ab",
                    "h\u{e9}",
                    "\u{1f600}x",
                    "z",
                    "a string longer than twenty-two bytes",
                    "\u{e9}t\u{e9} \u{2713} longer than the inline cap",
                ][rng.random_range(0..8usize)]
                .into(),
            ),
            3 => Value::Date(rng.random_range(-2..3i32)),
            _ => Value::Bool(rng.random_range(0..2u32) == 1),
        }
    }

    /// A random block of columns over every cell type, each column of
    /// one type, sometimes empty.
    fn random_block(rng: &mut impl RngExt, id: u32) -> Block {
        let cols = rng.random_range(0..5usize);
        let types: Vec<u32> = (0..cols).map(|_| rng.random_range(0..5u32)).collect();
        let n = if cols == 0 { 0 } else { rng.random_range(0..12usize) };
        let rows = (0..n)
            .map(|_| Row::new(types.iter().map(|&t| random_cell(rng, t)).collect()))
            .collect();
        Block::new(id, rows)
    }
    #[test]
    fn fused_pass_equals_encode_plus_compute_meta() {
        let mut rng = adaptdb_common::rng::seeded(11);
        for case in 0..2000u32 {
            let block = random_block(&mut rng, case);
            let arity = rng.random_range(0..6usize);
            let (bytes, meta) = encode_block_with_meta(&block, arity);
            assert_eq!(bytes, reference_encode(&block), "bytes of {block:?}");
            let want = reference_meta(&block, arity);
            assert_eq!(meta, want, "meta of {block:?}");
            assert_eq!(format!("{meta:?}"), format!("{want:?}"), "bitwise meta of {block:?}");
            assert_eq!(block.compute_meta(arity), want);
        }
    }

    /// The typed encoder against the per-cell reference on the cells
    /// that stress it: NaN and signed zeros (ordered by `total_cmp`),
    /// `i64::MIN`/`MAX`, empty strings and strings past the inline cap,
    /// in one-row blocks and in columns mixing them.
    #[test]
    fn typed_encoder_equals_the_per_cell_reference_on_edge_cells() {
        let columns: [Vec<Value>; 5] = [
            vec![Value::Int(i64::MAX), Value::Int(i64::MIN), Value::Int(0), Value::Int(-1)],
            vec![
                Value::Double(0.0),
                Value::Double(f64::NAN),
                Value::Double(-0.0),
                Value::Double(-f64::NAN),
            ],
            vec![
                Value::Str("".into()),
                Value::Str("twenty-two bytes, here".into()),
                Value::Str("a string longer than twenty-two bytes".into()),
                Value::Str("".into()),
            ],
            vec![Value::Date(i32::MIN), Value::Date(i32::MAX), Value::Date(-1), Value::Date(0)],
            vec![Value::Bool(true), Value::Bool(false), Value::Bool(false), Value::Bool(true)],
        ];
        let mut blocks: Vec<Block> = (0..4)
            .map(|i| {
                Block::new(
                    i,
                    vec![Row::new(columns.iter().map(|c| c[i as usize].clone()).collect())],
                )
            })
            .collect();
        blocks.push(Block::new(
            9,
            (0..4).map(|i| Row::new(columns.iter().map(|c| c[i].clone()).collect())).collect(),
        ));
        for block in blocks {
            for arity in [0, 2, 5, 6] {
                let (bytes, meta) = encode_block_with_meta(&block, arity);
                assert_eq!(bytes, reference_encode(&block), "bytes of {block:?}");
                let want = reference_meta(&block, arity);
                assert_eq!(format!("{meta:?}"), format!("{want:?}"), "meta of {block:?}");
                assert_eq!(decode_block(bytes).unwrap(), block);
            }
        }
    }

    /// Gathered blocks are byte-for-byte the encoding of their rows, and
    /// carry the same metadata — also when the first chunk is a whole
    /// block copied with its stored zone maps.
    #[test]
    fn gathered_encoding_equals_the_materialized_rows() {
        let mut rng = adaptdb_common::rng::seeded(12);
        for case in 0..1000u32 {
            let cols = rng.random_range(1..5usize);
            let types: Vec<u32> = (0..cols).map(|_| rng.random_range(0..5u32)).collect();
            let sources: Vec<Vec<Row>> = (0..rng.random_range(1..4usize))
                .map(|_| {
                    let n = rng.random_range(1..10usize);
                    (0..n)
                        .map(|_| {
                            Row::new(types.iter().map(|&t| random_cell(&mut rng, t)).collect())
                        })
                        .collect()
                })
                .collect();
            // Every other case leads with a whole stored block carrying
            // its zone maps, as an absorbed tail does.
            let whole_first = case % 2 == 0;
            let columns: Vec<Vec<RawColumn>> = sources
                .iter()
                .enumerate()
                .map(|(s, rows)| {
                    let (enc, meta) = encode_block_with_meta(&Block::new(0, rows.clone()), cols);
                    let raw = LazyBlock::parse(enc).unwrap().raw_columns().unwrap();
                    if s > 0 || !whole_first {
                        return raw;
                    }
                    raw.into_iter().zip(meta.ranges).map(|(c, r)| c.with_range(r)).collect()
                })
                .collect();
            let picks: Vec<Vec<u32>> = sources
                .iter()
                .enumerate()
                .map(|(s, rows)| {
                    let all = s == 0 && whole_first;
                    (0..rows.len() as u32)
                        .filter(|_| all || rng.random_range(0..3u32) > 0)
                        .collect()
                })
                .collect();
            let chunks: Vec<(&[RawColumn], &[u32])> =
                columns.iter().zip(&picks).map(|(c, p)| (&c[..], &p[..])).collect();
            let rows: Vec<Row> = sources
                .iter()
                .zip(&picks)
                .flat_map(|(src, p)| p.iter().map(|&i| src[i as usize].clone()))
                .collect();
            let arity = rng.random_range(0..6usize);
            let block = Block::new(case, rows);
            let (bytes, meta) = encode_gathered(case, &chunks, arity);
            assert_eq!(bytes, reference_encode(&block), "bytes of {block:?}");
            let want = reference_meta(&block, arity);
            assert_eq!(format!("{meta:?}"), format!("{want:?}"), "meta of {block:?}");
        }
    }

    /// `Str` cells the run copy must carry byte for byte: empty,
    /// exactly the inline cap, past it, and multi-byte UTF-8.
    const STR_CELLS: [&str; 8] = [
        "",
        "twenty-two bytes, here",
        "a string longer than twenty-two bytes",
        "h\u{e9}llo \u{2713}",
        "\u{1f600}",
        "z",
        "",
        "\u{e9}t\u{e9} \u{2713} longer than the inline cap",
    ];

    /// A block of `n` rows `[Str, Int]`, its `Str` cells cycling
    /// through [`STR_CELLS`] from `offset`, with its zone maps.
    fn str_block(n: usize, offset: usize) -> (Vec<Row>, Vec<RawColumn>, Vec<ValueRange>) {
        assert_eq!(STR_CELLS[1].len(), Str::INLINE_CAP);
        let rows: Vec<Row> =
            (0..n).map(|i| row![STR_CELLS[(i + offset) % STR_CELLS.len()], i as i64]).collect();
        let (enc, meta) = encode_block_with_meta(&Block::new(0, rows.clone()), 2);
        (rows, LazyBlock::parse(enc).unwrap().raw_columns().unwrap(), meta.ranges)
    }

    /// Gathered `Str` columns — runs of consecutive picks, strided
    /// picks, whole columns and mixes of them, from one or two sources,
    /// with and without a stored range — are byte for byte the per-cell
    /// encoding of the picked rows, with the same zone maps.
    #[test]
    fn gathered_str_runs_equal_the_per_cell_reference() {
        let n = 13u32;
        let picks: [Vec<u32>; 6] = [
            (0..n).collect(),
            (3..9).collect(),
            (0..n).step_by(2).collect(),
            (1..n).step_by(3).collect(),
            vec![0, 1, 2, 5, 6, 9, 10, 11, 12],
            vec![7],
        ];
        let mut cases = 0;
        for with_range in [false, true] {
            let sources: Vec<(Vec<Row>, Vec<RawColumn>)> = (0..2)
                .map(|s| {
                    let (rows, cols, ranges) = str_block(n as usize, 3 * s);
                    let cols = if with_range {
                        cols.into_iter().zip(ranges).map(|(c, r)| c.with_range(r)).collect()
                    } else {
                        cols
                    };
                    (rows, cols)
                })
                .collect();
            for first in &picks {
                for second in [None, Some(&picks[0]), Some(&picks[2]), Some(&picks[4])] {
                    let mut chunks: Vec<(&[RawColumn], &[u32])> = vec![(&sources[0].1, first)];
                    chunks.extend(second.map(|p| (&sources[1].1[..], &p[..])));
                    let rows: Vec<Row> = chunks
                        .iter()
                        .zip(&sources)
                        .flat_map(|((_, p), (src, _))| p.iter().map(|&i| src[i as usize].clone()))
                        .collect();
                    let block = Block::new(cases, rows);
                    let (bytes, meta) = encode_gathered(cases, &chunks, 2);
                    assert_eq!(bytes, reference_encode(&block), "bytes of {block:?}");
                    let want = reference_meta(&block, 2);
                    assert_eq!(format!("{meta:?}"), format!("{want:?}"), "meta of {block:?}");
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 2 * 6 * 4);
    }

    /// A column copied whole into a fresh block with its stored range —
    /// an absorbed tail — is never framed: its length is its payload's
    /// and its zone its stored range. A partial pick frames it.
    #[test]
    fn a_column_copied_whole_is_never_framed() {
        let (rows, cols, ranges) = str_block(9, 0);
        let cols: Vec<RawColumn> =
            cols.into_iter().zip(ranges).map(|(c, r)| c.with_range(r)).collect();
        let all: Vec<u32> = (0..9).collect();
        let (bytes, _) = encode_gathered(0, &[(&cols, &all)], 2);
        assert_eq!(bytes, reference_encode(&Block::new(0, rows.clone())));
        assert!(cols[0].bounds.get().is_none(), "a whole copy framed its Str column");
        let some = [1u32, 2, 4];
        let (bytes, _) = encode_gathered(0, &[(&cols, &some)], 2);
        let picked: Vec<Row> = some.iter().map(|&i| rows[i as usize].clone()).collect();
        assert_eq!(bytes, reference_encode(&Block::new(0, picked)));
        assert!(cols[0].bounds.get().is_some());
    }

    /// `for_each_key` visits the selected rows' cells as the keys of
    /// their values, for every column type, and fails where `column`
    /// does.
    #[test]
    fn key_cells_equal_the_values_keys() {
        let mut rng = adaptdb_common::rng::seeded(14);
        for case in 0..500u32 {
            let block = random_block(&mut rng, case);
            let lazy = LazyBlock::parse(encode_block_columnar(&block)).unwrap();
            let n = block.rows.len();
            let picks: Vec<usize> = (0..n).filter(|_| rng.random_range(0..3u32) > 0).collect();
            let sel = BitSet::from_indices(n, &picks);
            for idx in 0..=lazy.num_columns() {
                let mut seen = Vec::new();
                let res = lazy.for_each_key(idx, &sel, |i, key| {
                    assert_eq!(key, block.rows[i].get(idx as adaptdb_common::AttrId).key());
                    seen.push(i);
                });
                assert_eq!(res.is_ok(), lazy.column(idx).is_ok(), "case {case} column {idx}");
                if res.is_ok() {
                    assert_eq!(seen, picks, "case {case} column {idx}");
                }
            }
        }
    }

    /// The encoded-cell hash equals `Value::stable_hash` cell for cell,
    /// for every column type, NaN and signed-zero
    /// doubles, and empty or multi-byte strings.
    #[test]
    fn raw_cell_hash_equals_value_hash() {
        let mut rng = adaptdb_common::rng::seeded(13);
        let mut tags = [0usize; 5];
        for case in 0..2000u32 {
            let block = random_block(&mut rng, case);
            let lazy = LazyBlock::parse(encode_block_columnar(&block)).unwrap();
            for (a, col) in lazy.raw_columns().unwrap().iter().enumerate() {
                tags[col.tag as usize] += 1;
                for (i, row) in block.rows.iter().enumerate() {
                    let v = row.get(a as adaptdb_common::AttrId);
                    assert_eq!(col.stable_hash(i), v.stable_hash(), "case {case} {v:?}");
                }
            }
        }
        for tag in 0..=4u8 {
            assert!(tags[tag as usize] > 50, "tag {tag} exercised {} times", tags[tag as usize]);
        }
        // The specials, one typed column each.
        let specials = [
            Value::Double(0.0),
            Value::Double(-0.0),
            Value::Double(f64::NAN),
            Value::Double(-f64::NAN),
            Value::Str("".into()),
            Value::Str("h\u{e9}\u{1f600}".into()),
        ];
        for v in specials {
            let block = Block::new(0, vec![Row::new(vec![v.clone()])]);
            let lazy = LazyBlock::parse(encode_block_columnar(&block)).unwrap();
            let col = &lazy.raw_columns().unwrap()[0];
            assert_eq!(col.stable_hash(0), v.stable_hash(), "{v:?}");
        }
        assert_ne!(Value::Double(0.0).stable_hash(), Value::Double(-0.0).stable_hash());
    }

    use adaptdb_common::{ColumnVec, Row, Str, Value};
    use rand::RngExt;
}
