//! Binary encoding of values, rows, and blocks.
//!
//! Blocks are stored *encoded* in the block store so every read pays a
//! realistic decode cost, and so the format is pinned: little-endian,
//! one tag byte per value. No external serialization framework — a
//! storage manager's on-disk format should be explicit.
//!
//! Two formats coexist, distinguished by magic. The store writes only
//! the columnar `ADB2` ([`encode_block_columnar`]): a per-column
//! directory followed by contiguous per-column payloads, so a reader
//! can decode a single column — or a single row range — without
//! touching the rest of the block ([`LazyBlock`]):
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
//!              tag 255 Mixed  per cell ADB1 value encoding
//! ```
//!
//! The original row-oriented `ADB1` is decode-only — blocks in older
//! journals — plus the fallback for row sets `ADB2` cannot lay out
//! (mixed arity, or arity 0 with rows):
//!
//! ```text
//! block  := "ADB1" id(u32) row_count(u32) row*
//! row    := arity(u16) value*
//! value  := tag(u8) payload
//!   tag 0 = Int    payload i64 LE
//!   tag 1 = Double payload f64 bits LE
//!   tag 2 = Str    payload len(u32) + UTF-8 bytes
//!   tag 3 = Date   payload i32 LE
//!   tag 4 = Bool   payload u8
//! ```
//!
//! `Mixed` columns (heterogeneous cell types) and the `ADB1` fallback
//! keep the writer lossless for any input [`decode_block`] accepts.
//! Both directions copy each cell once: the encoder writes columns
//! straight from the rows, and decoding writes cells straight into
//! row vectors.
//!
//! **One typed write pass.** The encoder also builds the block's
//! [`BlockMeta`]: one walk per column writes the cells and widens that
//! column's zone map with typed comparisons ([`encode_block_with_meta`]).
//! Its cells can come from rows or, for migrations, from other blocks'
//! still-encoded columns ([`RawColumn`], [`encode_gathered`]): cells are
//! then copied payload to payload, and no value or row is built.
//!
//! **Predicates on encoded cells.** A filtered read narrows its
//! selection on the `ADB2` payload itself ([`LazyBlock::filter_into`]):
//! fixed-width cells are read where they lie, `Str` cells compare as
//! bytes, and the column is never decoded. That needs no per-read
//! checks: parsing walks each variable-width column once (framing,
//! UTF-8, exact length) and records what a full decode would reject,
//! and every read path — column decode, predicate, gather, framing for
//! a copy — returns that error for a faulty column, so each rejects
//! exactly the corrupt blocks a full decode does.

use std::sync::Arc;

use adaptdb_common::{
    stable_hash_bytes, BlockId, CmpOp, ColumnVec, Error, Result, Row, Value, ValueRange, ValueType,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::block::{utf8_value, widen, Block, BlockMeta, Zone};

/// Magic prefix of a row-oriented (`ADB1`) encoded block.
pub const BLOCK_MAGIC: &[u8; 4] = b"ADB1";

/// Magic prefix of a columnar (`ADB2`) encoded block.
pub const BLOCK_MAGIC_V2: &[u8; 4] = b"ADB2";

/// Directory tag of a heterogeneous (`Mixed`) column in `ADB2`.
const COL_TAG_MIXED: u8 = 255;

/// The wire tag of a value (also the `ADB2` directory tag of a typed
/// column holding it).
fn value_tag(v: &Value) -> u8 {
    match v {
        Value::Int(_) => 0,
        Value::Double(_) => 1,
        Value::Str(_) => 2,
        Value::Date(_) => 3,
        Value::Bool(_) => 4,
    }
}

/// Append the encoding of one value.
pub fn encode_value(buf: &mut impl BufMut, v: &Value) {
    buf.put_u8(value_tag(v));
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

/// Append the encoding of one row.
pub fn encode_row(buf: &mut BytesMut, row: &Row) {
    buf.put_u16_le(row.arity() as u16);
    for v in row.values() {
        encode_value(buf, v);
    }
}

/// Decode one row, advancing `buf`.
pub fn decode_row(buf: &mut Bytes) -> Result<Row> {
    if buf.remaining() < 2 {
        return Err(Error::Codec("truncated row arity".into()));
    }
    let arity = buf.get_u16_le() as usize;
    // Cap the preallocation by what the buffer can possibly hold (the
    // smallest value is 2 bytes): a corrupt arity must fail with a
    // truncation error, not allocate first.
    let mut values = Vec::with_capacity(arity.min(buf.remaining() / 2));
    for _ in 0..arity {
        values.push(decode_value(buf)?);
    }
    Ok(Row::new(values))
}

/// Encode a whole block in the row-oriented `ADB1` format (the
/// fallback [`encode_block_columnar`] uses; the store never calls it
/// directly).
pub fn encode_block(block: &Block) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + block.rows.len() * 32);
    buf.put_slice(BLOCK_MAGIC);
    buf.put_u32_le(block.id);
    buf.put_u32_le(block.rows.len() as u32);
    for row in &block.rows {
        encode_row(&mut buf, row);
    }
    buf.freeze()
}

/// Decode a whole block in either format (dispatches on magic).
pub fn decode_block(buf: Bytes) -> Result<Block> {
    if buf.remaining() >= 4 && &buf[0..4] == BLOCK_MAGIC_V2 {
        return LazyBlock::parse(buf)?.into_block();
    }
    decode_block_v1(buf)
}

/// Decode a row-oriented `ADB1` block.
fn decode_block_v1(mut buf: Bytes) -> Result<Block> {
    if buf.remaining() < 12 {
        return Err(Error::Codec("truncated block header".into()));
    }
    let magic = buf.split_to(4);
    if magic.as_ref() != BLOCK_MAGIC {
        return Err(Error::Codec("bad block magic".into()));
    }
    let id = buf.get_u32_le();
    let row_count = buf.get_u32_le() as usize;
    // The count is untrusted: cap the preallocation by the bytes that
    // are actually present (a row encodes to ≥ 2 bytes), so a
    // bit-flipped header cannot demand gigabytes before the first
    // truncation error.
    let mut rows = Vec::with_capacity(row_count.min(buf.remaining() / 2));
    for _ in 0..row_count {
        rows.push(decode_row(&mut buf)?);
    }
    if buf.has_remaining() {
        return Err(Error::Codec(format!("{} trailing bytes after block", buf.remaining())));
    }
    Ok(Block::new(id, rows))
}

/// Skip one ADB1-encoded value without materializing it, advancing
/// `buf`, but rejecting exactly what [`decode_value`] rejects (a `Str`
/// is checked for UTF-8). Used to check `Mixed` payloads at parse and
/// to walk them past unselected cells.
fn skip_value(buf: &mut Bytes) -> Result<()> {
    if buf.remaining() < 1 {
        return Err(Error::Codec("truncated value tag".into()));
    }
    let tag = buf.get_u8();
    let fixed = match tag {
        0 | 1 => 8,
        3 => 4,
        4 => 1,
        2 => {
            if buf.remaining() < 4 {
                return Err(Error::Codec("truncated Str length".into()));
            }
            buf.get_u32_le() as usize
        }
        other => return Err(Error::Codec(format!("unknown value tag {other}"))),
    };
    if buf.remaining() < fixed {
        return Err(Error::Codec("truncated value payload".into()));
    }
    if tag == 2 {
        check_utf8(&buf[..fixed])?;
    }
    buf.advance(fixed);
    Ok(())
}

/// Encode a block columnar (`ADB2`), the format the store writes —
/// the bytes half of [`encode_block_with_meta`].
pub fn encode_block_columnar(block: &Block) -> Bytes {
    encode_block_with_meta(block, 0).0
}

/// Encode a block columnar (`ADB2`) and compute its [`BlockMeta`] for a
/// schema of `arity` columns in the same pass: one walk per column
/// writes the cells and widens that column's zone map, and the byte
/// size falls out of the payload lengths. Ragged row sets (mixed
/// arity) cannot be laid out column-major, and arity-0 rows have no
/// column to carry their count, so both fall back to whole-block
/// `ADB1` and [`Block::compute_meta`] — [`decode_block`] dispatches on
/// magic, making the fallback invisible to readers.
pub fn encode_block_with_meta(block: &Block, arity: usize) -> (Bytes, BlockMeta) {
    let rows = &block.rows;
    let cols = rows.first().map_or(0, Row::arity);
    if rows.iter().any(|r| r.arity() != cols) || (cols == 0 && !rows.is_empty()) {
        return (encode_block(block), block.compute_meta(arity));
    }
    write_columns(block.id, rows.len(), cols, arity, |a, sink| {
        for r in rows {
            sink.value(&r.values()[a]);
        }
    })
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
    write_columns(id, rows, cols, arity, |a, sink| {
        for (src, picked) in chunks {
            sink.gather(&src[a], picked);
        }
    })
}

/// Lay out an `ADB2` block of `rows` rows and `cols` columns, letting
/// `fill` push column `a`'s cells into its [`ColumnSink`], and build
/// the block's [`BlockMeta`] for `arity` schema columns alongside.
fn write_columns<'a>(
    id: BlockId,
    rows: usize,
    cols: usize,
    arity: usize,
    mut fill: impl FnMut(usize, &mut ColumnSink<'a>),
) -> (Bytes, BlockMeta) {
    let dir = 14;
    let mut buf = Vec::with_capacity(dir + cols * (5 + rows * 8));
    buf.put_slice(BLOCK_MAGIC_V2);
    buf.put_u32_le(id);
    buf.put_u32_le(rows as u32);
    buf.put_u16_le(cols as u16);
    // Directory entries are patched in as each payload is written.
    buf.resize(dir + cols * 5, 0);
    let mut ranges = Vec::with_capacity(arity);
    let mut byte_size = rows * 8;
    for a in 0..cols {
        let mut sink = ColumnSink { start: buf.len(), buf, zone: Zone::Empty, cells: 0 };
        fill(a, &mut sink);
        let tag = sink.tag();
        let len = sink.buf.len() - sink.start;
        buf = sink.buf;
        // A Mixed payload spends one tag byte per cell beyond the
        // cells' row-semantic size; typed payloads are exactly it.
        byte_size += if tag == COL_TAG_MIXED { len - sink.cells } else { len };
        let entry = dir + a * 5;
        buf[entry] = tag;
        buf[entry + 1..entry + 5].copy_from_slice(&(len as u32).to_le_bytes());
        if a < arity {
            ranges.push(sink.zone.into_range());
        }
    }
    ranges.resize(arity, ValueRange::empty());
    (Bytes::from(buf), BlockMeta { id, row_count: rows, byte_size, ranges })
}

/// One `ADB2` column being appended to a block buffer, together with
/// its zone map. Cells arrive one at a time, typed or as [`Value`]s;
/// while they share a type they are written as typed cells, and the
/// first cell of another type rewrites what is there as a `Mixed`
/// payload (each cell's `ADB1` value encoding is its tag byte followed
/// by exactly its typed bytes).
struct ColumnSink<'a> {
    buf: Vec<u8>,
    /// Where this column's payload starts in `buf`.
    start: usize,
    zone: Zone<'a>,
    cells: usize,
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
                $sink.buf.reserve($picked.len() * $w);
                for &i in $picked {
                    let c = cell::<$w>($p, i as usize);
                    widen(&mut l, &mut h, $decode(c), $cmp);
                    $sink.buf.extend_from_slice(&c);
                }
                (*lo, *hi) = (l, h);
                $sink.cells += $picked.len();
                true
            }
            _ => false,
        }
    }};
}

impl<'a> ColumnSink<'a> {
    /// Write one cell as typed bytes when it keeps the column uniform
    /// (`fits`), or as `Mixed` otherwise.
    #[inline]
    fn push(
        &mut self,
        fits: bool,
        write: impl FnOnce(&mut Vec<u8>),
        value: impl FnOnce() -> Value,
    ) {
        self.cells += 1;
        if fits {
            write(&mut self.buf);
        } else {
            self.mixed(&value());
        }
    }

    #[inline]
    fn int(&mut self, x: i64) {
        let fits = self.zone.int(x);
        self.push(fits, |b| b.put_i64_le(x), || Value::Int(x));
    }

    #[inline]
    fn double(&mut self, x: f64) {
        let fits = self.zone.double(x);
        self.push(fits, |b| b.put_u64_le(x.to_bits()), || Value::Double(x));
    }

    /// A `Str` cell given by its UTF-8 bytes.
    #[inline]
    fn str(&mut self, s: &'a [u8]) {
        let fits = self.zone.str(s);
        let write = |b: &mut Vec<u8>| {
            b.put_u32_le(s.len() as u32);
            b.put_slice(s);
        };
        self.push(fits, write, || utf8_value(s));
    }

    /// A `Str` cell in its encoded form — length prefix, then the UTF-8
    /// bytes — copied in one piece.
    #[inline]
    fn str_cell(&mut self, c: &'a [u8]) {
        let s = &c[4..];
        let fits = self.zone.str(s);
        self.push(fits, |b| b.put_slice(c), || utf8_value(s));
    }

    #[inline]
    fn date(&mut self, x: i32) {
        let fits = self.zone.date(x);
        self.push(fits, |b| b.put_i32_le(x), || Value::Date(x));
    }

    #[inline]
    fn bool(&mut self, x: bool) {
        let fits = self.zone.bool(x);
        self.push(fits, |b| b.put_u8(x as u8), || Value::Bool(x));
    }

    /// Append one cell of any type.
    #[inline]
    fn value(&mut self, v: &'a Value) {
        match v {
            Value::Int(x) => self.int(*x),
            Value::Double(x) => self.double(*x),
            Value::Str(s) => self.str(s.as_bytes()),
            Value::Date(x) => self.date(*x),
            Value::Bool(x) => self.bool(*x),
        }
    }

    /// Append the cells `picked` of a still-encoded column. The whole
    /// of a column that carries its stored zone map, gathered into an
    /// empty sink, is copied in one piece and the zone taken from the
    /// stored range. Otherwise, while the zone is empty or holds the
    /// column's type, a fixed-width column is widened and copied in one
    /// tight loop; anything else goes cell by cell.
    fn gather(&mut self, col: &'a RawColumn, picked: &[u32]) {
        let whole = self.cells == 0
            && picked.len() == col.rows
            && picked.first() == Some(&0)
            && picked.last() == Some(&(col.rows as u32 - 1));
        if whole && self.seed_zone(col) {
            self.buf.extend_from_slice(&col.payload);
            self.cells = col.rows;
            return;
        }
        let p: &'a [u8] = &col.payload;
        let done = match col.tag {
            0 => gather_fixed!(self, p, picked, Int, 8, i64::from_le_bytes, i64::cmp),
            1 => {
                let decode = |c| f64::from_bits(u64::from_le_bytes(c));
                gather_fixed!(self, p, picked, Double, 8, decode, f64::total_cmp)
            }
            3 => gather_fixed!(self, p, picked, Date, 4, i32::from_le_bytes, i32::cmp),
            _ => false,
        };
        if !done {
            for &i in picked {
                let (tag, c) = col.cell(i as usize);
                self.value_cell(tag, c);
            }
        }
    }

    /// Take an empty sink's zone from `col`'s stored range, when the
    /// column is typed (not `Bool`, whose bytes the cell path
    /// normalises) and the range's bounds are of its type.
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

    /// Append a cell given by its value tag and typed encoding
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

    /// The column's directory tag: the shared cell type, or `Mixed`.
    fn tag(&self) -> u8 {
        match self.zone {
            Zone::Empty | Zone::Mixed(_) => COL_TAG_MIXED,
            Zone::Int(..) => 0,
            Zone::Double(..) => 1,
            Zone::Str(..) => 2,
            Zone::Date(..) => 3,
            Zone::Bool(..) => 4,
        }
    }

    /// Append a cell whose type breaks the column's uniformity (or
    /// arrives after it broke), re-encoding the typed prefix as `Mixed`
    /// on the first such cell.
    #[cold]
    fn mixed(&mut self, v: &Value) {
        if !self.zone.is_mixed() {
            let tag = self.tag();
            let typed = self.buf.split_off(self.start);
            let mut p = &typed[..];
            while !p.is_empty() {
                let width = match tag {
                    0 | 1 => 8,
                    3 => 4,
                    4 => 1,
                    _ => 4 + u32::from_le_bytes(cell(p, 0)) as usize,
                };
                self.buf.push(tag);
                self.buf.extend_from_slice(&p[..width]);
                p = &p[width..];
            }
        }
        self.zone.demote().insert(v);
        encode_value(&mut self.buf, v);
    }
}

/// Location of one column's payload inside a lazy block, and what
/// parse found wrong with its cells, if anything.
#[derive(Debug, Clone)]
struct ColRegion {
    tag: u8,
    start: usize,
    end: usize,
    /// The error a full decode of this column would raise ([`check_cells`]),
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

/// Payload of a parsed block that has *not* (necessarily) been
/// decoded to rows yet.
///
/// `ADB1` blocks decode eagerly at parse time — the row format offers
/// no partial access, and eager decoding keeps error behavior
/// identical to the pre-columnar read path. `ADB2` blocks only
/// validate the header and column directory and check each
/// variable-width column's cells once; predicates evaluate on
/// the encoded columns ([`LazyBlock::filter_into`]), and individual
/// columns ([`LazyBlock::column`]) and selected row ranges
/// ([`LazyBlock::gather_range`]) decode on demand, which is what makes
/// late materialization (select on the predicate columns, then decode
/// only the selected rows) cheap.
#[derive(Debug, Clone)]
pub struct LazyBlock {
    id: u32,
    inner: LazyInner,
}

#[derive(Debug, Clone)]
enum LazyInner {
    /// Row-format payload, fully decoded at parse time.
    Rows(Vec<Row>),
    /// Columnar payload: validated (possibly memoized) directory over
    /// undecoded payload bytes.
    Columnar { dir: Arc<ColDirectory>, bytes: Bytes },
}

impl LazyBlock {
    /// Parse an encoded block in either format. `ADB2` headers and
    /// directories are validated here (bad magic, truncation, length
    /// mismatches, trailing bytes), and each variable-width column is
    /// walked once as a full decode would walk it: a column whose cells
    /// are misframed or not UTF-8 keeps its error, and every later read
    /// that touches the column returns it. `ADB1` payloads are fully
    /// decoded, so any codec error in either format still surfaces at
    /// parse time or at first access — never silently.
    pub fn parse(buf: Bytes) -> Result<LazyBlock> {
        LazyBlock::parse_with_directory(buf, None).map(|(lazy, _)| lazy)
    }

    /// Like [`LazyBlock::parse`], but reuse a memoized [`ColDirectory`]
    /// from an earlier parse of the *same* encoded block, skipping
    /// header and directory validation. Returns the freshly validated
    /// directory when the block is columnar and `memo` was not usable
    /// (so the caller can memoize it), `None` otherwise. A stale memo
    /// (encoded length mismatch) silently falls back to a full parse —
    /// correctness never depends on the memo.
    pub fn parse_with_directory(
        buf: Bytes,
        memo: Option<&Arc<ColDirectory>>,
    ) -> Result<(LazyBlock, Option<Arc<ColDirectory>>)> {
        if buf.remaining() >= 4 && &buf[0..4] == BLOCK_MAGIC_V2 {
            if let Some(dir) = memo {
                if buf.len() == dir.encoded_len {
                    let id = u32::from_le_bytes(buf[4..8].try_into().unwrap());
                    let bytes = buf.slice(dir.payload_offset..buf.len());
                    let inner = LazyInner::Columnar { dir: Arc::clone(dir), bytes };
                    return Ok((LazyBlock { id, inner }, None));
                }
            }
            let (lazy, dir) = LazyBlock::parse_columnar(buf)?;
            return Ok((lazy, Some(dir)));
        }
        let block = decode_block_v1(buf)?;
        Ok((LazyBlock { id: block.id, inner: LazyInner::Rows(block.rows) }, None))
    }

    fn parse_columnar(mut buf: Bytes) -> Result<(LazyBlock, Arc<ColDirectory>)> {
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
            // variable-width ones must at least hold every cell's
            // smallest encoding (a Str length, a tagged Bool), which
            // bounds the untrusted row count by the bytes present.
            let (width, exact) = match tag {
                0 | 1 => (8, true),
                3 => (4, true),
                4 => (1, true),
                2 => (4, false),
                COL_TAG_MIXED => (2, false),
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
        for c in &mut cols {
            c.fault = check_cells(c.tag, rows, buf.slice(c.start..c.end)).err().map(Box::new);
        }
        let dir = Arc::new(ColDirectory {
            rows,
            cols,
            payload_offset: encoded_len - buf.remaining(),
            encoded_len,
        });
        let lazy =
            LazyBlock { id, inner: LazyInner::Columnar { dir: Arc::clone(&dir), bytes: buf } };
        Ok((lazy, dir))
    }

    /// Block id carried in the encoding.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Number of rows in the block (known without decoding).
    pub fn row_count(&self) -> usize {
        match &self.inner {
            LazyInner::Rows(rows) => rows.len(),
            LazyInner::Columnar { dir, .. } => dir.rows,
        }
    }

    /// Number of columns. For row payloads this is the first row's
    /// arity (0 for an empty block) — columnar callers only see
    /// uniform-arity blocks, since ragged sets encode as `ADB1` *and*
    /// decode to the `Rows` variant.
    pub fn num_columns(&self) -> usize {
        match &self.inner {
            LazyInner::Rows(rows) => rows.first().map_or(0, Row::arity),
            LazyInner::Columnar { dir, .. } => dir.cols.len(),
        }
    }

    /// Decode a single column. For columnar payloads this touches only
    /// that column's bytes; for row payloads it projects the
    /// already-decoded rows (failing on ragged arity).
    pub fn column(&self, idx: usize) -> Result<ColumnVec> {
        match &self.inner {
            LazyInner::Rows(rows) => {
                let mut values = Vec::with_capacity(rows.len());
                for r in rows {
                    if idx >= r.arity() {
                        return Err(Error::Codec(format!(
                            "column {idx} out of range for arity-{} row",
                            r.arity()
                        )));
                    }
                    values.push(r.get(idx as adaptdb_common::AttrId).clone());
                }
                Ok(ColumnVec::from_values(values))
            }
            LazyInner::Columnar { dir, bytes } => match dir.cols.get(idx) {
                Some(col) => {
                    col.payload(bytes)?;
                    decode_column(col.tag, dir.rows, bytes.slice(col.start..col.end))
                }
                None => Err(Error::Codec(format!("column {idx} out of range"))),
            },
        }
    }

    /// AND `column idx <op> lit` into the running selection `sel` (one
    /// bit per row), in place — stage A of late materialisation.
    /// Bit-for-bit the selection `column(idx)?.eval(op, lit)` would
    /// give, and an error on exactly the blocks `column(idx)` rejects,
    /// but a typed `ADB2` column is read where it lies: fixed-width
    /// cells at the selected rows only (doubles by `total_cmp`), and
    /// `Str` cells as raw bytes against the literal's bytes (UTF-8 byte
    /// order is `str` order) — no `String` is built. A literal of another
    /// type compares by the fixed type rank, one answer for the whole
    /// column. `Mixed` columns and `ADB1` rows decode and evaluate.
    pub fn filter_into(
        &self,
        idx: usize,
        op: CmpOp,
        lit: &Value,
        sel: &mut adaptdb_common::BitSet,
    ) -> Result<()> {
        let n = self.row_count();
        assert_eq!(sel.len(), n, "selection width mismatch");
        let (p, tag) = match &self.inner {
            LazyInner::Columnar { dir, bytes } => match dir.cols.get(idx) {
                Some(c) if c.tag != COL_TAG_MIXED => (c.payload(bytes)?, c.tag),
                Some(_) => return self.filter_decoded(idx, op, lit, sel),
                None => return Err(Error::Codec(format!("column {idx} out of range"))),
            },
            LazyInner::Rows(_) => return self.filter_decoded(idx, op, lit, sel),
        };
        let ty = tag_type(tag);
        let same_type = ty == lit.value_type();
        match (tag, lit) {
            (2, _) => {
                let want = if let Value::Str(c) = lit { Some(c.as_bytes()) } else { None };
                let mut rest = p;
                for i in 0..n {
                    let s = str_frame(&mut rest)?;
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

    /// [`LazyBlock::filter_into`] for the payloads it does not read in
    /// place: decode the column, evaluate, intersect.
    fn filter_decoded(
        &self,
        idx: usize,
        op: CmpOp,
        lit: &Value,
        sel: &mut adaptdb_common::BitSet,
    ) -> Result<()> {
        sel.intersect_with(&self.column(idx)?.eval(op, lit));
        Ok(())
    }

    /// Materialize rows `start..end` whose bit is set in the
    /// block-wide selection `sel`, in ascending row order. Fixed-width
    /// columns seek directly to each selected cell; variable-width
    /// columns (Str, Mixed) skip-walk their payload, advancing past
    /// unselected cells without allocating. Any gather of a block with
    /// a faulty column fails with that column's error, so every gather
    /// rejects exactly the blocks a full decode does.
    pub fn gather_range(
        &self,
        start: usize,
        end: usize,
        sel: &adaptdb_common::BitSet,
    ) -> Result<Vec<Row>> {
        let n = self.row_count();
        assert!(start <= end && end <= n, "gather range {start}..{end} out of {n} rows");
        assert_eq!(sel.len(), n, "selection width mismatch");
        let picked: Vec<usize> = (start..end).filter(|&i| sel.get(i)).collect();
        match &self.inner {
            LazyInner::Rows(rows) => Ok(picked.iter().map(|&i| rows[i].clone()).collect()),
            LazyInner::Columnar { dir, bytes } => gather_columns(dir, bytes, &picked),
        }
    }

    /// Every column left encoded, for copying cells into other blocks
    /// ([`encode_gathered`]); `None` for a row-format (`ADB1`) payload.
    pub fn raw_columns(&self) -> Result<Option<Vec<RawColumn>>> {
        match &self.inner {
            LazyInner::Rows(_) => Ok(None),
            LazyInner::Columnar { dir, bytes } => dir
                .cols
                .iter()
                .map(|c| {
                    c.payload(bytes)?;
                    RawColumn::new(c.tag, dir.rows, bytes.slice(c.start..c.end))
                })
                .collect::<Result<_>>()
                .map(Some),
        }
    }

    /// Decode everything to a [`Block`] — the eager path, used by
    /// consumers that need whole rows (`ADB1` repartition sources, a
    /// reducer's build-spill fetch-back). `ADB2` payloads decode
    /// straight into rows, one copy per cell.
    pub fn into_block(self) -> Result<Block> {
        match self.inner {
            LazyInner::Rows(rows) => Ok(Block::new(self.id, rows)),
            LazyInner::Columnar { dir, bytes } => {
                let all: Vec<usize> = (0..dir.rows).collect();
                Ok(Block::new(self.id, gather_columns(&dir, &bytes, &all)?))
            }
        }
    }
}

/// One `ADB2` column left encoded: its directory tag, its payload, and
/// where each cell of a variable-width column starts. Copying cells
/// from it into another block ([`encode_gathered`]) moves bytes without
/// building values. Only columns that parse found sound are framed.
#[derive(Debug, Clone)]
pub struct RawColumn {
    tag: u8,
    rows: usize,
    payload: Bytes,
    /// Cell boundaries (`rows + 1` of them) of a `Str` or `Mixed`
    /// column; empty for fixed-width columns.
    bounds: Vec<u32>,
    /// The column's stored zone map entry, when the caller attached it
    /// ([`RawColumn::with_range`]).
    range: Option<ValueRange>,
}

impl RawColumn {
    fn new(tag: u8, rows: usize, payload: Bytes) -> Result<RawColumn> {
        let mut bounds = Vec::new();
        if tag == 2 {
            bounds.reserve(rows + 1);
            bounds.push(0);
            let mut p: &[u8] = &payload;
            for _ in 0..rows {
                str_frame(&mut p)?;
                bounds.push((payload.len() - p.len()) as u32);
            }
        } else if tag == COL_TAG_MIXED {
            bounds.reserve(rows + 1);
            bounds.push(0);
            let mut rest = payload.clone();
            for _ in 0..rows {
                skip_value(&mut rest)?;
                bounds.push((payload.len() - rest.len()) as u32);
            }
        }
        Ok(RawColumn { tag, rows, payload, bounds, range: None })
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

    /// Cell `i` as its value tag and typed encoding (a `Str` cell keeps
    /// its length prefix; a `Mixed` cell drops its tag byte).
    #[inline]
    fn cell(&self, i: usize) -> (u8, &[u8]) {
        let width = match self.tag {
            0 | 1 => 8,
            3 => 4,
            4 => 1,
            _ => {
                let c = &self.payload[self.bounds[i] as usize..self.bounds[i + 1] as usize];
                return if self.tag == 2 { (2, c) } else { (c[0], &c[1..]) };
            }
        };
        (self.tag, &self.payload[i * width..(i + 1) * width])
    }

    /// [`Value::stable_hash`] of cell `i`, hashed from its encoded
    /// bytes: no value (in particular no `String`) is built.
    #[inline]
    pub fn stable_hash(&self, i: usize) -> u64 {
        let (tag, c) = self.cell(i);
        match tag {
            2 => stable_hash_bytes(ValueType::Str, &c[4..]),
            4 => stable_hash_bytes(ValueType::Bool, &[(c[0] != 0) as u8]),
            t => stable_hash_bytes(tag_type(t), c),
        }
    }

    /// Cell `i` decoded to a [`Value`].
    pub fn value(&self, i: usize) -> Value {
        let (tag, c) = self.cell(i);
        match tag {
            0 => Value::Int(i64::from_le_bytes(fixed(c))),
            1 => Value::Double(f64::from_bits(u64::from_le_bytes(fixed(c)))),
            2 => utf8_value(&c[4..]),
            3 => Value::Date(i32::from_le_bytes(fixed(c))),
            _ => Value::Bool(c[0] != 0),
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

/// Walk a variable-width (`Str` or `Mixed`) payload of `rows` cells
/// the way a full decode would — each cell framed, each string UTF-8,
/// the payload used up exactly — building nothing. Parse runs it once
/// per column, so reads of a sound column need not repeat the checks.
fn check_cells(tag: u8, rows: usize, payload: Bytes) -> Result<()> {
    match tag {
        2 => {
            let mut p: &[u8] = &payload;
            for _ in 0..rows {
                check_utf8(str_frame(&mut p)?)?;
            }
            if !p.is_empty() {
                return Err(Error::Codec("trailing bytes after Str column".into()));
            }
        }
        COL_TAG_MIXED => {
            let mut p = payload;
            for _ in 0..rows {
                skip_value(&mut p)?;
            }
            if p.has_remaining() {
                return Err(Error::Codec("trailing bytes after Mixed column".into()));
            }
        }
        _ => {}
    }
    Ok(())
}

/// The cell type of a typed `ADB2` column tag.
fn tag_type(tag: u8) -> ValueType {
    match tag {
        0 => ValueType::Int,
        1 => ValueType::Double,
        2 => ValueType::Str,
        3 => ValueType::Date,
        _ => ValueType::Bool,
    }
}

/// The fixed-width cell at row `i` of a payload of `W`-byte cells
/// (lengths were validated against the row count at parse time).
#[inline]
fn cell<const W: usize>(payload: &[u8], i: usize) -> [u8; W] {
    payload[i * W..i * W + W].try_into().unwrap()
}

/// Rows at the ascending indices `picked` of a columnar payload,
/// decoded column by column straight into row vectors; a faulty column
/// fails the gather.
fn gather_columns(dir: &ColDirectory, bytes: &Bytes, picked: &[usize]) -> Result<Vec<Row>> {
    let mut out: Vec<Vec<Value>> =
        picked.iter().map(|_| Vec::with_capacity(dir.cols.len())).collect();
    for col in &dir.cols {
        col.payload(bytes)?;
    }
    // Variable-width payloads are walked up to the last picked cell.
    let end = picked.last().map_or(0, |&i| i + 1);
    for col in &dir.cols {
        let payload = &bytes[col.start..col.end];
        match col.tag {
            0 => {
                for (o, &i) in out.iter_mut().zip(picked) {
                    o.push(Value::Int(i64::from_le_bytes(cell(payload, i))));
                }
            }
            1 => {
                for (o, &i) in out.iter_mut().zip(picked) {
                    o.push(Value::Double(f64::from_bits(u64::from_le_bytes(cell(payload, i)))));
                }
            }
            3 => {
                for (o, &i) in out.iter_mut().zip(picked) {
                    o.push(Value::Date(i32::from_le_bytes(cell(payload, i))));
                }
            }
            4 => {
                for (o, &i) in out.iter_mut().zip(picked) {
                    o.push(Value::Bool(payload[i] != 0));
                }
            }
            2 => {
                let mut p = payload;
                let mut next = picked.iter().zip(out.iter_mut()).peekable();
                for i in 0..end {
                    let raw = str_frame(&mut p)?;
                    if let Some((_, o)) = next.next_if(|(k, _)| **k == i) {
                        o.push(Value::Str(utf8(raw)?.into()));
                    }
                }
            }
            COL_TAG_MIXED => {
                let mut p = bytes.slice(col.start..col.end);
                let mut next = picked.iter().zip(out.iter_mut()).peekable();
                for i in 0..end {
                    match next.next_if(|(k, _)| **k == i) {
                        Some((_, o)) => o.push(decode_value(&mut p)?),
                        None => skip_value(&mut p)?,
                    }
                }
            }
            other => return Err(Error::Codec(format!("unknown column tag {other}"))),
        }
    }
    Ok(out.into_iter().map(Row::new).collect())
}

/// Decode one full column payload (of a column parse found sound) into
/// a typed vector — the join-key columns of late materialization.
fn decode_column(tag: u8, rows: usize, bytes: Bytes) -> Result<ColumnVec> {
    let payload = &bytes[..];
    match tag {
        0 => Ok(ColumnVec::Int((0..rows).map(|i| i64::from_le_bytes(cell(payload, i))).collect())),
        1 => Ok(ColumnVec::Double(
            (0..rows).map(|i| f64::from_bits(u64::from_le_bytes(cell(payload, i)))).collect(),
        )),
        3 => Ok(ColumnVec::Date((0..rows).map(|i| i32::from_le_bytes(cell(payload, i))).collect())),
        4 => Ok(ColumnVec::Bool(payload.iter().map(|&b| b != 0).collect())),
        2 => {
            let mut p = payload;
            let mut v = Vec::with_capacity(rows);
            for _ in 0..rows {
                v.push(utf8(str_frame(&mut p)?)?.into());
            }
            Ok(ColumnVec::Str(v))
        }
        COL_TAG_MIXED => {
            let mut p = bytes;
            let mut v = Vec::with_capacity(rows);
            for _ in 0..rows {
                v.push(decode_value(&mut p)?);
            }
            Ok(ColumnVec::Mixed(v))
        }
        other => Err(Error::Codec(format!("unknown column tag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::row;

    fn round_trip(block: Block) {
        let enc = encode_block(&block);
        let dec = decode_block(enc).unwrap();
        assert_eq!(dec, block);
    }

    #[test]
    fn block_round_trip_all_types() {
        round_trip(Block::new(
            7,
            vec![
                row![1i64, 2.5, "hello", true],
                Row::new(vec![Value::Date(19000), Value::Str("".into())]),
            ],
        ));
    }

    #[test]
    fn empty_block_round_trip() {
        round_trip(Block::new(0, vec![]));
    }

    #[test]
    fn truncation_is_detected() {
        let enc = encode_block(&Block::new(1, vec![row![42i64]]));
        for cut in 1..enc.len() {
            let res = decode_block(enc.slice(0..cut));
            assert!(res.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut raw = BytesMut::new();
        raw.put_slice(b"NOPE");
        raw.put_u32_le(0);
        raw.put_u32_le(0);
        assert!(matches!(decode_block(raw.freeze()), Err(Error::Codec(_))));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let enc = encode_block(&Block::new(1, vec![]));
        let mut raw = BytesMut::from(enc.as_ref());
        raw.put_u8(0xFF);
        assert!(decode_block(raw.freeze()).is_err());
    }

    #[test]
    fn nan_double_round_trips_bitwise() {
        let block = Block::new(2, vec![Row::new(vec![Value::Double(f64::NAN)])]);
        let dec = decode_block(encode_block(&block)).unwrap();
        match dec.rows[0].get(0) {
            Value::Double(d) => assert!(d.is_nan()),
            other => panic!("expected Double, got {other:?}"),
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut raw = BytesMut::new();
        raw.put_u8(9);
        let mut b = raw.freeze();
        assert!(decode_value(&mut b).is_err());
    }

    fn round_trip_columnar(block: Block) {
        let enc = encode_block_columnar(&block);
        // Universal decoder accepts it regardless of which magic the
        // encoder chose (ragged sets fall back to ADB1).
        let dec = decode_block(enc.clone()).unwrap();
        assert_eq!(dec, block);
        // The lazy path agrees.
        let lazy = LazyBlock::parse(enc).unwrap();
        assert_eq!(lazy.id(), block.id);
        assert_eq!(lazy.row_count(), block.rows.len());
        assert_eq!(lazy.into_block().unwrap(), block);
    }

    #[test]
    fn columnar_round_trip_all_types() {
        round_trip_columnar(Block::new(
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
    fn columnar_round_trip_mixed_and_date() {
        // Heterogeneous column 0 → Mixed payload; column 1 stays typed.
        round_trip_columnar(Block::new(
            3,
            vec![
                Row::new(vec![Value::Int(1), Value::Date(100)]),
                Row::new(vec![Value::Str("x".into()), Value::Date(200)]),
            ],
        ));
    }

    #[test]
    fn columnar_empty_block_round_trip() {
        round_trip_columnar(Block::new(0, vec![]));
    }

    #[test]
    fn ragged_rows_fall_back_to_adb1() {
        let block = Block::new(5, vec![row![1i64], row![1i64, 2i64]]);
        let enc = encode_block_columnar(&block);
        assert_eq!(&enc[0..4], BLOCK_MAGIC, "ragged arity must use the row format");
        round_trip_columnar(block);
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
        // The ADB1 lazy path projects decoded rows identically.
        let lazy1 = LazyBlock::parse(encode_block(&block)).unwrap();
        assert_eq!(lazy1.column(0).unwrap(), ColumnVec::Int(vec![1, 2, 3]));
        assert_eq!(lazy1.num_columns(), 3);
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
        for enc in [encode_block(&block), encode_block_columnar(&block)] {
            let lazy = LazyBlock::parse(enc).unwrap();
            let sel = adaptdb_common::BitSet::from_indices(4, &[0, 2, 3]);
            // Full range.
            assert_eq!(
                lazy.gather_range(0, 4, &sel).unwrap(),
                vec![rows[0].clone(), rows[2].clone(), rows[3].clone()]
            );
            // Sub-ranges concatenate to the same output (morsel split).
            let mut pieces = lazy.gather_range(0, 2, &sel).unwrap();
            pieces.extend(lazy.gather_range(2, 4, &sel).unwrap());
            assert_eq!(pieces, lazy.gather_range(0, 4, &sel).unwrap());
            // Empty selection.
            let none = adaptdb_common::BitSet::new(4);
            assert!(lazy.gather_range(0, 4, &none).unwrap().is_empty());
        }
    }

    #[test]
    fn memoized_directory_parse_is_equivalent() {
        let block = Block::new(2, vec![row![1i64, "aa", 1.5], row![2i64, "bb", 2.5]]);
        let enc = encode_block_columnar(&block);
        let (first, dir) = LazyBlock::parse_with_directory(enc.clone(), None).unwrap();
        let dir = dir.expect("columnar parse yields a directory");
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
        // ADB1 blocks never produce (or consume) a directory.
        let (lazy1, none) =
            LazyBlock::parse_with_directory(encode_block(&block), Some(&dir)).unwrap();
        assert!(none.is_none());
        assert_eq!(lazy1.into_block().unwrap(), block);
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
    /// Date, Bool, Mixed), an empty block, and both `ADB1` fallbacks
    /// (ragged arity; arity 0 with rows).
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
                        Value::Int(3),
                    ]),
                    Row::new(vec![
                        Value::Int(-2),
                        Value::Double(f64::NAN),
                        Value::Str("h\u{e9}llo \u{2713}".into()),
                        Value::Date(19_000),
                        Value::Bool(false),
                        Value::Str("x".into()),
                    ]),
                    Row::new(vec![
                        Value::Int(i64::MAX),
                        Value::Double(1.5),
                        Value::Str("abc".into()),
                        Value::Date(0),
                        Value::Bool(true),
                        Value::Double(2.25),
                    ]),
                    Row::new(vec![
                        Value::Int(i64::MIN),
                        Value::Double(f64::INFINITY),
                        Value::Str("\u{1f600}".into()),
                        Value::Date(i32::MAX),
                        Value::Bool(false),
                        Value::Date(7),
                    ]),
                    Row::new(vec![
                        Value::Int(0),
                        Value::Double(-1e300),
                        Value::Str("z".into()),
                        Value::Date(1),
                        Value::Bool(true),
                        Value::Bool(true),
                    ]),
                ],
            ),
            Block::new(9, vec![]),
            Block::new(5, vec![row![1i64], row![2i64, "a"]]),
            Block::new(6, vec![Row::new(vec![]), Row::new(vec![])]),
        ]
    }
    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Durable journals store these bytes: the encoder must reproduce
    /// them exactly, and they must decode back to the same rows.
    #[test]
    fn adb2_wire_format_is_pinned() {
        const GOLDEN: [&str; 4] = [
            "414442320403020105000000060000280000000128000000022600000003140000000405000000ff1f0000000100000000000000feffffffffffffffffffffffffffff7f000000000000008000000000000000000000000000000080000000000000f87f000000000000f83f000000000000f07f9c7500883ce437fe000000000a00000068c3a96c6c6f20e29c930300000061626304000000f09f9880010000007afbffffff384a000000000000ffffff7f01000000010001000100030000000000000002010000007801000000000000024003070000000401",
            "4144423209000000000000000000",
            "41444231050000000200000001000001000000000000000200000200000000000000020100000061",
            "41444231060000000200000000000000",
        ];
        for (block, want) in golden_blocks().into_iter().zip(GOLDEN) {
            let enc = encode_block_columnar(&block);
            assert_eq!(hex(&enc), want, "block {} encoding drifted", block.id);
            assert_eq!(decode_block(enc).unwrap(), block);
        }
    }

    /// A variable-width region longer than its cells passes the
    /// directory check, but every decode path must reject it — the
    /// gather included.
    #[test]
    fn overlong_variable_width_column_is_rejected_by_every_path() {
        for last in [Value::Str("bb".into()), Value::Int(2)] {
            // Column 1 is Str when both cells are strings, Mixed otherwise.
            let block = Block::new(1, vec![row![1i64, "aa"], Row::new(vec![Value::Int(2), last])]);
            let enc = encode_block_columnar(&block);
            // Grow the last column's directory length by one and append
            // the extra byte at the end of its payload.
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
    }

    /// A `Str` cell that is not UTF-8 fails every read path, a gather
    /// that skips it included — whether the column is `Str` or `Mixed`.
    #[test]
    fn invalid_utf8_is_rejected_by_every_path() {
        for first in [Value::Str("aa".into()), Value::Int(7)] {
            let block = Block::new(1, vec![Row::new(vec![Value::Int(1), first]), row![2i64, "bb"]]);
            let mut raw = encode_block_columnar(&block).to_vec();
            let at = raw.len() - 2;
            raw[at..].copy_from_slice(&[0xFF, 0xFE]);
            let lazy = LazyBlock::parse(Bytes::from(raw)).unwrap();
            let first_only = adaptdb_common::BitSet::from_indices(2, &[0]);
            assert!(matches!(lazy.gather_range(0, 2, &first_only), Err(Error::Codec(_))));
            assert!(matches!(lazy.column(1), Err(Error::Codec(_))));
            assert!(matches!(lazy.raw_columns(), Err(Error::Codec(_))));
            let mut sel = first_only.clone();
            let lit = Value::Str("aa".into());
            assert!(matches!(lazy.filter_into(1, CmpOp::Eq, &lit, &mut sel), Err(Error::Codec(_))));
            assert!(matches!(lazy.into_block(), Err(Error::Codec(_))));
        }
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
            for enc in [encode_block_columnar(&block), encode_block(&block)] {
                check_filter_agrees(&LazyBlock::parse(enc.clone()).unwrap(), &mut rng);
                // Corrupt one payload byte (past the header): wherever
                // the damage lands, kernel and decode must agree on
                // rejecting it.
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
    }

    /// The encoder before the fused pass: each column written straight
    /// from the rows, restarting as `Mixed` on the first odd cell.
    fn reference_encode(block: &Block) -> Bytes {
        let rows = &block.rows;
        let arity = rows.first().map_or(0, Row::arity);
        if rows.iter().any(|r| r.arity() != arity) || (arity == 0 && !rows.is_empty()) {
            return encode_block(block);
        }
        let mut buf = Vec::new();
        buf.put_slice(BLOCK_MAGIC_V2);
        buf.put_u32_le(block.id);
        buf.put_u32_le(rows.len() as u32);
        buf.put_u16_le(arity as u16);
        buf.resize(14 + arity * 5, 0);
        for a in 0..arity {
            let start = buf.len();
            let first = value_tag(&rows[0].values()[a]);
            let uniform = rows.iter().all(|r| value_tag(&r.values()[a]) == first);
            for r in rows {
                let v = &r.values()[a];
                if uniform {
                    let mut one = Vec::new();
                    encode_value(&mut one, v);
                    buf.extend_from_slice(&one[1..]);
                } else {
                    encode_value(&mut buf, v);
                }
            }
            let len = (buf.len() - start) as u32;
            buf[14 + a * 5] = if uniform { first } else { COL_TAG_MIXED };
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

    /// A random cell of type `t` (0..5), or of a random type for 5.
    fn random_cell(rng: &mut impl RngExt, t: u32) -> Value {
        let t = if t == 5 { rng.random_range(0..5u32) } else { t };
        match t {
            0 => Value::Int(rng.random_range(-3..4i64)),
            1 => Value::Double(
                [-0.0, 0.0, f64::NAN, -f64::NAN, 1.5, -2.25, f64::INFINITY]
                    [rng.random_range(0..7usize)],
            ),
            2 => Value::Str(
                ["", "a", "ab", "h\u{e9}", "\u{1f600}x", "z"][rng.random_range(0..6usize)].into(),
            ),
            3 => Value::Date(rng.random_range(-2..3i32)),
            _ => Value::Bool(rng.random_range(0..2u32) == 1),
        }
    }

    /// A random block: typed and mixed columns over every cell type,
    /// sometimes empty, sometimes ragged.
    fn random_block(rng: &mut impl RngExt, id: u32) -> Block {
        let cols = rng.random_range(0..5usize);
        let types: Vec<u32> = (0..cols).map(|_| rng.random_range(0..6u32)).collect();
        let n = rng.random_range(0..12usize);
        let mut rows: Vec<Row> = (0..n)
            .map(|_| Row::new(types.iter().map(|&t| random_cell(rng, t)).collect()))
            .collect();
        if n > 1 && rng.random_range(0..8u32) == 0 {
            rows[n - 1] = Row::new(vec![Value::Int(1); cols + 1]);
        }
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

    /// Gathered blocks are byte-for-byte the encoding of their rows, and
    /// carry the same metadata — also when the first chunk is a whole
    /// block copied with its stored zone maps.
    #[test]
    fn gathered_encoding_equals_the_materialized_rows() {
        let mut rng = adaptdb_common::rng::seeded(12);
        for case in 0..1000u32 {
            let cols = rng.random_range(1..5usize);
            let types: Vec<u32> = (0..cols).map(|_| rng.random_range(0..6u32)).collect();
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
                    let raw = LazyBlock::parse(enc).unwrap().raw_columns().unwrap().unwrap();
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

    /// The encoded-cell hash equals `Value::stable_hash` cell for cell,
    /// for every column type (`Mixed` included), NaN and signed-zero
    /// doubles, and empty or multi-byte strings.
    #[test]
    fn raw_cell_hash_equals_value_hash() {
        let mut rng = adaptdb_common::rng::seeded(13);
        let mut tags = [0usize; 256];
        for case in 0..2000u32 {
            let block = random_block(&mut rng, case);
            let lazy = LazyBlock::parse(encode_block_columnar(&block)).unwrap();
            let Some(cols) = lazy.raw_columns().unwrap() else { continue };
            for (a, col) in cols.iter().enumerate() {
                tags[col.tag as usize] += 1;
                for (i, row) in block.rows.iter().enumerate() {
                    let v = row.get(a as adaptdb_common::AttrId);
                    assert_eq!(col.stable_hash(i), v.stable_hash(), "case {case} {v:?}");
                }
            }
        }
        for tag in [0, 1, 2, 3, 4, COL_TAG_MIXED] {
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
            let col = &lazy.raw_columns().unwrap().unwrap()[0];
            assert_eq!(col.stable_hash(0), v.stable_hash(), "{v:?}");
        }
        assert_ne!(Value::Double(0.0).stable_hash(), Value::Double(-0.0).stable_hash());
    }

    use adaptdb_common::{ColumnVec, Row, Value};
    use rand::RngExt;
}
