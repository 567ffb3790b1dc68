//! Join hash tables, and the build side every hash join probes.
//!
//! A [`JoinHashTable`] maps join keys to build-row ids ([`BuildRow`])
//! and holds no rows. A `Build` pairs it with the rows its ids point
//! into: a `Vec<Row>` for builds over rows (intermediate results, a
//! reducer's budgeted chunks), or the build's still-encoded blocks,
//! whose rows are gathered only when a probe row first matches them.
//!
//! Keys are [`KeyRef`]s — a row's cell or an encoded cell read where
//! it lies — so building and probing from a block builds no value.
//! `Int`, `Date` and `Bool` keys hash with one multiply, `Str` and
//! `Double` keys through [`KeyRef::stable_hash`] first; the table is
//! open-addressed and indexed by the hash's top bits. A key's ids are
//! chained in insertion order through one shared vector, so no key
//! allocates, whether it is seen once or many times.

use adaptdb_common::{AttrId, BitSet, KeyRef, Result, Row};
use adaptdb_storage::LazyBlock;

/// Where a build row lives: row `row` of the build's block `block`, or
/// row `row` of the rows a build over rows keeps (`block` 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct BuildRow {
    /// The build block, in the order blocks were added.
    pub block: u32,
    /// The row within it.
    pub row: u32,
}

/// No id, no slot, no row gathered.
const NONE: u32 = u32::MAX;

/// A key as the table stores it; a `Str` key's bytes live in the
/// table's byte arena.
#[derive(Debug, Clone, Copy)]
enum Key {
    Int(i64),
    Double(u64),
    Str { start: u32, len: u32 },
    Date(i32),
    Bool(bool),
}

/// One distinct key: its hash, the key, and its chain of ids.
#[derive(Debug)]
struct Entry {
    hash: u64,
    key: Key,
    /// First and last id of the key's chain, and how many it holds.
    first: u32,
    last: u32,
    len: u32,
}

/// The table hash of a key: Fibonacci hashing of its integer, its
/// FNV-1a hash for `Str` and `Double` keys.
#[inline]
fn key_hash(key: KeyRef<'_>) -> u64 {
    const MIX: u64 = 0x9E37_79B9_7F4A_7C15;
    let x = match key {
        KeyRef::Int(v) => v as u64,
        KeyRef::Date(v) => v as u64,
        KeyRef::Bool(v) => v as u64,
        KeyRef::Double(_) | KeyRef::Str(_) => key.stable_hash(),
    };
    x.wrapping_mul(MIX)
}

/// A multimap from join keys to build-row ids, in insertion order per
/// key. It holds no rows: a `Build` resolves the ids.
#[derive(Debug, Default)]
pub struct JoinHashTable {
    /// Open addressing with linear probing: `0` is empty, else an entry
    /// index plus one. A power of two long and at most half full.
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: a hash's top bits pick its slot.
    shift: u32,
    entries: Vec<Entry>,
    /// Every id in insertion order, and the next id of the same key.
    ids: Vec<BuildRow>,
    next: Vec<u32>,
    /// The bytes of every `Str` key.
    strs: Vec<u8>,
}

impl JoinHashTable {
    /// An empty table.
    pub fn new() -> Self {
        JoinHashTable::default()
    }

    /// A table over `rows` keyed on `attr`: row `i` gets id `(0, i)`.
    pub fn build(rows: &[Row], attr: AttrId) -> Self {
        let mut t = JoinHashTable::new();
        t.reserve(rows.len());
        for (i, r) in rows.iter().enumerate() {
            t.insert(r.get(attr).key(), BuildRow { block: 0, row: i as u32 });
        }
        t
    }

    /// Room for `ids` more ids.
    fn reserve(&mut self, ids: usize) {
        self.ids.reserve(ids);
        self.next.reserve(ids);
    }

    /// Add `id` under `key`, after the ids already under it.
    pub fn insert(&mut self, key: KeyRef<'_>, id: BuildRow) {
        let at = self.ids.len() as u32;
        self.ids.push(id);
        self.next.push(NONE);
        let hash = key_hash(key);
        match self.lookup(key, hash) {
            Ok(e) => {
                let e = &mut self.entries[e as usize];
                self.next[e.last as usize] = at;
                e.last = at;
                e.len += 1;
            }
            Err(slot) => {
                let key = match key {
                    KeyRef::Int(v) => Key::Int(v),
                    KeyRef::Double(bits) => Key::Double(bits),
                    KeyRef::Date(v) => Key::Date(v),
                    KeyRef::Bool(v) => Key::Bool(v),
                    KeyRef::Str(s) => {
                        let start = self.strs.len() as u32;
                        self.strs.extend_from_slice(s);
                        Key::Str { start, len: s.len() as u32 }
                    }
                };
                self.entries.push(Entry { hash, key, first: at, last: at, len: 1 });
                self.slots[slot] = self.entries.len() as u32;
                if 2 * self.entries.len() > self.slots.len() {
                    self.grow();
                }
            }
        }
    }

    /// The entry holding `key`, or the empty slot it would take.
    #[inline]
    fn lookup(&mut self, key: KeyRef<'_>, hash: u64) -> std::result::Result<u32, usize> {
        if self.slots.is_empty() {
            self.grow();
        }
        self.find_hashed(key, hash)
    }

    #[inline]
    fn find_hashed(&self, key: KeyRef<'_>, hash: u64) -> std::result::Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = (hash >> self.shift) as usize;
        loop {
            match self.slots[i] {
                0 => return Err(i),
                s => {
                    let e = &self.entries[s as usize - 1];
                    if e.hash == hash && self.key_is(e.key, key) {
                        return Ok(s - 1);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Whether the stored `stored` is `key`.
    #[inline]
    fn key_is(&self, stored: Key, key: KeyRef<'_>) -> bool {
        match (stored, key) {
            (Key::Int(a), KeyRef::Int(b)) => a == b,
            (Key::Double(a), KeyRef::Double(b)) => a == b,
            (Key::Date(a), KeyRef::Date(b)) => a == b,
            (Key::Bool(a), KeyRef::Bool(b)) => a == b,
            (Key::Str { start, len }, KeyRef::Str(b)) => {
                &self.strs[start as usize..(start + len) as usize] == b
            }
            _ => false,
        }
    }

    /// Double the slots (16 to start with) and re-place every entry.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(16);
        self.shift = 64 - len.trailing_zeros();
        self.slots.clear();
        self.slots.resize(len, 0);
        let mask = len - 1;
        for (n, e) in self.entries.iter().enumerate() {
            let mut i = (e.hash >> self.shift) as usize;
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = n as u32 + 1;
        }
    }

    /// The entry holding `key`, if any.
    #[inline]
    fn find(&self, key: KeyRef<'_>) -> Option<u32> {
        if self.entries.is_empty() {
            return None;
        }
        self.find_hashed(key, key_hash(key)).ok()
    }

    /// The ids of entry `e`, in insertion order.
    fn chain(&self, e: u32) -> Matches<'_> {
        let e = &self.entries[e as usize];
        Matches { table: self, at: e.first, left: e.len as usize }
    }

    /// The ids under `key`, in insertion order.
    pub fn probe(&self, key: KeyRef<'_>) -> Matches<'_> {
        match self.find(key) {
            Some(e) => self.chain(e),
            None => Matches { table: self, at: NONE, left: 0 },
        }
    }

    /// Number of ids stored.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no ids are stored.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// The ids under one key, in insertion order ([`JoinHashTable::probe`]).
#[derive(Debug)]
pub struct Matches<'t> {
    table: &'t JoinHashTable,
    at: u32,
    left: usize,
}

impl Iterator for Matches<'_> {
    type Item = BuildRow;

    #[inline]
    fn next(&mut self) -> Option<BuildRow> {
        if self.left == 0 {
            return None;
        }
        let id = self.table.ids[self.at as usize];
        self.at = self.table.next[self.at as usize];
        self.left -= 1;
        Some(id)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Matches<'_> {}

/// The rows a build's ids point into.
enum Rows {
    /// A build over rows: an id's `row` indexes them.
    Rows(Vec<Row>),
    /// A build over encoded blocks.
    Blocks(Blocks),
}

/// A build's still-encoded blocks and the rows gathered from them so
/// far.
#[derive(Default)]
struct Blocks {
    blocks: Vec<LazyBlock>,
    /// Where each block's rows start in `slot`.
    starts: Vec<u32>,
    /// Per build row: its index in `gathered`, or [`NONE`] until a probe
    /// row first matches it.
    slot: Vec<u32>,
    gathered: Vec<Row>,
    /// Scratch: matched rows not gathered yet.
    wanted: Vec<BuildRow>,
}

/// A build row matched and listed in `Blocks::wanted`.
const WANTED: u32 = NONE - 1;

impl Blocks {
    /// Gather every row under the table entries `hits` that is not yet
    /// gathered: each once, one gather per block, in ascending row
    /// order.
    fn gather(&mut self, table: &JoinHashTable, hits: impl Iterator<Item = u32>) -> Result<()> {
        for e in hits {
            for id in table.chain(e) {
                let s = &mut self.slot[(self.starts[id.block as usize] + id.row) as usize];
                if *s == NONE {
                    *s = WANTED;
                    self.wanted.push(id);
                }
            }
        }
        if self.wanted.is_empty() {
            return Ok(());
        }
        self.wanted.sort_unstable();
        for ids in self.wanted.chunk_by(|a, b| a.block == b.block) {
            let block = ids[0].block as usize;
            let rows =
                self.blocks[block].gather_with_spare(ids.iter().map(|id| id.row as usize), 0)?;
            for (id, row) in ids.iter().zip(rows) {
                let at = (self.starts[block] + id.row) as usize;
                self.slot[at] = self.gathered.len() as u32;
                self.gathered.push(row);
            }
        }
        self.wanted.clear();
        Ok(())
    }
}

/// A hash join's build side: a [`JoinHashTable`] over its keys and the
/// rows the table's ids point into. A build over encoded blocks gathers
/// a build row only when a probe row first matches it, so build rows
/// that match nothing are never decoded beyond their key cell.
pub(crate) struct Build {
    table: JoinHashTable,
    rows: Rows,
}

impl Build {
    /// A build over `rows` keyed on `attr`.
    pub(crate) fn rows(rows: Vec<Row>, attr: AttrId) -> Build {
        Build { table: JoinHashTable::build(&rows, attr), rows: Rows::Rows(rows) }
    }

    /// An empty build over encoded blocks ([`Build::add_block`]).
    pub(crate) fn blocks() -> Build {
        Build { table: JoinHashTable::new(), rows: Rows::Blocks(Blocks::default()) }
    }

    /// Add the rows `sel` selects of `block`, keyed on column `attr`,
    /// from their encoded key cells. A block with a faulty column fails
    /// here, exactly as gathering its rows would.
    pub(crate) fn add_block(&mut self, block: LazyBlock, attr: AttrId, sel: &BitSet) -> Result<()> {
        let Rows::Blocks(b) = &mut self.rows else { unreachable!("a row build takes no blocks") };
        block.check_columns()?;
        let n = b.blocks.len() as u32;
        let table = &mut self.table;
        table.reserve(sel.count_ones());
        block.for_each_key(attr as usize, sel, |row, key| {
            table.insert(key, BuildRow { block: n, row: row as u32 })
        })?;
        b.starts.push(b.slot.len() as u32);
        b.slot.resize(b.slot.len() + block.row_count(), NONE);
        b.blocks.push(block);
        Ok(())
    }

    /// Gather the build rows under the table entries `hits` that are
    /// not gathered yet.
    fn gather(&mut self, hits: impl Iterator<Item = u32>) -> Result<()> {
        match &mut self.rows {
            Rows::Rows(_) => Ok(()),
            Rows::Blocks(b) => b.gather(&self.table, hits),
        }
    }

    /// The rows under table entry `e` (gathered), in insertion order.
    fn matches(&self, e: u32) -> impl ExactSizeIterator<Item = &Row> {
        self.table.chain(e).map(move |id| match &self.rows {
            Rows::Rows(rows) => &rows[id.row as usize],
            Rows::Blocks(b) => {
                let at = b.slot[(b.starts[id.block as usize] + id.row) as usize];
                &b.gathered[at as usize]
            }
        })
    }

    /// The probe kernel over a still-encoded block, shared by the
    /// hyper-join probe leg and the shuffle reducers: the rows `sel`
    /// selects of `lazy` look their key cell in column `attr` up where
    /// it lies (no column decoded, no other cell touched), the build
    /// rows they match are gathered if not yet, only the probe rows
    /// that hit are gathered — at the output width — and `probe ⋈ m`
    /// is pushed for each match in ascending probe-row order (see
    /// [`join_into`]; probe columns first when `probe_left`). A block
    /// that matches nothing costs its key cells and no row. The probe
    /// gather runs even then, so a block with a faulty column fails
    /// here exactly as a full decode would.
    pub(crate) fn probe_block(
        &mut self,
        out: &mut Vec<Row>,
        lazy: &LazyBlock,
        attr: AttrId,
        sel: &BitSet,
        probe_left: bool,
    ) -> Result<()> {
        let mut hits: Vec<(u32, u32)> = Vec::new();
        let table = &self.table;
        lazy.for_each_key(attr as usize, sel, |i, key| {
            if let Some(e) = table.find(key) {
                // One allocation at most: on the first hit, room for
                // every selected row; a block that misses allocates
                // nothing.
                if hits.capacity() == 0 {
                    hits.reserve_exact(sel.count_ones());
                }
                hits.push((i as u32, e));
            }
        })?;
        self.gather(hits.iter().map(|&(_, e)| e))?;
        // Probe rows are gathered at the output width.
        let spare = hits.first().map_or(0, |&(_, e)| self.matches(e).next().map_or(0, Row::arity));
        let rows = lazy.gather_with_spare(hits.iter().map(|&(i, _)| i as usize), spare)?;
        out.reserve(hits.iter().map(|&(_, e)| self.table.entries[e as usize].len as usize).sum());
        for (&(_, e), row) in hits.iter().zip(rows) {
            join_into(out, row, self.matches(e), probe_left);
        }
        Ok(())
    }

    /// The table entries the rows' keys in column `attr` hit, one per
    /// row ([`NONE`] for a miss), with their build rows gathered.
    fn resolve(&mut self, rows: &[Row], attr: AttrId) -> Result<Vec<u32>> {
        let hits: Vec<u32> =
            rows.iter().map(|r| self.table.find(r.get(attr).key()).unwrap_or(NONE)).collect();
        self.gather(hits.iter().copied().filter(|&e| e != NONE))?;
        Ok(hits)
    }

    /// Probe with owned rows on key `attr`, in order, moving each into
    /// its last match (see [`join_into`]).
    pub(crate) fn probe_rows(
        &mut self,
        out: &mut Vec<Row>,
        rows: Vec<Row>,
        attr: AttrId,
        probe_left: bool,
    ) -> Result<()> {
        let hits = self.resolve(&rows, attr)?;
        for (row, e) in rows.into_iter().zip(hits) {
            if e != NONE {
                join_into(out, row, self.matches(e), probe_left);
            }
        }
        Ok(())
    }

    /// Probe with rows the caller keeps on key `attr`, in order: each
    /// output row is one fresh row.
    pub(crate) fn probe_rows_ref(
        &mut self,
        out: &mut Vec<Row>,
        rows: &[Row],
        attr: AttrId,
        probe_left: bool,
    ) -> Result<()> {
        let hits = self.resolve(rows, attr)?;
        for (row, e) in rows.iter().zip(hits) {
            if e != NONE {
                for m in self.matches(e) {
                    out.push(joined(row, m, probe_left));
                }
            }
        }
        Ok(())
    }
}

/// `probe ⋈ m` as a fresh row at exactly the output width — probe
/// columns first when `probe_left`.
fn joined(probe: &Row, m: &Row, probe_left: bool) -> Row {
    if probe_left {
        probe.concat(m)
    } else {
        m.concat(probe)
    }
}

/// Push `probe ⋈ m` for every build row `m` of `matches`, in order —
/// probe columns first when `probe_left` — moving the probe row into
/// the last output and copying it only for the earlier ones. A probe
/// row gathered with room for the build cells
/// ([`LazyBlock::gather_with_spare`]) takes them in place, so every
/// output row costs one allocation.
fn join_into<'m>(
    out: &mut Vec<Row>,
    probe: Row,
    matches: impl ExactSizeIterator<Item = &'m Row>,
    probe_left: bool,
) {
    let mut left = matches.len();
    for m in matches {
        left -= 1;
        if left == 0 {
            out.push(if probe_left { probe.append(m) } else { probe.prepend(m) });
            return;
        }
        out.push(joined(&probe, m, probe_left));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::{row, Value};
    use adaptdb_storage::codec::encode_block_columnar;
    use adaptdb_storage::Block;

    fn ids(m: Matches<'_>) -> Vec<u32> {
        m.map(|id| id.row).collect()
    }

    #[test]
    fn build_and_probe() {
        let t = JoinHashTable::build(&[row![1i64, "a"], row![2i64, "b"], row![1i64, "c"]], 0);
        assert_eq!(t.len(), 3);
        assert_eq!(ids(t.probe(Value::Int(1).key())), [0, 2]);
        assert_eq!(ids(t.probe(Value::Int(2).key())), [1]);
        assert_eq!(t.probe(Value::Int(9).key()).len(), 0);
        // Keys of another type never match.
        assert_eq!(t.probe(Value::Date(1).key()).len(), 0);
    }

    #[test]
    fn string_keys_work() {
        let long = "a key longer than twenty-two bytes";
        let t = JoinHashTable::build(&[row!["x", 1i64], row![long, 2i64], row!["", 3i64]], 0);
        assert_eq!(ids(t.probe(Value::Str("x".into()).key())), [0]);
        assert_eq!(ids(t.probe(Value::Str(long.into()).key())), [1]);
        assert_eq!(ids(t.probe(Value::Str("".into()).key())), [2]);
        assert_eq!(t.probe(Value::Str("y".into()).key()).len(), 0);
    }

    #[test]
    fn empty_table() {
        let t = JoinHashTable::new();
        assert!(t.is_empty());
        assert_eq!(t.probe(Value::Int(0).key()).len(), 0);
    }

    /// Ids stay in insertion order per key through every growth of the
    /// slots, for keys seen once and keys seen many times.
    #[test]
    fn buckets_keep_insertion_order_per_key() {
        let mut t = JoinHashTable::new();
        for i in 0..1000u32 {
            let key = if i % 2 == 0 { i as i64 } else { -((i % 7) as i64) - 1 };
            t.insert(KeyRef::Int(key), BuildRow { block: i / 100, row: i });
        }
        assert_eq!(t.len(), 1000);
        for i in (0..1000u32).step_by(2) {
            assert_eq!(ids(t.probe(KeyRef::Int(i as i64))), [i]);
        }
        for k in 0..7u32 {
            let want: Vec<u32> = (0..1000u32).filter(|i| i % 2 == 1 && i % 7 == k).collect();
            assert_eq!(ids(t.probe(KeyRef::Int(-(k as i64) - 1))), want, "key {k}");
        }
    }

    /// Keys spaced by a power of two hash apart: the table's top-bit
    /// index does not cluster them.
    #[test]
    fn strided_int_keys_stay_findable() {
        let rows: Vec<Row> = (0..4096i64).map(|i| row![i << 20]).collect();
        let t = JoinHashTable::build(&rows, 0);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(ids(t.probe(r.get(0).key())), [i as u32]);
        }
    }

    #[test]
    fn join_into_moves_the_probe_into_its_last_match() {
        let matches = [row![1i64, "a"], row![1i64, "b"], row![1i64, "c"]];
        let probe = row!["p", 1i64];
        for n in 0..=matches.len() {
            for probe_left in [true, false] {
                let mut out = Vec::new();
                join_into(&mut out, probe.clone(), matches[..n].iter(), probe_left);
                let want: Vec<Row> = matches[..n]
                    .iter()
                    .map(|m| if probe_left { probe.concat(m) } else { m.concat(&probe) })
                    .collect();
                assert_eq!(out, want, "n={n} probe_left={probe_left}");
            }
        }
    }

    /// The block kernel looks up the selected rows' key cells where
    /// they lie and emits what one scalar `probe` per selected row
    /// finds, in row order; unselected rows never match.
    #[test]
    fn batch_probe_matches_scalar_probe() {
        let build_rows = vec![row![1i64, "a"], row![2i64, "b"], row![1i64, "c"]];
        let mut build = Build::rows(build_rows.clone(), 0);
        let probe_rows: Vec<Row> = [0i64, 1, 2, 1].iter().map(|&k| row![k, k * 10]).collect();
        let lazy =
            LazyBlock::parse(encode_block_columnar(&Block::new(0, probe_rows.clone()))).unwrap();
        for picks in [vec![0, 1, 2, 3], vec![0, 2], vec![]] {
            let sel = BitSet::from_indices(4, &picks);
            let mut got = Vec::new();
            build.probe_block(&mut got, &lazy, 0, &sel, true).unwrap();
            let mut want = Vec::new();
            for &i in &picks {
                let p = &probe_rows[i];
                for id in build.table.probe(p.get(0).key()) {
                    want.push(p.concat(&build_rows[id.row as usize]));
                }
            }
            assert_eq!(got, want, "picks {picks:?}");
        }
    }

    /// A build over encoded blocks returns what a build over the same
    /// rows returns, probed by blocks and by rows, and gathers only the
    /// build rows that match.
    #[test]
    fn encoded_build_equals_row_build_and_gathers_only_matches() {
        let build_rows: Vec<Vec<Row>> = (0..3i64)
            .map(|b| (0..8i64).map(|i| row![(b * 8 + i) % 10, format!("b{b}.{i}")]).collect())
            .collect();
        let probe_rows: Vec<Row> = (0..12i64).map(|i| row![format!("p{i}"), i % 5]).collect();
        let lazy = |rows: &[Row]| {
            LazyBlock::parse(encode_block_columnar(&Block::new(0, rows.to_vec()))).unwrap()
        };
        let sel = |n: usize| BitSet::all_set(n);
        let mut by_rows = Build::rows(build_rows.concat(), 0);
        let mut by_blocks = Build::blocks();
        for rows in &build_rows {
            by_blocks.add_block(lazy(rows), 0, &sel(rows.len())).unwrap();
        }
        let probe = lazy(&probe_rows);
        let mut want = Vec::new();
        by_rows.probe_block(&mut want, &probe, 1, &sel(12), true).unwrap();
        let mut got = Vec::new();
        by_blocks.probe_block(&mut got, &probe, 1, &sel(12), true).unwrap();
        assert_eq!(got, want);
        // Probe keys 0..5 meet 3, 3, 3, 3 and 2 build rows.
        assert_eq!(want.len(), 3 * 3 + 3 * 3 + 2 * 3 + 2 * 3 + 2 * 2);
        let Rows::Blocks(b) = &by_blocks.rows else { unreachable!() };
        assert_eq!(b.gathered.len(), 3 + 3 + 3 + 3 + 2, "only matched build rows are gathered");
        let (mut want, mut got) = (Vec::new(), Vec::new());
        by_rows.probe_rows(&mut want, probe_rows.clone(), 1, false).unwrap();
        by_blocks.probe_rows_ref(&mut got, &probe_rows, 1, false).unwrap();
        assert_eq!(got, want);
    }
}
