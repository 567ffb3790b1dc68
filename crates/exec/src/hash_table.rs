//! Join hash tables, and the build side every hash join probes.
//!
//! A [`JoinHashTable`] maps join keys to build-row ids ([`RowId`]) and
//! holds no rows. A `Build` pairs it with the sources its ids point
//! into: one `Vec<Row>` for builds over rows (intermediate results, a
//! reducer's budgeted chunks), or the build's still-encoded blocks.
//! The probe kernel emits (probe row, build id) pairs, never rows: a
//! join's rows are built once, when the query returns
//! ([`crate::Joined::into_rows`]), so a build row no probe row meets is
//! never decoded beyond its key cell.
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

use crate::joined::{RowId, Source};

/// The end of an id chain.
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
    ids: Vec<RowId>,
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
            t.insert(r.get(attr).key(), RowId { src: 0, row: i as u32 });
        }
        t
    }

    /// Room for `ids` more ids.
    fn reserve(&mut self, ids: usize) {
        self.ids.reserve(ids);
        self.next.reserve(ids);
    }

    /// Add `id` under `key`, after the ids already under it.
    pub fn insert(&mut self, key: KeyRef<'_>, id: RowId) {
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
    type Item = RowId;

    #[inline]
    fn next(&mut self) -> Option<RowId> {
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

/// A hash join's build side: a [`JoinHashTable`] over its keys and the
/// sources the table's ids point into.
pub(crate) struct Build {
    table: JoinHashTable,
    sources: Vec<Source>,
}

impl Build {
    /// A build over `rows` keyed on `attr`: one source.
    pub(crate) fn rows(rows: Vec<Row>, attr: AttrId) -> Build {
        Build { table: JoinHashTable::build(&rows, attr), sources: vec![Source::Rows(rows)] }
    }

    /// An empty build over encoded blocks ([`Build::add_block`]).
    pub(crate) fn blocks() -> Build {
        Build { table: JoinHashTable::new(), sources: Vec::new() }
    }

    /// Add the rows `sel` selects of `block`, keyed on column `attr`,
    /// from their encoded key cells. A block with a faulty column fails
    /// here, exactly as gathering its rows would.
    pub(crate) fn add_block(&mut self, block: LazyBlock, attr: AttrId, sel: &BitSet) -> Result<()> {
        block.check_columns()?;
        let src = self.sources.len() as u32;
        let table = &mut self.table;
        table.reserve(sel.count_ones());
        block.for_each_key(attr as usize, sel, |row, key| {
            table.insert(key, RowId { src, row: row as u32 })
        })?;
        self.sources.push(Source::Block(block));
        Ok(())
    }

    /// The build rows under `key`, in insertion order.
    pub(crate) fn probe(&self, key: KeyRef<'_>) -> Matches<'_> {
        self.table.probe(key)
    }

    /// The probe kernel over a still-encoded block, shared by the
    /// hyper-join probe leg and the shuffle reducers: the rows `sel`
    /// selects of `lazy` look their key cell in column `attr` up where
    /// it lies (no column decoded, no other cell touched), and `f(row,
    /// id)` is called for each build row `id` that probe row `row`
    /// matches, in ascending probe-row order. Nothing is gathered. The
    /// block's columns are checked even when nothing matches, so a
    /// block with a faulty column fails here exactly as a full decode
    /// would.
    pub(crate) fn probe_block(
        &self,
        lazy: &LazyBlock,
        attr: AttrId,
        sel: &BitSet,
        mut f: impl FnMut(u32, RowId),
    ) -> Result<()> {
        lazy.check_columns()?;
        let table = &self.table;
        lazy.for_each_key(attr as usize, sel, |i, key| {
            table.probe(key).for_each(|id| f(i as u32, id))
        })
    }

    /// The sources the build's ids point into.
    pub(crate) fn into_sources(self) -> Vec<Source> {
        self.sources
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Joined;
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
            t.insert(KeyRef::Int(key), RowId { src: i / 100, row: i });
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

    /// The block kernel looks up the selected rows' key cells where
    /// they lie and emits what one scalar `probe` per selected row
    /// finds, in row order; unselected rows never match.
    #[test]
    fn batch_probe_matches_scalar_probe() {
        let build = Build::rows(vec![row![1i64, "a"], row![2i64, "b"], row![1i64, "c"]], 0);
        let probe_rows: Vec<Row> = [0i64, 1, 2, 1].iter().map(|&k| row![k, k * 10]).collect();
        let lazy =
            LazyBlock::parse(encode_block_columnar(&Block::new(0, probe_rows.clone()))).unwrap();
        for picks in [vec![0, 1, 2, 3], vec![0, 2], vec![]] {
            let sel = BitSet::from_indices(4, &picks);
            let mut got = Vec::new();
            build.probe_block(&lazy, 0, &sel, |i, id| got.push((i, id))).unwrap();
            let mut want = Vec::new();
            for &i in &picks {
                want.extend(build.probe(probe_rows[i].get(0).key()).map(|id| (i as u32, id)));
            }
            assert_eq!(got, want, "picks {picks:?}");
        }
    }

    /// The rows of `probe ⋈ build`, probing with every row of `probe`.
    fn join(build: Build, probe: &LazyBlock, attr: AttrId) -> Vec<Row> {
        let mut ids = Vec::new();
        let sel = BitSet::all_set(probe.row_count());
        build
            .probe_block(probe, attr, &sel, |row, b| ids.extend([RowId { src: 0, row }, b]))
            .unwrap();
        let probe = vec![Source::Block(probe.clone())];
        Joined::binary(probe, build.into_sources(), ids, true).into_rows().unwrap()
    }

    /// A build over encoded blocks joins to what a build over the same
    /// rows joins to, and keeps its blocks encoded: only the rows a
    /// probe row matches are gathered, when the join's rows are built.
    #[test]
    fn encoded_build_equals_row_build_and_gathers_only_matches() {
        let build_rows: Vec<Vec<Row>> = (0..3i64)
            .map(|b| (0..8i64).map(|i| row![(b * 8 + i) % 10, format!("b{b}.{i}")]).collect())
            .collect();
        let probe_rows: Vec<Row> = (0..12i64).map(|i| row![format!("p{i}"), i % 5]).collect();
        let lazy = |rows: &[Row]| {
            LazyBlock::parse(encode_block_columnar(&Block::new(0, rows.to_vec()))).unwrap()
        };
        let mut by_blocks = Build::blocks();
        for rows in &build_rows {
            by_blocks.add_block(lazy(rows), 0, &BitSet::all_set(rows.len())).unwrap();
        }
        assert!(by_blocks.sources.iter().all(|s| matches!(s, Source::Block(_))));
        let probe = lazy(&probe_rows);
        let want = join(Build::rows(build_rows.concat(), 0), &probe, 1);
        // Probe keys 0..5 meet 3, 3, 3, 3 and 2 build rows.
        assert_eq!(want.len(), 3 * 3 + 3 * 3 + 2 * 3 + 2 * 3 + 2 * 2);
        assert_eq!(join(by_blocks, &probe, 1), want);
    }

    /// A probed block whose non-key column is corrupt fails the probe
    /// even when no probe row matches: the contract a full decode
    /// keeps.
    #[test]
    fn a_corrupt_probe_block_fails_even_when_nothing_matches() {
        let build = Build::rows(vec![row![1i64, "b"]], 0);
        let rows: Vec<Row> = (10..14i64).map(|k| row![k, format!("zz{k}")]).collect();
        let mut raw = encode_block_columnar(&Block::new(0, rows)).to_vec();
        let at = raw.windows(4).position(|w| w == b"zz11").unwrap();
        raw[at] = 0xFF;
        let lazy = LazyBlock::parse(raw.into()).unwrap();
        let mut out = Vec::new();
        let err = build.probe_block(&lazy, 0, &BitSet::all_set(4), |i, id| out.push((i, id)));
        assert!(matches!(err, Err(adaptdb_common::Error::Codec(_))), "{err:?}");
        assert!(out.is_empty());
    }
}
