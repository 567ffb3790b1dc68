//! Join hash tables, and the probe kernel both hash joins stream their
//! probe side through (`probe_block`).
//!
//! Keys are [`Value`]s; hashing goes through [`Value::stable_hash`] with a
//! pass-through `Hasher` (the value hash is already well-mixed FNV-1a),
//! following the perf-book guidance to avoid SipHash for hot integer-keyed
//! tables while keeping runs reproducible.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use adaptdb_common::{AttrId, BitSet, ColumnVec, Result, Row, Value};
use adaptdb_storage::LazyBlock;

/// A `Hasher` that passes through the 64-bit value written into it.
#[derive(Default)]
pub struct PassThroughHasher(u64);

impl Hasher for PassThroughHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 writes (not used by Value's Hash impl).
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ b as u64;
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

type Build = BuildHasherDefault<PassThroughHasher>;

/// The rows of one key: a key seen once (the common case on a join's
/// unique side) keeps its row inline, and only a second row moves the
/// bucket onto the heap.
#[derive(Debug)]
enum Bucket {
    One(Row),
    Many(Vec<Row>),
}

impl Bucket {
    fn rows(&self) -> &[Row] {
        match self {
            Bucket::One(row) => std::slice::from_ref(row),
            Bucket::Many(rows) => rows,
        }
    }

    fn push(&mut self, row: Row) {
        match self {
            Bucket::Many(rows) => rows.push(row),
            Bucket::One(first) => {
                let first = std::mem::replace(first, Row::new(Vec::new()));
                *self = Bucket::Many(vec![first, row]);
            }
        }
    }
}

/// A multimap from join-key values to rows, in insertion order per key.
#[derive(Debug, Default)]
pub struct JoinHashTable {
    map: HashMap<Value, Bucket, Build>,
    rows: usize,
}

impl JoinHashTable {
    /// An empty table.
    pub fn new() -> Self {
        JoinHashTable { map: HashMap::default(), rows: 0 }
    }

    /// Build from rows keyed on `attr`.
    pub fn build(rows: impl IntoIterator<Item = Row>, attr: AttrId) -> Self {
        let mut t = JoinHashTable::new();
        for r in rows {
            t.insert(attr, r);
        }
        t
    }

    /// Insert one row keyed on `attr`.
    pub fn insert(&mut self, attr: AttrId, row: Row) {
        self.rows += 1;
        match self.map.entry(row.get(attr).clone()) {
            Entry::Occupied(mut bucket) => bucket.get_mut().push(row),
            Entry::Vacant(slot) => {
                slot.insert(Bucket::One(row));
            }
        }
    }

    /// Rows whose key equals `key`.
    pub fn probe(&self, key: &Value) -> &[Row] {
        self.map.get(key).map_or(&[], Bucket::rows)
    }

    /// Probe a whole key column in one call: for every index set in
    /// `sel`, look up that key and return `(row_index, matching build
    /// rows)` for the indices that hit, in ascending index order. This
    /// is `probe_block`'s lookup — the caller materializes probe rows
    /// only for the returned indices (late materialization), in probe-row
    /// order.
    ///
    /// `sel` must be as wide as `keys`.
    pub fn probe_batch<'t>(&'t self, keys: &ColumnVec, sel: &BitSet) -> Vec<(usize, &'t [Row])> {
        assert_eq!(sel.len(), keys.len(), "selection width must match key column");
        let mut out = Vec::new();
        for i in sel.iter_ones() {
            let hits = self.probe(&keys.value_at(i));
            if !hits.is_empty() {
                // One allocation at most: on the first hit, room for
                // every selected row; a column that misses allocates
                // nothing.
                if out.capacity() == 0 {
                    out.reserve_exact(sel.count_ones());
                }
                out.push((i, hits));
            }
        }
        out
    }

    /// Number of rows stored.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
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
pub(crate) fn join_into(out: &mut Vec<Row>, probe: Row, matches: &[Row], probe_left: bool) {
    let Some((last, rest)) = matches.split_last() else { return };
    for m in rest {
        out.push(joined(&probe, m, probe_left));
    }
    out.push(if probe_left { probe.append(last) } else { probe.prepend(last) });
}

/// Push `probe ⋈ m` for every build row `m` of `matches` of a probe row
/// the caller keeps: each output row is one fresh row.
pub(crate) fn join_ref_into(out: &mut Vec<Row>, probe: &Row, matches: &[Row], probe_left: bool) {
    for m in matches {
        out.push(joined(probe, m, probe_left));
    }
}

/// The one probe kernel over still-encoded blocks, shared by the
/// hyper-join probe leg and the shuffle reducers: the rows `sel`
/// selects of `lazy` probe `table` on key column `attr` (decoded alone,
/// no other cell touched), only the rows that hit are gathered, and
/// `probe ⋈ m` is pushed for each match in ascending row order (see
/// [`join_into`]; probe columns first when `probe_left`). A run that
/// matches nothing costs its key column and no row. The gather runs
/// even then, so a block with a faulty column fails here exactly as a
/// full decode would.
pub(crate) fn probe_block(
    out: &mut Vec<Row>,
    table: &JoinHashTable,
    lazy: &LazyBlock,
    attr: AttrId,
    sel: &BitSet,
    probe_left: bool,
) -> Result<()> {
    let keys = lazy.column(attr as usize)?;
    let hits = table.probe_batch(&keys, sel);
    // Probe rows are gathered at the output width.
    let spare = hits.first().map_or(0, |(_, m)| m[0].arity());
    let rows = lazy.gather_with_spare(hits.iter().map(|&(i, _)| i), spare)?;
    out.reserve(hits.iter().map(|(_, m)| m.len()).sum());
    debug_assert_eq!(rows.len(), hits.len());
    for ((_, build_rows), row) in hits.iter().zip(rows) {
        join_into(out, row, build_rows, probe_left);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::{row, ValueType};

    #[test]
    fn build_and_probe() {
        let t = JoinHashTable::build(vec![row![1i64, "a"], row![2i64, "b"], row![1i64, "c"]], 0);
        assert_eq!(t.len(), 3);
        assert_eq!(t.probe(&Value::Int(1)).len(), 2);
        assert_eq!(t.probe(&Value::Int(2)).len(), 1);
        assert!(t.probe(&Value::Int(9)).is_empty());
    }

    #[test]
    fn string_keys_work() {
        let t = JoinHashTable::build(vec![row!["x", 1i64], row!["y", 2i64]], 0);
        assert_eq!(t.probe(&Value::Str("x".into())).len(), 1);
    }

    #[test]
    fn empty_table() {
        let t = JoinHashTable::new();
        assert!(t.is_empty());
        assert!(t.probe(&Value::Int(0)).is_empty());
    }

    #[test]
    fn buckets_keep_insertion_order_per_key() {
        let mut t = JoinHashTable::new();
        for i in 0..100i64 {
            t.insert(0, row![i % 7, i]);
        }
        assert_eq!(t.len(), 100);
        for k in 0..7i64 {
            let want: Vec<Row> = (0..100i64).filter(|i| i % 7 == k).map(|i| row![k, i]).collect();
            assert_eq!(t.probe(&Value::Int(k)), want.as_slice(), "key {k}");
        }
    }

    #[test]
    fn batch_probe_matches_scalar_probe() {
        let t = JoinHashTable::build(vec![row![1i64, "a"], row![2i64, "b"], row![1i64, "c"]], 0);
        let keys = ColumnVec::from_values(
            ValueType::Int,
            vec![Value::Int(0), Value::Int(1), Value::Int(2), Value::Int(1)],
        );
        // All selected: index 0 misses, the rest hit.
        let all = BitSet::all_set(4);
        let hits = t.probe_batch(&keys, &all);
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].0, 1);
        assert_eq!(hits[0].1, t.probe(&Value::Int(1)));
        assert_eq!(hits[1].0, 2);
        assert_eq!(hits[1].1.len(), 1);
        assert_eq!(hits[2].0, 3);
        // Selection masks out rows before the lookup.
        let mut some = BitSet::new(4);
        some.set(0);
        some.set(2);
        let hits = t.probe_batch(&keys, &some);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 2);
    }

    #[test]
    fn join_into_moves_the_probe_into_its_last_match() {
        let matches = [row![1i64, "a"], row![1i64, "b"], row![1i64, "c"]];
        let probe = row!["p", 1i64];
        for n in 0..=matches.len() {
            for probe_left in [true, false] {
                let mut out = Vec::new();
                join_into(&mut out, probe.clone(), &matches[..n], probe_left);
                let want: Vec<Row> = matches[..n]
                    .iter()
                    .map(|m| if probe_left { probe.concat(m) } else { m.concat(&probe) })
                    .collect();
                assert_eq!(out, want, "n={n} probe_left={probe_left}");
                let mut by_ref = Vec::new();
                join_ref_into(&mut by_ref, &probe, &matches[..n], probe_left);
                assert_eq!(by_ref, want, "n={n} probe_left={probe_left}");
            }
        }
    }

    #[test]
    fn pass_through_hasher_uses_value_hash() {
        use std::hash::BuildHasher;
        let b = Build::default();
        let v = Value::Int(42);
        assert_eq!(b.hash_one(&v), v.stable_hash());
    }
}
