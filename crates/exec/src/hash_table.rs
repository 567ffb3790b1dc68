//! Join hash tables, and the probe kernel both hash joins stream their
//! probe side through (`probe_block`).
//!
//! Keys are [`Value`]s; hashing goes through [`Value::stable_hash`] with a
//! pass-through `Hasher` (the value hash is already well-mixed FNV-1a),
//! following the perf-book guidance to avoid SipHash for hot integer-keyed
//! tables while keeping runs reproducible.

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

/// A multimap from join-key values to rows.
#[derive(Debug, Default)]
pub struct JoinHashTable {
    map: HashMap<Value, Vec<Row>, Build>,
    rows: usize,
    keys: usize,
}

impl JoinHashTable {
    /// An empty table.
    pub fn new() -> Self {
        JoinHashTable { map: HashMap::default(), rows: 0, keys: 0 }
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
        let bucket = self.map.entry(row.get(attr).clone()).or_default();
        if bucket.is_empty() {
            self.keys += 1;
        }
        bucket.push(row);
    }

    /// Rows whose key equals `key`.
    pub fn probe(&self, key: &Value) -> &[Row] {
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
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

    /// Number of distinct keys, maintained incrementally on insert
    /// (the hyper-join hot path reads this per probe block — it must
    /// never rescan the table).
    pub fn distinct_keys(&self) -> usize {
        self.keys
    }
}

/// Push `probe ⋈ m` for every build row `m` of `matches`, in order —
/// probe columns first when `probe_left` — moving the probe row into
/// the last output and copying it only for the earlier ones.
pub(crate) fn join_into(out: &mut Vec<Row>, probe: Row, matches: &[Row], probe_left: bool) {
    let Some((last, rest)) = matches.split_last() else { return };
    for m in rest {
        out.push(if probe_left { probe.concat(m) } else { m.concat(&probe) });
    }
    out.push(if probe_left { probe.append(last) } else { probe.prepend(last) });
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
    let mut matched = BitSet::new(lazy.row_count());
    for &(i, _) in &hits {
        matched.set(i);
    }
    let rows = lazy.gather_range(0, lazy.row_count(), &matched)?;
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
        assert_eq!(t.distinct_keys(), 2);
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
        assert_eq!(t.distinct_keys(), 0);
    }

    #[test]
    fn distinct_keys_tracks_inserts_incrementally() {
        let mut t = JoinHashTable::new();
        for i in 0..100i64 {
            t.insert(0, row![i % 7, i]);
            assert_eq!(t.distinct_keys(), ((i + 1).min(7)) as usize);
        }
        assert_eq!(t.len(), 100);
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
