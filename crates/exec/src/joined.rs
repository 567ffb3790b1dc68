//! A join's result as row ids, built into rows once, when it returns.
//!
//! Every hash join emits (probe id, build id) pairs, not rows. A
//! [`Joined`] keeps those ids — one [`RowId`] per joined input per
//! output row — with the sources they point into: an input's
//! still-encoded blocks (their bytes are refcounted, so a shuffle's
//! scratch runs outlive its cleanup), or rows already built (a Grace
//! group read back from scratch, a block-nested-loop chunk, an
//! intermediate gathered for a shuffle step). A multi-way join's step
//! extends each intermediate row's ids by the stored row it matched,
//! so no intermediate row is built, cloned or regrown.
//! [`Joined::into_rows`] builds each output row once, at the final
//! width, column by column.

use adaptdb_common::{AttrId, Result, Row, Value};
use adaptdb_storage::LazyBlock;

/// Where a join input's row lives: row `row` of the input's source
/// `src`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RowId {
    /// The source, in the order the input's sources were added.
    pub src: u32,
    /// The row within it.
    pub row: u32,
}

/// The rows one source of a join input holds.
#[derive(Debug, Clone)]
pub(crate) enum Source {
    /// A block, still encoded.
    Block(LazyBlock),
    /// Rows already built.
    Rows(Vec<Row>),
}

impl Source {
    fn rows(&self) -> usize {
        match self {
            Source::Block(b) => b.row_count(),
            Source::Rows(rows) => rows.len(),
        }
    }

    fn width(&self) -> usize {
        match self {
            Source::Block(b) => b.num_columns(),
            Source::Rows(rows) => rows.first().map_or(0, Row::arity),
        }
    }
}

/// `probe ⋈ build` as one output row's ids: the probe's first when
/// `probe_left`.
#[inline]
pub(crate) fn pair(probe: RowId, build: RowId, probe_left: bool) -> [RowId; 2] {
    if probe_left {
        [probe, build]
    } else {
        [build, probe]
    }
}

/// A join's output rows as ids into its inputs' sources, in output
/// order; the inputs are in column order.
#[derive(Debug, Default)]
pub struct Joined {
    /// Each input's sources.
    inputs: Vec<Vec<Source>>,
    /// `inputs.len()` ids per output row, row after row.
    ids: Vec<RowId>,
}

impl From<Vec<Row>> for Joined {
    /// One input: `rows`, in order.
    fn from(rows: Vec<Row>) -> Joined {
        let ids = (0..rows.len() as u32).map(|row| RowId { src: 0, row }).collect();
        Joined { inputs: vec![vec![Source::Rows(rows)]], ids }
    }
}

impl Joined {
    /// A two-input join's rows: `ids` holds [`pair`]s into `probe` and
    /// `build`.
    pub(crate) fn binary(
        probe: Vec<Source>,
        build: Vec<Source>,
        ids: Vec<RowId>,
        probe_left: bool,
    ) -> Joined {
        let inputs = if probe_left { vec![probe, build] } else { vec![build, probe] };
        Joined { inputs, ids }
    }

    /// Number of output rows.
    pub fn len(&self) -> usize {
        self.ids.len().checked_div(self.inputs.len()).unwrap_or(0)
    }

    /// True when there are no output rows.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Append `other`'s rows after these, its sources numbered after
    /// these.
    pub fn extend(&mut self, other: Joined) {
        if self.is_empty() {
            *self = other;
            return;
        }
        if other.is_empty() {
            return;
        }
        let k = self.inputs.len();
        assert_eq!(other.inputs.len(), k, "appended rows join other inputs");
        let base: Vec<u32> = self.inputs.iter().map(|s| s.len() as u32).collect();
        for (mine, theirs) in self.inputs.iter_mut().zip(other.inputs) {
            mine.extend(theirs);
        }
        let ids = other.ids.iter().zip(base.iter().cycle());
        self.ids.extend(ids.map(|(id, &b)| RowId { src: id.src + b, row: id.row }));
    }

    /// A step's output: row `i` of these joined with the row `id` of
    /// the new input `sources`, for each `(i, id)` of `pairs`, in order.
    pub(crate) fn step(mut self, sources: Vec<Source>, pairs: &[(u32, RowId)]) -> Joined {
        let k = self.inputs.len();
        let mut ids = Vec::with_capacity(pairs.len() * (k + 1));
        for &(i, id) in pairs {
            ids.extend_from_slice(&self.ids[i as usize * k..][..k]);
            ids.push(id);
        }
        self.inputs.push(sources);
        Joined { inputs: self.inputs, ids }
    }

    /// The width of input `input`: that of the source the first row
    /// points into (there is one).
    fn width(&self, input: usize) -> usize {
        self.inputs[input][self.ids[input].src as usize].width()
    }

    /// Call `f` once per source of input `input` that some row points
    /// into, with that source's picks ([`picks`]) in ascending row
    /// order: a counting sort over the rows of the input's sources.
    fn for_each_source(
        &self,
        input: usize,
        mut f: impl FnMut(&Source, &[(u32, u32)]) -> Result<()>,
    ) -> Result<()> {
        let (k, sources) = (self.inputs.len(), &self.inputs[input]);
        let ids = || self.ids[input..].iter().step_by(k);
        // Where each source's rows start among all of them.
        let mut start: Vec<usize> = Vec::with_capacity(sources.len() + 1);
        start.push(0);
        start.extend(sources.iter().scan(0, |at, s| {
            *at += s.rows();
            Some(*at)
        }));
        let mut slot = vec![0u32; start[sources.len()] + 1];
        for id in ids() {
            slot[start[id.src as usize] + id.row as usize + 1] += 1;
        }
        for i in 1..slot.len() {
            slot[i] += slot[i - 1];
        }
        // Where each source's picks begin, and where the last one's end.
        let bounds: Vec<usize> = start.iter().map(|&at| slot[at] as usize).collect();
        let mut picks = vec![(0u32, 0u32); self.len()];
        for (id, t) in ids().zip(0..) {
            let at = &mut slot[start[id.src as usize] + id.row as usize];
            picks[*at as usize] = (id.row, t);
            *at += 1;
        }
        for (source, b) in sources.iter().zip(bounds.windows(2)) {
            if b[0] < b[1] {
                f(source, &picks[b[0]..b[1]])?;
            }
        }
        Ok(())
    }

    /// Column `attr` of every output row, in order — a step's join
    /// keys.
    pub(crate) fn column(&self, attr: AttrId) -> Result<Vec<Value>> {
        let mut out = vec![Value::Bool(false); self.len()];
        if out.is_empty() {
            return Ok(out);
        }
        let (mut input, mut col) = (0, attr as usize);
        while col >= self.width(input) {
            col -= self.width(input);
            input += 1;
        }
        self.for_each_source(input, |src, run| match src {
            Source::Rows(rows) => {
                picks(run).for_each(|(r, t)| out[t] = rows[r].values()[col].clone());
                Ok(())
            }
            Source::Block(b) => b.gather_column(col, picks(run), |t, v| out[t] = v),
        })?;
        Ok(out)
    }

    /// Build every output row, once, at the joined width: each input's
    /// cells are appended column by column, source by source.
    pub fn into_rows(self) -> Result<Vec<Row>> {
        if self.is_empty() {
            return Ok(Vec::new());
        }
        let k = self.inputs.len();
        let width = (0..k).map(|i| self.width(i)).sum();
        let mut out: Vec<Vec<Value>> = (0..self.len()).map(|_| Vec::with_capacity(width)).collect();
        for input in 0..k {
            self.for_each_source(input, |src, run| match src {
                Source::Rows(rows) => {
                    picks(run).for_each(|(r, t)| out[t].extend_from_slice(rows[r].values()));
                    Ok(())
                }
                Source::Block(b) => b.gather_onto(picks(run), &mut out),
            })?;
        }
        Ok(out.into_iter().map(Row::new).collect())
    }
}

/// The `(row, output row)` picks of one source.
fn picks(run: &[(u32, u32)]) -> impl Iterator<Item = (usize, usize)> + Clone + '_ {
    run.iter().map(|&(r, t)| (r as usize, t as usize))
}
