//! The recent-query window (§3.2, §5.2).
//!
//! AdaptDB keeps the last `|W|` queries per table. The window drives two
//! decisions: *which* selection attributes the Amoeba adapter should
//! favor, and *how much* data smooth repartitioning should migrate
//! toward each join attribute (Fig. 11 compares query-type fractions in
//! the window against data fractions under each tree).

use std::collections::VecDeque;

use adaptdb_common::{AttrId, PredicateSet};

/// What the window remembers about one query's touch on one table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowEntry {
    /// Join attribute the query used on this table, if it joined.
    pub join_attr: Option<AttrId>,
    /// Selection predicates on this table.
    pub predicates: PredicateSet,
}

/// A bounded FIFO of recent [`WindowEntry`]s.
#[derive(Debug, Clone)]
pub struct QueryWindow {
    cap: usize,
    entries: VecDeque<WindowEntry>,
}

impl QueryWindow {
    /// A window of capacity `cap` (the paper's `|W|`, default 10 in §7.1).
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "window capacity must be positive");
        QueryWindow { cap, entries: VecDeque::with_capacity(cap) }
    }

    /// Record a query, evicting the oldest when full.
    pub fn push(&mut self, entry: WindowEntry) {
        if self.entries.len() == self.cap {
            self.entries.pop_front();
        }
        self.entries.push_back(entry);
    }

    /// Capacity `|W|`.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of queries currently remembered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no queries have been seen.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over remembered entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &WindowEntry> {
        self.entries.iter()
    }

    /// `n` in Fig. 11: how many window queries join on `attr`.
    pub fn count_join_attr(&self, attr: AttrId) -> usize {
        self.entries.iter().filter(|e| e.join_attr == Some(attr)).count()
    }

    /// Distinct join attributes seen, with counts, descending by count.
    pub fn join_attr_counts(&self) -> Vec<(AttrId, usize)> {
        let mut counts: Vec<(AttrId, usize)> = Vec::new();
        for e in &self.entries {
            if let Some(a) = e.join_attr {
                match counts.iter_mut().find(|(x, _)| *x == a) {
                    Some((_, c)) => *c += 1,
                    None => counts.push((a, 1)),
                }
            }
        }
        counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        counts
    }

    /// Distinct predicate attributes seen, with counts, descending — the
    /// priority order the selection-phase adapter uses.
    pub fn predicate_attr_counts(&self) -> Vec<(AttrId, usize)> {
        let mut counts: Vec<(AttrId, usize)> = Vec::new();
        for e in &self.entries {
            let preds = e.predicates.predicates();
            // Each attribute once per entry, without collecting them.
            for (j, p) in preds.iter().enumerate() {
                let a = p.attr;
                if preds[..j].iter().any(|q| q.attr == a) {
                    continue;
                }
                match counts.iter_mut().find(|(x, _)| *x == a) {
                    Some((_, c)) => *c += 1,
                    None => counts.push((a, 1)),
                }
            }
        }
        counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::{CmpOp, Predicate};

    fn entry(join: Option<AttrId>, pred_attr: Option<AttrId>) -> WindowEntry {
        let predicates = match pred_attr {
            Some(a) => PredicateSet::none().and(Predicate::new(a, CmpOp::Eq, 1i64)),
            None => PredicateSet::none(),
        };
        WindowEntry { join_attr: join, predicates }
    }

    #[test]
    fn eviction_keeps_only_last_cap() {
        let mut w = QueryWindow::new(3);
        for a in 0..5u16 {
            w.push(entry(Some(a), None));
        }
        assert_eq!(w.len(), 3);
        let attrs: Vec<Option<AttrId>> = w.iter().map(|e| e.join_attr).collect();
        assert_eq!(attrs, vec![Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn join_counts_reflect_window_only() {
        let mut w = QueryWindow::new(4);
        w.push(entry(Some(1), None));
        w.push(entry(Some(1), None));
        w.push(entry(Some(2), None));
        w.push(entry(None, None));
        assert_eq!(w.count_join_attr(1), 2);
        assert_eq!(w.count_join_attr(2), 1);
        assert_eq!(w.count_join_attr(9), 0);
        assert_eq!(w.join_attr_counts(), vec![(1, 2), (2, 1)]);
        // Evict the two attr-1 queries.
        w.push(entry(Some(2), None));
        w.push(entry(Some(2), None));
        assert_eq!(w.count_join_attr(1), 0);
    }

    #[test]
    fn predicate_counts_order_by_frequency() {
        let mut w = QueryWindow::new(10);
        w.push(entry(None, Some(5)));
        w.push(entry(None, Some(5)));
        w.push(entry(None, Some(3)));
        assert_eq!(w.predicate_attr_counts(), vec![(5, 2), (3, 1)]);
    }

    #[test]
    #[should_panic(expected = "window capacity must be positive")]
    fn zero_capacity_panics() {
        QueryWindow::new(0);
    }
}
