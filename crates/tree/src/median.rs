//! Sample-based cut-point selection.
//!
//! Both the upfront partitioner and the two-phase builder split on
//! *medians computed from a sample* (§3.1, §5.1): medians keep block
//! sizes balanced under skew, which hash or equi-width range partitioning
//! would not (§5.1 discusses exactly this trade-off).

use adaptdb_common::{AttrId, Row, Value};

/// Extract the (sorted) values of one attribute from sample rows.
pub fn sorted_attr_values(rows: &[&Row], attr: AttrId) -> Vec<Value> {
    let mut vals: Vec<Value> = rows.iter().map(|r| r.get(attr).clone()).collect();
    vals.sort_unstable();
    vals
}

/// Median cut of a sorted slice: the element at `(len-1)/2`, so the left
/// half-space (`≤ cut`) receives at least half the sample.
/// Returns `None` when fewer than two distinct values exist (a split
/// would put everything on one side).
pub fn median_cut(sorted: &[Value]) -> Option<Value> {
    if sorted.len() < 2 {
        return None;
    }
    let first = &sorted[0];
    let last = &sorted[sorted.len() - 1];
    if first == last {
        return None;
    }
    let mut idx = (sorted.len() - 1) / 2;
    // If the median equals the maximum (heavy upper skew), walk left so the
    // right half-space is non-empty.
    while idx > 0 && sorted[idx] == *last {
        idx -= 1;
    }
    Some(sorted[idx].clone())
}

/// Median cut of an attribute over unsorted sample rows: the cut
/// [`median_cut`] takes from the sorted values, found by selection over
/// the rows themselves instead of cloning and sorting the values. The
/// rows are reordered; which cut comes out does not depend on their
/// order.
pub fn median_cut_of(rows: &mut [&Row], attr: AttrId) -> Option<Value> {
    if rows.len() < 2 {
        return None;
    }
    let k = (rows.len() - 1) / 2;
    let (lower, median, upper) =
        rows.select_nth_unstable_by(k, |a, b| a.get(attr).cmp(b.get(attr)));
    let median = median.get(attr);
    let min = lower.iter().map(|r| r.get(attr)).min().map_or(median, |m| m.min(median));
    let max = upper.iter().map(|r| r.get(attr)).max().map_or(median, |m| m.max(median));
    if min == max {
        return None;
    }
    if median != max {
        return Some(median.clone());
    }
    // The median is the maximum (heavy upper skew): back off to the
    // largest smaller value, which only the lower part can hold.
    lower.iter().map(|r| r.get(attr)).filter(|v| *v < max).max().cloned()
}

/// The `2^levels` quantile cut points used by two-phase partitioning:
/// recursively split the sorted sample at medians, `levels` deep,
/// returning the cuts in in-order (left-to-right) sequence. This mirrors
/// the paper's "sort all values of the attribute in the sample at the
/// root, and recursively compute medians for each subtree" (§5.1).
pub fn recursive_medians(sorted: &[Value], levels: usize) -> Vec<Value> {
    let mut out = Vec::new();
    fn rec(sorted: &[Value], level: usize, out: &mut Vec<Value>) {
        if level == 0 || sorted.len() < 2 {
            return;
        }
        let mid = (sorted.len() - 1) / 2;
        rec(&sorted[..=mid], level - 1, out);
        out.push(sorted[mid].clone());
        rec(&sorted[mid + 1..], level - 1, out);
    }
    rec(sorted, levels, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::row;
    use rand::RngExt;

    fn ints(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|v| Value::Int(*v)).collect()
    }

    #[test]
    fn median_balances_halves() {
        let sorted = ints(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(median_cut(&sorted), Some(Value::Int(4)));
        let sorted = ints(&[1, 2, 3]);
        assert_eq!(median_cut(&sorted), Some(Value::Int(2)));
    }

    #[test]
    fn constant_or_tiny_samples_yield_no_cut() {
        assert_eq!(median_cut(&ints(&[5, 5, 5, 5])), None);
        assert_eq!(median_cut(&ints(&[5])), None);
        assert_eq!(median_cut(&ints(&[])), None);
    }

    #[test]
    fn skewed_median_avoids_degenerate_split() {
        // Median lands on the max value; cut must back off so the right
        // half-space is non-empty.
        let sorted = ints(&[1, 9, 9, 9]);
        assert_eq!(median_cut(&sorted), Some(Value::Int(1)));
    }

    #[test]
    fn recursive_medians_split_uniform_data_evenly() {
        let sorted: Vec<Value> = (0..16i64).map(Value::Int).collect();
        let cuts = recursive_medians(&sorted, 2);
        assert_eq!(cuts, ints(&[3, 7, 11]));
        let cuts = recursive_medians(&sorted, 1);
        assert_eq!(cuts, ints(&[7]));
    }

    #[test]
    fn recursive_medians_zero_levels_is_empty() {
        let sorted: Vec<Value> = (0..8i64).map(Value::Int).collect();
        assert!(recursive_medians(&sorted, 0).is_empty());
    }

    #[test]
    fn selection_median_equals_sorted_median() {
        let mut rng = adaptdb_common::rng::seeded(5);
        let pool = [
            Value::Int(1),
            Value::Int(2),
            Value::Double(-0.0),
            Value::Double(0.0),
            Value::Double(f64::NAN),
            Value::Str("".into()),
            Value::Str("b".into()),
            Value::Date(1),
            Value::Bool(false),
        ];
        for _ in 0..2000 {
            let n = rng.random_range(0..12usize);
            let distinct = rng.random_range(1..pool.len() + 1);
            let rows: Vec<Row> = (0..n)
                .map(|_| Row::new(vec![pool[rng.random_range(0..distinct)].clone()]))
                .collect();
            let mut refs: Vec<&Row> = rows.iter().collect();
            let want = median_cut(&sorted_attr_values(&refs, 0));
            let got = median_cut_of(&mut refs, 0);
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "rows {rows:?}");
        }
    }

    #[test]
    fn median_cut_of_rows() {
        let rows: Vec<Row> = (0..10i64).map(|i| row![i * 10]).collect();
        let mut refs: Vec<&Row> = rows.iter().collect();
        assert_eq!(median_cut_of(&mut refs, 0), Some(Value::Int(40)));
    }
}
