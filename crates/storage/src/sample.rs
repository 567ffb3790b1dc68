//! Reservoir sampling.
//!
//! Amoeba/AdaptDB choose partitioning-tree cut points from a sample of
//! the data (§3.1), and keep the sample around for repartitioning
//! decisions (Fig. 2 "Sampled records"). Algorithm R keeps a uniform
//! sample in one pass without knowing the stream length. Loads offer
//! their rows as one borrowed batch ([`Reservoir::offer_all`]), so only
//! the rows the sample keeps are cloned.

use adaptdb_common::rng;
use adaptdb_common::Row;
use rand::rngs::StdRng;
use rand::RngExt;

/// A uniform reservoir sample of rows.
#[derive(Debug)]
pub struct Reservoir {
    capacity: usize,
    seen: usize,
    rows: Vec<Row>,
    rng: StdRng,
}

impl Reservoir {
    /// A reservoir keeping at most `capacity` rows.
    pub fn new(capacity: usize, seed: u64) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        Reservoir {
            capacity,
            seen: 0,
            rows: Vec::with_capacity(capacity),
            rng: rng::derived(seed, "reservoir"),
        }
    }

    /// Offer one row to the sample.
    pub fn offer(&mut self, row: Row) {
        self.seen += 1;
        if self.rows.len() < self.capacity {
            self.rows.push(row);
        } else {
            let j = self.rng.random_range(0..self.seen);
            if j < self.capacity {
                self.rows[j] = row;
            }
        }
    }

    /// Offer every row of `batch`, in order, without taking them: the
    /// same random draws, and afterwards the same rows and `seen`, as
    /// [`Reservoir::offer`] on a clone of each. Only the rows still in
    /// the sample when the batch ends are cloned — at most `capacity` —
    /// instead of every row offered.
    pub fn offer_all(&mut self, batch: &[Row]) {
        const KEPT: u32 = u32::MAX;
        assert!(batch.len() < KEPT as usize, "a batch indexes its rows by u32");
        // `taken[s]` is the batch row now in slot `s`, or `KEPT` while
        // the slot still holds the row it held before the batch.
        let slots = self.capacity.min(self.rows.len() + batch.len());
        let mut taken = vec![KEPT; slots];
        for i in 0..batch.len() {
            self.seen += 1;
            let slot = if self.seen <= self.capacity {
                self.seen - 1
            } else {
                self.rng.random_range(0..self.seen)
            };
            if slot < slots {
                taken[slot] = i as u32;
            }
        }
        for (slot, &i) in taken.iter().enumerate().filter(|(_, &i)| i != KEPT) {
            let row = batch[i as usize].clone();
            match self.rows.get_mut(slot) {
                Some(held) => *held = row,
                None => self.rows.push(row),
            }
        }
    }

    /// The sampled rows (at most `capacity`).
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// How many rows have been offered in total.
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// Capacity of the reservoir.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::row;

    #[test]
    fn keeps_everything_under_capacity() {
        let mut r = Reservoir::new(10, 1);
        r.offer_all(&(0..5i64).map(|i| row![i]).collect::<Vec<_>>());
        assert_eq!(r.rows().len(), 5);
        assert_eq!(r.seen(), 5);
    }

    #[test]
    fn caps_at_capacity() {
        let mut r = Reservoir::new(10, 1);
        r.offer_all(&(0..1000i64).map(|i| row![i]).collect::<Vec<_>>());
        assert_eq!(r.rows().len(), 10);
        assert_eq!(r.seen(), 1000);
    }

    #[test]
    fn sample_is_roughly_uniform() {
        // Offer 0..10_000; the mean of a uniform sample should be near 5000.
        let mut r = Reservoir::new(500, 42);
        r.offer_all(&(0..10_000i64).map(|i| row![i]).collect::<Vec<_>>());
        let mean: f64 = r.rows().iter().map(|row| row.get(0).as_int().unwrap() as f64).sum::<f64>()
            / r.rows().len() as f64;
        assert!((mean - 5000.0).abs() < 600.0, "mean {mean} too far from 5000");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = Reservoir::new(8, 9);
        let mut b = Reservoir::new(8, 9);
        let rows: Vec<Row> = (0..100i64).map(|i| row![i]).collect();
        a.offer_all(&rows);
        b.offer_all(&rows);
        assert_eq!(a.rows(), b.rows());
    }

    /// `seen()` versions the sample: `offer` and `offer_all` are the
    /// only ways to change the rows, and they bump `seen` once per row
    /// offered, kept or not — so one reservoir at one `seen` always
    /// holds the same rows. Adaptation keys its memoised candidates on
    /// it.
    #[test]
    fn seen_versions_the_rows() {
        let mut r = Reservoir::new(4, 3);
        let mut snapshots: Vec<Vec<Row>> = vec![r.rows().to_vec()];
        for i in 0..200i64 {
            r.offer(row![i]);
            assert_eq!(r.seen(), snapshots.len(), "every offer bumps seen");
            snapshots.push(r.rows().to_vec());
        }
        // Replaying the same offers revisits the same (seen, rows) pairs.
        let mut again = Reservoir::new(4, 3);
        for (i, rows) in snapshots.iter().enumerate().skip(1) {
            again.offer(row![(i - 1) as i64]);
            assert_eq!(again.rows(), &rows[..]);
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        Reservoir::new(0, 1);
    }
}
