//! The blocking admission queue around the [`Scheduler`].
//!
//! `push` blocks while the scheduler reports no room in the job's
//! queue — that is the server's backpressure: clients cannot submit
//! faster than the worker pool drains, and under the lane policies a
//! batch storm backpressures batch producers without touching
//! interactive admission. `pop` blocks while empty and returns `None`
//! once the queue is closed and drained, which is how workers learn to
//! exit.
//!
//! Built on `std::sync` (Mutex + two Condvars) rather than the
//! crossbeam shim because the shim's channel is unbounded. The
//! scheduler itself ([`crate::scheduler`]) is a plain data structure;
//! all waiting lives here.

use std::sync::{Condvar, Mutex};

use adaptdb::cost::{Lane, LANE_COUNT};

use crate::scheduler::{JobMeta, Scheduler};

struct State<T> {
    scheduler: Scheduler<T>,
    closed: bool,
}

/// Bounded blocking admission queue shared by producers (client
/// sessions) and consumers (executor workers), ordered by a
/// [`Scheduler`].
pub struct SchedQueue<T> {
    state: Mutex<State<T>>,
    not_full: Condvar,
    not_empty: Condvar,
}

impl<T: Send> SchedQueue<T> {
    /// A queue ordered (and capacity-bounded) by `scheduler`.
    pub fn new(scheduler: Scheduler<T>) -> Self {
        SchedQueue {
            state: Mutex::new(State { scheduler, closed: false }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// The scheduling policy's name (`"fifo"` | `"lanes"` | `"fair"`).
    pub fn policy_name(&self) -> &'static str {
        self.state.lock().unwrap().scheduler.name()
    }

    /// Currently queued jobs.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().scheduler.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queued jobs per lane (gauges).
    pub fn lane_depths(&self) -> [usize; LANE_COUNT] {
        self.state.lock().unwrap().scheduler.lane_depths()
    }

    /// Per-lane counts of jobs that would run before a new arrival in
    /// `lane` under the scheduling policy.
    pub fn depths_ahead(&self, lane: Lane) -> [usize; LANE_COUNT] {
        self.state.lock().unwrap().scheduler.depths_ahead(lane)
    }

    /// Enqueue, blocking while the job's queue is at capacity. Returns
    /// the item back if the queue has been closed.
    pub fn push(&self, item: T, meta: JobMeta) -> Result<(), T> {
        let mut state = self.state.lock().unwrap();
        while !state.scheduler.has_room(&meta) && !state.closed {
            state = self.not_full.wait(state).unwrap();
        }
        if state.closed {
            return Err(item);
        }
        state.scheduler.push(item, meta);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeue the scheduler's next job, blocking while empty. `None`
    /// means closed and drained.
    pub fn pop(&self) -> Option<(T, JobMeta)> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(job) = state.scheduler.pop() {
                drop(state);
                // Producers wait on *heterogeneous* predicates (their
                // own queue's capacity), so notify_one could wake a
                // producer whose queue is still full and strand the one
                // whose queue just freed. Wake them all; each re-checks
                // its own queue.
                self.not_full.notify_all();
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).unwrap();
        }
    }

    /// Close the queue: pending jobs still drain, new pushes fail, and
    /// blocked producers/consumers wake up.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb::SchedPolicy;
    use std::sync::Arc;

    fn fifo_queue(capacity: usize) -> SchedQueue<usize> {
        SchedQueue::new(Scheduler::new(SchedPolicy::Fifo, capacity, 8.0))
    }

    fn meta() -> JobMeta {
        JobMeta::new(1, Lane::Interactive, 1, None)
    }

    #[test]
    fn fifo_order_single_thread() {
        let q = fifo_queue(4);
        q.push(1, meta()).unwrap();
        q.push(2, meta()).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().map(|(v, _)| v), Some(1));
        assert_eq!(q.pop().map(|(v, _)| v), Some(2));
        assert!(q.is_empty());
        assert_eq!(q.policy_name(), "fifo");
    }

    #[test]
    fn close_drains_then_stops() {
        let q = fifo_queue(4);
        q.push(1, meta()).unwrap();
        q.close();
        assert_eq!(q.push(2, meta()), Err(2));
        assert_eq!(q.pop().map(|(v, _)| v), Some(1));
        assert!(q.pop().is_none());
    }

    #[test]
    fn push_blocks_at_capacity_until_pop() {
        let q = Arc::new(fifo_queue(1));
        q.push(0, meta()).unwrap();
        let qc = q.clone();
        let producer = std::thread::spawn(move || {
            // Blocks until the consumer below makes room.
            qc.push(1, meta()).unwrap();
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.len(), 1, "producer must be blocked at capacity");
        assert_eq!(q.pop().map(|(v, _)| v), Some(0));
        producer.join().unwrap();
        assert_eq!(q.pop().map(|(v, _)| v), Some(1));
    }

    #[test]
    fn many_producers_many_consumers_deliver_exactly_once() {
        let q = Arc::new(fifo_queue(8));
        let n_prod = 4;
        let per = 200;
        let mut handles = Vec::new();
        for p in 0..n_prod {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    q.push(p * per + i, meta()).unwrap();
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..3 {
            let q = q.clone();
            consumers.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some((v, _)) = q.pop() {
                    got.push(v);
                }
                got
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        q.close();
        let mut all: Vec<usize> = Vec::new();
        for c in consumers {
            all.extend(c.join().unwrap());
        }
        all.sort_unstable();
        assert_eq!(all, (0..n_prod * per).collect::<Vec<_>>());
    }

    #[test]
    fn freed_interactive_slot_wakes_the_interactive_producer() {
        use std::time::Duration;
        // Per-lane capacities mean producers block on *different*
        // predicates: freeing an interactive slot must wake the
        // interactive producer even if a batch producer is also
        // waiting (notify_one could hand the wakeup to the wrong one).
        let q: Arc<SchedQueue<u32>> =
            Arc::new(SchedQueue::new(Scheduler::new(SchedPolicy::Lanes, 1, 8.0)));
        q.push(1, JobMeta::new(1, Lane::Interactive, 1, None)).unwrap();
        q.push(2, JobMeta::new(1, Lane::Batch, 9, None)).unwrap();
        let qb = q.clone();
        let batch_producer = std::thread::spawn(move || {
            qb.push(4, JobMeta::new(2, Lane::Batch, 9, None)).unwrap();
        });
        let (tx, rx) = std::sync::mpsc::channel();
        let qi = q.clone();
        let interactive_producer = std::thread::spawn(move || {
            qi.push(3, JobMeta::new(2, Lane::Interactive, 1, None)).unwrap();
            tx.send(()).unwrap();
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.len(), 2, "both producers must be blocked at capacity");
        // Free the interactive slot; the interactive producer must get
        // through promptly even though the batch lane is still full.
        assert_eq!(q.pop().map(|(v, _)| v), Some(1));
        rx.recv_timeout(Duration::from_secs(2))
            .expect("interactive producer stayed blocked after its lane freed");
        interactive_producer.join().unwrap();
        assert_eq!(q.pop().map(|(v, _)| v), Some(3), "interactive lane served first");
        assert_eq!(q.pop().map(|(v, _)| v), Some(2));
        batch_producer.join().unwrap();
        assert_eq!(q.pop().map(|(v, _)| v), Some(4));
    }

    #[test]
    fn lane_aware_backpressure_is_per_lane() {
        let q: SchedQueue<u32> = SchedQueue::new(Scheduler::new(SchedPolicy::Lanes, 1, 8.0));
        q.push(1, JobMeta::new(1, Lane::Batch, 9, None)).unwrap();
        // Batch lane full — but interactive admission proceeds without
        // blocking.
        q.push(2, JobMeta::new(2, Lane::Interactive, 1, None)).unwrap();
        assert_eq!(q.lane_depths(), [1, 1, 0]);
        assert_eq!(q.pop().map(|(v, _)| v), Some(2), "interactive served first");
    }
}
