//! The blocking admission queue around the [`Scheduler`], and the
//! execution slots every running query holds.
//!
//! `push` blocks while the scheduler reports no room in the job's
//! queue — that is the server's backpressure: clients cannot submit
//! faster than the server drains, and under the lane policies a batch
//! storm backpressures batch producers without touching interactive
//! admission. `pop` blocks while nothing is queued or no slot is free,
//! and returns `None` once the queue is closed and drained, which is
//! how workers learn to exit.
//!
//! **Slots.** At most `slots` queries execute at once. A worker takes a
//! slot with each job it pops; a client takes one with
//! [`SchedQueue::try_claim`] and runs its query on its own thread,
//! which succeeds only while nothing is queued, so an inline query
//! never overtakes queued work and no policy's order changes. A
//! [`Slot`] is released when dropped (also during a panic), waking one
//! worker for the queued work it may now run.
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
    /// Queries executing now, inline or popped.
    running: usize,
    slots: usize,
}

impl<T> State<T> {
    fn slot_free(&self) -> bool {
        self.running < self.slots
    }
}

/// Bounded blocking admission queue shared by producers (client
/// sessions) and consumers (executor workers), ordered by a
/// [`Scheduler`], plus the execution slots both take.
pub struct SchedQueue<T> {
    state: Mutex<State<T>>,
    not_full: Condvar,
    /// Waited on by workers (for a queued job and a free slot) and by
    /// [`SchedQueue::await_idle`].
    runnable: Condvar,
}

/// One claimed execution slot; dropping it releases the slot.
#[must_use = "the slot is released as soon as it is dropped"]
pub struct Slot<'a, T: Send> {
    queue: &'a SchedQueue<T>,
}

impl<T: Send> Drop for Slot<'_, T> {
    fn drop(&mut self) {
        self.queue.release();
    }
}

impl<T: Send> SchedQueue<T> {
    /// A queue ordered (and capacity-bounded) by `scheduler`, running at
    /// most `slots` queries at once.
    pub fn new(scheduler: Scheduler<T>, slots: usize) -> Self {
        SchedQueue {
            state: Mutex::new(State { scheduler, closed: false, running: 0, slots: slots.max(1) }),
            not_full: Condvar::new(),
            runnable: Condvar::new(),
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

    /// True when every execution slot is taken.
    pub fn is_saturated(&self) -> bool {
        !self.state.lock().unwrap().slot_free()
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

    /// Claim a slot for running a query on the calling thread. Succeeds
    /// only while the queue is open, nothing is queued and a slot is
    /// free; otherwise the caller must [`push`](SchedQueue::push).
    pub fn try_claim(&self) -> Option<Slot<'_, T>> {
        let mut state = self.state.lock().unwrap();
        if state.closed || !state.scheduler.is_empty() || !state.slot_free() {
            return None;
        }
        state.running += 1;
        Some(Slot { queue: self })
    }

    fn release(&self) {
        let mut state = self.state.lock().unwrap();
        state.running -= 1;
        let closed = state.closed;
        drop(state);
        // Workers all wait on one predicate, so one wake-up suffices for
        // the one freed slot; after close, `await_idle` waits here too.
        if closed {
            self.runnable.notify_all();
        } else {
            self.runnable.notify_one();
        }
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
        self.runnable.notify_one();
        Ok(())
    }

    /// Dequeue the scheduler's next job together with a slot to run it
    /// in, blocking while nothing is queued or no slot is free. `None`
    /// means closed and drained.
    pub fn pop(&self) -> Option<(T, JobMeta, Slot<'_, T>)> {
        let mut state = self.state.lock().unwrap();
        loop {
            if state.slot_free() {
                if let Some((item, meta)) = state.scheduler.pop() {
                    state.running += 1;
                    drop(state);
                    // Producers wait on *heterogeneous* predicates (their
                    // own queue's capacity), so notify_one could wake a
                    // producer whose queue is still full and strand the
                    // one whose queue just freed. Wake them all; each
                    // re-checks its own queue.
                    self.not_full.notify_all();
                    return Some((item, meta, Slot { queue: self }));
                }
            }
            if state.closed && state.scheduler.is_empty() {
                return None;
            }
            state = self.runnable.wait(state).unwrap();
        }
    }

    /// Close the queue: pending jobs still drain, new pushes and claims
    /// fail, and blocked producers/consumers wake up.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.runnable.notify_all();
        self.not_full.notify_all();
    }

    /// Block until no slot is held. Call after [`SchedQueue::close`],
    /// which keeps new claims from arriving.
    pub fn await_idle(&self) {
        let mut state = self.state.lock().unwrap();
        while state.running > 0 {
            state = self.runnable.wait(state).unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb::SchedPolicy;
    use std::sync::Arc;

    fn fifo_queue(capacity: usize) -> SchedQueue<usize> {
        SchedQueue::new(Scheduler::new(SchedPolicy::Fifo, capacity, 8.0), 3)
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
        assert_eq!(q.pop().map(|(v, _, _)| v), Some(1));
        assert_eq!(q.pop().map(|(v, _, _)| v), Some(2));
        assert!(q.is_empty());
        assert_eq!(q.policy_name(), "fifo");
    }

    #[test]
    fn close_drains_then_stops() {
        let q = fifo_queue(4);
        q.push(1, meta()).unwrap();
        q.close();
        assert_eq!(q.push(2, meta()), Err(2));
        assert_eq!(q.pop().map(|(v, _, _)| v), Some(1));
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
        assert_eq!(q.pop().map(|(v, _, _)| v), Some(0));
        producer.join().unwrap();
        assert_eq!(q.pop().map(|(v, _, _)| v), Some(1));
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
                while let Some((v, _, _)) = q.pop() {
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
            Arc::new(SchedQueue::new(Scheduler::new(SchedPolicy::Lanes, 1, 8.0), 1));
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
        assert_eq!(q.pop().map(|(v, _, _)| v), Some(1));
        rx.recv_timeout(Duration::from_secs(2))
            .expect("interactive producer stayed blocked after its lane freed");
        interactive_producer.join().unwrap();
        assert_eq!(q.pop().map(|(v, _, _)| v), Some(3), "interactive lane served first");
        assert_eq!(q.pop().map(|(v, _, _)| v), Some(2));
        batch_producer.join().unwrap();
        assert_eq!(q.pop().map(|(v, _, _)| v), Some(4));
    }

    #[test]
    fn lane_aware_backpressure_is_per_lane() {
        let q: SchedQueue<u32> = SchedQueue::new(Scheduler::new(SchedPolicy::Lanes, 1, 8.0), 1);
        q.push(1, JobMeta::new(1, Lane::Batch, 9, None)).unwrap();
        // Batch lane full — but interactive admission proceeds without
        // blocking.
        q.push(2, JobMeta::new(2, Lane::Interactive, 1, None)).unwrap();
        assert_eq!(q.lane_depths(), [1, 1, 0]);
        assert_eq!(q.pop().map(|(v, _, _)| v), Some(2), "interactive served first");
    }

    #[test]
    fn try_claim_needs_an_open_empty_queue_and_a_free_slot() {
        let q: SchedQueue<u32> = SchedQueue::new(Scheduler::new(SchedPolicy::Fifo, 4, 8.0), 2);
        let a = q.try_claim().expect("idle queue, free slot");
        let b = q.try_claim().expect("second slot");
        assert!(q.is_saturated());
        assert!(q.try_claim().is_none(), "no slot free");
        drop(b);
        assert!(!q.is_saturated());
        q.push(1, meta()).unwrap();
        assert!(q.try_claim().is_none(), "queued work runs first");
        let (v, _, popped) = q.pop().unwrap();
        assert_eq!(v, 1);
        assert!(q.is_saturated(), "a popped job holds a slot");
        drop((a, popped));
        q.close();
        assert!(q.try_claim().is_none(), "closed");
        q.await_idle();
    }

    #[test]
    fn pop_waits_for_a_slot_and_a_release_wakes_it() {
        use std::time::Duration;
        let q: Arc<SchedQueue<u32>> =
            Arc::new(SchedQueue::new(Scheduler::new(SchedPolicy::Fifo, 4, 8.0), 1));
        let inline = q.try_claim().unwrap();
        q.push(7, meta()).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let qw = q.clone();
        let worker = std::thread::spawn(move || {
            let (v, _, _slot) = qw.pop().unwrap();
            tx.send(v).unwrap();
        });
        assert!(
            rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "a job must not run while every slot is held"
        );
        drop(inline);
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), 7);
        worker.join().unwrap();
        q.close();
        q.await_idle();
        assert!(q.pop().is_none());
    }

    #[test]
    fn a_panic_releases_its_slot() {
        let q: SchedQueue<u32> = SchedQueue::new(Scheduler::new(SchedPolicy::Fifo, 4, 8.0), 1);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _slot = q.try_claim().unwrap();
            panic!("query failed");
        }));
        assert!(caught.is_err());
        assert!(q.try_claim().is_some(), "the unwound slot was released");
    }
}
