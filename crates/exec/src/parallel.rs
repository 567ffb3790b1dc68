//! One process-wide worker pool behind [`map_ordered`].
//!
//! Operators fan work units out to `threads` workers and collect results
//! in input order (so single-threaded and multi-threaded runs produce
//! identical output, keeping experiments deterministic).
//!
//! The helper threads are spawned once and kept: the set grows lazily to
//! the largest `threads − 1` any call has asked for and never shrinks. A
//! call does not spawn or join anything. It queues up to `threads − 1`
//! *tickets* — each one an invitation to claim items from the call's
//! shared atomic cursor — and then claims items itself. Once the cursor
//! is used up, the caller withdraws the tickets no helper has picked up
//! yet and waits for the ones that are running. While it waits it runs
//! other queued tickets itself, so nested calls (a pool job calling
//! [`map_ordered`]) and concurrent callers (server workers) always make
//! progress, however few helpers exist.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A queued ticket's work, with its borrowed lifetime erased (see the
/// `SAFETY:` comment in [`map_ordered`]).
type Job = &'static (dyn Ticket + Sync);

/// The work one ticket does: claim and run items until none are left.
trait Ticket {
    fn run(&self);
}

struct PoolState {
    queue: VecDeque<Job>,
    helpers: usize,
}

/// The process-wide pool: a ticket queue and the count of helper
/// threads serving it. One condition variable signals both "a ticket
/// was queued" and "a ticket finished".
struct Pool {
    state: Mutex<PoolState>,
    signal: Condvar,
}

static POOL: Pool = Pool {
    state: Mutex::new(PoolState { queue: VecDeque::new(), helpers: 0 }),
    signal: Condvar::new(),
};

impl Pool {
    /// Jobs run outside the lock and catch their own panics, so a
    /// poisoned lock only means another thread died mid-bookkeeping;
    /// the state itself is still consistent.
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'g>(&self, guard: MutexGuard<'g, PoolState>) -> MutexGuard<'g, PoolState> {
        self.signal.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    /// Grow the helper set to at least `n` threads.
    fn ensure_helpers(&'static self, state: &mut PoolState, n: usize) {
        while state.helpers < n {
            let spawned = std::thread::Builder::new()
                .name("adaptdb-pool".into())
                .spawn(move || self.helper_loop());
            if spawned.is_err() {
                // The caller still claims every item itself.
                return;
            }
            state.helpers += 1;
        }
    }

    fn helper_loop(&self) {
        let mut state = self.lock();
        loop {
            match state.queue.pop_front() {
                Some(job) => {
                    drop(state);
                    job.run();
                    state = self.lock();
                }
                None => state = self.wait(state),
            }
        }
    }
}

/// One [`map_ordered`] call's shared state: items to claim, result
/// slots, and the bookkeeping that lets the caller return only after
/// every ticket it queued has finished or been withdrawn.
struct Batch<'f, T, R, F> {
    items: Vec<Mutex<Option<T>>>,
    results: Vec<Mutex<Option<R>>>,
    cursor: AtomicUsize,
    f: &'f F,
    /// Tickets queued and not yet finished or withdrawn. Changed and
    /// read only under the pool lock.
    outstanding: AtomicUsize,
    /// The first panic payload raised by `f`.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<T, R, F> Batch<'_, T, R, F>
where
    F: Fn(T) -> R,
{
    /// Claim items off the cursor and run them until none are left. A
    /// panicking item stops further claims and records its payload.
    fn drain(&self) {
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = self.items.get(i) else { return };
            let item = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
            let item = item.expect("each index is claimed once");
            match panic::catch_unwind(AssertUnwindSafe(|| (self.f)(item))) {
                Ok(r) => *self.results[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(r),
                Err(payload) => {
                    self.cursor.store(self.items.len(), Ordering::Relaxed);
                    self.panic
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .get_or_insert(payload);
                    return;
                }
            }
        }
    }

    fn is_me(&self, job: Job) -> bool {
        std::ptr::addr_eq(job as *const (dyn Ticket + Sync), self as *const Self)
    }
}

impl<T, R, F> Ticket for Batch<'_, T, R, F>
where
    F: Fn(T) -> R,
{
    fn run(&self) {
        self.drain();
        // Finishing is recorded under the pool lock, and nothing below
        // touches `self` after it: the caller may free the batch as
        // soon as it observes zero.
        let _state = POOL.lock();
        self.outstanding.fetch_sub(1, Ordering::Relaxed);
        POOL.signal.notify_all();
    }
}

/// Apply `f` to every item, using up to `threads` workers (the calling
/// thread plus pool helpers); results come back in input order, so a
/// caller collecting `Result`s sees the first error by index at any
/// thread count. `threads = 1` and single-item
/// inputs run inline on the caller. If `f` panics on any thread, the
/// panic propagates with its original payload once every worker has
/// stopped touching the call's state.
pub fn map_ordered<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let batch = Batch {
        items: items.into_iter().map(|t| Mutex::new(Some(t))).collect(),
        results: (0..n).map(|_| Mutex::new(None)).collect(),
        cursor: AtomicUsize::new(0),
        f: &f,
        outstanding: AtomicUsize::new(threads - 1),
        panic: Mutex::new(None),
    };
    let ticket: &(dyn Ticket + Sync) = &batch;
    // SAFETY: `job` borrows `batch` (and through it `f`) past their
    // scope only in name. Every copy of it goes into the pool queue
    // below, and this function does not return — or unwind: `drain`
    // catches panics from `f`, and nothing else between here and the
    // wait loop can panic — until `outstanding` is zero. That happens
    // only when each queued copy has either been withdrawn from the
    // queue (never to run) or finished `Ticket::run`, whose last access
    // to `batch` is the decrement made under the pool lock this thread
    // re-checks under. So no job outlives the borrow it erases.
    let job: Job = unsafe {
        std::mem::transmute::<&(dyn Ticket + Sync), &'static (dyn Ticket + Sync)>(ticket)
    };
    {
        let mut state = POOL.lock();
        POOL.ensure_helpers(&mut state, threads - 1);
        state.queue.extend(std::iter::repeat_n(job, threads - 1));
    }
    POOL.signal.notify_all();
    batch.drain();
    let mut state = POOL.lock();
    let queued = state.queue.len();
    state.queue.retain(|j| !batch.is_me(*j));
    batch.outstanding.fetch_sub(queued - state.queue.len(), Ordering::Relaxed);
    while batch.outstanding.load(Ordering::Relaxed) > 0 {
        match state.queue.pop_front() {
            Some(other) => {
                drop(state);
                other.run();
                state = POOL.lock();
            }
            None => state = POOL.wait(state),
        }
    }
    drop(state);
    if let Some(payload) = batch.panic.into_inner().unwrap_or_else(PoisonError::into_inner) {
        panic::resume_unwind(payload);
    }
    batch
        .results
        .into_iter()
        .map(|r| {
            r.into_inner().unwrap_or_else(PoisonError::into_inner).expect("every item produced")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = map_ordered(items.clone(), 4, |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_path() {
        let out = map_ordered(vec![1, 2, 3], 1, |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = map_ordered(Vec::<i32>::new(), 8, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let out = map_ordered(vec![5], 16, |x| x * x);
        assert_eq!(out, vec![25]);
    }

    #[test]
    fn worker_panic_propagates_its_own_payload() {
        let items: Vec<u32> = (0..16).collect();
        let err = std::panic::catch_unwind(|| {
            map_ordered(items, 4, |x| {
                if x == 5 {
                    panic!("operator failed on item 5");
                }
                x
            })
        })
        .unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"operator failed on item 5"));
    }

    #[test]
    fn results_match_sequential_for_heavy_work() {
        let items: Vec<u64> = (0..50).collect();
        let seq: Vec<u64> = items.iter().map(|x| x.wrapping_mul(2654435761)).collect();
        let par = map_ordered(items, 4, |x| x.wrapping_mul(2654435761));
        assert_eq!(par, seq);
    }

    #[test]
    fn nested_call_inside_a_pool_job_completes() {
        let outer: Vec<u64> = (0..8).collect();
        let out = map_ordered(outer, 2, |x| {
            let inner: Vec<u64> = (0..8).map(|y| x * 10 + y).collect();
            map_ordered(inner, 2, |v| v + 1).into_iter().sum::<u64>()
        });
        let want: Vec<u64> = (0..8u64).map(|x| (0..8).map(|y| x * 10 + y + 1).sum()).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn concurrent_callers_each_get_their_own_ordered_results() {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8u64)
                .map(|t| {
                    s.spawn(move || {
                        for round in 0..20u64 {
                            let items: Vec<u64> =
                                (0..32).map(|i| t * 1000 + round * 50 + i).collect();
                            let out = map_ordered(items.clone(), 2, |x| x * 3);
                            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
    }

    #[test]
    fn a_panic_leaves_the_pool_usable() {
        let err = std::panic::catch_unwind(|| {
            map_ordered((0..8).collect::<Vec<u32>>(), 2, |x| {
                if x == 3 {
                    panic!("item 3");
                }
                x
            })
        })
        .unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"item 3"));
        let out = map_ordered((0..8).collect::<Vec<u32>>(), 2, |x| x + 1);
        assert_eq!(out, (1..9).collect::<Vec<_>>());
    }

    #[test]
    fn one_thread_and_single_items_run_on_the_caller() {
        let me = std::thread::current().id();
        let on_caller = |_: u32| std::thread::current().id() == me;
        assert!(map_ordered(vec![1, 2, 3], 1, on_caller).into_iter().all(|b| b));
        assert!(map_ordered(vec![1], 4, on_caller).into_iter().all(|b| b));
    }
}
