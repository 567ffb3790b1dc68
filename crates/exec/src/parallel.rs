//! A minimal scoped worker pool.
//!
//! Operators fan work units out to `threads` workers and collect results
//! in input order (so single-threaded and multi-threaded runs produce
//! identical output, keeping experiments deterministic).

use crossbeam::channel;

/// Apply `f` to every item, using up to `threads` workers; results come
/// back in input order. Errors short-circuit to the first (by index).
/// If `f` panics on a worker, the panic propagates with its original
/// payload.
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
    let (tx, rx) = channel::unbounded::<(usize, T)>();
    for pair in items.into_iter().enumerate() {
        tx.send(pair).expect("channel open");
    }
    drop(tx);
    let (out_tx, out_rx) = channel::unbounded::<(usize, R)>();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let rx = rx.clone();
                let out_tx = out_tx.clone();
                let f = &f;
                s.spawn(move || {
                    while let Ok((i, item)) = rx.recv() {
                        let r = f(item);
                        if out_tx.send((i, r)).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect();
        drop(out_tx);
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        while let Ok((i, r)) = out_rx.recv() {
            slots[i] = Some(r);
        }
        // A panicking operator leaves its slot empty: re-raise its own
        // payload rather than a second, uninformative panic below.
        for w in workers {
            if let Err(payload) = w.join() {
                std::panic::resume_unwind(payload);
            }
        }
        slots.into_iter().map(|s| s.expect("worker delivered every slot")).collect()
    })
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
}
