//! The workspace's one thread fan-out.
//!
//! [`par_map`] runs the RQ grids and the sharded scans: an
//! order-preserving map over owned items whose result never depends on
//! the worker count. It keeps no timing of its own: every call runs
//! inside a span that names its width (`grid` carries `threads=`, the
//! scans `shards=`), and the items worth seeing open spans of their own
//! (`cell`, `scan_shard`) on their worker's lane, so the span records
//! are the one timing record the manifest and the trace read.

use std::sync::Mutex;

/// Order-preserving parallel map: `out[i] == f(i, items[i])`, computed by
/// up to `workers` scoped threads pulling items off a shared queue, inline
/// (no thread) when `workers <= 1` or there is at most one item. Which
/// worker ran an item never reaches a result, and a panic in `f` resumes
/// on the caller.
pub fn par_map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    if workers <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut done: Vec<(usize, R)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(n))
            .map(|_| {
                let (queue, f) = (&queue, &f);
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        // The guard drops before the item runs.
                        let next = queue.lock().expect("par_map queue").next();
                        let Some((i, item)) = next else { break local };
                        local.push((i, f(i, item)));
                    }
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(local) => done.extend(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order_at_every_width() {
        let want: Vec<usize> = (0..200).map(|i| i * 1000 + i * 3).collect();
        for workers in [1, 2, 8] {
            let out = par_map((0..200usize).collect(), workers, |i, x| i * 1000 + x * 3);
            assert_eq!(out, want, "workers={workers}");
        }
    }

    #[test]
    fn par_map_reports_requested_workers_for_degenerate_inputs() {
        assert!(par_map(Vec::<i32>::new(), 4, |_, x| x).is_empty());
        assert_eq!(par_map(vec![7], 16, |_, x| x * x), vec![49]);

        // The barrier holds each of the three items on a worker of its own:
        // surplus workers are never spawned, so nothing waits on them.
        let all_running = std::sync::Barrier::new(3);
        let out = par_map(vec![1, 2, 3], 8, |_, x| {
            all_running.wait();
            x + 1
        });
        assert_eq!(out, vec![2, 3, 4]);

        assert_eq!(
            par_map(vec![1, 2, 3], 0, |_, x| x),
            vec![1, 2, 3],
            "0 workers means 1"
        );
    }

    #[test]
    fn par_map_resumes_a_worker_panic_on_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            par_map((0..16).collect(), 4, |_, x: i32| {
                assert!(x != 11, "cell {x} exploded");
                x
            })
        });
        let payload = caught.expect_err("the panic must not be swallowed");
        let msg = payload
            .downcast_ref::<String>()
            .expect("a formatted panic carries a String");
        assert_eq!(
            msg, "cell 11 exploded",
            "the caller sees the worker's own message"
        );
    }
}
