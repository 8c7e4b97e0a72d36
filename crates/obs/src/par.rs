//! The workspace's one thread fan-out, and the statistics it records.
//!
//! [`par_map`] runs the RQ grids, the TGA generation rounds and the
//! sharded scans: an order-preserving map over owned items whose result
//! never depends on the worker count. It measures, for every cell it
//! executes, how long the cell sat in the queue versus how long it ran,
//! and which worker picked it up, and records one [`ParStats`] batch per
//! invocation; the manifest serializes every batch recorded during the
//! run so scheduling pathologies (one giant straggler cell, idle workers,
//! queue convoys) are visible after the fact.

use std::sync::Mutex;

use crate::json::Json;

/// Timing for one work item (cell) through a `par_map` call.
#[derive(Debug, Clone, PartialEq)]
pub struct ParCell {
    /// Input-order index of the item.
    pub index: usize,
    /// Seconds between `par_map` start and a worker dequeuing the item.
    pub wait_s: f64,
    /// Seconds the closure ran.
    pub exec_s: f64,
    /// Worker thread (0-based) that executed the item.
    pub worker: usize,
}

/// Per-worker rollup for one `par_map` call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParWorker {
    /// Total seconds this worker spent executing closures.
    pub busy_s: f64,
    /// Number of cells this worker executed.
    pub items: u64,
}

/// Complete statistics for one `par_map` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ParStats {
    /// Call-site label (e.g. the experiment the grid ran under).
    pub label: String,
    /// Worker threads requested (`workers.len()`; surplus ones sit idle).
    pub threads: usize,
    /// Call start, seconds since process clock origin (`wait_s`/`exec_s`
    /// in [`ParCell`] are relative to this, so `start_s + wait_s` places
    /// an item on the absolute trace timeline).
    pub start_s: f64,
    /// Wall-clock seconds for the whole call.
    pub wall_s: f64,
    /// Per-item timings, in input order.
    pub cells: Vec<ParCell>,
    /// Per-worker rollups, indexed by worker id.
    pub workers: Vec<ParWorker>,
}

impl ParStats {
    /// Fraction of total worker-seconds spent executing closures
    /// (`Σ busy / (threads × wall)`); 0 when the call did no work.
    pub fn utilization(&self) -> f64 {
        let capacity = self.threads as f64 * self.wall_s;
        if capacity <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.workers.iter().map(|w| w.busy_s).sum();
        (busy / capacity).min(1.0)
    }

    /// Encode for the manifest.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("label", self.label.as_str());
        o.set("threads", self.threads);
        o.set("start_s", self.start_s);
        o.set("wall_s", self.wall_s);
        o.set("utilization", self.utilization());
        o.set(
            "cells",
            Json::Arr(
                self.cells
                    .iter()
                    .map(|c| {
                        let mut cell = Json::obj();
                        cell.set("index", c.index);
                        cell.set("wait_s", c.wait_s);
                        cell.set("exec_s", c.exec_s);
                        cell.set("worker", c.worker);
                        cell
                    })
                    .collect(),
            ),
        );
        o.set(
            "workers",
            Json::Arr(
                self.workers
                    .iter()
                    .map(|w| {
                        let mut worker = Json::obj();
                        worker.set("busy_s", w.busy_s);
                        worker.set("items", w.items);
                        worker
                    })
                    .collect(),
            ),
        );
        o
    }
}

/// Order-preserving parallel map: `out[i] == f(i, items[i])`, computed by
/// up to `workers` scoped threads pulling cells off a shared queue, inline
/// (no thread) when `workers <= 1` or there is at most one item. Which
/// worker ran a cell reaches the recorded [`ParStats`] only, never a
/// result. The stats always carry the *requested* worker count, idle
/// workers included, and a panic in `f` resumes on the caller.
pub fn par_map<T, R, F>(label: &str, items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let threads = workers.max(1);
    let n = items.len();
    let start_s = crate::now_s();
    let run = |worker: usize, (index, item): (usize, T)| {
        let t0 = crate::now_s();
        let r = f(index, item);
        (
            r,
            ParCell {
                index,
                wait_s: t0 - start_s,
                exec_s: crate::now_s() - t0,
                worker,
            },
        )
    };
    let mut done: Vec<(R, ParCell)> = Vec::with_capacity(n);
    if threads == 1 || n <= 1 {
        done.extend(items.into_iter().enumerate().map(|cell| run(0, cell)));
    } else {
        let queue = Mutex::new(items.into_iter().enumerate());
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads.min(n))
                .map(|w| {
                    let (queue, run) = (&queue, &run);
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            // The guard drops before the cell runs.
                            let next = queue.lock().expect("par_map queue").next();
                            let Some(cell) = next else { break local };
                            local.push(run(w, cell));
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
        done.sort_by_key(|(_, c)| c.index);
    }
    let mut per_worker = vec![
        ParWorker {
            busy_s: 0.0,
            items: 0
        };
        threads
    ];
    let (out, cells): (Vec<R>, Vec<ParCell>) = done.into_iter().unzip();
    for c in &cells {
        per_worker[c.worker].busy_s += c.exec_s;
        per_worker[c.worker].items += 1;
    }
    record(ParStats {
        label: label.to_string(),
        threads,
        start_s,
        wall_s: crate::now_s() - start_s,
        cells,
        workers: per_worker,
    });
    out
}

static RECORDS: Mutex<Vec<ParStats>> = Mutex::new(Vec::new());

/// Record one `par_map` invocation's statistics for the manifest.
pub fn record(stats: ParStats) {
    RECORDS.lock().expect("par records").push(stats);
}

/// Copy of every recorded invocation, in completion order.
pub fn snapshot() -> Vec<ParStats> {
    RECORDS.lock().expect("par records").clone()
}

/// Forget all recorded invocations (test/reset support).
pub fn clear() {
    RECORDS.lock().expect("par records").clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ParStats {
        ParStats {
            label: "unit".into(),
            threads: 2,
            start_s: 0.0,
            wall_s: 2.0,
            cells: vec![
                ParCell {
                    index: 0,
                    wait_s: 0.0,
                    exec_s: 1.0,
                    worker: 0,
                },
                ParCell {
                    index: 1,
                    wait_s: 0.5,
                    exec_s: 2.0,
                    worker: 1,
                },
            ],
            workers: vec![
                ParWorker {
                    busy_s: 1.0,
                    items: 1,
                },
                ParWorker {
                    busy_s: 2.0,
                    items: 1,
                },
            ],
        }
    }

    /// The stats batch the latest call under `label` recorded (labels are
    /// unique per test: the table is process-global).
    fn recorded(label: &str) -> ParStats {
        snapshot()
            .into_iter()
            .rfind(|s| s.label == label)
            .expect("call recorded under its label")
    }

    #[test]
    fn par_map_preserves_input_order_at_every_width() {
        let want: Vec<usize> = (0..200).map(|i| i * 1000 + i * 3).collect();
        for workers in [1, 2, 8] {
            let out = par_map("order_test", (0..200usize).collect(), workers, |i, x| {
                i * 1000 + x * 3
            });
            assert_eq!(out, want, "workers={workers}");
        }
        let stats = recorded("order_test");
        assert_eq!((stats.threads, stats.cells.len()), (8, 200));
        let indices: Vec<usize> = stats.cells.iter().map(|c| c.index).collect();
        assert_eq!(
            indices,
            (0..200).collect::<Vec<_>>(),
            "cell records are in input order too"
        );
        assert_eq!(
            stats.workers.iter().map(|w| w.items).sum::<u64>(),
            200,
            "each cell ran once"
        );
        assert!(stats.cells.iter().all(|c| c.worker < 8));
    }

    #[test]
    fn par_map_reports_requested_workers_for_degenerate_inputs() {
        let idle = |w: &ParWorker| w.items == 0 && w.busy_s == 0.0;
        assert!(par_map("empty_test", Vec::<i32>::new(), 4, |_, x| x).is_empty());
        let stats = recorded("empty_test");
        assert_eq!((stats.threads, stats.workers.len()), (4, 4));

        assert_eq!(par_map("single_test", vec![7], 16, |_, x| x * x), vec![49]);
        let stats = recorded("single_test");
        assert_eq!((stats.threads, stats.workers.len()), (16, 16));
        assert_eq!(
            stats.workers[0].items, 1,
            "one item runs inline on worker 0"
        );
        assert!(stats.workers[1..].iter().all(idle));

        // The barrier holds each of the three cells on a worker of its own.
        let all_running = std::sync::Barrier::new(3);
        let out = par_map("surplus_test", vec![1, 2, 3], 8, |_, x| {
            all_running.wait();
            x + 1
        });
        assert_eq!(out, vec![2, 3, 4]);
        let stats = recorded("surplus_test");
        assert_eq!(
            (stats.threads, stats.workers.len()),
            (8, 8),
            "requested, not min(items, workers)"
        );
        assert_eq!(
            stats.workers.iter().filter(|w| idle(w)).count(),
            5,
            "surplus workers show as idle"
        );

        assert_eq!(
            par_map("seq_test", vec![1, 2, 3], 0, |_, x| x),
            vec![1, 2, 3]
        );
        let stats = recorded("seq_test");
        assert_eq!(
            (stats.threads, stats.workers[0].items),
            (1, 3),
            "0 workers means 1"
        );
    }

    #[test]
    fn par_map_resumes_a_worker_panic_on_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            par_map("panic_test", (0..16).collect(), 4, |_, x: i32| {
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

    #[test]
    fn utilization_is_busy_over_capacity() {
        let s = sample();
        // 3 busy worker-seconds over 2 threads × 2 s = 0.75.
        assert!((s.utilization() - 0.75).abs() < 1e-9);
        let empty = ParStats {
            label: String::new(),
            threads: 0,
            start_s: 0.0,
            wall_s: 0.0,
            cells: vec![],
            workers: vec![],
        };
        assert_eq!(empty.utilization(), 0.0);
    }

    #[test]
    fn serializes_cells_and_workers() {
        let j = sample().to_json();
        assert_eq!(j.get("threads"), Some(&Json::U64(2)));
        let Some(Json::Arr(cells)) = j.get("cells") else {
            panic!("cells array");
        };
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[1].get("worker"), Some(&Json::U64(1)));
    }
}
