//! Deterministic scatter/gather for independent experiment cells.
//!
//! Every figure sweep is a grid of *independent* `(platform, config, seed)`
//! cells: each cell builds its own simulated world from scratch, runs it on
//! its own virtual clock, and returns a value. Nothing is shared between
//! cells, so they can run on OS threads concurrently — the only requirement
//! for byte-identical output is that results are *collected in input order*,
//! which [`map_cells`] guarantees by writing each result into a slot indexed
//! by its cell's position. Dispatch order is a free variable, and
//! [`map_cells_hinted`] uses it: cells start longest-first (LPT on a
//! node-count × duration cost hint) so one slow world never becomes the
//! whole sweep's makespan by starting last.
//!
//! This is the only code in `crates/` that starts a thread: a simulated
//! world runs on the thread that drives it, so host parallelism exists only
//! across worlds (DESIGN.md §5 has the measurements). Hermetic by
//! construction: `std::thread::scope` only, no rayon.
//!
//! One knob: `BB_WORKERS=N` sets the worker count (default
//! `std::thread::available_parallelism()`). `BB_WORKERS=1` is the serial
//! path — a plain `map`, no thread spawned — and the reference order every
//! other value must reproduce byte for byte.

use bb_sim::SimDuration;
use std::collections::VecDeque;
use std::ffi::OsStr;
use std::sync::Mutex;

/// Standard cost hint for an experiment cell: node-count × duration.
///
/// Simulated work scales roughly with how many nodes exchange events for how
/// long, so this product predicts relative cell runtime well enough for
/// longest-processing-time dispatch (the classic LPT makespan heuristic).
/// Call sites whose cost is dominated by another knob (e.g. the request rate)
/// can scale the hint further; only the *ordering* of hints matters.
pub fn cost_hint(nodes: u32, duration: SimDuration) -> u64 {
    (nodes as u64).saturating_mul(duration.as_micros())
}

/// Decide how many workers to use for `cells` independent cells:
/// `BB_WORKERS` if set, otherwise `available_parallelism()`, clamped to
/// `cells`.
///
/// # Panics
/// If `BB_WORKERS` is set to anything but an integer ≥ 1 — it is the one
/// knob, so a mistyped "run serially" must not quietly become a parallel run.
pub fn workers_for(cells: usize) -> usize {
    let requested = match std::env::var_os("BB_WORKERS") {
        Some(raw) => parse_workers(&raw),
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    requested.min(cells).max(1)
}

/// The value of `BB_WORKERS` as a worker count (split from the environment
/// read so the rejection is testable without a process-global mutation that
/// concurrent tests would trip over).
fn parse_workers(raw: &OsStr) -> usize {
    raw.to_str()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| panic!("BB_WORKERS must be an integer >= 1, got {raw:?}"))
}

/// Run `f` over every input cell, possibly on several threads, and return
/// the results **in input order**.
///
/// With one worker (single core, one cell, or `BB_WORKERS=1`) this is a plain
/// serial `map` on the calling thread. With more workers, cells are pulled
/// from a shared queue (so a slow cell does not block the others behind a
/// static partition) and each result lands in its input-index slot; a worker
/// panic propagates out of the enclosing `thread::scope`.
pub fn map_cells<I, O, F>(inputs: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    map_cells_hinted(inputs.into_iter().map(|i| (0, i)).collect(), f)
}

/// LPT dispatch order: largest hint first, ties in input order (the sort is
/// stable), each cell tagged with its input index for slot collection.
fn dispatch_order<I>(inputs: Vec<(u64, I)>) -> VecDeque<(usize, I)> {
    let mut ordered: Vec<(usize, (u64, I))> = inputs.into_iter().enumerate().collect();
    ordered.sort_by_key(|&(_, (hint, _))| std::cmp::Reverse(hint));
    ordered.into_iter().map(|(idx, (_, i))| (idx, i)).collect()
}

/// [`map_cells`] with a per-cell cost hint: `(hint, input)` pairs.
///
/// Cells are *dispatched* longest-hint-first (LPT order — starting the
/// slowest worlds first bounds the makespan at ≤ 4/3 of optimal instead of
/// leaving a 90-second 20-node world to start last on an otherwise idle
/// pool), but results are still *collected* in input order, so rendered
/// tables stay byte-identical to the serial pass. Ties keep input order
/// (stable sort), which also makes `map_cells` (all hints zero) dispatch
/// exactly as before. Hints never reach `f`; the serial path ignores them
/// entirely.
pub fn map_cells_hinted<I, O, F>(inputs: Vec<(u64, I)>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let workers = workers_for(inputs.len());
    if workers <= 1 {
        return inputs.into_iter().map(|(_, i)| f(i)).collect();
    }

    let queue: Mutex<VecDeque<(usize, I)>> = Mutex::new(dispatch_order(inputs));
    let slots: Vec<Mutex<Option<O>>> = queue
        .lock()
        .unwrap()
        .iter()
        .map(|_| Mutex::new(None))
        .collect();
    let f = &f;

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let job = queue.lock().unwrap().pop_front();
                match job {
                    Some((idx, input)) => {
                        let out = f(input);
                        *slots[idx].lock().unwrap() = Some(out);
                    }
                    None => break,
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("worker completed every queued cell")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BB_WORKERS` is a process-global env var; tests that set it must not
    /// interleave. They only ever set valid values: other tests in this
    /// binary call `workers_for` concurrently.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn results_are_in_input_order() {
        let _guard = ENV_LOCK.lock().unwrap();
        // Vary per-cell work so completion order differs from input order.
        let inputs: Vec<u64> = (0..64).collect();
        std::env::set_var("BB_WORKERS", "4");
        let out = map_cells(inputs.clone(), |i| {
            let spin = (64 - i) * 500;
            let mut acc = 0u64;
            for k in 0..spin {
                acc = acc.wrapping_mul(31).wrapping_add(k);
            }
            std::hint::black_box(acc); // keep the spin, not the value
            i * 2
        });
        std::env::remove_var("BB_WORKERS");
        assert_eq!(out, inputs.iter().map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn workers_env_overrides_detection() {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("BB_WORKERS", "3");
        assert_eq!(workers_for(128), 3);
        // Clamped to the cell count.
        assert_eq!(workers_for(2), 2);
        assert_eq!(workers_for(0), 1);
        std::env::remove_var("BB_WORKERS");
    }

    #[test]
    fn one_worker_is_a_plain_map_on_the_calling_thread() {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("BB_WORKERS", "1");
        assert_eq!(workers_for(128), 1);
        let ran_on = map_cells(vec![(); 8], |()| std::thread::current().id());
        std::env::remove_var("BB_WORKERS");
        assert_eq!(ran_on, vec![std::thread::current().id(); 8]);
    }

    #[test]
    fn invalid_worker_counts_are_rejected_by_name() {
        assert_eq!(parse_workers(OsStr::new("1")), 1);
        assert_eq!(parse_workers(OsStr::new("3")), 3);
        for bad in ["0", "one", "", "-2", "4 "] {
            let panic = std::panic::catch_unwind(|| parse_workers(OsStr::new(bad)))
                .expect_err("invalid BB_WORKERS accepted");
            let message = panic.downcast_ref::<String>().expect("formatted panic message");
            assert!(
                message.contains("BB_WORKERS") && message.contains(&format!("{bad:?}")),
                "{bad:?}: {message}"
            );
        }
    }

    #[test]
    fn dispatch_is_longest_first_with_stable_ties() {
        let cells = vec![(3u64, 'a'), (9, 'b'), (3, 'c'), (12, 'd'), (9, 'e')];
        let order: Vec<char> = dispatch_order(cells).into_iter().map(|(_, c)| c).collect();
        assert_eq!(order, vec!['d', 'b', 'e', 'a', 'c']);
        // Zero hints (the plain `map_cells` wrapper) keep input order.
        let flat: Vec<usize> =
            dispatch_order(vec![(0u64, 0), (0, 1), (0, 2)]).into_iter().map(|(i, _)| i).collect();
        assert_eq!(flat, vec![0, 1, 2]);
    }

    #[test]
    fn hinted_results_stay_in_input_order() {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("BB_WORKERS", "4");
        // Hints deliberately anti-correlated with input order.
        let cells: Vec<(u64, u64)> = (0..32).map(|i| (32 - i, i)).collect();
        let out = map_cells_hinted(cells, |i| i * 3);
        std::env::remove_var("BB_WORKERS");
        assert_eq!(out, (0..32).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn cost_hint_orders_by_nodes_and_duration() {
        let small = cost_hint(8, SimDuration::from_secs(10));
        let more_nodes = cost_hint(20, SimDuration::from_secs(10));
        let longer = cost_hint(8, SimDuration::from_secs(90));
        assert!(more_nodes > small);
        assert!(longer > more_nodes);
    }

    #[test]
    fn single_cell_never_spawns() {
        assert_eq!(workers_for(1), 1);
        assert_eq!(workers_for(0), 1);
        let out = map_cells(vec![41], |x| x + 1);
        assert_eq!(out, vec![42]);
    }
}
