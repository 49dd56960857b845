//! Conservative (Chandy–Misra style) sharded discrete-event engine.
//!
//! [`Scheduler`](crate::Scheduler) runs one world on one thread. For the
//! cluster-scale platforms (PBFT, PoW, PoA) almost all simulated *work* —
//! transaction execution, block validation, trie hashing — happens inside a
//! single node's state, and nodes only interact through the network, whose
//! links have a non-zero minimum latency. That latency is *lookahead* in the
//! classic parallel-DES sense: an event executing at virtual time `t` cannot
//! affect another node before `t + lookahead`, so all events in the window
//! `[t_min, t_min + lookahead)` are causally independent across nodes and can
//! run on different cores.
//!
//! [`ShardedEngine`] exploits exactly that:
//!
//! - each node (*lane*) owns its event queue and its mutable state
//!   ([`ShardedWorld::Node`]);
//! - handlers get `&mut Node` plus a shared read-only [`ShardedWorld::Ctx`],
//!   and record cross-lane interactions (network sends, cross-lane schedules,
//!   counter bumps) in an [`Effects`] outbox instead of applying them;
//! - after every window the main thread merges all outboxes in one canonical
//!   order — the generating event's [`EventKey`] plus emission index — so the
//!   shared network RNG is consumed in an order independent of how lanes were
//!   interleaved across threads.
//!
//! Determinism therefore holds *by construction*: the serial path (0 helper
//! threads) and the parallel path run the same per-lane event order and the
//! same merge order, so every byte of every run statistic is identical. The
//! determinism tests in `tests/parallel_determinism.rs` pin this for all
//! three platforms across seeds.
//!
//! Environment knobs:
//! - `BB_SERIAL=1` — force the serial path (no helper threads at all).
//! - `BB_SHARD_THREADS=N` — force exactly N helper threads and bypass the
//!   global core-token pool; used to exercise the parallel path on
//!   single-core CI machines.

use crate::{SimDuration, SimTime};
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

/// Key class for events scheduled by the driver (between runs) or created at
/// a window merge: they sort *after* lane-local events at the same instant.
pub const GLOBAL_LANE: u32 = u32::MAX;

/// The canonical total order on events: `(time, lane-class, sequence)`.
///
/// Handler-local schedules carry their lane id; driver schedules and merged
/// network arrivals carry [`GLOBAL_LANE`]. Both modes of the engine execute
/// each lane's events in this order and merge outboxes in this order, which
/// is what makes thread interleaving unobservable.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct EventKey {
    /// Virtual time of the event.
    pub at: SimTime,
    /// Lane class (the scheduling lane, or [`GLOBAL_LANE`]).
    pub lane: u32,
    /// Tie-break within `(at, lane)`: per-lane (or global) insertion counter.
    pub seq: u64,
}

/// A world that can be sharded one-lane-per-node.
///
/// The contract that makes windows safe:
/// - `handle` may freely mutate its own `Node` and schedule same-lane events
///   at any `at >= now` via [`Effects::schedule`];
/// - everything cross-lane goes through the outbox: [`Effects::send`] for
///   network messages (delivery time is drawn at the merge) and
///   [`Effects::schedule_at`] for direct cross-lane schedules, which must be
///   at least one lookahead in the future;
/// - `Ctx` is read-only while the engine runs; the driver may mutate it
///   between `run_until` calls (fault injection flipping `crashed` flags).
pub trait ShardedWorld: 'static {
    /// Event type routed between lanes.
    type Event: Send + 'static;
    /// Per-lane mutable state.
    type Node: Send + 'static;
    /// Shared read-only context (configs, cost models, fault flags).
    type Ctx: Send + Sync + 'static;

    /// Which lane an event executes on.
    fn route(ctx: &Self::Ctx, event: &Self::Event) -> u32;

    /// Execute one event against its lane.
    fn handle(
        ctx: &Self::Ctx,
        lane: u32,
        node: &mut Self::Node,
        now: SimTime,
        event: Self::Event,
        fx: &mut Effects<Self::Event>,
    );
}

/// Where deferred cross-lane interactions wait for the window merge.
enum EmitKind<E> {
    /// A network message: delivery (and its RNG draws) happens at the merge.
    Send {
        to: u32,
        bytes: u64,
        build: Box<dyn FnOnce(SimTime) -> E + Send>,
    },
    /// A direct cross-lane schedule (must be `>= now + lookahead`).
    At { at: SimTime, event: E },
}

struct Emit<E> {
    /// Key of the generating event — the canonical merge sort key.
    gen_key: EventKey,
    /// Emission index within the generating event.
    idx: u32,
    /// Executing lane of the generating event (the network `from`).
    from: u32,
    kind: EmitKind<E>,
}

/// Outbox handed to [`ShardedWorld::handle`].
pub struct Effects<E> {
    key: EventKey,
    lane: u32,
    now: SimTime,
    emit_idx: u32,
    emits: Vec<Emit<E>>,
    local: Vec<(SimTime, E)>,
    counts: [u64; N_COUNTERS],
}

/// Number of generic observer counters a world may bump (e.g. blocks mined).
pub const N_COUNTERS: usize = 4;

impl<E> Effects<E> {
    fn new(key: EventKey, lane: u32, now: SimTime) -> Effects<E> {
        Effects {
            key,
            lane,
            now,
            emit_idx: 0,
            emits: Vec::new(),
            local: Vec::new(),
            counts: [0; N_COUNTERS],
        }
    }

    /// An outbox attached to no engine, for driving a node's handlers by
    /// hand: unit tests of node logic need neither an engine nor a network.
    pub fn detached(lane: u32, now: SimTime) -> Effects<E> {
        Effects::new(EventKey { at: now, lane, seq: 0 }, lane, now)
    }

    /// Take every message sent so far as `(to, bytes, event)`, each event
    /// built as if it arrived at `arrival` (the detached counterpart of the
    /// window merge; cross-lane schedules stay queued).
    pub fn take_sends(&mut self, arrival: SimTime) -> Vec<(u32, u64, E)> {
        let mut sends = Vec::new();
        for emit in std::mem::take(&mut self.emits) {
            match emit.kind {
                EmitKind::Send { to, bytes, build } => sends.push((to, bytes, build(arrival))),
                kind => self.emits.push(Emit { kind, ..emit }),
            }
        }
        sends
    }

    /// Virtual time of the event being handled.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The lane this event executes on.
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// Schedule a follow-up event on the *same* lane (may be inside the
    /// current window — the lane drains its queue in key order).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "schedule into the past: {at:?} < {:?}", self.now);
        self.local.push((at, event));
    }

    /// Send `bytes` to lane `to` over the network. Delivery time, loss and
    /// corruption are decided at the window merge (in canonical order);
    /// `build` turns the arrival time into the event to deliver.
    pub fn send(
        &mut self,
        to: u32,
        bytes: u64,
        build: impl FnOnce(SimTime) -> E + Send + 'static,
    ) {
        self.emits.push(Emit {
            gen_key: self.key,
            idx: self.emit_idx,
            from: self.lane,
            kind: EmitKind::Send { to, bytes, build: Box::new(build) },
        });
        self.emit_idx += 1;
    }

    /// Schedule an event that may land on *another* lane. Must be at least
    /// one lookahead ahead of `now` (asserted at the merge); routed with the
    /// then-current `Ctx`.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.emits.push(Emit {
            gen_key: self.key,
            idx: self.emit_idx,
            from: self.lane,
            kind: EmitKind::At { at, event },
        });
        self.emit_idx += 1;
    }

    /// Bump observer counter `i` (summed at the merge; order-free).
    pub fn count(&mut self, i: usize, by: u64) {
        self.counts[i] += by;
    }
}

/// The merge-side network: turns a send into `Some(arrival)` or a drop.
/// `bb-net`'s `Network` implements this (delivered and not corrupted).
pub trait Outboard {
    /// Attempt delivery of `bytes` from `from` to `to` sent at `now`.
    fn send(&mut self, now: SimTime, from: u32, to: u32, bytes: u64) -> Option<SimTime>;
}

struct Entry<E> {
    key: EventKey,
    event: E,
}

// Min-heap on the canonical key (BinaryHeap is a max-heap).
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key.cmp(&self.key)
    }
}

struct Slot<W: ShardedWorld> {
    heap: BinaryHeap<Entry<W::Event>>,
    node: W::Node,
    /// Per-lane insertion counter for handler-local schedules.
    seq: u64,
    /// Outbox drained by the merge.
    emits: Vec<Emit<W::Event>>,
    counts: [u64; N_COUNTERS],
}

/// What the main thread publishes to launch a window. A helper reads the
/// window end and takes its place in the window under the one lock that
/// guards all three fields, so the two always belong to the same epoch: a
/// helper can never drain a lane of window N+1 up to window N's end.
struct Dispatch {
    /// Window generation.
    epoch: u64,
    /// End of the window (exclusive).
    wend: SimTime,
    /// Helpers that may still join this window.
    claims: usize,
}

impl Dispatch {
    /// Join the published window if it is newer than `seen` and has a place
    /// left; returns its end. Either way the window counts as seen.
    fn claim(&mut self, seen: &mut u64) -> Option<SimTime> {
        if self.epoch == *seen {
            return None;
        }
        *seen = self.epoch;
        self.claims = self.claims.checked_sub(1)?;
        Some(self.wend)
    }
}

struct Shared<W: ShardedWorld> {
    slots: Vec<Mutex<Slot<W>>>,
    ctx: RwLock<W::Ctx>,
    /// Mirror of `start`'s epoch (stored under its mutex) that idle helpers
    /// spin on without taking the lock.
    epoch: AtomicU64,
    /// Window dispatch state published to helpers.
    start: Mutex<Dispatch>,
    start_cv: Condvar,
    /// Lanes active this window; claimed via `next_active`.
    active: Mutex<Vec<u32>>,
    next_active: AtomicUsize,
    /// Helpers that finished their participation this window.
    done: AtomicUsize,
    done_mx: Mutex<()>,
    done_cv: Condvar,
    shutdown: AtomicBool,
}

/// Global core-token pool shared by the experiment runner (`map_cells`) and
/// every engine's helper threads, so intra-world parallelism soaks up cores
/// exactly when per-world scattering leaves them idle (the long-pole cell at
/// the end of a figure sweep) instead of oversubscribing the host.
pub mod tokens {
    use super::*;

    static TOKENS: AtomicIsize = AtomicIsize::new(-1);

    fn pool() -> &'static AtomicIsize {
        // Lazy init: total = cores - 1 (the calling thread owns its core).
        if TOKENS.load(Ordering::Relaxed) == -1 {
            let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
            let _ = TOKENS.compare_exchange(
                -1,
                cores as isize - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
        &TOKENS
    }

    /// Take up to `want` tokens; returns how many were actually taken.
    pub fn acquire_up_to(want: usize) -> usize {
        if want == 0 {
            return 0;
        }
        let pool = pool();
        let mut cur = pool.load(Ordering::Relaxed);
        loop {
            let take = cur.max(0).min(want as isize);
            if take == 0 {
                return 0;
            }
            match pool.compare_exchange_weak(
                cur,
                cur - take,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return take as usize,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Return `n` previously acquired tokens.
    pub fn release(n: usize) {
        if n > 0 {
            pool().fetch_add(n as isize, Ordering::Relaxed);
        }
    }
}

/// How many helper threads an engine for `lanes` lanes should spawn.
fn helper_count(lanes: usize) -> usize {
    if std::env::var("BB_SERIAL").map(|v| v == "1").unwrap_or(false) {
        return 0;
    }
    if let Some(n) = std::env::var("BB_SHARD_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
        return n.min(lanes.saturating_sub(1));
    }
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    cores.saturating_sub(1).min(lanes.saturating_sub(1))
}

/// The conservative sharded scheduler. One instance per simulated world;
/// helper threads are spawned once and parked between windows.
pub struct ShardedEngine<W: ShardedWorld> {
    shared: Arc<Shared<W>>,
    helpers: Vec<std::thread::JoinHandle<()>>,
    /// `BB_SHARD_THREADS` set: bypass the token pool (determinism tests on
    /// single-core hosts must still exercise the parallel path).
    forced: bool,
    lookahead: SimDuration,
    now: SimTime,
    /// Global insertion counter for driver- and merge-scheduled events.
    main_seq: u64,
    counters: [u64; N_COUNTERS],
}

impl<W: ShardedWorld> ShardedEngine<W> {
    /// Build an engine over per-lane nodes with the given lookahead (the
    /// minimum cross-lane network latency; see `Network::min_latency`).
    pub fn new(ctx: W::Ctx, nodes: Vec<W::Node>, lookahead: SimDuration) -> ShardedEngine<W> {
        assert!(lookahead > SimDuration::ZERO, "zero lookahead makes windows degenerate");
        let lanes = nodes.len();
        let shared = Arc::new(Shared {
            slots: nodes
                .into_iter()
                .map(|node| {
                    Mutex::new(Slot {
                        heap: BinaryHeap::new(),
                        node,
                        seq: 0,
                        emits: Vec::new(),
                        counts: [0; N_COUNTERS],
                    })
                })
                .collect(),
            ctx: RwLock::new(ctx),
            epoch: AtomicU64::new(0),
            start: Mutex::new(Dispatch { epoch: 0, wend: SimTime::ZERO, claims: 0 }),
            start_cv: Condvar::new(),
            active: Mutex::new(Vec::new()),
            next_active: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            done_mx: Mutex::new(()),
            done_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let forced = std::env::var("BB_SHARD_THREADS").is_ok()
            && !std::env::var("BB_SERIAL").map(|v| v == "1").unwrap_or(false);
        let helpers = (0..helper_count(lanes))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || helper_main(shared))
            })
            .collect();
        ShardedEngine {
            shared,
            helpers,
            forced,
            lookahead,
            now: SimTime::ZERO,
            main_seq: 0,
            counters: [0; N_COUNTERS],
        }
    }

    /// Current virtual time (between `run_until` calls).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The engine's lookahead (minimum cross-lane latency).
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.shared.slots.len()
    }

    /// Schedule an event from the driver (engine quiescent). Routed with the
    /// current `Ctx`; sorts in the [`GLOBAL_LANE`] class.
    pub fn schedule(&mut self, at: SimTime, event: W::Event) {
        assert!(at >= self.now, "schedule into the past: {at:?} < {:?}", self.now);
        let lane = {
            let ctx = self.shared.ctx.read().unwrap();
            W::route(&ctx, &event)
        };
        let key = EventKey { at, lane: GLOBAL_LANE, seq: self.main_seq };
        self.main_seq += 1;
        self.shared.slots[lane as usize].lock().unwrap().heap.push(Entry { key, event });
    }

    /// Read-only access to the shared context.
    pub fn with_ctx<R>(&self, f: impl FnOnce(&W::Ctx) -> R) -> R {
        f(&self.shared.ctx.read().unwrap())
    }

    /// Mutate the shared context (only legal between `run_until` calls —
    /// fault injection, contract deployment).
    pub fn with_ctx_mut<R>(&mut self, f: impl FnOnce(&mut W::Ctx) -> R) -> R {
        f(&mut self.shared.ctx.write().unwrap())
    }

    /// Read a lane's node (engine quiescent).
    pub fn with_node<R>(&self, lane: u32, f: impl FnOnce(&W::Node) -> R) -> R {
        f(&self.shared.slots[lane as usize].lock().unwrap().node)
    }

    /// Mutate a lane's node (engine quiescent).
    pub fn with_node_mut<R>(&mut self, lane: u32, f: impl FnOnce(&mut W::Node) -> R) -> R {
        f(&mut self.shared.slots[lane as usize].lock().unwrap().node)
    }

    /// Read the context and mutate a lane's node together (engine
    /// quiescent) — for connector paths like queries that execute against
    /// one node's state using shared read-only machinery (VM, cost model).
    pub fn with_ctx_node_mut<R>(
        &mut self,
        lane: u32,
        f: impl FnOnce(&W::Ctx, &mut W::Node) -> R,
    ) -> R {
        let ctx = self.shared.ctx.read().unwrap();
        f(&ctx, &mut self.shared.slots[lane as usize].lock().unwrap().node)
    }

    /// Read observer counter `i`.
    pub fn counter(&self, i: usize) -> u64 {
        self.counters[i]
    }

    /// Bump observer counter `i` from the driver (preloads etc.).
    pub fn bump_counter(&mut self, i: usize, by: u64) {
        self.counters[i] += by;
    }

    fn min_next(&self) -> Option<SimTime> {
        let mut min = None;
        for slot in &self.shared.slots {
            if let Some(e) = slot.lock().unwrap().heap.peek() {
                min = Some(min.map_or(e.key.at, |m: SimTime| m.min(e.key.at)));
            }
        }
        min
    }

    /// Run the world up to and including `deadline`, then set `now` to it
    /// (matching `Scheduler::run_until` semantics; `SimTime::MAX` drains
    /// without advancing the clock past the last event).
    pub fn run_until(&mut self, deadline: SimTime, out: &mut impl Outboard) {
        loop {
            let Some(min_at) = self.min_next() else { break };
            if min_at > deadline {
                break;
            }
            // Half-open window [min_at, wend): any cross-lane effect of an
            // event at t >= min_at lands at >= min_at + lookahead >= wend,
            // so in-window events are causally independent across lanes.
            let wend = min_at
                .saturating_add(self.lookahead)
                .min(deadline.saturating_add(SimDuration::from_micros(1)));
            let mut active: Vec<u32> = Vec::new();
            for (i, slot) in self.shared.slots.iter().enumerate() {
                if let Some(e) = slot.lock().unwrap().heap.peek() {
                    if e.key.at < wend {
                        active.push(i as u32);
                    }
                }
            }
            self.run_window(&active, wend);
            self.now = wend.min(deadline);
            self.merge(out);
        }
        if deadline != SimTime::MAX {
            self.now = deadline;
        }
    }

    fn run_window(&mut self, active: &[u32], wend: SimTime) {
        let helpers = self.helpers.len();
        let want = helpers.min(active.len().saturating_sub(1));
        let got = if want == 0 {
            0
        } else if self.forced {
            want
        } else {
            tokens::acquire_up_to(want)
        };
        if got == 0 {
            // Serial path: same per-lane drain, same merge — byte-identical.
            let ctx = self.shared.ctx.read().unwrap();
            for &lane in active {
                let mut slot = self.shared.slots[lane as usize].lock().unwrap();
                drain_lane::<W>(&mut slot, &ctx, lane, wend);
            }
            return;
        }

        let sh = &self.shared;
        *sh.active.lock().unwrap() = active.to_vec();
        sh.next_active.store(0, Ordering::Relaxed);
        sh.done.store(0, Ordering::Relaxed);
        {
            let mut start = sh.start.lock().unwrap();
            start.epoch += 1;
            start.wend = wend;
            start.claims = got;
            sh.epoch.store(start.epoch, Ordering::Release);
            sh.start_cv.notify_all();
        }
        // The main thread is a participant too.
        {
            let ctx = sh.ctx.read().unwrap();
            participate::<W>(sh, &ctx, wend);
        }
        // Wait for the `got` engaged helpers to check in.
        {
            let mut guard = sh.done_mx.lock().unwrap();
            while sh.done.load(Ordering::Acquire) < got {
                let (g, _) = sh
                    .done_cv
                    .wait_timeout(guard, std::time::Duration::from_millis(1))
                    .unwrap();
                guard = g;
            }
        }
        if !self.forced {
            tokens::release(got);
        }
    }

    fn merge(&mut self, out: &mut impl Outboard) {
        let sh = Arc::clone(&self.shared);
        let mut emits: Vec<Emit<W::Event>> = Vec::new();
        for slot in &sh.slots {
            let mut slot = slot.lock().unwrap();
            emits.append(&mut slot.emits);
            for i in 0..N_COUNTERS {
                self.counters[i] += slot.counts[i];
                slot.counts[i] = 0;
            }
        }
        // Canonical order: generating event key, then emission index. This
        // is the only place the shared network RNG is consumed, so delivery
        // randomness cannot depend on thread interleaving.
        emits.sort_by_key(|e| (e.gen_key, e.idx));
        let ctx = sh.ctx.read().unwrap();
        for emit in emits {
            let sent_at = emit.gen_key.at;
            match emit.kind {
                EmitKind::Send { to, bytes, build } => {
                    if let Some(at) = out.send(sent_at, emit.from, to, bytes) {
                        assert!(
                            at >= sent_at + self.lookahead,
                            "network delivered under lookahead: {sent_at:?} -> {at:?}"
                        );
                        let event = build(at);
                        let lane = W::route(&ctx, &event);
                        let key = EventKey { at, lane: GLOBAL_LANE, seq: self.main_seq };
                        self.main_seq += 1;
                        sh.slots[lane as usize].lock().unwrap().heap.push(Entry { key, event });
                    }
                }
                EmitKind::At { at, event } => {
                    assert!(
                        at >= sent_at + self.lookahead,
                        "cross-lane schedule under lookahead: {sent_at:?} -> {at:?}"
                    );
                    let lane = W::route(&ctx, &event);
                    let key = EventKey { at, lane: GLOBAL_LANE, seq: self.main_seq };
                    self.main_seq += 1;
                    sh.slots[lane as usize].lock().unwrap().heap.push(Entry { key, event });
                }
            }
        }
    }
}

impl<W: ShardedWorld> Drop for ShardedEngine<W> {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.shared.start.lock().unwrap();
            self.shared.start_cv.notify_all();
        }
        for h in self.helpers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Drain one lane's in-window events: pop in key order, run the handler,
/// apply same-lane schedules immediately, stash cross-lane effects for the
/// merge.
fn drain_lane<W: ShardedWorld>(slot: &mut Slot<W>, ctx: &W::Ctx, lane: u32, wend: SimTime) {
    while let Some(head) = slot.heap.peek() {
        if head.key.at >= wend {
            break;
        }
        let entry = slot.heap.pop().expect("peeked entry pops");
        let now = entry.key.at;
        let mut fx = Effects::new(entry.key, lane, now);
        W::handle(ctx, lane, &mut slot.node, now, entry.event, &mut fx);
        for (at, event) in fx.local.drain(..) {
            debug_assert_eq!(
                W::route(ctx, &event),
                lane,
                "Effects::schedule used for a cross-lane event"
            );
            let key = EventKey { at, lane, seq: slot.seq };
            slot.seq += 1;
            slot.heap.push(Entry { key, event });
        }
        slot.emits.append(&mut fx.emits);
        for i in 0..N_COUNTERS {
            slot.counts[i] += fx.counts[i];
        }
    }
}

/// Claim lanes from the active list until none remain.
fn participate<W: ShardedWorld>(sh: &Shared<W>, ctx: &W::Ctx, wend: SimTime) {
    loop {
        let i = sh.next_active.fetch_add(1, Ordering::Relaxed);
        let lane = {
            let active = sh.active.lock().unwrap();
            match active.get(i) {
                Some(&lane) => lane,
                None => break,
            }
        };
        let mut slot = sh.slots[lane as usize].lock().unwrap();
        drain_lane::<W>(&mut slot, ctx, lane, wend);
    }
}

fn helper_main<W: ShardedWorld>(sh: Arc<Shared<W>>) {
    let mut seen_epoch = 0u64;
    loop {
        // Wait for a window with a place for this helper (spin briefly,
        // then park). Only `claims` helpers join a window; the rest keep
        // waiting for the next one.
        let mut spins = 0u32;
        let wend = loop {
            if sh.shutdown.load(Ordering::Acquire) {
                return;
            }
            if sh.epoch.load(Ordering::Acquire) != seen_epoch {
                if let Some(wend) = sh.start.lock().unwrap().claim(&mut seen_epoch) {
                    break wend;
                }
                continue;
            }
            spins += 1;
            if spins < 4096 {
                std::hint::spin_loop();
                continue;
            }
            // Check under the lock before parking, so a window published
            // in between is not slept through; after waking, the top of the
            // loop looks again.
            let mut start = sh.start.lock().unwrap();
            if let Some(wend) = start.claim(&mut seen_epoch) {
                break wend;
            }
            drop(sh.start_cv.wait_timeout(start, std::time::Duration::from_millis(5)).unwrap());
        };
        {
            let ctx = sh.ctx.read().unwrap();
            participate::<W>(&sh, &ctx, wend);
        }
        let _guard = sh.done_mx.lock().unwrap();
        sh.done.fetch_add(1, Ordering::AcqRel);
        sh.done_cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Engine construction reads process-global env vars; tests that build
    /// engines must not interleave with tests that mutate them.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    /// A toy world: each lane counts pings; a ping to lane L schedules a
    /// local echo and sends a pong to lane (L+1) % n.
    struct Ring;

    #[derive(Debug)]
    enum Ping {
        Ping { to: u32, hops: u32 },
        Echo { to: u32 },
    }

    struct RingNode {
        pings: u64,
        echoes: u64,
        log: Vec<(SimTime, u32)>,
    }

    struct RingCtx {
        lanes: u32,
    }

    impl ShardedWorld for Ring {
        type Event = Ping;
        type Node = RingNode;
        type Ctx = RingCtx;

        fn route(_ctx: &RingCtx, event: &Ping) -> u32 {
            match event {
                Ping::Ping { to, .. } | Ping::Echo { to } => *to,
            }
        }

        fn handle(
            ctx: &RingCtx,
            lane: u32,
            node: &mut RingNode,
            now: SimTime,
            event: Ping,
            fx: &mut Effects<Ping>,
        ) {
            match event {
                Ping::Ping { to, hops } => {
                    node.pings += 1;
                    node.log.push((now, hops));
                    fx.schedule(now + SimDuration::from_micros(3), Ping::Echo { to });
                    if hops > 0 {
                        let next = (lane + 1) % ctx.lanes;
                        fx.send(next, 100, move |at| {
                            let _ = at;
                            Ping::Ping { to: next, hops: hops - 1 }
                        });
                    }
                    fx.count(0, 1);
                }
                Ping::Echo { .. } => node.echoes += 1,
            }
        }
    }

    /// Fixed-latency outboard: no RNG, but exercises the merge path.
    struct FixedNet {
        latency: SimDuration,
        sends: u64,
    }

    impl Outboard for FixedNet {
        fn send(&mut self, now: SimTime, _from: u32, _to: u32, _bytes: u64) -> Option<SimTime> {
            self.sends += 1;
            Some(now + self.latency)
        }
    }

    fn run_ring(lanes: u32, hops: u32) -> (Vec<(u64, u64, Vec<(SimTime, u32)>)>, u64, u64) {
        let nodes = (0..lanes)
            .map(|_| RingNode { pings: 0, echoes: 0, log: Vec::new() })
            .collect();
        let mut engine: ShardedEngine<Ring> =
            ShardedEngine::new(RingCtx { lanes }, nodes, SimDuration::from_micros(500));
        let mut net = FixedNet { latency: SimDuration::from_micros(700), sends: 0 };
        for l in 0..lanes {
            engine.schedule(SimTime(10 + l as u64), Ping::Ping { to: l, hops });
        }
        engine.run_until(SimTime::from_secs(1), &mut net);
        let mut out = Vec::new();
        for l in 0..lanes {
            out.push(engine.with_node(l, |n| (n.pings, n.echoes, n.log.clone())));
        }
        (out, engine.counter(0), net.sends)
    }

    #[test]
    fn ring_counts_all_hops() {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (nodes, counter, sends) = run_ring(4, 8);
        let pings: u64 = nodes.iter().map(|n| n.0).sum();
        // 4 initial pings, each travelling 8 further hops.
        assert_eq!(pings, 4 * 9);
        assert_eq!(counter, pings);
        assert_eq!(sends, 4 * 8);
        let echoes: u64 = nodes.iter().map(|n| n.1).sum();
        assert_eq!(echoes, pings);
    }

    #[test]
    fn serial_and_forced_parallel_agree() {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let serial = {
            std::env::set_var("BB_SERIAL", "1");
            let r = run_ring(5, 13);
            std::env::remove_var("BB_SERIAL");
            r
        };
        let parallel = {
            std::env::set_var("BB_SHARD_THREADS", "3");
            let r = run_ring(5, 13);
            std::env::remove_var("BB_SHARD_THREADS");
            r
        };
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    }

    /// Latency depends on how many sends the merge made before this one —
    /// like the real network's shared RNG, it makes merge order observable.
    struct OrderNet {
        sends: u64,
    }

    impl Outboard for OrderNet {
        fn send(&mut self, now: SimTime, _from: u32, _to: u32, _bytes: u64) -> Option<SimTime> {
            self.sends += 1;
            Some(now + SimDuration::from_micros(700 + self.sends * 37 % 101))
        }
    }

    /// Driver pings on a 1 ms grid, alternately to lanes 0-1 only and to
    /// every lane, each travelling two hops.
    fn run_alternating(lanes: u32, slots: u64) -> Vec<Vec<(SimTime, u32)>> {
        let nodes = (0..lanes)
            .map(|_| RingNode { pings: 0, echoes: 0, log: Vec::new() })
            .collect();
        let mut engine: ShardedEngine<Ring> =
            ShardedEngine::new(RingCtx { lanes }, nodes, SimDuration::from_micros(500));
        for slot in 0..slots {
            let hit = if slot % 2 == 0 { 2 } else { lanes };
            for to in 0..hit {
                engine.schedule(SimTime(10 + slot * 1000 + to as u64), Ping::Ping { to, hops: 2 });
            }
        }
        engine.run_until(SimTime::from_secs(1), &mut OrderNet { sends: 0 });
        (0..lanes).map(|l| engine.with_node(l, |n| n.log.clone())).collect()
    }

    /// A window with fewer places than helpers leaves helpers behind that
    /// saw its end but did not join it. None of them may join the next
    /// window with that stale end: the lane it took would go undrained, run
    /// a window late and merge its sends out of order. Windows here
    /// alternate between 2 active lanes (1 place, 7 helpers) and all 8; the
    /// helpers contending for the dispatch lock are what makes one of them
    /// slow enough to be overtaken (5-8 of 300 runs without the fix).
    #[test]
    fn helper_never_joins_a_window_with_a_stale_end() {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var("BB_SERIAL", "1");
        let serial = run_alternating(8, 40);
        std::env::remove_var("BB_SERIAL");
        std::env::set_var("BB_SHARD_THREADS", "7");
        let diverged = (0..300).filter(|_| run_alternating(8, 40) != serial).count();
        std::env::remove_var("BB_SHARD_THREADS");
        assert_eq!(diverged, 0, "of 300 sharded runs diverged from the serial log");
    }

    #[test]
    fn run_until_advances_clock_to_deadline() {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut engine: ShardedEngine<Ring> = ShardedEngine::new(
            RingCtx { lanes: 1 },
            vec![RingNode { pings: 0, echoes: 0, log: Vec::new() }],
            SimDuration::from_micros(500),
        );
        let mut net = FixedNet { latency: SimDuration::from_micros(700), sends: 0 };
        engine.run_until(SimTime::from_secs(2), &mut net);
        assert_eq!(engine.now(), SimTime::from_secs(2));
    }
}
