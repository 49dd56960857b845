//! The discrete-event engine: one lane per node, one heap of keyed events.
//!
//! For the cluster-scale platforms (PBFT, PoW, PoA) almost all simulated
//! *work* — transaction execution, block validation, trie hashing — happens
//! inside a single node's state, and nodes only interact through the
//! network. [`ShardedEngine`] makes that the *model*:
//!
//! - each node (*lane*) owns its mutable state ([`ShardedWorld::Node`]);
//! - handlers get `&mut Node` plus a shared read-only [`ShardedWorld::Ctx`],
//!   and record everything that leaves the lane (network sends, cross-lane
//!   schedules, counter bumps) in an [`Effects`] outbox — a handler cannot
//!   reach the network or another lane;
//! - the engine pops events in [`EventKey`] order and applies each handler's
//!   outbox as the handler returns, in emission order — the only place the
//!   shared network RNG is consumed.
//!
//! The heap holds only keys: a 32-byte entry of key, lane and slot, whatever
//! the event's size. The events wait in a slab beside it whose freed slots
//! are reused, so a world's slab is as long as its most events ever queued at
//! once. A send's event is built when the handler sends it; the network only
//! decides whether and when it arrives.
//!
//! So the event order is one sentence: events run in `(time, lane-class,
//! sequence)` order, and an event's sends are delivered, in the order it made
//! them, before the next event runs. Every committed `results/*.csv` depends
//! on that order, so it is pinned by value (the `merge_order` tests below)
//! and by replay (`tests/parallel_determinism.rs`).
//!
//! "Sharded" means lanes, not threads: a world runs on the thread that calls
//! [`ShardedEngine::run_until`] and no host property can reach a result. Host
//! parallelism lives one level up, across independent worlds
//! (`bb-bench::parallel`); DESIGN.md §5 has the measurements behind that.

use crate::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::{Arc, Mutex};

/// Key class for events scheduled by the driver (between runs) or created
/// when an outbox is applied (network arrivals, cross-lane schedules): they
/// sort *after* lane-local events at the same instant.
const GLOBAL_LANE: u32 = u32::MAX;

/// The canonical total order on events: `(time, lane-class, sequence)`.
///
/// Handler-local schedules carry their lane id and draw `seq` from their
/// lane's counter; driver schedules, network arrivals and cross-lane
/// schedules carry [`GLOBAL_LANE`] and draw it from the engine's. Keys are
/// unique, so a run is a function of its inputs alone.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct EventKey {
    at: SimTime,
    lane: u32,
    seq: u64,
}

/// A world with one lane per node.
///
/// The contract that keeps lanes independent of each other:
/// - `handle` may freely mutate its own `Node` and schedule same-lane events
///   at any `at >= now` via [`Effects::schedule`];
/// - everything cross-lane goes through the outbox: [`Effects::send`] for
///   network messages (delivery time is drawn when the handler returns) and
///   [`Effects::schedule_at`] for direct cross-lane schedules, which must be
///   at least one lookahead in the future;
/// - `Ctx` is read-only while the engine runs; the driver may mutate it
///   between `run_until` calls (fault injection flipping `crashed` flags).
///   The one exception is a cache of a pure function of lane state behind
///   interior mutability: a lane may fill it and any lane read it, because
///   a hit is exactly what the reading lane would have computed, so no
///   result depends on which lane filled it or when.
///
/// The `Send` bounds make every engine `Send`: a world is a plain value the
/// experiment runner may hand to one of its worker threads.
pub trait ShardedWorld: 'static {
    /// Event type routed between lanes.
    type Event: Send + 'static;
    /// Per-lane mutable state.
    type Node: Send + 'static;
    /// Shared context (configs, cost models, fault flags, caches of pure
    /// functions), read-only but for those caches.
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

/// How many outcomes a [`RecentOutcomes`] keeps: the lanes of a world
/// compute one outcome within a few blocks of each other, and an outcome
/// may hold a block's writes.
pub const OUTCOMES_KEPT: usize = 8;

/// The last [`OUTCOMES_KEPT`] outcomes of a pure function of lane state, by
/// the key of everything the function reads, oldest first: the cache a
/// [`ShardedWorld::Ctx`] may hold. A world runs on one thread, so the lock
/// is never contended; it is there because the context is shared.
pub struct RecentOutcomes<K, V> {
    kept: Mutex<VecDeque<(K, Arc<V>)>>,
}

impl<K, V> Default for RecentOutcomes<K, V> {
    fn default() -> Self {
        RecentOutcomes { kept: Mutex::new(VecDeque::with_capacity(OUTCOMES_KEPT)) }
    }
}

impl<K: PartialEq, V> RecentOutcomes<K, V> {
    fn kept(&self) -> std::sync::MutexGuard<'_, VecDeque<(K, Arc<V>)>> {
        self.kept.lock().expect("no holder of the outcomes panicked")
    }

    /// The outcome kept under `key`, if any.
    pub fn find(&self, key: &K) -> Option<Arc<V>> {
        self.kept().iter().find(|(k, _)| k == key).map(|(_, v)| Arc::clone(v))
    }

    /// Keep `outcome` under `key`, dropping the oldest when full.
    pub fn keep(&self, key: K, outcome: Arc<V>) {
        let mut kept = self.kept();
        if kept.len() == OUTCOMES_KEPT {
            kept.pop_front();
        }
        kept.push_back((key, outcome));
    }

    /// How many outcomes are kept.
    pub fn len(&self) -> usize {
        self.kept().len()
    }

    /// Is nothing kept?
    pub fn is_empty(&self) -> bool {
        self.kept().is_empty()
    }
}

/// A cross-lane interaction waiting in an outbox for its handler to return.
enum Emit<E> {
    /// A network message: delivery (and its RNG draws) happens on return.
    Send { to: u32, bytes: u64, event: E },
    /// A direct cross-lane schedule (must be `>= now + lookahead`).
    At { at: SimTime, event: E },
}

/// Outbox handed to [`ShardedWorld::handle`].
pub struct Effects<E> {
    lane: u32,
    now: SimTime,
    emits: Vec<Emit<E>>,
    local: Vec<(SimTime, E)>,
    counts: [u64; N_COUNTERS],
}

/// Number of generic observer counters a world may bump (e.g. blocks mined).
pub const N_COUNTERS: usize = 4;

impl<E> Effects<E> {
    /// An empty outbox for an event on `lane` at `now`, attached to no
    /// engine: unit tests of node logic make their own and drive a node's
    /// handlers by hand, with neither an engine nor a network.
    pub fn detached(lane: u32, now: SimTime) -> Effects<E> {
        Effects { lane, now, emits: Vec::new(), local: Vec::new(), counts: [0; N_COUNTERS] }
    }

    /// Take every message sent so far as `(to, bytes, event)`, each event as
    /// it was built at its send (what the engine does with a returned outbox,
    /// minus the network; cross-lane schedules stay queued).
    pub fn take_sends(&mut self) -> Vec<(u32, u64, E)> {
        let mut sends = Vec::new();
        for emit in std::mem::take(&mut self.emits) {
            match emit {
                Emit::Send { to, bytes, event } => sends.push((to, bytes, event)),
                schedule => self.emits.push(schedule),
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

    /// Schedule a follow-up event on the *same* lane, at `now` or later.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "schedule into the past: {at:?} < {:?}", self.now);
        self.local.push((at, event));
    }

    /// Send `bytes` to lane `to` over the network. `build` runs once, here,
    /// with the send instant, and its event waits in the outbox; delivery
    /// time, loss and corruption are decided when the handler returns, in
    /// emission order.
    pub fn send(&mut self, to: u32, bytes: u64, build: impl FnOnce(SimTime) -> E) {
        let event = build(self.now);
        self.emits.push(Emit::Send { to, bytes, event });
    }

    /// Schedule an event that may land on *another* lane. Must be at least
    /// one lookahead ahead of `now` (asserted when the handler returns);
    /// routed with the then-current `Ctx`.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.emits.push(Emit::At { at, event });
    }

    /// Bump observer counter `i` (summed on return; order-free).
    pub fn count(&mut self, i: usize, by: u64) {
        self.counts[i] += by;
    }
}

/// The engine-side network: turns a send into `Some(arrival)` or a drop.
/// `bb-net`'s `Network` implements this (delivered and not corrupted).
pub trait Outboard {
    /// Attempt delivery of `bytes` from `from` to `to` sent at `now`.
    fn send(&mut self, now: SimTime, from: u32, to: u32, bytes: u64) -> Option<SimTime>;
}

/// A queued event's place in the heap: its key, the lane it executes on
/// (routed when it was queued) and its slot in the [`Queue`]'s slab. Keys
/// are unique, so the lane and slot never decide the order.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    key: EventKey,
    lane: u32,
    slot: u32,
}

/// The queued events: a min-heap of keys over a slab of events. A sift
/// moves 32-byte entries, never an event; a popped event leaves its slot
/// free for the next one queued.
struct Queue<E> {
    heap: BinaryHeap<Reverse<Entry>>,
    slab: Vec<Option<E>>,
    free: Vec<u32>,
}

impl<E> Queue<E> {
    fn push(&mut self, key: EventKey, lane: u32, event: E) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push(None);
            u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 events queued")
        });
        self.slab[slot as usize] = Some(event);
        self.heap.push(Reverse(Entry { key, lane, slot }));
    }

    /// The lowest-keyed event if it is due by `deadline`, taken out of its
    /// slot, with its key and lane.
    fn pop_due(&mut self, deadline: SimTime) -> Option<(EventKey, u32, E)> {
        if self.heap.peek()?.0.key.at > deadline {
            return None;
        }
        let Reverse(Entry { key, lane, slot }) = self.heap.pop().expect("peeked entry pops");
        self.free.push(slot);
        let event = self.slab[slot as usize].take().expect("a queued slot holds its event");
        Some((key, lane, event))
    }
}

/// One node's state.
struct Lane<W: ShardedWorld> {
    node: W::Node,
    /// Insertion counter for handler-local schedules.
    seq: u64,
}

/// The event loop. One instance per simulated world.
pub struct ShardedEngine<W: ShardedWorld> {
    lanes: Vec<Lane<W>>,
    queue: Queue<W::Event>,
    ctx: W::Ctx,
    /// Floor under the delay of every cross-lane effect.
    lookahead: SimDuration,
    now: SimTime,
    /// Global insertion counter for driver schedules and applied outboxes.
    main_seq: u64,
    counters: [u64; N_COUNTERS],
}

impl<W: ShardedWorld> ShardedEngine<W> {
    /// Build an engine over per-lane nodes. `lookahead` is the minimum
    /// cross-lane latency (see `Network::min_latency`): a delivery or
    /// cross-lane schedule that lands sooner is an assertion failure.
    pub fn new(ctx: W::Ctx, nodes: Vec<W::Node>, lookahead: SimDuration) -> ShardedEngine<W> {
        assert!(
            lookahead > SimDuration::ZERO,
            "zero lookahead: a cross-lane effect must land strictly after its cause"
        );
        ShardedEngine {
            lanes: nodes.into_iter().map(|node| Lane { node, seq: 0 }).collect(),
            queue: Queue { heap: BinaryHeap::new(), slab: Vec::new(), free: Vec::new() },
            ctx,
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

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Schedule an event from the driver (between `run_until` calls). Routed
    /// with the current `Ctx`; sorts in the [`GLOBAL_LANE`] class.
    pub fn schedule(&mut self, at: SimTime, event: W::Event) {
        assert!(at >= self.now, "schedule into the past: {at:?} < {:?}", self.now);
        self.enqueue(at, event);
    }

    /// Queue a driver schedule, arrival or cross-lane schedule for the lane
    /// it routes to.
    fn enqueue(&mut self, at: SimTime, event: W::Event) {
        let lane = W::route(&self.ctx, &event);
        let key = EventKey { at, lane: GLOBAL_LANE, seq: self.main_seq };
        self.main_seq += 1;
        self.queue.push(key, lane, event);
    }

    /// Read-only access to the shared context.
    pub fn with_ctx<R>(&self, f: impl FnOnce(&W::Ctx) -> R) -> R {
        f(&self.ctx)
    }

    /// Mutate the shared context (between `run_until` calls — fault
    /// injection, contract deployment).
    pub fn with_ctx_mut<R>(&mut self, f: impl FnOnce(&mut W::Ctx) -> R) -> R {
        f(&mut self.ctx)
    }

    /// Read a lane's node.
    pub fn with_node<R>(&self, lane: u32, f: impl FnOnce(&W::Node) -> R) -> R {
        f(&self.lanes[lane as usize].node)
    }

    /// Mutate a lane's node (between `run_until` calls).
    pub fn with_node_mut<R>(&mut self, lane: u32, f: impl FnOnce(&mut W::Node) -> R) -> R {
        f(&mut self.lanes[lane as usize].node)
    }

    /// Read lane 0's node while mutating another lane's — for set-up paths
    /// that do their work once on node 0 and hand every other node a copy.
    pub fn with_first_and_node_mut<R>(
        &mut self,
        lane: u32,
        f: impl FnOnce(&W::Node, &mut W::Node) -> R,
    ) -> R {
        assert!(lane > 0, "lane 0 cannot be lent shared and mutably at once");
        let (first, rest) = self.lanes.split_first_mut().expect("lane > 0 exists");
        f(&first.node, &mut rest[lane as usize - 1].node)
    }

    /// Read the context and mutate a lane's node together — for connector
    /// paths like queries that execute against one node's state using shared
    /// read-only machinery (VM, cost model).
    pub fn with_ctx_node_mut<R>(
        &mut self,
        lane: u32,
        f: impl FnOnce(&W::Ctx, &mut W::Node) -> R,
    ) -> R {
        f(&self.ctx, &mut self.lanes[lane as usize].node)
    }

    /// Read observer counter `i`.
    pub fn counter(&self, i: usize) -> u64 {
        self.counters[i]
    }

    /// Bump observer counter `i` from the driver (preloads etc.).
    pub fn bump_counter(&mut self, i: usize, by: u64) {
        self.counters[i] += by;
    }

    /// Run the world up to and including `deadline`, then set `now` to it.
    /// The clock never runs backwards: a `deadline` before `now` panics.
    ///
    /// Events pop in [`EventKey`] order, each taken out of its slab slot.
    /// Each handler's same-lane follow-ups are queued first, then its emits
    /// are applied in emission order: a send asks `out` for an arrival time
    /// and queues the event built at the send, a cross-lane schedule is
    /// queued as given. Both land at least one lookahead after the event
    /// that made them.
    pub fn run_until(&mut self, deadline: SimTime, out: &mut impl Outboard) {
        assert!(deadline >= self.now, "run_until into the past: {:?} -> {deadline:?}", self.now);
        // One outbox for the whole run, emptied after every event: a
        // broadcast's sends reuse its buffer instead of growing a fresh one.
        let mut fx = Effects::detached(0, self.now);
        while let Some((key, lane, event)) = self.queue.pop_due(deadline) {
            let now = key.at;
            (fx.lane, fx.now) = (lane, now);
            let slot = &mut self.lanes[lane as usize];
            W::handle(&self.ctx, lane, &mut slot.node, now, event, &mut fx);
            for (at, event) in fx.local.drain(..) {
                debug_assert_eq!(
                    W::route(&self.ctx, &event),
                    lane,
                    "Effects::schedule used for a cross-lane event"
                );
                let key = EventKey { at, lane, seq: slot.seq };
                slot.seq += 1;
                self.queue.push(key, lane, event);
            }
            for (total, by) in self.counters.iter_mut().zip(&mut fx.counts) {
                *total += std::mem::take(by);
            }
            for emit in fx.emits.drain(..) {
                match emit {
                    Emit::Send { to, bytes, event } => {
                        if let Some(at) = out.send(now, lane, to, bytes) {
                            assert!(
                                at >= now + self.lookahead,
                                "network delivered under lookahead: {now:?} -> {at:?}"
                            );
                            self.enqueue(at, event);
                        }
                    }
                    Emit::At { at, event } => {
                        assert!(
                            at >= now + self.lookahead,
                            "cross-lane schedule under lookahead: {now:?} -> {at:?}"
                        );
                        self.enqueue(at, event);
                    }
                }
            }
        }
        self.now = deadline;
    }
}

#[cfg(test)]
impl<W: ShardedWorld> ShardedEngine<W> {
    /// Slots in the event slab, free or holding an event.
    fn slab_len(&self) -> usize {
        self.queue.slab.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cache finds a kept key's outcome, the same allocation, and keeps
    /// the last `OUTCOMES_KEPT` keys only.
    #[test]
    fn recent_outcomes_keep_the_last_few() {
        let recent = RecentOutcomes::default();
        assert!(recent.is_empty());
        let first = Arc::new("first");
        recent.keep(0, Arc::clone(&first));
        assert!(Arc::ptr_eq(&recent.find(&0).expect("kept"), &first));
        for key in 1..=OUTCOMES_KEPT {
            recent.keep(key, Arc::new("later"));
        }
        assert_eq!(recent.len(), OUTCOMES_KEPT);
        assert!(recent.find(&0).is_none(), "the oldest outcome was not dropped");
        assert!((1..=OUTCOMES_KEPT).all(|key| recent.find(&key).is_some()));
    }

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

    /// Fixed-latency outboard: no RNG, but exercises the delivery path.
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

    /// Per-lane `(pings, echoes, log)`.
    type Lanes = Vec<(u64, u64, Vec<(SimTime, u32)>)>;

    fn ring_engine(lanes: u32) -> ShardedEngine<Ring> {
        let nodes = (0..lanes)
            .map(|_| RingNode { pings: 0, echoes: 0, log: Vec::new() })
            .collect();
        ShardedEngine::new(RingCtx { lanes }, nodes, SimDuration::from_micros(500))
    }

    fn lanes_of(engine: &ShardedEngine<Ring>) -> Lanes {
        (0..engine.lanes() as u32)
            .map(|l| engine.with_node(l, |n| (n.pings, n.echoes, n.log.clone())))
            .collect()
    }

    /// The ring after every lane's ping has travelled `hops` hops, and how
    /// many sends it made.
    fn finished_ring(lanes: u32, hops: u32) -> (ShardedEngine<Ring>, u64) {
        let mut engine = ring_engine(lanes);
        let mut net = FixedNet { latency: SimDuration::from_micros(700), sends: 0 };
        for l in 0..lanes {
            engine.schedule(SimTime(10 + l as u64), Ping::Ping { to: l, hops });
        }
        engine.run_until(SimTime::from_secs(1), &mut net);
        (engine, net.sends)
    }

    fn run_ring(lanes: u32, hops: u32) -> (Lanes, u64, u64) {
        let (engine, sends) = finished_ring(lanes, hops);
        (lanes_of(&engine), engine.counter(0), sends)
    }

    #[test]
    fn ring_counts_all_hops() {
        let (nodes, counter, sends) = run_ring(4, 8);
        let pings: u64 = nodes.iter().map(|n| n.0).sum();
        // 4 initial pings, each travelling 8 further hops.
        assert_eq!(pings, 4 * 9);
        assert_eq!(counter, pings);
        assert_eq!(sends, 4 * 8);
        let echoes: u64 = nodes.iter().map(|n| n.1).sum();
        assert_eq!(echoes, pings);
    }

    /// Latency depends on how many sends the engine made before this one —
    /// like the real network's shared RNG, it makes their order observable.
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
    fn run_alternating(lanes: u32, slots: u64) -> (Lanes, u64) {
        let mut engine = ring_engine(lanes);
        let mut net = OrderNet { sends: 0 };
        for slot in 0..slots {
            let hit = if slot % 2 == 0 { 2 } else { lanes };
            for to in 0..hit {
                engine.schedule(SimTime(10 + slot * 1000 + to as u64), Ping::Ping { to, hops: 2 });
            }
        }
        engine.run_until(SimTime::from_secs(1), &mut net);
        (lanes_of(&engine), net.sends)
    }

    /// Order-sensitive FNV-1a-style fold of every lane's `(time, hops)` log.
    fn fold_logs(nodes: &Lanes) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        let mut eat = |x: u64| h = (h ^ x).wrapping_mul(0x0100_0000_01b3);
        for (lane, (_, _, log)) in nodes.iter().enumerate() {
            eat(lane as u64);
            for &(at, hops) in log {
                eat(at.0);
                eat(hops as u64);
            }
        }
        h
    }

    fn counts(nodes: &Lanes) -> Vec<(u64, u64)> {
        nodes.iter().map(|n| (n.0, n.1)).collect()
    }

    /// Known answers for the canonical order: generating event's key, then
    /// emission index. Under `OrderNet` every arrival time depends on the
    /// order the engine made its sends in, so the per-lane logs pin that
    /// order by value. The literals were captured from the serial path of the
    /// last commit that also had a threaded one to compare against, and have
    /// outlived the windowed scheduler that produced them; `results/*.csv`
    /// depend on this order exactly as these numbers do.
    #[test]
    fn merge_order_matches_known_answers() {
        let (nodes, sends) = run_alternating(8, 40);
        assert_eq!(
            counts(&nodes),
            [(80, 80), (100, 100), (100, 100), (80, 80), (60, 60), (60, 60), (60, 60), (60, 60)]
        );
        assert_eq!(sends, 400);
        assert_eq!(fold_logs(&nodes), 0xd9ef_4f11_907c_651b);

        let (nodes, counter, sends) = run_ring(5, 13);
        assert_eq!(counts(&nodes), [(14, 14); 5]);
        assert_eq!((counter, sends), (70, 65));
        assert_eq!(fold_logs(&nodes), 0x9886_6915_29b4_f5bc);
    }

    /// A popped event frees its slot before its handler queues anything, so
    /// the slab is as long as the most events ever queued at once. In the
    /// 5-lane ring at most 8 are: the pings at 10–14 µs each queue an echo
    /// 3 µs on and a ping 700 µs on, and the echoes at 13 and 14 µs run
    /// before the pings of those instants (lane keys sort before driver
    /// keys), so the last two pings each replace what their echo freed.
    /// Every later round repeats that shape 700 µs on.
    #[test]
    fn slab_reuses_freed_slots() {
        let (engine, _) = finished_ring(5, 13);
        let run = (0..5).map(|l| engine.with_node(l, |n| n.pings + n.echoes)).sum::<u64>();
        assert_eq!(run, 140);
        assert_eq!(engine.slab_len(), 8);
    }

    /// A sift moves key, lane and slot, never the event.
    #[test]
    fn heap_entries_stay_within_32_bytes() {
        assert!(std::mem::size_of::<Entry>() <= 32, "{} bytes", std::mem::size_of::<Entry>());
    }

    #[test]
    fn run_until_advances_clock_to_deadline() {
        let mut engine = ring_engine(1);
        let mut net = FixedNet { latency: SimDuration::from_micros(700), sends: 0 };
        let deadline = SimTime::from_secs(2);
        engine.schedule(deadline, Ping::Ping { to: 0, hops: 0 });
        engine.schedule(SimTime(deadline.0 + 1), Ping::Ping { to: 0, hops: 0 });
        engine.run_until(deadline, &mut net);
        assert_eq!(engine.now(), deadline);
        assert_eq!(engine.with_node(0, |n| n.pings), 1);
    }

    #[test]
    fn first_lane_is_lent_shared_beside_another_lent_mutably() {
        let mut engine = ring_engine(3);
        engine.with_node_mut(0, |n| n.pings = 7);
        for lane in 1..3 {
            engine.with_first_and_node_mut(lane, |first, node| node.pings = first.pings + lane as u64);
        }
        assert_eq!(lanes_of(&engine).iter().map(|l| l.0).collect::<Vec<_>>(), [7, 8, 9]);
    }

    #[test]
    #[should_panic(expected = "lane 0 cannot be lent")]
    fn first_lane_is_not_lent_twice() {
        ring_engine(2).with_first_and_node_mut(0, |_, _| ());
    }

    #[test]
    #[should_panic(expected = "run_until into the past")]
    fn running_until_the_past_panics() {
        let mut engine = ring_engine(1);
        engine.run_until(SimTime::from_secs(2), &mut OrderNet { sends: 0 });
        engine.run_until(SimTime::from_secs(1), &mut OrderNet { sends: 0 });
    }

    #[test]
    #[should_panic(expected = "schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut engine = ring_engine(1);
        engine.run_until(SimTime::from_secs(1), &mut OrderNet { sends: 0 });
        engine.schedule(SimTime(5), Ping::Echo { to: 0 });
    }

    /// A second toy world for the corners `Ring` never reaches: same-instant
    /// follow-ups and direct cross-lane schedules. Lanes log the marks they
    /// receive.
    struct Corner;

    enum Probe {
        /// Send `Mark(1)` to the other lane and schedule `Again` here, now.
        Fork { to: u32 },
        /// Send `Mark(2)` to the other lane.
        Again { to: u32 },
        /// `schedule_at` a `Mark(3)` on the other lane, `after` from now.
        Direct { to: u32, after: SimDuration },
        Mark { to: u32, tag: u32 },
    }

    impl ShardedWorld for Corner {
        type Event = Probe;
        type Node = Vec<(SimTime, u32)>;
        type Ctx = ();

        fn route(_: &(), event: &Probe) -> u32 {
            match event {
                Probe::Fork { to }
                | Probe::Again { to }
                | Probe::Direct { to, .. }
                | Probe::Mark { to, .. } => *to,
            }
        }

        fn handle(
            _: &(),
            lane: u32,
            node: &mut Vec<(SimTime, u32)>,
            now: SimTime,
            event: Probe,
            fx: &mut Effects<Probe>,
        ) {
            let other = 1 - lane;
            match event {
                Probe::Fork { .. } => {
                    fx.schedule(now, Probe::Again { to: lane });
                    fx.send(other, 100, move |_| Probe::Mark { to: other, tag: 1 });
                }
                Probe::Again { .. } => {
                    fx.send(other, 100, move |_| Probe::Mark { to: other, tag: 2 })
                }
                Probe::Direct { after, .. } => {
                    fx.schedule_at(now + after, Probe::Mark { to: other, tag: 3 })
                }
                Probe::Mark { tag, .. } => node.push((now, tag)),
            }
        }
    }

    fn corner_engine() -> ShardedEngine<Corner> {
        ShardedEngine::new((), vec![Vec::new(), Vec::new()], SimDuration::from_micros(500))
    }

    /// The one order the heap *defines* rather than inherits (DESIGN.md §5):
    /// a driver event's same-instant follow-up has the lower key, yet the
    /// driver event's own sends are made first, because they are made when
    /// its handler returns. `OrderNet` gives the first send 737 µs and the
    /// second 774 µs.
    #[test]
    fn merge_order_puts_an_events_sends_before_its_same_instant_follow_ups() {
        let mut engine = corner_engine();
        engine.schedule(SimTime(10), Probe::Fork { to: 0 });
        engine.run_until(SimTime::from_secs(1), &mut OrderNet { sends: 0 });
        assert_eq!(engine.with_node(1, |log| log.clone()), [(SimTime(747), 1), (SimTime(784), 2)]);
    }

    #[test]
    fn event_at_the_deadline_runs_and_its_send_lands_in_the_next_run() {
        let mut engine = ring_engine(2);
        let mut net = FixedNet { latency: SimDuration::from_micros(700), sends: 0 };
        let deadline = SimTime::from_secs(2);
        engine.schedule(deadline, Ping::Ping { to: 0, hops: 1 });
        engine.schedule(SimTime(deadline.0 + 1), Ping::Ping { to: 0, hops: 0 });
        engine.run_until(deadline, &mut net);
        // The send was made (its arrival time drawn) but not yet delivered.
        assert_eq!((counts(&lanes_of(&engine)), net.sends), (vec![(1, 0), (0, 0)], 1));
        engine.run_until(SimTime(deadline.0 + 699), &mut net);
        assert_eq!(counts(&lanes_of(&engine)), [(2, 2), (0, 0)]);
        engine.run_until(SimTime(deadline.0 + 700), &mut net);
        assert_eq!(counts(&lanes_of(&engine)), [(2, 2), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "network delivered under lookahead")]
    fn delivery_under_the_floor_panics() {
        let mut engine = ring_engine(2);
        engine.schedule(SimTime(10), Ping::Ping { to: 0, hops: 1 });
        let mut net = FixedNet { latency: SimDuration::from_micros(499), sends: 0 };
        engine.run_until(SimTime::from_secs(1), &mut net);
    }

    #[test]
    #[should_panic(expected = "cross-lane schedule under lookahead")]
    fn cross_lane_schedule_under_the_floor_panics() {
        let mut engine = corner_engine();
        let mut net = OrderNet { sends: 0 };
        let direct = |us| Probe::Direct { to: 0, after: SimDuration::from_micros(us) };
        engine.schedule(SimTime(10), direct(500));
        engine.run_until(SimTime::from_secs(1), &mut net);
        assert_eq!(engine.with_node(1, |log| log.clone()), [(SimTime(510), 3)], "at the floor");
        engine.schedule(SimTime::from_secs(1), direct(499));
        engine.run_until(SimTime::from_secs(2), &mut net);
    }
}
