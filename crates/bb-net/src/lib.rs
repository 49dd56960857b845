//! The simulated cluster network.
//!
//! The paper ran on 48 commodity machines behind a 1 Gbps switch; we model
//! that fabric as point-to-point links with a base propagation delay,
//! uniform jitter, and a serialization delay proportional to message size.
//! On top sit the benchmark's failure modes (Section 3.3):
//!
//! - **crash failure**: a node "simply stops" — traffic to and from it is
//!   dropped (Figure 9);
//! - **network delay**: arbitrary extra latency injected per node;
//! - **random response**: messages corrupted in flight (receivers see a
//!   `corrupted` flag; honest protocol layers discard such messages as
//!   signature failures);
//! - **partition attack**: the network is split into groups for a duration,
//!   dropping all cross-group traffic — the double-spend window experiment
//!   of Figure 10.
//!
//! Every byte handed to [`Network::send`] is metered per node per virtual
//! second, which is where Figure 16's network-utilisation curves come from.

use bb_sim::{ByteMeter, SimDuration, SimRng, SimTime};
use bb_types::NodeId;

/// Point-to-point link parameters.
#[derive(Debug, Clone)]
pub struct LinkParams {
    /// Propagation delay added to every message.
    pub base_delay: SimDuration,
    /// Uniform jitter in `[0, jitter)` added on top.
    pub jitter: SimDuration,
    /// Serialization bandwidth in bytes per second.
    pub bandwidth_bps: u64,
}

impl Default for LinkParams {
    fn default() -> Self {
        // LAN-grade: 0.5 ms propagation, 0.3 ms jitter, 1 Gbps links.
        LinkParams {
            base_delay: SimDuration::from_micros(500),
            jitter: SimDuration::from_micros(300),
            bandwidth_bps: 125_000_000,
        }
    }
}

/// What happened to a message handed to the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Will arrive at the destination at `at`. `corrupted` is true when the
    /// fault injector mangled it in flight.
    Deliver {
        /// Arrival time.
        at: SimTime,
        /// Mangled in flight?
        corrupted: bool,
    },
    /// Silently dropped.
    Dropped(DropReason),
}

/// Why a message was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The sender has crashed.
    SenderCrashed,
    /// The receiver has crashed.
    ReceiverCrashed,
    /// Sender and receiver are in different partition groups.
    Partitioned,
}

/// Cumulative network counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages accepted for delivery.
    pub delivered: u64,
    /// Messages dropped by faults.
    pub dropped: u64,
    /// Messages corrupted in flight (still delivered).
    pub corrupted: u64,
    /// Total payload bytes accepted.
    pub bytes: u64,
}

/// The simulated network fabric for one experiment.
pub struct Network {
    n: u32,
    link: LinkParams,
    rng: SimRng,
    crashed: Vec<bool>,
    extra_delay: Vec<SimDuration>,
    corrupt_prob: Vec<f64>,
    /// Partition group per node; `None` = fully connected.
    groups: Option<Vec<u8>>,
    /// Asymmetric partition: the first `left` nodes reach everyone, but
    /// traffic from the rest *to* them is dropped. `None` = symmetric.
    asym_left: Option<u32>,
    /// Extra seeded per-message latency noise in `[0, gossip_jitter)`,
    /// on top of the link's own jitter (chaos gossip-jitter fault).
    gossip_jitter: SimDuration,
    /// Partition→heal transitions seen so far (each flap of an oscillating
    /// partition counts once, at the heal).
    partition_flaps: u64,
    tx_meters: Vec<ByteMeter>,
    stats: NetStats,
}

impl Network {
    /// Fully connected fabric over `n` nodes.
    pub fn new(n: u32, link: LinkParams, rng: SimRng) -> Self {
        Network {
            n,
            link,
            rng,
            crashed: vec![false; n as usize],
            extra_delay: vec![SimDuration::ZERO; n as usize],
            corrupt_prob: vec![0.0; n as usize],
            groups: None,
            asym_left: None,
            gossip_jitter: SimDuration::ZERO,
            partition_flaps: 0,
            tx_meters: (0..n).map(|_| ByteMeter::new()).collect(),
            stats: NetStats::default(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> u32 {
        self.n
    }

    /// Minimum possible cross-node delivery latency: the base link delay.
    ///
    /// Jitter, serialization time and injected `Fault::Delay` extras only
    /// *add* to it, so it is the floor the engine (`bb_sim::shard`) asserts
    /// under every delivery, and it holds while faults are active.
    pub fn min_latency(&self) -> SimDuration {
        self.link.base_delay
    }

    /// Offer a `bytes`-sized message from `from` to `to` at time `now`.
    pub fn send(&mut self, now: SimTime, from: NodeId, to: NodeId, bytes: u64) -> Delivery {
        assert!(from.0 < self.n && to.0 < self.n, "node out of range");
        if self.crashed[from.index()] {
            self.stats.dropped += 1;
            return Delivery::Dropped(DropReason::SenderCrashed);
        }
        if self.crashed[to.index()] {
            self.stats.dropped += 1;
            return Delivery::Dropped(DropReason::ReceiverCrashed);
        }
        if let Some(groups) = &self.groups {
            if groups[from.index()] != groups[to.index()] {
                self.stats.dropped += 1;
                return Delivery::Dropped(DropReason::Partitioned);
            }
        }
        if let Some(left) = self.asym_left {
            // Half-open link: the left group's messages go through, replies
            // from the right never come back.
            if from.0 >= left && to.0 < left {
                self.stats.dropped += 1;
                return Delivery::Dropped(DropReason::Partitioned);
            }
        }
        let serialization =
            SimDuration::from_micros(bytes.saturating_mul(1_000_000) / self.link.bandwidth_bps.max(1));
        let mut jitter = self.rng.jitter(SimDuration::ZERO, self.link.jitter.max(SimDuration::from_micros(1)));
        if self.gossip_jitter > SimDuration::ZERO {
            // Drawn only while the fault is armed, so runs without gossip
            // jitter consume exactly the RNG stream they always did.
            jitter = jitter + self.rng.jitter(SimDuration::ZERO, self.gossip_jitter);
        }
        let delay = self.link.base_delay
            + jitter
            + serialization
            + self.extra_delay[from.index()]
            + self.extra_delay[to.index()];
        let corrupted = {
            let p = self.corrupt_prob[from.index()].max(self.corrupt_prob[to.index()]);
            p > 0.0 && self.rng.chance(p)
        };
        self.tx_meters[from.index()].record(now, bytes);
        let at = now + delay;
        self.stats.delivered += 1;
        self.stats.bytes += bytes;
        if corrupted {
            self.stats.corrupted += 1;
        }
        Delivery::Deliver { at, corrupted }
    }

    /// Crash a node: it stops sending and receiving (Figure 9).
    pub fn crash(&mut self, node: NodeId) {
        self.crashed[node.index()] = true;
    }

    /// Bring a crashed node back (it has missed everything in between).
    pub fn recover(&mut self, node: NodeId) {
        self.crashed[node.index()] = false;
    }

    /// Is the node currently crashed?
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed[node.index()]
    }

    /// The lowest-numbered live node other than `except` — the peer a
    /// restarting node asks for its catch-up.
    pub fn first_live_peer(&self, except: NodeId) -> Option<NodeId> {
        (0..self.n).map(NodeId).find(|&p| p != except && !self.is_crashed(p))
    }

    /// Nodes currently alive.
    pub fn alive_count(&self) -> u32 {
        self.crashed.iter().filter(|&&c| !c).count() as u32
    }

    /// Inject fixed extra latency on all of a node's links.
    pub fn set_extra_delay(&mut self, node: NodeId, d: SimDuration) {
        self.extra_delay[node.index()] = d;
    }

    /// Corrupt messages touching `node` with probability `p`.
    pub fn set_corrupt_prob(&mut self, node: NodeId, p: f64) {
        self.corrupt_prob[node.index()] = p.clamp(0.0, 1.0);
    }

    /// Split the fabric: `groups[i]` is node i's side. Cross-group traffic
    /// drops until [`Network::heal`].
    pub fn partition(&mut self, groups: Vec<u8>) {
        assert_eq!(groups.len(), self.n as usize, "one group per node");
        self.groups = Some(groups);
    }

    /// Split the first `left` nodes from the rest (the paper's
    /// half-and-half attack).
    pub fn partition_in_half(&mut self, left: u32) {
        let groups = (0..self.n).map(|i| u8::from(i >= left)).collect();
        self.partition(groups);
    }

    /// Asymmetric split: the first `left` nodes keep their outbound links,
    /// but everything sent back to them from the rest is dropped.
    pub fn partition_asymmetric(&mut self, left: u32) {
        assert!(left <= self.n, "left side out of range");
        self.asym_left = Some(left);
    }

    /// Seeded per-message latency noise up to `amplitude` on every link
    /// (`SimDuration::ZERO` disarms). Additive, so no delivery falls under
    /// the [`Network::min_latency`] floor the engine asserts.
    pub fn set_gossip_jitter(&mut self, amplitude: SimDuration) {
        self.gossip_jitter = amplitude;
    }

    /// Remove network chaos: partitions (symmetric and asymmetric), every
    /// per-node extra delay and corruption probability, and gossip jitter.
    /// Chaos scenarios rely on this restoring a genuinely clean network
    /// between phases — healing only the partition used to leave stale
    /// `Delay`/`Corrupt` state poisoning the next phase.
    pub fn heal(&mut self) {
        if self.groups.is_some() || self.asym_left.is_some() {
            self.partition_flaps += 1;
        }
        self.groups = None;
        self.asym_left = None;
        self.extra_delay.fill(SimDuration::ZERO);
        self.corrupt_prob.fill(0.0);
        self.gossip_jitter = SimDuration::ZERO;
    }

    /// Is a partition (either kind) active?
    pub fn is_partitioned(&self) -> bool {
        self.groups.is_some() || self.asym_left.is_some()
    }

    /// Partition→heal transitions so far.
    pub fn partition_flaps(&self) -> u64 {
        self.partition_flaps
    }

    /// Can `a` currently talk to `b` *bidirectionally*? An asymmetric
    /// partition severs the pair in one direction, which counts as not
    /// connected here (request/reply protocols cannot make progress).
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        let asym_cut = self.asym_left.is_some_and(|left| {
            let (lo, hi) = (a.0.min(b.0), a.0.max(b.0));
            lo < left && hi >= left
        });
        !self.crashed[a.index()]
            && !self.crashed[b.index()]
            && !asym_cut
            && self
                .groups
                .as_ref()
                .is_none_or(|g| g[a.index()] == g[b.index()])
    }

    /// Cumulative counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Per-second outbound Mbps for `node` (Figure 16).
    pub fn tx_mbps_series(&self, node: NodeId) -> Vec<f64> {
        self.tx_meters[node.index()].mbps_series()
    }

    /// Total bytes sent by `node`.
    pub fn tx_bytes(&self, node: NodeId) -> u64 {
        self.tx_meters[node.index()].total()
    }
}

/// The engine's side of the network (`bb_sim::shard` applies each handler's
/// sends through this as the handler returns): a send either yields a
/// clean delivery time or nothing (dropped or corrupted — either way no
/// event arrives; metering and stats are recorded exactly as in
/// [`Network::send`]).
impl bb_sim::shard::Outboard for Network {
    fn send(&mut self, now: SimTime, from: u32, to: u32, bytes: u64) -> Option<SimTime> {
        match Network::send(self, now, NodeId(from), NodeId(to), bytes) {
            Delivery::Deliver { at, corrupted } if !corrupted => Some(at),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(n: u32) -> Network {
        Network::new(n, LinkParams::default(), SimRng::seed_from_u64(7))
    }

    fn assert_delivers(d: Delivery) -> SimTime {
        match d {
            Delivery::Deliver { at, corrupted } => {
                assert!(!corrupted);
                at
            }
            other => panic!("expected delivery, got {other:?}"),
        }
    }

    #[test]
    fn delivery_includes_propagation_and_serialization() {
        let mut n = net(2);
        let now = SimTime::from_secs(1);
        let at = assert_delivers(n.send(now, NodeId(0), NodeId(1), 125_000_000)); // 1 second of bytes
        let delay = at - now;
        assert!(delay >= SimDuration::from_secs(1), "serialization missing: {delay:?}");
        assert!(delay < SimDuration::from_millis(1100), "delay too large: {delay:?}");
    }

    #[test]
    fn small_messages_arrive_fast() {
        let mut n = net(2);
        let at = assert_delivers(n.send(SimTime::ZERO, NodeId(0), NodeId(1), 100));
        assert!(at.since(SimTime::ZERO) < SimDuration::from_millis(2));
        assert!(at.since(SimTime::ZERO) >= SimDuration::from_micros(500));
    }

    #[test]
    fn crash_drops_both_directions() {
        let mut n = net(3);
        n.crash(NodeId(1));
        assert_eq!(
            n.send(SimTime::ZERO, NodeId(1), NodeId(0), 10),
            Delivery::Dropped(DropReason::SenderCrashed)
        );
        assert_eq!(
            n.send(SimTime::ZERO, NodeId(0), NodeId(1), 10),
            Delivery::Dropped(DropReason::ReceiverCrashed)
        );
        assert!(n.is_crashed(NodeId(1)));
        assert_eq!(n.alive_count(), 2);
        // Unrelated pairs still work.
        assert_delivers(n.send(SimTime::ZERO, NodeId(0), NodeId(2), 10));
        n.recover(NodeId(1));
        assert_delivers(n.send(SimTime::ZERO, NodeId(0), NodeId(1), 10));
    }

    #[test]
    fn partition_blocks_cross_group_only() {
        let mut n = net(4);
        n.partition_in_half(2);
        assert!(n.is_partitioned());
        assert_eq!(
            n.send(SimTime::ZERO, NodeId(0), NodeId(2), 10),
            Delivery::Dropped(DropReason::Partitioned)
        );
        assert_delivers(n.send(SimTime::ZERO, NodeId(0), NodeId(1), 10));
        assert_delivers(n.send(SimTime::ZERO, NodeId(2), NodeId(3), 10));
        assert!(!n.connected(NodeId(1), NodeId(2)));
        assert!(n.connected(NodeId(2), NodeId(3)));
        n.heal();
        assert_delivers(n.send(SimTime::ZERO, NodeId(0), NodeId(2), 10));
        assert!(n.connected(NodeId(0), NodeId(2)));
    }

    #[test]
    fn asymmetric_partition_drops_one_direction_only() {
        let mut n = net(4);
        n.partition_asymmetric(2);
        assert!(n.is_partitioned());
        // Left → right still flows...
        assert_delivers(n.send(SimTime::ZERO, NodeId(0), NodeId(3), 10));
        // ...the reply path is dead...
        assert_eq!(
            n.send(SimTime::ZERO, NodeId(3), NodeId(0), 10),
            Delivery::Dropped(DropReason::Partitioned)
        );
        // ...and same-side traffic is untouched.
        assert_delivers(n.send(SimTime::ZERO, NodeId(0), NodeId(1), 10));
        assert_delivers(n.send(SimTime::ZERO, NodeId(2), NodeId(3), 10));
        // Request/reply cannot make progress across the cut.
        assert!(!n.connected(NodeId(1), NodeId(2)));
        assert!(n.connected(NodeId(2), NodeId(3)));
        n.heal();
        assert_delivers(n.send(SimTime::ZERO, NodeId(3), NodeId(0), 10));
    }

    #[test]
    fn gossip_jitter_adds_bounded_noise_and_disarms_cleanly() {
        let amplitude = SimDuration::from_millis(20);
        let mut noisy = net(2);
        noisy.set_gossip_jitter(amplitude);
        let base_max = LinkParams::default().base_delay + LinkParams::default().jitter;
        let mut above_base = 0u32;
        for i in 0..200 {
            let at = assert_delivers(noisy.send(SimTime::ZERO, NodeId(0), NodeId(1), 1));
            let d = at.since(SimTime::ZERO);
            assert!(d < base_max + amplitude, "send {i}: jitter exceeded amplitude: {d:?}");
            above_base += u32::from(d >= base_max);
        }
        assert!(above_base > 50, "noise never exceeded the plain link jitter range");
        // Disarmed, the stream must be exactly the un-jittered one: a fresh
        // same-seed network with the fault never armed consumes the same
        // RNG draws per send, so the next delivery matches byte for byte.
        noisy.set_gossip_jitter(SimDuration::ZERO);
        let mut plain = net(2);
        for _ in 0..400 {
            // 2 draws per noisy send above (jitter + gossip) = 400 plain draws.
            plain.send(SimTime::ZERO, NodeId(0), NodeId(1), 1);
        }
        assert_eq!(
            noisy.send(SimTime::ZERO, NodeId(0), NodeId(1), 1),
            plain.send(SimTime::ZERO, NodeId(0), NodeId(1), 1)
        );
    }

    #[test]
    fn heal_clears_delay_corrupt_and_jitter_state() {
        let mut n = net(4);
        n.set_extra_delay(NodeId(1), SimDuration::from_millis(50));
        n.set_corrupt_prob(NodeId(2), 1.0);
        n.set_gossip_jitter(SimDuration::from_millis(30));
        n.partition_in_half(2);
        n.heal();
        // Partition gone, and the link state is clean again.
        let at = assert_delivers(n.send(SimTime::ZERO, NodeId(0), NodeId(2), 10));
        assert!(
            at.since(SimTime::ZERO) < SimDuration::from_millis(2),
            "stale delay/jitter survived heal: {:?}",
            at.since(SimTime::ZERO)
        );
        match n.send(SimTime::ZERO, NodeId(1), NodeId(2), 10) {
            Delivery::Deliver { corrupted, .. } => {
                assert!(!corrupted, "stale corruption probability survived heal")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn heal_counts_partition_flaps() {
        let mut n = net(4);
        assert_eq!(n.partition_flaps(), 0);
        n.heal(); // no partition active: not a flap
        assert_eq!(n.partition_flaps(), 0);
        for _ in 0..3 {
            n.partition_in_half(2);
            n.heal();
        }
        n.partition_asymmetric(2);
        n.heal();
        assert_eq!(n.partition_flaps(), 4);
    }

    #[test]
    fn extra_delay_adds_up() {
        let mut fast = net(2);
        let base = assert_delivers(fast.send(SimTime::ZERO, NodeId(0), NodeId(1), 10));
        let mut slow = net(2);
        slow.set_extra_delay(NodeId(1), SimDuration::from_millis(50));
        let delayed = assert_delivers(slow.send(SimTime::ZERO, NodeId(0), NodeId(1), 10));
        assert!(
            delayed.since(SimTime::ZERO) >= base.since(SimTime::ZERO) + SimDuration::from_millis(49)
        );
    }

    #[test]
    fn corruption_probability_applies() {
        let mut n = net(2);
        n.set_corrupt_prob(NodeId(1), 1.0);
        match n.send(SimTime::ZERO, NodeId(0), NodeId(1), 10) {
            Delivery::Deliver { corrupted, .. } => assert!(corrupted),
            other => panic!("{other:?}"),
        }
        n.set_corrupt_prob(NodeId(1), 0.0);
        match n.send(SimTime::ZERO, NodeId(0), NodeId(1), 10) {
            Delivery::Deliver { corrupted, .. } => assert!(!corrupted),
            other => panic!("{other:?}"),
        }
        assert_eq!(n.stats().corrupted, 1);
    }

    #[test]
    fn partial_corruption_rate_is_probabilistic() {
        let mut n = net(2);
        n.set_corrupt_prob(NodeId(0), 0.3);
        let mut corrupted = 0;
        for _ in 0..2000 {
            if let Delivery::Deliver { corrupted: c, .. } =
                n.send(SimTime::ZERO, NodeId(0), NodeId(1), 1)
            {
                corrupted += u32::from(c);
            }
        }
        let rate = corrupted as f64 / 2000.0;
        assert!((rate - 0.3).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn metering_tracks_bytes_per_second() {
        let mut n = net(2);
        n.send(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        n.send(SimTime::from_secs(2), NodeId(0), NodeId(1), 500_000);
        assert_eq!(n.tx_bytes(NodeId(0)), 1_500_000);
        let series = n.tx_mbps_series(NodeId(0));
        assert!((series[0] - 8.0).abs() < 1e-9);
        assert!((series[2] - 4.0).abs() < 1e-9);
        assert_eq!(n.stats().delivered, 2);
        assert_eq!(n.stats().bytes, 1_500_000);
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn out_of_range_node_panics() {
        let mut n = net(2);
        n.send(SimTime::ZERO, NodeId(0), NodeId(5), 1);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let run = || {
            let mut n = Network::new(4, LinkParams::default(), SimRng::seed_from_u64(99));
            (0..50)
                .map(|i| n.send(SimTime::ZERO, NodeId(i % 4), NodeId((i + 1) % 4), 100 + i as u64))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
