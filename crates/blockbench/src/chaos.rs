//! Declarative adversarial & chaos scenarios on top of [`crate::fault`].
//!
//! A [`ChaosPlan`] is a [`FaultPlan`] plus *adversarial actors*: byzantine
//! clients that flood nonce gaps, replay signed transactions or push
//! oversized payloads at a configured rate over a configured window.
//! [`crate::driver::run_timeline`] runs a plan: it fires the faults at
//! second boundaries (never mid-`advance_to`) and interleaves the actors'
//! submissions with honest traffic on the shared virtual clock.
//!
//! Determinism rules (DESIGN.md §10): every source of chaos timing is
//! derived from plan data — flapping partitions expand into an explicit
//! event sequence at build time, actors send on fixed intervals from fixed
//! phase offsets, and actor keys come from fixed seeds. Nothing here reads
//! an RNG, so a chaos run replays byte-identically for free as long as the
//! platform faults themselves do.

use crate::connector::Fault;
use crate::fault::FaultPlan;
use bb_crypto::KeyPair;
use bb_sim::{SimDuration, SimTime};
use bb_types::{Address, NodeId, Transaction};

/// What a byzantine client does with its send slots.
#[derive(Debug, Clone)]
pub enum ByzBehavior {
    /// Sign transactions with nonces starting far ahead of the account's
    /// real nonce: they can never execute, so they squat in transaction
    /// pools until the age-out eviction reclaims them (PR 6's flood).
    NonceGapFlood {
        /// First nonce of the flood (each send increments from here).
        start_nonce: u64,
    },
    /// Sign one valid transaction once and submit the identical bytes over
    /// and over. Pools dedup by transaction id, so every copy past the
    /// first is pure admission-path waste.
    Replay,
    /// Well-formed, executable transactions dragging a bloated payload —
    /// admission-bandwidth and gossip pressure rather than pool squatting.
    Oversized {
        /// Payload size per transaction, bytes.
        payload_bytes: usize,
    },
}

/// One byzantine client: a behavior, a target server, a rate and a window.
#[derive(Debug, Clone)]
pub struct ByzClientSpec {
    /// Server whose RPC endpoint the actor hammers.
    pub server: NodeId,
    /// What the actor sends.
    pub behavior: ByzBehavior,
    /// Submissions per virtual second.
    pub rate: f64,
    /// Window start, measured from the start of the driven window.
    pub from: SimDuration,
    /// Window end (exclusive).
    pub until: SimDuration,
    /// Seed of the actor's keypair — distinct from every honest client's
    /// seed so adversarial traffic never collides with real nonces.
    pub key_seed: u64,
}

/// A [`FaultPlan`] extended with adversarial actors. Faults describe the
/// *environment* degrading (partitions, slow disks, jitter, equivocation);
/// actors describe *adversaries* submitting traffic.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    faults: FaultPlan,
    actors: Vec<ByzClientSpec>,
}

impl ChaosPlan {
    /// An empty plan (no faults, no actors).
    pub fn new() -> Self {
        ChaosPlan::default()
    }

    /// Schedule `fault` at offset `at`; builder-style, same contract as
    /// [`FaultPlan::at`] (equal deadlines fire in insertion order).
    pub fn at(mut self, at: SimDuration, fault: Fault) -> Self {
        self.faults = self.faults.at(at, fault);
        self
    }

    /// Add a byzantine actor.
    pub fn actor(mut self, spec: ByzClientSpec) -> Self {
        self.actors.push(spec);
        self
    }

    /// Expand a flapping partition into explicit events: partition the
    /// first `left` nodes at `start`, heal one `period` later, and repeat
    /// for `flaps` cycles. Build-time expansion keeps all flap timing in
    /// the plain fault schedule, where determinism is already guaranteed.
    pub fn flapping_partition(
        mut self,
        start: SimDuration,
        period: SimDuration,
        flaps: u32,
        left: u32,
    ) -> Self {
        assert!(period > SimDuration::ZERO, "flap period must be positive");
        for k in 0..flaps as u64 {
            let cut = start + SimDuration::from_micros(2 * k * period.as_micros());
            self = self
                .at(cut, Fault::PartitionHalf { left })
                .at(cut + period, Fault::Heal);
        }
        self
    }

    /// The environmental half of the plan.
    pub(crate) fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The adversarial half of the plan.
    pub(crate) fn actors(&self) -> &[ByzClientSpec] {
        &self.actors
    }
}

/// Runtime state of one byzantine actor during a chaos run: produces the
/// actor's transaction stream deterministically (fixed interval, fixed
/// keys, counters instead of randomness).
#[derive(Debug)]
pub(crate) struct ByzActor {
    spec: ByzClientSpec,
    key: KeyPair,
    /// Next nonce for behaviors that advance one.
    nonce: u64,
    /// Next send instant.
    next: SimTime,
    /// End of the actor's window, absolute.
    until: SimTime,
    /// The frozen transaction a `Replay` actor re-submits.
    replayed: Option<Transaction>,
    /// Submissions attempted (accepted + rejected).
    pub(crate) submitted: u64,
    /// Submissions the platform refused at the RPC.
    pub(crate) rejected: u64,
}

impl ByzActor {
    /// Instantiate `spec` against a run whose driven window starts at `t0`.
    pub(crate) fn new(spec: &ByzClientSpec, t0: SimTime) -> Self {
        assert!(spec.rate > 0.0, "byzantine actor needs a positive rate");
        assert!(spec.until > spec.from, "byzantine actor window is empty");
        let nonce = match spec.behavior {
            ByzBehavior::NonceGapFlood { start_nonce } => start_nonce,
            _ => 0,
        };
        ByzActor {
            key: KeyPair::from_seed(spec.key_seed),
            nonce,
            next: t0 + spec.from,
            until: t0 + spec.until,
            replayed: None,
            submitted: 0,
            rejected: 0,
            spec: spec.clone(),
        }
    }

    /// The server this actor targets.
    pub(crate) fn server(&self) -> NodeId {
        self.spec.server
    }

    /// Next send instant, or `None` once the window is over.
    pub(crate) fn next_due(&self) -> Option<SimTime> {
        (self.next < self.until).then_some(self.next)
    }

    /// Produce the next transaction and advance the actor's clock. Only
    /// call after `next_due` returned `Some`.
    pub(crate) fn make_tx(&mut self) -> Transaction {
        self.next += SimDuration::from_secs_f64(1.0 / self.spec.rate);
        self.submitted += 1;
        match self.spec.behavior {
            ByzBehavior::NonceGapFlood { .. } => {
                let nonce = self.nonce;
                self.nonce += 1;
                Transaction::signed(&self.key, nonce, Address::from_index(1), 1, vec![])
            }
            ByzBehavior::Replay => self
                .replayed
                .get_or_insert_with(|| {
                    Transaction::signed(&self.key, 0, Address::from_index(1), 1, vec![])
                })
                .clone(),
            ByzBehavior::Oversized { payload_bytes } => {
                let nonce = self.nonce;
                self.nonce += 1;
                // A counter header keeps ids distinct; the rest is filler.
                let mut payload = nonce.to_be_bytes().to_vec();
                payload.resize(payload_bytes.max(8), 0xBB);
                Transaction::signed(&self.key, nonce, Address::from_index(1), 0, payload)
            }
        }
    }

    /// Record that the platform refused the last submission.
    pub(crate) fn on_rejected(&mut self) {
        self.rejected += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flapping_partition_expands_to_alternating_cut_heal_pairs() {
        let plan = ChaosPlan::new().flapping_partition(
            SimDuration::from_secs(5),
            SimDuration::from_secs(2),
            3,
            4,
        );
        let evs = plan.faults().events();
        assert_eq!(evs.len(), 6);
        for (k, pair) in evs.chunks(2).enumerate() {
            let cut = SimDuration::from_secs(5 + 4 * k as u64);
            assert_eq!(pair[0].at, cut);
            assert!(matches!(pair[0].fault, Fault::PartitionHalf { left: 4 }));
            assert_eq!(pair[1].at, cut + SimDuration::from_secs(2));
            assert!(matches!(pair[1].fault, Fault::Heal));
        }
    }

    #[test]
    fn nonce_gap_actor_streams_deterministic_future_nonces() {
        let spec = ByzClientSpec {
            server: NodeId(0),
            behavior: ByzBehavior::NonceGapFlood { start_nonce: 10_000 },
            rate: 50.0,
            from: SimDuration::from_secs(1),
            until: SimDuration::from_secs(2),
            key_seed: 0xBAD,
        };
        let mut a = ByzActor::new(&spec, SimTime::ZERO);
        let mut b = ByzActor::new(&spec, SimTime::ZERO);
        let mut nonces = Vec::new();
        while let Some(due) = a.next_due() {
            assert!(due >= SimTime::from_millis(1000) && due < SimTime::from_millis(2000));
            let tx = a.make_tx();
            assert_eq!(format!("{:?}", b.make_tx()), format!("{tx:?}"));
            nonces.push(tx.nonce);
        }
        assert_eq!(nonces.len(), 50);
        assert_eq!(nonces[0], 10_000);
        assert_eq!(*nonces.last().unwrap(), 10_049);
    }

    #[test]
    fn replay_actor_repeats_identical_bytes() {
        let spec = ByzClientSpec {
            server: NodeId(2),
            behavior: ByzBehavior::Replay,
            rate: 10.0,
            from: SimDuration::ZERO,
            until: SimDuration::from_secs(1),
            key_seed: 7,
        };
        let mut a = ByzActor::new(&spec, SimTime::ZERO);
        let first = a.make_tx();
        while a.next_due().is_some() {
            assert_eq!(a.make_tx().id(), first.id());
        }
        assert_eq!(a.submitted, 10);
    }

    #[test]
    fn oversized_actor_pads_payloads_with_distinct_ids() {
        let spec = ByzClientSpec {
            server: NodeId(1),
            behavior: ByzBehavior::Oversized { payload_bytes: 4096 },
            rate: 5.0,
            from: SimDuration::ZERO,
            until: SimDuration::from_secs(1),
            key_seed: 9,
        };
        let mut a = ByzActor::new(&spec, SimTime::ZERO);
        let x = a.make_tx();
        let y = a.make_tx();
        assert_eq!(x.payload.len(), 4096);
        assert_ne!(x.id(), y.id());
    }
}
