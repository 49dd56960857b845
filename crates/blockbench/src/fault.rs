//! Declarative fault schedules for the driver.
//!
//! Figure 9's crash experiment and the restart/rejoin experiment both need
//! faults injected at precise virtual instants *inside* a measured run. A
//! [`FaultPlan`] is a time-ordered list of [`Fault`]s the driver fires as the
//! workload clock passes each deadline, so experiments describe "crash node 3
//! at t=5 s, restart it at t=10 s" as data instead of hand-rolled polling
//! loops. Injection happens between driver steps — never mid-`advance_to` —
//! so a fault lands between two `run_until` calls, never between two events
//! of one.

use crate::connector::{BlockchainConnector, Fault};
use bb_sim::{SimDuration, SimTime};

/// One scheduled fault: fire `fault` once the run clock reaches `at`
/// (measured from the start of the driven window, not absolute time —
/// workload setup length must not shift the schedule).
#[derive(Debug, Clone)]
pub(crate) struct FaultEvent {
    /// Offset from the start of the measured window.
    pub at: SimDuration,
    /// The fault to inject.
    pub fault: Fault,
}

/// A time-ordered schedule of faults for one run.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Add `fault` at offset `at`; builder-style.
    pub fn at(mut self, at: SimDuration, fault: Fault) -> Self {
        self.events.push(FaultEvent { at, fault });
        self
    }

    /// All events in firing order. Equal deadlines fire in insertion order
    /// — `TornTail` queued before `Crash` at the same instant tears the WAL
    /// first — and the tiebreak is pinned explicitly by sorting on
    /// `(deadline, insertion index)` rather than leaning on the sort
    /// algorithm's stability.
    pub(crate) fn events(&self) -> Vec<FaultEvent> {
        let mut sorted: Vec<(usize, FaultEvent)> =
            self.events.iter().cloned().enumerate().collect();
        sorted.sort_unstable_by_key(|&(idx, ref e)| (e.at, idx));
        sorted.into_iter().map(|(_, e)| e).collect()
    }
}

/// Cursor that walks a [`FaultPlan`] during a run, injecting every fault
/// whose deadline has passed. The driver calls [`FaultCursor::fire_due`]
/// before each step it takes.
#[derive(Debug)]
pub(crate) struct FaultCursor {
    events: Vec<FaultEvent>,
    next: usize,
    t0: SimTime,
}

impl FaultCursor {
    /// Start walking `plan` with deadlines measured from `t0`.
    pub(crate) fn new(plan: &FaultPlan, t0: SimTime) -> Self {
        FaultCursor { events: plan.events(), next: 0, t0 }
    }

    /// Inject every not-yet-fired fault with `t0 + at <= now` into `chain`,
    /// in schedule order. Returns how many fired.
    pub(crate) fn fire_due(&mut self, chain: &mut dyn BlockchainConnector, now: SimTime) -> usize {
        let mut fired = 0;
        while let Some(ev) = self.events.get(self.next) {
            let deadline = self.t0 + ev.at;
            if deadline > now {
                break;
            }
            // Let the platform world reach the injection instant first so
            // the fault lands at its scheduled time, not at the driver's
            // next convenient step. A deadline the clock has already passed
            // (a sub-second fault under `run_timeline`) fires at the clock:
            // it never runs backwards.
            chain.advance_to(deadline.max(chain.now()));
            chain.inject(ev.fault.clone());
            self.next += 1;
            fired += 1;
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_types::NodeId;

    #[test]
    fn plan_sorts_by_deadline_keeping_insertion_order_for_ties() {
        let plan = FaultPlan::new()
            .at(SimDuration::from_secs(5), Fault::Crash(NodeId(1)))
            .at(SimDuration::from_secs(2), Fault::Delay(NodeId(0), SimDuration::from_millis(10)))
            .at(SimDuration::from_secs(5), Fault::Restart(NodeId(1)));
        let evs = plan.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].at, SimDuration::from_secs(2));
        assert!(matches!(evs[1].fault, Fault::Crash(_)));
        assert!(matches!(evs[2].fault, Fault::Restart(_)));
    }

    #[test]
    fn same_deadline_events_fire_in_insertion_order() {
        // Regression for the tie-order contract: a pile of events at one
        // instant must come back exactly as inserted, which chaos phase
        // boundaries (Heal immediately followed by the next fault) rely on.
        let t = SimDuration::from_secs(3);
        let mut plan = FaultPlan::new().at(SimDuration::from_secs(9), Fault::Heal);
        for i in 0..16u32 {
            plan = plan.at(t, Fault::Delay(NodeId(i), SimDuration::from_millis(i as u64)));
        }
        let evs = plan.events();
        assert_eq!(evs.len(), 17);
        for (i, ev) in evs[..16].iter().enumerate() {
            assert_eq!(ev.at, t);
            assert!(
                matches!(ev.fault, Fault::Delay(NodeId(n), _) if n == i as u32),
                "event {i} out of insertion order: {:?}",
                ev.fault
            );
        }
        assert!(matches!(evs[16].fault, Fault::Heal));
    }

    #[test]
    fn cursor_fires_each_event_exactly_once() {
        struct Probe {
            now: SimTime,
            injected: Vec<(SimTime, String)>,
        }
        impl BlockchainConnector for Probe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn node_count(&self) -> u32 {
                1
            }
            fn deploy(&mut self, _b: &crate::contract::ContractBundle) -> bb_types::Address {
                unreachable!()
            }
            fn submit(&mut self, _s: NodeId, _tx: bb_types::Transaction) -> bool {
                true
            }
            fn advance_to(&mut self, t: SimTime) {
                assert!(t >= self.now, "clock rewound: {:?} -> {t:?}", self.now);
                self.now = t;
            }
            fn now(&self) -> SimTime {
                self.now
            }
            fn confirmed_blocks_since(&mut self, _h: u64) -> Vec<bb_types::BlockSummary> {
                Vec::new()
            }
            fn query(
                &mut self,
                _q: &crate::connector::Query,
            ) -> Result<crate::connector::QueryResult, crate::connector::QueryError> {
                Err(crate::connector::QueryError::Unsupported)
            }
            fn inject(&mut self, fault: Fault) {
                self.injected.push((self.now, format!("{fault:?}")));
            }
            fn stats(&self) -> crate::connector::PlatformStats {
                crate::connector::PlatformStats::default()
            }
            fn execute_direct(&mut self, _tx: bb_types::Transaction) -> crate::connector::DirectExec {
                unreachable!()
            }
        }

        let plan = FaultPlan::new()
            .at(SimDuration::from_secs(1), Fault::Crash(NodeId(0)))
            .at(SimDuration::from_secs(3), Fault::Restart(NodeId(0)));
        let mut chain = Probe { now: SimTime::ZERO, injected: Vec::new() };
        let mut cursor = FaultCursor::new(&plan, SimTime::ZERO);

        assert_eq!(cursor.fire_due(&mut chain, SimTime::from_millis(500)), 0);
        assert_eq!(cursor.fire_due(&mut chain, SimTime::from_millis(2000)), 1);
        // Already-fired events never refire.
        assert_eq!(cursor.fire_due(&mut chain, SimTime::from_millis(2500)), 0);
        assert_eq!(cursor.fire_due(&mut chain, SimTime::from_millis(4000)), 1);
        assert_eq!(chain.injected.len(), 2);

        // Injection happened at the scheduled instants, not the poll instants.
        assert_eq!(chain.injected[0].0, SimTime::from_millis(1000));
        assert_eq!(chain.injected[1].0, SimTime::from_millis(3000));
    }
}
