//! Span recording and attribution, independent of the system under test.
//!
//! The decorators in `adapter.rs` open one span per trait call; spans stay in
//! memory until the run ends. Each traced cell has one root span ([`Op::Run`])
//! that covers chain construction and the driving call; its direct children
//! are the calls the driver (or runner) issued, and anything deeper was
//! issued by the workload's `setup` through the chain handle it was given.
//! A layer's self time is its span minus the part its children cover, so
//! `driver.self_s` = root − Σ direct children.

use crate::stats::percentile;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// What a span timed: the root, chain construction, or one trait method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    Run,
    ChainBuild,
    ChainName,
    NodeCount,
    Deploy,
    Submit,
    AdvanceTo,
    Now,
    ConfirmedBlocksSince,
    Query,
    Inject,
    Stats,
    PreloadBlocks,
    ExecuteDirect,
    CommittedChain,
    WorkloadName,
    Setup,
    NextTransaction,
    OnRejected,
    NextTransactionKeyed,
    OnRejectedKeyed,
}

impl Op {
    /// Name used in the trace file.
    pub fn label(self) -> &'static str {
        match self {
            Op::Run => "run",
            Op::ChainBuild => "chain.build",
            Op::ChainName => "chain.name",
            Op::NodeCount => "chain.node_count",
            Op::Deploy => "chain.deploy",
            Op::Submit => "chain.submit",
            Op::AdvanceTo => "chain.advance_to",
            Op::Now => "chain.now",
            Op::ConfirmedBlocksSince => "chain.confirmed_blocks_since",
            Op::Query => "chain.query",
            Op::Inject => "chain.inject",
            Op::Stats => "chain.stats",
            Op::PreloadBlocks => "chain.preload_blocks",
            Op::ExecuteDirect => "chain.execute_direct",
            Op::CommittedChain => "chain.committed_chain",
            Op::WorkloadName => "workload.name",
            Op::Setup => "workload.setup",
            Op::NextTransaction => "workload.next_transaction",
            Op::OnRejected => "workload.on_rejected",
            Op::NextTransactionKeyed => "workload.next_transaction_keyed",
            Op::OnRejectedKeyed => "workload.on_rejected_keyed",
        }
    }
}

/// Index of a span in its recorder.
pub type SpanId = u32;

/// Parent of a span nothing encloses.
pub const NO_PARENT: SpanId = SpanId::MAX;

/// One timed call. Times are nanoseconds since the recorder was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub op: Op,
    /// The span that was open when this one started.
    pub parent: SpanId,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Virtual microseconds: the target of an `advance_to`, the simulated
    /// duration of an `execute_direct`; 0 elsewhere.
    pub virtual_us: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

/// Shared handle the chain and workload decorators of one cell record into.
/// Single-threaded by construction: the driver is.
#[derive(Clone)]
pub struct Tracer(Rc<RefCell<Recorder>>);

impl Default for Tracer {
    fn default() -> Self {
        Tracer(Rc::new(RefCell::new(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })))
    }
}

impl Tracer {
    /// Open a span; it closes when the guard drops.
    pub fn span(&self, op: Op, virtual_us: u64) -> SpanGuard<'_> {
        let mut rec = self.0.borrow_mut();
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        let id = rec.spans.len() as SpanId;
        let parent = rec.open.last().copied().unwrap_or(NO_PARENT);
        rec.spans.push(Span {
            op,
            parent,
            start_ns,
            end_ns: start_ns,
            virtual_us,
        });
        rec.open.push(id);
        SpanGuard { tracer: self, id }
    }

    /// Every span recorded so far. Call after all guards have dropped.
    pub fn take_spans(&self) -> Vec<Span> {
        let mut rec = self.0.borrow_mut();
        assert!(rec.open.is_empty(), "spans still open");
        std::mem::take(&mut rec.spans)
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: SpanId,
}

impl SpanGuard<'_> {
    /// Attach a virtual-time value only known once the call returned.
    pub fn set_virtual_us(&self, virtual_us: u64) {
        self.tracer.0.borrow_mut().spans[self.id as usize].virtual_us = virtual_us;
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let mut rec = self.tracer.0.borrow_mut();
        let end_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans[self.id as usize].end_ns = end_ns;
        let closed = rec.open.pop();
        debug_assert_eq!(closed, Some(self.id), "spans close innermost first");
    }
}

/// `span`'s duration minus what its direct children cover.
pub fn self_ns(spans: &[Span], span: SpanId) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == span)
        .map(Span::duration_ns)
        .sum();
    spans[span as usize].duration_ns().saturating_sub(children)
}

/// Count, total and order statistics of one op's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    pub count: u64,
    pub total_ns: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
}

impl OpStats {
    fn of(mut durations: Vec<u64>) -> OpStats {
        durations.sort_unstable();
        OpStats {
            count: durations.len() as u64,
            total_ns: durations.iter().sum(),
            p50_ns: percentile(&durations, 0.5),
            p99_ns: percentile(&durations, 0.99),
            max_ns: durations.last().copied().unwrap_or(0),
        }
    }
}

/// One of the slowest `advance_to` calls of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowAdvance {
    /// Which cell of the workload (0 for single-cell workloads).
    pub cell: usize,
    /// Host nanoseconds from the cell's start to the call.
    pub at_ns: u64,
    pub duration_ns: u64,
    /// The virtual time the call advanced to.
    pub virtual_us: u64,
}

/// How many slow `advance_to` spans the trace file lists.
pub const SLOWEST_ADVANCES: usize = 20;

/// Attribution of one traced workload run (one cell, or all cells of a sweep).
#[derive(Debug, Default)]
pub struct Profile {
    /// Calls issued by the driver or runner: direct children of a root.
    pub issued: Vec<(Op, OpStats)>,
    /// Calls issued from inside `workload.setup`.
    pub in_setup: Vec<(Op, OpStats)>,
    /// Σ root spans.
    pub run_ns: u64,
    /// Σ root self time.
    pub self_ns: u64,
    /// Σ root spans after their `workload.setup` child ended (the measured
    /// phase; the whole root for a cell without a set-up call).
    pub measured_ns: u64,
    /// Virtual microseconds the driver-issued calls covered: last minus first
    /// `advance_to` target, plus every `execute_direct`'s simulated duration.
    pub virtual_us: u64,
    pub slowest_advances: Vec<SlowAdvance>,
}

impl Profile {
    /// Stats of driver-issued calls to `op` (zeros if it was never called).
    pub fn issued(&self, op: Op) -> OpStats {
        self.issued
            .iter()
            .find(|(o, _)| *o == op)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }
}

/// Build the attribution from the spans of each cell. Every cell's first
/// span must be its root.
pub fn profile(cells: &[Vec<Span>]) -> Profile {
    use std::collections::BTreeMap;
    let mut issued: BTreeMap<Op, Vec<u64>> = BTreeMap::new();
    let mut in_setup: BTreeMap<Op, Vec<u64>> = BTreeMap::new();
    let mut out = Profile::default();
    for (cell, spans) in cells.iter().enumerate() {
        let root = &spans[0];
        assert!(
            root.op == Op::Run && root.parent == NO_PARENT,
            "first span must be the root"
        );
        out.run_ns += root.duration_ns();
        out.self_ns += self_ns(spans, 0);
        let measured_from = spans
            .iter()
            .find(|s| s.parent == 0 && s.op == Op::Setup)
            .map_or(root.start_ns, |s| s.end_ns);
        out.measured_ns += root.end_ns - measured_from;
        let mut reached: Option<u64> = None;
        for span in &spans[1..] {
            let table = if span.parent == 0 {
                &mut issued
            } else {
                &mut in_setup
            };
            table.entry(span.op).or_default().push(span.duration_ns());
            if span.op == Op::ExecuteDirect && span.parent == 0 {
                out.virtual_us += span.virtual_us;
            }
            if span.op == Op::AdvanceTo && span.parent == 0 {
                // Sum the forward steps: the first call only sets the origin.
                let from = reached.unwrap_or(span.virtual_us);
                out.virtual_us += span.virtual_us.saturating_sub(from);
                reached = Some(from.max(span.virtual_us));
                out.slowest_advances.push(SlowAdvance {
                    cell,
                    at_ns: span.start_ns - root.start_ns,
                    duration_ns: span.duration_ns(),
                    virtual_us: span.virtual_us,
                });
            }
        }
        // Keep memory flat across the cells of a sweep.
        out.slowest_advances
            .sort_unstable_by_key(|s| std::cmp::Reverse(s.duration_ns));
        out.slowest_advances.truncate(SLOWEST_ADVANCES);
    }
    out.issued = issued
        .into_iter()
        .map(|(op, d)| (op, OpStats::of(d)))
        .collect();
    out.in_setup = in_setup
        .into_iter()
        .map(|(op, d)| (op, OpStats::of(d)))
        .collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: Op, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op,
            parent,
            start_ns,
            end_ns,
            virtual_us: 0,
        }
    }

    /// root 0..1000; build 0..100; setup 100..300 with a nested deploy;
    /// two advances and a submit in the measured phase.
    fn synthetic() -> Vec<Span> {
        vec![
            span(Op::Run, NO_PARENT, 0, 1000),
            span(Op::ChainBuild, 0, 0, 100),
            span(Op::Setup, 0, 100, 300),
            span(Op::Deploy, 2, 120, 280),
            Span {
                virtual_us: 5_000,
                ..span(Op::AdvanceTo, 0, 310, 510)
            },
            span(Op::Submit, 0, 520, 560),
            Span {
                virtual_us: 9_000,
                ..span(Op::AdvanceTo, 0, 600, 900)
            },
        ]
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = synthetic();
        // 1000 − (100 + 200 + 200 + 40 + 300): the nested deploy is the
        // set-up span's child, not the root's, and must not count twice.
        assert_eq!(self_ns(&spans, 0), 160);
        assert_eq!(self_ns(&spans, 2), 40);
        assert_eq!(self_ns(&spans, 4), 200);
    }

    #[test]
    fn profile_separates_issued_from_setup_calls() {
        let p = profile(&[synthetic()]);
        assert_eq!(p.run_ns, 1000);
        assert_eq!(p.self_ns, 160);
        assert_eq!(p.measured_ns, 700);
        assert_eq!(p.virtual_us, 4_000);
        let adv = p.issued(Op::AdvanceTo);
        assert_eq!(
            (adv.count, adv.total_ns, adv.p50_ns, adv.max_ns),
            (2, 500, 200, 300)
        );
        assert_eq!(p.issued(Op::Deploy), OpStats::default());
        assert_eq!(p.in_setup, vec![(Op::Deploy, OpStats::of(vec![160]))]);
        // Issued totals + self time account for the whole root.
        let issued: u64 = p.issued.iter().map(|(_, s)| s.total_ns).sum();
        assert_eq!(issued + p.self_ns, p.run_ns);
        assert_eq!(p.slowest_advances[0].duration_ns, 300);
        assert_eq!(p.slowest_advances[0].at_ns, 600);
    }

    #[test]
    fn profile_sums_cells_and_caps_slowest() {
        let mut busy = vec![span(Op::Run, NO_PARENT, 0, 10_000)];
        for i in 0..50u64 {
            busy.push(span(Op::AdvanceTo, 0, i * 100, i * 100 + i + 1));
        }
        let p = profile(&[synthetic(), busy]);
        assert_eq!(p.run_ns, 11_000);
        assert_eq!(p.measured_ns, 700 + 10_000);
        assert_eq!(p.issued(Op::AdvanceTo).count, 52);
        assert_eq!(p.slowest_advances.len(), SLOWEST_ADVANCES);
        assert_eq!(p.slowest_advances[0].duration_ns, 300);
        assert_eq!(
            p.slowest_advances[2],
            SlowAdvance {
                cell: 1,
                at_ns: 4900,
                duration_ns: 50,
                virtual_us: 0
            }
        );
    }

    #[test]
    fn tracer_records_nesting_and_virtual_time() {
        let tracer = Tracer::default();
        {
            let _root = tracer.span(Op::Run, 0);
            {
                let setup = tracer.span(Op::Setup, 0);
                let _deploy = tracer.span(Op::Deploy, 0);
                setup.set_virtual_us(7);
            }
            let _adv = tracer.span(Op::AdvanceTo, 1_500_000);
        }
        let spans = tracer.take_spans();
        let shape: Vec<(Op, SpanId, u64)> = spans
            .iter()
            .map(|s| (s.op, s.parent, s.virtual_us))
            .collect();
        assert_eq!(
            shape,
            vec![
                (Op::Run, NO_PARENT, 0),
                (Op::Setup, 0, 7),
                (Op::Deploy, 1, 0),
                (Op::AdvanceTo, 0, 1_500_000),
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[3].end_ns);
    }
}
