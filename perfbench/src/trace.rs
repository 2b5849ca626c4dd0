//! The traced run's instrumentation, all of it on the benchmark side.
//!
//! Spans are taken around calls into each layer's public functions: the
//! engine's `run_for`, every [`Actor`] handler of [`OlsrNode`] (through
//! [`TracedNode`]), the advertise policy (through [`TimedPolicy`]), route
//! queries, and the offline selectors, extraction and routing of
//! `paper_static`. A span records its name, start, end and parent; the
//! recorder keeps per-name call counts, inclusive and self time for every
//! span and stores the first [`SPAN_CAPACITY`] span records in memory
//! until the run writes them out.
//!
//! The recorder is thread-local: each workload runs single-threaded, and
//! [`AdvertisePolicy`] must be `Send`, which rules out shared handles in
//! the policy wrapper.

use std::cell::RefCell;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use bytes::Bytes;
use qolsr_graph::{LocalView, NodeId};
use qolsr_proto::wire::{self, Peek};
use qolsr_proto::{AdvertisePolicy, OlsrNode};
use qolsr_sim::{Actor, Context, FrameDamage, TimerId};

use crate::json::Value;

/// Span records kept in memory per run; later spans still count towards
/// the per-name totals.
pub const SPAN_CAPACITY: usize = 1 << 16;

/// Every span the benchmark records, named by the module it times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `Simulator::run_for` of one slice (scheduler, fan-out, PHY,
    /// world events, plus the handlers below as children).
    EngineRun,
    /// `Actor::on_start`.
    Start,
    /// `on_message` with a HELLO frame.
    MsgHello,
    /// `on_message` with a TC frame.
    MsgTc,
    /// `on_message` with a data frame.
    MsgData,
    /// `on_message` with a frame `wire::peek` rejects.
    MsgMalformed,
    /// `on_timer` for the HELLO timer (includes MPR selection).
    TimerHello,
    /// `on_timer` for the TC timer (includes ANS selection, encoding).
    TimerTc,
    /// `on_timer` for the table sweep.
    TimerSweep,
    /// `on_timer` for the flow arrival clock.
    TimerData,
    /// `on_timer` for the transmit-queue service clock.
    TimerService,
    /// `on_timer` for any other timer id.
    TimerOther,
    /// `on_reset` / `on_crash`.
    Reset,
    /// `AdvertisePolicy::advertised_set` inside the live protocol.
    AdvertisedSet,
    /// A probe's `OlsrNode::route_count`.
    RouteQuery,
    /// `LocalView::extract`.
    ViewExtract,
    /// QOLSR MPR-2 `AnsSelector::select`.
    SelectMpr2,
    /// Topology filtering `AnsSelector::select`.
    SelectTf,
    /// FNBP `AnsSelector::select`.
    SelectFnbp,
    /// `qolsr::route`.
    Route,
    /// `qolsr::routing::optimal_value`.
    Optimal,
}

impl Span {
    /// Every span kind, in declaration order.
    pub const ALL: [Span; 21] = [
        Span::EngineRun,
        Span::Start,
        Span::MsgHello,
        Span::MsgTc,
        Span::MsgData,
        Span::MsgMalformed,
        Span::TimerHello,
        Span::TimerTc,
        Span::TimerSweep,
        Span::TimerData,
        Span::TimerService,
        Span::TimerOther,
        Span::Reset,
        Span::AdvertisedSet,
        Span::RouteQuery,
        Span::ViewExtract,
        Span::SelectMpr2,
        Span::SelectTf,
        Span::SelectFnbp,
        Span::Route,
        Span::Optimal,
    ];

    /// The span's name as written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Span::EngineRun => "sim.engine.run_for",
            Span::Start => "olsr.node.start",
            Span::MsgHello => "olsr.node.msg.hello",
            Span::MsgTc => "olsr.node.msg.tc",
            Span::MsgData => "olsr.node.msg.data",
            Span::MsgMalformed => "olsr.node.msg.malformed",
            Span::TimerHello => "olsr.node.timer.hello",
            Span::TimerTc => "olsr.node.timer.tc",
            Span::TimerSweep => "olsr.node.timer.sweep",
            Span::TimerData => "olsr.node.timer.data",
            Span::TimerService => "olsr.node.timer.service",
            Span::TimerOther => "olsr.node.timer.other",
            Span::Reset => "olsr.node.reset",
            Span::AdvertisedSet => "core.selector.advertised_set",
            Span::RouteQuery => "olsr.routing.query",
            Span::ViewExtract => "graph.view.extract",
            Span::SelectMpr2 => "core.selector.qolsr_mpr2.select",
            Span::SelectTf => "core.selector.topology_filtering.select",
            Span::SelectFnbp => "core.selector.fnbp.select",
            Span::Route => "core.routing.route",
            Span::Optimal => "core.routing.optimal",
        }
    }
}

/// Per-name accumulated time.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Totals {
    /// Spans closed.
    pub calls: u64,
    /// Summed span durations, ns.
    pub incl_ns: u64,
    /// Summed durations minus the time child spans cover, ns.
    pub self_ns: u64,
}

impl Totals {
    /// Inclusive time, ms.
    pub fn incl_ms(&self) -> f64 {
        self.incl_ns as f64 / 1e6
    }

    /// Self time, ms.
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
}

/// One stored span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// What was timed.
    pub span: Span,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing stored span, if any.
    pub parent: Option<u32>,
}

struct Open {
    span: Span,
    start_ns: u64,
    record: Option<u32>,
    child_ns: u64,
}

struct Recorder {
    epoch: Instant,
    totals: [Totals; Span::ALL.len()],
    stack: Vec<Open>,
    spans: Vec<SpanRecord>,
    unstored: u64,
}

impl Recorder {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            totals: [Totals::default(); Span::ALL.len()],
            stack: Vec::new(),
            spans: Vec::new(),
            unstored: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::new());
}

/// An open span; closing happens on drop.
#[must_use = "a span closes when its guard drops"]
pub struct Guard(());

/// Opens a span, nested under the innermost open one.
pub fn enter(span: Span) -> Guard {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let start_ns = r.now_ns();
        let record = if r.spans.len() < SPAN_CAPACITY {
            let parent = r.stack.last().and_then(|o| o.record);
            r.spans.push(SpanRecord {
                span,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            Some((r.spans.len() - 1) as u32)
        } else {
            r.unstored += 1;
            None
        };
        r.stack.push(Open {
            span,
            start_ns,
            record,
            child_ns: 0,
        });
    });
    Guard(())
}

impl Drop for Guard {
    fn drop(&mut self) {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let end_ns = r.now_ns();
            // Guards close in nesting order, so the stack is never empty
            // here; a drop must not panic, so an empty stack is ignored.
            let Some(open) = r.stack.pop() else {
                return;
            };
            let dur = end_ns - open.start_ns;
            let t = &mut r.totals[open.span as usize];
            t.calls += 1;
            t.incl_ns += dur;
            t.self_ns += dur.saturating_sub(open.child_ns);
            if let Some(i) = open.record {
                r.spans[i as usize].end_ns = end_ns;
            }
            if let Some(parent) = r.stack.last_mut() {
                parent.child_ns += dur;
            }
        });
    }
}

/// Times `f` as one `span`.
pub fn timed<T>(span: Span, f: impl FnOnce() -> T) -> T {
    let _g = enter(span);
    f()
}

/// Clears totals and stored spans (the start of a measured window).
pub fn reset() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.stack.is_empty(), "reset inside an open span");
        r.totals = [Totals::default(); Span::ALL.len()];
        r.spans.clear();
        r.unstored = 0;
    });
}

/// The accumulated totals of `span`.
pub fn totals(span: Span) -> Totals {
    RECORDER.with(|r| r.borrow().totals[span as usize])
}

/// Writes the stored spans as JSON lines (`id`, `name`, `start_ns`,
/// `end_ns`, `parent`), followed by one line counting the spans that
/// were timed but not stored. Returns the number of spans written.
///
/// # Errors
///
/// Returns the I/O error if the file cannot be written.
pub fn write_spans(path: &Path) -> std::io::Result<usize> {
    RECORDER.with(|r| {
        let r = r.borrow();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in r.spans.iter().enumerate() {
            let line = Value::obj([
                ("id", Value::from(i)),
                ("name", Value::from(s.span.name())),
                ("start_ns", Value::from(s.start_ns)),
                ("end_ns", Value::from(s.end_ns)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                ),
            ]);
            writeln!(out, "{}", line.to_json())?;
        }
        let tail = Value::obj([("unstored_spans", Value::from(r.unstored))]);
        writeln!(out, "{}", tail.to_json())?;
        out.flush()?;
        Ok(r.spans.len())
    })
}

/// An [`AdvertisePolicy`] that times every selection of the policy it
/// wraps.
#[derive(Debug, Clone)]
pub struct TimedPolicy<P>(pub P);

impl<P: AdvertisePolicy> AdvertisePolicy for TimedPolicy<P> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn advertised_set(&mut self, view: &LocalView, mpr_selectors: &[NodeId]) -> Vec<NodeId> {
        timed(Span::AdvertisedSet, || {
            self.0.advertised_set(view, mpr_selectors)
        })
    }
}

/// An [`Actor`] that delegates every method to an [`OlsrNode`] and times
/// its handlers.
#[derive(Debug)]
pub struct TracedNode<P: AdvertisePolicy>(pub OlsrNode<TimedPolicy<P>>);

/// The span of a timer, by the timer numbering of `qolsr_proto::node`
/// (1 HELLO, 2 TC, 3 sweep, 4 flow arrivals, 5 queue service).
fn timer_span(timer: TimerId) -> Span {
    match timer.0 {
        1 => Span::TimerHello,
        2 => Span::TimerTc,
        3 => Span::TimerSweep,
        4 => Span::TimerData,
        5 => Span::TimerService,
        _ => Span::TimerOther,
    }
}

impl<P: AdvertisePolicy> Actor for TracedNode<P> {
    type Msg = Bytes;

    fn on_start(&mut self, ctx: &mut Context<'_, Bytes>) {
        timed(Span::Start, || self.0.on_start(ctx));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Bytes>, timer: TimerId) {
        timed(timer_span(timer), || self.0.on_timer(ctx, timer));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Bytes>, from: NodeId, msg: Bytes) {
        // The span opens before the peek, so classifying the frame is
        // charged to the handler, which peeks the same header anyway.
        let guard = enter(Span::MsgMalformed);
        let span = match wire::peek(&msg) {
            Ok(Peek::Hello) => Span::MsgHello,
            Ok(Peek::Tc(_)) => Span::MsgTc,
            Ok(Peek::Data(_)) => Span::MsgData,
            Err(_) => Span::MsgMalformed,
        };
        relabel(span);
        self.0.on_message(ctx, from, msg);
        drop(guard);
    }

    fn on_reset(&mut self) {
        timed(Span::Reset, || self.0.on_reset());
    }

    fn on_rehome(&mut self, shard: usize) {
        self.0.on_rehome(shard);
    }

    fn on_crash(&mut self) {
        timed(Span::Reset, || self.0.on_crash());
    }

    fn corrupt_frame(msg: &Bytes, damage: &FrameDamage) -> Option<Bytes> {
        OlsrNode::<TimedPolicy<P>>::corrupt_frame(msg, damage)
    }

    fn is_data(msg: &Bytes) -> bool {
        OlsrNode::<TimedPolicy<P>>::is_data(msg)
    }
}

/// Renames the innermost open span (once its kind is known).
fn relabel(span: Span) {
    RECORDER.with(|r| {
        let r = &mut *r.borrow_mut();
        let open = r.stack.last_mut().expect("relabel inside a span");
        open.span = span;
        if let Some(i) = open.record {
            r.spans[i as usize].span = span;
        }
    });
}
