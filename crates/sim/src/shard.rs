//! Region-sharded parallel execution of the discrete-event engine.
//!
//! [`ShardedSimulator`] partitions the nodes into `K` vertical stripes of
//! the deployment's x-extent, gives each shard a private [`EventQueue`],
//! and advances virtual time in windows no wider than the radio latency,
//! so a delivery emitted inside a window is never due before the window
//! ends:
//!
//! * **Window** — every shard with work due in `[t0, t1)` steps on its
//!   own scoped thread, dispatching through the shared channel
//!   (`crate::channel`). Self-timers landing inside the window run
//!   locally under *provisional* sequence numbers (high bit set); every
//!   other child goes to the shard's log.
//! * **Barrier and merge** — a k-way merge walks the shards' dispatch
//!   logs in global `(time, seq)` order (each log is already sorted),
//!   assigns exact sequence numbers to the children in that order,
//!   routes deliveries to their receivers' shards and appends the trace.
//!   World-event instants run serially, one dispatch per merge, and a
//!   rejoining node is re-homed to the stripe covering its position.
//!
//! With zero radio jitter a run is byte-identical to
//! [`Simulator`](crate::Simulator) at any shard count. With `jitter > 0`
//! each sender draws jitter from its own stream, so runs differ from the
//! single queue but stay identical across shard counts; and
//! [`Context::stop`] takes effect at the next barrier.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::iter::Peekable;

use qolsr_graph::{DynamicTopology, NodeId, Point2, Topology, WorldEvent};

use crate::channel::{apply_world_event, Channel, FrontEnd, Reboot};
use crate::engine::{Actor, Context, Effect, EventKind, RadioConfig, Scheduled, SimStats, TimerId};
use crate::queue::{EventQueue, SchedulerKind};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceBuffer, TraceEvent, TraceKind};

/// How a simulation executes: the single-queue reference engine, or the
/// region-sharded parallel engine with a deterministic barrier merge.
///
/// `SingleShard` (the default) is [`Simulator`](crate::Simulator), the differential
/// reference every optimization in this workspace is pinned against.
/// `Sharded { shards }` partitions nodes into `shards` spatial stripes
/// and steps them in parallel windows; with zero radio jitter its
/// observable schedule is byte-identical to the reference for any shard
/// count (see the [module docs](self) for the contract).
///
/// # Examples
///
/// A seeded two-shard run replays the single-queue engine exactly:
///
/// ```
/// use qolsr_graph::{NodeId, Point2, TopologyBuilder};
/// use qolsr_metrics::LinkQos;
/// use qolsr_sim::{
///     Actor, Context, ExecMode, RadioConfig, ShardedSimulator, SimDuration, Simulator, TimerId,
/// };
///
/// struct Beacon;
/// impl Actor for Beacon {
///     type Msg = u32;
///     fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
///         ctx.broadcast(ctx.node_id().0);
///         ctx.set_timer(SimDuration::from_millis(100), TimerId(0));
///     }
///     fn on_timer(&mut self, ctx: &mut Context<'_, u32>, _t: TimerId) {
///         ctx.broadcast(ctx.node_id().0);
///         ctx.set_timer(SimDuration::from_millis(100), TimerId(0));
///     }
///     fn on_message(&mut self, _ctx: &mut Context<'_, u32>, _from: NodeId, _msg: u32) {}
/// }
///
/// let mut b = TopologyBuilder::new(10.0);
/// let n0 = b.add_node(Point2::new(0.0, 0.0));
/// let n1 = b.add_node(Point2::new(5.0, 0.0));
/// let n2 = b.add_node(Point2::new(9.0, 0.0));
/// b.link(n0, n1, LinkQos::uniform(1)).unwrap();
/// b.link(n1, n2, LinkQos::uniform(1)).unwrap();
/// let topo = b.build();
///
/// assert_eq!(ExecMode::default(), ExecMode::SingleShard);
/// let mode = ExecMode::Sharded { shards: 2 };
///
/// let mut single = Simulator::new(topo.clone(), RadioConfig::default(), 7, |_| Beacon);
/// single.run_for(SimDuration::from_secs(2));
///
/// let mut sharded =
///     ShardedSimulator::new(topo, RadioConfig::default(), 7, mode.shards(), |_, _| Beacon);
/// sharded.run_for(SimDuration::from_secs(2));
///
/// assert_eq!(single.stats(), sharded.stats());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The single-queue engine ([`Simulator`](crate::Simulator)) — the differential
    /// reference.
    #[default]
    SingleShard,
    /// The region-sharded engine ([`ShardedSimulator`]) with the given
    /// shard count (clamped to at least 1).
    Sharded {
        /// Number of spatial shards.
        shards: u32,
    },
}

impl ExecMode {
    /// The shard count this mode runs with (`1` for `SingleShard`).
    pub fn shards(&self) -> u32 {
        match self {
            ExecMode::SingleShard => 1,
            ExecMode::Sharded { shards } => (*shards).max(1),
        }
    }
}

/// Marker bit of a provisional in-window sequence number. Provisional
/// numbers sort after every committed number at the same instant — which
/// matches the serial engine, where an event created in the current
/// window necessarily receives a larger sequence number than anything
/// scheduled before the window started.
const PROVISIONAL: u64 = 1 << 63;

/// Static x-stripe partition of the deployment area. A node's *home
/// shard* is the stripe covering its current position; re-homing happens
/// only when a node rejoins after churn (scheduling locality is a
/// performance concern, not a correctness one, so plain motion does not
/// migrate actors mid-life).
#[derive(Debug, Clone, Copy)]
struct RegionMap {
    min_x: f64,
    /// `shards / width` of the initial deployment's x-extent; `0.0`
    /// collapses everything into shard 0 (single shard or degenerate
    /// deployment).
    inv_stripe: f64,
    shards: u32,
}

impl RegionMap {
    fn new(world: &DynamicTopology, shards: usize) -> Self {
        let mut min_x = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        for node in world.nodes() {
            let x = world.position(node).x;
            min_x = min_x.min(x);
            max_x = max_x.max(x);
        }
        let width = max_x - min_x;
        let usable = width.is_finite() && width > 0.0 && shards > 1;
        Self {
            min_x: if min_x.is_finite() { min_x } else { 0.0 },
            inv_stripe: if usable { shards as f64 / width } else { 0.0 },
            shards: shards as u32,
        }
    }

    fn shard_of(&self, p: Point2) -> usize {
        if self.inv_stripe == 0.0 {
            return 0;
        }
        let stripe = ((p.x - self.min_x) * self.inv_stripe).floor();
        (stripe.max(0.0) as usize).min(self.shards as usize - 1)
    }
}

/// One dispatch performed since the last barrier, in local order.
#[derive(Clone, Copy)]
struct DispatchRecord {
    time: SimTime,
    /// The dispatched event's sequence number — exact, or provisional
    /// (high bit) for a timer that was both created and fired within the
    /// window.
    seq: u64,
    node: NodeId,
    /// Exclusive end index of this record's children in the shard's
    /// flat child log (the start is the previous record's end).
    children_end: u32,
}

/// An event created since the last barrier, awaiting its exact sequence
/// number there.
enum Child<M> {
    /// A self-timer due within the window: already pushed into the local
    /// queue under the next provisional number; the barrier walk maps
    /// that number to an exact one.
    LocalTimer,
    /// A self-timer due at or after the window end.
    Timer {
        at: SimTime,
        timer: TimerId,
        generation: u32,
    },
    /// A radio delivery (always due at or after the window end, because
    /// the window is narrower than the radio latency).
    Deliver {
        at: SimTime,
        to: NodeId,
        from: NodeId,
        msg: M,
        generation: u32,
    },
}

/// A node's engine-side state, moved as one value when it is re-homed.
struct Member<A> {
    actor: A,
    rng: SimRng,
    /// Delivery-jitter stream (split from the engine seed after the node
    /// streams, in node order). Unused when the radio has zero jitter.
    jitter: SimRng,
    front: FrontEnd,
}

/// State every shard reads during a window and nobody mutates until the
/// next barrier.
#[derive(Clone, Copy)]
struct Frozen<'a> {
    world: &'a DynamicTopology,
    radio: &'a RadioConfig,
    generations: &'a [u32],
    /// Per node: `(home shard, slot within the shard)`.
    locs: &'a [(u32, u32)],
}

/// One spatial shard: its members, a private event queue, and the
/// per-window logs the barrier consumes.
struct Shard<A: Actor> {
    queue: EventQueue<Scheduled<A::Msg>>,
    /// Member node ids; `slots[i]` belongs to `members[i]`.
    members: Vec<NodeId>,
    slots: Vec<Member<A>>,
    /// Window dispatch log, in local dispatch order.
    records: Vec<DispatchRecord>,
    /// Flat per-record child log (see [`DispatchRecord::children_end`]).
    children: Vec<Child<A::Msg>>,
    /// Next provisional sequence number of the current window.
    next_prov: u64,
    /// Provisional number -> exact number, filled by the barrier walk in
    /// provisional-assignment order.
    prov_map: Vec<u64>,
    /// Effect scratch buffer for handler invocations.
    effects: Vec<Effect<A::Msg>>,
    /// Stats accumulated since the last barrier; merged into the global
    /// counters there (all fields are order-independent sums).
    window_stats: SimStats,
    /// Set when a handler called [`Context::stop`]; honored at the
    /// barrier.
    stop: bool,
}

impl<A: Actor> Shard<A> {
    fn new(scheduler: SchedulerKind) -> Self {
        Self {
            queue: EventQueue::new(scheduler),
            members: Vec::new(),
            slots: Vec::new(),
            records: Vec::new(),
            children: Vec::new(),
            next_prov: 0,
            prov_map: Vec::new(),
            effects: Vec::new(),
            window_stats: SimStats::default(),
            stop: false,
        }
    }

    /// Dispatches one event popped from this shard's queue (or, for a
    /// serial instant, from any queue) through the channel. Self-timers
    /// due before `end` go straight back into the local queue under a
    /// provisional sequence number; every other child is logged for the
    /// barrier, which assigns the exact numbers.
    fn dispatch(&mut self, ev: Scheduled<A::Msg>, frozen: Frozen<'_>, end: u64) {
        let Frozen {
            world,
            radio,
            generations,
            locs,
        } = frozen;
        let (now, node, seq, generation) = (ev.time, ev.node, ev.seq, ev.generation);
        let mut channel = Channel {
            radio,
            world,
            stats: &mut self.window_stats,
        };
        channel.stats.events += 1;
        // Only a current event is guaranteed to sit on its home shard, so
        // the slot is indexed only once `admit` has passed the stale check.
        let slot = locs[node.index()].1 as usize;
        if !channel.admit::<A>(generations, &ev, || &mut self.slots[slot].front) {
            return;
        }
        debug_assert_eq!(self.members[slot], node);
        let member = &mut self.slots[slot];
        let ctx = Context {
            now,
            node,
            world,
            rng: &mut member.rng,
            effects: &mut self.effects,
            stop: &mut self.stop,
        };
        channel.invoke(&mut member.actor, ctx, ev.kind);
        let children = &mut self.children;
        for effect in self.effects.drain(..) {
            let timer = channel.transmit::<A>(
                node,
                now,
                &mut member.front,
                &mut member.jitter,
                effect,
                |at, to, frame| {
                    children.push(Child::Deliver {
                        at,
                        to,
                        from: node,
                        msg: frame.into_owned(),
                        generation: generations[to.index()],
                    })
                },
            );
            let Some((after, timer)) = timer else {
                continue;
            };
            let at = now + after;
            if at.as_micros() < end {
                self.queue.push(Scheduled {
                    time: at,
                    seq: PROVISIONAL | self.next_prov,
                    node,
                    generation,
                    kind: EventKind::Timer(timer),
                });
                self.next_prov += 1;
                children.push(Child::LocalTimer);
            } else {
                children.push(Child::Timer {
                    at,
                    timer,
                    generation,
                });
            }
        }
        self.records.push(DispatchRecord {
            time: now,
            seq,
            node,
            children_end: self.children.len() as u32,
        });
    }
}

/// A scheduled world event; kept outside the shard queues because world
/// mutation is a global barrier. Ordered by `(time, seq)` like every
/// other event.
struct WorldItem {
    time: SimTime,
    seq: u64,
    event: WorldEvent,
}

impl PartialEq for WorldItem {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for WorldItem {}
impl PartialOrd for WorldItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WorldItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap, we want the earliest.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Runs one shard through the window `[its next due, end)`.
fn run_window<A: Actor>(shard: &mut Shard<A>, frozen: Frozen<'_>, end: u64) {
    debug_assert!(shard.records.is_empty() && shard.children.is_empty());
    while !shard.stop && shard.queue.next_due().is_some_and(|due| due < end) {
        let ev = shard.queue.pop().expect("due item present");
        shard.dispatch(ev, frozen, end);
    }
}

/// The region-sharded parallel engine. See the [module docs](self) for
/// the window/barrier algorithm and the determinism contract; see
/// [`ExecMode`] for a doctest proving two-shard/single-queue parity.
pub struct ShardedSimulator<A: Actor> {
    world: DynamicTopology,
    radio: RadioConfig,
    region: RegionMap,
    shards: Vec<Shard<A>>,
    /// Per node: `(home shard, slot within the shard)`.
    locs: Vec<(u32, u32)>,
    /// Per-node lifetime counters, as in [`Simulator`](crate::Simulator). Only mutated at
    /// barriers, so shard workers may read them as a frozen slice.
    generations: Vec<u32>,
    world_queue: BinaryHeap<WorldItem>,
    now: SimTime,
    seq: u64,
    stats: SimStats,
    stop: bool,
    trace: Option<TraceBuffer>,
    /// Parallel-window width in µs; at most the radio latency (the
    /// lookahead bound), `0` iff the latency is zero (serial instants
    /// only).
    window_micros: u64,
    /// Scratch for the serial-instant batch.
    instant_scratch: Vec<Scheduled<A::Msg>>,
}

impl<A: Actor + Send> ShardedSimulator<A>
where
    A::Msg: Send,
{
    /// Creates a sharded simulator over `topology` with `shards` spatial
    /// stripes (clamped to `1..=node count`), building one actor per node
    /// with `build(node, home_shard)` in node-id order, and schedules
    /// every actor's start event at time 0.
    pub fn new(
        topology: Topology,
        radio: RadioConfig,
        seed: u64,
        shards: u32,
        build: impl FnMut(NodeId, usize) -> A,
    ) -> Self {
        Self::with_scheduler(
            topology,
            radio,
            seed,
            SchedulerKind::default(),
            shards,
            build,
        )
    }

    /// Like [`ShardedSimulator::new`] with an explicit per-shard queue
    /// scheduler (see [`Simulator::with_scheduler`](crate::Simulator::with_scheduler)).
    pub fn with_scheduler(
        topology: Topology,
        radio: RadioConfig,
        seed: u64,
        scheduler: SchedulerKind,
        shards: u32,
        mut build: impl FnMut(NodeId, usize) -> A,
    ) -> Self {
        let mut engine_rng = SimRng::seed_from_u64(seed);
        let n = topology.len();
        let k = (shards.max(1) as usize).min(n.max(1));
        let world = DynamicTopology::new(&topology);
        let region = RegionMap::new(&world, k);

        // Mirror the single-queue construction order exactly: actors in
        // node order first, then one RNG split per node. The extra
        // jitter streams are split afterwards so node RNG streams stay
        // byte-identical to `Simulator`'s.
        let actors: Vec<A> = topology
            .nodes()
            .map(|id| build(id, region.shard_of(world.position(id))))
            .collect();
        let rngs: Vec<SimRng> = (0..n).map(|_| engine_rng.split()).collect();
        let jitters: Vec<SimRng> = (0..n).map(|_| engine_rng.split()).collect();
        let members = actors
            .into_iter()
            .zip(rngs)
            .zip(jitters)
            .zip(FrontEnd::per_node(seed, n, &radio))
            .map(|(((actor, rng), jitter), front)| Member {
                actor,
                rng,
                jitter,
                front,
            });

        let mut shard_vec: Vec<Shard<A>> = (0..k).map(|_| Shard::new(scheduler)).collect();
        let mut locs = vec![(0u32, 0u32); n];
        for (i, member) in members.enumerate() {
            let node = NodeId(i as u32);
            let home = region.shard_of(world.position(node));
            let shard = &mut shard_vec[home];
            locs[i] = (home as u32, shard.members.len() as u32);
            shard.members.push(node);
            shard.slots.push(member);
        }

        let window_micros = radio.latency.as_micros();
        let mut sim = Self {
            world,
            radio,
            region,
            shards: shard_vec,
            locs,
            generations: vec![0; n],
            world_queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            stats: SimStats::default(),
            stop: false,
            trace: None,
            window_micros,
            instant_scratch: Vec::new(),
        };
        for i in 0..n {
            sim.push_exact(SimTime::ZERO, NodeId(i as u32), EventKind::Start);
        }
        sim
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        debug_assert!(s < PROVISIONAL, "sequence space exhausted");
        s
    }

    /// Pushes an actor event with an exact sequence number into its
    /// node's home-shard queue.
    fn push_exact(&mut self, time: SimTime, node: NodeId, kind: EventKind<A::Msg>) {
        debug_assert!(!matches!(kind, EventKind::World(_)));
        let generation = self.generations[node.index()];
        let seq = self.next_seq();
        let home = self.locs[node.index()].0 as usize;
        self.shards[home].queue.push(Scheduled {
            time,
            seq,
            node,
            generation,
            kind,
        });
    }

    /// Schedules a world event for application at virtual time `at`
    /// (clamped to now), interleaved with actor events by `(time, seq)`
    /// exactly as in [`Simulator::schedule_world`](crate::Simulator::schedule_world). World instants are
    /// window barriers.
    pub fn schedule_world(&mut self, at: SimTime, event: WorldEvent) {
        let at = at.max(self.now);
        let seq = self.next_seq();
        self.world_queue.push(WorldItem {
            time: at,
            seq,
            event,
        });
    }

    /// Schedules a stream of timed world events (e.g. a generated
    /// scenario schedule).
    pub fn schedule_world_events(
        &mut self,
        events: impl IntoIterator<Item = (SimTime, WorldEvent)>,
    ) {
        for (at, ev) in events {
            self.schedule_world(at, ev);
        }
    }

    /// Enables event tracing with the given ring-buffer capacity. Trace
    /// records are emitted at barriers, in exact serial dispatch order.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(TraceBuffer::new(capacity));
    }

    /// The trace buffer, if tracing is enabled.
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.trace.as_ref()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Engine statistics so far (aggregated across shards at barriers).
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// The simulated world (current ground truth).
    pub fn world(&self) -> &DynamicTopology {
        &self.world
    }

    /// Mutable access to the world, for out-of-band mutation between
    /// `run_*` calls.
    pub fn world_mut(&mut self) -> &mut DynamicTopology {
        &mut self.world
    }

    /// Number of node slots.
    pub fn node_count(&self) -> usize {
        self.locs.len()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The home shard of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn shard_of(&self, n: NodeId) -> usize {
        self.locs[n.index()].0 as usize
    }

    /// The shard whose x-stripe covers position `p` — where a node at
    /// `p` would be (re-)homed.
    pub fn shard_for_position(&self, p: Point2) -> usize {
        self.region.shard_of(p)
    }

    /// Member node ids of shard `shard`, in slot order.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_members(&self, shard: usize) -> &[NodeId] {
        &self.shards[shard].members
    }

    /// Overrides the parallel-window width (testing support: the shard
    /// differential proptests sweep arbitrary widths). Clamped into
    /// `[1 µs, radio latency]` — wider than the latency would break the
    /// lookahead bound; with a zero-latency radio the width stays 0 and
    /// every instant runs serially.
    pub fn set_window(&mut self, window: SimDuration) {
        let latency = self.radio.latency.as_micros();
        self.window_micros = window.as_micros().clamp(1, latency.max(1)).min(latency);
    }

    /// Immutable access to the actor of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn actor(&self, n: NodeId) -> &A {
        let (shard, slot) = self.locs[n.index()];
        &self.shards[shard as usize].slots[slot as usize].actor
    }

    /// Mutable access to the actor of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn actor_mut(&mut self, n: NodeId) -> &mut A {
        &mut self.member_mut(n).actor
    }

    /// Iterates over `(id, actor)` pairs in node-id order.
    pub fn actors(&self) -> impl Iterator<Item = (NodeId, &A)> {
        self.locs.iter().enumerate().map(|(i, &(shard, slot))| {
            (
                NodeId(i as u32),
                &self.shards[shard as usize].slots[slot as usize].actor,
            )
        })
    }

    /// Runs until every queue drains, a handler requests a stop, or
    /// virtual time would exceed `deadline`; afterwards `now() ==
    /// deadline` unless stopped early. A deadline already in the past is
    /// a no-op.
    pub fn run_until(&mut self, deadline: SimTime) {
        let deadline = deadline.max(self.now);
        let dl = deadline.as_micros();
        while !self.stop {
            let next_actor = self
                .shards
                .iter_mut()
                .filter_map(|s| s.queue.next_due())
                .min();
            let next_world = self.world_queue.peek().map(|w| w.time.as_micros());
            let next = match (next_actor, next_world) {
                (None, None) => break,
                (a, w) => a.unwrap_or(u64::MAX).min(w.unwrap_or(u64::MAX)),
            };
            if next > dl {
                break;
            }
            // The window may not cross the next world instant (a global
            // barrier) or extend past the deadline; `end <= next` means
            // the instant itself must run serially.
            let end = next
                .saturating_add(self.window_micros)
                .min(next_world.unwrap_or(u64::MAX))
                .min(dl.saturating_add(1));
            if end <= next {
                self.run_instant(SimTime::from_micros(next));
            } else {
                self.run_window_parallel(end);
                self.now = self.now.max(SimTime::from_micros(end - 1));
            }
        }
        if !self.stop {
            self.now = deadline;
        }
    }

    /// Runs for `d` of virtual time from the current instant.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Steps every shard with due work through `[its next due, end)` in
    /// parallel, then merges at the barrier.
    fn run_window_parallel(&mut self, end: u64) {
        let frozen = Frozen {
            world: &self.world,
            radio: &self.radio,
            generations: &self.generations,
            locs: &self.locs,
        };
        let mut active: Vec<&mut Shard<A>> = self
            .shards
            .iter_mut()
            .filter_map(|shard| {
                let due = shard.queue.next_due()?;
                (due < end).then_some(shard)
            })
            .collect();
        if active.len() <= 1 {
            for shard in active {
                run_window(shard, frozen, end);
            }
        } else {
            crossbeam::thread::scope(|scope| {
                for shard in active.drain(..) {
                    scope.spawn(move |_| run_window(shard, frozen, end));
                }
            })
            .expect("shard worker panicked");
        }
        self.barrier_merge();
    }

    /// K-way merges the shards' window logs in globally sorted
    /// `(time, seq)` order, assigning exact sequence numbers to every
    /// child event in that order and routing cross-shard deliveries to
    /// their receivers' queues. Reproduces the serial engine's trace and
    /// sequence assignment exactly.
    fn barrier_merge(&mut self) {
        let k = self.shards.len();
        let mut rec_cursor = vec![0usize; k];
        let mut child_cursor = vec![0usize; k];
        loop {
            let mut best: Option<(u64, u64, usize)> = None;
            for (i, shard) in self.shards.iter().enumerate() {
                let Some(rec) = shard.records.get(rec_cursor[i]) else {
                    continue;
                };
                // Resolve a provisional head: its parent record is
                // earlier in the same log, hence already walked.
                let seq = if rec.seq & PROVISIONAL != 0 {
                    shard.prov_map[(rec.seq & !PROVISIONAL) as usize]
                } else {
                    rec.seq
                };
                let key = (rec.time.as_micros(), seq);
                if best.is_none_or(|(t, s, _)| key < (t, s)) {
                    best = Some((key.0, key.1, i));
                }
            }
            let Some((_, _, i)) = best else { break };
            let rec = self.shards[i].records[rec_cursor[i]];
            rec_cursor[i] += 1;
            if let Some(trace) = &mut self.trace {
                trace.record(TraceEvent {
                    time: rec.time,
                    node: rec.node,
                    kind: TraceKind::Dispatched,
                });
            }
            let start = child_cursor[i];
            let child_end = rec.children_end as usize;
            child_cursor[i] = child_end;
            for ci in start..child_end {
                // Move the child out; `LocalTimer` doubles as the cheap
                // placeholder so the log keeps its allocation.
                let child = std::mem::replace(&mut self.shards[i].children[ci], Child::LocalTimer);
                match child {
                    Child::LocalTimer => {
                        let exact = self.next_seq();
                        self.shards[i].prov_map.push(exact);
                    }
                    Child::Timer {
                        at,
                        timer,
                        generation,
                    } => {
                        let seq = self.next_seq();
                        self.shards[i].queue.push(Scheduled {
                            time: at,
                            seq,
                            node: rec.node,
                            generation,
                            kind: EventKind::Timer(timer),
                        });
                    }
                    Child::Deliver {
                        at,
                        to,
                        from,
                        msg,
                        generation,
                    } => {
                        let seq = self.next_seq();
                        let home = self.locs[to.index()].0 as usize;
                        self.shards[home].queue.push(Scheduled {
                            time: at,
                            seq,
                            node: to,
                            generation,
                            kind: EventKind::Deliver { from, msg },
                        });
                    }
                }
            }
        }
        for shard in &mut self.shards {
            self.stats.merge(&std::mem::take(&mut shard.window_stats));
            self.stop |= shard.stop;
            shard.records.clear();
            shard.children.clear();
            shard.next_prov = 0;
            shard.prov_map.clear();
        }
    }

    /// Serially dispatches everything due at exactly `t` — world events
    /// interleaved with actor events by `(time, seq)`, including
    /// zero-delay effect chains landing back at `t` — with effects
    /// applied immediately under exact sequence numbers.
    fn run_instant(&mut self, t: SimTime) {
        self.now = t;
        let t_us = t.as_micros();
        let mut batch = std::mem::take(&mut self.instant_scratch);
        loop {
            if self.stop {
                break;
            }
            batch.clear();
            for shard in &mut self.shards {
                while shard.queue.next_due() == Some(t_us) {
                    batch.push(shard.queue.pop().expect("due item present"));
                }
            }
            let world_due = self.world_queue.peek().is_some_and(|w| w.time == t);
            if batch.is_empty() && !world_due {
                break;
            }
            batch.sort_unstable_by_key(|e| e.seq);
            let mut events = batch.drain(..).peekable();
            self.drain_instant(t, &mut events);
            // A stop mid-instant leaves pre-popped events unprocessed:
            // hand them back to their queues, as the serial engine would
            // have left them.
            for ev in events {
                let home = self.locs[ev.node.index()].0 as usize;
                self.shards[home].queue.push(ev);
            }
        }
        self.instant_scratch = batch;
    }

    /// Interleaves one sorted actor-event batch with the world events
    /// due at `t`, in `(time, seq)` order.
    fn drain_instant(
        &mut self,
        t: SimTime,
        events: &mut Peekable<std::vec::Drain<'_, Scheduled<A::Msg>>>,
    ) {
        loop {
            if self.stop {
                return;
            }
            let world_seq = self
                .world_queue
                .peek()
                .filter(|w| w.time == t)
                .map(|w| w.seq);
            let world_first = match (events.peek(), world_seq) {
                (None, None) => return,
                (None, Some(_)) => true,
                (Some(_), None) => false,
                (Some(ev), Some(ws)) => ws < ev.seq,
            };
            if world_first {
                let item = self.world_queue.pop().expect("peeked world item");
                self.stats.events += 1;
                self.apply_world_event(item.event);
            } else {
                let ev = events.next().expect("peeked actor event");
                self.dispatch_serial(ev);
            }
        }
    }

    /// Dispatches one actor event serially (instant phase): the same
    /// dispatch as inside a window with nothing local (`end` = now), then
    /// an immediate merge gives its children their exact sequence numbers.
    fn dispatch_serial(&mut self, ev: Scheduled<A::Msg>) {
        debug_assert_eq!(ev.seq & PROVISIONAL, 0, "instants only see exact seqs");
        let frozen = Frozen {
            world: &self.world,
            radio: &self.radio,
            generations: &self.generations,
            locs: &self.locs,
        };
        let (end, home) = (ev.time.as_micros(), self.locs[ev.node.index()].0);
        self.shards[home as usize].dispatch(ev, frozen, end);
        self.barrier_merge();
    }

    /// The engine-side state of node `n`, wherever it is homed.
    fn member_mut(&mut self, n: NodeId) -> &mut Member<A> {
        let (shard, slot) = self.locs[n.index()];
        &mut self.shards[shard as usize].slots[slot as usize]
    }

    /// Applies one world event at a barrier through the channel; a
    /// rejoining node is additionally re-homed to the shard covering its
    /// current position before it restarts.
    fn apply_world_event(&mut self, event: WorldEvent) {
        let reboot = apply_world_event(
            &mut self.world,
            &mut self.generations,
            &mut self.stats,
            &mut self.trace,
            self.now,
            event,
        );
        let Some(reboot) = reboot else {
            return;
        };
        let node = reboot.node();
        let member = self.member_mut(node);
        reboot.reset(&mut member.actor, &mut member.front);
        if let Reboot::Rejoin(_) = reboot {
            let dest = self.region.shard_of(self.world.position(node));
            self.rehome(node, dest);
            self.member_mut(node).actor.on_rehome(dest);
        }
        self.push_exact(self.now, node, EventKind::Start);
    }

    /// Moves a node's member state to shard `dest` (no-op when already
    /// home). Only called at barriers, from `Join` handling; the node's
    /// pre-Leave events in the old shard are stale-generation and die
    /// there.
    fn rehome(&mut self, node: NodeId, dest: usize) {
        let (from, slot) = self.locs[node.index()];
        let (from, slot) = (from as usize, slot as usize);
        if from == dest {
            return;
        }
        let shard = &mut self.shards[from];
        debug_assert_eq!(shard.members[slot], node);
        let member = shard.slots.swap_remove(slot);
        shard.members.swap_remove(slot);
        if slot < shard.members.len() {
            let moved = shard.members[slot];
            self.locs[moved.index()] = (from as u32, slot as u32);
        }
        let shard = &mut self.shards[dest];
        self.locs[node.index()] = (dest as u32, shard.members.len() as u32);
        shard.members.push(node);
        shard.slots.push(member);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use qolsr_graph::TopologyBuilder;
    use qolsr_metrics::LinkQos;

    /// A chatty actor exercising broadcasts, unicasts, periodic and
    /// zero-delay timers, per-node randomness and resets.
    #[derive(Default, Clone, PartialEq, Eq, Debug)]
    struct Chatty {
        heard: Vec<(NodeId, u32)>,
        ticks: u32,
        resets: u32,
        draws: Vec<u64>,
    }

    impl Actor for Chatty {
        type Msg = u32;

        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            let due = 10_000 + 1_000 * u64::from(ctx.node_id().0 % 7);
            ctx.set_timer(SimDuration::from_micros(due), TimerId(1));
            ctx.broadcast(ctx.node_id().0);
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, u32>, t: TimerId) {
            self.ticks += 1;
            self.draws.push(ctx.rng().next_below(1000));
            match t {
                TimerId(1) => {
                    ctx.broadcast(self.ticks);
                    if self.ticks.is_multiple_of(3) {
                        // Zero-delay chain: fires at the same instant.
                        ctx.set_timer(SimDuration::ZERO, TimerId(2));
                    }
                    ctx.set_timer(SimDuration::from_micros(7_900), TimerId(1));
                }
                _ => {
                    let to = NodeId((ctx.node_id().0 + 1) % 5);
                    ctx.unicast(to, 99);
                }
            }
        }

        fn on_message(&mut self, _ctx: &mut Context<'_, u32>, from: NodeId, msg: u32) {
            self.heard.push((from, msg));
        }

        fn on_reset(&mut self) {
            *self = Self::default();
            self.resets = 1;
        }
    }

    fn strip5() -> Topology {
        // Five nodes spread along x so 2 and 4 shards split them.
        let mut b = TopologyBuilder::new(30.0);
        let ids: Vec<NodeId> = (0..5)
            .map(|i| b.add_node(Point2::new(25.0 * i as f64, (i % 2) as f64)))
            .collect();
        for w in ids.windows(2) {
            b.link(w[0], w[1], LinkQos::uniform(1)).unwrap();
        }
        b.link(ids[0], ids[2], LinkQos::uniform(2)).unwrap();
        b.build()
    }

    fn fingerprint(
        stats: SimStats,
        actors: Vec<(NodeId, Chatty)>,
        now: SimTime,
    ) -> (SimStats, Vec<(NodeId, Chatty)>, SimTime) {
        (stats, actors, now)
    }

    fn run_single(
        seed: u64,
        events: &[(u64, WorldEvent)],
    ) -> (SimStats, Vec<(NodeId, Chatty)>, SimTime) {
        let mut sim = Simulator::new(strip5(), RadioConfig::default(), seed, |_| {
            Chatty::default()
        });
        for &(at, ev) in events {
            sim.schedule_world(SimTime::from_micros(at), ev);
        }
        sim.run_for(SimDuration::from_secs(2));
        fingerprint(
            sim.stats(),
            sim.actors().map(|(n, a)| (n, a.clone())).collect(),
            sim.now(),
        )
    }

    fn run_sharded(
        seed: u64,
        shards: u32,
        window: Option<SimDuration>,
        events: &[(u64, WorldEvent)],
    ) -> (SimStats, Vec<(NodeId, Chatty)>, SimTime) {
        let mut sim =
            ShardedSimulator::new(strip5(), RadioConfig::default(), seed, shards, |_, _| {
                Chatty::default()
            });
        if let Some(w) = window {
            sim.set_window(w);
        }
        for &(at, ev) in events {
            sim.schedule_world(SimTime::from_micros(at), ev);
        }
        sim.run_for(SimDuration::from_secs(2));
        fingerprint(
            sim.stats(),
            sim.actors().map(|(n, a)| (n, a.clone())).collect(),
            sim.now(),
        )
    }

    /// The sharded engine's delivery handlers must also see the world
    /// as of *receive* time when a QoS drift lands mid-flight — across
    /// a shard boundary, where the frame crosses via the barrier merge
    /// and the world mutation is applied by the coordinator between
    /// windows. A stale read here would make the quality of a link
    /// depend on the shard count.
    #[test]
    fn cross_shard_delivery_sees_world_at_receive_time() {
        #[derive(Default, Clone)]
        struct QosProbe {
            seen: Vec<(NodeId, Option<LinkQos>)>,
        }
        impl Actor for QosProbe {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                if ctx.node_id() == NodeId(2) {
                    ctx.broadcast(());
                }
            }
            fn on_timer(&mut self, _c: &mut Context<'_, ()>, _t: TimerId) {}
            fn on_message(&mut self, ctx: &mut Context<'_, ()>, from: NodeId, _m: ()) {
                self.seen.push((from, ctx.link_qos(from)));
            }
        }
        for shards in [1u32, 2, 4] {
            let mut sim =
                ShardedSimulator::new(strip5(), RadioConfig::default(), 9, shards, |_, _| {
                    QosProbe::default()
                });
            // Node 2 broadcasts at t = 0; delivery lands at t = 1 ms.
            // The 2—3 QoS drifts at 0.5 ms, while the frame is in
            // flight (at 4 shards, crossing a shard boundary).
            sim.schedule_world(
                SimTime::from_micros(500),
                WorldEvent::QosChange {
                    a: NodeId(2),
                    b: NodeId(3),
                    qos: LinkQos::uniform(7),
                },
            );
            sim.run_for(SimDuration::from_secs(1));
            let (_, probe) = sim
                .actors()
                .find(|&(n, _)| n == NodeId(3))
                .expect("node 3 exists");
            assert_eq!(
                probe.seen,
                vec![(NodeId(2), Some(LinkQos::uniform(7)))],
                "{shards} shards: handler must measure the drifted QoS"
            );
        }
    }

    #[test]
    fn sharded_replays_single_queue_exactly() {
        let reference = run_single(42, &[]);
        for shards in [1, 2, 4] {
            assert_eq!(
                run_sharded(42, shards, None, &[]),
                reference,
                "{shards} shards"
            );
        }
    }

    #[test]
    fn window_width_is_an_implementation_detail() {
        let reference = run_single(7, &[]);
        for micros in [1, 13, 250, 999, 1000] {
            let got = run_sharded(7, 3, Some(SimDuration::from_micros(micros)), &[]);
            assert_eq!(got, reference, "window {micros} µs");
        }
    }

    #[test]
    fn churn_and_rehoming_replay_single_queue() {
        let events = [
            (300_000, WorldEvent::Leave { node: NodeId(4) }),
            (
                350_000,
                WorldEvent::Move {
                    node: NodeId(4),
                    to: Point2::new(1.0, 1.0),
                },
            ),
            (600_000, WorldEvent::Join { node: NodeId(4) }),
            (
                600_000,
                WorldEvent::LinkUp {
                    a: NodeId(4),
                    b: NodeId(0),
                    qos: LinkQos::uniform(1),
                },
            ),
            (
                900_000,
                WorldEvent::QosChange {
                    a: NodeId(0),
                    b: NodeId(1),
                    qos: LinkQos::uniform(9),
                },
            ),
        ];
        let reference = run_single(11, &events);
        for shards in [2, 4] {
            let got = run_sharded(11, shards, None, &events);
            assert_eq!(got, reference, "{shards} shards");
        }
        // The rejoiner moved to x=1.0: it must now be homed with node 0.
        let mut sim = ShardedSimulator::new(strip5(), RadioConfig::default(), 11, 4, |_, _| {
            Chatty::default()
        });
        for &(at, ev) in &events {
            sim.schedule_world(SimTime::from_micros(at), ev);
        }
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(sim.shard_of(NodeId(4)), sim.shard_of(NodeId(0)));
        assert_eq!(
            sim.shard_of(NodeId(4)),
            sim.shard_for_position(Point2::new(1.0, 1.0))
        );
    }

    #[test]
    fn traces_match_the_reference() {
        let run = |shards: Option<u32>| -> (usize, Vec<TraceEvent>) {
            let events = [(400_000, WorldEvent::Leave { node: NodeId(2) })];
            match shards {
                None => {
                    let mut sim =
                        Simulator::new(strip5(), RadioConfig::default(), 5, |_| Chatty::default());
                    sim.enable_trace(4096);
                    for &(at, ev) in &events {
                        sim.schedule_world(SimTime::from_micros(at), ev);
                    }
                    sim.run_for(SimDuration::from_millis(800));
                    let t = sim.trace().unwrap();
                    (t.total_recorded() as usize, t.iter().copied().collect())
                }
                Some(k) => {
                    let mut sim =
                        ShardedSimulator::new(strip5(), RadioConfig::default(), 5, k, |_, _| {
                            Chatty::default()
                        });
                    sim.enable_trace(4096);
                    for &(at, ev) in &events {
                        sim.schedule_world(SimTime::from_micros(at), ev);
                    }
                    sim.run_for(SimDuration::from_millis(800));
                    let t = sim.trace().unwrap();
                    (t.total_recorded() as usize, t.iter().copied().collect())
                }
            }
        };
        let reference = run(None);
        assert!(reference.0 > 0);
        for shards in [1, 2, 4] {
            assert_eq!(run(Some(shards)), reference, "{shards} shards");
        }
    }

    #[test]
    fn lossy_phy_replays_single_queue_exactly() {
        use crate::engine::{LossyPhy, PhyModel};
        let radio = RadioConfig {
            phy: PhyModel::Lossy(LossyPhy {
                edge_drop_ppm: 600_000,
                exponent: 2,
                capture_window: SimDuration::from_micros(150),
            }),
            ..RadioConfig::default()
        };
        // Churn so rehoming must migrate the loss streams and capture
        // state along with the actor.
        let events = [
            (300_000, WorldEvent::Leave { node: NodeId(4) }),
            (
                350_000,
                WorldEvent::Move {
                    node: NodeId(4),
                    to: Point2::new(1.0, 1.0),
                },
            ),
            (600_000, WorldEvent::Join { node: NodeId(4) }),
            (
                600_000,
                WorldEvent::LinkUp {
                    a: NodeId(4),
                    b: NodeId(0),
                    qos: LinkQos::uniform(1),
                },
            ),
        ];
        let reference = {
            let mut sim = Simulator::new(strip5(), radio, 13, |_| Chatty::default());
            for &(at, ev) in &events {
                sim.schedule_world(SimTime::from_micros(at), ev);
            }
            sim.run_for(SimDuration::from_secs(2));
            fingerprint(
                sim.stats(),
                sim.actors().map(|(n, a)| (n, a.clone())).collect(),
                sim.now(),
            )
        };
        assert!(reference.0.phy_drops > 0, "the loss model must bite");
        for shards in [1, 2, 4] {
            let mut sim =
                ShardedSimulator::new(strip5(), radio, 13, shards, |_, _| Chatty::default());
            for &(at, ev) in &events {
                sim.schedule_world(SimTime::from_micros(at), ev);
            }
            sim.run_for(SimDuration::from_secs(2));
            let got = fingerprint(
                sim.stats(),
                sim.actors().map(|(n, a)| (n, a.clone())).collect(),
                sim.now(),
            );
            assert_eq!(got, reference, "{shards} shards");
        }
    }

    #[test]
    fn membership_stays_a_partition() {
        let mut sim = ShardedSimulator::new(strip5(), RadioConfig::default(), 3, 4, |_, _| {
            Chatty::default()
        });
        sim.schedule_world(
            SimTime::from_micros(100_000),
            WorldEvent::Leave { node: NodeId(0) },
        );
        sim.schedule_world(
            SimTime::from_micros(150_000),
            WorldEvent::Move {
                node: NodeId(0),
                to: Point2::new(100.0, 0.0),
            },
        );
        sim.schedule_world(
            SimTime::from_micros(200_000),
            WorldEvent::Join { node: NodeId(0) },
        );
        sim.run_for(SimDuration::from_secs(1));
        let mut seen = vec![0u32; sim.node_count()];
        for shard in 0..sim.shard_count() {
            for (slot, &node) in sim.shard_members(shard).iter().enumerate() {
                seen[node.index()] += 1;
                assert_eq!(sim.shard_of(node), shard);
                assert_eq!(sim.shard_members(shard)[slot], node);
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "every node in exactly one shard"
        );
    }
}
