//! The simulated radio channel, shared by both engines.
//!
//! Everything that happens to an event between its pop from a queue and
//! the effects its handler emits lives here, once:
//!
//! 1. [`Channel::admit`] — the gate before the handler: stale
//!    generation, then partition cut, then receiver capture;
//! 2. [`Channel::invoke`] — the actor callback;
//! 3. [`Channel::transmit`] — the fan-out of each Broadcast/Unicast
//!    effect: link check, one loss draw, one corruption gate (damage and
//!    FCS), then the delivery delay;
//! 4. [`apply_world_event`] — world mutation plus the Leave/Join/Crash
//!    lifecycle.
//!
//! The engines differ only in how they give the resulting children a
//! sequence number, which is why every stage hands its output back (a
//! delivery sink, a returned timer, a returned [`Reboot`]) instead of
//! scheduling it. The sink sees each copy as a [`Frame`], so an engine
//! that shares one broadcast frame among its receivers (the single
//! queue's delivery batches) clones it once per batch, not once per
//! receiver.

use qolsr_graph::{DynamicTopology, NodeId, WorldEvent};

use crate::engine::{
    Actor, Context, Effect, EventKind, FrameCorruption, FrameDamage, PhyModel, RadioConfig,
    Scheduled, SimStats, TimerId,
};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceBuffer, TraceEvent, TraceKind};

/// Salt separating the PHY loss streams from the engine seed: the loss
/// master RNG is `seed ^ LOSS_STREAM_SALT`, split once per node in node
/// order. [`PhyModel::Ideal`] runs never touch them.
const LOSS_STREAM_SALT: u64 = 0x4c4f_5353_5048_5921; // "LOSSPHY!"

/// Salt separating the frame-corruption streams from the engine seed
/// (and from the loss streams): the corruption master RNG is
/// `seed ^ CORRUPT_STREAM_SALT`, split once per node in node order.
/// [`FrameCorruption::Off`] runs never touch them.
const CORRUPT_STREAM_SALT: u64 = 0x4252_4954_464c_4950; // "BRITFLIP"

/// A node's radio front end: its sender-side loss and corruption streams
/// and its receiver-side capture state. Each stream is a pure function of
/// the node's own send history, so drop and damage decisions are
/// identical in every engine and at every shard count.
pub(crate) struct FrontEnd {
    /// PHY loss stream; `None` under [`PhyModel::Ideal`].
    loss: Option<SimRng>,
    /// Corruption stream; `None` under [`FrameCorruption::Off`].
    corrupt: Option<SimRng>,
    /// The receiver is busy with a captured frame until this instant.
    busy_until: SimTime,
}

impl FrontEnd {
    /// One front end per node, in node order, with streams split from
    /// the salted masters of `seed`.
    pub(crate) fn per_node(seed: u64, n: usize, radio: &RadioConfig) -> Vec<FrontEnd> {
        let mut loss = matches!(radio.phy, PhyModel::Lossy(_))
            .then(|| SimRng::seed_from_u64(seed ^ LOSS_STREAM_SALT));
        let mut corrupt = matches!(radio.corruption, FrameCorruption::On(_))
            .then(|| SimRng::seed_from_u64(seed ^ CORRUPT_STREAM_SALT));
        (0..n)
            .map(|_| FrontEnd {
                loss: loss.as_mut().map(SimRng::split),
                corrupt: corrupt.as_mut().map(SimRng::split),
                busy_until: SimTime::ZERO,
            })
            .collect()
    }
}

/// One surviving copy of a frame, as [`Channel::transmit`] hands it to
/// an engine's delivery sink.
pub(crate) enum Frame<'m, M> {
    /// An undamaged broadcast copy: the sender's frame, shared by every
    /// intact receiver. A sink that queues it on its own clones it.
    Intact(&'m M),
    /// A copy of its own: a unicast frame, or a damaged broadcast copy.
    Owned(M),
}

impl<M: Clone> Frame<'_, M> {
    /// The copy as an owned message, cloning a shared frame.
    #[inline]
    pub(crate) fn into_owned(self) -> M {
        match self {
            Frame::Intact(msg) => msg.clone(),
            Frame::Owned(msg) => msg,
        }
    }
}

/// The fate of one frame copy in the air.
enum Hop<M> {
    /// Deliver the original frame untouched.
    Intact,
    /// Deliver this damaged copy instead.
    Damaged(M),
    /// Lost to the PHY or caught by the link-layer frame check.
    Lost,
}

/// One dispatch's view of the channel: the radio parameters, the world
/// (read-only for the whole dispatch) and the counters the stages
/// update.
pub(crate) struct Channel<'a> {
    pub(crate) radio: &'a RadioConfig,
    pub(crate) world: &'a DynamicTopology,
    pub(crate) stats: &'a mut SimStats,
}

impl Channel<'_> {
    /// The gate before the handler, in its fixed order: an event of a
    /// previous node life is stale; a delivery across an active
    /// partition cut is dropped (including frames already in flight when
    /// the cut landed); a delivery landing inside the receiver's capture
    /// window collides. Returns `false`, with the drop counted, when the
    /// event must not reach the actor. `receiver` yields the receiving
    /// node's front end and is only called once the event is known to be
    /// current and capture is modelled.
    #[inline]
    pub(crate) fn admit<'f, A: Actor>(
        &mut self,
        generations: &[u32],
        ev: &Scheduled<A::Msg>,
        receiver: impl FnOnce() -> &'f mut FrontEnd,
    ) -> bool {
        let stats = &mut *self.stats;
        if ev.generation != generations[ev.node.index()] {
            stats.stale_dropped += 1;
            if let EventKind::Deliver { msg, .. } = &ev.kind {
                count_data::<A>(msg, &mut stats.data_stale_drops);
            }
            return false;
        }
        let EventKind::Deliver { from, msg } = &ev.kind else {
            return true;
        };
        if self.world.partitioned(*from, ev.node) {
            stats.partition_drops += 1;
            count_data::<A>(msg, &mut stats.data_partition_drops);
            return false;
        }
        if let PhyModel::Lossy(lossy) = self.radio.phy {
            if lossy.capture_window > SimDuration::ZERO {
                let busy = &mut receiver().busy_until;
                if ev.time < *busy {
                    stats.collisions += 1;
                    count_data::<A>(msg, &mut stats.data_collisions);
                    return false;
                }
                *busy = ev.time + lossy.capture_window;
            }
        }
        true
    }

    /// Runs the actor callback for an admitted event.
    #[inline]
    pub(crate) fn invoke<A: Actor>(
        &mut self,
        actor: &mut A,
        mut ctx: Context<'_, A::Msg>,
        kind: EventKind<A::Msg>,
    ) {
        match kind {
            EventKind::Start => actor.on_start(&mut ctx),
            EventKind::Timer(t) => {
                self.stats.timers += 1;
                actor.on_timer(&mut ctx, t);
            }
            EventKind::Deliver { from, msg } => {
                self.stats.deliveries += 1;
                count_data::<A>(&msg, &mut self.stats.data_deliveries);
                actor.on_message(&mut ctx, from, msg);
            }
            EventKind::World(_) | EventKind::DeliverBatch(_) => {
                unreachable!("world events and unopened batches never reach an actor")
            }
        }
    }

    /// Puts one effect of `from`'s handler on the air at `now`. A
    /// Broadcast fans out to the current neighbors, a Unicast to its
    /// destination if the link exists; each copy takes one loss draw and
    /// one corruption gate from `from`'s front end, then a delivery delay
    /// drawing jitter from `jitter`. Every surviving copy goes to
    /// `deliver(at, to, frame)`, in fan-out order; a Timer effect is
    /// handed back.
    #[inline]
    pub(crate) fn transmit<A: Actor>(
        &mut self,
        from: NodeId,
        now: SimTime,
        front: &mut FrontEnd,
        jitter: &mut SimRng,
        effect: Effect<A::Msg>,
        mut deliver: impl FnMut(SimTime, NodeId, Frame<'_, A::Msg>),
    ) -> Option<(SimDuration, TimerId)> {
        match effect {
            Effect::Broadcast(msg) => {
                self.stats.broadcasts += 1;
                let world = self.world;
                for (to, _) in world.neighbors(from) {
                    let copy = match self.hop::<A>(from, to, front, &msg, false) {
                        Hop::Intact => Frame::Intact(&msg),
                        Hop::Damaged(damaged) => Frame::Owned(damaged),
                        Hop::Lost => continue,
                    };
                    deliver(now + self.delay(jitter), to, copy);
                }
            }
            Effect::Unicast(to, msg) => {
                self.stats.unicasts += 1;
                let data = A::is_data(&msg);
                self.stats.data_unicasts += u64::from(data);
                if !self.world.has_link(from, to) {
                    self.stats.dropped_unicasts += 1;
                    self.stats.data_no_link_drops += u64::from(data);
                    return None;
                }
                let copy = match self.hop::<A>(from, to, front, &msg, data) {
                    Hop::Intact => msg,
                    Hop::Damaged(damaged) => damaged,
                    Hop::Lost => return None,
                };
                deliver(now + self.delay(jitter), to, Frame::Owned(copy));
            }
            Effect::Timer(after, timer) => return Some((after, timer)),
        }
        None
    }

    /// One copy's trip through the air. Under [`PhyModel::Lossy`] exactly
    /// one loss draw per attempt (even at probability zero); under
    /// [`FrameCorruption::On`] exactly one gate draw per surviving copy,
    /// followed on a hit by the damage draws and one FCS draw. Stream
    /// positions thus stay a pure function of the sender's send history.
    /// `data` attributes drops to the `data_*` subset counters.
    #[inline]
    fn hop<A: Actor>(
        &mut self,
        from: NodeId,
        to: NodeId,
        front: &mut FrontEnd,
        msg: &A::Msg,
        data: bool,
    ) -> Hop<A::Msg> {
        if let (PhyModel::Lossy(lossy), Some(rng)) = (self.radio.phy, front.loss.as_mut()) {
            let d = self.world.position(from).distance(self.world.position(to));
            if rng.next_f64() < lossy.drop_probability(d, self.world.radius()) {
                self.stats.phy_drops += 1;
                self.stats.data_phy_drops += u64::from(data);
                return Hop::Lost;
            }
        }
        if let (FrameCorruption::On(params), Some(rng)) =
            (self.radio.corruption, front.corrupt.as_mut())
        {
            if rng.next_f64() < f64::from(params.corrupt_ppm) / 1e6 {
                let damage = FrameDamage::sample(&params, rng);
                if rng.next_f64() >= f64::from(params.fcs_evade_ppm) / 1e6 {
                    self.stats.fcs_drops += 1;
                    self.stats.data_fcs_drops += u64::from(data);
                    return Hop::Lost;
                }
                // Opaque message types opt out of corruption and pass
                // intact.
                if let Some(damaged) = A::corrupt_frame(msg, &damage) {
                    self.stats.corrupted_frames += 1;
                    return Hop::Damaged(damaged);
                }
            }
        }
        Hop::Intact
    }

    /// The per-hop latency plus, when the radio has jitter, one uniform
    /// draw from `jitter`.
    #[inline]
    fn delay(&self, jitter: &mut SimRng) -> SimDuration {
        let jitter_us = self.radio.jitter.as_micros();
        if jitter_us == 0 {
            self.radio.latency
        } else {
            self.radio.latency + SimDuration::from_micros(jitter.next_below(jitter_us))
        }
    }
}

/// Counts one frame into a `data_*` subset counter if it is a data frame.
#[inline]
fn count_data<A: Actor>(msg: &A::Msg, counter: &mut u64) {
    *counter += u64::from(A::is_data(msg));
}

/// A node reboot requested by a world event; the engine carries it out
/// with [`Reboot::reset`] and then schedules the node's start event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reboot {
    /// The node joined again after a leave (graceful power cycle).
    Rejoin(NodeId),
    /// The node crashed and rebooted on the spot.
    Crash(NodeId),
}

impl Reboot {
    /// The rebooting node.
    pub(crate) fn node(self) -> NodeId {
        match self {
            Reboot::Rejoin(node) | Reboot::Crash(node) => node,
        }
    }

    /// Wipes the node's actor (`on_reset` or `on_crash`) and its capture
    /// state: no capture window survives a power cycle.
    pub(crate) fn reset<A: Actor>(self, actor: &mut A, front: &mut FrontEnd) {
        match self {
            Reboot::Rejoin(_) => actor.on_reset(),
            Reboot::Crash(_) => actor.on_crash(),
        }
        front.busy_until = SimTime::ZERO;
    }
}

/// Applies one world event at `now`: mutates the world, and if that
/// changed anything counts it and records a trace entry. A leave or a
/// crash bumps the node's generation, so the old life's pending timers
/// and in-flight deliveries die at [`Channel::admit`]. Returns the reboot
/// a changed join or crash asks for.
pub(crate) fn apply_world_event(
    world: &mut DynamicTopology,
    generations: &mut [u32],
    stats: &mut SimStats,
    trace: &mut Option<TraceBuffer>,
    now: SimTime,
    event: WorldEvent,
) -> Option<Reboot> {
    if !world.apply(&event) {
        return None;
    }
    stats.world_changes += 1;
    if let Some(trace) = trace {
        trace.record(TraceEvent {
            time: now,
            node: match event {
                WorldEvent::LinkUp { a, .. }
                | WorldEvent::LinkDown { a, .. }
                | WorldEvent::QosChange { a, .. } => a,
                WorldEvent::Move { node, .. }
                | WorldEvent::Join { node }
                | WorldEvent::Leave { node }
                | WorldEvent::Crash { node } => node,
                // Network-level faults have no single subject.
                WorldEvent::Partition { .. } | WorldEvent::Heal => NodeId(0),
            },
            kind: TraceKind::WorldChanged,
        });
    }
    match event {
        WorldEvent::Leave { node } => {
            generations[node.index()] += 1;
            None
        }
        // The node boots fresh in its current generation, so its new
        // timers are live.
        WorldEvent::Join { node } => Some(Reboot::Rejoin(node)),
        // Instant reboot: the node keeps its links, but the old life's
        // events die with the crash.
        WorldEvent::Crash { node } => {
            generations[node.index()] += 1;
            Some(Reboot::Crash(node))
        }
        _ => None,
    }
}
