//! Edge cases of the single-queue engine's delivery batches.
//!
//! With zero radio jitter, [`Simulator`] queues each run of intact
//! broadcast copies as one entry and dispatches it receiver by receiver;
//! the sharded engine still queues one event per receiver. At one shard
//! the two must agree exactly — same trace, same [`SimStats`], same actor
//! state — including where a batch is cut short (a stop, a receiver that
//! left mid-flight) or split (lost and damaged copies), and where a child
//! event lands at the batch's own instant.

use qolsr_graph::{NodeId, Point2, Topology, TopologyBuilder, WorldEvent};
use qolsr_metrics::LinkQos;
use qolsr_sim::trace::TraceEvent;
use qolsr_sim::{
    Actor, Context, CorruptionParams, FrameCorruption, FrameDamage, LossyPhy, PhyModel,
    RadioConfig, ShardedSimulator, SimDuration, SimStats, SimTime, Simulator, TimerId,
};

/// What a node does besides recording what it hears.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Role {
    #[default]
    Listen,
    /// Stops the simulation on its first delivery.
    Stop,
    /// Arms a zero-delay timer on its first delivery.
    ZeroTimer,
    /// Broadcasts at start and every `period` µs.
    Talk { period: u64 },
}

#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Node {
    role: Role,
    /// `(time µs, sender, payload)` per delivery; `(time, self, 0)` per
    /// timer firing.
    log: Vec<(u64, NodeId, u32)>,
}

impl Actor for Node {
    type Msg = u32;

    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        if let Role::Talk { period } = self.role {
            ctx.broadcast(ctx.node_id().0);
            ctx.set_timer(SimDuration::from_micros(period), TimerId(1));
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, u32>, t: TimerId) {
        self.log.push((ctx.now().as_micros(), ctx.node_id(), 0));
        if let Role::Talk { period } = self.role {
            ctx.broadcast(ctx.node_id().0 * 1000 + self.log.len() as u32);
            ctx.set_timer(SimDuration::from_micros(period), t);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: NodeId, msg: u32) {
        self.log.push((ctx.now().as_micros(), from, msg));
        if self.log.len() == 1 {
            match self.role {
                Role::Stop => ctx.stop(),
                Role::ZeroTimer => ctx.set_timer(SimDuration::ZERO, TimerId(2)),
                _ => {}
            }
        }
    }

    fn corrupt_frame(msg: &u32, damage: &FrameDamage) -> Option<u32> {
        let mut bytes = msg.to_le_bytes().to_vec();
        damage.apply_to_bytes(&mut bytes);
        bytes.resize(4, 0);
        Some(u32::from_le_bytes(bytes.try_into().unwrap()))
    }

    fn on_reset(&mut self) {
        self.log.clear();
    }
}

/// Hub 0 with five leaves 1..=5 in range of the hub only.
fn star() -> Topology {
    let mut b = TopologyBuilder::new(10.0);
    let hub = b.add_node(Point2::new(0.0, 0.0));
    for k in 0..5 {
        let angle = f64::from(k) * std::f64::consts::TAU / 5.0;
        let leaf = b.add_node(Point2::new(9.0 * angle.cos(), 9.0 * angle.sin()));
        b.link(hub, leaf, LinkQos::uniform(1)).unwrap();
    }
    b.build()
}

/// A 6 × 6 unit-disk grid (spacing 6, range 10: up to 8 neighbors).
fn grid() -> Topology {
    let mut b = TopologyBuilder::new(10.0);
    let points: Vec<Point2> = (0..36)
        .map(|i| Point2::new(6.0 * f64::from(i % 6), 6.0 * f64::from(i / 6)))
        .collect();
    let ids: Vec<NodeId> = points.iter().map(|&p| b.add_node(p)).collect();
    for i in 0..ids.len() {
        for j in i + 1..ids.len() {
            if points[i].distance(points[j]) <= 10.0 {
                b.link(ids[i], ids[j], LinkQos::uniform(1)).unwrap();
            }
        }
    }
    b.build()
}

/// Everything observable about a finished run.
#[derive(Debug, PartialEq)]
struct Outcome {
    stats: SimStats,
    trace: Vec<TraceEvent>,
    logs: Vec<Node>,
}

/// Runs the batched single queue and the per-receiver sharded engine at
/// one shard on the same inputs, asserts they agree, and returns the
/// single queue's outcome and final instant.
fn both(
    topo: impl Fn() -> Topology,
    radio: RadioConfig,
    roles: impl Fn(NodeId) -> Role,
    world: &[(SimTime, WorldEvent)],
    until: SimTime,
) -> (Outcome, SimTime) {
    let node = |id| Node {
        role: roles(id),
        log: Vec::new(),
    };
    let mut single = Simulator::new(topo(), radio, 7, node);
    single.enable_trace(1 << 16);
    single.schedule_world_events(world.iter().copied());
    single.run_until(until);
    let mut sharded = ShardedSimulator::new(topo(), radio, 7, 1, |id, _| node(id));
    sharded.enable_trace(1 << 16);
    sharded.schedule_world_events(world.iter().copied());
    sharded.run_until(until);
    let outcome = |stats, trace: Option<&qolsr_sim::trace::TraceBuffer>, logs| Outcome {
        stats,
        trace: trace.unwrap().iter().copied().collect(),
        logs,
    };
    let a = outcome(
        single.stats(),
        single.trace(),
        single.actors().map(|(_, a)| a.clone()).collect(),
    );
    let b = outcome(
        sharded.stats(),
        sharded.trace(),
        sharded.actors().map(|(_, a)| a.clone()).collect(),
    );
    assert_eq!(
        a, b,
        "batched single queue diverged from per-receiver delivery"
    );
    (a, single.now())
}

fn hub_talks(id: NodeId) -> Role {
    if id == NodeId(0) {
        Role::Talk { period: 1_000_000 }
    } else {
        Role::Listen
    }
}

const BATCH_AT: u64 = 1_000; // default 1 ms latency

#[test]
fn stop_in_the_second_receiver_ends_the_batch_there() {
    let roles = |id: NodeId| match id.0 {
        2 => Role::Stop,
        _ => hub_talks(id),
    };
    let (out, now) = both(
        star,
        RadioConfig::default(),
        roles,
        &[],
        SimTime::from_micros(5_000_000),
    );
    assert_eq!(out.stats.deliveries, 2, "leaves 1 and 2 only");
    assert_eq!(out.stats.events, 6 + 2, "six starts, two deliveries");
    assert_eq!(
        now,
        SimTime::from_micros(BATCH_AT),
        "time stays at the batch instant"
    );
    assert!(out.logs[3..].iter().all(|n| n.log.is_empty()));
}

#[test]
fn a_receiver_leaving_mid_flight_drops_only_its_copy() {
    let leave = [(
        SimTime::from_micros(500),
        WorldEvent::Leave { node: NodeId(3) },
    )];
    let (out, _) = both(
        star,
        RadioConfig::default(),
        hub_talks,
        &leave,
        SimTime::from_micros(1_500),
    );
    assert_eq!(out.stats.stale_dropped, 1);
    assert_eq!(out.stats.deliveries, 4);
    for (i, node) in out.logs.iter().enumerate().skip(1) {
        assert_eq!(node.log.len(), usize::from(i != 3), "leaf {i}");
    }
}

#[test]
fn zero_delay_timer_fires_after_the_last_receiver() {
    let roles = |id: NodeId| match id.0 {
        1 => Role::ZeroTimer,
        _ => hub_talks(id),
    };
    let (out, _) = both(
        star,
        RadioConfig::default(),
        roles,
        &[],
        SimTime::from_micros(1_500),
    );
    let at_batch: Vec<u32> = out
        .trace
        .iter()
        .filter(|ev| ev.time == SimTime::from_micros(BATCH_AT))
        .map(|ev| ev.node.0)
        .collect();
    assert_eq!(
        at_batch,
        [1, 2, 3, 4, 5, 1],
        "five receivers, then the timer"
    );
    assert_eq!(out.stats.timers, 1);
    assert_eq!(out.logs[1].log[1], (BATCH_AT, NodeId(1), 0));
}

#[test]
fn lost_and_damaged_copies_split_runs_without_reordering() {
    let radio = RadioConfig {
        phy: PhyModel::Lossy(LossyPhy::with_edge_drop_ppm(400_000)),
        corruption: FrameCorruption::On(CorruptionParams {
            corrupt_ppm: 200_000,
            fcs_evade_ppm: 500_000,
            ..CorruptionParams::default()
        }),
        ..RadioConfig::default()
    };
    let roles = |id: NodeId| Role::Talk {
        period: 7_000 + 300 * u64::from(id.0 % 5),
    };
    let churn = [
        (
            SimTime::from_micros(40_500),
            WorldEvent::Leave { node: NodeId(14) },
        ),
        (
            SimTime::from_micros(90_000),
            WorldEvent::Join { node: NodeId(14) },
        ),
    ];
    let (out, _) = both(grid, radio, roles, &churn, SimTime::from_micros(400_000));
    assert!(out.stats.phy_drops > 0 && out.stats.corrupted_frames > 0);
    assert!(out.stats.fcs_drops > 0 && out.stats.stale_dropped > 0);
}

#[test]
fn every_true_step_is_one_counted_event() {
    let mut sim = Simulator::new(grid(), RadioConfig::default(), 3, |id| Node {
        role: if id.0 % 7 == 0 {
            Role::Talk { period: 5_000 }
        } else {
            Role::Listen
        },
        log: Vec::new(),
    });
    let mut steps = 0u64;
    while sim.now() < SimTime::from_micros(50_000) && sim.step() {
        steps += 1;
    }
    let stats = sim.stats();
    assert_eq!(steps, stats.events);
    assert!(
        stats.deliveries > 10 * stats.broadcasts / 2,
        "batches were dispatched"
    );
}
