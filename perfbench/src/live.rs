//! The live workloads, `flood` and `mobile`: the full OLSR stack on the
//! discrete-event engine, measured in simulated 100 ms slices.
//!
//! An *episode* generates the workload's inputs from the seed, builds the
//! network, warms the protocol up (set-up), then runs a fixed window of
//! slices (the timed phase), querying the routes of the probe nodes once
//! per simulated second. The untraced episode runs the network a user
//! gets from [`OlsrNetwork::new`]; the traced one runs the same nodes
//! inside [`TracedNode`] on a plain [`Simulator`], built the way
//! `OlsrNetwork` builds its own, so both must end in the same
//! [`Snapshot`].

use std::collections::BTreeMap;
use std::f64::consts::PI;
use std::time::Instant;

use qolsr::policy::SelectorPolicy;
use qolsr::selector::Fnbp;
use qolsr_graph::connectivity::Components;
use qolsr_graph::deploy::{deploy_at, Deployment, UniformWeights};
use qolsr_graph::{DynamicTopology, NodeId, Point2, Topology};
use qolsr_metrics::BandwidthMetric;
use qolsr_proto::network::OlsrNetwork;
use qolsr_proto::{
    AdvertisePolicy, NodeStats, OlsrConfig, OlsrNode, SharedLinkStore, StoreGauges, TableFootprint,
    TopologyStore,
};
use qolsr_sim::scenario::{CrashStorm, GaussMarkovDrift, PoissonChurn, RandomWaypoint};
use qolsr_sim::{
    FlowModel, FlowRecord, FlowSpec, FlowState, LossyPhy, PhyModel, RadioConfig, Scenario,
    ScenarioBuilder, SchedulerKind, SimDuration, SimRng, SimStats, SimTime, Simulator,
    TrafficStats, TRAFFIC_STREAM_SALT,
};

use crate::json::Value;
use crate::seed::derive;
use crate::trace::{self, Span, TimedPolicy, TracedNode};

/// The advertise policy of both live workloads: FNBP under the
/// bandwidth metric, the paper's contribution.
pub type Policy = SelectorPolicy<Fnbp<BandwidthMetric>>;

fn policy() -> Policy {
    SelectorPolicy::new(Fnbp::<BandwidthMetric>::new())
}

/// A simulated slice: the unit of work ("op") of the live workloads.
pub const SLICE: SimDuration = SimDuration::from_millis(100);

/// Slices per simulated second (probe queries run once per second).
const SLICES_PER_SECOND: u32 = 10;

/// How the protocol warms up before the timed window.
#[derive(Debug, Clone, Copy)]
pub enum Warmup {
    /// Run whole simulated seconds until TC convergence, at most `max`:
    /// every probe routes to its whole component, or every probe holds
    /// routes and their counts stay unchanged for two seconds.
    Converge {
        /// Give up after this long.
        max: SimDuration,
    },
    /// Run a fixed time (the `figures traffic` recipe).
    Fixed(SimDuration),
}

/// The mobility recipe of `figures traffic` (`ChurnScenario::default()`)
/// plus a crash storm at the `figures faults` defaults.
#[derive(Debug, Clone, Copy)]
pub struct Mobility {
    /// Waypoint speed range, distance units per second.
    pub speed: (f64, f64),
    /// Waypoint pause.
    pub pause: SimDuration,
    /// Motion and drift tick.
    pub tick: SimDuration,
    /// Poisson departures per second.
    pub leave_rate: f64,
    /// Mean downtime of a departed node.
    pub mean_downtime: SimDuration,
    /// Gauss–Markov drift `(alpha, sigma)`.
    pub drift: (f64, f64),
    /// Crash storms per second.
    pub storm_rate: f64,
    /// Per-node crash probability per storm, ppm.
    pub crash_ppm: u32,
}

impl Default for Mobility {
    fn default() -> Self {
        Self {
            speed: (2.0, 10.0),
            pause: SimDuration::from_secs(4),
            tick: SimDuration::from_secs(1),
            leave_rate: 0.1,
            mean_downtime: SimDuration::from_secs(10),
            drift: (0.9, 1.0),
            storm_rate: 0.5,
            crash_ppm: 80_000,
        }
    }
}

/// Everything that defines a live workload's inputs and window.
#[derive(Debug, Clone)]
pub struct LiveSpec {
    /// Deployed nodes.
    pub nodes: usize,
    /// Mean node degree δ (the field grows with `nodes`).
    pub density: f64,
    /// Communication radius R.
    pub radius: f64,
    /// Link-weight interval.
    pub weights: UniformWeights,
    /// Channel loss at the edge of the radius, ppm (0 = ideal PHY).
    pub edge_drop_ppm: u32,
    /// Protocol warm-up.
    pub warmup: Warmup,
    /// World dynamics during the window, if any.
    pub mobility: Option<Mobility>,
    /// Application flows, odd ones bursty video, even ones CBR.
    pub flows: usize,
    /// Nodes whose routes are queried once per simulated second.
    pub probes: usize,
    /// Slices in one episode's timed window.
    pub window_slices: u32,
    /// The window's wall time on the reference host (2-core Xeon, 2.1
    /// GHz), s; runs are sized from `--seconds` with it.
    pub nominal_window_s: f64,
}

impl LiveSpec {
    /// `flood`: n = 1000, δ = 10, R = 100, ideal PHY, static, no flows.
    pub fn flood() -> Self {
        Self {
            nodes: 1000,
            density: 10.0,
            radius: 100.0,
            weights: UniformWeights::new(1, 100),
            edge_drop_ppm: 0,
            warmup: Warmup::Converge {
                max: SimDuration::from_secs(30),
            },
            mobility: None,
            flows: 0,
            probes: 64,
            window_slices: 50,
            nominal_window_s: 7.0,
        }
    }

    /// `mobile`: n = 250 under the `figures traffic` recipe (30 s
    /// warm-up, 30 s of traffic) with 20% edge loss and a crash storm.
    pub fn mobile() -> Self {
        Self {
            nodes: 250,
            density: 10.0,
            radius: 100.0,
            weights: UniformWeights::new(1, 100),
            edge_drop_ppm: 200_000,
            warmup: Warmup::Fixed(SimDuration::from_secs(30)),
            mobility: Some(Mobility::default()),
            flows: 16,
            probes: 64,
            window_slices: 300,
            nominal_window_s: 4.0,
        }
    }

    /// Field side holding `nodes` at mean degree `density`.
    pub fn side(&self) -> f64 {
        (self.nodes as f64 * PI * self.radius * self.radius / self.density).sqrt()
    }

    fn radio(&self) -> RadioConfig {
        let phy = if self.edge_drop_ppm == 0 {
            PhyModel::Ideal
        } else {
            PhyModel::Lossy(LossyPhy::with_edge_drop_ppm(self.edge_drop_ppm))
        };
        RadioConfig {
            phy,
            ..RadioConfig::default()
        }
    }

    /// The spec as a JSON record.
    pub fn record(&self) -> Value {
        let warmup = match self.warmup {
            Warmup::Converge { max } => format!("until probes converge, at most {max:?}"),
            Warmup::Fixed(d) => format!("fixed {d:?}"),
        };
        Value::obj([
            ("nodes", Value::from(self.nodes)),
            ("density", Value::from(self.density)),
            ("radius", Value::from(self.radius)),
            ("field_side", Value::from(self.side())),
            (
                "weights",
                Value::from(format!("[{}, {}]", self.weights.min, self.weights.max)),
            ),
            ("edge_drop_ppm", Value::from(u64::from(self.edge_drop_ppm))),
            ("selector", Value::from("fnbp (bandwidth)")),
            ("warmup", Value::from(warmup)),
            (
                "mobility",
                Value::from(match self.mobility {
                    Some(m) => format!("{m:?}"),
                    None => "static".to_owned(),
                }),
            ),
            ("flows", Value::from(self.flows)),
            ("probes", Value::from(self.probes)),
            ("window_slices", Value::from(u64::from(self.window_slices))),
            ("slice", Value::from(format!("{SLICE:?}"))),
        ])
    }
}

/// A live workload's generated inputs.
pub struct Inputs {
    /// The deployment.
    pub topo: Topology,
    /// Connected components of the deployment (probe route targets).
    pub components: Components,
    /// World events of the window, relative to its start.
    pub scenario: Option<Scenario>,
    /// Application flows, starting with the window.
    pub flows: Vec<FlowSpec>,
    /// Network (engine and protocol) seed.
    pub net_seed: u64,
    /// Seed of the traffic streams.
    pub flow_seed: u64,
    /// Wall time of the deployment alone, ms.
    pub deploy_ms: f64,
}

/// Deploys the field and generates flows and the scenario from `seed`.
pub fn make_inputs(spec: &LiveSpec, seed: u64, traffic_at: SimTime) -> Inputs {
    let deploy_started = Instant::now();
    let topo = deploy_field(spec, derive(seed, 0));
    let deploy_ms = deploy_started.elapsed().as_secs_f64() * 1e3;
    let components = Components::compute(&topo);
    let mut rng = SimRng::seed_from_u64(derive(seed, 1));
    let flows = flow_pairs(&topo, &components, spec.flows, &mut rng)
        .into_iter()
        .enumerate()
        .map(|(i, (src, dst))| FlowSpec {
            id: i as u16,
            src,
            dst,
            model: if i % 2 == 1 {
                FlowModel::BurstyVideo {
                    frame_interval: SimDuration::from_millis(500),
                    min_burst: 2,
                    max_burst: 6,
                }
            } else {
                FlowModel::Cbr {
                    interval: SimDuration::from_millis(200),
                }
            },
            payload: 256,
            start: traffic_at,
        })
        .collect();
    let scenario = spec
        .mobility
        .map(|m| scenario(spec, &topo, m, derive(seed, 2)));
    Inputs {
        topo,
        components,
        scenario,
        flows,
        net_seed: derive(seed, 3),
        flow_seed: derive(seed, 4),
        deploy_ms,
    }
}

fn deploy_field(spec: &LiveSpec, seed: u64) -> Topology {
    let side = spec.side();
    let mut rng = SimRng::seed_from_u64(seed);
    let positions: Vec<Point2> = (0..spec.nodes)
        .map(|_| Point2::new(rng.next_f64() * side, rng.next_f64() * side))
        .collect();
    let deployment = Deployment {
        width: side,
        height: side,
        radius: spec.radius,
        mean_degree: spec.density,
    };
    deploy_at(&deployment, &spec.weights, positions, &mut rng)
}

fn scenario(spec: &LiveSpec, topo: &Topology, m: Mobility, seed: u64) -> Scenario {
    let side = spec.side();
    let window = SLICE.saturating_mul(u64::from(spec.window_slices));
    ScenarioBuilder::new(topo, seed)
        .with(RandomWaypoint::new(
            (side, side),
            m.tick,
            m.speed,
            m.pause,
            spec.weights,
        ))
        .with(PoissonChurn::new(
            m.leave_rate,
            m.mean_downtime,
            spec.weights,
        ))
        .with(GaussMarkovDrift::new(
            m.tick,
            m.drift.0,
            (spec.weights.min, spec.weights.max),
            m.drift.1,
        ))
        .with(CrashStorm::new(m.storm_rate, m.crash_ppm))
        .generate(window)
}

/// Distinct uniform endpoint pairs connected in the deployment.
fn flow_pairs(
    topo: &Topology,
    components: &Components,
    count: usize,
    rng: &mut SimRng,
) -> Vec<(NodeId, NodeId)> {
    let n = topo.len() as u64;
    let mut pairs = Vec::with_capacity(count);
    let mut attempts = 0;
    while pairs.len() < count && attempts < 4096 && n >= 2 {
        attempts += 1;
        let s = NodeId(rng.next_below(n) as u32);
        let t = NodeId(rng.next_below(n) as u32);
        if s != t && components.connected(s, t) {
            pairs.push((s, t));
        }
    }
    pairs
}

/// Every exact counter a run ends with: engine, protocol, data plane,
/// tables and store.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Warm-up length, whole simulated seconds.
    pub warmup_s: u64,
    /// Engine counters.
    pub engine: SimStats,
    /// Protocol counters summed over nodes.
    pub nodes: NodeStats,
    /// Data-plane counters summed over nodes.
    pub traffic: TrafficStats,
    /// Per-flow delivery records.
    pub flows: BTreeMap<u16, FlowRecord>,
    /// Data frames parked in transmit queues.
    pub queued: u64,
    /// Per-node table footprints summed.
    pub footprint: TableFootprint,
    /// The shared store's gauges.
    pub store: StoreGauges,
}

fn add_node_stats(total: &mut NodeStats, s: &NodeStats) {
    total.hello_sent += s.hello_sent;
    total.tc_sent += s.tc_sent;
    total.tc_forwarded += s.tc_forwarded;
    total.hello_received += s.hello_received;
    total.tc_received += s.tc_received;
    total.bytes_sent += s.bytes_sent;
    total.decode_errors += s.decode_errors;
    total.routes_recomputed += s.routes_recomputed;
    total.route_cache_hits += s.route_cache_hits;
    for (sum, ring) in total.tc_sent_ring.iter_mut().zip(s.tc_sent_ring) {
        *sum += ring;
    }
    total.dup_peek_hits += s.dup_peek_hits;
    total.bytes_decoded += s.bytes_decoded;
    total.malformed_frames += s.malformed_frames;
}

/// The network under measurement, untraced or traced.
pub trait LiveNet {
    /// The nodes' advertise policy.
    type P: AdvertisePolicy;
    /// Advances by `d`.
    fn run_for(&mut self, d: SimDuration);
    /// Current virtual time.
    fn now(&self) -> SimTime;
    /// The protocol node `n`.
    fn node(&self, n: NodeId) -> &OlsrNode<Self::P>;
    /// Node count.
    fn node_count(&self) -> usize;
    /// Engine counters.
    fn engine(&self) -> SimStats;
    /// Shared store gauges.
    fn store(&self) -> StoreGauges;
    /// A probe's route query.
    fn route_count(&self, n: NodeId) -> usize {
        self.node(n).route_count(self.now())
    }

    /// Protocol counters summed over nodes.
    fn node_stats(&self) -> NodeStats {
        let mut total = NodeStats::default();
        for i in 0..self.node_count() {
            add_node_stats(&mut total, &self.node(NodeId(i as u32)).stats());
        }
        total
    }

    /// Data-plane counters summed over nodes, and frames still queued.
    fn traffic(&self) -> (TrafficStats, u64) {
        let mut total = TrafficStats::default();
        let mut queued = 0;
        for i in 0..self.node_count() {
            let node = self.node(NodeId(i as u32));
            total.merge(&node.traffic_stats());
            queued += node.queued_data();
        }
        (total, queued)
    }

    /// Every exact counter.
    fn snapshot(&self, warmup_s: u64) -> Snapshot {
        let mut flows: BTreeMap<u16, FlowRecord> = BTreeMap::new();
        let mut footprint = TableFootprint::default();
        for i in 0..self.node_count() {
            let node = self.node(NodeId(i as u32));
            footprint.merge(&node.table_footprint());
            for (&flow, record) in node.flow_records() {
                flows
                    .entry(flow)
                    .and_modify(|r| r.merge(record))
                    .or_insert_with(|| record.clone());
            }
        }
        let (traffic, queued) = self.traffic();
        Snapshot {
            warmup_s,
            engine: self.engine(),
            nodes: self.node_stats(),
            traffic,
            flows,
            queued,
            footprint,
            store: self.store(),
        }
    }
}

impl<P: AdvertisePolicy> LiveNet for OlsrNetwork<P> {
    type P = P;

    fn run_for(&mut self, d: SimDuration) {
        OlsrNetwork::run_for(self, d);
    }

    fn now(&self) -> SimTime {
        OlsrNetwork::now(self)
    }

    fn node(&self, n: NodeId) -> &OlsrNode<P> {
        OlsrNetwork::node(self, n)
    }

    fn node_count(&self) -> usize {
        self.world().len()
    }

    fn engine(&self) -> SimStats {
        self.engine_stats()
    }

    fn store(&self) -> StoreGauges {
        self.store_gauges()
    }
}

/// The traced network: [`TracedNode`]s on a plain [`Simulator`], with
/// the shared store, flow streams and scenario installed exactly as
/// [`OlsrNetwork`] installs them.
pub struct TracedNet {
    sim: Simulator<TracedNode<Policy>>,
    store: Option<SharedLinkStore>,
}

impl TracedNet {
    /// Mirrors `OlsrNetwork::new` on the default single-queue engine.
    pub fn new(topo: Topology, config: OlsrConfig, radio: RadioConfig, seed: u64) -> Self {
        let store = match config.topology_store {
            TopologyStore::Shared => Some(SharedLinkStore::new()),
            TopologyStore::PerNode => None,
        };
        let sim = Simulator::with_scheduler(topo, radio, seed, SchedulerKind::default(), |id| {
            let p = TimedPolicy(policy());
            TracedNode(match &store {
                Some(store) => OlsrNode::with_store(id, config, p, store.clone()),
                None => OlsrNode::new(id, config, p),
            })
        });
        Self { sim, store }
    }

    /// Mirrors `OlsrNetwork::install_flows`: one traffic stream per node,
    /// split in node order from `seed ^ TRAFFIC_STREAM_SALT`.
    pub fn install_flows(&mut self, flows: &[FlowSpec], seed: u64) {
        let mut master = SimRng::seed_from_u64(seed ^ TRAFFIC_STREAM_SALT);
        for i in 0..self.sim.world().len() {
            let id = NodeId(i as u32);
            let rng = master.split();
            let mine: Vec<FlowState> = flows
                .iter()
                .filter(|f| f.src == id)
                .map(|f| FlowState::new(*f))
                .collect();
            self.sim.actor_mut(id).0.install_traffic(mine, rng);
        }
    }

    /// Mirrors `OlsrNetwork::install_scenario_at`.
    pub fn install_scenario_at(&mut self, scenario: &Scenario, start: SimTime) {
        scenario.install_at(&mut self.sim, start);
    }
}

impl LiveNet for TracedNet {
    type P = TimedPolicy<Policy>;

    fn run_for(&mut self, d: SimDuration) {
        trace::timed(Span::EngineRun, || self.sim.run_for(d));
    }

    fn now(&self) -> SimTime {
        self.sim.now()
    }

    fn node(&self, n: NodeId) -> &OlsrNode<Self::P> {
        &self.sim.actor(n).0
    }

    fn node_count(&self) -> usize {
        self.sim.world().len()
    }

    fn engine(&self) -> SimStats {
        self.sim.stats()
    }

    fn store(&self) -> StoreGauges {
        self.store
            .as_ref()
            .map(SharedLinkStore::gauges)
            .unwrap_or_default()
    }

    fn route_count(&self, n: NodeId) -> usize {
        trace::timed(Span::RouteQuery, || {
            self.sim.actor(n).0.route_count(self.sim.now())
        })
    }
}

/// One episode's measurements.
#[derive(Debug, Clone)]
pub struct Episode {
    /// Deployed nodes.
    pub nodes: usize,
    /// Wall time of input generation, construction and warm-up, s.
    pub setup_s: f64,
    /// Wall time of the deployment alone, ms.
    pub deploy_ms: f64,
    /// Wall time of every slice of the window (the engine run plus, once
    /// per simulated second, the probe queries), ms.
    pub slice_ms: Vec<f64>,
    /// Slices whose correctness checks failed.
    pub failed: u64,
    /// First failed check, for the log.
    pub first_failure: Option<String>,
    /// Counters when the window opened.
    pub start: Snapshot,
    /// Counters when the window closed.
    pub end: Snapshot,
    /// Destinations in their component the probes did not route to at
    /// the window's last query (FNBP's advertised topology need not
    /// reach every node).
    pub probe_unreached: u64,
    /// Largest `queued` over the window's slices.
    pub queued_max: u64,
    /// Wall time of replaying the scenario through
    /// `DynamicTopology::apply` (traced episodes only), ms.
    pub dynamic_apply_ms: f64,
}

impl Episode {
    /// Summed slice wall time, ms.
    pub fn window_ms(&self) -> f64 {
        self.slice_ms.iter().sum()
    }

    /// Slices run.
    pub fn ops(&self) -> u64 {
        self.slice_ms.len() as u64
    }

    /// Timed wall-clock per simulated second, ms.
    pub fn ms_per_sim_s(&self) -> f64 {
        self.window_ms() / (self.slice_ms.len() as f64 / f64::from(SLICES_PER_SECOND))
    }
}

/// Runs one untraced episode on the network [`OlsrNetwork::new`] builds.
pub fn run_untraced(spec: &LiveSpec, seed: u64) -> Episode {
    run_episode(spec, seed, false, |inputs, at| {
        let mut net = OlsrNetwork::new(
            inputs.topo.clone(),
            OlsrConfig::default(),
            spec.radio(),
            inputs.net_seed,
            |_| policy(),
        );
        if let Some(sc) = &inputs.scenario {
            net.install_scenario_at(sc, at);
        }
        net.install_flows(&inputs.flows, inputs.flow_seed);
        net
    })
}

/// Runs one traced episode; the recorder's totals cover its window.
pub fn run_traced(spec: &LiveSpec, seed: u64) -> Episode {
    run_episode(spec, seed, true, |inputs, at| {
        let mut net = TracedNet::new(
            inputs.topo.clone(),
            OlsrConfig::default(),
            spec.radio(),
            inputs.net_seed,
        );
        if let Some(sc) = &inputs.scenario {
            net.install_scenario_at(sc, at);
        }
        net.install_flows(&inputs.flows, inputs.flow_seed);
        net
    })
}

fn run_episode<N: LiveNet>(
    spec: &LiveSpec,
    seed: u64,
    traced: bool,
    build: impl FnOnce(&Inputs, SimTime) -> N,
) -> Episode {
    let started = Instant::now();
    // With a fixed warm-up the window's start is known up front; a
    // converging warm-up has no flows or scenario to place.
    let fixed_start = match spec.warmup {
        Warmup::Fixed(d) => SimTime::ZERO + d,
        Warmup::Converge { .. } => SimTime::ZERO,
    };
    let inputs = make_inputs(spec, seed, fixed_start);
    let mut net = build(&inputs, fixed_start);
    let probes: Vec<NodeId> = (0..spec.probes.min(inputs.topo.len()))
        .map(|p| NodeId(p as u32))
        .collect();
    let full_routes = |n: NodeId| inputs.components.size(inputs.components.label_of(n)) - 1;
    match spec.warmup {
        Warmup::Fixed(d) => net.run_for(d),
        Warmup::Converge { max } => {
            // Converged once every probe routes to its whole component,
            // or once every probe holds routes and the counts have not
            // changed for two simulated seconds.
            let mut last: Vec<usize> = Vec::new();
            let mut stable = 0;
            while net.now() < SimTime::ZERO + max {
                net.run_for(SimDuration::from_secs(1));
                let counts: Vec<usize> = probes.iter().map(|&p| net.route_count(p)).collect();
                if probes
                    .iter()
                    .zip(&counts)
                    .all(|(&p, &c)| c == full_routes(p))
                {
                    break;
                }
                let routed = probes
                    .iter()
                    .zip(&counts)
                    .all(|(&p, &c)| c > 0 || full_routes(p) == 0);
                stable = if routed && counts == last {
                    stable + 1
                } else {
                    0
                };
                if stable == 2 {
                    break;
                }
                last = counts;
            }
        }
    }
    let setup_s = started.elapsed().as_secs_f64();
    let warmup_s = (net.now() - SimTime::ZERO).as_micros() / 1_000_000;

    let dynamic_apply_ms = match (&inputs.scenario, traced) {
        (Some(sc), true) => replay_scenario(&inputs.topo, sc),
        _ => 0.0,
    };

    if traced {
        trace::reset();
    }
    let start = net.snapshot(warmup_s);
    let mut slice_ms = Vec::with_capacity(spec.window_slices as usize);
    let mut failed = 0;
    let mut first_failure = None;
    let mut queued_max = 0;
    let mut routes = vec![0usize; probes.len()];
    for s in 1..=spec.window_slices {
        let t = Instant::now();
        net.run_for(SLICE);
        let query = s % SLICES_PER_SECOND == 0;
        if query {
            for (r, &p) in routes.iter_mut().zip(&probes) {
                *r = net.route_count(p);
            }
        }
        slice_ms.push(t.elapsed().as_secs_f64() * 1e3);

        let failure = check_slice(spec, &net, &start, query, &probes, &routes, &full_routes);
        let (_, queued) = net.traffic();
        queued_max = queued_max.max(queued);
        if let Some(why) = failure {
            failed += 1;
            first_failure.get_or_insert(format!("slice {s}: {why}"));
        }
    }
    let probe_unreached = probes
        .iter()
        .zip(&routes)
        .map(|(&p, &r)| full_routes(p).saturating_sub(r) as u64)
        .sum();
    let end = net.snapshot(warmup_s);
    Episode {
        probe_unreached,
        nodes: inputs.topo.len(),
        setup_s,
        deploy_ms: inputs.deploy_ms,
        slice_ms,
        failed,
        first_failure,
        start,
        end,
        queued_max,
        dynamic_apply_ms,
    }
}

/// The correctness checks of one slice; `Some(reason)` on failure.
fn check_slice<N: LiveNet>(
    spec: &LiveSpec,
    net: &N,
    start: &Snapshot,
    queried: bool,
    probes: &[NodeId],
    routes: &[usize],
    full_routes: &impl Fn(NodeId) -> usize,
) -> Option<String> {
    let stats = net.node_stats();
    if stats.decode_errors != start.nodes.decode_errors {
        return Some(format!("{} decode errors", stats.decode_errors));
    }
    // Only a static world promises that a probe's routes persist.
    if spec.mobility.is_none() && queried {
        for (&p, &r) in probes.iter().zip(routes) {
            if r == 0 && full_routes(p) > 0 {
                return Some(format!("probe {p} holds no route"));
            }
        }
    }
    if spec.flows > 0 {
        let (t, queued) = net.traffic();
        let e = net.engine();
        let in_flight = e.data_in_flight_drops();
        // Frames transmitted whose delivery is still pending.
        let in_air = e.data_unicasts as i128 - e.data_deliveries as i128 - in_flight as i128;
        let accounted =
            t.delivered as i128 + t.drops() as i128 + in_flight as i128 + queued as i128 + in_air;
        if in_air < 0 || accounted != t.injected as i128 {
            return Some(format!(
                "drop ledger open: injected {} != delivered {} + node drops {} + in flight {} \
                 + queued {queued} + in air {in_air}",
                t.injected,
                t.delivered,
                t.drops(),
                in_flight
            ));
        }
    }
    None
}

/// Replays the scenario's events onto a fresh `DynamicTopology` through
/// `apply`, timed; returns the wall time, ms.
fn replay_scenario(topo: &Topology, scenario: &Scenario) -> f64 {
    let mut world = DynamicTopology::new(topo);
    let started = Instant::now();
    for te in scenario.events() {
        world.apply(&te.event);
    }
    started.elapsed().as_secs_f64() * 1e3
}
