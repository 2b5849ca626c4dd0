//! The `paper_static` workload: the paper's offline evaluation (§IV.A),
//! with no simulation engine at all.
//!
//! One *cycle* deploys one Poisson topology per paper density on the
//! 1000 × 1000 field (set-up), then fully evaluates each one (one op):
//! every node's advertised set under QOLSR MPR-2, topology filtering and
//! FNBP, one seeded connected pair routed over each advertised graph,
//! and the optimum the routes are compared with.

use std::time::Instant;

use qolsr::routing::optimal_value;
use qolsr::selector::{AnsSelector, Fnbp, MprVariant, QolsrMpr, TopologyFiltering};
use qolsr::{route, RouteStrategy};
use qolsr_graph::connectivity::Components;
use qolsr_graph::deploy::{deploy, Deployment, UniformWeights};
use qolsr_graph::{CompactGraph, LocalView, NodeId, Topology};
use qolsr_metrics::{BandwidthMetric, Metric};
use qolsr_sim::SimRng;

use crate::json::Value;
use crate::seed::derive;
use crate::trace::{self, Guard, Span};

/// The paper's deployment parameters (bandwidth figures, Figs. 6 and 8).
#[derive(Debug, Clone)]
pub struct StaticSpec {
    /// Mean node degrees, one deployment each per cycle.
    pub densities: Vec<f64>,
    /// Field width and height.
    pub field: (f64, f64),
    /// Communication radius R.
    pub radius: f64,
    /// Link-weight interval.
    pub weights: UniformWeights,
    /// One cycle's evaluation wall time on the reference host (2-core
    /// Xeon, 2.1 GHz), s; runs are sized from `--seconds` with it.
    pub nominal_cycle_s: f64,
}

impl StaticSpec {
    /// Densities 10–35 on 1000 × 1000 with R = 100 and weights in
    /// [1, 100], as `EvalConfig::paper_bandwidth`.
    pub fn paper() -> Self {
        Self {
            densities: vec![10.0, 15.0, 20.0, 25.0, 30.0, 35.0],
            field: (1000.0, 1000.0),
            radius: 100.0,
            weights: UniformWeights::new(1, 100),
            nominal_cycle_s: 5.0,
        }
    }

    /// The spec as a JSON record.
    pub fn record(&self) -> Value {
        Value::obj([
            (
                "densities",
                Value::Arr(self.densities.iter().map(|&d| Value::from(d)).collect()),
            ),
            (
                "field",
                Value::from(format!("{} x {}", self.field.0, self.field.1)),
            ),
            ("radius", Value::from(self.radius)),
            (
                "weights",
                Value::from(format!("[{}, {}]", self.weights.min, self.weights.max)),
            ),
            ("metric", Value::from(BandwidthMetric::NAME)),
            (
                "selectors",
                Value::from("qolsr_mpr2, topology_filtering, fnbp"),
            ),
            ("routing", Value::from("AdvertisedOnly")),
        ])
    }
}

/// One deployed topology with its routed pair.
#[derive(Debug, Clone)]
pub struct Deployed {
    /// Mean degree it was drawn at.
    pub density: f64,
    /// The topology.
    pub topo: Topology,
    /// A uniform pair within one component, if any has two nodes.
    pub pair: Option<(NodeId, NodeId)>,
    /// Wall time of `deploy` alone, ms.
    pub deploy_ms: f64,
}

/// Deploys one topology per density; the deployment stream of each
/// depends only on `seed` and the density's index.
pub fn deploy_cycle(spec: &StaticSpec, seed: u64) -> Vec<Deployed> {
    spec.densities
        .iter()
        .enumerate()
        .map(|(i, &density)| {
            let mut rng = SimRng::seed_from_u64(derive(seed, 16 + i as u64));
            let deployment = Deployment {
                width: spec.field.0,
                height: spec.field.1,
                radius: spec.radius,
                mean_degree: density,
            };
            let started = Instant::now();
            let topo = deploy(&deployment, &spec.weights, &mut rng);
            let deploy_ms = started.elapsed().as_secs_f64() * 1e3;
            let pair = sample_pair(&topo, &mut rng);
            Deployed {
                density,
                topo,
                pair,
                deploy_ms,
            }
        })
        .collect()
}

fn sample_pair(topo: &Topology, rng: &mut SimRng) -> Option<(NodeId, NodeId)> {
    let components = Components::compute(topo);
    let n = topo.len() as u64;
    if n < 2 {
        return None;
    }
    (0..4096).find_map(|_| {
        let s = NodeId(rng.next_below(n) as u32);
        let t = NodeId(rng.next_below(n) as u32);
        (s != t && components.connected(s, t)).then_some((s, t))
    })
}

/// The paper's three selectors under the bandwidth metric.
pub struct Selectors {
    mpr2: QolsrMpr<BandwidthMetric>,
    tf: TopologyFiltering<BandwidthMetric>,
    fnbp: Fnbp<BandwidthMetric>,
}

impl Default for Selectors {
    fn default() -> Self {
        Self {
            mpr2: QolsrMpr::new(MprVariant::Mpr2),
            tf: TopologyFiltering::new(),
            fnbp: Fnbp::new(),
        }
    }
}

/// What one evaluated topology produced, per selector in the order
/// MPR-2, topology filtering, FNBP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evaluated {
    /// Nodes in the deployment.
    pub nodes: usize,
    /// Summed advertised-set sizes.
    pub ans_sizes: [u64; 3],
    /// `(hops, bottleneck bandwidth)` of the routed pair, `None` when
    /// routing over the advertised graph failed.
    pub routes: [Option<(usize, u64)>; 3],
    /// The optimal bottleneck bandwidth of the pair.
    pub optimal: Option<u64>,
    /// Advertised "neighbours" that are not neighbours.
    pub bad_neighbors: u64,
    /// Routes strictly better than the optimum.
    pub beats_optimum: u64,
}

impl Evaluated {
    /// Why the op failed its checks, if it did.
    pub fn failure(&self, pair: Option<(NodeId, NodeId)>) -> Option<String> {
        if self.bad_neighbors > 0 {
            return Some(format!("{} advertised non-neighbours", self.bad_neighbors));
        }
        if self.beats_optimum > 0 {
            return Some(format!("{} routes beat the optimum", self.beats_optimum));
        }
        if pair.is_some() && self.optimal.is_none() {
            return Some("connected pair without an optimum".to_owned());
        }
        None
    }
}

/// Opens `span` only in the traced build of the evaluation.
fn span<const TRACED: bool>(span: Span) -> Option<Guard> {
    TRACED.then(|| trace::enter(span))
}

/// Fully evaluates one deployment: per node the view is extracted once
/// and shared by the three selectors (as the figure harness does), the
/// advertised graphs are built, and the pair is routed over each and
/// compared with the optimum.
pub fn evaluate<const TRACED: bool>(d: &Deployed, sel: &Selectors) -> Evaluated {
    let topo = &d.topo;
    let n = topo.len();
    let mut graphs: [CompactGraph; 3] = std::array::from_fn(|_| CompactGraph::with_nodes(n));
    let mut out = Evaluated {
        nodes: n,
        ans_sizes: [0; 3],
        routes: [None; 3],
        optimal: None,
        bad_neighbors: 0,
        beats_optimum: 0,
    };
    for u in topo.nodes() {
        let view = {
            let _g = span::<TRACED>(Span::ViewExtract);
            LocalView::extract(topo, u)
        };
        let sets = [
            {
                let _g = span::<TRACED>(Span::SelectMpr2);
                sel.mpr2.select(&view)
            },
            {
                let _g = span::<TRACED>(Span::SelectTf);
                sel.tf.select(&view)
            },
            {
                let _g = span::<TRACED>(Span::SelectFnbp);
                sel.fnbp.select(&view)
            },
        ];
        for (k, ans) in sets.iter().enumerate() {
            out.ans_sizes[k] += ans.len() as u64;
            for &w in ans {
                match topo.link_qos(u, w) {
                    Some(qos) => graphs[k].add_undirected(u.0, w.0, qos),
                    None => out.bad_neighbors += 1,
                }
            }
        }
    }
    let Some((s, t)) = d.pair else {
        return out;
    };
    let optimal = {
        let _g = span::<TRACED>(Span::Optimal);
        optimal_value::<BandwidthMetric>(topo, s, t)
    };
    out.optimal = optimal.map(|v| v.value());
    for (k, graph) in graphs.iter().enumerate() {
        let routed = {
            let _g = span::<TRACED>(Span::Route);
            route::<BandwidthMetric>(topo, graph, s, t, RouteStrategy::AdvertisedOnly)
        };
        if let Ok(outcome) = routed {
            let achieved = outcome.qos::<BandwidthMetric>(topo);
            if optimal.is_some_and(|opt| BandwidthMetric::better(achieved, opt)) {
                out.beats_optimum += 1;
            }
            out.routes[k] = Some((outcome.hops(), achieved.value()));
        }
    }
    out
}

/// One cycle's measurements.
#[derive(Debug, Clone)]
pub struct Cycle {
    /// Wall time of deploying the cycle's topologies and sampling their
    /// pairs, s.
    pub setup_s: f64,
    /// Wall time of the `deploy` calls within the set-up, ms.
    pub deploy_ms: f64,
    /// Wall time of each topology's evaluation, ms.
    pub topo_ms: Vec<f64>,
    /// Every topology's result.
    pub results: Vec<Evaluated>,
    /// Topologies whose checks failed.
    pub failed: u64,
    /// First failed check, for the log.
    pub first_failure: Option<String>,
}

impl Cycle {
    /// Mean wall time per topology, ms.
    pub fn ms_per_topology(&self) -> f64 {
        self.topo_ms.iter().sum::<f64>() / self.topo_ms.len().max(1) as f64
    }
}

/// Deploys and evaluates one cycle; `TRACED` records spans around the
/// selectors, extraction and routing.
pub fn run_cycle<const TRACED: bool>(spec: &StaticSpec, seed: u64) -> Cycle {
    let started = Instant::now();
    let deployed = deploy_cycle(spec, seed);
    let setup_s = started.elapsed().as_secs_f64();
    let selectors = Selectors::default();
    let mut cycle = Cycle {
        setup_s,
        deploy_ms: deployed.iter().map(|d| d.deploy_ms).sum(),
        topo_ms: Vec::with_capacity(deployed.len()),
        results: Vec::with_capacity(deployed.len()),
        failed: 0,
        first_failure: None,
    };
    for d in &deployed {
        let t = Instant::now();
        let result = evaluate::<TRACED>(d, &selectors);
        cycle.topo_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some(why) = result.failure(d.pair) {
            cycle.failed += 1;
            cycle
                .first_failure
                .get_or_insert(format!("density {}: {why}", d.density));
        }
        cycle.results.push(result);
    }
    cycle
}
