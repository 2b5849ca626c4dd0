//! Criterion benchmarks of the region-sharded executor: the same
//! n = 1000 live HELLO/TC protocol run executed on the single-queue
//! reference engine and on the sharded engine at 1, 2 and 4 shards.
//!
//! `sharded/1` vs `single_queue` isolates the pure cost of the
//! window/barrier machinery (provisional sequencing, record logs, the
//! k-way merge) with zero cross-shard traffic; 2 and 4 shards add the
//! cross-shard frame hand-off and run the shards' windows on parallel
//! threads.
//!
//! Two groups:
//! * `sharded_steady_n1000` — the network is first warmed for
//!   10 simulated seconds outside the timed closure (past TC
//!   convergence, where TC flooding dominates), then each iteration
//!   times one further simulated second.
//! * `sharded_cold_n1000` — each iteration builds the network and runs
//!   3 s from t = 0, where only HELLOs flow and per-window thread spawns
//!   dominate.
use criterion::{criterion_group, criterion_main, Criterion};
use qolsr::policy::SelectorPolicy;
use qolsr::selector::Fnbp;
use qolsr_graph::deploy::{deploy_at, Deployment, UniformWeights};
use qolsr_graph::{Point2, Topology};
use qolsr_metrics::BandwidthMetric;
use qolsr_proto::network::OlsrNetwork;
use qolsr_proto::OlsrConfig;
use qolsr_sim::{ExecMode, RadioConfig, SchedulerKind, SimDuration, SimRng};
use std::f64::consts::PI;
use std::hint::black_box;

/// Uniform deployment of `n` nodes at the paper's density 10 / radius
/// 100, field grown with `n` — the same construction as the live scale
/// sweep, so numbers line up with `figures scale --live`.
fn field_topology(n: usize, seed: u64) -> Topology {
    let (radius, density) = (100.0, 10.0);
    let side = (n as f64 * PI * radius * radius / density).sqrt();
    let mut rng = SimRng::seed_from_u64(seed);
    let positions: Vec<Point2> = (0..n)
        .map(|_| Point2::new(rng.next_f64() * side, rng.next_f64() * side))
        .collect();
    let deployment = Deployment {
        width: side,
        height: side,
        radius,
        mean_degree: density,
    };
    deploy_at(
        &deployment,
        &UniformWeights::paper_defaults(),
        positions,
        &mut rng,
    )
}

fn network(topo: &Topology, exec: ExecMode) -> OlsrNetwork<SelectorPolicy<Fnbp<BandwidthMetric>>> {
    OlsrNetwork::with_exec(
        topo.clone(),
        OlsrConfig::default(),
        RadioConfig::default(),
        1,
        SchedulerKind::default(),
        exec,
        |_| SelectorPolicy::new(Fnbp::<BandwidthMetric>::new()),
    )
}

const EXECS: [(&str, ExecMode); 4] = [
    ("single_queue", ExecMode::SingleShard),
    ("sharded/1", ExecMode::Sharded { shards: 1 }),
    ("sharded/2", ExecMode::Sharded { shards: 2 }),
    ("sharded/4", ExecMode::Sharded { shards: 4 }),
];

fn bench_steady_state(c: &mut Criterion) {
    let topo = field_topology(1000, 0x0150);
    let mut group = c.benchmark_group("sharded_steady_n1000");
    group.sample_size(10);
    for (id, exec) in EXECS {
        group.bench_function(id, |b| {
            let mut net = network(&topo, exec);
            net.run_for(SimDuration::from_secs(10));
            b.iter(|| {
                net.run_for(SimDuration::from_secs(1));
                black_box(net.engine_stats().events)
            })
        });
    }
    group.finish();
}

fn bench_cold_start(c: &mut Criterion) {
    let topo = field_topology(1000, 0x0150);
    let mut group = c.benchmark_group("sharded_cold_n1000");
    group.sample_size(10);
    for (id, exec) in EXECS {
        group.bench_function(id, |b| {
            b.iter(|| {
                let mut net = network(&topo, exec);
                net.run_for(SimDuration::from_secs(3));
                black_box(net.engine_stats().events)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_steady_state, bench_cold_start);
criterion_main!(benches);
