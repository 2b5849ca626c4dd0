//! One benchmark run: a workload measured untraced (end-to-end metrics)
//! or untraced and traced side by side (per-layer metrics).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::host;
use crate::json::Value;
use crate::live::{self, Episode, LiveSpec};
use crate::paper_static::{self, Cycle, StaticSpec};
use crate::seed::derive;
use crate::stats::{beyond, median, quantile};
use crate::trace::{self, Span};

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("op_ms_mean", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run; a
/// layer the workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("sim.engine.self_ms", "ms"),
    ("sim.engine.ns_per_event", "ns"),
    ("sim.engine.events", "count"),
    ("sim.engine.deliveries", "count"),
    ("sim.engine.timers", "count"),
    ("sim.engine.world_changes", "count"),
    ("sim.phy.drop_share", "fraction"),
    ("olsr.node.msg.hello_ms", "ms"),
    ("olsr.node.msg.hello_calls", "count"),
    ("olsr.node.msg.tc_ms", "ms"),
    ("olsr.node.msg.tc_calls", "count"),
    ("olsr.node.msg.data_ms", "ms"),
    ("olsr.node.msg.data_calls", "count"),
    ("olsr.node.timer.hello_ms", "ms"),
    ("olsr.node.timer.hello_calls", "count"),
    ("olsr.node.timer.tc_ms", "ms"),
    ("olsr.node.timer.tc_calls", "count"),
    ("olsr.node.timer.sweep_ms", "ms"),
    ("olsr.node.timer.sweep_calls", "count"),
    ("olsr.node.timer.data_ms", "ms"),
    ("olsr.node.timer.data_calls", "count"),
    ("olsr.node.timer.service_ms", "ms"),
    ("olsr.node.timer.service_calls", "count"),
    ("olsr.node.reset_ms", "ms"),
    ("olsr.node.reset_calls", "count"),
    ("olsr.wire.dup_share", "fraction"),
    ("olsr.wire.bytes_decoded", "bytes"),
    ("olsr.routing.query_ms", "ms"),
    ("olsr.routing.queries", "count"),
    ("olsr.routing.recomputes", "count"),
    ("olsr.routing.hit_ratio", "fraction"),
    ("olsr.store.resident_mib", "MiB"),
    ("olsr.store.dedup_hits", "count"),
    ("olsr.tables.footprint_mib", "MiB"),
    ("core.selector.advertised_set_ms", "ms"),
    ("core.selector.advertised_set_calls", "count"),
    ("core.selector.qolsr_mpr2.select_ms", "ms"),
    ("core.selector.topology_filtering.select_ms", "ms"),
    ("core.selector.fnbp.select_ms", "ms"),
    ("graph.view.extract_ms", "ms"),
    ("core.routing.route_ms", "ms"),
    ("core.routing.optimal_ms", "ms"),
    ("graph.deploy_ms", "ms"),
    ("graph.dynamic.apply_ms", "ms"),
    ("sim.traffic.injected", "count"),
    ("sim.traffic.delivered", "count"),
    ("sim.traffic.drop_no_route", "count"),
    ("sim.traffic.drop_queue_full", "count"),
    ("sim.traffic.drop_ttl_expired", "count"),
    ("sim.traffic.drop_queue_wiped", "count"),
    ("sim.traffic.in_flight", "count"),
    ("sim.traffic.queued_max", "count"),
    ("delivery_ratio", "fraction"),
    ("bench.trace_overhead", "ratio"),
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Live HELLO/TC flooding at n = 1000 on a static world.
    Flood,
    /// Live protocol and data plane at n = 250 under mobility and faults.
    Mobile,
    /// The paper's offline selector evaluation.
    PaperStatic,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Flood, Workload::Mobile, Workload::PaperStatic];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Flood => "flood",
            Workload::Mobile => "mobile",
            Workload::PaperStatic => "paper_static",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The inputs of every workload.
#[derive(Debug, Clone)]
pub struct Specs {
    /// `flood`.
    pub flood: LiveSpec,
    /// `mobile`.
    pub mobile: LiveSpec,
    /// `paper_static`.
    pub paper_static: StaticSpec,
}

impl Default for Specs {
    fn default() -> Self {
        Self {
            flood: LiveSpec::flood(),
            mobile: LiveSpec::mobile(),
            paper_static: StaticSpec::paper(),
        }
    }
}

/// What a run prints.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Ops run (slices or topologies).
    pub attempted: u64,
    /// Ops whose correctness checks failed.
    pub failed: u64,
    /// No op failed, repetitions agreed, and (traced) the traced run
    /// matched the untraced one exactly.
    pub correct: bool,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Workload-specific summary for the run record.
    pub summary: Value,
    /// Human-readable lines.
    pub log: Vec<String>,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result(&self) -> Value {
        Value::obj([
            ("correct", Value::from(self.correct)),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|&(name, value, unit)| {
                    (
                        name,
                        Value::obj([("value", Value::from(value)), ("unit", Value::from(unit))]),
                    )
                })),
            ),
        ])
    }
}

/// Runs `workload` with the given seed for about `seconds` of measured
/// time. Traced runs write their spans under `spans_dir`.
pub fn run(
    workload: Workload,
    specs: &Specs,
    seed: u64,
    seconds: f64,
    traced: bool,
    spans_dir: Option<&Path>,
) -> Outcome {
    let mut outcome = match (workload, traced) {
        (Workload::Flood, false) => live_untraced(&specs.flood, seed, seconds),
        (Workload::Mobile, false) => live_untraced(&specs.mobile, seed, seconds),
        (Workload::PaperStatic, false) => static_untraced(&specs.paper_static, seed, seconds),
        (Workload::Flood, true) => live_traced(&specs.flood, seed),
        (Workload::Mobile, true) => live_traced(&specs.mobile, seed),
        (Workload::PaperStatic, true) => static_traced(&specs.paper_static, seed),
    };
    if traced {
        if let Some(dir) = spans_dir {
            let path: PathBuf = dir.join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
            match trace::write_spans(&path) {
                Ok(n) => outcome
                    .log
                    .push(format!("wrote {n} spans to {}", path.display())),
                Err(e) => outcome
                    .log
                    .push(format!("could not write spans to {}: {e}", path.display())),
            }
        }
    }
    outcome
}

/// The run record: what ran, where, on which code, with which inputs.
pub fn record(
    workload: Workload,
    specs: &Specs,
    seed: u64,
    seconds: f64,
    traced: bool,
    root: &Path,
    outcome: &Outcome,
) -> Value {
    let config = match workload {
        Workload::Flood => specs.flood.record(),
        Workload::Mobile => specs.mobile.record(),
        Workload::PaperStatic => specs.paper_static.record(),
    };
    Value::obj([(
        "run",
        Value::obj([
            ("benchmark", Value::from("qolsr-perfbench")),
            ("workload", Value::from(workload.name())),
            ("seed", Value::from(seed)),
            ("seconds", Value::from(seconds)),
            ("trace", Value::from(traced)),
            ("host", host::record(root)),
            ("config", config),
            ("summary", outcome.summary.clone()),
        ]),
    )])
}

/// Fills the table `names` from `values`; absent names read 0.
fn table(
    names: &[(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, f64, &'static str)> {
    names
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

/// Repetitions for about `seconds` of measured time, given one
/// repetition's nominal measured time on the reference host; never fewer
/// than three, so set-up has a median.
fn repeats(seconds: f64, nominal_s: f64) -> usize {
    ((seconds / nominal_s).ceil() as usize).max(3)
}

/// The seed of repetition `i`: each repetition deploys its own world.
fn world_seed(seed: u64, i: usize) -> u64 {
    derive(seed, 1000 + i as u64)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn live_untraced(spec: &LiveSpec, seed: u64, seconds: f64) -> Outcome {
    let worlds = repeats(seconds, spec.nominal_window_s);
    let episodes: Vec<Episode> = (0..worlds)
        .map(|i| live::run_untraced(spec, world_seed(seed, i)))
        .collect();
    let mut log = Vec::new();
    let mut failed = 0;
    for (i, ep) in episodes.iter().enumerate() {
        failed += ep.failed;
        if let Some(why) = &ep.first_failure {
            log.push(format!("world {i}: {why}"));
        }
    }
    let attempted: u64 = episodes.iter().map(Episode::ops).sum();
    let slices: Vec<f64> = episodes.iter().flat_map(|e| e.slice_ms.clone()).collect();
    let setups: Vec<f64> = episodes.iter().map(|e| e.setup_s).collect();
    let op_ms_mean = slices.iter().sum::<f64>() / slices.len() as f64;
    let slice_p90 = quantile(&slices, 0.9).unwrap_or(0.0);
    let setup_s = median(&setups).unwrap_or(0.0);
    let values = BTreeMap::from([
        ("setup_s", setup_s),
        ("op_ms_mean", op_ms_mean),
        ("peak_rss_mib", host::peak_rss_mib()),
    ]);
    let window = |f: fn(&live::Snapshot) -> u64| -> u64 {
        episodes.iter().map(|e| f(&e.end) - f(&e.start)).sum()
    };
    let (delivered, injected) = (
        window(|x| x.traffic.delivered),
        window(|x| x.traffic.injected),
    );
    let delivery_ratio = ratio(delivered, injected);
    let events = window(|x| x.engine.events);
    log.push(format!(
        "{worlds} worlds x {} slices: {:.1} ms per simulated second, slice p90 {slice_p90:.2} ms \
         ({} slices, {} beyond p90), set-up {setup_s:.2} s, {events} events",
        spec.window_slices,
        op_ms_mean * 10.0,
        slices.len(),
        beyond(slices.len(), 0.9),
    ));
    if spec.flows > 0 {
        log.push(format!(
            "delivery ratio {delivery_ratio:.4} ({delivered} of {injected} packets)"
        ));
    }
    let per_world = |f: &dyn Fn(&Episode) -> Value| Value::Arr(episodes.iter().map(f).collect());
    let summary = Value::obj([
        ("worlds", Value::from(worlds)),
        ("ops", Value::from(attempted)),
        ("ops_failed", Value::from(failed)),
        ("ms_per_sim_s", Value::from(op_ms_mean * 10.0)),
        ("slice_ms_p90", Value::from(slice_p90)),
        ("slice_samples", Value::from(slices.len())),
        ("slices_beyond_p90", Value::from(beyond(slices.len(), 0.9))),
        ("window_events", Value::from(events)),
        ("delivery_ratio", Value::from(delivery_ratio)),
        ("world_nodes", per_world(&|e| Value::from(e.nodes))),
        ("world_setup_s", per_world(&|e| Value::from(e.setup_s))),
        (
            "world_ms_per_sim_s",
            per_world(&|e| Value::from(e.ms_per_sim_s())),
        ),
        (
            "world_warmup_s",
            per_world(&|e| Value::from(e.end.warmup_s)),
        ),
        (
            "world_events",
            per_world(&|e| Value::from(e.end.engine.events - e.start.engine.events)),
        ),
        (
            "world_probe_unreached",
            per_world(&|e| Value::from(e.probe_unreached)),
        ),
    ]);
    Outcome {
        attempted,
        failed,
        correct: failed == 0,
        metrics: table(&END_TO_END, &values),
        summary,
        log,
    }
}

fn live_traced(spec: &LiveSpec, seed: u64) -> Outcome {
    let plain = live::run_untraced(spec, world_seed(seed, 0));
    let traced = live::run_traced(spec, world_seed(seed, 0));
    let transparent = plain.start == traced.start && plain.end == traced.end;
    let mut log = Vec::new();
    for (which, ep) in [("untraced", &plain), ("traced", &traced)] {
        if let Some(why) = &ep.first_failure {
            log.push(format!("{which}: {why}"));
        }
    }
    if !transparent {
        log.push(format!(
            "traced counters differ from untraced ones:\n  untraced {:?}\n  traced   {:?}",
            plain.end, traced.end
        ));
    }
    let attempted = plain.ops() + traced.ops();
    let failed = plain.failed + traced.failed + if transparent { 0 } else { traced.ops() };

    let (s, e) = (&traced.start, &traced.end);
    let d = |f: fn(&live::Snapshot) -> u64| f(e) - f(s);
    let t = trace::totals;
    let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    let events = d(|x| x.engine.events);
    let engine = t(Span::EngineRun);
    let mut values = BTreeMap::from([
        ("sim.engine.self_ms", engine.self_ms()),
        ("sim.engine.ns_per_event", ratio(engine.self_ns, events)),
        ("sim.engine.events", events as f64),
        ("sim.engine.deliveries", d(|x| x.engine.deliveries) as f64),
        ("sim.engine.timers", d(|x| x.engine.timers) as f64),
        (
            "sim.engine.world_changes",
            d(|x| x.engine.world_changes) as f64,
        ),
        (
            "sim.phy.drop_share",
            ratio(
                d(|x| x.engine.phy_drops),
                d(|x| x.engine.deliveries) + d(|x| x.engine.phy_drops),
            ),
        ),
        (
            "olsr.wire.dup_share",
            ratio(d(|x| x.nodes.dup_peek_hits), d(|x| x.nodes.tc_received)),
        ),
        (
            "olsr.wire.bytes_decoded",
            d(|x| x.nodes.bytes_decoded) as f64,
        ),
        ("olsr.routing.query_ms", t(Span::RouteQuery).incl_ms()),
        ("olsr.routing.queries", t(Span::RouteQuery).calls as f64),
        (
            "olsr.routing.recomputes",
            d(|x| x.nodes.routes_recomputed) as f64,
        ),
        (
            "olsr.routing.hit_ratio",
            ratio(
                d(|x| x.nodes.route_cache_hits),
                d(|x| x.nodes.route_cache_hits) + d(|x| x.nodes.routes_recomputed),
            ),
        ),
        ("olsr.store.resident_mib", mib(e.store.resident_bytes)),
        ("olsr.store.dedup_hits", d(|x| x.store.dedup_hits) as f64),
        (
            "olsr.tables.footprint_mib",
            mib(e.footprint.topology_bytes + e.footprint.duplicate_bytes),
        ),
        ("graph.deploy_ms", traced.deploy_ms),
        ("graph.dynamic.apply_ms", traced.dynamic_apply_ms),
        ("sim.traffic.injected", d(|x| x.traffic.injected) as f64),
        ("sim.traffic.delivered", d(|x| x.traffic.delivered) as f64),
        (
            "sim.traffic.drop_no_route",
            d(|x| x.traffic.drop_no_route) as f64,
        ),
        (
            "sim.traffic.drop_queue_full",
            d(|x| x.traffic.drop_queue_full) as f64,
        ),
        (
            "sim.traffic.drop_ttl_expired",
            d(|x| x.traffic.drop_ttl_expired) as f64,
        ),
        (
            "sim.traffic.drop_queue_wiped",
            d(|x| x.traffic.drop_queue_wiped) as f64,
        ),
        (
            "sim.traffic.in_flight",
            d(|x| x.engine.data_in_flight_drops()) as f64,
        ),
        ("sim.traffic.queued_max", traced.queued_max as f64),
        (
            "delivery_ratio",
            ratio(d(|x| x.traffic.delivered), d(|x| x.traffic.injected)),
        ),
        (
            "bench.trace_overhead",
            traced.window_ms() / plain.window_ms(),
        ),
    ]);
    // Handler spans: inclusive time and call count.
    let handlers = [
        (
            "olsr.node.msg.hello_ms",
            "olsr.node.msg.hello_calls",
            Span::MsgHello,
        ),
        ("olsr.node.msg.tc_ms", "olsr.node.msg.tc_calls", Span::MsgTc),
        (
            "olsr.node.msg.data_ms",
            "olsr.node.msg.data_calls",
            Span::MsgData,
        ),
        (
            "olsr.node.timer.hello_ms",
            "olsr.node.timer.hello_calls",
            Span::TimerHello,
        ),
        (
            "olsr.node.timer.tc_ms",
            "olsr.node.timer.tc_calls",
            Span::TimerTc,
        ),
        (
            "olsr.node.timer.sweep_ms",
            "olsr.node.timer.sweep_calls",
            Span::TimerSweep,
        ),
        (
            "olsr.node.timer.data_ms",
            "olsr.node.timer.data_calls",
            Span::TimerData,
        ),
        (
            "olsr.node.timer.service_ms",
            "olsr.node.timer.service_calls",
            Span::TimerService,
        ),
        ("olsr.node.reset_ms", "olsr.node.reset_calls", Span::Reset),
        (
            "core.selector.advertised_set_ms",
            "core.selector.advertised_set_calls",
            Span::AdvertisedSet,
        ),
    ];
    for (ms, calls, span) in handlers {
        values.insert(ms, t(span).incl_ms());
        values.insert(calls, t(span).calls as f64);
    }
    log.push(format!(
        "traced window {:.1} ms vs untraced {:.1} ms (overhead x{:.3}); engine self {:.1} ms \
         over {events} events; counters {}",
        traced.window_ms(),
        plain.window_ms(),
        traced.window_ms() / plain.window_ms(),
        engine.self_ms(),
        if transparent { "identical" } else { "DIFFER" },
    ));
    let summary = Value::obj([
        ("ops", Value::from(attempted)),
        ("ops_failed", Value::from(failed)),
        ("transparent", Value::from(transparent)),
        ("untraced_window_ms", Value::from(plain.window_ms())),
        ("traced_window_ms", Value::from(traced.window_ms())),
        ("warmup_s", Value::from(e.warmup_s)),
    ]);
    Outcome {
        attempted,
        failed,
        correct: failed == 0 && transparent,
        metrics: table(&PER_LAYER, &values),
        summary,
        log,
    }
}

fn static_untraced(spec: &StaticSpec, seed: u64, seconds: f64) -> Outcome {
    let n = repeats(seconds, spec.nominal_cycle_s);
    let cycles: Vec<Cycle> = (0..n)
        .map(|i| paper_static::run_cycle::<false>(spec, world_seed(seed, i)))
        .collect();
    let mut log = Vec::new();
    let mut failed = 0;
    for (i, c) in cycles.iter().enumerate() {
        failed += c.failed;
        if let Some(why) = &c.first_failure {
            log.push(format!("cycle {i}: {why}"));
        }
    }
    let attempted: u64 = cycles.iter().map(|c| c.results.len() as u64).sum();
    let times: Vec<f64> = cycles.iter().flat_map(|c| c.topo_ms.clone()).collect();
    let setups: Vec<f64> = cycles.iter().map(|c| c.setup_s).collect();
    let op_ms_mean = times.iter().sum::<f64>() / times.len() as f64;
    let topology_p90 = quantile(&times, 0.9).unwrap_or(0.0);
    let setup_s = median(&setups).unwrap_or(0.0);
    let values = BTreeMap::from([
        ("setup_s", setup_s),
        ("op_ms_mean", op_ms_mean),
        ("peak_rss_mib", host::peak_rss_mib()),
    ]);
    let results: Vec<&paper_static::Evaluated> = cycles.iter().flat_map(|c| &c.results).collect();
    let nodes: usize = results.iter().map(|r| r.nodes).sum();
    let mean_ans =
        |k: usize| results.iter().map(|r| r.ans_sizes[k]).sum::<u64>() as f64 / nodes.max(1) as f64;
    let routed = |k: usize| results.iter().filter(|r| r.routes[k].is_some()).count();
    log.push(format!(
        "{n} cycles x {} topologies: {op_ms_mean:.1} ms per topology, p90 {topology_p90:.1} ms \
         ({} samples), set-up {setup_s:.4} s; mean advertised set MPR-2 {:.2} / TF {:.2} / FNBP \
         {:.2}",
        spec.densities.len(),
        times.len(),
        mean_ans(0),
        mean_ans(1),
        mean_ans(2),
    ));
    let per_selector = |f: &dyn Fn(usize) -> Value| {
        Value::obj([
            ("qolsr_mpr2", f(0)),
            ("topology_filtering", f(1)),
            ("fnbp", f(2)),
        ])
    };
    let summary = Value::obj([
        ("cycles", Value::from(n)),
        ("ops", Value::from(attempted)),
        ("ops_failed", Value::from(failed)),
        ("ms_per_topology", Value::from(op_ms_mean)),
        ("topology_ms_p90", Value::from(topology_p90)),
        ("topology_samples", Value::from(times.len())),
        (
            "topologies_beyond_p90",
            Value::from(beyond(times.len(), 0.9)),
        ),
        (
            "cycle_setup_s",
            Value::Arr(setups.iter().map(|&s| Value::from(s)).collect()),
        ),
        (
            "cycle_ms_per_topology",
            Value::Arr(
                cycles
                    .iter()
                    .map(|c| Value::from(c.ms_per_topology()))
                    .collect(),
            ),
        ),
        ("nodes", Value::from(nodes)),
        ("mean_ans_size", per_selector(&|k| Value::from(mean_ans(k)))),
        ("routed_pairs", per_selector(&|k| Value::from(routed(k)))),
    ]);
    Outcome {
        attempted,
        failed,
        correct: failed == 0,
        metrics: table(&END_TO_END, &values),
        summary,
        log,
    }
}

fn static_traced(spec: &StaticSpec, seed: u64) -> Outcome {
    let plain = paper_static::run_cycle::<false>(spec, world_seed(seed, 0));
    trace::reset();
    let traced = paper_static::run_cycle::<true>(spec, world_seed(seed, 0));
    let transparent = plain.results == traced.results;
    let mut log = Vec::new();
    for (which, c) in [("untraced", &plain), ("traced", &traced)] {
        if let Some(why) = &c.first_failure {
            log.push(format!("{which}: {why}"));
        }
    }
    if !transparent {
        log.push("traced results differ from untraced ones".to_owned());
    }
    let ops = plain.results.len() as u64;
    let attempted = 2 * ops;
    let failed = plain.failed + traced.failed + if transparent { 0 } else { ops };
    let total = |c: &Cycle| c.topo_ms.iter().sum::<f64>();
    let overhead = total(&traced) / total(&plain);
    let t = trace::totals;
    let values = BTreeMap::from([
        (
            "core.selector.qolsr_mpr2.select_ms",
            t(Span::SelectMpr2).incl_ms(),
        ),
        (
            "core.selector.topology_filtering.select_ms",
            t(Span::SelectTf).incl_ms(),
        ),
        (
            "core.selector.fnbp.select_ms",
            t(Span::SelectFnbp).incl_ms(),
        ),
        ("graph.view.extract_ms", t(Span::ViewExtract).incl_ms()),
        ("core.routing.route_ms", t(Span::Route).incl_ms()),
        ("core.routing.optimal_ms", t(Span::Optimal).incl_ms()),
        ("graph.deploy_ms", traced.deploy_ms),
        ("bench.trace_overhead", overhead),
    ]);
    log.push(format!(
        "traced cycle {:.1} ms vs untraced {:.1} ms (overhead x{overhead:.3}); selectors \
         MPR-2 {:.1} / TF {:.1} / FNBP {:.1} ms; results {}",
        total(&traced),
        total(&plain),
        t(Span::SelectMpr2).incl_ms(),
        t(Span::SelectTf).incl_ms(),
        t(Span::SelectFnbp).incl_ms(),
        if transparent { "identical" } else { "DIFFER" },
    ));
    let summary = Value::obj([
        ("ops", Value::from(attempted)),
        ("ops_failed", Value::from(failed)),
        ("transparent", Value::from(transparent)),
        ("untraced_ms", Value::from(total(&plain))),
        ("traced_ms", Value::from(total(&traced))),
    ]);
    Outcome {
        attempted,
        failed,
        correct: failed == 0 && transparent,
        metrics: table(&PER_LAYER, &values),
        summary,
        log,
    }
}
