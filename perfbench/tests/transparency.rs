//! The traced run must not change what the program computes: at small
//! n, the traced episode of each live workload ends in exactly the
//! counters of the untraced one, and so does the traced static cycle.

mod common;

use qolsr_perfbench::live::{run_traced, run_untraced, LiveSpec};
use qolsr_perfbench::paper_static::run_cycle;

fn assert_transparent(spec: &LiveSpec, seed: u64) {
    let plain = run_untraced(spec, seed);
    let traced = run_traced(spec, seed);
    assert_eq!(plain.failed, 0, "{:?}", plain.first_failure);
    assert_eq!(traced.failed, 0, "{:?}", traced.first_failure);
    assert_eq!(plain.start, traced.start, "counters at window start differ");
    assert_eq!(plain.end, traced.end, "counters at window end differ");
    assert!(plain.end.engine.events > plain.start.engine.events);
}

#[test]
fn traced_flood_matches_untraced() {
    assert_transparent(&common::tiny_flood(), 7);
}

#[test]
fn traced_mobile_matches_untraced() {
    let spec = common::tiny_mobile();
    assert_transparent(&spec, 11);
    // The tiny mobile window really exercises the data plane and the
    // world dynamics.
    let ep = run_untraced(&spec, 11);
    assert!(ep.end.traffic.injected > 0);
    assert!(ep.end.engine.world_changes > ep.start.engine.world_changes);
}

#[test]
fn traced_static_cycle_matches_untraced() {
    let spec = common::tiny_static();
    let plain = run_cycle::<false>(&spec, 3);
    let traced = run_cycle::<true>(&spec, 3);
    assert_eq!(plain.failed, 0, "{:?}", plain.first_failure);
    assert_eq!(plain.results, traced.results);
}
