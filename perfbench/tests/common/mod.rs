//! Tiny versions of the three workloads, fast enough for `cargo test`.

use qolsr_perfbench::live::{LiveSpec, Warmup};
use qolsr_perfbench::paper_static::StaticSpec;
use qolsr_sim::SimDuration;

/// `flood` at n = 80 with a 20-slice window.
pub fn tiny_flood() -> LiveSpec {
    LiveSpec {
        nodes: 80,
        probes: 16,
        window_slices: 20,
        ..LiveSpec::flood()
    }
}

/// `mobile` at n = 60: 5 s warm-up, 10 s of traffic from 4 flows.
pub fn tiny_mobile() -> LiveSpec {
    LiveSpec {
        nodes: 60,
        warmup: Warmup::Fixed(SimDuration::from_secs(5)),
        flows: 4,
        probes: 8,
        window_slices: 100,
        ..LiveSpec::mobile()
    }
}

/// `paper_static` on a 300 × 300 field at two densities.
pub fn tiny_static() -> StaticSpec {
    StaticSpec {
        densities: vec![6.0, 12.0],
        field: (300.0, 300.0),
        ..StaticSpec::paper()
    }
}
