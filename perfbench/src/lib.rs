//! Outside-in benchmark of the qolsr-rs workspace.
//!
//! Three workloads drive the public APIs of `qolsr-graph`, `qolsr-sim`,
//! `qolsr-proto` and `qolsr` with inputs generated from a seed:
//!
//! * `flood` — the live HELLO/TC protocol at n = 1000 on a static world
//!   ([`live::LiveSpec::flood`]);
//! * `mobile` — the `figures traffic` recipe at n = 250 with mobility,
//!   churn, drift, a crash storm, a lossy channel and 16 flows
//!   ([`live::LiveSpec::mobile`]);
//! * `paper_static` — the paper's offline selector evaluation
//!   ([`paper_static::StaticSpec::paper`]).
//!
//! [`bench::run`] measures one workload untraced (the end-to-end
//! metrics) or runs it untraced and traced and checks both end in the
//! same exact counters (the per-layer metrics).

pub mod bench;
pub mod host;
pub mod json;
pub mod live;
pub mod paper_static;
pub mod seed;
pub mod stats;
pub mod trace;
