//! The hot-loop benchmark behind `BENCH_hotloop.json`: before/after
//! events/sec for the profile-guided kernel optimizations on the
//! Figure 4 reference point (65536 processors, Table 3 defaults).
//!
//! Legs, all on the same workload:
//!
//! 1. `incremental_inverse_cdf` — the default configuration (eager
//!    `Resample` reactivation). Bit-identical to the pre-optimization
//!    RNG stream by construction.
//! 2. `full_scan_inverse_cdf` — the O(A) reference scheduler on the
//!    same stream; its metrics are asserted bit-identical to leg 1
//!    (the benchmark doubles as an equivalence check).
//! 3. `lazy_heap` — lazy reactivation (memoryless exponential timers
//!    survive marking changes without a redraw); distribution-
//!    equivalent to the oracle with a shorter RNG stream.
//!
//! The `gate_*_quick` legs run the `--quick` workload once per mode;
//! `scripts/bench_gate.sh` compares fresh `--quick` measurements
//! against the committed values and fails CI on a >15 % events/sec
//! regression in any mode.
//!
//! Extra flags on top of `ckpt_bench::args`:
//!
//! * `--pr4-baseline-eps N` — the pre-optimization incremental
//!   events/sec (from the previous PR's `BENCH_engines.json`, same
//!   workload, same host) used for the before/after speedups.
//!
//! Phase attribution lives in the separate `BENCH_phases.json` artifact
//! (written by a `--features prof` build of `bench_engines --phases`;
//! profiled builds inflate wall time, so phases and headline numbers
//! come from separate builds). This file only *references* it via
//! `phases_file` — earlier revisions embedded a copy, which let the two
//! drift apart.

use ckpt_bench::RunOptions;
use ckpt_core::san_model::{CheckpointSan, RunOptions as SanRunOptions};
use ckpt_core::{Metrics, ReactivationMode, SystemConfig};
use ckpt_des::SimTime;
use ckpt_san::Scheduling;
use std::time::Instant;

/// Incremental events/sec on this workload at the previous PR's tip
/// (BENCH_engines.json, fig4 65536 processors, same container class).
const DEFAULT_PR4_BASELINE_EPS: f64 = 3_965_698.0;

#[derive(Clone, Copy)]
struct Mode {
    scheduling: Scheduling,
    reactivation: ReactivationMode,
}

impl Mode {
    fn default_path() -> Mode {
        Mode {
            scheduling: Scheduling::Incremental,
            reactivation: ReactivationMode::Resample,
        }
    }
}

struct Leg {
    name: &'static str,
    mode: Mode,
    metrics: Vec<Metrics>,
    rep_eps: Vec<f64>,
    wall_secs: f64,
    events: u64,
}

impl Leg {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs.max(1e-9)
    }

    fn ns_per_event(&self) -> f64 {
        self.wall_secs * 1e9 / (self.events.max(1)) as f64
    }
}

fn run_leg(model: &CheckpointSan, opts: &RunOptions, mode: Mode, name: &'static str) -> Leg {
    let run_opts = |seed: u64| SanRunOptions {
        seed,
        transient: opts.transient,
        horizon: opts.horizon,
        scheduling: mode.scheduling,
        reactivation: mode.reactivation,
    };
    for w in 0..u64::from(opts.warmup) {
        model
            .run(&run_opts(opts.seed + w))
            .expect("warm-up replication failed");
    }
    let mut metrics = Vec::with_capacity(opts.reps as usize);
    let mut rep_eps = Vec::with_capacity(opts.reps as usize);
    let mut events = 0u64;
    let start = Instant::now();
    for k in 0..u64::from(opts.reps) {
        let rep_start = Instant::now();
        let outcome = model
            .run(&run_opts(opts.seed + k))
            .expect("benchmark replication failed");
        let secs = rep_start.elapsed().as_secs_f64();
        rep_eps.push(outcome.events as f64 / secs.max(1e-9));
        metrics.push(outcome.metrics);
        events += outcome.events;
    }
    Leg {
        name,
        mode,
        metrics,
        rep_eps,
        wall_secs: start.elapsed().as_secs_f64(),
        events,
    }
}

fn leg_json(leg: &Leg) -> String {
    let reps = leg
        .rep_eps
        .iter()
        .map(|e| format!("{e:.0}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "\n    {{\"leg\": \"{}\", \"reactivation\": \"{}\", \
         \"wall_secs\": {:.3}, \"events\": {}, \
         \"events_per_sec\": {:.0}, \"ns_per_event\": {:.1}, \
         \"rep_events_per_sec\": [{reps}]}}",
        leg.name,
        leg.mode.reactivation.name(),
        leg.wall_secs,
        leg.events,
        leg.events_per_sec(),
        leg.ns_per_event(),
    )
}

fn gate_json(leg: &Leg) -> String {
    format!(
        "\n    {{\"leg\": \"{}\", \"reactivation\": \"{}\", \
         \"events_per_sec\": {:.0}, \"ns_per_event\": {:.1}, \
         \"max_regression_pct\": 15}}",
        leg.name,
        leg.mode.reactivation.name(),
        leg.events_per_sec(),
        leg.ns_per_event(),
    )
}

fn main() {
    let mut pr4_baseline_eps = DEFAULT_PR4_BASELINE_EPS;
    let mut rest = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--pr4-baseline-eps" {
            pr4_baseline_eps = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("--pr4-baseline-eps expects a number (events/sec)");
                std::process::exit(2);
            });
        } else {
            rest.push(arg);
        }
    }
    let opts = match RunOptions::parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let cfg = SystemConfig::builder()
        .processors(65_536)
        .build()
        .expect("valid benchmark config");
    let model = CheckpointSan::build(&cfg).expect("model builds");
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let base = Mode::default_path();
    let inv = run_leg(&model, &opts, base, "incremental_inverse_cdf");
    let full = run_leg(
        &model,
        &opts,
        Mode {
            scheduling: Scheduling::FullScan,
            ..base
        },
        "full_scan_inverse_cdf",
    );
    assert_eq!(
        inv.metrics, full.metrics,
        "schedulers diverged on the inverse-CDF stream — bit-identity broken"
    );
    let lazy_heap = run_leg(
        &model,
        &opts,
        Mode {
            reactivation: ReactivationMode::Lazy,
            ..base
        },
        "lazy_heap",
    );

    // Gate references: the fast smoke workload bench_gate.sh re-measures
    // on every PR, once per mode combination CI exercises.
    let quick_opts = RunOptions {
        reps: 2,
        horizon: SimTime::from_hours(2_000.0),
        transient: SimTime::from_hours(200.0),
        warmup: 1,
        ..opts.clone()
    };
    let gate = run_leg(&model, &quick_opts, base, "gate_reference_quick");
    let gate_modes = [run_leg(
        &model,
        &quick_opts,
        Mode {
            reactivation: ReactivationMode::Lazy,
            ..base
        },
        "gate_lazy_heap_quick",
    )];

    let mut all: Vec<&Leg> = vec![&inv, &full, &lazy_heap, &gate];
    all.extend(gate_modes.iter());
    for leg in &all {
        eprintln!(
            "{}: {:.2} s wall, {:.0} events/s, {:.1} ns/event",
            leg.name,
            leg.wall_secs,
            leg.events_per_sec(),
            leg.ns_per_event()
        );
    }

    let legs = [&inv, &full, &lazy_heap]
        .into_iter()
        .map(leg_json)
        .collect::<Vec<_>>()
        .join(",");
    let gates = gate_modes
        .iter()
        .map(gate_json)
        .collect::<Vec<_>>()
        .join(",");
    let json = format!(
        "{{\n  \"benchmark\": \"hot-loop kernels, fig4 point (65536 processors, \
         Table 3 defaults)\",\n  \
         \"replications\": {},\n  \
         \"transient_hours\": {:.0},\n  \
         \"horizon_hours\": {:.0},\n  \
         \"seed\": {},\n  \
         \"warmup\": {},\n  \
         \"host_parallelism\": {host},\n  \
         \"legs\": [{legs}\n  ],\n  \
         \"pr4_baseline_events_per_sec\": {pr4_baseline_eps:.0},\n  \
         \"pr4_baseline_source\": \"previous PR's BENCH_engines.json, incremental \
         scheduler, same workload and host class\",\n  \
         \"speedup_inverse_cdf_vs_pr4\": {:.2},\n  \
         \"identical_metrics_inverse_cdf\": true,\n  \
         \"gate\": {{\"leg\": \"gate_reference_quick\", \
         \"events_per_sec\": {:.0}, \"ns_per_event\": {:.1}, \
         \"max_regression_pct\": 15}},\n  \
         \"gate_modes\": [{gates}\n  ],\n  \
         \"note\": \"InverseCdf preserves the exact pre-optimization RNG stream \
         (metrics bit-identical across schedulers, asserted); lazy reactivation is \
         distribution-equivalent, validated by KS/moment and CI-overlap tests\",\n  \
         \"phases_file\": \"BENCH_phases.json\"\n}}\n",
        opts.reps,
        opts.transient.as_hours(),
        opts.horizon.as_hours(),
        opts.seed,
        opts.warmup,
        inv.events_per_sec() / pr4_baseline_eps.max(1e-9),
        gate.events_per_sec(),
        gate.ns_per_event(),
    );
    std::fs::write("BENCH_hotloop.json", &json).expect("write BENCH_hotloop.json");
    println!("{json}");
}
