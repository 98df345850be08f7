//! Head-to-head of the SAN executor's two scheduling strategies — the
//! incremental place→activity dependency scheduler against the O(A)
//! full-scan reference — on the Figure 4 point (65536 processors,
//! Table 3 defaults). Written to `BENCH_engines.json`.
//!
//! The two schedulers consume the same RNG stream in the same order, so
//! every replication must return **bit-identical** metrics; the binary
//! asserts this (making it double as an equivalence smoke test — CI
//! runs it with `--quick`) and reports events/sec and ns/event for
//! each, with per-replication profiles recorded through the standard
//! [`RunManifest`] provenance machinery.
//!
//! Flags: see `ckpt_bench::args` (`--quick` shrinks the run for a smoke
//! pass; `--seed`, `--hours`, `--transient`, `--reps`, `--warmup` carry
//! through — warm-up replications run and are discarded before each
//! engine's timed loop, so cold-start effects stay out of the numbers).
//! Additionally `--baseline-eps <events/sec>` records a pre-PR full-scan
//! baseline measurement (produced by `scripts/bench_baseline.sh`, which
//! builds the parent commit in a throwaway worktree and runs the same
//! workload) so the emitted JSON carries the before/after comparison,
//! and `--phases` writes the per-engine hot-phase breakdown to
//! `BENCH_phases.json` (requires a build with `--features prof`; a
//! profiled build inflates wall time, so use `--phases` for *where the
//! time goes* and a plain build for the headline events/sec).
//! `--reactivation` selects the execution mode under test; the
//! bit-identity assertion between the two schedulers holds in every
//! mode (lazy elides the same redraws on both paths).

use ckpt_bench::RunOptions;
use ckpt_core::san_model::{CheckpointSan, RunOptions as SanRunOptions};
use ckpt_core::{Metrics, SystemConfig};
use ckpt_des::prof::PhaseProfile;
use ckpt_obs::{phases_json, RunManifest, RunProfile};
use ckpt_san::Scheduling;
use std::time::Instant;

struct EngineRun {
    name: &'static str,
    metrics: Vec<Metrics>,
    profiles: Vec<RunProfile>,
    phases: PhaseProfile,
    wall_secs: f64,
    events: u64,
}

fn run_engine(
    model: &CheckpointSan,
    opts: &RunOptions,
    scheduling: Scheduling,
    name: &'static str,
) -> EngineRun {
    let run_opts = |seed: u64| SanRunOptions {
        seed,
        transient: opts.transient,
        horizon: opts.horizon,
        scheduling,
        reactivation: opts.exec.reactivation,
    };
    // Warm-up: same workload, results discarded, nothing timed yet.
    for w in 0..u64::from(opts.warmup) {
        model
            .run(&run_opts(opts.seed + w))
            .expect("warm-up replication failed");
    }
    let mut metrics = Vec::with_capacity(opts.reps as usize);
    let mut profiles = Vec::with_capacity(opts.reps as usize);
    let mut phases = PhaseProfile::default();
    let mut events = 0u64;
    let start = Instant::now();
    for k in 0..u64::from(opts.reps) {
        let rep_start = Instant::now();
        let outcome = model
            .run(&run_opts(opts.seed + k))
            .expect("benchmark replication failed");
        let (m, ev) = (outcome.metrics, outcome.events);
        profiles.push(RunProfile {
            wall_secs: rep_start.elapsed().as_secs_f64(),
            events: ev,
        });
        phases.merge(&outcome.phases);
        metrics.push(m);
        events += ev;
    }
    EngineRun {
        name,
        metrics,
        profiles,
        phases,
        wall_secs: start.elapsed().as_secs_f64(),
        events,
    }
}

fn main() {
    // Peel off the flag specific to this binary before handing the rest
    // to the shared option parser (which rejects unknown flags).
    let mut baseline_eps: Option<f64> = None;
    let mut emit_phases = false;
    let mut rest = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--baseline-eps" {
            let v = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("--baseline-eps expects a number (events/sec)");
                std::process::exit(2);
            });
            baseline_eps = Some(v);
        } else if arg == "--phases" {
            emit_phases = true;
        } else {
            rest.push(arg);
        }
    }
    if emit_phases && !ckpt_des::prof::ENABLED {
        eprintln!(
            "--phases needs the hot-phase profiler compiled in; rebuild with\n  \
             cargo run -p ckpt-bench --release --features prof --bin bench_engines -- --phases"
        );
        std::process::exit(2);
    }
    let opts = match RunOptions::parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    // The Figure 4 reference point: 65536 processors at Table 3 defaults.
    let cfg = SystemConfig::builder()
        .processors(65_536)
        .build()
        .expect("valid benchmark config");
    let model = CheckpointSan::build(&cfg).expect("model builds");
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let full = run_engine(&model, &opts, Scheduling::FullScan, "full_scan");
    let inc = run_engine(&model, &opts, Scheduling::Incremental, "incremental");

    assert_eq!(
        full.events, inc.events,
        "schedulers processed different event counts"
    );
    let identical = full.metrics == inc.metrics;
    assert!(
        identical,
        "scheduler metrics diverged — bit-identity broken"
    );

    let mut runs = String::new();
    for r in [&full, &inc] {
        let events_per_sec = r.events as f64 / r.wall_secs.max(1e-9);
        let ns_per_event = r.wall_secs * 1e9 / (r.events.max(1)) as f64;
        eprintln!(
            "{}: {:.2} s wall, {:.0} events/s, {:.0} ns/event",
            r.name, r.wall_secs, events_per_sec, ns_per_event
        );
        let manifest = RunManifest {
            tool: "ckptsim".into(),
            version: env!("CARGO_PKG_VERSION").into(),
            engine: format!("san/{}", r.name),
            estimation: "replications".into(),
            base_seed: opts.seed,
            transient_hours: opts.transient.as_hours(),
            horizon_hours: opts.horizon.as_hours(),
            replications: opts.reps as usize,
            faults: 0,
            jobs: 1,
            host_parallelism: host,
            warmup: opts.warmup,
            policy: "fixed".into(),
            config: vec![("processors".into(), "65536".into())],
            profiles: r.profiles.clone(),
        };
        if !runs.is_empty() {
            runs.push(',');
        }
        // Indent the embedded manifest to keep the file readable.
        let manifest = manifest.to_json().trim_end().replace('\n', "\n      ");
        runs.push_str(&format!(
            "\n    {{\"scheduler\": \"{}\", \"wall_secs\": {:.3}, \
             \"events\": {}, \"events_per_sec\": {:.0}, \
             \"ns_per_event\": {:.1},\n      \"manifest\": {manifest}}}",
            r.name, r.wall_secs, r.events, events_per_sec, ns_per_event
        ));
    }

    let speedup = full.wall_secs / inc.wall_secs.max(1e-9);
    // The in-binary full scan is NOT the pre-PR baseline: it already
    // shares the slab queue, impulse map, and scratch buffers with the
    // incremental engine. The true "before" number comes from
    // scripts/bench_baseline.sh, which benchmarks the parent commit's
    // executor (HashSet-probed queue, per-firing allocations) on the
    // same workload and feeds it back via --baseline-eps.
    let baseline = baseline_eps.map_or(String::new(), |eps| {
        let inc_eps = inc.events as f64 / inc.wall_secs.max(1e-9);
        format!(
            "\n  \"pre_pr_baseline_events_per_sec\": {eps:.0},\n  \
             \"pre_pr_baseline_source\": \"scripts/bench_baseline.sh \
             (parent commit, same workload, same host)\",\n  \
             \"speedup_incremental_vs_pre_pr_baseline\": {:.2},",
            inc_eps / eps.max(1e-9)
        )
    });
    let json = format!(
        "{{\n  \"benchmark\": \"SAN scheduler comparison, fig4 point \
         (65536 processors, Table 3 defaults)\",\n  \
         \"replications\": {},\n  \
         \"transient_hours\": {:.0},\n  \
         \"horizon_hours\": {:.0},\n  \
         \"seed\": {},\n  \
         \"host_parallelism\": {host},\n  \
         \"telemetry_probes\": {},\n  \
         \"reactivation\": \"{}\",\n  \
         \"runs\": [{runs}\n  ],\n  \
         \"speedup_incremental_vs_full_scan\": {speedup:.2},{baseline}\n  \
         \"identical_results\": {identical},\n  \
         \"note\": \"both schedulers draw the same RNG stream in the same \
         order; metrics are asserted bit-identical, so only wall time may \
         differ\"\n}}\n",
        opts.reps,
        opts.transient.as_hours(),
        opts.horizon.as_hours(),
        opts.seed,
        ckpt_des::telem::ENABLED,
        opts.exec.reactivation.name(),
    );
    std::fs::write("BENCH_engines.json", &json).expect("write BENCH_engines.json");
    println!("{json}");

    if emit_phases {
        let mut out = String::from("[\n");
        for (i, r) in [&full, &inc].into_iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let label = format!("fig4-65536-{}", r.name);
            out.push_str(phases_json(&label, &r.phases, r.wall_secs, r.events).trim_end());
        }
        out.push_str("\n]\n");
        std::fs::write("BENCH_phases.json", &out).expect("write BENCH_phases.json");
        eprintln!("phase breakdown written to BENCH_phases.json");
    }
}
