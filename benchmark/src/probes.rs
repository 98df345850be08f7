//! Layer probes of the traced run: the unit cost of each layer's hot
//! operation, timed from outside with the same procedure on every
//! workload, so a change to one layer shows in its own number whichever
//! workload's traced run reports it.

use crate::fig::{self, Plan, MTTF1Y_LABEL};
use crate::serve::job_state;
use crate::trace::Tracer;
use crate::{median, scratch_dir, Gen, Report};
use ckpt_bench::args::RunOptions;
use ckpt_bench::figures;
use ckpt_core::san_model::CheckpointSan;
use ckpt_core::EngineKind;
use ckpt_des::{EventQueue, SimRng, SimTime};
use ckpt_harness::{atomic_write, ExperimentSpec};
use ckpt_stats::dist::sample_max_exponential;
use ckpt_svc::{Client, JobStore, Scheduler, Server, Tuning};
use std::hint::black_box;
use std::time::Instant;

/// Median over three batches of the per-call time of `f`, in seconds.
fn per_call(calls: usize, mut f: impl FnMut()) -> f64 {
    let mut batches = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        batches.push(t.elapsed().as_secs_f64() / calls as f64);
    }
    median(&batches)
}

/// Median of single-call times of the fallible `f`, in seconds.
fn median_call<T>(calls: usize, mut f: impl FnMut() -> Result<T, String>) -> Result<f64, String> {
    let mut times = Vec::with_capacity(calls);
    for _ in 0..calls {
        let t = Instant::now();
        black_box(f()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&times))
}

/// `EventQueue` schedule/reschedule/cancel/pop mix at the model's ~10
/// pending events; nanoseconds per queue operation.
fn queue_ns_per_op(seed: u64) -> f64 {
    const PENDING: usize = 10;
    const ROUNDS: usize = 200_000;
    let mut g = Gen::new(seed, 11);
    let delays: Vec<SimTime> = (0..1024)
        .map(|_| SimTime::from_secs(1.0 + 3600.0 * g.unit()))
        .collect();
    let mut ops = 0usize;
    let secs = per_call(1, || {
        let mut q: EventQueue<usize> = EventQueue::new();
        let mut ids: Vec<_> = (0..PENDING).map(|k| q.schedule(delays[k], k)).collect();
        let mut d = 0usize;
        let mut next = || {
            d = (d + 1) % delays.len();
            delays[d]
        };
        ops = 0;
        for round in 0..ROUNDS {
            let ev = q.pop().expect("queue holds PENDING events");
            let now = ev.time();
            let k = ev.into_payload();
            ids[k] = q.schedule(now + next(), k);
            let j = (k + 1 + round % (PENDING - 1)) % PENDING;
            q.reschedule(ids[j], now + next());
            ops += 3;
            if round % 4 == 0 {
                let j = (j + 1) % PENDING;
                if j != k {
                    q.cancel(ids[j]);
                    ids[j] = q.schedule(now + next(), j);
                    ops += 2;
                }
            }
        }
        black_box(q.len());
    });
    secs * 1e9 / ops as f64
}

/// Status poll interval of the service probe's cold jobs.
const PROBE_POLL: std::time::Duration = std::time::Duration::from_millis(1);

/// A small cold job for the service probe.
fn probe_spec(seed: u64, k: u64) -> Result<ExperimentSpec, String> {
    let config = figures::fig4a().cells[0].config.clone();
    ExperimentSpec::builder(config)
        .engine(EngineKind::Direct)
        .transient(SimTime::from_hours(100.0))
        .horizon(SimTime::from_hours(1_000.0))
        .replications(1)
        .seed(seed.wrapping_add(k))
        .jobs(1)
        .build()
        .map_err(|e| format!("probe spec: {e}"))
}

/// The service probe: an in-process server over a fresh store, a few
/// cold jobs, then repeated cache-hit calls on one of them.
fn svc(report: &mut Report, seed: u64) -> Result<(), String> {
    const COLD: u64 = 5;
    const CALLS: usize = 200;
    let dir = scratch_dir("probe-store")?;
    let store = JobStore::open(&dir).map_err(|e| e.to_string())?;
    let server = Server::bind(
        "127.0.0.1:0",
        Scheduler::new(
            store,
            Tuning {
                workers: 1,
                ..Tuning::default()
            },
        ),
    )
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
    let sched = server.scheduler();
    // `Server::run` accepts until the process exits; the thread is
    // detached and ends with the process.
    std::thread::spawn(move || server.run());
    let client = Client::new(&addr, "probe");
    client.healthz().map_err(|e| e.to_string())?;

    let mut waits = Vec::new();
    let mut body = String::new();
    for k in 0..COLD {
        let spec = probe_spec(seed, k)?;
        let reply = client.submit(&spec.to_json()).map_err(|e| e.to_string())?;
        let submitted = Instant::now();
        let mut queued = true;
        loop {
            let state = job_state(&client.status(&reply.id).map_err(|e| e.to_string())?);
            if queued && state != "queued" {
                waits.push(submitted.elapsed().as_secs_f64());
                queued = false;
            }
            match state.as_str() {
                "done" => break,
                "failed" => return Err(format!("probe job {} failed", reply.id)),
                _ => std::thread::sleep(PROBE_POLL),
            }
        }
        body = client
            .result(&reply.id)
            .map_err(|e| e.to_string())?
            .ok_or("probe result missing")?;
    }
    let spec = probe_spec(seed, 0)?;
    let json = spec.to_json();
    let fingerprint = spec.fingerprint();
    let id = format!("{fingerprint:016x}");
    let err = |e: ckpt_harness::CkptError| e.to_string();
    let rtt = median_call(CALLS, || client.healthz().map_err(err))?;
    let submit = median_call(CALLS, || client.submit(&json).map_err(err))?;
    let result = median_call(CALLS, || client.result(&id).map_err(err))?;
    let sched_hit = median_call(CALLS, || sched.submit("probe", &spec).map_err(err))?;
    let lookup = median_call(CALLS, || sched.store().lookup(fingerprint).map_err(err))?;
    let target = dir.join("persist-probe.json");
    let persist = median_call(30, || {
        atomic_write(&target, &body).map_err(|e| e.to_string())
    })?;
    let _ = std::fs::remove_dir_all(&dir);

    report.metric("svc.http_rtt_us", rtt * 1e6, "us");
    report.metric("svc.submit_us", submit * 1e6, "us");
    report.metric("svc.result_us", result * 1e6, "us");
    report.metric("svc.sched_hit_us", sched_hit * 1e6, "us");
    report.metric("svc.store_lookup_us", lookup * 1e6, "us");
    report.metric("svc.queue_wait_ms", median(&waits) * 1e3, "ms");
    report.metric("harness.persist_ms", persist * 1e3, "ms");
    Ok(())
}

/// The SAN engine on fig4a's MTTF = 1 y row, one replication per cell:
/// the cells of `fig4a-direct`'s 1 y curve, checked against the paper's
/// curve like them.
fn san_row(seed: u64, report: &mut Report) -> Result<fig::EngineRun, String> {
    let opts = RunOptions {
        engine: EngineKind::San,
        reps: 1,
        seed: Gen::new(seed, 12).next_u64() >> 16,
        jobs: 1,
        ..RunOptions::default()
    };
    let plan = Plan::new(vec![MTTF1Y_LABEL.to_string()], fig::mttf1y_row()?, opts)?;
    let run = fig::traced_pass(&plan, &mut Tracer::new(false), report)?;
    report.metric("core.san.ns_per_event", run.ns_per_event(), "ns");
    report.metric(
        "core.san.events_per_1000h",
        run.events as f64 / (plan.sim_hours / 1000.0),
        "count",
    );
    Ok(run)
}

/// Runs every probe and appends its per-layer metric to `report`.
pub fn run(report: &mut Report, seed: u64) -> Result<(), String> {
    report.metric("des.queue.ns_per_op", queue_ns_per_op(seed), "ns");

    let mut rng = SimRng::seed_from_u64(seed);
    let rng_secs = per_call(1_000_000, || {
        black_box(rng.exponential(black_box(1.5)));
    });
    report.metric("des.rng.ns_per_draw", rng_secs * 1e9, "ns");

    let rate = 1.0 / SimTime::from_years(1.0).as_secs();
    let max_secs = per_call(500_000, || {
        black_box(sample_max_exponential(black_box(65_536), rate, &mut rng));
    });
    report.metric("stats.max_exp.ns_per_draw", max_secs * 1e9, "ns");

    let spec = probe_spec(seed, 0)?;
    let json = spec.to_json();
    let parse = per_call(2_000, || {
        black_box(ExperimentSpec::from_json(black_box(&json)).expect("own spec JSON parses"));
    });
    let fingerprint = per_call(2_000, || {
        black_box(black_box(&spec).fingerprint());
    });
    report.metric("harness.spec_parse_us", parse * 1e6, "us");
    report.metric("harness.fingerprint_us", fingerprint * 1e6, "us");

    san_row(seed, report)?;
    let row = fig::mttf1y_row()?;
    let mut builds = Vec::new();
    for _ in 0..3 {
        for cell in &row {
            let t = Instant::now();
            black_box(CheckpointSan::build(&cell.config).map_err(|e| e.to_string())?);
            builds.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    report.metric("core.san.build_ms", median(&builds), "ms");

    svc(report, seed)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn san_counts_repeat_exactly_at_a_fixed_seed() {
        let counts = || {
            let run = san_row(3, &mut Report::default()).unwrap();
            (run.events, run.faults)
        };
        let a = counts();
        assert!(a.0 > 0);
        assert_eq!(a, counts());
    }
}
