//! The `serve-mixed` workload: one closed-loop client against an
//! in-process `ckpt_svc::Server` (one scheduler worker, a job store on
//! the real filesystem), sending a seeded mix of four cache hits per
//! cold job.
//!
//! * The seed picks 96 distinct Direct-engine configs, 16 per processor
//!   count of the paper's axis, with MTTF, checkpoint interval and
//!   coordination (`fixed`, `exp`, `maxofn`, each with and without an
//!   80 s timeout) drawn without replacement. Jobs are 2 replications
//!   of a 500 h transient plus a 5000 h horizon.
//! * A pass sends 480 requests in a seeded order to a fresh server over
//!   a fresh store: each config once as a cold job and 384 hits on
//!   finished jobs, skewed towards the first finished. Every pass of a
//!   run sends the same requests.
//! * The mix is an assumption, not measured traffic: the repository
//!   holds no record of how the service is used. Four hits per cold job
//!   makes 80% of requests hits, so most requests hit the cache; a hit
//!   picks the finished job at rank `u * u` for uniform `u`, so half of
//!   the hits go to the first quarter of the finished jobs, a few
//!   popular specs asked for again and again. The mix decides how the
//!   CPU per pass splits between `svc`/`harness` and `core`.
//! * A hit makes the calls `ckptsim submit --wait` makes for a cached
//!   spec: submit, status, result. A cold request runs from submit
//!   until the result bytes arrive: submit, an in-process
//!   `Scheduler::wait` for the job, then status and result.

use crate::fig::{self, Plan, NET_PROGRESS_FLOOR};
use crate::trace::{SpanId, Tracer};
use crate::{median, quantile, scratch_dir, Args, Gen, Report, SETUP_REPEATS};
use ckpt_bench::args::RunOptions;
use ckpt_bench::figures::{INTERVAL_AXIS_MIN, PROC_AXIS};
use ckpt_bench::sweep::{self, Cell};
use ckpt_core::config::CoordinationMode;
use ckpt_core::{EngineKind, SystemConfig};
use ckpt_des::SimTime;
use ckpt_harness::json::{parse, JsonValue};
use ckpt_svc::{Client, JobStatus, JobStore, Scheduler, Server, Tuning};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a cold request waits for its job before it counts as failed.
const COLD_TIMEOUT: Duration = Duration::from_secs(60);
/// 16 configs per processor count; 9 of a pass's cold latencies lie
/// beyond its p90.
const COLD_PER_PASS: usize = 96;
/// An assumed mix (see the module doc).
const HITS_PER_COLD: usize = 4;
const MTTF_YEARS: [f64; 5] = [0.125, 0.25, 0.5, 1.0, 2.0];
const COORDINATION: [CoordinationMode; 3] = [
    CoordinationMode::FixedQuiesce,
    CoordinationMode::SystemExponential,
    CoordinationMode::MaxOfN,
];
const TIMEOUT_SECS: f64 = 80.0;

/// The `state` field of a job status document ("" when absent).
pub fn job_state(body: &str) -> String {
    parse(body)
        .ok()
        .and_then(|doc| {
            doc.get("state")
                .and_then(JsonValue::as_str)
                .map(String::from)
        })
        .unwrap_or_default()
}

/// The seeded pool of distinct configs.
fn pool(seed: u64) -> Result<Vec<SystemConfig>, String> {
    let mut g = Gen::new(seed, 2);
    let per_procs = COLD_PER_PASS / PROC_AXIS.len();
    let variants = MTTF_YEARS.len() * INTERVAL_AXIS_MIN.len() * COORDINATION.len() * 2;
    let mut configs = Vec::with_capacity(COLD_PER_PASS);
    for &procs in &PROC_AXIS {
        let mut picks: Vec<usize> = (0..variants).collect();
        g.shuffle(&mut picks);
        for &v in &picks[..per_procs] {
            let mttf = MTTF_YEARS[v % MTTF_YEARS.len()];
            let v = v / MTTF_YEARS.len();
            let interval = INTERVAL_AXIS_MIN[v % INTERVAL_AXIS_MIN.len()];
            let v = v / INTERVAL_AXIS_MIN.len();
            let coordination = COORDINATION[v % COORDINATION.len()];
            let timeout = (v / COORDINATION.len() == 1).then(|| SimTime::from_secs(TIMEOUT_SECS));
            configs.push(
                SystemConfig::builder()
                    .processors(procs)
                    .mttf_per_node(SimTime::from_years(mttf))
                    .checkpoint_interval(SimTime::from_mins(interval))
                    .coordination(coordination)
                    .timeout(timeout)
                    .build()
                    .map_err(|e| format!("pool config: {e}"))?,
            );
        }
    }
    g.shuffle(&mut configs);
    Ok(configs)
}

/// Request kinds of one pass: `None` is the next cold job, `Some(u)`
/// a hit on the finished job at skewed rank `u` in [0, 1).
fn request_plan(seed: u64, colds: usize) -> Vec<Option<f64>> {
    let mut g = Gen::new(seed, 3);
    let mut plan: Vec<Option<f64>> = vec![None; colds];
    plan.extend((0..colds * HITS_PER_COLD).map(|_| Some(0.0)));
    g.shuffle(&mut plan);
    let first_cold = plan
        .iter()
        .position(Option::is_none)
        .expect("plan has colds");
    plan.swap(0, first_cold);
    for slot in plan.iter_mut().flatten() {
        let u = g.unit();
        *slot = u * u;
    }
    plan
}

/// The inputs of a pass: the pool as a sweep plan (engine options and
/// simulation seed), each spec's id and JSON, and the request order.
struct Inputs {
    plan: Plan,
    specs: Vec<(String, String)>,
    requests: Vec<Option<f64>>,
}

fn inputs(seed: u64, configs: &[SystemConfig]) -> Result<Inputs, String> {
    let opts = RunOptions {
        engine: EngineKind::Direct,
        reps: 2,
        transient: SimTime::from_hours(500.0),
        horizon: SimTime::from_hours(5_000.0),
        seed: Gen::new(seed, 4).next_u64() >> 16,
        jobs: 1,
        ..RunOptions::default()
    };
    let cells: Vec<Cell> = configs
        .iter()
        .map(|c| Cell {
            series: 0,
            x: c.processors() as f64,
            config: c.clone(),
        })
        .collect();
    let specs = cells
        .iter()
        .map(|c| {
            let spec = sweep::experiment_spec(c.config.clone(), EngineKind::Direct, &opts)
                .map_err(|e| format!("pool spec: {e}"))?;
            Ok((format!("{:016x}", spec.fingerprint()), spec.to_json()))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let plan = Plan::new(vec!["serve pool".into()], cells, opts)?;
    Ok(Inputs {
        plan,
        specs,
        requests: request_plan(seed, configs.len()),
    })
}

/// A live in-process server over a fresh store.
struct Service {
    client: Client,
    sched: Arc<Scheduler>,
    dir: PathBuf,
}

impl Service {
    fn start(tag: &str) -> Result<Service, String> {
        let dir = scratch_dir(tag)?;
        let store = JobStore::open(&dir).map_err(|e| e.to_string())?;
        let tuning = Tuning {
            workers: 1,
            ..Tuning::default()
        };
        let server = Server::bind("127.0.0.1:0", Scheduler::new(store, tuning))
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let sched = server.scheduler();
        // `Server::run` accepts until the process exits; the thread is
        // detached and ends with the process.
        std::thread::spawn(move || server.run());
        let client = Client::new(&addr, "bench");
        client.healthz().map_err(|e| format!("healthz: {e}"))?;
        Ok(Service { client, sched, dir })
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What one pass measured.
#[derive(Debug, Default)]
struct PassOut {
    wall: f64,
    hit_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    cached_replies: u64,
    result_bytes: u64,
    executed_units: usize,
}

/// Checks a cold job's result document: its fingerprint is the job id
/// and its useful-work fraction is finite and in
/// [[`NET_PROGRESS_FLOOR`], 1].
fn result_ok(id: &str, body: &str) -> bool {
    let Ok(doc) = parse(body) else { return false };
    let fingerprint = doc.get("fingerprint").and_then(JsonValue::as_str);
    let fraction = doc
        .get("useful_work_fraction")
        .and_then(|f| f.get("mean"))
        .and_then(JsonValue::as_f64);
    fingerprint == Some(id)
        && fraction.is_some_and(|f| f.is_finite() && (NET_PROGRESS_FLOOR..=1.0).contains(&f))
}

/// One request: a cold job when `hit_of` is `None`, else a hit whose
/// result must equal `hit_of`, the bytes of the job's cold run. Returns
/// the latency in ms and the result bytes, or why the request failed or
/// its output check did not hold.
fn request(
    svc: &Service,
    tr: &mut Tracer,
    parent: SpanId,
    r: u64,
    (id, json): (&str, &str),
    hit_of: Option<&str>,
    out: &mut PassOut,
) -> Result<(f64, String), String> {
    let start = Instant::now();
    let s = tr.begin("svc.submit", Some(parent), r);
    let reply = svc.client.submit(json);
    tr.end(s);
    let reply = reply.map_err(|e| format!("submit: {e}"))?;
    out.cached_replies += u64::from(reply.cached);
    if reply.id != id || reply.cached != hit_of.is_some() {
        return Err(format!("submit reply {reply:?}"));
    }
    if hit_of.is_none() {
        // Wait in process for the scheduler to finish the job, so the
        // latency holds no polling interval and no polls compete with
        // the worker for the CPU.
        let s = tr.begin("svc.wait", Some(parent), r);
        let done = svc.sched.wait(id, COLD_TIMEOUT);
        tr.end(s);
        if !matches!(done, Some(JobStatus::Done { .. })) {
            return Err(format!("job ended as {done:?}"));
        }
    }
    let s = tr.begin("svc.status", Some(parent), r);
    let body = svc.client.status(id);
    tr.end(s);
    let body = body.map_err(|e| format!("status: {e}"))?;
    if job_state(&body) != "done" {
        return Err(format!("status {}", body.trim()));
    }
    let s = tr.begin("svc.result", Some(parent), r);
    let body = svc.client.result(id);
    tr.end(s);
    let body = body
        .map_err(|e| format!("result: {e}"))?
        .ok_or("result missing")?;
    let latency = start.elapsed().as_secs_f64() * 1e3;
    let ok = match hit_of {
        None => result_ok(id, &body),
        Some(cold_body) => body == cold_body,
    };
    if ok {
        Ok((latency, body))
    } else {
        Err(format!(
            "result check failed: {}",
            &body[..body.len().min(200)]
        ))
    }
}

fn pass(svc: &Service, inputs: &Inputs, tr: &mut Tracer, notes: &mut Vec<String>) -> PassOut {
    let mut out = PassOut::default();
    let mut finished: Vec<usize> = Vec::new();
    let mut bodies: HashMap<usize, String> = HashMap::new();
    let mut next_cold = 0usize;
    let units = svc.sched.executed_units();
    let start = Instant::now();
    let root = tr.begin("bench.serve_pass", None, 0);
    for (r, kind) in inputs.requests.iter().enumerate() {
        let span = tr.begin("bench.request", Some(root), r as u64);
        out.attempted += 1;
        let pick = match kind {
            None => {
                next_cold += 1;
                Some(next_cold - 1)
            }
            Some(u) if !finished.is_empty() => {
                Some(finished[(u * finished.len() as f64) as usize % finished.len()])
            }
            Some(_) => None,
        };
        let done = pick
            .ok_or_else(|| "no finished job to hit".to_string())
            .and_then(|i| {
                let (id, json) = &inputs.specs[i];
                let hit_of = kind.map(|_| bodies[&i].as_str());
                request(svc, tr, span, r as u64, (id, json), hit_of, &mut out)
                    .map(|(ms, body)| (i, ms, body))
                    .map_err(|e| format!("job {id}: {e}"))
            });
        match (done, kind) {
            (Ok((i, ms, body)), None) => {
                out.cold_ms.push(ms);
                out.result_bytes += body.len() as u64;
                finished.push(i);
                bodies.insert(i, body);
            }
            (Ok((_, ms, _)), Some(_)) => out.hit_ms.push(ms),
            (Err(e), _) => {
                out.failed += 1;
                notes.push(format!("request {r} failed: {e}"));
            }
        }
        tr.end(span);
    }
    tr.end(root);
    out.wall = start.elapsed().as_secs_f64();
    out.executed_units = svc.sched.executed_units() - units;
    out
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup = Vec::new();
    let mut built = None;
    for k in 0..SETUP_REPEATS {
        let t = Instant::now();
        let first = inputs(args.seed, &pool(args.seed)?)?;
        let svc = Service::start(&format!("serve-store-{k}"))?;
        setup.push(t.elapsed().as_secs_f64());
        built = Some((first, svc));
    }
    let (first, svc) = built.expect("at least one set-up");
    report.notes.push(format!(
        "{} cold jobs + {} hits per pass, closed loop, 1 client, 1 scheduler worker, \
         {:.0} simulated h per pass",
        COLD_PER_PASS,
        COLD_PER_PASS * HITS_PER_COLD,
        first.plan.sim_hours
    ));

    let sim_hours = first.plan.sim_hours;
    let requests = first.requests.len() as f64;
    let mut untraced = Tracer::new(false);
    if !args.trace {
        let start = Instant::now();
        let (mut walls, mut hits, mut colds) = (Vec::new(), Vec::new(), Vec::new());
        let (mut cpus, mut rss) = (Vec::new(), None);
        let mut svc = Some(svc);
        for k in 1.. {
            let svc = match svc.take() {
                Some(s) => s,
                None => Service::start(&format!("serve-store-pass{k}"))?,
            };
            let c0 = crate::cpu_secs();
            let out = pass(&svc, &first, &mut untraced, &mut report.notes);
            cpus.push(crate::cpu_secs() - c0);
            // Later passes repeat the same work and only add the idle
            // servers they leave behind, which are not the program's.
            rss.get_or_insert_with(crate::peak_rss_mb);
            report.attempted += out.attempted;
            report.failed += out.failed;
            walls.push(out.wall);
            hits.extend(out.hit_ms);
            colds.extend(out.cold_ms);
            drop(svc);
            if start.elapsed().as_secs_f64() >= args.seconds {
                break;
            }
        }
        let (wall, cpu) = (median(&walls), median(&cpus));
        report.notes.push(format!(
            "{} passes, wall per pass {walls:.3?} s, CPU per pass {cpus:.2?} s; \
             {} hit and {} cold latencies",
            walls.len(),
            hits.len(),
            colds.len()
        ));
        report.metric("setup_s", median(&setup), "s");
        report.metric("cpu_s_per_1000h", cpu / sim_hours * 1000.0, "s/1000h");
        report.metric("peak_rss_mb", rss.unwrap_or_default(), "MB");
        report.shown("wall_s", wall, "s");
        report.shown("s_per_1000h", wall / sim_hours * 1000.0, "s/1000h");
        report.shown("requests_per_s", requests / wall, "1/s");
        report.shown("hit_p50_ms", median(&hits), "ms");
        report.shown("hit_p90_ms", quantile(&hits, 0.9), "ms");
        report.shown("cold_p50_ms", median(&colds), "ms");
        report.shown("cold_p90_ms", quantile(&colds, 0.9), "ms");
        return Ok(report);
    }

    let base = pass(&svc, &first, &mut untraced, &mut report.notes);
    drop(svc);
    let svc = Service::start("serve-store-traced")?;
    let mut tr = Tracer::new(true);
    let traced = pass(&svc, &first, &mut tr, &mut report.notes);
    drop(svc);
    for out in [&base, &traced] {
        report.attempted += out.attempted;
        report.failed += out.failed;
    }
    report.metric("svc.executed_units", traced.executed_units as f64, "count");
    report.metric(
        "svc.hit_ratio",
        traced.cached_replies as f64 / traced.attempted.max(1) as f64,
        "ratio",
    );
    report.metric("svc.result_bytes", traced.result_bytes as f64, "count");
    report.metric(
        "bench.span_coverage",
        fig::coverage(&tr, "bench.request", traced.wall),
        "ratio",
    );
    report.metric(
        "trace.overhead_frac",
        traced.wall / base.wall - 1.0,
        "ratio",
    );

    // The engine's share of the cold jobs: the same specs run in
    // process, traced cell by cell, then as a sweep at jobs 1 and 2.
    let run = fig::traced_pass(&first.plan, &mut tr, &mut report)?;
    fig::direct_metrics(&mut report, &tr, &first.plan, &run);
    let mut speed = Vec::new();
    for jobs in [1, 2] {
        let plan = first.plan.with_jobs(jobs);
        let (wall, _, series) = fig::sweep_pass(&plan)?;
        let (attempted, failed) = fig::check(&plan, &series, &mut report.notes);
        report.attempted += attempted;
        report.failed += failed;
        speed.push(wall);
    }
    report.metric("core.jobs2_speedup", speed[0] / speed[1], "ratio");
    crate::probes::run(&mut report, args.seed)?;
    crate::write_trace(&tr, args, &mut report)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pass over the first `n` configs of the pool on a fresh store.
    fn small_pass(seed: u64, n: usize) -> PassOut {
        let configs = pool(seed).unwrap();
        let inputs = inputs(seed, &configs[..n]).unwrap();
        let svc = Service::start("selftest-store").unwrap();
        let mut notes = Vec::new();
        let out = pass(&svc, &inputs, &mut Tracer::new(false), &mut notes);
        assert_eq!(out.failed, 0, "{notes:?}");
        out
    }

    #[test]
    fn service_counts_repeat_exactly_at_a_fixed_seed() {
        let (a, b) = (small_pass(5, 4), small_pass(5, 4));
        assert_eq!(a.executed_units, b.executed_units);
        assert_eq!(a.cached_replies, b.cached_replies);
        assert_eq!(a.attempted, b.attempted);
        assert_eq!(a.result_bytes, b.result_bytes);
        assert_eq!(a.cached_replies, 4 * HITS_PER_COLD as u64);
    }

    #[test]
    fn another_seed_changes_the_spec_pool() {
        let specs = |seed| inputs(seed, &pool(seed).unwrap()).unwrap().specs;
        let (a, b) = (specs(1), specs(2));
        assert_eq!(a.len(), COLD_PER_PASS);
        assert_ne!(a, b);
        assert_eq!(specs(1), a);
        let ids: std::collections::HashSet<_> = a.iter().map(|(id, _)| id).collect();
        assert_eq!(ids.len(), a.len(), "pool specs are distinct jobs");
    }

    #[test]
    fn request_plan_starts_cold_and_holds_four_hits_per_cold() {
        let plan = request_plan(9, 10);
        assert!(plan[0].is_none());
        assert_eq!(plan.iter().filter(|r| r.is_none()).count(), 10);
        assert_eq!(plan.len(), 10 * (1 + HITS_PER_COLD));
    }
}
