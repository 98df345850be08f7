//! The `fig4a-direct` workload: all 30 cells of the paper's headline
//! figure (5 MTTFs x 6 processor counts) on the Direct engine through
//! `ckpt_bench::sweep::run_sweep` at `jobs = 1`, with the figure's run
//! options: 3 replications of a 1000 h transient plus a 20000 h horizon
//! per cell. `--seed` sets the simulation base seed.
//!
//! The sweep plan, its output checks and the traced cell-by-cell pass
//! are shared with `serve-mixed` and the SAN probe.

use crate::trace::Tracer;
use crate::{median, probes, quantile, Args, Gen, Report, SETUP_REPEATS};
use ckpt_bench::args::RunOptions;
use ckpt_bench::figures;
use ckpt_bench::paper::{close_to_reference, FIG4A_MTTF1Y_CURVE};
use ckpt_bench::sweep::{self, Cell, Metric, Series, SweepControl};
use ckpt_core::EngineKind;
use ckpt_obs::{ProgressSink, ProgressSnapshot};
use std::sync::Mutex;
use std::time::Instant;

pub const MTTF1Y_LABEL: &str = "MTTF (yrs) = 1";

/// Lowest useful-work fraction a cell or job may report. The fraction
/// is net progress over the window (`Metrics::useful_work_secs`), so it
/// dips below 0 when a rollback crosses the window start in a config
/// where almost no checkpoint completes: fig4a's MTTF 0.125 y, 262144
/// processor cell gave -4.9e-8 at one seed, and the serve pool's lowest
/// was -8e-5, a twelfth of this floor.
pub const NET_PROGRESS_FLOOR: f64 = -1e-3;

/// A sweep ready to run: cells, labels and validated run options.
#[derive(Debug, Clone)]
pub struct Plan {
    pub labels: Vec<String>,
    pub cells: Vec<Cell>,
    pub opts: RunOptions,
    /// Simulated hours one pass covers (cells x reps x run length).
    pub sim_hours: f64,
}

impl Plan {
    /// Builds the sweep from `labels`/`cells` and `opts`, validates
    /// every cell's spec, and runs one untimed warm-up replication on
    /// `opts.engine`: fig4a's first cell under fig4a's run options, the
    /// same work whatever the workload or the seed.
    pub fn new(labels: Vec<String>, cells: Vec<Cell>, opts: RunOptions) -> Result<Plan, String> {
        for c in &cells {
            sweep::experiment_spec(c.config.clone(), opts.engine, &opts)
                .map_err(|e| format!("invalid cell: {e}"))?;
        }
        let warm_up = figures::fig4a().cells.swap_remove(0).config;
        let warm_up_opts = RunOptions {
            engine: opts.engine,
            jobs: 1,
            ..RunOptions::default()
        };
        std::hint::black_box(
            sweep::experiment_spec(warm_up, opts.engine, &warm_up_opts)
                .map_err(|e| format!("invalid warm-up cell: {e}"))?
                .to_experiment()
                .replications(1)
                .run()
                .map_err(|e| format!("warm-up replication: {e}"))?,
        );
        let run_hours =
            (opts.transient.as_hours() + opts.horizon.as_hours()) * f64::from(opts.reps);
        Ok(Plan {
            sim_hours: run_hours * cells.len() as f64,
            labels,
            cells,
            opts,
        })
    }

    pub fn with_jobs(&self, jobs: usize) -> Plan {
        let mut plan = self.clone();
        plan.opts.jobs = jobs;
        plan
    }
}

/// fig4a's MTTF = 1 y row as a one-series sweep.
pub fn mttf1y_row() -> Result<Vec<Cell>, String> {
    let fig = figures::fig4a();
    let row = fig
        .labels
        .iter()
        .position(|l| l == MTTF1Y_LABEL)
        .ok_or("fig4a has no MTTF = 1 y series")?;
    Ok(fig
        .cells
        .into_iter()
        .filter(|c| c.series == row)
        .map(|c| Cell { series: 0, ..c })
        .collect())
}

fn plan(seed: u64) -> Result<Plan, String> {
    let fig = figures::fig4a();
    let opts = RunOptions {
        engine: EngineKind::Direct,
        seed: Gen::new(seed, 1).next_u64() >> 16,
        jobs: 1,
        ..RunOptions::default()
    };
    Plan::new(fig.labels, fig.cells, opts)
}

/// Times each cell of a `jobs = 1` sweep from the previous cell's end
/// (or the sweep's start) to its own end.
struct CellClock {
    inner: Mutex<(Instant, Vec<f64>)>,
}

impl CellClock {
    fn start() -> CellClock {
        CellClock {
            inner: Mutex::new((Instant::now(), Vec::new())),
        }
    }
}

impl ProgressSink for CellClock {
    fn progress(&self, _snapshot: &ProgressSnapshot<'_>) {
        let now = Instant::now();
        let mut inner = self.inner.lock().expect("cell clock poisoned");
        let ms = (now - inner.0).as_secs_f64() * 1e3;
        inner.1.push(ms);
        inner.0 = now;
    }
}

/// One untraced pass through `run_sweep`: wall seconds, per-cell
/// milliseconds and the figure's series.
pub fn sweep_pass(plan: &Plan) -> Result<(f64, Vec<f64>, Vec<Series>), String> {
    let cells = plan.cells.clone();
    let clock = CellClock::start();
    let start = Instant::now();
    let series = sweep::run_sweep_controlled(
        &plan.labels,
        cells,
        Metric::TotalUsefulWork,
        &plan.opts,
        SweepControl {
            progress: Some(&clock),
            ..SweepControl::default()
        },
    )
    .map_err(|e| format!("sweep failed: {e}"))?;
    let wall = start.elapsed().as_secs_f64();
    let cell_ms = clock.inner.into_inner().expect("cell clock poisoned").1;
    Ok((wall, cell_ms, series))
}

/// Output checks on a pass: every cell's useful-work fraction is finite
/// and in [[`NET_PROGRESS_FLOOR`], 1], and the MTTF = 1 y curve matches
/// the paper's digitized curve. Returns (cells attempted, cells failed).
pub fn check(plan: &Plan, series: &[Series], notes: &mut Vec<String>) -> (u64, u64) {
    let mut failed = 0u64;
    let mut seen = 0usize;
    for s in series {
        for p in &s.points {
            seen += 1;
            let fraction = p.y / p.x;
            let mut ok = fraction.is_finite() && (NET_PROGRESS_FLOOR..=1.0).contains(&fraction);
            if s.label == MTTF1Y_LABEL {
                let reference = FIG4A_MTTF1Y_CURVE
                    .iter()
                    .find(|(procs, _)| *procs as f64 == p.x)
                    .map(|(_, work)| *work);
                ok &= reference.is_some_and(|r| close_to_reference(p.y, r));
            }
            if !ok {
                failed += 1;
                notes.push(format!(
                    "check failed: {} x={} total useful work {} (fraction {fraction})",
                    s.label, p.x, p.y
                ));
            }
        }
    }
    let missing = plan.cells.len().saturating_sub(seen);
    (plan.cells.len() as u64, failed + missing as u64)
}

/// What an engine pass did: wall seconds, simulation events, summed
/// replication seconds from `Estimate::profiles()`, and retried worker
/// panics from `Estimate::faults()`.
#[derive(Debug, Clone, Copy)]
pub struct EngineRun {
    pub wall: f64,
    pub events: u64,
    pub rep_secs: f64,
    pub faults: usize,
}

impl EngineRun {
    pub fn ns_per_event(&self) -> f64 {
        self.rep_secs * 1e9 / self.events.max(1) as f64
    }
}

/// The traced pass: each cell's spec build and experiment run, called
/// one cell at a time under spans, with the pass's output checks added
/// to `report`. These are the calls `run_sweep` makes per cell at
/// `jobs = 1`; its thread scope and result bookkeeping are left out, so
/// the sweep driver itself shows in no span.
pub fn traced_pass(plan: &Plan, tr: &mut Tracer, report: &mut Report) -> Result<EngineRun, String> {
    let mut series: Vec<Series> = plan
        .labels
        .iter()
        .map(|l| Series {
            label: l.clone(),
            points: Vec::new(),
        })
        .collect();
    let (mut events, mut rep_secs, mut faults) = (0u64, 0.0f64, 0usize);
    let start = Instant::now();
    let root = tr.begin("bench.pass", None, 0);
    for (i, cell) in plan.cells.iter().enumerate() {
        let id = i as u64;
        let c = tr.begin("bench.cell", Some(root), id);
        let s = tr.begin("harness.spec", Some(c), id);
        let spec = sweep::experiment_spec(cell.config.clone(), plan.opts.engine, &plan.opts);
        tr.end(s);
        let spec = spec.map_err(|e| format!("invalid cell: {e}"))?;
        let r = tr.begin("core.experiment", Some(c), id);
        let est = spec.to_experiment().run();
        tr.end(r);
        tr.end(c);
        let est = est.map_err(|e| format!("cell {i} failed: {e}"))?;
        events += est.profiles().iter().map(|p| p.events).sum::<u64>();
        rep_secs += est.total_wall_secs();
        faults += est.faults().len();
        series[cell.series].points.push(sweep::Point {
            x: cell.x,
            y: est.total_useful_work().mean,
            half_width: 0.0,
        });
    }
    tr.end(root);
    let wall = start.elapsed().as_secs_f64();
    let (attempted, failed) = check(plan, &series, &mut report.notes);
    report.attempted += attempted;
    report.failed += failed;
    Ok(EngineRun {
        wall,
        events,
        rep_secs,
        faults,
    })
}

/// The `core.*` per-layer metrics of a traced Direct pass over `plan`.
pub fn direct_metrics(report: &mut Report, tr: &Tracer, plan: &Plan, run: &EngineRun) {
    let cell_ms = tr.durations_ms("core.experiment");
    report.metric("core.direct.ns_per_event", run.ns_per_event(), "ns");
    report.metric(
        "core.direct.events_per_1000h",
        run.events as f64 / (plan.sim_hours / 1000.0),
        "count",
    );
    report.metric("core.cell_ms.p50", median(&cell_ms), "ms");
    report.metric("core.cell_ms.max", quantile(&cell_ms, 1.0), "ms");
    report.metric("core.faults", run.faults as f64, "count");
}

/// Share of `wall` seconds covered by the spans named `name`.
pub fn coverage(tr: &Tracer, name: &str, wall: f64) -> f64 {
    tr.durations_ms(name).iter().sum::<f64>() / 1e3 / wall
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        built = Some(plan(args.seed)?);
        setup.push(t.elapsed().as_secs_f64());
    }
    let plan = built.expect("at least one set-up");
    report.notes.push(format!(
        "{} cells on {}, jobs 1, {} reps x {} h, {:.0} simulated h per pass",
        plan.cells.len(),
        plan.opts.engine.name(),
        plan.opts.reps,
        plan.opts.transient.as_hours() + plan.opts.horizon.as_hours(),
        plan.sim_hours
    ));

    if !args.trace {
        let start = Instant::now();
        let (mut walls, mut cell_ms) = (Vec::new(), Vec::new());
        let (mut cpus, mut rss) = (Vec::new(), None);
        loop {
            let c0 = crate::cpu_secs();
            let (wall, ms, series) = sweep_pass(&plan)?;
            cpus.push(crate::cpu_secs() - c0);
            // Later passes repeat the same work.
            rss.get_or_insert_with(crate::peak_rss_mb);
            let (attempted, failed) = check(&plan, &series, &mut report.notes);
            report.attempted += attempted;
            report.failed += failed;
            walls.push(wall);
            cell_ms.extend(ms);
            if start.elapsed().as_secs_f64() >= args.seconds {
                break;
            }
        }
        let (wall, cpu) = (median(&walls), median(&cpus));
        report.notes.push(format!(
            "{} passes, wall per pass {walls:.3?} s, CPU per pass {cpus:.2?} s; {} cell latencies",
            walls.len(),
            cell_ms.len()
        ));
        report.metric("setup_s", median(&setup), "s");
        report.metric("cpu_s_per_1000h", cpu / plan.sim_hours * 1000.0, "s/1000h");
        report.metric("peak_rss_mb", rss.unwrap_or_default(), "MB");
        report.shown("wall_s", wall, "s");
        report.shown("s_per_1000h", wall / plan.sim_hours * 1000.0, "s/1000h");
        report.shown("cells_per_s", plan.cells.len() as f64 / wall, "1/s");
        report.shown("cell_p50_ms", median(&cell_ms), "ms");
        report.shown("cell_p90_ms", quantile(&cell_ms, 0.9), "ms");
        return Ok(report);
    }

    // The traced pass calls the cells one at a time, as `run_sweep`
    // does at jobs 1 but without the sweep driver around them, so its
    // overhead is taken against the same loop with tracing off.
    let untraced = traced_pass(&plan, &mut Tracer::new(false), &mut report)?;
    let mut tr = Tracer::new(true);
    let traced = traced_pass(&plan, &mut tr, &mut report)?;
    direct_metrics(&mut report, &tr, &plan, &traced);
    let mut sweep_wall = Vec::new();
    for jobs in [1, 2] {
        let (wall, _, series) = sweep_pass(&plan.with_jobs(jobs))?;
        let (attempted, failed) = check(&plan, &series, &mut report.notes);
        report.attempted += attempted;
        report.failed += failed;
        sweep_wall.push(wall);
    }
    report.metric("core.jobs2_speedup", sweep_wall[0] / sweep_wall[1], "ratio");
    probes::run(&mut report, args.seed)?;
    report.metric(
        "bench.span_coverage",
        coverage(&tr, "bench.cell", traced.wall),
        "ratio",
    );
    report.metric(
        "trace.overhead_frac",
        traced.wall / untraced.wall - 1.0,
        "ratio",
    );
    report.metric("svc.executed_units", 0.0, "count");
    report.metric("svc.hit_ratio", 0.0, "ratio");
    report.metric("svc.result_bytes", 0.0, "count");
    crate::write_trace(&tr, args, &mut report)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_counts_repeat_exactly_at_a_fixed_seed() {
        let counts = || {
            let mut plan = plan(3).unwrap();
            plan.cells.truncate(2);
            let run = traced_pass(&plan, &mut Tracer::new(false), &mut Report::default()).unwrap();
            (run.events, run.faults)
        };
        let a = counts();
        assert!(a.0 > 0);
        assert_eq!(a, counts());
    }
}
