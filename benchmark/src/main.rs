//! End-to-end and per-layer benchmark of ckptsim.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <fig4a-direct|serve-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced runs (`--trace 0`) repeat the workload's fixed pass until
//! `--seconds` have elapsed and report the end-to-end metrics. A traced
//! run (`--trace 1`) makes one untraced and one traced pass plus the
//! layer probes and reports the per-layer metrics. The last line of
//! standard output is one JSON object; see `benchmark/README.md`.

mod fig;
mod host;
mod probes;
mod serve;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where traces and the service's job stores go, relative to the
/// directory the benchmark runs from.
pub const OUT_DIR: &str = ".bench_out";

/// Set-up is repeated this many times per run and its median reported.
pub const SETUP_REPEATS: usize = 3;

/// The end-to-end metrics every untraced run reports and
/// `BENCHMARK.json` gates, in print order. Wall-clock throughput and
/// latency are printed as well (see [`Report::shown`]) but not gated:
/// see `benchmark/README.md` for the spreads that ruled them out.
pub const END_TO_END: [&str; 3] = ["setup_s", "cpu_s_per_1000h", "peak_rss_mb"];

/// The per-layer metrics every traced run reports, in print order.
pub const PER_LAYER: [&str; 26] = [
    "bench.span_coverage",
    "trace.overhead_frac",
    "core.direct.ns_per_event",
    "core.direct.events_per_1000h",
    "core.san.ns_per_event",
    "core.san.events_per_1000h",
    "core.cell_ms.p50",
    "core.cell_ms.max",
    "core.faults",
    "core.jobs2_speedup",
    "core.san.build_ms",
    "des.queue.ns_per_op",
    "des.rng.ns_per_draw",
    "stats.max_exp.ns_per_draw",
    "harness.spec_parse_us",
    "harness.fingerprint_us",
    "harness.persist_ms",
    "svc.http_rtt_us",
    "svc.submit_us",
    "svc.result_us",
    "svc.sched_hit_us",
    "svc.store_lookup_us",
    "svc.queue_wait_ms",
    "svc.executed_units",
    "svc.hit_ratio",
    "svc.result_bytes",
];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What one run measured: operation counts, metrics in print order,
/// metrics printed but left out of the result, and human-readable lines
/// printed before the result.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub printed: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// A metric printed in the table but not part of the result line.
    pub fn shown(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.printed.push((name, value, unit));
    }
}

/// Linear-interpolated quantile (`q` in [0, 1]) of `values`; 0 when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// SplitMix64: the benchmark's own input generator, so that the inputs
/// a seed produces do not depend on the program's RNG code.
#[derive(Debug, Clone)]
pub struct Gen(u64);

impl Gen {
    pub fn new(seed: u64, stream: u64) -> Gen {
        Gen(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A directory under [`OUT_DIR`] unique to this process, created empty.
pub fn scratch_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = Path::new(OUT_DIR).join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// CPU seconds this process has used, all threads (`utime + stime`).
pub fn cpu_secs() -> f64 {
    let ticks = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let fields: Vec<u64> = s
                .rsplit_once(')')?
                .1
                .split_whitespace()
                .skip(11)
                .take(2)
                .map(|f| f.parse().ok())
                .collect::<Option<_>>()?;
            Some(fields.iter().sum::<u64>())
        });
    ticks.map_or(0.0, |t| t as f64 / 100.0)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Writes the traced run's spans under [`OUT_DIR`] and notes each span
/// name's self time.
pub fn write_trace(tr: &trace::Tracer, args: &Args, report: &mut Report) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, tr.to_json(&args.workload, args.seed))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    report.notes.push(format!(
        "{} spans written to {}; self time per span:",
        tr.spans().len(),
        path.display()
    ));
    for (name, secs) in tr.self_times() {
        report.notes.push(format!("  {name:<28} {secs:>10.4} s"));
    }
    Ok(())
}

/// Puts the report's metrics in the order of `names`, failing unless
/// it holds exactly those metrics, each a finite number.
fn order_metrics(report: &mut Report, names: &[&str]) -> Result<(), String> {
    let mut ordered = Vec::with_capacity(names.len());
    for name in names {
        let i = report
            .metrics
            .iter()
            .position(|(n, _, _)| n == name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        let metric = report.metrics.swap_remove(i);
        if !metric.1.is_finite() {
            return Err(format!("metric {name} is {}", metric.1));
        }
        ordered.push(metric);
    }
    if let Some((extra, _, _)) = report.metrics.first() {
        return Err(format!("metric {extra} is not declared"));
    }
    report.metrics = ordered;
    Ok(())
}

fn result_line(report: &Report, correct: bool) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.attempted, report.failed
    );
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn run(args: &Args) -> Result<Report, String> {
    let mut report = match args.workload.as_str() {
        "fig4a-direct" => fig::run(args),
        "serve-mixed" => serve::run(args),
        other => Err(format!(
            "unknown workload {other:?} (fig4a-direct, serve-mixed)"
        )),
    }?;
    order_metrics(
        &mut report,
        if args.trace { &PER_LAYER } else { &END_TO_END },
    )?;
    Ok(report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ckpt-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ckpt-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let _ = std::fs::remove_dir(OUT_DIR);
    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    println!("host: {}", host::record());
    for note in &report.notes {
        println!("{note}");
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    for (name, value, unit) in &report.metrics {
        println!("  {name:<28} {value:>14.6} {unit}");
    }
    for (name, value, unit) in &report.printed {
        println!("  {name:<28} {value:>14.6} {unit} (not gated)");
    }
    println!(
        "  {:<28} {failed_frac:>14.6} ratio ({} of {} operations)",
        "failed_frac", report.failed, report.attempted
    );
    println!("{}", result_line(&report, report.failed == 0));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        use ckpt_harness::json::{parse, JsonValue};
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
        assert_eq!(names("workloads"), ["fig4a-direct", "serve-mixed"]);
    }

    #[test]
    fn args_are_checked() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload serve-mixed --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(parse_args(&argv("--workload x --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }
}
