//! `dclab-perfbench` — the dclab benchmark, end to end and layer by layer.
//!
//! ```text
//! dclab-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Sets the workload up several times (the median is `setup_s`), then
//! measures one timed phase of `--seconds`. With `--trace 0` the phase
//! runs without the bench's timers and prints the end-to-end metrics; with
//! `--trace 1` half the time runs untraced and half traced, and the
//! per-layer metrics and the waterfall are printed instead. Every answer
//! goes through an independent checker; the last stdout line is one JSON
//! object `{"correct","attempted","failed","metrics"}`, and the exit code
//! is non-zero when any answer was rejected.

mod check;
mod drive;
mod layers;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::Instant;

use check::{Checker, Outcome};
use drive::{Fixture, Phase, Plan};
use stats::{beyond, median, quantile};
use workloads::Workload;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// `DCLAB_THREADS` of every workload: one solver thread per request, so a
/// latency depends on single-thread speed only and not on how many cores a
/// shared host gives the run at the time.
const SOLVER_THREADS: usize = 1;

const USAGE: &str = "usage: dclab-perfbench --workload <warm-repeat|cold-mixed|oracle-large> \
                     --seed <u64> --seconds <s> --trace <0|1>";

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            // An empty float sum is -0.0; report it as 0.
            value: value + 0.0,
            unit,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
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
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

struct RunResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl RunResult {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dclab-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let work_dir = PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let result = std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("create {}: {e}", work_dir.display()))
        .and_then(|()| run(&args, &work_dir));
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok(r) => {
            println!("{}", r.to_json());
            std::process::exit(if r.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("dclab-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args, work_dir: &Path) -> Result<RunResult, String> {
    let nproc = stats::nproc();
    let threads = SOLVER_THREADS;
    dclab_par::set_thread_override(Some(threads));
    let (spin_ms, speedup) = stats::spin_probe(nproc);

    let mut setup_times = Vec::new();
    let mut kept: Option<(Fixture, Checker)> = None;
    for rep in 0..SETUP_REPS {
        let dir = work_dir.join(format!("setup-{rep}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let checker = Checker::default();
        let t = Instant::now();
        let fixture = drive::setup(args.workload, args.seed, nproc, &dir, &checker)?;
        setup_times.push(t.elapsed().as_secs_f64());
        if let Some((old, _)) = kept.replace((fixture, checker)) {
            drive::teardown(old);
        }
    }
    let (fixture, checker) = kept.expect("at least one set-up");
    let run_phase = |first: usize, seconds: f64, trace: bool| -> Phase {
        let plan = Plan {
            seconds,
            min_requests: args.workload.quality_prefix(),
            max_requests: usize::MAX,
            trace,
        };
        match &fixture {
            Fixture::Server { handle, source, .. } => drive::closed_loop(
                handle.addr(),
                &plan,
                &|i| source.request(first + i),
                &checker,
            ),
            Fixture::Direct { instances } => drive::direct_loop(instances, &plan, &checker),
        }
    };
    let addr = match &fixture {
        Fixture::Server { handle, .. } => Some(handle.addr()),
        Fixture::Direct { .. } => None,
    };

    let provenance = |requests: &[usize]| {
        let rev = std::env::var("PERFBENCH_GIT_REV").unwrap_or_else(|_| "unknown".into());
        let scaling = if speedup >= 0.75 * nproc as f64 {
            "ok"
        } else {
            "flagged: threads do not scale here; do not compare thread-dependent numbers across hosts"
        };
        println!(
            "provenance {{\"workload\":\"{}\",\"git_rev\":\"{rev}\",\"nproc\":{nproc},\
             \"server_workers\":{},\"dclab_threads\":{threads},\"client_connections\":1,\
             \"seed\":{},\"seconds\":{},\"requests\":{requests:?},\"setup_reps\":{SETUP_REPS},\
             \"spin_ms\":{spin_ms:.2},\"parallel_speedup\":{speedup:.3},\"parallel_scaling\":\"{scaling}\"}}",
            args.workload.name(),
            if addr.is_some() { nproc } else { 0 },
            args.seed,
            args.seconds,
        );
    };

    let setup_s = median(&setup_times);
    let mut result = if args.trace {
        let scrape = || addr.map(drive::scrape_metrics).transpose();
        let untraced = run_phase(0, args.seconds / 2.0, false);
        let before = scrape()?;
        let traced = run_phase(untraced.records.len(), args.seconds / 2.0, true);
        let after = scrape()?;
        drive::teardown(fixture);
        provenance(&[untraced.records.len(), traced.records.len()]);
        let deltas = before
            .zip(after)
            .map(|(b, a)| layers::MetricDeltas::between(&b, &a));
        let metrics = layers::analyse(&layers::TracedRun {
            workload: args.workload,
            untraced: &untraced,
            traced: &traced,
            deltas,
            work_dir,
        })?;
        let failed = report_failures(&untraced) + report_failures(&traced);
        RunResult {
            correct: failed == 0,
            attempted: untraced.records.len() + traced.records.len(),
            failed,
            metrics,
        }
    } else {
        stats::reset_peak_rss();
        let phase = run_phase(0, args.seconds, false);
        let peak_rss = phase.prefix_peak_rss_mb.unwrap_or(0.0);
        drive::teardown(fixture);
        provenance(&[phase.records.len()]);
        let failed = report_failures(&phase);
        let metrics = end_to_end(args, &phase, peak_rss);
        RunResult {
            correct: failed == 0,
            attempted: phase.records.len(),
            failed,
            metrics,
        }
    };
    println!(
        "setup_s {setup_s:.4} (median of {SETUP_REPS}: {:?})",
        setup_times
            .iter()
            .map(|t| format!("{t:.4}"))
            .collect::<Vec<_>>()
    );
    if args.trace {
        print_table(&result.metrics);
    } else {
        result.metrics.push(Metric::new("setup_s", setup_s, "s"));
    }
    Ok(result)
}

/// Print up to five rejected answers to stderr; return how many failed.
fn report_failures(phase: &Phase) -> usize {
    let failures = phase.failures();
    for (i, why) in failures.iter().take(5) {
        eprintln!("dclab-perfbench: request {i} failed: {why}");
    }
    failures.len()
}

fn end_to_end(args: &Args, phase: &Phase, peak_rss: f64) -> Vec<Metric> {
    let lat = phase.latencies();
    let q = workloads::TAIL_QUANTILE;
    let prefix = args.workload.quality_prefix();
    let answers: Vec<&check::Answer> = phase
        .records
        .iter()
        .filter(|r| r.idx < prefix)
        .filter_map(|r| match &r.outcome {
            Outcome::Answered(a) => Some(a),
            _ => None,
        })
        .collect();
    // Deadline answers depend on the clock; the span ratio, which must
    // repeat exactly for a seed, is taken over the deadline-free ones.
    let (clocked, exact): (Vec<&check::Answer>, Vec<&check::Answer>) =
        answers.iter().partition(|a| a.deadline);
    let span_ratio = exact
        .iter()
        .map(|a| a.span as f64 / a.lower_bound.max(1) as f64)
        .sum::<f64>()
        / exact.len().max(1) as f64;
    let metrics = vec![
        Metric::new(
            "throughput_rps",
            phase.records.len() as f64 / phase.wall_s.max(1e-9),
            "req/s",
        ),
        Metric::new(
            "latency_mean_ms",
            lat.iter().sum::<f64>() / lat.len().max(1) as f64 / 1e3,
            "ms",
        ),
        Metric::new("latency_tail_ms", quantile(&lat, q) / 1e3, "ms"),
        Metric::new("span_ratio_mean", span_ratio, "ratio"),
        Metric::new("peak_rss_mb", peak_rss, "MiB"),
    ];
    print_table(&metrics);
    println!(
        "  latency_p50_ms {:.3}; latency_tail_ms is the p{} of {} requests ({} beyond it) \
         in {:.3} s",
        median(&lat) / 1e3,
        q * 100.0,
        lat.len(),
        beyond(lat.len(), q),
        phase.wall_s
    );
    let quality = |label: &str, set: &[&check::Answer]| {
        let n = set.len().max(1) as f64;
        println!(
            "  quality over {label} answers of requests 0..{prefix} ({}): gap_mean {:.6}, \
             proved_frac {:.4}",
            set.len(),
            set.iter().map(|a| a.gap()).sum::<f64>() / n,
            set.iter().filter(|a| a.optimal).count() as f64 / n,
        );
    };
    quality("deadline-free", &exact);
    if !clocked.is_empty() {
        quality("deadline", &clocked);
    }
    println!(
        "  failed_frac {:.4} of {} attempted",
        phase.failures().len() as f64 / phase.records.len().max(1) as f64,
        phase.records.len()
    );
    metrics
}

fn print_table(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
}
