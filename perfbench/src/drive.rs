//! Fixtures and load generators: the in-process server and its closed-loop
//! clients, and the direct engine solve loop of `oracle-large`.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use dclab_engine::json::{self, Value};
use dclab_engine::{solve, SolveReport, SolveRequest};
use dclab_serve::{start, Client, ServeConfig, ServerHandle};
use dclab_trace::Trace;

use crate::check::{diameter_at_most_two, Checker, Outcome};
use crate::layers::parse_trace;
use crate::stats;
use crate::workloads::{self as wl, Instance, WarmCorpus, Workload};

/// One span of a program trace.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub id: u32,
    pub parent: u32,
    pub name: String,
    pub start_us: u64,
    pub dur_us: u64,
}

/// What the traced run keeps of a request for the per-layer analysis.
pub struct Traced {
    pub inst: Arc<Instance>,
    /// Response body (empty for direct solves).
    pub body: String,
    pub spans: Vec<SpanRec>,
    /// The report of a direct engine solve.
    pub report: Option<SolveReport>,
}

pub struct Record {
    pub idx: usize,
    pub latency_us: f64,
    pub outcome: Outcome,
    pub traced: Option<Traced>,
}

/// The records of one timed phase, ordered by request index.
pub struct Phase {
    pub records: Vec<Record>,
    pub wall_s: f64,
    /// Peak resident memory (MiB) when the first `min_requests` requests
    /// had completed: a fixed amount of work, whatever the run's speed.
    pub prefix_peak_rss_mb: Option<f64>,
}

impl Phase {
    pub fn latencies(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.latency_us).collect()
    }

    pub fn failures(&self) -> Vec<(usize, &str)> {
        self.records
            .iter()
            .filter_map(|r| match &r.outcome {
                Outcome::Failed(why) => Some((r.idx, why.as_str())),
                _ => None,
            })
            .collect()
    }
}

/// When a phase stops: request `i` is sent only while `i < max_requests`,
/// and once `seconds` have passed only while `i < min_requests`.
pub struct Plan {
    pub seconds: f64,
    pub min_requests: usize,
    pub max_requests: usize,
    pub trace: bool,
}

/// The request list of a server workload.
pub enum Source {
    Warm(WarmCorpus),
    Cold(u64),
}

impl Source {
    pub fn request(&self, i: usize) -> Arc<Instance> {
        match self {
            Source::Warm(corpus) => corpus.request(i),
            Source::Cold(seed) => wl::cold_request(*seed, i),
        }
    }
}

pub enum Fixture {
    Server {
        handle: ServerHandle,
        source: Source,
    },
    Direct {
        instances: Vec<Arc<Instance>>,
    },
}

/// Report-cache budget of `warm-repeat`. The cache splits its budget over
/// 16 shards and charges an n=512 entry about 1 MiB (its canonical edge
/// list, counted twice), so the default 64 MiB keeps only three n=512
/// entries per shard and evicts primed instances on some seeds; 256 MiB
/// holds the whole corpus in any shard layout.
const WARM_CACHE_MB: usize = 256;

/// Build a workload's fixture: generate its inputs, start and prime the
/// server, and warm it up. `work_dir` holds the archive, if any.
pub fn setup(
    workload: Workload,
    seed: u64,
    nproc: usize,
    work_dir: &Path,
    checker: &Checker,
) -> Result<Fixture, String> {
    if workload == Workload::OracleLarge {
        let instances = wl::oracle_instances(seed);
        require_diameter_two(instances.iter().map(|i| &**i))?;
        return Ok(Fixture::Direct { instances });
    }
    let source = match workload {
        Workload::WarmRepeat => Source::Warm(wl::warm_corpus(seed)),
        _ => Source::Cold(seed),
    };
    // Generators guarantee diameter ≤ 2; check it once per family.
    match &source {
        Source::Warm(corpus) => require_diameter_two(corpus.instances.iter().map(|i| &**i))?,
        Source::Cold(_) => {
            let sample: Vec<Arc<Instance>> =
                (0..wl::COLD_CYCLE).map(|i| source.request(i)).collect();
            require_diameter_two(sample.iter().filter(|i| !i.expect_refusal).map(|i| &**i))?;
        }
    }
    let store_path = (workload != Workload::WarmRepeat).then(|| {
        let path: PathBuf = work_dir.join("archive");
        path.to_string_lossy().into_owned()
    });
    let mut config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: nproc,
        queue_cap: 0,
        store_path,
        // Keep the slow-solve log quiet; nothing here reads it.
        slow_solve_ms: 600_000,
        ..Default::default()
    };
    if workload == Workload::WarmRepeat {
        config.cache_mb = WARM_CACHE_MB;
    }
    let handle = start(config).map_err(|e| format!("start server: {e}"))?;
    let addr = handle.addr();
    let warm_up = |count: usize, f: &dyn Fn(usize) -> Arc<Instance>| {
        let plan = Plan {
            seconds: f64::INFINITY,
            min_requests: count,
            max_requests: count,
            trace: false,
        };
        let phase = closed_loop(addr, &plan, f, checker);
        match phase.failures().first() {
            Some((i, why)) => Err(format!("warm-up request {i} failed: {why}")),
            None => Ok(()),
        }
    };
    let warmed = match &source {
        Source::Warm(corpus) => warm_up(wl::WARM_BASES, &|i| Arc::clone(&corpus.instances[i]))
            .and_then(|()| {
                warm_up(corpus.instances.len(), &|i| {
                    Arc::clone(&corpus.instances[i])
                })
            }),
        Source::Cold(seed) => warm_up(wl::COLD_CYCLE, &|i| {
            wl::cold_request(*seed, wl::WARMUP_OFFSET + i)
        }),
    };
    let fixture = Fixture::Server { handle, source };
    match warmed {
        Ok(()) => Ok(fixture),
        Err(e) => {
            teardown(fixture);
            Err(e)
        }
    }
}

fn require_diameter_two<'a>(instances: impl Iterator<Item = &'a Instance>) -> Result<(), String> {
    for inst in instances {
        if !diameter_at_most_two(&inst.graph) {
            return Err(format!(
                "generated instance (n={}) has diameter > 2",
                inst.graph.n()
            ));
        }
    }
    Ok(())
}

/// Stop the server (if any) and wait for its threads.
pub fn teardown(fixture: Fixture) {
    if let Fixture::Server { handle, .. } = fixture {
        handle.shutdown();
        handle.join();
    }
}

/// `GET /metrics?format=json`.
pub fn scrape_metrics(addr: SocketAddr) -> Result<Value, String> {
    let resp = Client::new(addr)
        .request("GET", "/metrics?format=json", "")
        .map_err(|e| format!("scrape /metrics: {e}"))?;
    json::parse(&resp.body)
}

/// Closed loop over one keep-alive connection: the next request goes out
/// only after the previous answer arrived. One request in flight at a time:
/// with as many connections as cores, latency also measured how many cores
/// a shared host happened to give the run, which moves between minutes by
/// up to 2×. Latency is timed from the first byte sent to the last byte
/// read; generating an instance and checking its answer happen outside
/// that window.
pub fn closed_loop(
    addr: SocketAddr,
    plan: &Plan,
    source: &dyn Fn(usize) -> Arc<Instance>,
    checker: &Checker,
) -> Phase {
    let start = Instant::now();
    let mut client = Client::new(addr);
    let mut records = Vec::new();
    let mut prefix_peak_rss_mb = None;
    for i in 0.. {
        let late = start.elapsed().as_secs_f64() >= plan.seconds;
        if i >= plan.max_requests || (late && i >= plan.min_requests) {
            break;
        }
        let inst = source(i);
        let target = inst.target();
        let rid = format!("pb-{i}");
        let headers: &[(&str, &str)] = if plan.trace {
            &[("x-request-id", rid.as_str())]
        } else {
            &[]
        };
        let t0 = Instant::now();
        let resp = client.request_with_headers("POST", &target, headers, &inst.body);
        let latency_us = t0.elapsed().as_secs_f64() * 1e6;
        let (outcome, body) = match resp {
            Ok(r) => (checker.check_http(&inst, r.status, &r.body), r.body),
            Err(e) => (Outcome::Failed(format!("transport: {e}")), String::new()),
        };
        let traced = plan.trace.then(|| Traced {
            spans: client
                .request("GET", &format!("/debug/traces/{rid}"), "")
                .ok()
                .filter(|r| r.status == 200)
                .and_then(|r| parse_trace(&r.body).ok())
                .unwrap_or_default(),
            inst: Arc::clone(&inst),
            body,
            report: None,
        });
        if i + 1 == plan.min_requests {
            prefix_peak_rss_mb = stats::peak_rss_mb();
        }
        records.push(Record {
            idx: i,
            latency_us,
            outcome,
            traced,
        });
    }
    Phase {
        records,
        wall_s: start.elapsed().as_secs_f64(),
        prefix_peak_rss_mb,
    }
}

/// One direct `dclab_engine::solve` at a time, cycling through the
/// instances. Cloning the graph into the request happens before the timer.
pub fn direct_loop(instances: &[Arc<Instance>], plan: &Plan, checker: &Checker) -> Phase {
    let start = Instant::now();
    let mut records = Vec::new();
    let mut prefix_peak_rss_mb = None;
    for i in 0.. {
        let late = start.elapsed().as_secs_f64() >= plan.seconds;
        if i >= plan.max_requests || (late && i >= plan.min_requests) {
            break;
        }
        let inst = &instances[i % instances.len()];
        let req = SolveRequest::new(inst.graph.clone(), inst.pvec())
            .with_strategy(inst.strategy)
            .with_budget(inst.budget())
            .with_oracle(inst.oracle);
        let trace = if plan.trace {
            Trace::enabled()
        } else {
            Trace::disabled()
        };
        let t0 = Instant::now();
        let result = {
            let _installed = plan.trace.then(|| trace.install());
            solve(&req)
        };
        let latency_us = t0.elapsed().as_secs_f64() * 1e6;
        let outcome = match &result {
            Ok(report) => checker.check_report(inst, report),
            Err(e) => Outcome::Failed(format!("solve failed: {e}")),
        };
        let traced = plan.trace.then(|| Traced {
            inst: Arc::clone(inst),
            body: String::new(),
            spans: trace
                .finish(format!("pb-{i}"), inst.strategy.name().to_string())
                .map(|t| {
                    t.spans
                        .iter()
                        .map(|s| SpanRec {
                            id: s.id,
                            parent: s.parent,
                            name: s.name.to_string(),
                            start_us: s.start_us,
                            dur_us: s.dur_us,
                        })
                        .collect()
                })
                .unwrap_or_default(),
            report: result.ok(),
        });
        if i + 1 == plan.min_requests {
            prefix_peak_rss_mb = stats::peak_rss_mb();
        }
        records.push(Record {
            idx: i,
            latency_us,
            outcome,
            traced,
        });
    }
    Phase {
        records,
        wall_s: start.elapsed().as_secs_f64(),
        prefix_peak_rss_mb,
    }
}
