//! The traced run's per-layer numbers.
//!
//! Two sources, both measured from outside the program:
//!
//! * **Spans the program already records.** Serve keeps every `/solve`
//!   request's span tree behind `GET /debug/traces/<id>`; a direct engine
//!   solve returns it from an installed `dclab_trace::Trace`. Each
//!   microsecond of the root span is attributed to the deepest span active
//!   at that instant (split evenly between parallel spans of equal depth),
//!   so the layer self times of one request add up to its root span.
//! * **In-process replays.** Work the program does outside any span —
//!   parse, canonicalization, cache lookup, JSON and binary encoding,
//!   archive append, feature extraction, diameter, hub-label build — is
//!   timed by calling that layer's public function on the request's own
//!   inputs after the timed phase.
//!
//! Client latency minus the root span is the part outside the program's
//! spans. Together with the self time of the envelope spans (`request`,
//! `solve`) it makes up `waterfall.untraced_share`.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use dclab_core::bounds::BoundKind;
use dclab_core::labeling::Labeling;
use dclab_core::solver::Solution;
use dclab_engine::json::{self, Value};
use dclab_engine::report::{BoundStats, PhaseStat};
use dclab_engine::{binary, EngineStats, InstanceFeatures, OracleStats, SolveReport, Strategy};
use dclab_graph::io;
use dclab_oracle::HubLabels;
use dclab_serve::{persist, CacheKey, ReportCache};
use dclab_store::Store;

use crate::check::Outcome;
use crate::drive::{Phase, SpanRec};
use crate::stats::{median, quantile};
use crate::workloads::{Instance, Workload};
use crate::Metric;

/// Timed layers, each reported as `.p50_us`, `.tail_us` and `.share`.
pub const TIMED: [&str; 26] = [
    "serve.outside_span",
    "serve.wait_and_io",
    "serve.request_self",
    "graph.io.parse",
    "graph.canon",
    "serve.cache.get",
    "engine.report.json",
    "engine.features",
    "graph.diameter",
    "engine.solve",
    "engine.untraced",
    "graph.apsp",
    "core.reduce",
    "tsp.candidates",
    "tsp.lk",
    "tsp.bb",
    "tsp.lower_bound",
    "tsp.race",
    "core.greedy",
    "core.validate",
    "oracle.build",
    "oracle.build_direct",
    "oracle.query",
    "store.append",
    "engine.binary.encode",
    "engine.other_phases",
];

/// Counts and ratios, `(name, unit)`.
pub const COUNTS: [(&str, &str); 19] = [
    ("serve.cache.hit_rate", "ratio"),
    ("serve.cache.coalesced", "count"),
    ("serve.shed", "count"),
    ("store.appends", "count"),
    ("graph.io.parse_mb_per_s", "MB/s"),
    ("core.reductions_computed", "count"),
    ("core.bounds.degree_frac", "ratio"),
    ("core.bounds.one-tree_frac", "ratio"),
    ("core.bounds.hk-ascent_frac", "ratio"),
    ("core.bounds.proved-optimal_frac", "ratio"),
    ("engine.timed_out_frac", "ratio"),
    ("oracle.queries", "count"),
    ("oracle.query_ns", "ns"),
    ("oracle.footprint_bytes", "bytes"),
    ("waterfall.untraced_share", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("gap_mean", "ratio"),
    ("proved_frac", "ratio"),
    ("failed_frac", "ratio"),
];

/// Traced requests replayed and analysed per run (the first ones by
/// index). Replaying every `warm-repeat` request would double the run.
const MAX_REPLAYED: usize = 400;

/// Layers whose time the program's own spans do not cover.
const UNTRACED_ROWS: [&str; 6] = [
    "graph.io.parse",
    "graph.canon",
    "engine.report.json",
    "serve.wait_and_io",
    "serve.request_self",
    "engine.untraced",
];

/// Waterfall row of a program span: its layer name.
fn span_layer(name: &str) -> &'static str {
    match name {
        "request" => "serve.request_self",
        "solve" => "engine.untraced",
        "apsp" => "graph.apsp",
        "reduce" => "core.reduce",
        "candidates" => "tsp.candidates",
        "lk" => "tsp.lk",
        "bb" | "bb_checkpoint" => "tsp.bb",
        "lower_bound" => "tsp.lower_bound",
        "race" | "member" => "tsp.race",
        "greedy" => "core.greedy",
        "validate" => "core.validate",
        "oracle_build" => "oracle.build",
        "oracle_query" => "oracle.query",
        _ => "engine.other_phases",
    }
}

/// Parse the span list of a `/debug/traces/<id>` document.
pub fn parse_trace(text: &str) -> Result<Vec<SpanRec>, String> {
    let v = json::parse(text)?;
    let field = |s: &Value, k: &str| {
        s.get(k)
            .and_then(Value::as_f64)
            .map(|x| x as u64)
            .ok_or_else(|| format!("span without '{k}'"))
    };
    v.get("spans")
        .and_then(Value::as_arr)
        .ok_or("trace without spans")?
        .iter()
        .map(|s| {
            Ok(SpanRec {
                id: field(s, "id")? as u32,
                parent: field(s, "parent")? as u32,
                name: s
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                start_us: field(s, "start_us")?,
                dur_us: field(s, "dur_us")?,
            })
        })
        .collect()
}

/// Self time per layer of one span tree, attributed over the root span.
fn attribute(spans: &[SpanRec], root: &SpanRec) -> BTreeMap<&'static str, f64> {
    let depth = |s: &SpanRec| {
        let mut d = 0;
        let mut parent = s.parent;
        while parent != 0 && d < spans.len() {
            d += 1;
            parent = spans
                .iter()
                .find(|p| p.id == parent)
                .map_or(0, |p| p.parent);
        }
        d
    };
    let depths: Vec<usize> = spans.iter().map(depth).collect();
    let (lo, hi) = (root.start_us, root.start_us + root.dur_us);
    let mut cuts: Vec<u64> = spans
        .iter()
        .flat_map(|s| [s.start_us, s.start_us + s.dur_us])
        .map(|t| t.clamp(lo, hi))
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut out = BTreeMap::new();
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let active: Vec<usize> = (0..spans.len())
            .filter(|&k| spans[k].start_us <= a && spans[k].start_us + spans[k].dur_us >= b)
            .collect();
        let Some(deepest) = active.iter().map(|&k| depths[k]).max() else {
            continue;
        };
        let top: Vec<usize> = active
            .into_iter()
            .filter(|&k| depths[k] == deepest)
            .collect();
        let each = (b - a) as f64 / top.len() as f64;
        for k in top {
            *out.entry(span_layer(&spans[k].name)).or_insert(0.0) += each;
        }
    }
    out
}

/// Per-request layer times (µs) of one traced request.
struct Row {
    latency_us: f64,
    layers: BTreeMap<&'static str, f64>,
    /// Self times from the program's spans alone (a subset of `layers`).
    spans: BTreeMap<&'static str, f64>,
}

fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = std::hint::black_box(f());
    (r, t.elapsed().as_secs_f64() * 1e6)
}

/// Rebuild the engine's `SolveReport` from a response body. The result
/// must re-encode to the same bytes, which the caller checks.
pub fn report_from_json(v: &Value) -> Result<SolveReport, String> {
    let u = |path: &str| {
        v.path(path)
            .and_then(Value::as_f64)
            .map(|x| x as u64)
            .ok_or_else(|| format!("report without '{path}'"))
    };
    let b = |path: &str| match v.path(path) {
        Some(Value::Bool(x)) => Ok(*x),
        _ => Err(format!("report without '{path}'")),
    };
    let strategy = |s: Option<&Value>| -> Result<Strategy, String> {
        s.and_then(Value::as_str).ok_or("missing strategy")?.parse()
    };
    let arr = |path: &str| -> Result<&[Value], String> {
        v.path(path)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("report without '{path}'"))
    };
    let labels: Vec<u64> = arr("labels")?
        .iter()
        .filter_map(Value::as_f64)
        .map(|x| x as u64)
        .collect();
    let order: Vec<u32> = arr("order")?
        .iter()
        .filter_map(Value::as_f64)
        .map(|x| x as u32)
        .collect();
    let kind_name = v
        .path("stats.bound.kind")
        .and_then(Value::as_str)
        .unwrap_or("");
    let kind = BoundKind::ALL
        .into_iter()
        .find(|k| k.name() == kind_name)
        .ok_or_else(|| format!("unknown bound kind '{kind_name}'"))?;
    let phases = match v.path("stats.phases").and_then(Value::as_arr) {
        Some(items) => items
            .iter()
            .map(|p| PhaseStat {
                name: p
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                calls: p.get("calls").and_then(Value::as_f64).unwrap_or(0.0) as u64,
                total_us: p.get("total_us").and_then(Value::as_f64).unwrap_or(0.0) as u64,
            })
            .collect(),
        None => Vec::new(),
    };
    let oracle = match v.path("stats.oracle") {
        Some(_) => Some(OracleStats {
            backend: v
                .path("stats.oracle.backend")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            builds: u("stats.oracle.builds")? as usize,
            label_entries: u("stats.oracle.label_entries")?,
            footprint_bytes: u("stats.oracle.footprint_bytes")?,
            queries: u("stats.oracle.queries")?,
            dense_fallback: b("stats.oracle.dense_fallback")?,
        }),
        None => None,
    };
    let features = InstanceFeatures {
        n: u("stats.features.n")? as usize,
        m: u("stats.features.m")? as usize,
        max_degree: u("stats.features.max_degree")? as usize,
        diameter: v
            .path("stats.features.diameter")
            .and_then(Value::as_f64)
            .map(|d| d as u32),
        k: u("stats.features.k")? as usize,
        smooth: b("stats.features.smooth")?,
        all_ones: b("stats.features.all_ones")?,
        two_valued: b("stats.features.two_valued")?,
        cograph: b("stats.features.cograph")?,
    };
    let labeling = Labeling::new(labels);
    Ok(SolveReport {
        solution: Solution {
            span: u("span")?,
            order,
            labeling,
        },
        strategy_requested: strategy(v.get("strategy_requested"))?,
        strategy_used: strategy(v.get("strategy_used"))?,
        lower_bound: u("lower_bound")?,
        optimal: b("optimal")?,
        stats: EngineStats {
            reductions_computed: u("stats.reductions_computed")? as usize,
            routes_tried: arr("stats.routes_tried")?
                .iter()
                .map(|s| strategy(Some(s)))
                .collect::<Result<_, _>>()?,
            notes: arr("stats.notes")?
                .iter()
                .filter_map(Value::as_str)
                .map(str::to_string)
                .collect(),
            timed_out: b("stats.timed_out")?,
            bound: BoundStats {
                kind,
                value: u("stats.bound.value")?,
                ascent_iters: u("stats.bound.ascent_iters")?,
                time_us: u("stats.bound.time_us")?,
            },
            features,
            phases,
            oracle,
        },
    })
}

/// Replay one served request's inputs through the layers' public
/// functions. Returns the replay times keyed by layer.
fn replay_served(
    workload: Workload,
    inst: &Instance,
    body: &str,
    answered: bool,
    cache: &ReportCache,
    store: &Store,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut t = BTreeMap::new();
    let (graph, us) = time(|| io::parse(&inst.body, io::Format::EdgeList));
    let graph = graph.map_err(|e| format!("replayed parse failed: {e}"))?;
    t.insert("graph.io.parse", us);
    let pvec = inst.pvec();
    let (key, us) =
        time(|| CacheKey::for_request(&graph, &pvec, inst.strategy, inst.budget(), inst.oracle));
    t.insert("graph.canon", us);
    if !answered {
        return Ok(t);
    }
    let report = report_from_json(&json::parse(body)?)?;
    if report.to_json() != body {
        return Err("rebuilt report does not re-encode to the response bytes".into());
    }
    let warm = workload == Workload::WarmRepeat;
    if warm && cache.get(&key).is_none() {
        cache.put(&key, &report);
    }
    let (_, us) = time(|| cache.get(&key));
    t.insert("serve.cache.get", us);
    if !warm {
        cache.put(&key, &report);
    }
    let (_, us) = time(|| report.to_json());
    t.insert("engine.report.json", us);
    if warm {
        // Hits never reach the engine or the archive.
        return Ok(t);
    }
    let (_, us) = time(|| InstanceFeatures::extract(&graph, &pvec));
    t.insert("engine.features", us);
    let (_, us) = time(|| dclab_graph::diameter::diameter(&graph));
    t.insert("graph.diameter", us);
    let (_, us) = time(|| binary::report_to_bytes(&report));
    t.insert("engine.binary.encode", us);
    if !report.stats.timed_out {
        let (appended, us) = time(|| persist::store_append(store, &key, &report));
        appended.map_err(|e| format!("replayed archive append failed: {e}"))?;
        t.insert("store.append", us);
    }
    Ok(t)
}

/// Replay one direct oracle solve's inputs.
fn replay_direct(inst: &Instance, report: &SolveReport) -> BTreeMap<&'static str, f64> {
    let mut t = BTreeMap::new();
    let pvec = inst.pvec();
    let (_, us) = time(|| InstanceFeatures::extract(&inst.graph, &pvec));
    t.insert("engine.features", us);
    let (_, us) = time(|| dclab_graph::diameter::diameter(&inst.graph));
    t.insert("graph.diameter", us);
    let (_, us) = time(|| HubLabels::build(&inst.graph));
    t.insert("oracle.build_direct", us);
    let (_, us) = time(|| report.to_json());
    t.insert("engine.report.json", us);
    let (_, us) = time(|| binary::report_to_bytes(report));
    t.insert("engine.binary.encode", us);
    t
}

/// `/metrics` counter deltas between two JSON scrapes.
pub struct MetricDeltas {
    pub hits: f64,
    pub misses: f64,
    pub coalesced: f64,
    pub shed: f64,
    pub appends: f64,
}

impl MetricDeltas {
    pub fn between(before: &Value, after: &Value) -> MetricDeltas {
        let d = |path: &str| {
            let get = |v: &Value| v.path(path).and_then(Value::as_f64).unwrap_or(0.0);
            get(after) - get(before)
        };
        MetricDeltas {
            hits: d("cache.hits"),
            misses: d("cache.misses"),
            coalesced: d("cache.coalesced"),
            shed: d("rejected_overload") + d("serve.rejected_conn_budget"),
            appends: d("store.appends"),
        }
    }
}

/// Everything the traced run measured, ready to analyse.
pub struct TracedRun<'a> {
    pub workload: Workload,
    pub untraced: &'a Phase,
    pub traced: &'a Phase,
    pub deltas: Option<MetricDeltas>,
    pub work_dir: &'a Path,
}

/// Compute every per-layer metric and print the waterfall.
pub fn analyse(run: &TracedRun<'_>) -> Result<Vec<Metric>, String> {
    let tail_q = crate::workloads::TAIL_QUANTILE;
    let store_dir = run.work_dir.join("replay-store");
    let (store, _) = Store::open(&store_dir).map_err(|e| format!("open replay archive: {e}"))?;
    let cache = ReportCache::new(256 << 20);
    let mut rows = Vec::new();
    let mut missing_traces = 0usize;
    let mut oracle_query_us = 0.0;
    let mut parse_bytes = 0.0;
    for rec in run.traced.records.iter().take(MAX_REPLAYED) {
        let Some(tr) = &rec.traced else { continue };
        let answered = matches!(rec.outcome, Outcome::Answered(_));
        if !answered && !matches!(rec.outcome, Outcome::Refused) {
            continue;
        }
        let mut layers = match &tr.report {
            Some(report) => replay_direct(&tr.inst, report),
            None => replay_served(run.workload, &tr.inst, &tr.body, answered, &cache, &store)?,
        };
        let root = tr
            .spans
            .iter()
            .find(|s| s.name == "request")
            .or_else(|| tr.spans.iter().find(|s| s.name == "solve" && s.parent == 0));
        let Some(root) = root else {
            missing_traces += 1;
            continue;
        };
        let spans = attribute(&tr.spans, root);
        for (layer, us) in &spans {
            *layers.entry(layer).or_insert(0.0) += us;
        }
        let solve_us: u64 = tr
            .spans
            .iter()
            .filter(|s| s.name == "solve")
            .map(|s| s.dur_us)
            .sum();
        if solve_us > 0 {
            layers.insert("engine.solve", solve_us as f64);
        }
        oracle_query_us += tr
            .spans
            .iter()
            .filter(|s| s.name == "oracle_query")
            .map(|s| s.dur_us as f64)
            .sum::<f64>();
        let outside = (rec.latency_us - root.dur_us as f64).max(0.0);
        if root.name == "request" {
            layers.insert("serve.outside_span", outside);
            let replayed: f64 = ["graph.io.parse", "graph.canon", "engine.report.json"]
                .iter()
                .filter_map(|k| layers.get(k))
                .sum();
            layers.insert("serve.wait_and_io", (outside - replayed).max(0.0));
        } else {
            // A direct solve: the little outside the root span is call
            // overhead inside the engine's entry point.
            *layers.entry("engine.untraced").or_insert(0.0) += outside;
        }
        parse_bytes += tr.inst.body.len() as f64;
        rows.push(Row {
            latency_us: rec.latency_us,
            layers,
            spans,
        });
    }
    store
        .close_clean()
        .map_err(|e| format!("close replay archive: {e}"))?;
    drop(store);
    let _ = std::fs::remove_dir_all(&store_dir);

    let total_latency: f64 = rows.iter().map(|r| r.latency_us).sum::<f64>().max(1e-9);
    let mut metrics = Vec::new();
    for layer in TIMED {
        let values: Vec<f64> = rows
            .iter()
            .filter_map(|r| r.layers.get(layer).copied())
            .collect();
        let sum: f64 = values.iter().sum();
        metrics.push(Metric::new(
            format!("{layer}.p50_us"),
            median(&values),
            "us",
        ));
        metrics.push(Metric::new(
            format!("{layer}.tail_us"),
            quantile(&values, tail_q),
            "us",
        ));
        metrics.push(Metric::new(
            format!("{layer}.share"),
            sum / total_latency,
            "ratio",
        ));
    }

    let untraced: f64 = rows
        .iter()
        .map(|r| {
            let inside: f64 = ["serve.request_self", "engine.untraced"]
                .iter()
                .filter_map(|k| r.layers.get(k))
                .sum();
            r.layers.get("serve.outside_span").copied().unwrap_or(0.0) + inside
        })
        .sum::<f64>()
        / total_latency;

    let answers: Vec<&crate::check::Answer> = run
        .traced
        .records
        .iter()
        .filter_map(|r| match &r.outcome {
            Outcome::Answered(a) => Some(a),
            _ => None,
        })
        .collect();
    let attempted = run.traced.records.len().max(1) as f64;
    let failed = run
        .traced
        .records
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Failed(_)))
        .count() as f64;
    let n_ans = answers.len().max(1) as f64;
    let frac = |f: &dyn Fn(&crate::check::Answer) -> bool| {
        answers.iter().filter(|a| f(a)).count() as f64 / n_ans
    };
    let mean = |f: &dyn Fn(&crate::check::Answer) -> f64| {
        answers.iter().map(|a| f(a)).sum::<f64>() / n_ans
    };
    let parse_us: f64 = rows
        .iter()
        .filter_map(|r| r.layers.get("graph.io.parse"))
        .sum();
    let queries: f64 = answers
        .iter()
        .filter_map(|a| a.oracle)
        .map(|o| o.0 as f64)
        .sum();
    let overhead =
        median(&run.traced.latencies()) / median(&run.untraced.latencies()).max(1e-9) - 1.0;
    let deltas = run.deltas.as_ref();
    let hit_rate = deltas.map_or(0.0, |d| {
        if d.hits + d.misses > 0.0 {
            d.hits / (d.hits + d.misses)
        } else {
            0.0
        }
    });
    let counts = [
        hit_rate,
        deltas.map_or(0.0, |d| d.coalesced),
        deltas.map_or(0.0, |d| d.shed),
        deltas.map_or(0.0, |d| d.appends),
        if parse_us > 0.0 {
            parse_bytes / parse_us
        } else {
            0.0
        },
        mean(&|a| a.reductions as f64),
        frac(&|a| a.bound_kind == "degree"),
        frac(&|a| a.bound_kind == "one-tree"),
        frac(&|a| a.bound_kind == "hk-ascent"),
        frac(&|a| a.bound_kind == "proved-optimal"),
        frac(&|a| a.timed_out),
        mean(&|a| a.oracle.map_or(0.0, |o| o.0 as f64)),
        if queries > 0.0 {
            oracle_query_us * 1e3 / queries
        } else {
            0.0
        },
        mean(&|a| a.oracle.map_or(0.0, |o| o.1 as f64)),
        untraced,
        overhead,
        mean(&|a| a.gap()),
        frac(&|a| a.optimal),
        failed / attempted,
    ];
    for ((name, unit), value) in COUNTS.iter().zip(counts) {
        metrics.push(Metric::new(name.to_string(), value, unit));
    }

    print_waterfall(run.workload, &rows, total_latency, untraced, missing_traces);
    Ok(metrics)
}

fn print_waterfall(
    workload: Workload,
    rows: &[Row],
    total_latency: f64,
    untraced: f64,
    missing_traces: usize,
) {
    let share =
        |layer: &str| rows.iter().filter_map(|r| r.layers.get(layer)).sum::<f64>() / total_latency;
    println!(
        "waterfall {} — {} traced requests, summed client latency {:.3} s{}",
        workload.name(),
        rows.len(),
        total_latency / 1e6,
        if missing_traces > 0 {
            format!(" ({missing_traces} without a retained trace, left out)")
        } else {
            String::new()
        }
    );
    let mut traced_rows: Vec<(&str, f64)> = Vec::new();
    for row in rows {
        for (layer, us) in &row.spans {
            if UNTRACED_ROWS.contains(layer) {
                continue;
            }
            match traced_rows.iter_mut().find(|(l, _)| l == layer) {
                Some((_, s)) => *s += us / total_latency,
                None => traced_rows.push((layer, us / total_latency)),
            }
        }
    }
    traced_rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let traced_total: f64 = traced_rows.iter().map(|r| r.1).sum();
    println!(
        "  {:<34} {:>8}",
        "layer (self time, program spans)", "share"
    );
    for (layer, s) in &traced_rows {
        println!("  {layer:<34} {s:>8.4}");
    }
    println!("  {:<34} {:>8.4}", "waterfall.untraced_share", untraced);
    for layer in UNTRACED_ROWS {
        let s = share(layer);
        if s > 0.0 {
            let note = if ["graph.io.parse", "graph.canon", "engine.report.json"].contains(&layer) {
                " (replayed in-process)"
            } else {
                ""
            };
            println!("    {layer:<32} {s:>8.4}{note}");
        }
    }
    println!("  {:<34} {:>8.4}", "total", traced_total + untraced);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &str, start_us: u64, dur_us: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name: name.to_string(),
            start_us,
            dur_us,
        }
    }

    #[test]
    fn attribution_adds_up_to_the_root_and_splits_parallel_spans() {
        let spans = vec![
            span(1, 0, "request", 0, 100),
            span(2, 1, "solve", 10, 80),
            span(3, 2, "race", 20, 60),
            span(4, 3, "member", 20, 60),
            span(5, 3, "member", 20, 30),
            span(6, 4, "lk", 30, 20),
        ];
        let t = attribute(&spans, &spans[0]);
        let total: f64 = t.values().sum();
        assert!((total - 100.0).abs() < 1e-9, "{t:?}");
        assert_eq!(t["serve.request_self"], 20.0);
        assert_eq!(t["engine.untraced"], 20.0);
        assert_eq!(t["tsp.lk"], 20.0);
        // 20..30 split between two members, 30..50 lk only, 50..80 one member.
        assert_eq!(t["tsp.race"], 40.0);
    }
}
