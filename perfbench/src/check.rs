//! Independent answer checker.
//!
//! Every answered instance has diameter ≤ 2, so a labeling is valid iff all
//! labels are pairwise ≥ p₂ apart and labels on edges are ≥ p₁ apart
//! (p₁ ≥ p₂). That is an O(n log n + m) check on the requester's own vertex
//! ids which uses neither the Theorem 2 reduction nor
//! `Labeling::validate`. The certificate fields are checked against the
//! labeling: span = max label ≥ lower_bound, `optimal` ⇒ span =
//! lower_bound, and the reported gap matches the one recomputed here.

use std::collections::HashMap;
use std::sync::Mutex;

use dclab_engine::json::{self, Value};
use dclab_engine::SolveReport;
use dclab_graph::Graph;

use crate::workloads::Instance;

/// What the bench keeps of a checked answer.
#[derive(Clone, Debug)]
pub struct Answer {
    pub span: u64,
    pub lower_bound: u64,
    pub optimal: bool,
    pub timed_out: bool,
    pub bound_kind: String,
    pub reductions: u64,
    /// `(queries, footprint_bytes)` of an oracle-routed solve.
    pub oracle: Option<(u64, u64)>,
    /// The request had a deadline, so the answer depends on the clock.
    pub deadline: bool,
}

impl Answer {
    /// `(span − lower_bound) / lower_bound`, recomputed by the bench.
    pub fn gap(&self) -> f64 {
        if self.lower_bound == 0 {
            0.0
        } else {
            (self.span - self.lower_bound) as f64 / self.lower_bound as f64
        }
    }
}

#[derive(Clone, Debug)]
pub enum Outcome {
    Answered(Answer),
    /// The expected 422 for an out-of-scope request.
    Refused,
    /// Transport error, unexpected status, or an answer the checker rejects.
    Failed(String),
}

/// Fields of an answer as reported, before checking.
struct Reported<'a> {
    labels: Vec<u64>,
    span: u64,
    lower_bound: u64,
    optimal: bool,
    gap: Option<f64>,
    reductions: u64,
    timed_out: bool,
    bound_kind: &'a str,
    oracle: Option<(u64, u64)>,
}

/// Checks answers and remembers bodies so byte-identical requests can be
/// held to byte-identical responses.
#[derive(Default)]
pub struct Checker {
    first_body: Mutex<HashMap<usize, String>>,
}

impl Checker {
    /// Judge one HTTP response to `inst`.
    pub fn check_http(&self, inst: &Instance, status: u16, body: &str) -> Outcome {
        if inst.expect_refusal {
            return if status == 422 {
                Outcome::Refused
            } else {
                Outcome::Failed(format!("out-of-scope request got {status}, expected 422"))
            };
        }
        if status != 200 {
            let head: String = body.chars().take(160).collect();
            return Outcome::Failed(format!("status {status}: {head}"));
        }
        if let Some(key) = inst.repeat_key {
            let mut first = self.first_body.lock().expect("checker lock poisoned");
            match first.get(&key) {
                Some(seen) if seen != body => {
                    return Outcome::Failed(format!(
                        "byte-identical request {key} got a different response body"
                    ))
                }
                Some(_) => {}
                None => {
                    first.insert(key, body.to_string());
                }
            }
        }
        match json::parse(body)
            .map_err(|e| format!("response is not JSON: {e}"))
            .and_then(|v| reported_from_json(&v).and_then(|r| verify(inst, r)))
        {
            Ok(answer) => Outcome::Answered(answer),
            Err(reason) => Outcome::Failed(reason),
        }
    }

    /// Judge a report returned by a direct `dclab_engine::solve` call.
    pub fn check_report(&self, inst: &Instance, report: &SolveReport) -> Outcome {
        let reported = Reported {
            labels: report.solution.labeling.labels().to_vec(),
            span: report.solution.span,
            lower_bound: report.lower_bound,
            optimal: report.optimal,
            gap: report.gap(),
            reductions: report.stats.reductions_computed as u64,
            timed_out: report.stats.timed_out,
            bound_kind: report.stats.bound.kind.name(),
            oracle: report
                .stats
                .oracle
                .as_ref()
                .map(|o| (o.queries, o.footprint_bytes)),
        };
        match verify(inst, reported) {
            Ok(answer) => Outcome::Answered(answer),
            Err(reason) => Outcome::Failed(reason),
        }
    }
}

fn num(v: &Value, path: &str) -> Result<u64, String> {
    v.path(path)
        .and_then(Value::as_f64)
        .filter(|x| *x >= 0.0 && x.fract() == 0.0)
        .map(|x| x as u64)
        .ok_or_else(|| format!("missing or non-integer '{path}'"))
}

fn flag(v: &Value, path: &str) -> Result<bool, String> {
    match v.path(path) {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(format!("missing boolean '{path}'")),
    }
}

fn reported_from_json(v: &Value) -> Result<Reported<'_>, String> {
    let labels = v
        .get("labels")
        .and_then(Value::as_arr)
        .ok_or("missing 'labels'")?
        .iter()
        .map(|x| {
            x.as_f64()
                .filter(|x| *x >= 0.0 && x.fract() == 0.0)
                .map(|x| x as u64)
                .ok_or_else(|| "non-integer label".to_string())
        })
        .collect::<Result<Vec<u64>, String>>()?;
    let oracle = match v.path("stats.oracle") {
        Some(_) => Some((
            num(v, "stats.oracle.queries")?,
            num(v, "stats.oracle.footprint_bytes")?,
        )),
        None => None,
    };
    Ok(Reported {
        labels,
        span: num(v, "span")?,
        lower_bound: num(v, "lower_bound")?,
        optimal: flag(v, "optimal")?,
        gap: v.get("gap").and_then(Value::as_f64),
        reductions: num(v, "stats.reductions_computed")?,
        timed_out: flag(v, "timed_out")?,
        bound_kind: v
            .path("stats.bound.kind")
            .and_then(Value::as_str)
            .ok_or("missing 'stats.bound.kind'")?,
        oracle,
    })
}

fn verify(inst: &Instance, r: Reported<'_>) -> Result<Answer, String> {
    check_labeling(&inst.graph, inst.p, &r.labels)?;
    let max = r.labels.iter().copied().max().unwrap_or(0);
    if r.span != max {
        return Err(format!("span {} but max label {max}", r.span));
    }
    if r.span < r.lower_bound {
        return Err(format!(
            "span {} below lower bound {}",
            r.span, r.lower_bound
        ));
    }
    if r.optimal && r.span != r.lower_bound {
        return Err(format!(
            "optimal=true but span {} != lower bound {}",
            r.span, r.lower_bound
        ));
    }
    if r.reductions > 1 {
        return Err(format!(
            "{} reductions computed for one request",
            r.reductions
        ));
    }
    let answer = Answer {
        span: r.span,
        lower_bound: r.lower_bound,
        optimal: r.optimal,
        timed_out: r.timed_out,
        bound_kind: r.bound_kind.to_string(),
        reductions: r.reductions,
        oracle: r.oracle,
        deadline: inst.deadline_ms.is_some(),
    };
    if let Some(gap) = r.gap {
        // The report prints the gap with six decimals.
        if (gap - answer.gap()).abs() > 1e-6 {
            return Err(format!("reported gap {gap} != recomputed {}", answer.gap()));
        }
    }
    Ok(answer)
}

/// Validity of `labels` on a diameter-≤2 graph under `p = (p1, p2)`.
pub fn check_labeling(g: &Graph, p: [u64; 2], labels: &[u64]) -> Result<(), String> {
    let [p1, p2] = p;
    debug_assert!(p1 >= p2);
    if labels.len() != g.n() {
        return Err(format!("{} labels for {} vertices", labels.len(), g.n()));
    }
    let mut sorted = labels.to_vec();
    sorted.sort_unstable();
    if let Some(w) = sorted.windows(2).find(|w| w[1] - w[0] < p2) {
        return Err(format!(
            "labels {} and {} are closer than p2={p2}",
            w[0], w[1]
        ));
    }
    if let Some((u, v)) = g.edges().find(|&(u, v)| labels[u].abs_diff(labels[v]) < p1) {
        return Err(format!(
            "edge {u}-{v} has labels {} and {}, closer than p1={p1}",
            labels[u], labels[v]
        ));
    }
    Ok(())
}

/// Diameter ≤ 2, checked once per generated instance family during set-up.
/// A universal vertex settles it in O(n); otherwise BFS decides.
pub fn diameter_at_most_two(g: &Graph) -> bool {
    let n = g.n();
    (0..n).any(|v| g.degree(v) + 1 == n) || dclab_graph::diameter::has_diameter_at_most(g, 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dclab_graph::generators::classic;

    #[test]
    fn accepts_valid_and_rejects_broken_labelings() {
        // Star K_{1,3}: centre 0. L(2,1) optimum spreads the leaves 1 apart
        // and keeps the centre 2 away from each.
        let g = classic::star(4);
        assert!(check_labeling(&g, [2, 1], &[0, 2, 3, 4]).is_ok());
        // Centre adjacent to a leaf only 1 apart.
        assert!(check_labeling(&g, [2, 1], &[0, 1, 3, 4]).is_err());
        // Two leaves share a label.
        assert!(check_labeling(&g, [2, 1], &[0, 2, 3, 3]).is_err());
        // Wrong length.
        assert!(check_labeling(&g, [2, 1], &[0, 2, 3]).is_err());
    }

    #[test]
    fn diameter_two_families_are_recognised() {
        assert!(diameter_at_most_two(&classic::star(6)));
        assert!(!diameter_at_most_two(&classic::path(5)));
    }
}
