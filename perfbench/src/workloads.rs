//! Workload definitions: what each workload sends, generated from the seed.
//!
//! Every instance has diameter ≤ 2 (or is a deliberate out-of-scope request
//! that must be refused), so the answer checker can validate labelings
//! without the reduction. Request `i` of a workload is a pure function of
//! `(seed, i)`: the same seed replays the same list, and deadline-free
//! answers repeat exactly.

use std::sync::Arc;

use dclab_core::pvec::PVec;
use dclab_engine::{Budget, OraclePolicy, Strategy};
use dclab_graph::generators::{classic, random};
use dclab_graph::io;
use dclab_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    WarmRepeat,
    ColdMixed,
    OracleLarge,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "warm-repeat" => Some(Workload::WarmRepeat),
            "cold-mixed" => Some(Workload::ColdMixed),
            "oracle-large" => Some(Workload::OracleLarge),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmRepeat => "warm-repeat",
            Workload::ColdMixed => "cold-mixed",
            Workload::OracleLarge => "oracle-large",
        }
    }

    /// The quality metrics are taken over requests `0..quality_prefix()`,
    /// which every run completes, so they repeat exactly for a seed.
    pub fn quality_prefix(self) -> usize {
        match self {
            Workload::WarmRepeat => 2 * WARM_ORDER_LEN,
            Workload::ColdMixed => 4 * COLD_CYCLE,
            Workload::OracleLarge => ORACLE_INSTANCES,
        }
    }
}

/// Quantile reported as `latency_tail_ms`. p90 keeps at least ten samples
/// beyond it on the server workloads (hundreds to thousands of requests a
/// run); the p99 of `warm-repeat` spread 20% between runs of the same code
/// on a shared host, its p90 about 5%. `oracle-large` completes only
/// about a dozen solves a run, so its p90 has fewer than ten beyond it; the
/// run prints the count.
pub const TAIL_QUANTILE: f64 = 0.90;

/// One request body and what the checker needs to judge its answer.
pub struct Instance {
    /// The graph in the requester's own vertex ids.
    pub graph: Graph,
    /// Edge-list body as sent (empty for direct engine solves).
    pub body: String,
    /// `p = (p1, p2)` with `p1 ≥ p2`.
    pub p: [u64; 2],
    pub strategy: Strategy,
    pub deadline_ms: Option<u64>,
    pub oracle: OraclePolicy,
    /// Out of scope on purpose: the server must answer 422.
    pub expect_refusal: bool,
    /// Identity for the byte-identical-repeat check (`None`: never repeated).
    pub repeat_key: Option<usize>,
}

impl Instance {
    fn new(graph: Graph, p: [u64; 2], strategy: Strategy, with_body: bool) -> Instance {
        let body = if with_body {
            io::write_edge_list(&graph)
        } else {
            String::new()
        };
        Instance {
            graph,
            body,
            p,
            strategy,
            deadline_ms: None,
            oracle: OraclePolicy::Auto,
            expect_refusal: false,
            repeat_key: None,
        }
    }

    /// Request target, query string included.
    pub fn target(&self) -> String {
        let mut t = format!(
            "/solve?p={},{}&strategy={}",
            self.p[0],
            self.p[1],
            self.strategy.name()
        );
        if let Some(ms) = self.deadline_ms {
            t.push_str(&format!("&deadline-ms={ms}"));
        }
        t
    }

    pub fn pvec(&self) -> PVec {
        PVec::new(self.p.to_vec()).expect("workload p-vectors are valid")
    }

    pub fn budget(&self) -> Budget {
        Budget {
            deadline_ms: self.deadline_ms,
            ..Budget::default()
        }
    }
}

/// Independent RNG stream per `(seed, stream, index)`.
fn rng_for(seed: u64, stream: u64, i: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, stream, i))
}

fn mix(seed: u64, stream: u64, i: u64) -> u64 {
    // SplitMix64 finalizer over a combination of the three words.
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(i.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `g` with vertex `v` renamed `perm[v]`. Edges are inserted in sorted
/// order, so every adjacency insert appends (linear in `m`, unlike
/// `Graph::relabeled` on a random permutation of a dense graph).
fn relabel(g: &Graph, perm: &[usize]) -> Graph {
    let mut edges: Vec<(usize, usize)> = g
        .edges()
        .map(|(u, v)| {
            let (a, b) = (perm[u], perm[v]);
            (a.min(b), a.max(b))
        })
        .collect();
    edges.sort_unstable();
    Graph::from_edges(g.n(), &edges)
}

fn gnp_half(rng: &mut StdRng, n: usize) -> Graph {
    random::gnp_with_diameter_at_most(rng, n, 0.5, 2)
}

// ---------------------------------------------------------------- warm-repeat

/// Distinct instances primed into the cache.
pub const WARM_BASES: usize = 16;
/// Random relabelings generated per primed instance.
const WARM_RELABELINGS: usize = 4;
/// Length of the cyclic request order.
pub const WARM_ORDER_LEN: usize = 2 * WARM_BASES * WARM_RELABELINGS;

pub struct WarmCorpus {
    /// `0..WARM_BASES` are the primed instances; the rest are relabelings.
    pub instances: Vec<Arc<Instance>>,
    /// Request `i` sends `instances[order[i % order.len()]]`: even slots
    /// repeat a primed body byte for byte, odd slots send a relabeling.
    pub order: Vec<usize>,
}

impl WarmCorpus {
    pub fn request(&self, i: usize) -> Arc<Instance> {
        Arc::clone(&self.instances[self.order[i % self.order.len()]])
    }
}

/// Sixteen diameter-2 G(n,½) instances under `p=(2,1)` and
/// `strategy=heuristic`, plus four relabelings of each. Six have n=128 and
/// ten n=512, so the median request is an n=512 hit rather than the gap
/// between the two sizes.
pub fn warm_corpus(seed: u64) -> WarmCorpus {
    use rand::seq::SliceRandom;
    let mut rng = rng_for(seed, 1, 0);
    let mut instances = Vec::new();
    for j in 0..WARM_BASES {
        let n = if j % 3 == 0 { 128 } else { 512 };
        let mut inst = Instance::new(gnp_half(&mut rng, n), [2, 1], Strategy::Heuristic, true);
        inst.repeat_key = Some(j);
        instances.push(inst);
    }
    for j in 0..WARM_BASES {
        for _ in 0..WARM_RELABELINGS {
            let perm = random::random_permutation(&mut rng, instances[j].graph.n());
            let g = relabel(&instances[j].graph, &perm);
            let mut inst = Instance::new(g, [2, 1], Strategy::Heuristic, true);
            inst.repeat_key = Some(instances.len());
            instances.push(inst);
        }
    }
    let mut repeats: Vec<usize> = (0..WARM_BASES)
        .flat_map(|j| std::iter::repeat_n(j, WARM_RELABELINGS))
        .collect();
    let mut relabelings: Vec<usize> = (WARM_BASES..instances.len()).collect();
    repeats.shuffle(&mut rng);
    relabelings.shuffle(&mut rng);
    let order = repeats
        .iter()
        .zip(&relabelings)
        .flat_map(|(&a, &b)| [a, b])
        .collect();
    WarmCorpus {
        instances: instances.into_iter().map(Arc::new).collect(),
        order,
    }
}

// ----------------------------------------------------------------- cold-mixed

/// Deadline of the raced class: the only requests that arm
/// `par::cancel::Deadline`, the root Held–Karp slice, the shared incumbent
/// and the armed race order.
pub const RACE_DEADLINE_MS: u64 = 50;

/// `(n, Griggs–Yeh?, strategy, p, deadline, slots per cycle)` per request
/// class. n=512 holds 21 of 30 slots, so the bulk of the latencies is n=512
/// work rather than a gap between classes. `auto` stays at n=128: its branch
/// and bound on G(n,½) is heavy-tailed from n=256 up (seconds to tens of
/// seconds on single instances), which no fixed-length run absorbs. The
/// raced Griggs–Yeh class is the one class whose answers depend on the
/// clock.
type ColdClass = (usize, bool, Strategy, [u64; 2], Option<u64>, usize);

const COLD_CLASSES: [ColdClass; 11] = [
    (512, false, Strategy::Heuristic, [2, 1], None, 10),
    (512, false, Strategy::Heuristic, [3, 2], None, 8),
    (512, true, Strategy::Race, [2, 1], Some(RACE_DEADLINE_MS), 3),
    (256, false, Strategy::Heuristic, [2, 1], None, 1),
    (256, false, Strategy::Heuristic, [3, 2], None, 1),
    (128, false, Strategy::Heuristic, [2, 1], None, 1),
    (128, false, Strategy::Heuristic, [3, 2], None, 1),
    (128, false, Strategy::Auto, [2, 1], None, 1),
    (128, false, Strategy::Auto, [3, 2], None, 1),
    (128, true, Strategy::Heuristic, [2, 1], None, 1),
    (256, true, Strategy::Heuristic, [2, 1], None, 1),
];

/// Slots per cycle: every class slot plus one out-of-scope request (~3%).
pub const COLD_CYCLE: usize = 30;

const _: () = {
    let (mut slots, mut c) = (0, 0);
    while c < COLD_CLASSES.len() {
        slots += COLD_CLASSES[c].5;
        c += 1;
    }
    assert!(slots + 1 == COLD_CYCLE);
};

/// Class of slot `s < COLD_CYCLE - 1`: round-robin over the classes that
/// still have slots left in the round, so heavy classes interleave.
fn cold_class(slot: usize) -> &'static ColdClass {
    let mut k = 0;
    for round in 0.. {
        for class in &COLD_CLASSES {
            if class.5 > round {
                if k == slot {
                    return class;
                }
                k += 1;
            }
        }
    }
    unreachable!("slot within the cycle")
}

/// Request `i` of `cold-mixed`: a fresh instance, never a cache hit.
pub fn cold_request(seed: u64, i: usize) -> Arc<Instance> {
    let slot = i % COLD_CYCLE;
    let mut rng = rng_for(seed, 2, i as u64);
    if slot == COLD_CYCLE - 1 {
        // Out of scope: a path has diameter n−1 > |p|, so the Theorem 2
        // route must refuse it with a typed 422.
        let n = 48 + (mix(seed, 3, i as u64) % 32) as usize;
        let perm = random::random_permutation(&mut rng, n);
        let g = relabel(&classic::path(n), &perm);
        let mut inst = Instance::new(g, [2, 1], Strategy::Heuristic, true);
        inst.expect_refusal = true;
        return Arc::new(inst);
    }
    let &(n, griggs_yeh, strategy, p, deadline_ms, _) = cold_class(slot);
    let g = if griggs_yeh {
        dclab_bench::hardness_diam2(n, mix(seed, 4, i as u64))
    } else {
        gnp_half(&mut rng, n)
    };
    let mut inst = Instance::new(g, p, strategy, true);
    inst.deadline_ms = deadline_ms;
    Arc::new(inst)
}

/// Stream offset for warm-up requests, so they never share an instance
/// with the measured list.
pub const WARMUP_OFFSET: usize = 1 << 40;

// --------------------------------------------------------------- oracle-large

pub const ORACLE_N: usize = 20_000;
pub const ORACLE_CORE: usize = 64;
/// Distinct instances (seeded relabelings); solves cycle through them.
pub const ORACLE_INSTANCES: usize = 3;

/// Core–periphery graphs (`dclab gen smalldiam`'s family) at n=20 000 with
/// a 64-vertex core, each under its own seeded relabeling.
pub fn oracle_instances(seed: u64) -> Vec<Arc<Instance>> {
    let mut rng = rng_for(seed, 6, 0);
    let base = random::core_periphery(&mut rng, ORACLE_N, ORACLE_CORE, 0.0);
    (0..ORACLE_INSTANCES)
        .map(|_| {
            let perm = random::random_permutation(&mut rng, ORACLE_N);
            let mut inst =
                Instance::new(relabel(&base, &perm), [2, 1], Strategy::OraclePath, false);
            inst.oracle = OraclePolicy::Hub;
            Arc::new(inst)
        })
        .collect()
}
