//! Property-based test suites (proptest) over the core invariants of the
//! paper and the substrates.

use dclab::core::reduction::{reduce_to_path_tsp, reduce_unchecked, span_for_permutation};
use dclab::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Random connected graph from a seed (proptest shrinks over the seed and
/// size, which is good enough for graph-shaped inputs).
fn connected_graph(seed: u64, n: usize, density: f64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    dclab::graph::generators::random::connected_gnp(&mut rng, n, density.max(0.45))
}

fn smooth_pvec(raw: (u64, u64, u64)) -> PVec {
    // Force p_max ≤ 2·p_min by clamping entries into [base, 2·base].
    let base = 1 + raw.0 % 4;
    let e2 = base + raw.1 % (base + 1);
    let e3 = base + raw.2 % (base + 1);
    PVec::new(vec![e2.min(2 * base), e3.min(2 * base), base]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The reduced instance is metric whenever p is smooth (Theorem 2's
    /// triangle-inequality argument).
    #[test]
    fn reduced_instance_is_metric(seed in any::<u64>(), raw in any::<(u64, u64, u64)>()) {
        let g = connected_graph(seed, 8, 0.5);
        let p = smooth_pvec(raw);
        prop_assume!(dclab::graph::diameter::diameter(&g).unwrap() as usize <= p.k());
        let r = reduce_to_path_tsp(&g, &p).unwrap();
        prop_assert!(r.tsp.is_metric());
        if let Some((min, max)) = r.tsp.weight_range() {
            prop_assert!(min >= p.pmin() && max <= 2 * p.pmin());
        }
    }

    /// Claim 1: for ANY permutation π, the minimal span of a labeling
    /// sorted by π equals the weight of the Hamiltonian path π in H.
    /// The left side is computed with the full max-over-predecessors
    /// formula, independent of Claim 1's telescoping argument.
    #[test]
    fn claim1_per_permutation(seed in any::<u64>(), perm_seed in any::<u64>()) {
        let g = connected_graph(seed, 8, 0.5);
        let p = PVec::l21();
        prop_assume!(dclab::graph::diameter::diameter(&g).unwrap() as usize <= p.k());
        let r = reduce_to_path_tsp(&g, &p).unwrap();
        let mut rng = StdRng::seed_from_u64(perm_seed);
        let perm: Vec<u32> = dclab::graph::generators::random::random_permutation(&mut rng, 8)
            .into_iter().map(|v| v as u32).collect();
        // Independent computation of λ_p(G, π).
        let dist = dclab::graph::DistanceMatrix::compute(&g);
        let mut labels = [0u64; 8];
        let mut span = 0u64;
        for (i, &vi) in perm.iter().enumerate() {
            let mut l = 0u64;
            for &vj in &perm[..i] {
                let d = dist.get(vj as usize, vi as usize);
                l = l.max(labels[vj as usize] + p.at_distance(d));
            }
            labels[vi as usize] = l;
            span = span.max(l);
        }
        prop_assert_eq!(span, span_for_permutation(&r, &perm));
    }

    /// Without smoothness, the Path-TSP optimum is still a lower bound on
    /// the true span.
    #[test]
    fn tsp_lower_bounds_span_without_smoothness(seed in any::<u64>(), big in 3u64..9) {
        let g = connected_graph(seed, 7, 0.55);
        let p = PVec::lpq(big, 1).unwrap(); // non-smooth for big ≥ 3
        prop_assume!(dclab::graph::diameter::diameter(&g).unwrap() as usize <= p.k());
        let r = reduce_unchecked(&g, &p).unwrap();
        let (_, tsp_opt) = dclab::tsp::exact::held_karp_path(&r.tsp);
        let (_, true_opt) = dclab::core::baseline::exact::exact_labeling_bruteforce(&g, &p);
        prop_assert!(tsp_opt <= true_opt);
    }

    /// Span is monotone under pointwise-increasing p.
    #[test]
    fn span_monotone_in_p(seed in any::<u64>()) {
        let g = connected_graph(seed, 8, 0.5);
        prop_assume!(dclab::graph::diameter::diameter(&g) == Some(2));
        let small = PVec::lpq(2, 1).unwrap();
        let large = PVec::lpq(2, 2).unwrap();
        let a = solve_exact(&g, &small).unwrap().span;
        let b = solve_exact(&g, &large).unwrap().span;
        prop_assert!(a <= b);
    }

    /// Exact solver output always validates and is never beaten by any
    /// solver on the same instance.
    #[test]
    fn exact_is_floor(seed in any::<u64>()) {
        let g = connected_graph(seed, 9, 0.5);
        let p = PVec::l21();
        prop_assume!(dclab::graph::diameter::diameter(&g).unwrap() as usize <= p.k());
        let exact = solve_exact(&g, &p).unwrap();
        prop_assert!(exact.labeling.validate(&g, &p).is_ok());
        let heur = solve_heuristic(&g, &p).unwrap();
        let approx = solve_approx15(&g, &p).unwrap();
        prop_assert!(heur.span >= exact.span);
        prop_assert!(approx.span >= exact.span);
        prop_assert!(2 * approx.span <= 3 * exact.span);
    }

    /// Complement is an involution and partitions the edge set.
    #[test]
    fn complement_involution(seed in any::<u64>(), n in 2usize..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = dclab::graph::generators::random::gnp(&mut rng, n, 0.5);
        let c = dclab::graph::ops::complement(&g);
        prop_assert_eq!(g.m() + c.m(), n * (n - 1) / 2);
        prop_assert_eq!(dclab::graph::ops::complement(&c), g);
    }

    /// nd(G^k) never exceeds nd(G) (Fiala et al., cited in Theorem 4's
    /// proof), for connected G.
    #[test]
    fn nd_of_power_does_not_grow(seed in any::<u64>(), k in 2u32..4) {
        let g = connected_graph(seed, 9, 0.5);
        let gk = dclab::graph::ops::power(&g, k);
        prop_assert!(
            dclab::graph::params::nd::nd(&gk) <= dclab::graph::params::nd::nd(&g)
        );
    }

    /// APSP matrices are symmetric with zero diagonal and obey the triangle
    /// inequality.
    #[test]
    fn apsp_valid(seed in any::<u64>(), n in 2usize..14) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = dclab::graph::generators::random::gnp(&mut rng, n, 0.4);
        let d = dclab::graph::DistanceMatrix::compute(&g);
        prop_assert!(d.validate().is_ok());
    }

    /// Labelings produced by every solver stay valid after normalization.
    #[test]
    fn normalization_preserves_validity(seed in any::<u64>()) {
        let g = connected_graph(seed, 8, 0.5);
        let p = PVec::l21();
        prop_assume!(dclab::graph::diameter::diameter(&g).unwrap() as usize <= p.k());
        let sol = solve_greedy(&g, &p);
        let norm = sol.labeling.normalized();
        prop_assert!(norm.validate(&g, &p).is_ok());
        prop_assert!(norm.span() <= sol.labeling.span());
    }

    /// Prop. 2 corollary on the nd side: nd(G²) ≤ nd(G) ≤ n, and the
    /// nd partition is a modular partition.
    #[test]
    fn nd_partition_is_modular(seed in any::<u64>(), n in 3usize..11) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = dclab::graph::generators::random::gnp(&mut rng, n, 0.5);
        let ndp = dclab::graph::params::nd::neighborhood_diversity(&g);
        prop_assert!(dclab::graph::params::modules::is_modular_partition(&g, &ndp.classes));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// TSP local search invariants: tours stay permutations and weights
    /// only decrease, across 2-opt, Or-opt, and double-bridge kicks.
    #[test]
    fn localsearch_invariants(seed in any::<u64>(), n in 8usize..40) {
        use dclab::tsp::localsearch::{local_opt, LocalSearchConfig, TourState};
        use dclab::tsp::tour::{cycle_weight, is_permutation};
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = dclab::tsp::TspInstance::from_fn(n, |u, v| {
            let (a, b) = (u.min(v) as u64, u.max(v) as u64);
            (a.wrapping_mul(2654435761).wrapping_add(b.wrapping_mul(40503)) ^ seed) % 500 + 1
        });
        let start = dclab::tsp::construct::nearest_neighbor(&inst, 0);
        let before = cycle_weight(&inst, &start);
        let mut state = TourState::new(start);
        let nl = inst.candidate_lists(8);
        let gain = local_opt(&inst, &mut state, &nl, &LocalSearchConfig::default());
        prop_assert!(is_permutation(n, &state.order));
        prop_assert_eq!(cycle_weight(&inst, &state.order) + gain, before);
        let kicked = dclab::tsp::lk::double_bridge(&state.order, &mut rng);
        prop_assert!(is_permutation(n, &kicked));
    }

    /// Matching backends agree on optimality for small even sets.
    #[test]
    fn matching_backends_agree(seed in any::<u64>(), half in 1usize..7) {
        use dclab::tsp::matching::*;
        let k = 2 * half;
        let w = move |a: usize, b: usize| {
            let (a, b) = (a.min(b) as u64, a.max(b) as u64);
            (a.wrapping_mul(7919).wrapping_add(b.wrapping_mul(104729)) ^ seed) % 300 + 1
        };
        let dp = exact_dp::min_weight_perfect_matching_dp(k, &w);
        let bl = blossom::min_weight_perfect_matching_blossom(k, &w);
        prop_assert!(is_perfect_matching(k, &dp));
        prop_assert!(is_perfect_matching(k, &bl));
        prop_assert_eq!(matching_weight(&dp, &w), matching_weight(&bl, &w));
    }
}

/// Differential check of the bounds-driven exact diameter against the
/// scalar all-pairs matrix, on shapes that stress its stop rule: a hub at
/// a random id, a hub far from the ends of the longest path, long paths
/// and trees (many levels, many blocks), disconnected graphs whose
/// components each have a universal vertex, and G(n, p) sizes around the
/// 64-source block width. The answer must not depend on the thread count.
#[test]
fn diameter_matches_matrix_on_bound_stressing_shapes() {
    use dclab::graph::diameter::diameter;
    use dclab::graph::generators::{classic, random};
    use dclab::graph::DistanceMatrix;

    fn disjoint_union(a: &Graph, b: &Graph) -> Graph {
        let mut g = Graph::new(a.n() + b.n());
        for (u, v) in a.edges() {
            g.add_edge(u, v);
        }
        for (u, v) in b.edges() {
            g.add_edge(a.n() + u, a.n() + v);
        }
        g
    }
    /// `K_clique` with a path of `left` vertices hanging off clique vertex
    /// 0 and one of `right` vertices off clique vertex 1.
    fn clique_with_tails(clique: usize, left: usize, right: usize) -> Graph {
        let mut g = Graph::new(clique + left + right);
        for u in 0..clique {
            for v in (u + 1)..clique {
                g.add_edge(u, v);
            }
        }
        let mut at = clique;
        for (anchor, len) in [(0, left), (1, right)] {
            let mut prev = anchor;
            for _ in 0..len {
                g.add_edge(prev, at);
                prev = at;
                at += 1;
            }
        }
        g
    }

    /// A hub with `leaves` pendant leaves and two arms of length `a`. Each
    /// arm end carries a pendant path of length `c` (the diameter pair sits
    /// at their tips) and a path of `b − 1` edges down to a shared set of
    /// `k` vertices adjacent to both paths' ends. With `c < b` those `k`
    /// vertices are the deepest from the hub yet none is a diameter end,
    /// so the first 64-source block leaves `lb` below `2·L` and the stop
    /// rule must keep going.
    fn hub_far_from_diameter(a: usize, b: usize, c: usize, k: usize, leaves: usize) -> Graph {
        let n = 1 + leaves + 2 * (a + c + b - 1) + k;
        let mut g = Graph::new(n);
        let mut next = 1;
        let mut path_from = |g: &mut Graph, from: usize, len: usize| {
            let mut prev = from;
            for _ in 0..len {
                g.add_edge(prev, next);
                prev = next;
                next += 1;
            }
            prev
        };
        for _ in 0..leaves {
            path_from(&mut g, 0, 1);
        }
        let mut ends = [0; 2];
        for end in &mut ends {
            let arm = path_from(&mut g, 0, a);
            path_from(&mut g, arm, c);
            *end = path_from(&mut g, arm, b - 1);
        }
        for z in (n - k)..n {
            g.add_edge(ends[0], z);
            g.add_edge(ends[1], z);
        }
        g
    }
    fn relabel(g: Graph, rng: &mut StdRng) -> Graph {
        let perm = random::random_permutation(rng, g.n());
        g.relabeled(&perm)
    }

    let mut rng = StdRng::seed_from_u64(0xD1A);
    let mut cases: Vec<(String, Graph)> = Vec::new();
    for (n, core, p_extra) in [(100, 1, 0.0), (150, 3, 0.05), (300, 8, 0.0), (500, 1, 0.01)] {
        let g = random::core_periphery(&mut rng, n, core, p_extra);
        cases.push((format!("core_periphery({n},{core})"), relabel(g, &mut rng)));
    }
    for (clique, left, right) in [(12, 150, 0), (20, 70, 90), (40, 3, 200)] {
        let g = clique_with_tails(clique, left, right);
        cases.push((format!("lollipop({clique},{left},{right})"), g.clone()));
        cases.push((
            format!("lollipop({clique},{left},{right}) relabelled"),
            relabel(g, &mut rng),
        ));
    }
    for (a, b, c, k) in [(1, 3, 2, 64), (2, 6, 4, 62), (3, 9, 7, 62)] {
        let g = hub_far_from_diameter(a, b, c, k, 80);
        cases.push((format!("hub_far_from_diameter({a},{b},{c},{k})"), g.clone()));
        cases.push((
            format!("hub_far_from_diameter({a},{b},{c},{k}) relabelled"),
            relabel(g, &mut rng),
        ));
    }
    for n in [2usize, 3, 64, 65, 130, 257] {
        cases.push((format!("path({n})"), classic::path(n)));
        cases.push((
            format!("path({n}) relabelled"),
            relabel(classic::path(n), &mut rng),
        ));
        cases.push((format!("cycle({n})"), classic::cycle(n.max(3))));
        cases.push((
            format!("random_tree({n})"),
            random::random_tree(&mut rng, n),
        ));
    }
    let a = random::core_periphery(&mut rng, 80, 1, 0.05);
    let b = classic::star(70);
    cases.push((
        "two hubbed components".into(),
        relabel(disjoint_union(&a, &b), &mut rng),
    ));
    cases.push(("n=0".into(), Graph::new(0)));
    cases.push(("n=1".into(), Graph::new(1)));
    cases.push(("n=2 edge".into(), classic::path(2)));
    cases.push(("n=2 no edge".into(), Graph::new(2)));
    for n in [63usize, 64, 65, 129] {
        for p in [0.02f64, 0.04, 0.08, 0.2, 0.5] {
            cases.push((format!("gnp({n},{p})"), random::gnp(&mut rng, n, p)));
        }
    }

    for (name, g) in &cases {
        let expect = DistanceMatrix::compute_sequential(g).diameter();
        for threads in [1usize, 4] {
            dclab::par::set_thread_override(Some(threads));
            let got = diameter(g);
            dclab::par::set_thread_override(None);
            assert_eq!(got, expect, "{name} at {threads} thread(s)");
        }
    }
}
