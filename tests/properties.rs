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

/// Reference copies of the edge-list and DIMACS parsers as they were
/// before the byte-level scanner and the bulk adjacency builder: per-line
/// `str` tokens and one `Graph::add_edge` per edge.
mod reference_io {
    use dclab::graph::io::ParseError;
    use dclab::graph::Graph;

    fn err(line: usize, message: impl Into<String>) -> ParseError {
        ParseError {
            line,
            message: message.into(),
        }
    }

    pub fn parse_edge_list(text: &str) -> Result<Graph, ParseError> {
        let mut n: Option<usize> = None;
        let mut edges: Vec<(usize, usize, usize)> = Vec::new();
        let mut max_v = 0usize;
        let mut saw_any = false;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = match raw.find('#') {
                Some(i) => raw[..i].trim(),
                None => raw.trim(),
            };
            if line.is_empty() {
                continue;
            }
            let mut it = line.split_whitespace();
            let first = it.next().unwrap();
            if first == "n" {
                if saw_any || n.is_some() {
                    return Err(err(lineno, "n header must be the first directive"));
                }
                let v = it
                    .next()
                    .ok_or_else(|| err(lineno, "n header missing count"))?;
                if it.next().is_some() {
                    return Err(err(lineno, "trailing tokens after n header"));
                }
                n = Some(
                    v.parse()
                        .map_err(|_| err(lineno, format!("bad vertex count '{v}'")))?,
                );
                continue;
            }
            saw_any = true;
            let u: usize = first
                .parse()
                .map_err(|_| err(lineno, format!("bad endpoint '{first}'")))?;
            let v_tok = it
                .next()
                .ok_or_else(|| err(lineno, "edge line needs two endpoints"))?;
            let v: usize = v_tok
                .parse()
                .map_err(|_| err(lineno, format!("bad endpoint '{v_tok}'")))?;
            if it.next().is_some() {
                return Err(err(lineno, "trailing tokens after edge"));
            }
            if u == v {
                return Err(err(lineno, format!("self-loop at vertex {u}")));
            }
            if let Some(n) = n {
                if u >= n || v >= n {
                    return Err(err(
                        lineno,
                        format!("endpoint {} out of range for declared n = {n}", u.max(v)),
                    ));
                }
            }
            max_v = max_v.max(u).max(v);
            edges.push((lineno, u, v));
        }
        let n = match n {
            Some(n) => n,
            None if edges.is_empty() => 0,
            None => max_v + 1,
        };
        build(n, &edges)
    }

    pub fn parse_dimacs(text: &str) -> Result<Graph, ParseError> {
        let mut n: Option<usize> = None;
        let mut declared_m: Option<usize> = None;
        let mut p_line = 1usize;
        let mut edges: Vec<(usize, usize, usize)> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            let mut it = line.split_whitespace();
            match it.next().unwrap() {
                "p" => {
                    if n.is_some() {
                        return Err(err(lineno, "duplicate p line"));
                    }
                    match it.next() {
                        Some("edge") | Some("edges") | Some("col") => {}
                        other => {
                            return Err(err(
                                lineno,
                                format!("expected 'p edge', got 'p {}'", other.unwrap_or("")),
                            ))
                        }
                    }
                    let nv = it.next().ok_or_else(|| err(lineno, "p line missing n"))?;
                    let nm = it.next().ok_or_else(|| err(lineno, "p line missing m"))?;
                    n = Some(
                        nv.parse()
                            .map_err(|_| err(lineno, format!("bad n '{nv}'")))?,
                    );
                    declared_m = Some(
                        nm.parse()
                            .map_err(|_| err(lineno, format!("bad m '{nm}'")))?,
                    );
                    if it.next().is_some() {
                        return Err(err(lineno, "trailing tokens after p line"));
                    }
                    p_line = lineno;
                }
                "e" => {
                    let n = n.ok_or_else(|| err(lineno, "e line before p line"))?;
                    let ut = it.next().ok_or_else(|| err(lineno, "e line missing u"))?;
                    let vt = it.next().ok_or_else(|| err(lineno, "e line missing v"))?;
                    let u: usize = ut
                        .parse()
                        .map_err(|_| err(lineno, format!("bad endpoint '{ut}'")))?;
                    let v: usize = vt
                        .parse()
                        .map_err(|_| err(lineno, format!("bad endpoint '{vt}'")))?;
                    if u == 0 || v == 0 || u > n || v > n {
                        return Err(err(
                            lineno,
                            format!("endpoint out of range 1..={n}: e {u} {v}"),
                        ));
                    }
                    if u == v {
                        return Err(err(lineno, format!("self-loop at vertex {u}")));
                    }
                    if it.next().is_some() {
                        return Err(err(lineno, "trailing tokens after e line"));
                    }
                    edges.push((lineno, u - 1, v - 1));
                }
                other => return Err(err(lineno, format!("unknown directive '{other}'"))),
            }
        }
        let n = n.ok_or_else(|| err(text.lines().count().max(1), "missing p line"))?;
        if let Some(m) = declared_m {
            if m != edges.len() {
                return Err(err(
                    p_line,
                    format!("p line declares {m} edges but {} were listed", edges.len()),
                ));
            }
        }
        build(n, &edges)
    }

    fn build(n: usize, edges: &[(usize, usize, usize)]) -> Result<Graph, ParseError> {
        let mut g = Graph::new(n);
        for &(line, u, v) in edges {
            if !g.add_edge(u, v) {
                return Err(err(line, format!("duplicate edge {u}-{v}")));
            }
        }
        Ok(g)
    }
}

/// Reference copy of `CanonicalForm::of` as it was before sort-free
/// refinement and linear pair lists: per-vertex signature vectors sorted
/// every round, and comparison-sorted pair and edge lists.
mod reference_canon {
    use dclab::graph::canon::Fnv64;
    use dclab::graph::Graph;

    /// `(hash, perm, edges, n)`.
    pub fn of(g: &Graph) -> (u64, Vec<u32>, Vec<(u32, u32)>, usize) {
        let colors = refine_to_stable(g, None);
        let hash = invariant_hash(g, &colors);
        let perm = canonical_perm(g, colors);
        let mut edges: Vec<(u32, u32)> = g
            .edges()
            .map(|(u, v)| {
                let (a, b) = (perm[u], perm[v]);
                (a.min(b), a.max(b))
            })
            .collect();
        edges.sort_unstable();
        (hash, perm, edges, g.n())
    }

    fn refine_round(g: &Graph, colors: &[u32]) -> (Vec<u32>, usize) {
        let n = g.n();
        let mut sigs: Vec<(Vec<u32>, usize)> = Vec::with_capacity(n);
        for v in 0..n {
            let mut sig = Vec::with_capacity(1 + g.degree(v));
            sig.push(colors[v]);
            let mut nbr: Vec<u32> = g.neighbors(v).iter().map(|&u| colors[u as usize]).collect();
            nbr.sort_unstable();
            sig.extend(nbr);
            sigs.push((sig, v));
        }
        sigs.sort();
        let mut new_colors = vec![0u32; n];
        let mut next = 0u32;
        for i in 0..n {
            if i > 0 && sigs[i].0 != sigs[i - 1].0 {
                next += 1;
            }
            new_colors[sigs[i].1] = next;
        }
        (new_colors, next as usize + 1)
    }

    fn refine_to_stable(g: &Graph, start: Option<Vec<u32>>) -> Vec<u32> {
        let n = g.n();
        let mut colors = start.unwrap_or_else(|| vec![0u32; n]);
        let mut distinct = colors
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len();
        loop {
            let (next, next_distinct) = refine_round(g, &colors);
            if next_distinct == distinct {
                return next;
            }
            colors = next;
            distinct = next_distinct;
            if distinct == n {
                return colors;
            }
        }
    }

    fn invariant_hash(g: &Graph, colors: &[u32]) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(g.n() as u64);
        h.write_u64(g.m() as u64);
        let distinct = colors.iter().copied().max().map_or(0, |c| c as usize + 1);
        let mut histogram = vec![0u64; distinct];
        for &c in colors {
            histogram[c as usize] += 1;
        }
        for (c, count) in histogram.iter().enumerate() {
            h.write_u64(c as u64);
            h.write_u64(*count);
        }
        let mut edge_pairs: Vec<(u32, u32)> = g
            .edges()
            .map(|(u, v)| {
                let (a, b) = (colors[u], colors[v]);
                (a.min(b), a.max(b))
            })
            .collect();
        edge_pairs.sort_unstable();
        for (a, b) in edge_pairs {
            h.write_u64(((a as u64) << 32) | b as u64);
        }
        h.finish()
    }

    fn canonical_perm(g: &Graph, mut colors: Vec<u32>) -> Vec<u32> {
        let n = g.n();
        loop {
            let distinct = colors.iter().copied().max().map_or(0, |c| c as usize + 1);
            if distinct == n {
                break;
            }
            let mut class_size = vec![0u32; distinct];
            for &c in &colors {
                class_size[c as usize] += 1;
            }
            let target = class_size.iter().position(|&s| s >= 2).unwrap() as u32;
            let chosen = (0..n).find(|&v| colors[v] == target).unwrap();
            let mut seeded: Vec<u32> = colors.iter().map(|&c| 2 * c + 1).collect();
            seeded[chosen] = 2 * target;
            colors = refine_to_stable(g, Some(seeded));
        }
        colors
    }
}

/// Lines of a written body, mutated in the ways real files and hostile
/// clients vary: whitespace and line-end variants, signs and padding,
/// comments, misplaced headers, self-loops, duplicates and range errors.
/// Every id stays below 2^32 or overflows `u64`, so the reference parsers
/// (which allocate `max id + 1` vertices) stay runnable.
fn mutate_lines(rng: &mut StdRng, lines: &mut Vec<String>, dimacs: bool, n: usize) {
    use rand::RngExt;
    let pick = |rng: &mut StdRng, len: usize| rng.random_range(0..len.max(1));
    let edge_tag = if dimacs { "e " } else { "" };
    for _ in 0..rng.random_range(1usize..4) {
        let at = pick(rng, lines.len());
        let extra = |u: usize, v: usize| format!("{edge_tag}{u} {v}");
        let token_edit = |rng: &mut StdRng, line: &str, f: &dyn Fn(&str) -> String| {
            let mut toks: Vec<String> = line.split(' ').map(String::from).collect();
            let k = rng.random_range(0..toks.len());
            if toks[k].chars().all(|c| c.is_ascii_digit()) && !toks[k].is_empty() {
                toks[k] = f(&toks[k]);
            }
            toks.join(" ")
        };
        match rng.random_range(0u32..24) {
            0 => {
                for l in lines.iter_mut() {
                    l.push('\r');
                }
            }
            1 if !lines.is_empty() => lines[at] = lines[at].replace(' ', "\t"),
            2 if !lines.is_empty() => lines[at] = lines[at].replacen(' ', "\x0b", 1),
            3 if !lines.is_empty() => lines[at] = format!("\x0c{}\x0c", lines[at]),
            4 if !lines.is_empty() => lines[at] = lines[at].replacen(' ', "\u{a0}", 1),
            5 if !lines.is_empty() => lines[at] = format!("\u{3000}{}\u{3000}", lines[at]),
            6 if !lines.is_empty() => {
                lines[at] = token_edit(rng, &lines[at].clone(), &|t| format!("+{t}"))
            }
            7 if !lines.is_empty() => {
                lines[at] = token_edit(rng, &lines[at].clone(), &|t| format!("000{t}"))
            }
            8 if !lines.is_empty() => {
                lines[at] = token_edit(rng, &lines[at].clone(), &|_| "99999999999999999999".into())
            }
            9 if !lines.is_empty() => {
                lines[at] = token_edit(rng, &lines[at].clone(), &|t| format!("{t:0>20}"))
            }
            10 => lines.insert(
                at,
                if dimacs { "c a comment" } else { "# a comment" }.into(),
            ),
            11 if !lines.is_empty() => {
                let c = if dimacs {
                    "\tc trailing"
                } else {
                    "# trailing é"
                };
                lines[at].push_str(c);
            }
            12 => lines.insert(at, format!("n {}", n + 3)),
            13 => lines.insert(
                at,
                ["n", "n 4 5", "n x", "n +2", "n -1"][pick(rng, 5)].into(),
            ),
            14 => lines.insert(at, extra(at % n.max(1), at % n.max(1))),
            15 | 16 if lines.len() > 1 => {
                // Repeat an earlier edge line (maybe reversed) later on.
                let src = pick(rng, lines.len());
                let toks: Vec<&str> = lines[src].split_whitespace().collect();
                let dup = match toks.as_slice() {
                    [u, v] if !dimacs => format!("{v} {u}"),
                    ["e", u, v] if dimacs => format!("e {v} {u}"),
                    _ => lines[src].clone(),
                };
                let to = src + 1 + pick(rng, lines.len() - src);
                lines.insert(to.min(lines.len()), dup);
            }
            17 => lines.insert(at, extra(n + 2, 0)),
            18 => lines.insert(at, extra(0, if dimacs { 0 } else { n })),
            19 => {
                // Malformed tokens; U+001C and NUL are not whitespace, NEL is.
                let bad = [
                    "x 1",
                    "1.5 2",
                    "-1 2",
                    "+ 2",
                    "5",
                    "1 2 3",
                    "é 1",
                    "2\u{1c}1",
                    "1\u{0}2",
                    "\u{85}1 2",
                ];
                lines.insert(at, bad[pick(rng, bad.len())].into())
            }
            20 => lines.insert(at, String::new()),
            21 => lines.insert(at, " \t ".into()),
            22 if dimacs => lines.insert(
                at,
                ["p edge 3 0", "q", "e 1", "cglued", "p col 2 1"][pick(rng, 5)].into(),
            ),
            23 if !lines.is_empty() => {
                lines.remove(at);
            }
            _ => {}
        }
    }
}

/// The byte-level edge-list scanner and the bulk builder return exactly
/// the reference parsers' `Result` — the same graph, or the same error
/// line and message — on a seeded mutation corpus of written bodies.
#[test]
fn parsers_match_reference_on_mutated_bodies() {
    use dclab::graph::generators::random;
    use dclab::graph::io;

    let mut rng = StdRng::seed_from_u64(0x5EED10);
    let mut checked = (0usize, 0usize);
    for case in 0..600 {
        let n = [0usize, 1, 2, 5, 12, 30][case % 6];
        let p = [0.2, 0.5, 0.9][case % 3];
        let g = random::gnp(&mut rng, n, p);
        let dimacs = case % 4 == 3;
        let body = if dimacs {
            io::write_dimacs(&g)
        } else {
            io::write_edge_list(&g)
        };
        let mut lines: Vec<String> = body.lines().map(String::from).collect();
        if !dimacs && case % 2 == 0 {
            lines.remove(0); // header-less: n is inferred
        }
        if case >= 12 {
            mutate_lines(&mut rng, &mut lines, dimacs, n);
        }
        let mut text = lines.join("\n");
        if case % 5 != 0 {
            text.push('\n');
        }
        let (got, want) = if dimacs {
            (io::parse_dimacs(&text), reference_io::parse_dimacs(&text))
        } else {
            (
                io::parse_edge_list(&text),
                reference_io::parse_edge_list(&text),
            )
        };
        assert_eq!(got, want, "case {case}: {text:?}");
        if let Ok(g) = &got {
            g.validate().unwrap();
        }
        if got.is_ok() {
            checked.0 += 1;
        } else {
            checked.1 += 1;
        }
    }
    // The corpus must exercise both outcomes in earnest.
    assert!(checked.0 >= 100 && checked.1 >= 100, "{checked:?}");
}

/// Sort-free refinement and linear pair lists give exactly the reference
/// `(hash, perm, edges, n)`: G(n, p) over densities, relabelings, regular
/// and symmetric families (individualization), disconnected and tiny
/// graphs.
#[test]
fn canonical_form_matches_reference() {
    use dclab::graph::generators::{classic, random};
    use dclab::graph::ops::disjoint_union;
    use dclab::graph::CanonicalForm;

    let mut rng = StdRng::seed_from_u64(0xCA404);
    let mut cases: Vec<(String, Graph)> = vec![
        ("n=0".into(), Graph::new(0)),
        ("n=1".into(), Graph::new(1)),
        ("n=2".into(), Graph::new(2)),
        ("n=2 edge".into(), classic::path(2)),
        ("petersen".into(), classic::petersen()),
        ("C40".into(), classic::cycle(40)),
        ("K9".into(), classic::complete(9)),
        ("K30".into(), classic::complete(30)),
        ("K9,13".into(), classic::complete_bipartite(9, 13)),
        ("grid 7x9".into(), classic::grid(7, 9)),
        ("grid 4x4".into(), classic::grid(4, 4)),
        ("wheel 11".into(), classic::wheel(11)),
        ("star 9".into(), classic::star(9)),
        (
            "C5 + C5 + K4".into(),
            disjoint_union(
                &disjoint_union(&classic::cycle(5), &classic::cycle(5)),
                &classic::complete(4),
            ),
        ),
        (
            "petersen + isolated".into(),
            disjoint_union(&classic::petersen(), &Graph::new(3)),
        ),
    ];
    for n in [3usize, 8, 17, 40, 90] {
        for p in [0.05, 0.2, 0.5, 0.8, 0.97] {
            cases.push((format!("gnp({n},{p})"), random::gnp(&mut rng, n, p)));
        }
    }
    for (name, g) in cases.clone() {
        for r in 0..2 {
            let perm = random::random_permutation(&mut rng, g.n());
            cases.push((format!("{name} relabeling {r}"), g.relabeled(&perm)));
        }
    }
    for (name, g) in &cases {
        let c = CanonicalForm::of(g);
        let (hash, perm, edges, n) = reference_canon::of(g);
        assert_eq!(
            (c.hash, &c.perm, &c.edges, c.n),
            (hash, &perm, &edges, n),
            "{name}"
        );
        assert_eq!(dclab::graph::canon_hash(g), hash, "{name}");
    }
}

/// Seeded corpus behind `tests/golden/canon_keys.txt`: one line per graph,
/// `<name> <canonical hash, 16 hex digits> <StoreKey::encode bytes, hex>`.
fn golden_canon_lines() -> String {
    use dclab::engine::{Budget, OraclePolicy, Strategy};
    use dclab::graph::generators::{classic, random};
    use dclab::graph::CanonicalForm;
    use dclab::store::StoreKey;
    use std::fmt::Write as _;

    let mut corpus: Vec<(String, Graph)> = vec![
        ("empty0".into(), Graph::new(0)),
        ("single1".into(), Graph::new(1)),
        ("isolated2".into(), Graph::new(2)),
        ("edge2".into(), Graph::from_edges(2, &[(0, 1)])),
        ("petersen".into(), classic::petersen()),
        ("cycle9".into(), classic::cycle(9)),
        ("path7".into(), classic::path(7)),
        ("star7".into(), classic::star(7)),
        ("wheel8".into(), classic::wheel(8)),
        ("complete6".into(), classic::complete(6)),
        ("k3_4".into(), classic::complete_bipartite(3, 4)),
        (
            "multipartite322".into(),
            classic::complete_multipartite(&[3, 2, 2]),
        ),
        ("grid3x4".into(), classic::grid(3, 4)),
        ("split4_3".into(), classic::split_graph(4, 3)),
        ("caterpillar4_2".into(), classic::caterpillar(4, 2)),
        (
            "two_triangles_plus_isolated".into(),
            Graph::from_edges(7, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
        ),
    ];
    for (i, &(n, p)) in [
        (8, 0.2),
        (8, 0.5),
        (16, 0.3),
        (16, 0.5),
        (16, 0.8),
        (24, 0.5),
    ]
    .iter()
    .enumerate()
    {
        let mut rng = StdRng::seed_from_u64(1000 + i as u64);
        let g = random::gnp(&mut rng, n, p);
        let perm = random::random_permutation(&mut rng, n);
        let h = g.relabeled(&perm);
        corpus.push((format!("gnp{n}_{p}"), g));
        corpus.push((format!("gnp{n}_{p}_relabeled"), h));
    }
    let mut out = String::new();
    for (name, g) in &corpus {
        let c = CanonicalForm::of(g);
        let key = StoreKey {
            n: c.n as u32,
            edges: c.edges.clone(),
            pvec: vec![2, 1],
            strategy: Strategy::Heuristic,
            budget: Budget::default(),
            oracle: OraclePolicy::Auto,
        };
        let hex: String = key.encode().iter().map(|b| format!("{b:02x}")).collect();
        writeln!(out, "{name} {:016x} {hex}", c.hash).unwrap();
    }
    out
}

/// Archived records are keyed by canonical edge lists and routed by the
/// canonical hash, so a canonicalization change that moves either would
/// orphan every archive. The golden file was written before the linear-
/// pass rewrite of `graph::canon`.
#[test]
fn canonical_store_keys_match_golden() {
    let want = include_str!("golden/canon_keys.txt");
    let got = golden_canon_lines();
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "golden line {}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count());
}
