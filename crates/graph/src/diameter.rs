//! Diameter and eccentricity helpers.

use crate::apsp::BLOCK;
use crate::csr::Csr;
use crate::graph::Graph;
use crate::traversal::{bfs64_distances_csr, bfs_distances, bfs_distances_csr};
use crate::INF;
use std::cmp::Reverse;

/// Diameter of `g`, or `None` when `g` is disconnected or empty (`n = 0`
/// — no vertex pair, matching [`crate::DistanceMatrix::diameter`]).
///
/// Exact, by eccentricity bounds in the style of iFUB (Crescenzi et al.,
/// *On computing the diameter of real-world undirected graphs*, TCS 2013):
///
/// 1. BFS once from a hub `u` (maximum degree, smallest id on ties); an
///    unreachable vertex means `None`. Start with `lb = ecc(u)`.
/// 2. Take the other vertices deepest BFS level first (ties by id) in
///    blocks of 64 through the bit-parallel kernel, raising `lb` to the
///    largest eccentricity each block finds.
/// 3. Stop once `lb ≥ 2·L`, where `L` is the level of the first vertex
///    not yet used as a source, and return `lb`.
///
/// The stop is safe because every remaining vertex lies within `L` of
/// `u`, so two of them are within `2·L` of each other through `u`; every
/// pair involving `u` or a processed vertex is within that vertex's
/// eccentricity, which is at most `lb`. So `lb` is an upper bound as well
/// as a lower one.
///
/// Worst case: one BFS, a counting sort, and `⌈(n−1)/64⌉` blocks — no
/// more than BFS from every source. On small-diameter graphs with a hub
/// (the paper's regime) the loop usually stops after the first block.
/// Blocks run in waves of `dclab_par::default_threads()`, and the stop
/// rule is checked between waves; the answer is exact, so it does not
/// depend on the thread count. Memory is `O(n)` words per thread.
pub fn diameter(g: &Graph) -> Option<u32> {
    let n = g.n();
    if n == 0 {
        return None;
    }
    if n == 1 {
        return Some(0);
    }
    let csr = Csr::from_graph(g);
    let hub = (0..n)
        .max_by_key(|&v| (csr.degree(v), Reverse(v)))
        .expect("n ≥ 2");
    let level = bfs_distances_csr(&csr, hub);
    if level.contains(&INF) {
        return None;
    }
    let mut lb = level.iter().copied().max().unwrap_or(0);
    let order = deepest_first(&level, lb, hub);

    let wave = dclab_par::default_threads() * BLOCK;
    let mut done = 0;
    while done < order.len() && lb < 2 * level[order[done]] {
        let sources = &order[done..(done + wave).min(order.len())];
        let block_max = dclab_par::par_map_chunks(sources.len(), BLOCK, |range| {
            let block = &sources[range];
            let mut rows = vec![0u32; block.len() * n];
            bfs64_distances_csr(&csr, block, &mut rows);
            rows.into_iter().max().unwrap_or(0)
        });
        lb = block_max.into_iter().fold(lb, u32::max);
        done += sources.len();
    }
    Some(lb)
}

/// Every vertex but `hub`, by BFS level from `hub` (deepest first, ties
/// by id) — a counting sort over levels `0..=max_level`.
fn deepest_first(level: &[u32], max_level: u32, hub: usize) -> Vec<usize> {
    let mut start = vec![0usize; max_level as usize + 2];
    for (v, &l) in level.iter().enumerate() {
        if v != hub {
            start[(max_level - l) as usize + 1] += 1;
        }
    }
    for i in 1..start.len() {
        start[i] += start[i - 1];
    }
    let mut order = vec![0usize; level.len() - 1];
    for (v, &l) in level.iter().enumerate() {
        if v != hub {
            let slot = &mut start[(max_level - l) as usize];
            order[*slot] = v;
            *slot += 1;
        }
    }
    order
}

/// Eccentricity of a single vertex via one BFS; `None` when some vertex is
/// unreachable.
pub fn eccentricity(g: &Graph, v: usize) -> Option<u32> {
    let d = bfs_distances(g, v);
    let mut max = 0;
    for &x in &d {
        if x == INF {
            return None;
        }
        max = max.max(x);
    }
    Some(max)
}

/// `true` iff `g` is connected with diameter at most `k` — the eligibility
/// check of Theorem 2.
pub fn has_diameter_at_most(g: &Graph, k: u32) -> bool {
    matches!(diameter(g), Some(d) if d <= k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::classic;

    #[test]
    fn path_diameter() {
        assert_eq!(diameter(&classic::path(7)), Some(6));
    }

    #[test]
    fn star_has_diameter_two() {
        let g = classic::star(9);
        assert_eq!(diameter(&g), Some(2));
        assert!(has_diameter_at_most(&g, 2));
        assert!(!has_diameter_at_most(&g, 1));
    }

    #[test]
    fn eccentricity_of_center() {
        let g = classic::star(5);
        assert_eq!(eccentricity(&g, 0), Some(1));
        assert_eq!(eccentricity(&g, 1), Some(2));
    }

    #[test]
    fn disconnected_reports_none() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        assert_eq!(diameter(&g), None);
        assert_eq!(eccentricity(&g, 0), None);
        assert!(!has_diameter_at_most(&g, 5));
    }

    #[test]
    fn empty_and_singleton_edges() {
        // n = 0: no vertex pair → None everywhere, matching the
        // DistanceMatrix doc.
        assert_eq!(diameter(&Graph::new(0)), None);
        assert!(!has_diameter_at_most(&Graph::new(0), 0));
        // n = 1: a single vertex has diameter 0.
        assert_eq!(diameter(&Graph::new(1)), Some(0));
        assert_eq!(eccentricity(&Graph::new(1), 0), Some(0));
        assert!(has_diameter_at_most(&Graph::new(1), 0));
    }

    #[test]
    fn streaming_diameter_matches_matrix_across_blocks() {
        use crate::apsp::DistanceMatrix;
        use crate::generators::random;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(13);
        for n in [30usize, 64, 65, 150] {
            for p in [0.02f64, 0.15] {
                let g = random::gnp(&mut rng, n, p);
                assert_eq!(
                    diameter(&g),
                    DistanceMatrix::compute_sequential(&g).diameter(),
                    "n={n} p={p}"
                );
            }
        }
    }
}
