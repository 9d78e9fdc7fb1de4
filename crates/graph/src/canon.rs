//! Canonical instance forms for caching: degree-refinement (1-WL) colors,
//! an isomorphism-invariant FNV-1a hash, and a canonical relabeling.
//!
//! The serve layer keys its report cache on [`CanonicalForm`]: two requests
//! whose graphs are isomorphic relabelings of each other should land on the
//! same cache entry. The contract is split in two so correctness never
//! depends on solving graph isomorphism:
//!
//! * [`CanonicalForm::hash`] is computed **only** from refinement-invariant
//!   data (vertex/edge counts, the stable color histogram, and the edge
//!   color-pair multiset), so it is *guaranteed* equal for isomorphic
//!   graphs. Non-isomorphic graphs may collide (1-WL is not a complete
//!   invariant); callers must confirm a hit by comparing canonical edges.
//! * [`CanonicalForm::edges`] is the edge list after a canonical relabeling
//!   built by refinement plus orbit individualization. It is exact for
//!   graphs whose stable classes are automorphism orbits (everything the
//!   generators here produce); in the rare case two isomorphic labelings
//!   canonize differently, the cache merely misses — it never serves a
//!   wrong entry.
//!
//! [`CanonicalForm::perm`] maps original vertex ids to canonical ids, which
//! lets a cache translate a stored labeling back into the requester's
//! vertex numbering.
//!
//! # Linear passes
//!
//! The hash and edge list are encoded into archive keys and pick a
//! cluster's owner replica, so their values are a format; the passes that
//! compute them are tuned for speed without changing a bit.
//!
//! * **Refinement rows.** One flat signature buffer holds a row of
//!   `deg(v) + 1` slots per vertex, allocated once per graph and reused by
//!   every round and individualization step. A round counting-sorts the
//!   vertices by colour, writes each vertex's colour at the head of its
//!   row, then visits vertices in colour order and appends each one's
//!   colour to its neighbours' rows — so every row comes out sorted with
//!   no per-row sort. Vertex ids are then sorted by row slice within each
//!   colour run; slice order is the order the signature vectors had, so
//!   colour ids are unchanged.
//! * **Pair lists.** The sorted multiset of edge colour pairs
//!   `(min, max)` is a two-key bucket sort in O(n + m): each edge is
//!   emitted once, from its endpoint of larger `(colour, id)`, into the
//!   bucket of its smaller colour, visiting endpoints in colour order. When
//!   the stable colouring is already discrete (every G(n, ½) instance in
//!   practice) the colours *are* the canonical permutation, so the hash's
//!   pair list is the canonical edge list and is computed once.
//! * **FNV-1a stays bytewise.** [`Fnv64::write_u64`] feeds eight bytes one
//!   at a time; a word-at-a-time variant would be faster but yield other
//!   hash values, orphaning archived records and re-routing the cluster.

use crate::graph::Graph;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher over `u64` words (each word is fed as 8
/// little-endian bytes, so the stream is unambiguous).
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    pub fn new() -> Fnv64 {
        Fnv64(FNV_OFFSET)
    }

    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        let mut h = self.0;
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &byte in bytes {
            h ^= byte as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// A graph's canonical form: invariant hash, canonical relabeling, and the
/// relabeled edge list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CanonicalForm {
    /// Isomorphism-invariant 64-bit hash (equal for isomorphic graphs).
    pub hash: u64,
    /// `perm[old] = canonical` relabeling.
    pub perm: Vec<u32>,
    /// Edge list under `perm`, each pair `(u, v)` with `u < v`, sorted.
    pub edges: Vec<(u32, u32)>,
    /// Vertex count (canonical ids are `0..n`).
    pub n: usize,
}

impl CanonicalForm {
    /// Compute the canonical form of `g`.
    pub fn of(g: &Graph) -> CanonicalForm {
        let mut r = Refiner::new(g);
        let colors = r.refine_to_stable(vec![0; g.n()]);
        let pairs = r.color_pairs(&colors);
        let hash = invariant_hash(g, &colors, &pairs);
        // A discrete stable colouring is the canonical permutation itself,
        // and its colour pairs are the canonical edge list.
        let (perm, edges) = if color_count(&colors) == g.n() {
            (colors, pairs)
        } else {
            let perm = r.canonical_perm(colors);
            let edges = r.color_pairs(&perm);
            (perm, edges)
        };
        CanonicalForm {
            hash,
            perm,
            edges,
            n: g.n(),
        }
    }

    /// `true` iff `other` canonizes to the same graph (same `n` and same
    /// canonical edge list) — the exact check behind a cache hit.
    pub fn same_canonical_graph(&self, other: &CanonicalForm) -> bool {
        self.n == other.n && self.edges == other.edges
    }
}

/// The isomorphism-invariant hash alone (no relabeling work).
pub fn canon_hash(g: &Graph) -> u64 {
    let mut r = Refiner::new(g);
    let colors = r.refine_to_stable(vec![0; g.n()]);
    let pairs = r.color_pairs(&colors);
    invariant_hash(g, &colors, &pairs)
}

/// `max colour + 1` (0 for no vertices): the class count of a colouring
/// whose ids are contiguous, as every refined colouring's are.
fn color_count(colors: &[u32]) -> usize {
    colors.iter().copied().max().map_or(0, |c| c as usize + 1)
}

/// Colour refinement and pair-list buffers for one graph, allocated once
/// and reused by every round and individualization step.
struct Refiner<'g> {
    g: &'g Graph,
    /// Row `v` of `sig` is `offsets[v]..offsets[v + 1]` (`deg(v) + 1` slots).
    offsets: Vec<usize>,
    /// Signature rows: a vertex's colour, then its neighbours' colours in
    /// ascending order.
    sig: Vec<u32>,
    /// Next free slot of each row while the rows fill.
    cursor: Vec<usize>,
    /// Vertices in ascending colour order (ties by id).
    order: Vec<u32>,
    /// `starts[c]..starts[c + 1]` is colour `c`'s run of `order`.
    starts: Vec<usize>,
    /// Bucket write positions of the counting sorts.
    fill: Vec<usize>,
}

impl<'g> Refiner<'g> {
    fn new(g: &'g Graph) -> Refiner<'g> {
        let n = g.n();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for v in 0..n {
            offsets.push(offsets[v] + g.degree(v) + 1);
        }
        Refiner {
            g,
            sig: vec![0; offsets[n]],
            offsets,
            cursor: vec![0; n],
            order: vec![0; n],
            starts: Vec::new(),
            fill: Vec::new(),
        }
    }

    /// Counting-sort the vertices by colour into `order` and `starts`.
    fn sort_by_color(&mut self, colors: &[u32]) {
        let k = color_count(colors);
        self.starts.clear();
        self.starts.resize(k + 1, 0);
        for &c in colors {
            self.starts[c as usize + 1] += 1;
        }
        for c in 0..k {
            self.starts[c + 1] += self.starts[c];
        }
        self.fill.clear();
        self.fill.extend_from_slice(&self.starts[..k]);
        for (v, &c) in colors.iter().enumerate() {
            self.order[self.fill[c as usize]] = v as u32;
            self.fill[c as usize] += 1;
        }
    }

    /// One round of colour refinement: recolour every vertex by
    /// `(old colour, sorted multiset of neighbour colours)`, with new ids
    /// assigned in lexicographic signature order (an invariant ordering,
    /// since signatures are built from invariant ids). Writes the refined
    /// colours to `out` and returns how many there are.
    ///
    /// Rows come out sorted without sorting any: vertices are visited in
    /// colour order and append their colour to each neighbour's row.
    fn round(&mut self, colors: &[u32], out: &mut [u32]) -> usize {
        let g = self.g;
        self.sort_by_color(colors);
        let Refiner {
            offsets,
            sig,
            cursor,
            order,
            starts,
            ..
        } = self;
        for (v, &c) in colors.iter().enumerate() {
            sig[offsets[v]] = c;
            cursor[v] = offsets[v] + 1;
        }
        for &u in order.iter() {
            let c = colors[u as usize];
            for &w in g.neighbors(u as usize) {
                sig[cursor[w as usize]] = c;
                cursor[w as usize] += 1;
            }
        }
        let row = |v: u32| &sig[offsets[v as usize]..offsets[v as usize + 1]];
        // Rows of one colour run share their first entry, and runs are in
        // colour order, so sorting within runs sorts all signatures.
        for run in starts.windows(2) {
            order[run[0]..run[1]].sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
        }
        let mut next = 0u32;
        for i in 0..order.len() {
            if i > 0 && row(order[i]) != row(order[i - 1]) {
                next += 1;
            }
            out[order[i] as usize] = next;
        }
        next as usize + 1
    }

    /// Iterate refinement from `colors` to the stable partition (the
    /// all-equal colouring, or one with a vertex split off by
    /// individualization).
    fn refine_to_stable(&mut self, mut colors: Vec<u32>) -> Vec<u32> {
        let n = self.g.n();
        let mut seen = vec![false; color_count(&colors)];
        for &c in &colors {
            seen[c as usize] = true;
        }
        let mut distinct = seen.iter().filter(|&&s| s).count();
        let mut next = vec![0u32; n];
        loop {
            let next_distinct = self.round(&colors, &mut next);
            if next_distinct == distinct {
                // A refinement round never merges classes, so an unchanged
                // class count means the partition is stable.
                return next;
            }
            std::mem::swap(&mut colors, &mut next);
            distinct = next_distinct;
            if distinct == n {
                return colors;
            }
        }
    }

    /// The multiset of edge colour pairs `(min, max)`, sorted, in
    /// O(n + m + colours): each edge is emitted once, from its endpoint of
    /// larger `(colour, id)`, into the bucket of its smaller colour, and
    /// endpoints are visited in colour order, so every bucket fills sorted.
    fn color_pairs(&mut self, colors: &[u32]) -> Vec<(u32, u32)> {
        let g = self.g;
        self.sort_by_color(colors);
        let k = self.starts.len() - 1;
        let fill = &mut self.fill;
        fill.clear();
        fill.resize(k + 1, 0);
        for (u, &cu) in colors.iter().enumerate() {
            for &w in g.neighbors(u) {
                if w as usize > u {
                    fill[cu.min(colors[w as usize]) as usize + 1] += 1;
                }
            }
        }
        for c in 0..k {
            fill[c + 1] += fill[c];
        }
        let mut pairs = vec![(0u32, 0u32); g.m()];
        for &w in &self.order {
            let cw = colors[w as usize];
            for &u in g.neighbors(w as usize) {
                let cu = colors[u as usize];
                if cu < cw || (cu == cw && u < w) {
                    pairs[fill[cu as usize]] = (cu, cw);
                    fill[cu as usize] += 1;
                }
            }
        }
        pairs
    }

    /// Canonical relabeling: while classes remain non-singleton,
    /// individualize the smallest-id non-singleton class (splitting off one
    /// member) and re-refine. For classes that are automorphism orbits any
    /// representative yields the same canonical graph; the member with the
    /// smallest original id keeps the procedure deterministic.
    fn canonical_perm(&mut self, mut colors: Vec<u32>) -> Vec<u32> {
        let n = self.g.n();
        loop {
            let distinct = color_count(&colors);
            if distinct == n {
                return colors;
            }
            // Find the smallest color with ≥ 2 members and its first member.
            let mut class_size = vec![0u32; distinct];
            for &c in &colors {
                class_size[c as usize] += 1;
            }
            let target = class_size
                .iter()
                .position(|&s| s >= 2)
                .expect("non-discrete partition has a non-singleton class")
                as u32;
            let chosen = colors
                .iter()
                .position(|&c| c == target)
                .expect("class member exists");
            // Split `chosen` off: give it a fresh color below its old class
            // so the seeded coloring stays a refinement of the stable one,
            // then re-refine (ids are re-normalized by the next round).
            let mut seeded: Vec<u32> = colors.iter().map(|&c| 2 * c + 1).collect();
            seeded[chosen] = 2 * target;
            colors = self.refine_to_stable(seeded);
        }
    }
}

/// Hash only refinement-invariant data: `n`, `m`, the stable colour
/// histogram, and the sorted multiset of edge colour pairs.
fn invariant_hash(g: &Graph, colors: &[u32], pairs: &[(u32, u32)]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(g.n() as u64);
    h.write_u64(g.m() as u64);
    let mut histogram = vec![0u64; color_count(colors)];
    for &c in colors {
        histogram[c as usize] += 1;
    }
    // Color ids are already invariant (assigned in signature order), so the
    // histogram can be hashed in id order.
    for (c, count) in histogram.iter().enumerate() {
        h.write_u64(c as u64);
        h.write_u64(*count);
    }
    for &(a, b) in pairs {
        h.write_u64(((a as u64) << 32) | b as u64);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::classic;

    #[test]
    fn hash_invariant_under_relabeling() {
        let g = classic::petersen();
        let perm = vec![9, 3, 7, 0, 5, 1, 8, 2, 6, 4];
        let h = g.relabeled(&perm);
        assert_eq!(canon_hash(&g), canon_hash(&h));
        assert!(CanonicalForm::of(&g).same_canonical_graph(&CanonicalForm::of(&h)));
    }

    #[test]
    fn different_graphs_usually_differ() {
        let path = classic::path(6);
        let cycle = classic::cycle(6);
        let star = classic::star(6);
        assert_ne!(canon_hash(&path), canon_hash(&cycle));
        assert_ne!(canon_hash(&path), canon_hash(&star));
        assert_ne!(canon_hash(&cycle), canon_hash(&star));
    }

    #[test]
    fn perm_is_a_permutation_and_preserves_edges() {
        let g = classic::grid(3, 4);
        let c = CanonicalForm::of(&g);
        let mut seen = vec![false; g.n()];
        for &p in &c.perm {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
        assert_eq!(c.edges.len(), g.m());
        // Mapping the canonical edges back through the inverse permutation
        // recovers the original graph.
        let mut inv = vec![0usize; g.n()];
        for (old, &new) in c.perm.iter().enumerate() {
            inv[new as usize] = old;
        }
        let back: Vec<(usize, usize)> = c
            .edges
            .iter()
            .map(|&(u, v)| (inv[u as usize], inv[v as usize]))
            .collect();
        let rebuilt = Graph::from_edges(g.n(), &back);
        assert_eq!(rebuilt, g);
    }

    #[test]
    fn symmetric_graphs_canonize_consistently() {
        // Complete graphs, cycles, and bipartite doubles have huge
        // automorphism groups; any individualization choice must land on
        // the same canonical edge list.
        for (g, perm) in [
            (classic::complete(7), vec![6, 0, 5, 1, 4, 2, 3]),
            (classic::cycle(8), vec![3, 4, 5, 6, 7, 0, 1, 2]),
            (classic::complete_bipartite(3, 4), vec![4, 2, 6, 0, 3, 5, 1]),
        ] {
            let h = g.relabeled(&perm);
            let (cg, ch) = (CanonicalForm::of(&g), CanonicalForm::of(&h));
            assert_eq!(cg.hash, ch.hash);
            assert!(cg.same_canonical_graph(&ch), "{g:?}");
        }
    }

    #[test]
    fn empty_and_tiny() {
        let empty = Graph::new(0);
        let one = Graph::new(1);
        let c0 = CanonicalForm::of(&empty);
        let c1 = CanonicalForm::of(&one);
        assert_ne!(c0.hash, c1.hash);
        assert!(c0.edges.is_empty() && c1.edges.is_empty());
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv64::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv64::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }
}
