//! A simple directed graph over vertices `0..n`, stored as bitset rows.
//!
//! Section VI of the paper analyses the *first-stage graph* `G` of the
//! FLP-style two-stage protocol: one node per process, with an edge `u → w`
//! iff `w` received a message from `u` in the first stage. All the graph
//! theory the paper needs (Lemmas 6 and 7) is about finite directed simple
//! graphs with an in-degree lower bound, so that is exactly what this type
//! models.
//!
//! ## Representation
//!
//! Each vertex has an out-row and an in-row of `⌈n/64⌉` 64-bit words: bit
//! `w` of `u`'s out-row and bit `u` of `w`'s in-row are set iff `u → w`.
//! All out-rows sit in one flat `Vec<u64>`, and so do all in-rows. Bits at
//! or past `n` are never set. The rows take `2·n·⌈n/64⌉·8 ≈ n²/4` bytes
//! whatever the edge count: 64 KiB at n = 512 (the process capacity of
//! `kset-sim`), 1 MiB at n = 2048 and 25 MB at n = 10 000. The graphs
//! this crate exists for have at most a few dozen vertices.
//!
//! Costs, with `w = ⌈n/64⌉` words per row and `d` the degree involved:
//!
//! | operation | time |
//! |---|---|
//! | [`Digraph::add_edge`], [`Digraph::has_edge`] | O(1) |
//! | [`Digraph::in_degree`], [`Digraph::out_degree`] | O(w), popcounts |
//! | [`Digraph::successors`], [`Digraph::predecessors`] | O(w + d) for the whole walk |
//! | [`Digraph::edges`], [`Digraph::edge_count`] | O(n·w + m) and O(n·w) |
//! | [`Digraph::reachable_from`], [`Digraph::reaching`] | O(n·w), plus the `BTreeSet` |

use std::collections::BTreeSet;
use std::fmt;
use std::sync::OnceLock;

/// A finite directed simple graph with vertices `0..n`.
///
/// Self-loops and parallel edges are rejected on construction — the paper's
/// lemmas are stated for *simple* digraphs. (A process does "hear from
/// itself" in the protocol, but the graph of Section VI counts only remote
/// first-stage messages, so self-loops never arise.)
///
/// A graph keeps its source components once a query has found them. The
/// first call of a source-component reader ([`source_components`],
/// [`check_lemma6`] and the others) runs one [`tarjan_scc`] and keeps what
/// it reads off; later calls read that. [`Digraph::add_edge`], the only
/// mutator, drops it. A clone carries it, [`Digraph::reversed`] starts
/// without one, and equality and `Debug` look only at the edges.
///
/// [`source_components`]: crate::source_components
/// [`check_lemma6`]: crate::check_lemma6
/// [`tarjan_scc`]: crate::tarjan_scc
#[derive(Clone)]
pub struct Digraph {
    n: usize,
    /// Words per row: `⌈n/64⌉`.
    words: usize,
    /// Out-rows: bit `w` of row `u` is set iff `u → w`.
    out: Vec<u64>,
    /// In-rows: bit `u` of row `w` is set iff `u → w`.
    inc: Vec<u64>,
    /// The source components, set by the first query since the last
    /// [`Digraph::add_edge`].
    sources: OnceLock<Vec<Vec<usize>>>,
}

impl Digraph {
    /// Creates an edgeless graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        Digraph {
            n,
            words,
            out: vec![0; n * words],
            inc: vec![0; n * words],
            sources: OnceLock::new(),
        }
    }

    /// Creates a graph from an edge list.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or self-loops.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut g = Digraph::new(n);
        for (u, w) in edges {
            g.add_edge(u, w);
        }
        g
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        popcount(&self.out)
    }

    /// Adds the edge `u → w` (idempotent).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or `u == w`.
    pub fn add_edge(&mut self, u: usize, w: usize) {
        assert!(u < self.n && w < self.n, "edge endpoint out of range");
        assert_ne!(u, w, "self-loops are not allowed in a simple digraph");
        self.out[u * self.words + w / 64] |= 1 << (w % 64);
        self.inc[w * self.words + u / 64] |= 1 << (u % 64);
        self.sources.take();
    }

    /// Whether the edge `u → w` exists.
    pub fn has_edge(&self, u: usize, w: usize) -> bool {
        u < self.n && w < self.n && self.out_row(u)[w / 64] & (1 << (w % 64)) != 0
    }

    /// Out-neighbours of `u`, ascending.
    pub fn successors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        Ones::new(self.out_row(u))
    }

    /// In-neighbours of `w`, ascending.
    pub fn predecessors(&self, w: usize) -> impl Iterator<Item = usize> + '_ {
        Ones::new(self.in_row(w))
    }

    /// In-degree of `w`.
    pub fn in_degree(&self, w: usize) -> usize {
        popcount(self.in_row(w))
    }

    /// Out-degree of `u`.
    pub fn out_degree(&self, u: usize) -> usize {
        popcount(self.out_row(u))
    }

    /// The minimum in-degree δ over all vertices (`None` for the empty
    /// graph). This is the δ of Lemmas 6 and 7.
    pub fn min_in_degree(&self) -> Option<usize> {
        (0..self.n).map(|w| self.in_degree(w)).min()
    }

    /// All edges as `(u, w)` pairs, sorted.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |u| self.successors(u).map(move |w| (u, w)))
    }

    /// Vertices reachable from `start` by directed paths (including
    /// `start`).
    pub fn reachable_from(&self, start: usize) -> BTreeSet<usize> {
        assert!(start < self.n, "start vertex out of range");
        Ones::new(&self.closure(&self.out, start)).collect()
    }

    /// Vertices from which `target` is reachable (including `target`):
    /// reachability in the reversed graph.
    pub fn reaching(&self, target: usize) -> BTreeSet<usize> {
        assert!(target < self.n, "target vertex out of range");
        Ones::new(&self.closure(&self.inc, target)).collect()
    }

    /// The reversed graph (every edge flipped).
    #[must_use]
    pub fn reversed(&self) -> Digraph {
        Digraph {
            n: self.n,
            words: self.words,
            out: self.inc.clone(),
            inc: self.out.clone(),
            sources: OnceLock::new(),
        }
    }

    /// The source components, each sorted, ordered by smallest member:
    /// found by the first call since the last [`Digraph::add_edge`] and
    /// kept.
    pub(crate) fn sources(&self) -> &[Vec<usize>] {
        self.sources
            .get_or_init(|| crate::source::find_source_components(self))
    }

    /// The out-row of `u`: bit `w` is set iff `u → w`.
    pub(crate) fn out_row(&self, u: usize) -> &[u64] {
        self.row(&self.out, u)
    }

    /// The in-row of `w`: bit `u` is set iff `u → w`.
    fn in_row(&self, w: usize) -> &[u64] {
        self.row(&self.inc, w)
    }

    /// Row `v` of `rows` (the out-rows or the in-rows).
    fn row<'a>(&self, rows: &'a [u64], v: usize) -> &'a [u64] {
        &rows[v * self.words..(v + 1) * self.words]
    }

    /// The vertices `start` reaches along `rows` (the out-rows or the
    /// in-rows), as a row. Each vertex is taken off the frontier once and
    /// adds its row's unseen bits to it.
    fn closure(&self, rows: &[u64], start: usize) -> Vec<u64> {
        let mut seen = vec![0u64; self.words];
        seen[start / 64] |= 1 << (start % 64);
        let mut frontier = vec![start];
        while let Some(u) = frontier.pop() {
            for (i, (known, &bits)) in seen.iter_mut().zip(self.row(rows, u)).enumerate() {
                let fresh = bits & !*known;
                *known |= fresh;
                frontier.extend(Ones::new(&[fresh]).map(|b| i * 64 + b));
            }
        }
        seen
    }
}

/// Equal iff same vertex count and same edges; the in-rows are the
/// out-rows transposed, and the cache is not compared.
impl PartialEq for Digraph {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.out == other.out
    }
}

impl Eq for Digraph {}

/// The rows, without the cache, so that a queried graph prints as an
/// unqueried one.
impl fmt::Debug for Digraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Digraph")
            .field("n", &self.n)
            .field("words", &self.words)
            .field("out", &self.out)
            .field("inc", &self.inc)
            .finish()
    }
}

fn popcount(row: &[u64]) -> usize {
    row.iter().map(|word| word.count_ones() as usize).sum()
}

/// The set bits of a row, ascending.
pub(crate) struct Ones<'a> {
    /// The words not yet loaded into `word`.
    rest: &'a [u64],
    /// Bit index of `word`'s bit 0.
    base: usize,
    /// The bits of the current word not yet yielded.
    word: u64,
}

impl<'a> Ones<'a> {
    pub(crate) fn new(row: &'a [u64]) -> Self {
        let (word, rest) = row.split_first().map_or((0, row), |(&w, rest)| (w, rest));
        Ones {
            rest,
            base: 0,
            word,
        }
    }
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            let (&word, rest) = self.rest.split_first()?;
            self.rest = rest;
            self.base += 64;
            self.word = word;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

impl fmt::Display for Digraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digraph(n={}, edges=[", self.n)?;
        let mut first = true;
        for (u, w) in self.edges() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{u}→{w}")?;
            first = false;
        }
        write!(f, "])")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query_edges() {
        let g = Digraph::from_edges(3, [(0, 1), (1, 2)]);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.in_degree(2), 1);
        assert_eq!(g.out_degree(1), 1);
    }

    #[test]
    fn add_edge_is_idempotent() {
        let mut g = Digraph::new(2);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loops_rejected() {
        let mut g = Digraph::new(2);
        g.add_edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let mut g = Digraph::new(2);
        g.add_edge(0, 5);
    }

    #[test]
    fn min_in_degree() {
        let g = Digraph::from_edges(3, [(0, 1), (0, 2), (1, 2)]);
        assert_eq!(g.min_in_degree(), Some(0), "vertex 0 has no in-edges");
        assert!(Digraph::new(0).min_in_degree().is_none());
    }

    #[test]
    fn reachability_forwards_and_backwards() {
        // 0 → 1 → 2,  3 isolated
        let g = Digraph::from_edges(4, [(0, 1), (1, 2)]);
        assert_eq!(g.reachable_from(0), [0, 1, 2].into());
        assert_eq!(g.reachable_from(2), [2].into());
        assert_eq!(g.reaching(2), [0, 1, 2].into());
        assert_eq!(g.reaching(3), [3].into());
    }

    #[test]
    fn reversal_flips_edges() {
        let g = Digraph::from_edges(3, [(0, 1), (1, 2)]);
        let r = g.reversed();
        assert!(r.has_edge(1, 0));
        assert!(r.has_edge(2, 1));
        assert_eq!(r.edge_count(), 2);
        assert_eq!(r.reversed(), g);
    }

    #[test]
    fn queried_graph_equals_and_prints_as_unqueried() {
        let g = Digraph::from_edges(3, [(0, 1), (1, 2)]);
        let queried = g.clone();
        assert_eq!(queried.sources(), [vec![0]]);
        assert_eq!(queried, g);
        assert_eq!(format!("{queried:?}"), format!("{g:?}"));
    }

    #[test]
    fn is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Digraph>();
    }

    #[test]
    fn display_lists_edges() {
        let g = Digraph::from_edges(2, [(0, 1)]);
        assert_eq!(g.to_string(), "Digraph(n=2, edges=[0→1])");
    }
}
