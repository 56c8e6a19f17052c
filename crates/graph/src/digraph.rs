//! A simple directed graph over vertices `0..n`.
//!
//! Section VI of the paper analyses the *first-stage graph* `G` of the
//! FLP-style two-stage protocol: one node per process, with an edge `u → w`
//! iff `w` received a message from `u` in the first stage. All the graph
//! theory the paper needs (Lemmas 6 and 7) is about finite directed simple
//! graphs with an in-degree lower bound, so that is exactly what this type
//! models.

use std::collections::BTreeSet;
use std::fmt;

/// A finite directed simple graph with vertices `0..n`.
///
/// Self-loops and parallel edges are rejected on construction — the paper's
/// lemmas are stated for *simple* digraphs. (A process does "hear from
/// itself" in the protocol, but the graph of Section VI counts only remote
/// first-stage messages, so self-loops never arise.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digraph {
    n: usize,
    /// Out-adjacency: `succs[u]` = sorted targets of edges `u → w`.
    succs: Vec<BTreeSet<usize>>,
    /// In-adjacency: `preds[w]` = sorted sources of edges `u → w`.
    preds: Vec<BTreeSet<usize>>,
}

impl Digraph {
    /// Creates an edgeless graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        Digraph {
            n,
            succs: vec![BTreeSet::new(); n],
            preds: vec![BTreeSet::new(); n],
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
        self.succs.iter().map(BTreeSet::len).sum()
    }

    /// Adds the edge `u → w` (idempotent).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or `u == w`.
    pub fn add_edge(&mut self, u: usize, w: usize) {
        assert!(u < self.n && w < self.n, "edge endpoint out of range");
        assert_ne!(u, w, "self-loops are not allowed in a simple digraph");
        self.succs[u].insert(w);
        self.preds[w].insert(u);
    }

    /// Whether the edge `u → w` exists.
    pub fn has_edge(&self, u: usize, w: usize) -> bool {
        u < self.n && self.succs[u].contains(&w)
    }

    /// Out-neighbours of `u`.
    pub fn successors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.succs[u].iter().copied()
    }

    /// In-neighbours of `w`.
    pub fn predecessors(&self, w: usize) -> impl Iterator<Item = usize> + '_ {
        self.preds[w].iter().copied()
    }

    /// In-degree of `w`.
    pub fn in_degree(&self, w: usize) -> usize {
        self.preds[w].len()
    }

    /// Out-degree of `u`.
    pub fn out_degree(&self, u: usize) -> usize {
        self.succs[u].len()
    }

    /// The minimum in-degree δ over all vertices (`None` for the empty
    /// graph). This is the δ of Lemmas 6 and 7.
    pub fn min_in_degree(&self) -> Option<usize> {
        (0..self.n).map(|w| self.in_degree(w)).min()
    }

    /// All edges as `(u, w)` pairs, sorted.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.succs
            .iter()
            .enumerate()
            .flat_map(|(u, ws)| ws.iter().map(move |w| (u, *w)))
    }

    /// Vertices reachable from `start` by directed paths (including
    /// `start`).
    pub fn reachable_from(&self, start: usize) -> BTreeSet<usize> {
        assert!(start < self.n, "start vertex out of range");
        let mut seen: BTreeSet<usize> = [start].into();
        let mut stack = vec![start];
        while let Some(u) = stack.pop() {
            for w in self.successors(u) {
                if seen.insert(w) {
                    stack.push(w);
                }
            }
        }
        seen
    }

    /// Vertices from which `target` is reachable (including `target`):
    /// reachability in the reversed graph.
    pub fn reaching(&self, target: usize) -> BTreeSet<usize> {
        assert!(target < self.n, "target vertex out of range");
        let mut seen: BTreeSet<usize> = [target].into();
        let mut stack = vec![target];
        while let Some(w) = stack.pop() {
            for u in self.predecessors(w) {
                if seen.insert(u) {
                    stack.push(u);
                }
            }
        }
        seen
    }

    /// The reversed graph (every edge flipped).
    #[must_use]
    pub fn reversed(&self) -> Digraph {
        Digraph {
            n: self.n,
            succs: self.preds.clone(),
            preds: self.succs.clone(),
        }
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
    fn display_lists_edges() {
        let g = Digraph::from_edges(2, [(0, 1)]);
        assert_eq!(g.to_string(), "Digraph(n=2, edges=[0→1])");
    }
}
