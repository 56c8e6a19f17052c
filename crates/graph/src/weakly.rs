//! Weakly connected components.
//!
//! Lemma 7 of the paper refines Lemma 6 per *weakly connected component*:
//! in each one there is a source component of size ≥ δ + 1. Both functions
//! here take O(n·⌈n/64⌉ + m) time: every vertex is expanded once, over its
//! out-row and its in-row.

use crate::digraph::Digraph;

/// Partition of the vertices into weakly connected components (connectivity
/// ignoring edge direction). Components are sorted internally and listed in
/// order of their smallest vertex.
pub fn weakly_connected_components(g: &Digraph) -> Vec<Vec<usize>> {
    let (component_of, count) = weak_component_map(g);
    let mut out = vec![Vec::new(); count];
    for (v, c) in component_of.iter().enumerate() {
        out[*c].push(v);
    }
    out
}

/// The weakly connected component of every vertex, numbered in order of
/// their smallest vertex, and the number of components.
pub(crate) fn weak_component_map(g: &Digraph) -> (Vec<usize>, usize) {
    let n = g.n();
    let mut comp = vec![usize::MAX; n];
    let mut count = 0usize;
    let mut stack = Vec::new();
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        comp[start] = count;
        stack.push(start);
        while let Some(v) = stack.pop() {
            for w in g.successors(v).chain(g.predecessors(v)) {
                if comp[w] == usize::MAX {
                    comp[w] = count;
                    stack.push(w);
                }
            }
        }
        count += 1;
    }
    (comp, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_is_ignored() {
        // 0 → 1 ← 2 is weakly connected despite no directed path 0 ↔ 2.
        let g = Digraph::from_edges(3, [(0, 1), (2, 1)]);
        assert_eq!(weakly_connected_components(&g), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn disconnected_pieces_are_separate() {
        let g = Digraph::from_edges(5, [(0, 1), (3, 4)]);
        assert_eq!(
            weakly_connected_components(&g),
            vec![vec![0, 1], vec![2], vec![3, 4]]
        );
    }

    #[test]
    fn empty_and_isolated() {
        assert!(weakly_connected_components(&Digraph::new(0)).is_empty());
        assert_eq!(
            weakly_connected_components(&Digraph::new(2)),
            vec![vec![0], vec![1]]
        );
    }

    #[test]
    fn cycle_is_one_component() {
        let g = Digraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        assert_eq!(weakly_connected_components(&g).len(), 1);
    }
}
