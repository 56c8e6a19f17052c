//! Initial cliques: the decision anchor of the FLP two-stage protocol.
//!
//! Section VI (after FLP): "every process can … consistently determine an
//! initial clique `C` in `G`, i.e., a fully connected maximal subgraph with
//! no incoming edges. Since `n > 2f`, exactly one such `C` must exist." The
//! paper then observes that detecting the initial clique is equivalent to
//! detecting the source component a process is connected to.
//!
//! In a digraph, *fully connected* means every ordered pair of distinct
//! members is an edge; *no incoming edges* means no edge from outside the
//! set into it. An initial clique is therefore exactly a source component
//! that happens to be a bidirectional clique.

use std::collections::BTreeSet;

use crate::digraph::Digraph;

/// Whether `set` is fully connected in `g` (every ordered pair an edge).
pub fn is_clique(g: &Digraph, set: &BTreeSet<usize>) -> bool {
    set.iter()
        .all(|&u| set.iter().all(|&w| u == w || g.has_edge(u, w)))
}

/// Whether `set` has no incoming edge from outside.
pub fn has_no_incoming(g: &Digraph, set: &BTreeSet<usize>) -> bool {
    set.iter()
        .all(|&w| g.predecessors(w).all(|u| set.contains(&u)))
}

/// All initial cliques of `g`: source components that are cliques, ordered
/// by smallest member.
///
/// For the first-stage graph of the two-stage protocol with waiting
/// threshold `L > n/2` (the consensus case) there is exactly one; with
/// general `L = n − f` there are at most `⌊n/L⌋`.
pub fn initial_cliques(g: &Digraph) -> Vec<Vec<usize>> {
    g.sources()
        .iter()
        .filter(|c| {
            let set: BTreeSet<usize> = c.iter().copied().collect();
            is_clique(g, &set) && has_no_incoming(g, &set)
        })
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bidirectional_clique(g: &mut Digraph, members: &[usize]) {
        for &u in members {
            for &w in members {
                if u != w {
                    g.add_edge(u, w);
                }
            }
        }
    }

    #[test]
    fn clique_predicate() {
        let mut g = Digraph::new(4);
        bidirectional_clique(&mut g, &[0, 1, 2]);
        assert!(is_clique(&g, &[0, 1, 2].into()));
        assert!(!is_clique(&g, &[0, 1, 3].into()));
        assert!(is_clique(&g, &[3].into()), "singletons are cliques");
        assert!(is_clique(&g, &BTreeSet::new()), "empty set is a clique");
    }

    #[test]
    fn no_incoming_predicate() {
        let mut g = Digraph::new(4);
        bidirectional_clique(&mut g, &[0, 1]);
        g.add_edge(3, 2);
        assert!(has_no_incoming(&g, &[0, 1].into()));
        assert!(!has_no_incoming(&g, &[2].into()));
    }

    #[test]
    fn unique_initial_clique_with_majority_structure() {
        // Clique {0,1,2} feeding 3; exactly one initial clique.
        let mut g = Digraph::new(4);
        bidirectional_clique(&mut g, &[0, 1, 2]);
        for u in [0, 1, 2] {
            g.add_edge(u, 3);
        }
        assert_eq!(initial_cliques(&g), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn two_initial_cliques_without_majority() {
        let mut g = Digraph::new(6);
        bidirectional_clique(&mut g, &[0, 1, 2]);
        bidirectional_clique(&mut g, &[3, 4, 5]);
        assert_eq!(initial_cliques(&g), vec![vec![0, 1, 2], vec![3, 4, 5]]);
    }

    #[test]
    fn source_cycle_that_is_not_a_clique_is_excluded() {
        // A 3-cycle is a source component but not fully connected.
        let g = Digraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        assert!(initial_cliques(&g).is_empty());
    }
}
