//! Source components and the graph lemmas of Section VI.
//!
//! A strongly connected component `C` of `G` is a **source component** if
//! no edge enters it from outside `C`. The paper proves:
//!
//! * **Lemma 6.** Every finite directed simple graph where each vertex has
//!   in-degree ≥ δ > 0 has a source component of size ≥ δ + 1.
//! * **Lemma 7.** In each weakly connected component of such a graph there
//!   is a source component of size ≥ δ + 1.
//! * Consequently there are at most `⌊n/(δ+1)⌋` source components, and every
//!   vertex has an incoming path from *all* vertices of at least one source
//!   component — the fact powering the decision rule of the generalized
//!   two-stage protocol.
//!
//! This module computes source components, the deterministic
//! "source component of a vertex" selection used by the protocol, and
//! checker functions that the property-based tests and experiment E6 use as
//! oracles.
//!
//! The sources are read off Tarjan's `vertex → component` map: one pass
//! over the in-rows marks each component that an edge enters from another
//! component. With [`tarjan_scc`] that costs O(n·⌈n/64⌉ + m), paid by the
//! first reader of a graph, which keeps the list in the [`Digraph`]; later
//! readers take it from there until [`Digraph::add_edge`] changes the
//! graph. [`source_components`] then costs a copy of the list, and the
//! checkers a pass over it, except that Lemma 7's weakly connected
//! components cost O(n·⌈n/64⌉ + m) on every call.
//! [`source_components_reaching`] and [`chosen_source_component`] add one
//! backward reachability walk.

use std::collections::BTreeSet;

use crate::digraph::Digraph;
use crate::scc::tarjan_scc;
use crate::weakly::weak_component_map;

/// The source components of `g`, each sorted, ordered by smallest member.
pub fn source_components(g: &Digraph) -> Vec<Vec<usize>> {
    g.sources().to_vec()
}

/// The source components of `g` from one [`tarjan_scc`], each sorted,
/// ordered by smallest member; [`Digraph`] keeps the result.
pub(crate) fn find_source_components(g: &Digraph) -> Vec<Vec<usize>> {
    let scc = tarjan_scc(g);
    let component_of = scc.component_map();
    let mut entered = vec![false; scc.count()];
    for (w, &c) in component_of.iter().enumerate() {
        if !entered[c] && g.predecessors(w).any(|u| component_of[u] != c) {
            entered[c] = true;
        }
    }
    // Each component once, at its smallest member.
    component_of
        .iter()
        .enumerate()
        .filter(|&(v, &c)| !entered[c] && scc.members(c)[0] == v)
        .map(|(_, &c)| scc.members(c).to_vec())
        .collect()
}

/// The source components whose members reach `v` (there is a directed path
/// from each member to `v`), ordered by smallest member.
///
/// Lemmas 6/7 guarantee this is nonempty for every `v`.
pub fn source_components_reaching(g: &Digraph, v: usize) -> Vec<Vec<usize>> {
    let ancestors: BTreeSet<usize> = g.reaching(v);
    g.sources()
        .iter()
        .filter(|c| c.iter().all(|u| ancestors.contains(u)))
        .cloned()
        .collect()
}

/// The deterministic source-component selection of the two-stage protocol:
/// among the source components reaching `v`, the one with the smallest
/// minimum vertex. Every process applies this same rule locally, so the
/// number of distinct selections system-wide is at most the number of source
/// components.
///
/// # Panics
///
/// Panics if no source component reaches `v` — impossible for a well-formed
/// graph, so a panic indicates a caller bug.
pub fn chosen_source_component(g: &Digraph, v: usize) -> Vec<usize> {
    source_components_reaching(g, v)
        .into_iter()
        .next()
        // kset-lint: allow(panic-in-library): invariant — in a finite digraph, following edges backwards from any vertex ends in a source SCC, which then reaches it; documented as a caller-bug panic
        .expect("every vertex is reached by at least one source component")
}

/// Upper bound on the number of source components from the in-degree lower
/// bound δ: `⌊n/(δ+1)⌋` (each source component has ≥ δ+1 vertices and
/// distinct source components are disjoint).
pub fn max_source_components(n: usize, delta: usize) -> usize {
    n / (delta + 1)
}

/// Checks Lemma 6 on a concrete graph: if every vertex of `g` has in-degree
/// ≥ δ > 0 then some source component has ≥ δ + 1 vertices. Returns `Err`
/// with a description when the lemma's conclusion fails (which would falsify
/// the paper — used as a property-test oracle).
pub fn check_lemma6(g: &Digraph, delta: usize) -> Result<(), String> {
    if delta == 0 {
        return Err("lemma 6 requires δ > 0".into());
    }
    if let Some(min) = g.min_in_degree() {
        if min < delta {
            return Err(format!(
                "premise violated: min in-degree {min} < δ = {delta}"
            ));
        }
    }
    if g.n() == 0 {
        return Ok(());
    }
    match g.sources().iter().map(Vec::len).max() {
        Some(largest) if largest > delta => Ok(()),
        Some(largest) => Err(format!(
            "no source component of size ≥ {} (largest is {largest})",
            delta + 1
        )),
        None => Err("graph with vertices but no source component".into()),
    }
}

/// Checks Lemma 7: in *each* weakly connected component of `g` (with
/// in-degree ≥ δ > 0 everywhere) there is a source component of size
/// ≥ δ + 1.
pub fn check_lemma7(g: &Digraph, delta: usize) -> Result<(), String> {
    if delta == 0 {
        return Err("lemma 7 requires δ > 0".into());
    }
    if let Some(min) = g.min_in_degree() {
        if min < delta {
            return Err(format!(
                "premise violated: min in-degree {min} < δ = {delta}"
            ));
        }
    }
    // A source component is strongly connected, so it lies inside the
    // weakly connected component of any of its members.
    let (wcc_of, count) = weak_component_map(g);
    let mut has_large_source = vec![false; count];
    for s in g.sources() {
        if s.len() > delta {
            has_large_source[wcc_of[s[0]]] = true;
        }
    }
    match has_large_source.iter().position(|ok| !ok) {
        None => Ok(()),
        Some(c) => {
            let wcc: Vec<usize> = (0..g.n()).filter(|&v| wcc_of[v] == c).collect();
            Err(format!(
                "weakly connected component {wcc:?} lacks a source component of size ≥ {}",
                delta + 1
            ))
        }
    }
}

/// Checks the count bound: at most `⌊n/(δ+1)⌋` source components when the
/// in-degree is ≥ δ everywhere, and uniqueness when `2δ ≥ n` (the paper:
/// "when 2δ > n, then there can be only one source component"; with
/// δ = L − 1 and majority L the protocol gets consensus).
pub fn check_source_count_bound(g: &Digraph, delta: usize) -> Result<(), String> {
    let count = g.sources().len();
    let bound = max_source_components(g.n(), delta);
    if g.n() > 0 && count > bound {
        return Err(format!("{count} source components exceed bound {bound}"));
    }
    if delta > 0 && 2 * delta >= g.n() && g.n() > 0 && count > 1 {
        return Err(format!("2δ ≥ n but {count} source components"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The "two camps" graph: two disjoint (δ+1)-cliques (bidirectional),
    /// everyone else hears from one camp. δ = 2, n = 6.
    fn two_camps() -> Digraph {
        let mut g = Digraph::new(6);
        for camp in [[0, 1, 2], [3, 4, 5]] {
            for &u in &camp {
                for &w in &camp {
                    if u != w {
                        g.add_edge(u, w);
                    }
                }
            }
        }
        g
    }

    #[test]
    fn two_camps_have_two_sources() {
        let g = two_camps();
        let comps = source_components(&g);
        assert_eq!(comps, vec![vec![0, 1, 2], vec![3, 4, 5]]);
        assert!(check_lemma6(&g, 2).is_ok());
        assert!(check_lemma7(&g, 2).is_ok());
        assert!(check_source_count_bound(&g, 2).is_ok());
    }

    #[test]
    fn reaching_selection_is_deterministic() {
        let mut g = two_camps();
        // 0-camp also feeds vertex 3's camp... add edge 0 → 3: camp {3,4,5}
        // is no longer a source; everyone selects camp {0,1,2}.
        g.add_edge(0, 3);
        for v in 0..6 {
            assert_eq!(chosen_source_component(&g, v), vec![0, 1, 2]);
        }
    }

    #[test]
    fn vertex_reached_by_multiple_sources_picks_smallest() {
        // Sources {0} and {1} both reach 2.
        let g = Digraph::from_edges(3, [(0, 2), (1, 2)]);
        assert_eq!(chosen_source_component(&g, 2), vec![0]);
        assert_eq!(chosen_source_component(&g, 1), vec![1]);
    }

    #[test]
    fn lemma6_premise_violation_detected() {
        let g = Digraph::from_edges(3, [(0, 1), (1, 2)]); // vertex 0 has in-degree 0
        assert!(check_lemma6(&g, 1).unwrap_err().contains("premise"));
    }

    #[test]
    fn lemma6_holds_on_cycle() {
        let g = Digraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(check_lemma6(&g, 1).is_ok());
        // One source component of size 4 ≥ δ+1 = 2.
        assert_eq!(source_components(&g).len(), 1);
    }

    #[test]
    fn count_bound_uniqueness_with_majority() {
        // n = 4, δ = 2: 2δ ≥ n forces a unique source component. A 3-cycle
        // plus vertex 3 hearing from everyone, everyone hearing from ≥ 2.
        let g = Digraph::from_edges(
            4,
            [
                (0, 1),
                (1, 2),
                (2, 0),
                (0, 3),
                (1, 3),
                (2, 3),
                (3, 0),
                (3, 1),
                (3, 2),
                (1, 0),
                (2, 1),
                (0, 2),
            ],
        );
        assert!(g.min_in_degree().unwrap() >= 2);
        assert_eq!(source_components(&g).len(), 1);
        assert!(check_source_count_bound(&g, 2).is_ok());
    }

    #[test]
    fn max_source_components_formula() {
        assert_eq!(max_source_components(10, 1), 5);
        assert_eq!(max_source_components(10, 4), 2);
        assert_eq!(max_source_components(10, 9), 1);
        assert_eq!(max_source_components(7, 2), 2);
    }

    #[test]
    fn multiple_sources() {
        // 0 → 2 ← 1: two singleton sources {0} and {1}.
        let g = Digraph::from_edges(3, [(0, 2), (1, 2)]);
        assert_eq!(source_components(&g), vec![vec![0], vec![1]]);
    }

    #[test]
    fn single_cycle_is_single_source() {
        let g = Digraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(source_components(&g), vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn isolated_vertices_are_sources() {
        let g = Digraph::new(2);
        assert_eq!(source_components(&g), vec![vec![0], vec![1]]);
    }

    #[test]
    fn empty_graph_checks_pass_vacuously() {
        let g = Digraph::new(0);
        assert!(check_lemma6(&g, 1).is_ok());
        assert!(check_lemma7(&g, 1).is_ok());
        assert!(check_source_count_bound(&g, 1).is_ok());
    }
}
