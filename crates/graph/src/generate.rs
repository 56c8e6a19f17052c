//! Graph generators for tests, property tests, and experiment E6.
//!
//! The key generator is [`stage_one_graph`]: the random first-stage graph of
//! the two-stage protocol, where every vertex receives messages from exactly
//! δ distinct others (in-degree exactly δ) — the premise of Lemmas 6/7.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::digraph::Digraph;

/// Random digraph where every vertex has in-degree exactly `delta`
/// (each vertex independently picks `delta` distinct in-neighbours).
///
/// This is the shape of the first-stage graph `G` of Section VI: vertex `w`
/// has an edge `u → w` for each of the `L − 1 = δ` processes `u` it heard
/// from in stage one.
///
/// # Panics
///
/// Panics if `delta >= n` (a vertex cannot have `n` distinct in-neighbours
/// other than itself).
pub fn stage_one_graph(n: usize, delta: usize, seed: u64) -> Digraph {
    assert!(delta < n, "in-degree δ must be < n");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Digraph::new(n);
    let mut candidates = Vec::with_capacity(n - 1);
    for w in 0..n {
        candidates.clear();
        candidates.extend((0..n).filter(|u| *u != w));
        candidates.shuffle(&mut rng);
        for &u in &candidates[..delta] {
            g.add_edge(u, w);
        }
    }
    g
}

/// Random digraph with each possible edge present independently with
/// probability `p_percent/100`.
pub fn gnp_digraph(n: usize, p_percent: u8, seed: u64) -> Digraph {
    assert!(p_percent <= 100, "probability out of range");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Digraph::new(n);
    for u in 0..n {
        for w in 0..n {
            if u != w && rng.gen_range(0..100u8) < p_percent {
                g.add_edge(u, w);
            }
        }
    }
    g
}

/// `count` disjoint bidirectional cliques of size `size` (plus isolated
/// leftover vertices if `n > count * size`): the worst-case multi-camp
/// stage-one graph exhibiting the maximal number of source components.
///
/// # Panics
///
/// Panics if `count * size > n`.
pub fn camps(n: usize, count: usize, size: usize) -> Digraph {
    assert!(count * size <= n, "camps do not fit");
    let mut g = Digraph::new(n);
    for c in 0..count {
        let base = c * size;
        for i in 0..size {
            for j in 0..size {
                if i != j {
                    g.add_edge(base + i, base + j);
                }
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{check_lemma6, check_lemma7, check_source_count_bound};

    #[test]
    fn stage_one_has_exact_in_degree() {
        let g = stage_one_graph(10, 3, 42);
        for w in 0..10 {
            assert_eq!(g.in_degree(w), 3);
        }
    }

    #[test]
    fn stage_one_is_deterministic_per_seed() {
        assert_eq!(stage_one_graph(8, 2, 7), stage_one_graph(8, 2, 7));
        assert_ne!(stage_one_graph(8, 2, 7), stage_one_graph(8, 2, 8));
    }

    #[test]
    #[should_panic(expected = "must be < n")]
    fn stage_one_rejects_excess_degree() {
        let _ = stage_one_graph(3, 3, 0);
    }

    #[test]
    fn stage_one_satisfies_lemmas() {
        for seed in 0..20 {
            let g = stage_one_graph(12, 3, seed);
            check_lemma6(&g, 3).unwrap();
            check_lemma7(&g, 3).unwrap();
            check_source_count_bound(&g, 3).unwrap();
        }
    }

    #[test]
    fn gnp_respects_probability_extremes() {
        let empty = gnp_digraph(5, 0, 1);
        assert_eq!(empty.edge_count(), 0);
        let full = gnp_digraph(5, 100, 1);
        assert_eq!(full.edge_count(), 5 * 4);
    }

    #[test]
    fn camps_build_expected_sources() {
        let g = camps(7, 2, 3);
        let sources = crate::source::source_components(&g);
        // Two camps plus the isolated vertex 6.
        assert_eq!(sources, vec![vec![0, 1, 2], vec![3, 4, 5], vec![6]]);
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn camps_overflow_rejected() {
        let _ = camps(5, 2, 3);
    }
}
