//! Property-based tests for the graph substrate: Lemmas 6 and 7 and the
//! source-component bounds on randomized digraphs.

use proptest::prelude::*;

use kset::core::algorithms::two_stage::chosen_source_min;
use kset::graph::{
    check_lemma6, check_lemma7, check_source_count_bound, chosen_source_component, gnp_digraph,
    max_source_components, source_components, source_components_reaching, stage_one_graph,
    tarjan_scc, weakly_connected_components, Condensation, Digraph,
};
use kset::sim::{ProcessId, ProcessSet};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lemma 6 + 7 + count bound on stage-one graphs (in-degree exactly δ).
    #[test]
    fn lemmas_hold_on_stage_one_graphs(
        n in 2usize..24,
        delta_seed in 0usize..100,
        seed in 0u64..10_000,
    ) {
        let delta = 1 + delta_seed % (n - 1); // 1 ≤ δ < n
        let g = stage_one_graph(n, delta, seed);
        prop_assert!(check_lemma6(&g, delta).is_ok());
        prop_assert!(check_lemma7(&g, delta).is_ok());
        prop_assert!(check_source_count_bound(&g, delta).is_ok());
    }

    /// Every vertex is reached by at least one source component, and the
    /// deterministic selection picks one of them.
    #[test]
    fn every_vertex_reached_by_a_source(
        n in 1usize..20,
        p in 0u8..=100,
        seed in 0u64..10_000,
    ) {
        let g = gnp_digraph(n, p, seed);
        for v in 0..n {
            let reaching = source_components_reaching(&g, v);
            prop_assert!(!reaching.is_empty(), "vertex {v} unreached");
            let chosen = chosen_source_component(&g, v);
            prop_assert!(reaching.contains(&chosen));
        }
    }

    /// Source components are pairwise disjoint and each is an SCC.
    #[test]
    fn source_components_are_disjoint_sccs(
        n in 1usize..20,
        p in 0u8..=100,
        seed in 0u64..10_000,
    ) {
        let g = gnp_digraph(n, p, seed);
        let scc = tarjan_scc(&g);
        let sources = source_components(&g);
        let mut seen = std::collections::BTreeSet::new();
        for comp in &sources {
            for v in comp {
                prop_assert!(seen.insert(*v), "source components overlap at {v}");
            }
            // Each source component is exactly one SCC's member set.
            let c = scc.component_of(comp[0]);
            prop_assert_eq!(scc.members(c), comp.as_slice());
        }
    }

    /// The count bound ⌊n/(δ+1)⌋ holds whenever min in-degree ≥ δ.
    #[test]
    fn count_bound_from_actual_min_degree(
        n in 2usize..20,
        p in 30u8..=100,
        seed in 0u64..10_000,
    ) {
        let g = gnp_digraph(n, p, seed);
        if let Some(delta) = g.min_in_degree() {
            if delta > 0 {
                let count = source_components(&g).len();
                prop_assert!(count <= max_source_components(n, delta));
            }
        }
    }

    /// SCC decomposition partitions the vertices; members are sorted.
    #[test]
    fn scc_partitions_vertices(
        n in 0usize..25,
        p in 0u8..=100,
        seed in 0u64..10_000,
    ) {
        let g = gnp_digraph(n, p, seed);
        let scc = tarjan_scc(&g);
        let mut all: Vec<usize> = scc.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
        for comp in scc.iter() {
            prop_assert!(comp.windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// Tarjan emits components in reverse topological order of the
    /// condensation: every condensation edge goes from a higher to a lower
    /// component index.
    #[test]
    fn tarjan_order_is_reverse_topological(
        n in 1usize..20,
        p in 0u8..=100,
        seed in 0u64..10_000,
    ) {
        let g = gnp_digraph(n, p, seed);
        let cond = Condensation::of(&g);
        for (u, w) in cond.dag().edges() {
            prop_assert!(u > w, "condensation edge {u}→{w} violates Tarjan order");
        }
    }

    /// Weakly connected components partition the vertices and are closed
    /// under both edge directions.
    #[test]
    fn wcc_partitions_and_closed(
        n in 0usize..20,
        p in 0u8..=100,
        seed in 0u64..10_000,
    ) {
        let g = gnp_digraph(n, p, seed);
        let wccs = weakly_connected_components(&g);
        let mut all: Vec<usize> = wccs.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
        for wcc in &wccs {
            let set: std::collections::BTreeSet<usize> = wcc.iter().copied().collect();
            for &v in wcc {
                for w in g.successors(v).chain(g.predecessors(v)) {
                    prop_assert!(set.contains(&w), "wcc not closed at {v}→{w}");
                }
            }
        }
    }

    /// Reversing a graph twice is the identity; reversal swaps
    /// reachable_from and reaching.
    #[test]
    fn reversal_duality(
        n in 1usize..15,
        p in 0u8..=100,
        seed in 0u64..10_000,
    ) {
        let g = gnp_digraph(n, p, seed);
        prop_assert_eq!(g.reversed().reversed(), g.clone());
        let r = g.reversed();
        for v in 0..n {
            prop_assert_eq!(g.reachable_from(v), r.reaching(v));
        }
    }
}

/// Exhaustive check of Lemma 6 over *all* digraphs on up to 4 vertices
/// whose minimum in-degree is ≥ 1 — not a random property but a complete
/// enumeration (4 vertices ⇒ 12 possible edges ⇒ 4096 graphs).
#[test]
fn lemma6_exhaustive_on_tiny_graphs() {
    for n in 1..=4usize {
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| (0..n).filter(move |w| *w != u).map(move |w| (u, w)))
            .collect();
        let m = pairs.len();
        for mask in 0u32..(1 << m) {
            let edges = pairs
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, e)| *e);
            let g = Digraph::from_edges(n, edges);
            let delta = g.min_in_degree().unwrap_or(0);
            if delta >= 1 {
                check_lemma6(&g, delta).unwrap_or_else(|e| {
                    panic!("lemma 6 fails on {g}: {e}");
                });
                check_lemma7(&g, delta).unwrap_or_else(|e| {
                    panic!("lemma 7 fails on {g}: {e}");
                });
            }
        }
    }
}

/// Asserts that two-stage's bitset decision rule agrees with the graph rule
/// it replaced, for each process `me` in `mes`: over `me`'s closure `K`
/// (every vertex with a path to `me`), the rule's member must be the
/// minimum of `chosen_source_component(g, me)`.
fn assert_rules_agree(g: &Digraph, mes: impl IntoIterator<Item = usize>, label: &str) {
    // heard(p) = the in-neighbours of p: an edge u → p means p heard u.
    let heard: Vec<ProcessSet> = (0..g.n())
        .map(|p| g.predecessors(p).map(ProcessId::new).collect())
        .collect();
    for me in mes {
        let k: ProcessSet = g.reaching(me).into_iter().map(ProcessId::new).collect();
        let bitset = chosen_source_min(k, |p| heard[p.index()]);
        let graph = chosen_source_component(g, me).into_iter().min();
        assert_eq!(bitset.map(ProcessId::index), graph, "{label}, me = {me}");
    }
}

#[test]
fn two_stage_rule_matches_the_graph_rule() {
    // Small random graphs at every density, every process as `me`.
    for n in 1..=12 {
        for density in (0..=100).step_by(5) {
            for seed in 0..4 {
                let g = gnp_digraph(n, density, 1_000 * seed + n as u64);
                assert_rules_agree(&g, 0..n, &format!("gnp n={n} p={density}% seed={seed}"));
            }
        }
    }
    // Stage-one graphs past one and two 64-bit limbs and at the full
    // 512-process capacity, with the sample of `me`s spread over the limbs.
    for (n, deltas) in [
        (65, [1, 2, 16, 32]),
        (130, [1, 2, 8, 64]),
        (512, [1, 2, 3, 8]),
    ] {
        for delta in deltas {
            let g = stage_one_graph(n, delta, (n + delta) as u64);
            let mes = [0, 63, 64, n / 2, n - 1];
            assert_rules_agree(&g, mes, &format!("stage-one n={n} δ={delta}"));
        }
    }
    // L = 2 at n = 512 as a chain, the worst case for forward–backward:
    // p_i hears p_{i+1} and p_511 hears p_510, so the one source
    // component {p_510, p_511} is the last of 511 candidates from p_0.
    let edges = (0..511).map(|i| (i + 1, i)).chain([(510, 511)]);
    let chain = Digraph::from_edges(512, edges);
    assert_rules_agree(&chain, [0, 1, 255, 510, 511], "chain n=512");
}
