//! Property-based tests for the graph substrate: Lemmas 6 and 7 and the
//! source-component bounds on randomized digraphs.

use proptest::prelude::*;

use kset::core::algorithms::two_stage::{chosen_source_min, chosen_source_min_one_limb};
use kset::graph::{
    check_lemma6, check_lemma7, check_source_count_bound, chosen_source_component, gnp_digraph,
    initial_cliques, max_source_components, source_components, source_components_reaching,
    stage_one_graph, tarjan_scc, weakly_connected_components, Digraph,
};
use kset::sim::{ProcessId, ProcessSet, WideSet};

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

    /// Tarjan emits components in reverse topological order: every edge
    /// between two components goes from a higher to a lower component
    /// index.
    #[test]
    fn tarjan_order_is_reverse_topological(
        n in 1usize..20,
        p in 0u8..=100,
        seed in 0u64..10_000,
    ) {
        let g = gnp_digraph(n, p, seed);
        prop_assert_eq!(tarjan_order_violation(&g), None);
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
/// minimum of `chosen_source_component(g, me)`. On a graph that fits one
/// 64-bit limb, the one-limb instantiation must give the same member.
fn assert_rules_agree(g: &Digraph, mes: impl IntoIterator<Item = usize>, label: &str) {
    // heard(p) = the in-neighbours of p: an edge u → p means p heard u.
    let heard: Vec<ProcessSet> = (0..g.n())
        .map(|p| g.predecessors(p).map(ProcessId::new).collect())
        .collect();
    let one_limb = |s: ProcessSet| WideSet::<1>::from_limbs([s.limbs()[0]]);
    for me in mes {
        let k: ProcessSet = g.reaching(me).into_iter().map(ProcessId::new).collect();
        let bitset = chosen_source_min(k, |p| heard[p.index()]);
        let graph = chosen_source_component(g, me).into_iter().min();
        assert_eq!(bitset.map(ProcessId::index), graph, "{label}, me = {me}");
        if g.n() <= WideSet::<1>::CAPACITY {
            let narrow = chosen_source_min_one_limb(one_limb(k), |p| one_limb(heard[p.index()]));
            assert_eq!(narrow, bitset, "{label}, me = {me}, one limb");
        }
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
    // Stage-one graphs that just fit one 64-bit limb, past one and two
    // limbs and at the full 512-process capacity, with the sample of `me`s
    // spread over the limbs.
    for (n, deltas) in [
        (63, [1, 2, 16, 32]),
        (64, [1, 2, 16, 32]),
        (65, [1, 2, 16, 32]),
        (130, [1, 2, 8, 64]),
        (512, [1, 2, 3, 8]),
    ] {
        for delta in deltas {
            let g = stage_one_graph(n, delta, (n + delta) as u64);
            let mes = [0, 63, 64, n / 2, n - 1].map(|me| me.min(n - 1));
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

/// The first edge `u → w` where `u`'s component has a lower index than
/// `w`'s, if any. Tarjan numbers components in reverse topological order,
/// so there is none.
fn tarjan_order_violation(g: &Digraph) -> Option<(usize, usize)> {
    let scc = tarjan_scc(g);
    g.edges()
        .find(|&(u, w)| scc.component_of(u) < scc.component_of(w))
}

/// Graphs past one 64-bit adjacency row: sizes on both sides of the first
/// and second word boundaries, each as sparse and dense `gnp` graphs and as
/// stage-one graphs.
fn wide_graphs() -> Vec<(String, Digraph)> {
    let mut graphs = Vec::new();
    for n in [63usize, 64, 65, 128, 129, 200] {
        for p in [0u8, 1, 2, 5, 50] {
            let g = gnp_digraph(n, p, 7_000 + n as u64 + u64::from(p));
            graphs.push((format!("gnp n={n} p={p}%"), g));
        }
        for delta in [1, 2, 5] {
            let g = stage_one_graph(n, delta, (n * delta) as u64);
            graphs.push((format!("stage-one n={n} δ={delta}"), g));
        }
    }
    graphs
}

#[test]
fn source_components_match_their_definition_past_one_word() {
    for (label, g) in wide_graphs() {
        let n = g.n();
        let scc = tarjan_scc(&g);
        let mut expected = Vec::new();
        for v in 0..n {
            // v's strongly connected component, and whether any edge
            // enters it from outside.
            let reaching = g.reaching(v);
            let component: Vec<usize> = g
                .reachable_from(v)
                .intersection(&reaching)
                .copied()
                .collect();
            assert_eq!(
                scc.members(scc.component_of(v)),
                component.as_slice(),
                "{label}, v = {v}"
            );
            let is_source = reaching.iter().all(|u| component.binary_search(u).is_ok());
            if is_source && component[0] == v {
                expected.push(component);
            }
        }
        assert_eq!(source_components(&g), expected, "{label}");
    }
}

#[test]
fn tarjan_partitions_in_reverse_topological_order_past_one_word() {
    for (label, g) in wide_graphs() {
        let n = g.n();
        let scc = tarjan_scc(&g);
        let mut all: Vec<usize> = scc.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>(), "{label}");
        for (c, members) in scc.iter().enumerate() {
            assert!(members.windows(2).all(|w| w[0] < w[1]), "{label}");
            assert!(members.iter().all(|&v| scc.component_of(v) == c), "{label}");
        }
        assert_eq!(tarjan_order_violation(&g), None, "{label}");
    }
}

#[test]
fn adjacency_queries_past_one_word() {
    for (label, g) in wide_graphs() {
        let n = g.n();
        let wccs = weakly_connected_components(&g);
        let mut wcc_of = vec![usize::MAX; n];
        for (c, wcc) in wccs.iter().enumerate() {
            for &v in wcc {
                assert_eq!(wcc_of[v], usize::MAX, "{label}: {v} in two components");
                wcc_of[v] = c;
            }
        }
        for (u, w) in g.edges() {
            assert_eq!(wcc_of[u], wcc_of[w], "{label}: wcc not closed at {u}→{w}");
        }
        let r = g.reversed();
        for v in [0, 1, n / 2, n - 2, n - 1] {
            assert_eq!(r.reachable_from(v), g.reaching(v), "{label}, v = {v}");
            assert_eq!(r.reaching(v), g.reachable_from(v), "{label}, v = {v}");
        }
        // Out of range: inside the last word of a row (unless 64 divides
        // n), just past it, and far past it.
        let row_bits = n.div_ceil(64) * 64;
        for out in [n, n + 1, row_bits, row_bits + 63, usize::MAX] {
            for v in [0, n - 1] {
                assert!(
                    !g.has_edge(v, out) && !g.has_edge(out, v),
                    "{label}: {v}, {out}"
                );
            }
        }
        let edges: Vec<(usize, usize)> = g.edges().collect();
        assert!(
            edges.windows(2).all(|e| e[0] < e[1]),
            "{label}: edges unsorted"
        );
        assert_eq!(edges.len(), g.edge_count(), "{label}");
        assert!(edges.iter().all(|&(u, w)| g.has_edge(u, w)), "{label}");
        for v in 0..n {
            assert_eq!(g.successors(v).count(), g.out_degree(v), "{label}");
            assert_eq!(g.predecessors(v).count(), g.in_degree(v), "{label}");
        }
    }
}

/// What every source-component reader answers on a graph: the readers
/// that take a vertex at vertices 0, 63, 64, n/2 and n − 1 (in each word
/// of a 130-vertex row), the lemma checkers at δ = 1, 2, 3.
#[derive(Debug, PartialEq)]
struct SourceAnswers {
    sources: Vec<Vec<usize>>,
    reaching: Vec<Vec<Vec<usize>>>,
    chosen: Vec<Vec<usize>>,
    cliques: Vec<Vec<usize>>,
    checks: Vec<[Result<(), String>; 3]>,
}

fn source_answers(g: &Digraph) -> SourceAnswers {
    let n = g.n();
    let probes: Vec<usize> = [0, 63, 64, n / 2, n - 1]
        .into_iter()
        .filter(|&v| v < n)
        .collect();
    SourceAnswers {
        sources: source_components(g),
        reaching: probes
            .iter()
            .map(|&v| source_components_reaching(g, v))
            .collect(),
        chosen: probes
            .iter()
            .map(|&v| chosen_source_component(g, v))
            .collect(),
        cliques: initial_cliques(g),
        checks: (1..=3)
            .map(|d| {
                [
                    check_lemma6(g, d),
                    check_lemma7(g, d),
                    check_source_count_bound(g, d),
                ]
            })
            .collect(),
    }
}

/// `g`'s edges in a graph that has never been queried.
fn unqueried(g: &Digraph) -> Digraph {
    Digraph::from_edges(g.n(), g.edges())
}

/// A `Digraph` keeps its source components between queries; they must
/// never answer for a graph that `add_edge` has changed since. Each graph
/// is queried, then alternately gets two edges that merge two source
/// components into one or an edge that makes one non-source, and is
/// queried again, three times over.
#[test]
fn kept_source_components_follow_every_new_edge() {
    let (mut merges, mut demotions) = (0, 0);
    for n in [2usize, 7, 20, 64, 65, 130] {
        let seed = n as u64;
        let graphs = [
            ("gnp 1%", gnp_digraph(n, 1, seed)),
            ("gnp 3%", gnp_digraph(n, 3, seed)),
            ("stage-one δ=1", stage_one_graph(n, 1, seed)),
            ("stage-one δ=2", stage_one_graph(n, 2.min(n - 1), seed)),
        ];
        for (kind, mut g) in graphs {
            for step in 0..3 {
                let label = format!("{kind} n={n} step {step}");
                let before = source_answers(&g);
                assert_eq!(before, source_answers(&unqueried(&g)), "{label}");
                assert_eq!(g, unqueried(&g), "{label}: queried ≠ unqueried");
                let old = g.clone();
                let sources = &before.sources;
                if sources.len() > 1 && step % 2 == 0 {
                    let (a, b) = (sources[0][0], sources[1][0]);
                    g.add_edge(a, b);
                    g.add_edge(b, a);
                    merges += 1;
                } else if let Some(u) = (0..n).find(|u| sources[0].binary_search(u).is_err()) {
                    g.add_edge(u, sources[0][0]);
                    demotions += 1;
                } else {
                    break; // one strongly connected graph: nothing left to change
                }
                let expected = source_answers(&unqueried(&g));
                assert_ne!(expected.sources, before.sources, "{label}: no change");
                assert_eq!(source_answers(&g), expected, "{label}");
                assert_eq!(source_answers(&old), before, "{label}: clone moved");
                let flipped = Digraph::from_edges(n, g.edges().map(|(u, w)| (w, u)));
                assert_eq!(
                    source_answers(&g.reversed()),
                    source_answers(&flipped),
                    "{label}: reversed"
                );
            }
        }
    }
    assert!(
        merges >= 20 && demotions >= 20,
        "{merges} merges, {demotions} demotions"
    );
}

/// FNV-1a over the little-endian bytes of `words`, continuing from `h`.
fn fnv1a(mut h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The edges of the stage-one graphs E6 draws, pinned: `EXPERIMENTS.md`
/// shows only the largest source count per row, so a generator change
/// that kept those counts would otherwise go unnoticed.
#[test]
fn stage_one_graphs_of_e6_are_pinned() {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for (n, delta) in [(6, 1), (6, 2), (9, 2), (12, 2), (12, 3), (16, 3), (20, 4)] {
        for seed in 0..100 {
            let g = stage_one_graph(n, delta, seed);
            h = fnv1a(h, [n as u64, delta as u64, seed, g.edge_count() as u64]);
            h = fnv1a(h, g.edges().flat_map(|(u, w)| [u as u64, w as u64]));
        }
    }
    assert_eq!(h, 0x121f_2218_4f4a_0ee4, "digest {h:#018x}");
}
