//! Strongly connected components via Tarjan's algorithm (iterative).
//!
//! The decision rule of the generalized two-stage protocol (Section VI of
//! the paper) hinges on *source components* of the first-stage graph:
//! strongly connected components that no edge enters from outside. SCCs
//! are the workhorse.
//!
//! [`tarjan_scc`] takes O(n·⌈n/64⌉ + m) time: each DFS frame resumes at the
//! next set bit of its vertex's out-row, so every row is scanned once. On
//! top of that it sorts each component's members, O(n log n) at worst. It
//! keeps O(n) words of state besides the graph.

use crate::digraph::{Digraph, Ones};

/// The strongly-connected-component decomposition of a digraph.
///
/// Components are numbered `0..count` in **reverse topological order**
/// (Tarjan emits sinks first): if an edge goes from component `a` to a
/// different component `b`, then `a > b`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SccDecomposition {
    /// `component_of[v]` = component index of vertex `v`.
    component_of: Vec<usize>,
    /// The members of every component, each component sorted, in
    /// component order.
    members: Vec<usize>,
    /// Component `c`'s members are `members[starts[c]..starts[c + 1]]`.
    starts: Vec<usize>,
}

impl SccDecomposition {
    /// Number of components.
    pub fn count(&self) -> usize {
        self.starts.len() - 1
    }

    /// Component index of `v`.
    pub fn component_of(&self, v: usize) -> usize {
        self.component_of[v]
    }

    /// Sorted members of component `c`.
    pub fn members(&self, c: usize) -> &[usize] {
        &self.members[self.starts[c]..self.starts[c + 1]]
    }

    /// Iterates over all components as member slices.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> {
        self.starts
            .windows(2)
            .map(|range| &self.members[range[0]..range[1]])
    }

    /// The raw `vertex → component` map.
    pub fn component_map(&self) -> &[usize] {
        &self.component_of
    }
}

/// A vertex on the DFS path.
struct Frame<'g> {
    v: usize,
    /// `v`'s DFS index.
    index: usize,
    /// Where `v` sits on the Tarjan stack.
    stack_pos: usize,
    /// The successors of `v` not yet scanned: the frame resumes at the
    /// next set bit of `v`'s out-row.
    successors: Ones<'g>,
}

/// Computes the SCC decomposition of `g` with an iterative Tarjan.
///
/// # Examples
///
/// ```
/// use kset_graph::{Digraph, tarjan_scc};
///
/// // 0 ⇄ 1 → 2
/// let g = Digraph::from_edges(3, [(0, 1), (1, 0), (1, 2)]);
/// let scc = tarjan_scc(&g);
/// assert_eq!(scc.count(), 2);
/// assert_eq!(scc.component_of(0), scc.component_of(1));
/// assert_ne!(scc.component_of(0), scc.component_of(2));
/// ```
pub fn tarjan_scc(g: &Digraph) -> SccDecomposition {
    const NONE: usize = usize::MAX;
    let n = g.n();
    // `low[v]` is `NONE` until `v` is visited, then its DFS index, lowered
    // to its lowlink as the search finds edges back into the stack.
    let mut low = vec![NONE; n];
    let mut component_of = vec![NONE; n];
    let mut members = Vec::with_capacity(n);
    let mut starts = vec![0];
    // The Tarjan stack: the visited vertices without a component yet.
    let mut stack: Vec<usize> = Vec::new();
    let mut dfs: Vec<Frame<'_>> = Vec::new();
    let mut next_index = 0;

    for root in 0..n {
        if low[root] != NONE {
            continue;
        }
        let mut entering = Some(root);
        loop {
            if let Some(v) = entering.take() {
                low[v] = next_index;
                dfs.push(Frame {
                    v,
                    index: next_index,
                    stack_pos: stack.len(),
                    successors: Ones::new(g.out_row(v)),
                });
                stack.push(v);
                next_index += 1;
            }
            let Some(frame) = dfs.last_mut() else {
                break;
            };
            let v = frame.v;
            if let Some(w) = frame.successors.next() {
                if low[w] == NONE {
                    entering = Some(w);
                } else if component_of[w] == NONE {
                    // w is on the stack: visited, without a component.
                    low[v] = low[v].min(low[w]);
                }
                continue;
            }
            // All successors handled: close v.
            let (index, stack_pos) = (frame.index, frame.stack_pos);
            dfs.pop();
            if low[v] == index {
                let c = starts.len() - 1;
                for &w in &stack[stack_pos..] {
                    component_of[w] = c;
                }
                let start = members.len();
                members.extend(stack.drain(stack_pos..));
                members[start..].sort_unstable();
                starts.push(members.len());
            }
            if let Some(parent) = dfs.last() {
                low[parent.v] = low[parent.v].min(low[v]);
            }
        }
    }

    SccDecomposition {
        component_of,
        members,
        starts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_components_in_dag() {
        let g = Digraph::from_edges(3, [(0, 1), (1, 2)]);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), 3);
        // Reverse topological: sink (2) first.
        assert!(scc.component_of(2) < scc.component_of(1));
        assert!(scc.component_of(1) < scc.component_of(0));
    }

    #[test]
    fn cycle_is_one_component() {
        let g = Digraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), 1);
        assert_eq!(scc.members(0), &[0, 1, 2]);
    }

    #[test]
    fn two_cycles_with_bridge() {
        // {0,1} → {2,3}
        let g = Digraph::from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), 2);
        let c01 = scc.component_of(0);
        let c23 = scc.component_of(2);
        assert_eq!(scc.component_of(1), c01);
        assert_eq!(scc.component_of(3), c23);
        assert!(
            c01 > c23,
            "edge c01→c23 means c01 comes later in Tarjan order"
        );
    }

    #[test]
    fn isolated_vertices() {
        let g = Digraph::new(4);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), 4);
        for v in 0..4 {
            assert_eq!(scc.members(scc.component_of(v)), &[v]);
        }
    }

    #[test]
    fn empty_graph() {
        let scc = tarjan_scc(&Digraph::new(0));
        assert_eq!(scc.count(), 0);
    }

    #[test]
    fn members_are_sorted_and_partition_vertices() {
        let g = Digraph::from_edges(6, [(0, 1), (1, 0), (2, 3), (4, 5), (5, 4), (1, 2), (3, 4)]);
        let scc = tarjan_scc(&g);
        let mut all: Vec<usize> = scc.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..6).collect::<Vec<_>>());
        for c in scc.iter() {
            assert!(c.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        // 10_000-vertex path exercises the iterative DFS.
        let n = 10_000;
        let g = Digraph::from_edges(n, (0..n - 1).map(|i| (i, i + 1)));
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), n);
    }

    #[test]
    fn lowlink_propagates_through_nested_cycles() {
        // 0 → 1 → 2 → 0 and 2 → 3 → 4 → 2: all five strongly connected
        // except... actually 0,1,2,3,4 form one SCC via the two cycles.
        let g = Digraph::from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), 1);
        assert_eq!(scc.members(0), &[0, 1, 2, 3, 4]);
    }
}
