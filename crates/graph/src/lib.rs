//! # kset-graph — directed-graph substrate for the two-stage protocol
//!
//! Graph machinery behind Section VI of Biely–Robinson–Schmid (OPODIS 2011):
//! the first-stage graph `G` of the generalized FLP protocol, its strongly
//! connected components, **source components** (Lemmas 6/7) and **initial
//! cliques**.
//!
//! ## Representation and cost
//!
//! A [`Digraph`] keeps one out-row and one in-row of `⌈n/64⌉` 64-bit words
//! per vertex, each kind in one flat `Vec<u64>`. Edge insertion and lookup
//! are single bit operations, degrees are popcounts, and neighbours come
//! out of a row in ascending order. The rows cost `≈ n²/4` bytes whatever
//! the edge count: 64 KiB at n = 512, 1 MiB at n = 2048, 25 MB at
//! n = 10 000. There is no sparse form; the graphs of the two-stage
//! protocol and of experiment E6 have at most a few dozen vertices.
//!
//! With `m` edges, [`tarjan_scc`] and [`weakly_connected_components`] each
//! take O(n·⌈n/64⌉ + m) time (Tarjan also sorts each component's members).
//! Source components come straight from Tarjan's `vertex → component` map:
//! a component is a source unless an edge enters it from another
//! component. A [`Digraph`] keeps them, so that O(n·⌈n/64⌉ + m) is paid
//! once per graph, by its first source-component query, not once per
//! call: [`source_components`], [`initial_cliques`] and the lemma checkers
//! read the kept list until [`Digraph::add_edge`] changes the graph.
//!
//! ## Lemmas as code
//!
//! * Lemma 6 — [`source::check_lemma6`]: min in-degree δ > 0 ⟹ some source
//!   component has ≥ δ + 1 vertices.
//! * Lemma 7 — [`source::check_lemma7`]: the same per weakly connected
//!   component.
//! * Count bound — [`source::check_source_count_bound`]: at most
//!   `⌊n/(δ+1)⌋` source components; unique when `2δ ≥ n`.
//!
//! ```
//! use kset_graph::{stage_one_graph, source_components, check_lemma6};
//!
//! let g = stage_one_graph(9, 2, 1);
//! check_lemma6(&g, 2).expect("Lemma 6 holds");
//! assert!(source_components(&g).len() <= 3);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod clique;
mod digraph;
mod generate;
pub mod scc;
pub mod source;
mod weakly;

pub use clique::{has_no_incoming, initial_cliques, is_clique};
pub use digraph::Digraph;
pub use generate::{camps, gnp_digraph, stage_one_graph};
pub use scc::{tarjan_scc, SccDecomposition};
pub use source::{
    check_lemma6, check_lemma7, check_source_count_bound, chosen_source_component,
    max_source_components, source_components, source_components_reaching,
};
pub use weakly::weakly_connected_components;
