//! # kset — "Easy Impossibility Proofs for k-Set Agreement", executable
//!
//! A full reproduction of Biely, Robinson & Schmid, *"Easy Impossibility
//! Proofs for k-Set Agreement in Message Passing Systems"* (OPODIS 2011),
//! as a Rust workspace. This facade crate re-exports the pieces:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`sim`] | `kset-sim` | deterministic message-passing simulator (DDS model + failure detectors), wide-bitset process sets (n ≤ 512), traces, indistinguishability, restriction `A\|D`, admissibility |
//! | [`graph`] | `kset-graph` | stage-one graphs, SCCs, source components (Lemmas 6/7), initial cliques |
//! | [`fd`] | `kset-fd` | Σk, Ωk, the partition detector (Σ′k, Ω′k), loneliness L, history checkers |
//! | [`core`] | `kset-core` | the k-set agreement task, T-independence, and all algorithms |
//! | [`impossibility`] | `kset-impossibility` | Theorem 1 checker, run pasting (Lemmas 11/12), borders for Theorems 2/8/10 |
//!
//! ## The paper in five runnable sentences
//!
//! ```
//! use kset::impossibility::{theorem2_impossible, theorem8_solvable,
//!     corollary13_solvable, theorem10_impossible};
//!
//! // Theorem 2: with synchronous processes but asynchronous communication,
//! // k-set agreement is impossible for k ≤ (n−1)/(n−f):
//! assert!(theorem2_impossible(5, 3, 2));
//!
//! // Theorem 8: with f INITIALLY DEAD processes it is solvable iff
//! // kn > (k+1)f — the two-stage protocol matches the border exactly:
//! assert!(theorem8_solvable(6, 3, 2));
//! assert!(!theorem8_solvable(6, 4, 2));
//!
//! // Theorem 10 / Corollary 13: the failure-detector pair (Σk, Ωk) solves
//! // k-set agreement iff k = 1 or k = n−1:
//! assert!(corollary13_solvable(6, 1));
//! assert!(theorem10_impossible(6, 3));
//! assert!(corollary13_solvable(6, 5));
//! ```
//!
//! See the `examples/` directory for end-to-end demonstrations, and the
//! `experiments` binary (`kset-bench`) for the regenerated border tables.
//!
//! ## Architecture: three execution substrates, compact process sets
//!
//! The workspace executes the paper's computing model through three
//! substrates, unified behind the [`sim::Engine`] trait:
//!
//! * **the step-level simulator** — [`sim::Simulation`] models the DDS
//!   step semantics (scheduler-chosen delivery, failure-detector queries,
//!   crash plans, traces). Paired with any [`sim::sched::Scheduler`] it
//!   becomes a [`sim::SimEngine`], whose engine *unit* is one process step.
//! * **the lock-step round executor** — [`core::sync::LockStep`] runs
//!   synchronous rounds with mid-round crash injection (the fully
//!   favourable DDS point, where FloodMin lives). Its engine unit is one
//!   full round.
//! * **the discrete-event engine** — [`sim::des::DesEngine`] advances a
//!   virtual clock through a deterministic min-heap of timed wake-ups
//!   (of a process, the link fabric, the crash schedule or the detector
//!   cadence): messages carry real delivery times drawn from seeded
//!   per-link [`sim::des::Latency`] models, partial synchrony has an
//!   explicit GST, and crashes strike at timed instants. Sparse
//!   schedules skip idle time instead of burning steps.
//!
//! Each substrate implements one unit body, `Engine::advance_observed`,
//! generic over its [`sim::observe::Observer`]; `Engine` builds one run
//! loop on it, `drive_observed`, and the unobserved `advance`/`drive` pass
//! a `NoObserver`. So runners ([`core::runner`]), the experiment harness
//! and the benches drive any substrate, observed or not, through one API;
//! the bounded explorer ([`sim::explore`])
//! additionally steps `Simulation` configurations in place, and forks the
//! ones it keeps, for exhaustive search.
//!
//! Above all three sits the **scenario layer**: a [`sim::Scenario`] (model
//! point, proposals, round-oriented crash description, schedule family,
//! detector choice) compiles to *any* substrate —
//! [`sim::Scenario::to_sim`] on the step side,
//! [`sim::Scenario::to_des`] on the discrete-event side (the lock-step
//! family runs at fixed latency 1, which walks the round cadence; the
//! time-native `ScheduleFamily::Timed` family compiles *only* here), and
//! [`core::scenario::to_lockstep`] (via [`core::scenario::RoundAdapter`])
//! on the round side — and
//! [`core::scenario::differential::check`] compares the three runs
//! ([`core::scenario::differential::DiffReport`]), turning the multi-substrate
//! architecture into a tested equivalence. See ARCHITECTURE.md for the
//! crash-description mapping.
//!
//! Every process set in the workspace — partition blocks, quorum/leader
//! samples, faulty/correct sets, delivery filters — is a
//! [`sim::ProcessSet`]: a `Copy`, fixed-capacity bitset
//! ([`sim::ProcessSet::CAPACITY`] = 512) whose set algebra is per-limb
//! word arithmetic. Per-sender round state (inboxes,
//! stage-2 tables, promise ledgers) uses the dense [`sim::SenderMap`].
//! Independent `(n, f, k, seed)` grid cells run through the parallel
//! [`sim::sweep`] module with deterministic per-cell seeds; parallel
//! results are bit-identical to a sequential pass.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// The deterministic message-passing simulator (`kset-sim`).
pub mod sim {
    pub use kset_sim::*;
}

/// The directed-graph substrate (`kset-graph`).
pub mod graph {
    pub use kset_graph::*;
}

/// The failure-detector framework (`kset-fd`).
pub mod fd {
    pub use kset_fd::*;
}

/// The agreement layer (`kset-core`).
pub mod core {
    pub use kset_core::*;
}

/// The impossibility engine (`kset-impossibility`).
pub mod impossibility {
    pub use kset_impossibility::*;
}
