//! # kset-fd — failure-detector framework
//!
//! Failure-detector classes, history recording, and validity checkers for
//! the `kset` workspace, implementing Section II-C and Definitions 4, 5 and
//! 7 of Biely–Robinson–Schmid (OPODIS 2011).
//!
//! ## Contents
//!
//! * **Samples** — [`QuorumSample`] (Σk), [`LeaderSample`] (Ωk),
//!   [`SigmaOmegaSample`] (the pair), [`LonelinessSample`] (L).
//! * **Oracles** (implementations of [`kset_sim::Oracle`]):
//!   [`TrustAliveSigma`], [`EventualLeaderOmega`],
//!   [`PartitionSigmaOmega`] — the (Σ′k,Ω′k) of Definition 7 —,
//!   [`RealisticSigmaOmega`], [`LonelinessOracle`].
//! * **Histories** — [`History`], [`Recorder`]: capture `H(p, t)` for
//!   post-hoc validation.
//! * **Checkers** — [`check_sigma_k`], [`check_omega_k`],
//!   [`check_partition_sigma`], [`check_loneliness`]: executable forms of
//!   the class definitions; Lemma 9 is verified by running partition
//!   histories through the plain Σk/Ωk checkers.
//!
//! ```
//! use kset_fd::{check_sigma_k, History, TrustAliveSigma};
//! use kset_sim::{FailurePattern, Oracle, ProcessId, Time};
//!
//! let mut sigma = TrustAliveSigma::new(3);
//! let fp = FailurePattern::all_correct(3);
//! let mut h = History::new();
//! for t in 1..5u64 {
//!     let p = ProcessId::new((t % 3) as usize);
//!     let s = sigma.sample(p, Time::new(t), &fp);
//!     h.record(p, Time::new(t), s);
//! }
//! assert!(check_sigma_k(&h, 1, &fp).is_ok());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod checkers;
mod history;
mod loneliness;
mod omega;
mod partition_fd;
mod perfect;
mod samples;
pub mod select;
mod sigma;
pub mod transform;

pub use checkers::{
    check_omega_k, check_partition_sigma, check_sigma_k, OmegaViolation, SigmaViolation,
};
pub use history::{History, Recorder};
pub use loneliness::{check_loneliness, LonelinessOracle};
pub use omega::EventualLeaderOmega;
pub use partition_fd::{PartitionSigmaOmega, RealisticSigmaOmega};
pub use perfect::{check_perfect, PerfectOracle, SuspectSample};
pub use samples::{LeaderSample, LonelinessSample, QuorumSample, SigmaOmegaSample};
pub use select::{loneliness_for, perfect_for, scenario_leaders, sigma_omega_for};
pub use sigma::TrustAliveSigma;
pub use transform::{
    emulate, omega_component, sigma_component, FdTransform, GammaToOmega2, PartitionToPlain,
    SuspectsToTrusted,
};
