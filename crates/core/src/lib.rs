#![warn(missing_docs)]

//! # provp-core — end-to-end experiment pipelines
//!
//! Ties the workspace together: the three-phase methodology of the paper
//! ([`Suite::train_images`], [`Suite::merged_image`] and
//! [`Suite::annotated`]) and one runner per table/figure of its evaluation
//! ([`experiments`]).
//!
//! | Paper artifact | runner |
//! |---|---|
//! | Table 2.1 (predictor accuracy by category) | [`experiments::table_2_1`] |
//! | Figure 2.2 (accuracy distribution) | [`experiments::fig_2_2`] |
//! | Figure 2.3 (stride-efficiency distribution) | [`experiments::fig_2_3`] |
//! | Figures 4.1/4.2/4.3 (input-similarity metrics) | [`experiments::fig_4`] |
//! | Figures 5.1/5.2 (classification accuracy) | [`experiments::classification`] |
//! | Table 5.1 (allocation-candidate fraction) | [`experiments::table_5_1`] |
//! | Figures 5.3/5.4 (finite-table deltas) | [`experiments::finite_table`] |
//! | Table 5.2 (ILP increase) | [`experiments::table_5_2`] |
//!
//! Heavy intermediate artifacts (profile images, annotated binaries) are
//! memoised in a [`suite::Suite`], so running every experiment profiles
//! each workload's five training inputs exactly once. Underneath, a
//! [`trace_store::TraceStore`] memoises each functional simulation as a
//! retirement trace — simulate once per `(workload, input, limits)` key,
//! replay into every consumer — and [`exec::parallel_map`] fans the
//! experiment grid over scoped threads with byte-identical output.

pub mod attribution;
pub mod exec;
pub mod experiments;
mod memo;
pub mod replay;
pub mod suite;
pub mod trace_store;

pub use exec::parallel_map;
pub use replay::{
    MatrixCell, ReplayCellOutcome, ReplayOutcome, ReplayRequest, ReplayResponse, SweepPlan,
};
pub use suite::Suite;
pub use trace_store::{TraceError, TraceKey, TraceStore, TraceStoreStats};
