#![warn(missing_docs)]

//! # provp — profile-guided value prediction
//!
//! Umbrella crate re-exporting the whole `provp` workspace: a reproduction of
//! Gabbay & Mendelson, *"Can Program Profiling Support Value Prediction?"*
//! (MICRO-30, 1997).
//!
//! The individual subsystems live in their own crates; this crate exists so
//! examples and downstream users can depend on one name:
//!
//! - [`isa`] — the RISC instruction set with value-prediction directive bits.
//! - [`sim`] — the functional (SHADE-equivalent) tracing simulator.
//! - [`predictor`] — last-value / stride / hybrid predictors and the
//!   saturating-counter hardware classifier.
//! - [`profile`] — profile-image collection and multi-run similarity vectors.
//! - [`compiler`] — the phase-3 directive annotation pass.
//! - [`ilp`] — the abstract 40-entry-window ILP machine.
//! - [`stats`] — the paper's distance metrics, histograms and table printers.
//! - [`workloads`] — the nine SPEC95-analogue synthetic workloads.
//! - [`core`] — end-to-end experiment pipelines for every table and figure.
//!
//! ## Quickstart
//!
//! The paper's three phases run through a memoising
//! [`Suite`](crate::core::Suite): profile the phase-1 binary under each
//! training input, merge the images, annotate at a threshold.
//!
//! ```
//! use provp::core::Suite;
//! use provp::workloads::WorkloadKind;
//!
//! let suite = Suite::new(); // 5 training runs, as in the paper
//! let images = suite.train_images(WorkloadKind::Ijpeg);
//! let merged = suite.merged_image(WorkloadKind::Ijpeg);
//! let (_, summary) = suite.annotated(WorkloadKind::Ijpeg, 0.9);
//! assert_eq!(images.len(), 5);
//! assert!(!merged.is_empty());
//! assert!(summary.tagged() > 0);
//! ```

pub use provp_core as core;
pub use vp_compiler as compiler;
pub use vp_ilp as ilp;
pub use vp_isa as isa;
pub use vp_obs as obs;
pub use vp_predictor as predictor;
pub use vp_profile as profile;
pub use vp_sim as sim;
pub use vp_stats as stats;
pub use vp_workloads as workloads;

/// One-line import for the experiment-facing API.
///
/// ```
/// use provp::prelude::*;
/// ```
///
/// pulls in everything a typical experiment touches: the
/// [`Suite`](crate::core::Suite) front-end, the
/// [`ReplayRequest`](crate::core::ReplayRequest) replay builder (batch over
/// a captured [`Trace`](crate::sim::Trace) or bounded-memory streaming
/// straight off the simulator), predictor configuration, workload
/// selection and the run-manifest types. Deliberately excluded: crate
/// internals — reach through the per-subsystem modules (`provp::sim`,
/// `provp::predictor`, ...) when you need those.
pub mod prelude {
    pub use provp_core::{
        ReplayCellOutcome, ReplayOutcome, ReplayRequest, ReplayResponse, Suite, SweepPlan,
        TraceStore,
    };
    pub use vp_obs::{HotStack, PhaseShare, ProfileSection, RunManifest};
    pub use vp_predictor::{
        ClassifierKind, PredictorConfig, PredictorStats, TableGeometry, ValuePredictor,
    };
    pub use vp_sim::{run, RunLimits, Trace};
    pub use vp_workloads::{InputSet, Workload, WorkloadKind};
}
