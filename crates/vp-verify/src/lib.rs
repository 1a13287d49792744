//! Differential oracle and coverage-guided deterministic fuzzing for the
//! provp stack.
//!
//! Every layer of the simulator/predictor pipeline is an *optimised*
//! implementation: columnar traces, the fused sweep replay, packed
//! set-associative tables, streamed replay. Each optimisation is
//! an opportunity for a silent semantic drift that no hand-written unit
//! test would catch. This crate closes that gap with three ingredients:
//!
//! 1. **A random program generator** ([`generate`]) over the vp-isa
//!    instruction set, biased toward the control/data shapes the paper
//!    cares about: loops, stride address arithmetic, data-dependent loads
//!    and directive-tagged value producers.
//! 2. **Reference implementations** ([`refsim`], [`refpred`],
//!    [`refprofile`], [`refilp`]) that are deliberately simple — row-oriented,
//!    allocation-happy, map-based — and therefore easy to audit against
//!    the instruction semantics in `vp_sim::exec`, the predictor and
//!    profiling rules in `vp_predictor` and `vp_profile`, and the §5.3
//!    abstract machine `vp_ilp::IlpLanes` packs into lanes.
//! 3. **A differential oracle** ([`oracle`]) that runs both stacks on the
//!    same fuzzed program and demands bit-identical register files,
//!    memories, retirement event streams, profile images and
//!    [`vp_predictor::PredictorStats`] blocks.
//!
//! On top sit [`coverage`]-guided case scheduling (the generator is steered
//! toward opcodes the corpus has exercised least), automatic input
//! [`shrink`]ing of failing programs, and a [`corpus`] of minimised repro
//! files in assembler syntax that `cargo test` replays forever after.
//!
//! Everything is deterministic: a fuzz run is fully described by
//! `(seed, cases)`, and a failure report names the exact case seed.

pub mod corpus;
pub mod coverage;
pub mod fuzz;
pub mod generate;
pub mod oracle;
pub mod refilp;
pub mod refpred;
pub mod refprofile;
pub mod refsim;
pub mod shrink;

pub use corpus::{load_corpus, write_repro};
pub use coverage::Coverage;
pub use fuzz::{run_fuzz, FuzzOptions, FuzzReport};
pub use generate::{gen_program, GenConfig};
pub use oracle::{run_case, run_case_through, Divergence, Stage};
pub use refilp::IlpAnalyzer;
pub use refpred::ref_predict;
pub use refprofile::RefProfileCollector;
pub use refsim::{ref_run, RefOutcome};
pub use shrink::shrink_program;
