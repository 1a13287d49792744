#![warn(missing_docs)]

//! # vp-ilp — the paper's abstract ILP machine
//!
//! Section 5.3 evaluates classification mechanisms on "an abstract machine
//! with a finite instruction window of 40 entries, unlimited number of
//! execution units and a perfect branch prediction mechanism", charging one
//! clock cycle on a value misprediction. This crate implements that machine
//! as a dataflow-limit analysis over the `vp-sim` retirement trace:
//!
//! - instructions dispatch in trace order, constrained only by window
//!   occupancy (slot *i* frees when the instruction 40 slots earlier
//!   completes);
//! - an instruction issues when its register sources — and, for loads, the
//!   most recent store to the same word — are ready; every operation has
//!   unit latency;
//! - perfect branch prediction means the trace itself is the fetch stream
//!   (control dependencies never stall dispatch);
//! - with value prediction, a *used and correct* prediction makes the
//!   destination available at dispatch (true-data dependence collapsed); a
//!   *used and wrong* prediction delays it one penalty cycle past
//!   completion.
//!
//! The resulting ILP (instructions / cycles) reproduces Table 5.2's
//! comparisons between no-VP, VP + saturating counters, and VP + profiling
//! at each threshold.
//!
//! [`IlpLanes`] runs many machines in one pass, one of them perhaps
//! tracking its critical path ([`CriticalityReport`]). It is the crate's
//! one model; `vp_verify::refilp::IlpAnalyzer`, one machine per replay
//! with its own predictor, is the reference it is checked against.
//!
//! ## Example
//!
//! ```
//! use vp_isa::asm::assemble;
//! use vp_sim::{run, RunLimits};
//! use vp_ilp::{IlpConfig, IlpLanes};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A serial dependence chain: ILP is 1 without value prediction.
//! let p = assemble("li r1, 0\nli r2, 1000\ntop: addi r1, r1, 1\nbne r1, r2, top\nhalt\n")?;
//! let mut lanes = IlpLanes::new(IlpConfig::PAPER_WINDOW);
//! lanes.lane(&IlpConfig::paper_no_vp(), None);
//! run(&p, &mut lanes, RunLimits::default())?;
//! let r = &lanes.finish().0[0];
//! assert!(r.ilp() < 2.5);
//! # Ok(())
//! # }
//! ```

pub mod branch;
pub mod config;
pub mod critical;
pub mod lanes;
pub mod result;

pub use branch::{BranchConfig, BranchPredictor};
pub use config::IlpConfig;
pub use critical::CriticalityReport;
pub use lanes::{IlpLanes, LaneOutcomes};
pub use result::IlpResult;
