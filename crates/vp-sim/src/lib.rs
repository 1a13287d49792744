#![warn(missing_docs)]

//! # vp-sim — a functional, tracing instruction-set simulator
//!
//! The `provp` equivalent of the SHADE tracer the paper used for its profile
//! phase: it executes `vp-isa` programs with precise architectural semantics
//! and delivers every retired instruction — including its produced
//! destination value — to a pluggable [`Tracer`].
//!
//! The same trace drives three different consumers in this workspace:
//!
//! 1. `vp-profile` builds the per-static-instruction profile image (phase 2
//!    of the paper's methodology),
//! 2. `vp-ilp` replays the trace through an abstract 40-entry-window machine
//!    to measure extractable ILP (the paper's Section 5.3 machine),
//! 3. experiment code observes predictor behaviour online.
//!
//! ## Example
//!
//! ```
//! use vp_isa::asm::assemble;
//! use vp_sim::{run, RunLimits, Tracer, Retirement};
//!
//! #[derive(Default)]
//! struct CountProducers(u64);
//! impl Tracer for CountProducers {
//!     fn retire(&mut self, ev: &Retirement<'_>) {
//!         if ev.dest.is_some() { self.0 += 1; }
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p = assemble("li r1, 3\ntop: addi r1, r1, -1\nbne r1, r0, top\nhalt\n")?;
//! let mut tracer = CountProducers::default();
//! let summary = run(&p, &mut tracer, RunLimits::default())?;
//! assert!(summary.halted());
//! assert_eq!(tracer.0, 4); // li + 3 addi
//! # Ok(())
//! # }
//! ```

pub mod columns;
pub mod error;
pub mod exec;
pub mod machine;
pub mod memory;
pub mod mix;
pub mod record;
pub mod runner;
pub mod stream;
pub mod tracer;

pub use columns::{PcShard, TraceColumns};
pub use error::SimError;
pub use exec::{MemAccess, Retirement, StepOutcome};
pub use machine::Machine;
pub use memory::Memory;
pub use mix::InstrMix;
pub use record::{
    first_divergence, read_columns, write_columns, Trace, TraceDivergence, TraceError, TraceEvent,
    TraceRecorder, MAX_TRACE_EVENTS,
};
pub use runner::{run, RunLimits, RunStatus, RunSummary};
pub use stream::{ValueBlockSink, ValueBlockTracer, VALUE_BLOCK};
pub use tracer::{ChainTracer, FnTracer, NullTracer, Tracer};
