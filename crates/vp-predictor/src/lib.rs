#![warn(missing_docs)]

//! # vp-predictor — value predictors and classification mechanisms
//!
//! Implements the microarchitectural machinery of the paper (and of the
//! prior work it builds on, Lipasti & Shen's last-value predictor and
//! Gabbay & Mendelson's stride predictor):
//!
//! - [`entry::LastValueEntry`] / [`entry::StrideEntry`] — the two predictor
//!   cell types of the paper's Figure 2.1;
//! - [`SetAssocTable`] — the tagged, set-associative, LRU prediction table
//!   both predictors are organised as;
//! - [`SatCounter`] — the 2-bit saturating-counter **hardware classifier**
//!   baseline (§2.2);
//! - [`InfinitePredictor`] — an unbounded table, used to isolate
//!   classification accuracy from table pressure (§5.1);
//! - [`TablePredictor`] — the finite 512-entry 2-way configuration of §5.2;
//! - [`HybridPredictor`] — the stride + last-value split table the paper's
//!   conclusions propose, routed by opcode directive;
//! - [`PcSlots`] — the dense per-static-instruction state store;
//! - [`OutcomeColumn`] — one packed [`Outcome`] per value event, so one
//!   predictor replay can drive many machine models;
//! - [`StateWalk`] and [`CodeHistogram`] — one predictor state walked
//!   once for every sweep cell that shares it, each cell tallying the
//!   walk's raw codes ([`walk`]).
//!
//! Every predictor exposes one uniform operation, [`ValuePredictor::access`]:
//! present the dynamic instance of a value-producing instruction (static
//! address, its opcode directive, and the actual outcome value) and get back
//! what the hardware would have done — the raw prediction, the
//! classification decision, and correctness — while the predictor trains
//! itself. Cumulative [`PredictorStats`] make the experiment harness thin.
//!
//! ## Example
//!
//! ```
//! use vp_isa::{Directive, InstrAddr};
//! use vp_predictor::{PredictorConfig, ValuePredictor};
//!
//! // The paper's §5.2 baseline: 512-entry 2-way stride table + counters.
//! let mut p = PredictorConfig::spec_table_stride_fsm().build();
//! let a = InstrAddr::new(3);
//! for v in (0..100u64).map(|i| 10 + 4 * i) {
//!     p.access(a, Directive::None, v);
//! }
//! // After warm-up, the counter saturates and the strides predict correctly.
//! assert!(p.stats().speculated_correct > 90);
//! ```

pub mod attribution;
pub mod classifier;
pub mod config;
pub mod counter;
pub mod entry;
pub mod geometry;
pub mod hybrid;
pub mod infinite;
pub mod outcome;
pub mod slots;
pub mod stats;
pub mod table;
pub mod table_predictor;
pub mod walk;

pub use attribution::{AttributionCause, AttributionTable, AttributionTotals, PcAttribution};
pub use classifier::ClassifierKind;
pub use config::PredictorConfig;
pub use counter::SatCounter;
pub use entry::{LastValueEntry, PredEntry, StrideEntry, TwoDeltaStrideEntry};
pub use geometry::TableGeometry;
pub use hybrid::HybridPredictor;
pub use infinite::InfinitePredictor;
pub use outcome::{Outcome, OutcomeColumn};
pub use slots::PcSlots;
pub use stats::{Access, PredictorStats};
pub use table::SetAssocTable;
pub use table_predictor::TablePredictor;
pub use walk::{CodeHistogram, StateWalk};

use vp_isa::{Directive, InstrAddr};

/// A value predictor plus classification mechanism, observed one dynamic
/// value-producing instruction at a time.
pub trait ValuePredictor {
    /// Presents one dynamic instance: the instruction at `addr` (carrying
    /// `directive` in its opcode) produced `actual`. Returns what the
    /// hardware did, and trains the predictor.
    fn access(&mut self, addr: InstrAddr, directive: Directive, actual: u64) -> Access;

    /// Cumulative statistics over every access so far.
    fn stats(&self) -> &PredictorStats;

    /// Forgets all dynamic state (table contents, counters, statistics).
    fn reset(&mut self);

    /// Number of currently occupied table entries (0 for predictors with
    /// no table state to report). Used by the observability layer to gauge
    /// table pressure; never consulted by the experiments themselves.
    fn occupancy(&self) -> usize {
        0
    }
}
