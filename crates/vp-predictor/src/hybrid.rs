//! The hybrid stride + last-value predictor proposed by the paper.
//!
//! Section 3.1, observation 4: most value-predictable instructions reuse
//! their last value, and only a small subset shows true strides — so a
//! stride field on every entry is mostly wasted. The paper proposes "a
//! relatively small stride prediction table only for the instructions that
//! exhibit stride patterns and a larger table for the instructions that tend
//! to reproduce their last value", with the opcode directive steering each
//! instruction to the right table.

use vp_isa::{Directive, InstrAddr};

use crate::table_predictor::TableState;
use crate::walk::StateWalk;
use crate::{
    Access, ClassifierKind, LastValueEntry, PredictorStats, StrideEntry, TableGeometry,
    TablePredictor, ValuePredictor,
};

/// A two-table hybrid predictor routed by opcode directive:
/// `stride`-tagged instructions use a stride table, `last-value`-tagged
/// instructions use a last-value table, untagged instructions use neither.
///
/// Classification is inherently directive-based; there are no counters.
///
/// # Examples
///
/// ```
/// use vp_isa::{Directive, InstrAddr};
/// use vp_predictor::{HybridPredictor, TableGeometry, ValuePredictor};
///
/// let mut p = HybridPredictor::new(
///     TableGeometry::new(128, 2),  // small stride side
///     TableGeometry::new(512, 2),  // larger last-value side
/// );
/// p.access(InstrAddr::new(0), Directive::Stride, 4);
/// p.access(InstrAddr::new(1), Directive::LastValue, 7);
/// assert_eq!(p.stride_occupancy(), 1);
/// assert_eq!(p.last_value_occupancy(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct HybridPredictor {
    stride: TablePredictor<StrideEntry>,
    last_value: TablePredictor<LastValueEntry>,
    stats: PredictorStats,
}

impl HybridPredictor {
    /// Creates a hybrid with the given per-side geometries.
    #[must_use]
    pub fn new(stride: TableGeometry, last_value: TableGeometry) -> Self {
        HybridPredictor {
            stride: TablePredictor::new(stride, ClassifierKind::Directive),
            last_value: TablePredictor::new(last_value, ClassifierKind::Directive),
            stats: PredictorStats::new(),
        }
    }

    /// Occupied entries on the stride side.
    #[must_use]
    pub fn stride_occupancy(&self) -> usize {
        self.stride.occupancy()
    }

    /// Occupied entries on the last-value side.
    #[must_use]
    pub fn last_value_occupancy(&self) -> usize {
        self.last_value.occupancy()
    }

    /// Statistics of the stride side alone.
    #[must_use]
    pub fn stride_stats(&self) -> &PredictorStats {
        self.stride.stats()
    }

    /// Statistics of the last-value side alone.
    #[must_use]
    pub fn last_value_stats(&self) -> &PredictorStats {
        self.last_value.stats()
    }
}

impl ValuePredictor for HybridPredictor {
    fn access(&mut self, addr: InstrAddr, directive: Directive, actual: u64) -> Access {
        let a = match directive {
            // Route by tag; each side sees the access as a tagged one.
            Directive::Stride => self.stride.access(addr, directive, actual),
            Directive::LastValue => self.last_value.access(addr, directive, actual),
            Directive::None => Access::default(),
        };
        self.stats.record_classified(directive, &a);
        let (stride, last_value) = (self.stride.stats(), self.last_value.stats());
        self.stats.evictions = stride.evictions + last_value.evictions;
        self.stats.set_conflicts = stride.set_conflicts + last_value.set_conflicts;
        a
    }

    fn stats(&self) -> &PredictorStats {
        &self.stats
    }

    fn reset(&mut self) {
        self.stride.reset();
        self.last_value.reset();
        self.stats = PredictorStats::new();
    }

    fn occupancy(&self) -> usize {
        self.stride_occupancy() + self.last_value_occupancy()
    }
}

/// The state of a hybrid: its two directive-admitted tables, routed by
/// tag as [`HybridPredictor::access`] routes. Like the hybrid's combined
/// statistics, it reports the sum of the two sides' evictions and set
/// conflicts.
#[derive(Debug, Clone)]
pub(crate) struct HybridState {
    stride: TableState<StrideEntry>,
    last_value: TableState<LastValueEntry>,
}

impl HybridState {
    pub(crate) fn new(stride: TableGeometry, last_value: TableGeometry) -> Self {
        HybridState {
            stride: TableState::new(stride, ClassifierKind::Directive),
            last_value: TableState::new(last_value, ClassifierKind::Directive),
        }
    }
}

impl StateWalk for HybridState {
    #[inline]
    fn update(&mut self, addr: InstrAddr, directive: Directive, actual: u64) -> (u8, u64) {
        match directive {
            Directive::Stride => self.stride.update(addr, directive, actual),
            Directive::LastValue => self.last_value.update(addr, directive, actual),
            Directive::None => (0, 0),
        }
    }

    fn evictions(&self) -> u64 {
        self.stride.evictions() + self.last_value.evictions()
    }

    fn conflicts(&self) -> u64 {
        self.stride.conflicts() + self.last_value.conflicts()
    }

    fn occupancy(&self) -> usize {
        self.stride.occupancy() + self.last_value.occupancy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hybrid() -> HybridPredictor {
        HybridPredictor::new(TableGeometry::new(4, 2), TableGeometry::new(8, 2))
    }

    #[test]
    fn routes_by_directive() {
        let mut p = hybrid();
        for i in 0..10u64 {
            p.access(InstrAddr::new(0), Directive::Stride, 3 * i);
            p.access(InstrAddr::new(1), Directive::LastValue, 42);
            p.access(InstrAddr::new(2), Directive::None, i);
        }
        assert_eq!(p.stride_occupancy(), 1);
        assert_eq!(p.last_value_occupancy(), 1);
        // Untagged instruction was recorded but touched no table.
        assert_eq!(p.stats().accesses, 30);
        assert_eq!(p.stats().allocations, 2);
    }

    #[test]
    fn stride_side_catches_strides_lv_side_catches_repeats() {
        let mut p = hybrid();
        for i in 0..50u64 {
            p.access(InstrAddr::new(0), Directive::Stride, 8 + 2 * i);
            p.access(InstrAddr::new(1), Directive::LastValue, 99);
        }
        // Stride side: misses alloc + stride warm-up = 48 correct.
        assert_eq!(p.stride_stats().speculated_correct, 48);
        // LV side: misses only the allocation = 49 correct.
        assert_eq!(p.last_value_stats().speculated_correct, 49);
        assert_eq!(p.stats().speculated_correct, 97);
    }

    #[test]
    fn a_stride_pattern_on_the_lv_side_fails() {
        // Mis-tagging matters: this is why the compiler consults the stride
        // efficiency ratio before choosing the directive type.
        let mut p = hybrid();
        for i in 0..20u64 {
            p.access(InstrAddr::new(0), Directive::LastValue, 5 * i);
        }
        assert_eq!(p.stats().speculated_correct, 0);
    }

    #[test]
    fn reset_clears_both_sides() {
        let mut p = hybrid();
        p.access(InstrAddr::new(0), Directive::Stride, 1);
        p.access(InstrAddr::new(1), Directive::LastValue, 1);
        p.reset();
        assert_eq!(p.stride_occupancy(), 0);
        assert_eq!(p.last_value_occupancy(), 0);
        assert_eq!(p.stats().accesses, 0);
    }
}
