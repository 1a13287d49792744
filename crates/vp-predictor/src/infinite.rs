//! An unbounded predictor: one entry per static instruction, never evicted.
//!
//! Section 5.1 of the paper isolates *classification* quality from *table
//! pressure* by assuming "each of the classification mechanisms has an
//! infinite prediction table … and that the hardware-based classification
//! mechanism also maintains an infinite set of saturated counters". This
//! type is that configuration.

use vp_isa::{Directive, InstrAddr};

use crate::walk::{self, StateWalk};
use crate::{
    Access, ClassifierKind, PcSlots, PredEntry, PredictorStats, SatCounter, ValuePredictor,
};

/// An infinite prediction table over entry type `E`, with a pluggable
/// classification mechanism.
///
/// Per-address state lives in a [`PcSlots`], so a hot replay loop reaches
/// an instruction's entry without hashing.
///
/// # Examples
///
/// Saturating-counter classification over a stride predictor:
///
/// ```
/// use vp_isa::{Directive, InstrAddr};
/// use vp_predictor::{ClassifierKind, InfinitePredictor, StrideEntry, ValuePredictor};
///
/// let mut p: InfinitePredictor<StrideEntry> =
///     InfinitePredictor::new(ClassifierKind::two_bit_counter());
/// for v in 0..20u64 {
///     p.access(InstrAddr::new(1), Directive::None, 100 + v);
/// }
/// assert!(p.stats().speculated_correct > 0);
/// ```
#[derive(Debug, Clone)]
pub struct InfinitePredictor<E> {
    classifier: ClassifierKind,
    state: InfiniteState<E>,
    stats: PredictorStats,
}

impl<E: PredEntry> InfinitePredictor<E> {
    /// Creates an empty infinite predictor.
    #[must_use]
    pub fn new(classifier: ClassifierKind) -> Self {
        InfinitePredictor {
            classifier,
            state: InfiniteState::new(classifier),
            stats: PredictorStats::new(),
        }
    }
}

impl<E: PredEntry> ValuePredictor for InfinitePredictor<E> {
    fn access(&mut self, addr: InstrAddr, directive: Directive, actual: u64) -> Access {
        let (code, predicted) = self.state.update(addr, directive, actual);
        let a = Access::from_code(code, predicted, self.classifier.recommends(directive, code));
        self.stats.record_classified(directive, &a);
        a
    }

    fn stats(&self) -> &PredictorStats {
        &self.stats
    }

    fn reset(&mut self) {
        self.state.slots.clear();
        self.stats = PredictorStats::new();
    }

    fn occupancy(&self) -> usize {
        self.state.occupancy()
    }
}

/// The state of an infinite table: one entry and counter per static
/// instruction. It tracks *every* producer regardless of classification,
/// so all classifiers over one counter template evolve the same state.
#[derive(Debug, Clone)]
pub(crate) struct InfiniteState<E> {
    template: SatCounter,
    slots: PcSlots<(E, SatCounter)>,
}

impl<E: PredEntry> InfiniteState<E> {
    pub(crate) fn new(classifier: ClassifierKind) -> Self {
        InfiniteState {
            template: classifier.counter_template(),
            slots: PcSlots::new(),
        }
    }
}

impl<E: PredEntry> StateWalk for InfiniteState<E> {
    #[inline]
    fn update(&mut self, addr: InstrAddr, _: Directive, actual: u64) -> (u8, u64) {
        let template = self.template;
        let ((entry, counter), allocated) = self
            .slots
            .get_or_insert_with(addr, || (E::allocate(actual), template));
        if allocated {
            // First dynamic occurrence: nothing to predict.
            (walk::ALLOCATED, 0)
        } else {
            walk::hit(entry, counter, actual)
        }
    }

    fn occupancy(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LastValueEntry, StrideEntry};

    fn feed<E: PredEntry>(
        p: &mut InfinitePredictor<E>,
        addr: u32,
        dir: Directive,
        values: impl IntoIterator<Item = u64>,
    ) {
        for v in values {
            p.access(InstrAddr::new(addr), dir, v);
        }
    }

    #[test]
    fn stride_sequence_predicts_after_two_observations() {
        let mut p: InfinitePredictor<StrideEntry> = InfinitePredictor::new(ClassifierKind::Always);
        feed(&mut p, 0, Directive::None, (0..10).map(|i| 5 + 3 * i));
        // First access allocates; second access predicts 5 (stride 0) and is
        // wrong; the remaining 8 are correct.
        assert_eq!(p.stats().raw_correct, 8);
        assert_eq!(p.stats().nonzero_stride_correct, 8);
    }

    #[test]
    fn last_value_entry_never_reports_stride() {
        let mut p: InfinitePredictor<LastValueEntry> =
            InfinitePredictor::new(ClassifierKind::Always);
        feed(&mut p, 0, Directive::None, [7, 7, 7, 7]);
        assert_eq!(p.stats().raw_correct, 3);
        assert_eq!(p.stats().nonzero_stride_correct, 0);
    }

    #[test]
    fn counters_suppress_an_unpredictable_instruction() {
        let mut p: InfinitePredictor<StrideEntry> =
            InfinitePredictor::new(ClassifierKind::two_bit_counter());
        // Quadratic values: the stride changes on every step, so raw
        // predictions are always wrong, the counter stays at/below 1, and
        // speculation never happens.
        feed(
            &mut p,
            0,
            Directive::None,
            (0..50).map(|i: u64| i.wrapping_mul(i).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        );
        assert_eq!(p.stats().speculated, 0);
        assert!(p.stats().misprediction_classification_accuracy() > 0.99);
    }

    #[test]
    fn directive_classifier_follows_the_tag_not_the_history() {
        let mut p: InfinitePredictor<StrideEntry> =
            InfinitePredictor::new(ClassifierKind::Directive);
        // Tagged instruction with garbage values: every hit speculates.
        feed(
            &mut p,
            0,
            Directive::Stride,
            (0..10).map(|i: u64| i.wrapping_mul(0x12345677)),
        );
        assert_eq!(p.stats().speculated, 9);
        // Untagged instruction with a perfect stride: never speculates.
        feed(&mut p, 1, Directive::None, (0..10).map(|i| 4 * i));
        assert_eq!(p.stats().speculated, 9);
        // ... but the raw prediction was evaluated identically.
        assert!(p.stats().raw_correct >= 8);
    }

    #[test]
    fn distinct_addresses_have_distinct_state() {
        let mut p: InfinitePredictor<LastValueEntry> =
            InfinitePredictor::new(ClassifierKind::Always);
        feed(&mut p, 0, Directive::None, [1, 1]);
        feed(&mut p, 1, Directive::None, [2, 2]);
        assert_eq!(p.occupancy(), 2);
        assert_eq!(p.stats().raw_correct, 2);
    }

    #[test]
    fn reset_clears_state_and_stats() {
        let mut p: InfinitePredictor<StrideEntry> = InfinitePredictor::new(ClassifierKind::Always);
        feed(&mut p, 0, Directive::None, [1, 2, 3]);
        p.reset();
        assert_eq!(p.occupancy(), 0);
        assert_eq!(p.stats().accesses, 0);
    }
}
