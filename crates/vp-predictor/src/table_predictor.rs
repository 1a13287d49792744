//! The finite, set-associative table predictor of the paper's Section 5.2.

use vp_isa::{Directive, InstrAddr};

use crate::walk::{self, StateWalk};
use crate::{
    Access, ClassifierKind, PredEntry, PredictorStats, SatCounter, SetAssocTable, TableGeometry,
    ValuePredictor,
};

/// A finite prediction table (entry type `E`) with a classification
/// mechanism that controls **both** admission and use:
///
/// - with [`ClassifierKind::SatCounter`], every dynamic value producer
///   competes for table entries and a per-entry counter gates use — the
///   hardware-only baseline, whose weakness is exactly that "unpredictable
///   instructions could have uselessly occupied entries in the prediction
///   table and evacuated the predictable instructions";
/// - with [`ClassifierKind::Directive`], only directive-tagged instructions
///   are allocated, and every hit is trusted — the paper's mechanism.
///
/// # Examples
///
/// ```
/// use vp_isa::{Directive, InstrAddr};
/// use vp_predictor::{ClassifierKind, StrideEntry, TableGeometry, TablePredictor, ValuePredictor};
///
/// let mut p: TablePredictor<StrideEntry> =
///     TablePredictor::new(TableGeometry::SPEC_512_2WAY, ClassifierKind::Directive);
/// // An untagged instruction never even allocates.
/// let a = p.access(InstrAddr::new(9), Directive::None, 1);
/// assert!(!a.allocated && !a.hit);
/// ```
#[derive(Debug, Clone)]
pub struct TablePredictor<E> {
    classifier: ClassifierKind,
    state: TableState<E>,
    stats: PredictorStats,
}

impl<E: PredEntry> TablePredictor<E> {
    /// Creates an empty table predictor.
    #[must_use]
    pub fn new(geometry: TableGeometry, classifier: ClassifierKind) -> Self {
        TablePredictor {
            classifier,
            state: TableState::new(geometry, classifier),
            stats: PredictorStats::new(),
        }
    }

    /// The table geometry.
    #[must_use]
    pub fn geometry(&self) -> TableGeometry {
        self.state.table.geometry()
    }

    /// Current number of occupied entries.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.state.table.occupancy()
    }
}

impl<E: PredEntry> ValuePredictor for TablePredictor<E> {
    fn access(&mut self, addr: InstrAddr, directive: Directive, actual: u64) -> Access {
        let (code, predicted) = self.state.update(addr, directive, actual);
        let a = Access::from_code(code, predicted, self.classifier.recommends(directive, code));
        self.stats.record_classified(directive, &a);
        self.stats.evictions = self.state.evictions();
        self.stats.set_conflicts = self.state.conflicts();
        a
    }

    fn stats(&self) -> &PredictorStats {
        &self.stats
    }

    fn reset(&mut self) {
        self.state.table.clear();
        self.stats = PredictorStats::new();
    }

    fn occupancy(&self) -> usize {
        TablePredictor::occupancy(self)
    }
}

/// The state of a finite table: entries with their counters, and whether
/// the table admits every producer (hardware classifiers) or only
/// directive-tagged ones ([`ClassifierKind::Directive`]).
#[derive(Debug, Clone)]
pub(crate) struct TableState<E> {
    table: SetAssocTable<(E, SatCounter)>,
    template: SatCounter,
    tagged_only: bool,
}

impl<E: PredEntry> TableState<E> {
    pub(crate) fn new(geometry: TableGeometry, classifier: ClassifierKind) -> Self {
        TableState {
            table: SetAssocTable::new(geometry),
            template: classifier.counter_template(),
            tagged_only: !classifier.admits(Directive::None),
        }
    }
}

impl<E: PredEntry> StateWalk for TableState<E> {
    #[inline]
    fn update(&mut self, addr: InstrAddr, directive: Directive, actual: u64) -> (u8, u64) {
        if self.tagged_only && !directive.is_predictable() {
            // Untagged under directive classification: invisible to the
            // table. This is the better-utilisation effect of Table 5.1.
            return (0, 0);
        }
        let key = u64::from(addr.index());
        match self.table.lookup(key) {
            Some((entry, counter)) => walk::hit(entry, counter, actual),
            None => {
                self.table.insert(key, (E::allocate(actual), self.template));
                (walk::ALLOCATED, 0)
            }
        }
    }

    fn evictions(&self) -> u64 {
        self.table.evictions()
    }

    fn conflicts(&self) -> u64 {
        self.table.conflicts()
    }

    fn occupancy(&self) -> usize {
        self.table.occupancy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StrideEntry;

    fn tiny(classifier: ClassifierKind) -> TablePredictor<StrideEntry> {
        TablePredictor::new(TableGeometry::new(4, 2), classifier)
    }

    #[test]
    fn fsm_admits_everything_and_thrashes() {
        let mut p = tiny(ClassifierKind::two_bit_counter());
        // Six distinct instructions mapping into 2 sets of 2 ways: constant
        // conflict misses.
        for round in 0..50u64 {
            for addr in 0..6u32 {
                p.access(InstrAddr::new(addr), Directive::None, round);
            }
        }
        assert!(
            p.stats().evictions > 0,
            "small table must evict under pressure"
        );
    }

    #[test]
    fn directive_filtering_protects_the_table() {
        let mut p = tiny(ClassifierKind::Directive);
        // Two tagged strided instructions + four untagged noisy ones.
        for round in 0..50u64 {
            for addr in 0..2u32 {
                p.access(
                    InstrAddr::new(addr),
                    Directive::Stride,
                    10 * u64::from(addr) + round,
                );
            }
            for addr in 2..6u32 {
                p.access(
                    InstrAddr::new(addr),
                    Directive::None,
                    round.wrapping_mul(0x9e3779b9) + u64::from(addr),
                );
            }
        }
        assert_eq!(
            p.stats().evictions,
            0,
            "untagged instructions must not pollute"
        );
        assert_eq!(p.occupancy(), 2);
        // Tagged strided instructions predict almost perfectly: 2 allocs,
        // 2 stride warm-ups.
        assert_eq!(p.stats().speculated_correct, 2 * 50 - 4);
    }

    #[test]
    fn fsm_warmup_takes_one_correct_prediction() {
        let mut p = tiny(ClassifierKind::two_bit_counter());
        let a = InstrAddr::new(0);
        // alloc (counter 1), wrong raw (stride 0) -> counter 0, then lock on.
        let seq: Vec<u64> = (0..10).map(|i| 2 * i).collect();
        let mut first_spec = None;
        for (i, &v) in seq.iter().enumerate() {
            let acc = p.access(a, Directive::None, v);
            if acc.speculated() && first_spec.is_none() {
                first_spec = Some(i);
            }
        }
        // Counter path: alloc@0 (c=1), @1 raw wrong (c=0), @2.. raw correct
        // (c=1,2 -> predicts from the access after c reaches 2).
        assert_eq!(first_spec, Some(4));
    }

    #[test]
    fn eviction_loses_history() {
        let mut p: TablePredictor<StrideEntry> =
            TablePredictor::new(TableGeometry::new(2, 1), ClassifierKind::Always);
        // addr 0 and addr 2 collide in set 0 of a direct-mapped 2-set table.
        p.access(InstrAddr::new(0), Directive::None, 100);
        p.access(InstrAddr::new(2), Directive::None, 500); // evicts 0
        let a = p.access(InstrAddr::new(0), Directive::None, 101);
        assert!(a.allocated, "re-allocated after eviction");
        assert_eq!(p.stats().evictions, 2);
    }

    #[test]
    fn reset_restores_empty_state() {
        let mut p = tiny(ClassifierKind::Always);
        p.access(InstrAddr::new(0), Directive::None, 1);
        p.reset();
        assert_eq!(p.occupancy(), 0);
        assert_eq!(p.stats().accesses, 0);
    }
}
