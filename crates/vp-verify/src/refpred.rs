//! Reference predictor models: naive map-based re-implementations of the
//! infinite, table and hybrid predictors, with explicit per-set LRU lists.
//!
//! The optimised predictors pack entries into flat columnar arrays, share
//! a clock across sets and snapshot conflict counters; any of those
//! optimisations could silently change the architected behaviour. The
//! models here use `BTreeMap`s and per-set `Vec`s, written straight from
//! the documented replacement/admission/recommendation rules, and must
//! produce bit-identical [`PredictorStats`] on every fuzzed trace.
//!
//! Only passive data types are shared with the real crate
//! ([`PredictorStats`], [`Access`], [`PredictorConfig`] as the
//! *specification* of what to model); all dynamic state and update logic
//! is independent.

use std::collections::BTreeMap;

use vp_isa::{Directive, InstrAddr};
use vp_predictor::{
    Access, ClassifierKind, PredictorConfig, PredictorStats, SatCounter, TableGeometry,
};

/// Which prediction scheme a cell implements.
#[derive(Debug, Clone, Copy)]
enum Scheme {
    LastValue,
    Stride,
    TwoDelta,
}

/// A reference prediction cell: one struct covering all three schemes.
#[derive(Debug, Clone, Copy)]
struct RefCell {
    scheme: Scheme,
    last: u64,
    stride: u64,
    last_delta: u64,
}

impl RefCell {
    fn allocate(scheme: Scheme, initial: u64) -> Self {
        RefCell {
            scheme,
            last: initial,
            stride: 0,
            last_delta: 0,
        }
    }

    fn predict(&self) -> u64 {
        match self.scheme {
            Scheme::LastValue => self.last,
            Scheme::Stride | Scheme::TwoDelta => self.last.wrapping_add(self.stride),
        }
    }

    fn nonzero_stride(&self) -> bool {
        match self.scheme {
            Scheme::LastValue => false,
            Scheme::Stride | Scheme::TwoDelta => self.stride != 0,
        }
    }

    fn train(&mut self, actual: u64) {
        match self.scheme {
            Scheme::LastValue => {}
            Scheme::Stride => self.stride = actual.wrapping_sub(self.last),
            Scheme::TwoDelta => {
                let delta = actual.wrapping_sub(self.last);
                if delta == self.last_delta {
                    self.stride = delta;
                }
                self.last_delta = delta;
            }
        }
        self.last = actual;
    }
}

/// A reference two-bit saturating counter (initial 1, max 3, threshold 2).
///
/// The reference models only support the two-bit template; the constructor
/// asserts any supplied [`ClassifierKind::SatCounter`] template *is* the
/// two-bit counter, since its internal parameters are not observable.
#[derive(Debug, Clone, Copy)]
struct RefCounter {
    value: u8,
}

impl RefCounter {
    fn two_bit() -> Self {
        RefCounter { value: 1 }
    }

    fn predicts(&self) -> bool {
        self.value >= 2
    }

    fn record(&mut self, correct: bool) {
        if correct {
            self.value = (self.value + 1).min(3);
        } else {
            self.value = self.value.saturating_sub(1);
        }
    }
}

fn check_template(classifier: &ClassifierKind) {
    if let ClassifierKind::SatCounter { template } = classifier {
        assert_eq!(
            *template,
            SatCounter::two_bit(),
            "reference models only support the two-bit counter template"
        );
    }
}

fn admits(classifier: &ClassifierKind, directive: Directive) -> bool {
    match classifier {
        ClassifierKind::SatCounter { .. } | ClassifierKind::Always => true,
        ClassifierKind::Directive => directive.is_predictable(),
    }
}

/// The unbounded predictor: one map entry per static producer, allocated
/// on first sight regardless of classification.
struct RefInfinite {
    scheme: Scheme,
    classifier: ClassifierKind,
    map: BTreeMap<u64, (RefCell, RefCounter)>,
    stats: PredictorStats,
}

impl RefInfinite {
    fn new(scheme: Scheme, classifier: ClassifierKind) -> Self {
        check_template(&classifier);
        RefInfinite {
            scheme,
            classifier,
            map: BTreeMap::new(),
            stats: PredictorStats::new(),
        }
    }

    fn access(&mut self, addr: InstrAddr, directive: Directive, actual: u64) {
        let key = u64::from(addr.index());
        let mut a = Access::default();
        match self.map.get_mut(&key) {
            Some((cell, counter)) => {
                a.hit = true;
                let predicted = cell.predict();
                a.predicted = Some(predicted);
                a.correct = predicted == actual;
                a.nonzero_stride = cell.nonzero_stride();
                a.recommended = match self.classifier {
                    ClassifierKind::SatCounter { .. } => counter.predicts(),
                    ClassifierKind::Directive => directive.is_predictable(),
                    ClassifierKind::Always => true,
                };
                counter.record(a.correct);
                cell.train(actual);
            }
            None => {
                a.recommended = match self.classifier {
                    ClassifierKind::SatCounter { .. } | ClassifierKind::Always => false,
                    ClassifierKind::Directive => directive.is_predictable(),
                };
                a.allocated = true;
                self.map.insert(
                    key,
                    (
                        RefCell::allocate(self.scheme, actual),
                        RefCounter::two_bit(),
                    ),
                );
            }
        }
        self.stats.record_classified(directive, &a);
    }
}

/// One occupied way of a reference table set.
struct RefSlot {
    key: u64,
    stamp: u64,
    cell: RefCell,
    counter: RefCounter,
}

/// The finite set-associative predictor with an explicit per-set LRU list.
///
/// Mirrors the architected behaviour of the packed table: a global clock
/// bumped on *every* lookup (hit or miss) and on every insertion; hits
/// refresh the stamp; a full set evicts the slot with the oldest stamp;
/// conflicts count insertions of a new key into a non-empty set.
struct RefTable {
    scheme: Scheme,
    classifier: ClassifierKind,
    ways: usize,
    sets: Vec<Vec<RefSlot>>,
    clock: u64,
    conflicts: u64,
    stats: PredictorStats,
}

impl RefTable {
    fn new(scheme: Scheme, geometry: TableGeometry, classifier: ClassifierKind) -> Self {
        check_template(&classifier);
        RefTable {
            scheme,
            classifier,
            ways: geometry.ways(),
            sets: (0..geometry.sets()).map(|_| Vec::new()).collect(),
            clock: 0,
            conflicts: 0,
            stats: PredictorStats::new(),
        }
    }

    fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    fn access(&mut self, addr: InstrAddr, directive: Directive, actual: u64) -> Access {
        let mut a = Access::default();
        if !admits(&self.classifier, directive) {
            self.stats.record_classified(directive, &a);
            return a;
        }
        let key = u64::from(addr.index());
        let set = (key % self.sets.len() as u64) as usize;

        // Lookup always advances the clock, hit or miss.
        self.clock += 1;
        let slots = &mut self.sets[set];
        if let Some(slot) = slots.iter_mut().find(|s| s.key == key) {
            slot.stamp = self.clock;
            a.hit = true;
            let predicted = slot.cell.predict();
            a.predicted = Some(predicted);
            a.correct = predicted == actual;
            a.nonzero_stride = slot.cell.nonzero_stride();
            a.recommended = match self.classifier {
                ClassifierKind::SatCounter { .. } => slot.counter.predicts(),
                ClassifierKind::Directive | ClassifierKind::Always => true,
            };
            slot.counter.record(a.correct);
            slot.cell.train(actual);
        } else {
            a.allocated = true;
            a.recommended = matches!(self.classifier, ClassifierKind::Directive);
            // Insertion advances the clock again.
            self.clock += 1;
            let slot = RefSlot {
                key,
                stamp: self.clock,
                cell: RefCell::allocate(self.scheme, actual),
                counter: RefCounter::two_bit(),
            };
            if slots.len() < self.ways {
                if !slots.is_empty() {
                    self.conflicts += 1;
                }
                slots.push(slot);
            } else {
                let victim = slots
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.stamp)
                    .map(|(i, _)| i)
                    .expect("full set is non-empty");
                slots[victim] = slot;
                self.stats.evictions += 1;
                self.conflicts += 1;
            }
        }
        self.stats.record_classified(directive, &a);
        self.stats.set_conflicts = self.conflicts;
        a
    }
}

/// What a [`PredictorConfig`] resolves to in reference-model terms.
// One short-lived value exists per checked configuration; the size spread
// between variants is irrelevant here.
#[allow(clippy::large_enum_variant)]
enum RefModel {
    Infinite(RefInfinite),
    Table(RefTable),
    Hybrid {
        stride: RefTable,
        last_value: RefTable,
        stats: PredictorStats,
    },
}

impl RefModel {
    fn new(config: &PredictorConfig) -> Self {
        match config {
            PredictorConfig::InfiniteStride { classifier } => {
                RefModel::Infinite(RefInfinite::new(Scheme::Stride, *classifier))
            }
            PredictorConfig::InfiniteLastValue { classifier } => {
                RefModel::Infinite(RefInfinite::new(Scheme::LastValue, *classifier))
            }
            PredictorConfig::TableStride {
                geometry,
                classifier,
            } => RefModel::Table(RefTable::new(Scheme::Stride, *geometry, *classifier)),
            PredictorConfig::TableLastValue {
                geometry,
                classifier,
            } => RefModel::Table(RefTable::new(Scheme::LastValue, *geometry, *classifier)),
            PredictorConfig::TableTwoDelta {
                geometry,
                classifier,
            } => RefModel::Table(RefTable::new(Scheme::TwoDelta, *geometry, *classifier)),
            PredictorConfig::Hybrid { stride, last_value } => RefModel::Hybrid {
                stride: RefTable::new(Scheme::Stride, *stride, ClassifierKind::Directive),
                last_value: RefTable::new(
                    Scheme::LastValue,
                    *last_value,
                    ClassifierKind::Directive,
                ),
                stats: PredictorStats::new(),
            },
            other => panic!("no reference model for predictor config {}", other.label()),
        }
    }

    fn access(&mut self, addr: InstrAddr, directive: Directive, actual: u64) {
        match self {
            RefModel::Infinite(p) => p.access(addr, directive, actual),
            RefModel::Table(p) => {
                p.access(addr, directive, actual);
            }
            RefModel::Hybrid {
                stride,
                last_value,
                stats,
            } => {
                // Route by directive; untagged producers are invisible to
                // both sides but still recorded in the outer statistics.
                let a = match directive {
                    Directive::Stride => stride.access(addr, directive, actual),
                    Directive::LastValue => last_value.access(addr, directive, actual),
                    Directive::None => Access::default(),
                };
                stats.record_classified(directive, &a);
                // The outer block mirrors the real hybrid: evictions and
                // set conflicts are summed from the sides.
                stats.evictions = stride.stats.evictions + last_value.stats.evictions;
                stats.set_conflicts = stride.stats.set_conflicts + last_value.stats.set_conflicts;
            }
        }
    }

    fn stats(&self) -> PredictorStats {
        match self {
            RefModel::Infinite(p) => p.stats,
            RefModel::Table(p) => p.stats,
            RefModel::Hybrid { stats, .. } => *stats,
        }
    }

    fn occupancy(&self) -> usize {
        match self {
            RefModel::Infinite(p) => p.map.len(),
            RefModel::Table(p) => p.occupancy(),
            RefModel::Hybrid {
                stride, last_value, ..
            } => stride.occupancy() + last_value.occupancy(),
        }
    }
}

/// Feeds every `(address, value)` event through the reference model of
/// `config` and returns the final statistics and table occupancy.
///
/// `directives` is the program's per-instruction directive table (indexed
/// by static instruction address), exactly as the fused replay consumes
/// it.
pub fn ref_predict(
    directives: &[Directive],
    values: &[(InstrAddr, u64)],
    config: &PredictorConfig,
) -> (PredictorStats, usize) {
    let mut model = RefModel::new(config);
    for &(addr, value) in values {
        let directive = directives
            .get(addr.index() as usize)
            .copied()
            .unwrap_or(Directive::None);
        model.access(addr, directive, value);
    }
    (model.stats(), model.occupancy())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic event stream with strided, constant and noisy producers
    /// heavy enough to force evictions in a tiny table.
    fn synthetic() -> (Vec<Directive>, Vec<(InstrAddr, u64)>) {
        let directives = vec![
            Directive::Stride,
            Directive::LastValue,
            Directive::None,
            Directive::Stride,
            Directive::None,
            Directive::LastValue,
            Directive::Stride,
            Directive::None,
        ];
        let mut values = Vec::new();
        for round in 0..200u64 {
            for addr in 0..8u32 {
                let v = match addr % 4 {
                    0 => 3 * round + u64::from(addr),
                    1 => 42,
                    2 => round.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    _ => round / 3,
                };
                values.push((InstrAddr::new(addr), v));
            }
        }
        (directives, values)
    }

    fn optimized(
        directives: &[Directive],
        values: &[(InstrAddr, u64)],
        config: &PredictorConfig,
    ) -> (PredictorStats, usize) {
        let mut p = config.build();
        for &(addr, value) in values {
            let d = directives
                .get(addr.index() as usize)
                .copied()
                .unwrap_or(Directive::None);
            p.access(addr, d, value);
        }
        (*p.stats(), p.occupancy())
    }

    #[test]
    fn reference_matches_optimized_on_synthetic_streams() {
        let (directives, values) = synthetic();
        let configs = [
            PredictorConfig::spec_table_stride_fsm(),
            PredictorConfig::spec_table_stride_profile(),
            PredictorConfig::InfiniteStride {
                classifier: ClassifierKind::two_bit_counter(),
            },
            PredictorConfig::InfiniteLastValue {
                classifier: ClassifierKind::Always,
            },
            PredictorConfig::TableLastValue {
                geometry: TableGeometry::new(4, 2),
                classifier: ClassifierKind::two_bit_counter(),
            },
            PredictorConfig::TableTwoDelta {
                geometry: TableGeometry::new(12, 2),
                classifier: ClassifierKind::Directive,
            },
            PredictorConfig::Hybrid {
                stride: TableGeometry::new(4, 2),
                last_value: TableGeometry::new(8, 2),
            },
        ];
        for config in &configs {
            let (ref_stats, ref_occ) = ref_predict(&directives, &values, config);
            let (opt_stats, opt_occ) = optimized(&directives, &values, config);
            assert_eq!(ref_stats, opt_stats, "stats diverge for {}", config.label());
            assert_eq!(
                ref_occ,
                opt_occ,
                "occupancy diverges for {}",
                config.label()
            );
        }
    }

    #[test]
    fn tiny_table_thrashes_identically() {
        // 6 producers competing for a 2-set × 2-way table: constant
        // evictions, the hardest LRU case.
        let directives = vec![Directive::None; 6];
        let mut values = Vec::new();
        for round in 0..100u64 {
            for addr in 0..6u32 {
                values.push((InstrAddr::new(addr), round * 7 + u64::from(addr)));
            }
        }
        let config = PredictorConfig::TableStride {
            geometry: TableGeometry::new(4, 2),
            classifier: ClassifierKind::two_bit_counter(),
        };
        let (ref_stats, ref_occ) = ref_predict(&directives, &values, &config);
        let (opt_stats, opt_occ) = optimized(&directives, &values, &config);
        assert!(ref_stats.evictions > 0, "test must exercise eviction");
        assert_eq!(ref_stats, opt_stats);
        assert_eq!(ref_occ, opt_occ);
    }

    /// Both sides of a tiny hybrid thrash: its combined evictions are the
    /// two sides' sum, in the reference model, the predictor and its
    /// state walk alike.
    #[test]
    fn tiny_hybrid_counts_both_sides_evictions() {
        use vp_predictor::walk::CodeHistogram;
        use vp_predictor::{HybridPredictor, ValuePredictor};

        let (stride, last_value) = (TableGeometry::new(2, 1), TableGeometry::new(2, 1));
        let config = PredictorConfig::Hybrid { stride, last_value };
        let directives: Vec<Directive> = (0..8)
            .map(|i| [Directive::Stride, Directive::LastValue][i % 2])
            .collect();
        let values: Vec<(InstrAddr, u64)> = (0..50u64)
            .flat_map(|round| (0..8u32).map(move |a| (InstrAddr::new(a), round + u64::from(a))))
            .collect();
        let row: Vec<Directive> = values
            .iter()
            .map(|(a, _)| directives[a.index() as usize])
            .collect();

        let mut hybrid = HybridPredictor::new(stride, last_value);
        for (&(addr, value), &d) in values.iter().zip(&row) {
            hybrid.access(addr, d, value);
        }
        let (stride_side, lv_side) = (hybrid.stride_stats(), hybrid.last_value_stats());
        assert!(stride_side.evictions > 0 && lv_side.evictions > 0);
        assert_eq!(
            hybrid.stats().evictions,
            stride_side.evictions + lv_side.evictions
        );

        let mut walk = config.walker();
        let mut codes = Vec::new();
        let (addrs, vals): (Vec<InstrAddr>, Vec<u64>) = values.iter().copied().unzip();
        walk.walk(&addrs, &row, &vals, &mut codes);
        let mut histogram = CodeHistogram::new();
        histogram.tally(&row, &codes);
        let mut walked = histogram.stats(config.classifier());
        walked.evictions = walk.evictions();
        walked.set_conflicts = walk.conflicts();

        let (ref_stats, ref_occ) = ref_predict(&directives, &values, &config);
        assert_eq!(walked, *hybrid.stats());
        assert_eq!(ref_stats, *hybrid.stats());
        assert_eq!(walk.occupancy(), hybrid.occupancy());
        assert_eq!(ref_occ, hybrid.occupancy());
    }
}
