//! The fused sweep kernel's two halves: a **state walk** that evolves one
//! predictor state and emits one raw code byte per access, and a
//! per-cell **code histogram** that tallies those bytes and becomes
//! [`PredictorStats`] at the end.
//!
//! A cell's statistics depend on its predictor state only through five
//! facts per access — hit, allocated, correct, non-zero stride and
//! "the entry's counter predicts" — plus the access's directive and the
//! cell's classifier. Cells whose predictors evolve identical state (see
//! [`crate::PredictorConfig::shared_state`]) can therefore share one walk
//! and differ only in how they read its codes: each adds one to a
//! `(directive, code)` bin, and [`CodeHistogram::stats`] applies the
//! cell's classifier through the one rule [`ClassifierKind::recommends`]
//! that [`crate::ValuePredictor::access`] uses too. Per-PC attribution
//! reads the same codes ([`crate::AttributionTable::observe_codes`]).

use vp_isa::{Directive, InstrAddr};

use crate::{Access, ClassifierKind, Outcome, PredEntry, PredictorStats, SatCounter};

/// Code bit: an entry for the instruction existed at access time.
pub const HIT: u8 = 1;
/// Code bit: the access allocated a new entry.
pub const ALLOCATED: u8 = 1 << 1;
/// Code bit: the raw prediction matched the actual value.
pub const CORRECT: u8 = 1 << 2;
/// Code bit: the raw prediction was driven by a non-zero stride.
pub const NONZERO_STRIDE: u8 = 1 << 3;
/// Code bit: the entry's saturating counter predicted (read before the
/// access trained it; meaningful only with [`HIT`]).
pub const COUNTER: u8 = 1 << 4;
/// Number of distinct raw codes.
pub const CODES: usize = 32;

/// One predictor state, walked one access at a time.
///
/// `update` is the only place a predictor's state changes: the
/// [`crate::ValuePredictor::access`] of every predictor calls it and
/// classifies the code it returns, and the fused sweep kernel calls it
/// through [`StateWalk::walk`] once per shared state.
pub trait StateWalk {
    /// One access's state transition: the instruction at `addr` (tagged
    /// `directive`) produced `actual`. Returns the raw code and, on a hit,
    /// the predicted value (0 otherwise).
    fn update(&mut self, addr: InstrAddr, directive: Directive, actual: u64) -> (u8, u64);

    /// Walks a block: clears `codes` and pushes one code per access, in
    /// slice order. The default body is monomorphised per implementing
    /// type, so a boxed walk costs one virtual call per block.
    ///
    /// # Panics
    ///
    /// Panics if the three slices have different lengths.
    fn walk(
        &mut self,
        addrs: &[InstrAddr],
        directives: &[Directive],
        values: &[u64],
        codes: &mut Vec<u8>,
    ) {
        assert_eq!(addrs.len(), directives.len());
        assert_eq!(addrs.len(), values.len());
        codes.clear();
        codes.extend(
            addrs
                .iter()
                .zip(directives)
                .zip(values)
                .map(|((&addr, &directive), &value)| self.update(addr, directive, value).0),
        );
    }

    /// Entries evicted so far.
    fn evictions(&self) -> u64 {
        0
    }

    /// Set-index conflicts so far (see [`crate::SetAssocTable::conflicts`]).
    fn conflicts(&self) -> u64 {
        0
    }

    /// Currently occupied entries.
    fn occupancy(&self) -> usize;
}

/// The hit path every predictor shares: predict from `entry`, read the
/// counter, then train both on `actual`.
#[inline]
pub(crate) fn hit<E: PredEntry>(entry: &mut E, counter: &mut SatCounter, actual: u64) -> (u8, u64) {
    let predicted = entry.predict();
    let correct = predicted == actual;
    let mut code = HIT;
    if correct {
        code |= CORRECT;
    }
    if entry.nonzero_stride() {
        code |= NONZERO_STRIDE;
    }
    if counter.predicts() {
        code |= COUNTER;
    }
    counter.record(correct);
    entry.train(actual);
    (code, predicted)
}

impl Access {
    /// The access a raw `code` describes, with `predicted` as the value
    /// on a hit and `recommended` as the classifier's decision.
    #[must_use]
    pub(crate) fn from_code(code: u8, predicted: u64, recommended: bool) -> Self {
        let hit = code & HIT != 0;
        Access {
            hit,
            predicted: hit.then_some(predicted),
            recommended,
            correct: code & CORRECT != 0,
            nonzero_stride: code & NONZERO_STRIDE != 0,
            allocated: code & ALLOCATED != 0,
        }
    }
}

impl ClassifierKind {
    /// Whether this classifier recommends the prediction of an access
    /// with raw `code`, made by an instruction tagged `directive`:
    ///
    /// - [`ClassifierKind::SatCounter`]: a hit whose counter predicts;
    /// - [`ClassifierKind::Directive`]: a tagged instruction that found or
    ///   allocated an entry;
    /// - [`ClassifierKind::Always`]: any hit.
    #[must_use]
    #[inline]
    pub fn recommends(self, directive: Directive, code: u8) -> bool {
        match self {
            ClassifierKind::SatCounter { .. } => code & (HIT | COUNTER) == HIT | COUNTER,
            ClassifierKind::Directive => {
                code & (HIT | ALLOCATED) != 0 && directive.is_predictable()
            }
            ClassifierKind::Always => code & HIT != 0,
        }
    }

    /// The [`Outcome`] of an access with raw `code` under this classifier.
    #[must_use]
    #[inline]
    pub fn outcome(self, directive: Directive, code: u8) -> Outcome {
        Outcome::of(&Access::from_code(
            code,
            0,
            self.recommends(directive, code),
        ))
    }
}

/// One cell's tally of `(directive, code)` pairs: 3 × [`CODES`] bins.
///
/// The bins are kept twice, for even and odd events: runs of one code
/// (common: a steady instruction mix) would otherwise chain every
/// increment on the previous store to the same bin.
///
/// # Examples
///
/// ```
/// use vp_isa::Directive;
/// use vp_predictor::walk::{CodeHistogram, CORRECT, HIT};
/// use vp_predictor::ClassifierKind;
///
/// let mut h = CodeHistogram::new();
/// h.tally(&[Directive::Stride, Directive::None], &[HIT | CORRECT, HIT]);
/// let stats = h.stats(ClassifierKind::Directive);
/// assert_eq!((stats.accesses, stats.speculated, stats.raw_correct), (2, 1, 1));
/// ```
#[derive(Debug, Clone)]
pub struct CodeHistogram {
    bins: [[u64; 3 * CODES]; 2],
}

impl Default for CodeHistogram {
    fn default() -> Self {
        CodeHistogram::new()
    }
}

impl CodeHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        CodeHistogram {
            bins: [[0; 3 * CODES]; 2],
        }
    }

    /// Adds one to the bin of each `(directives[i], codes[i])`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    #[inline]
    pub fn tally(&mut self, directives: &[Directive], codes: &[u8]) {
        assert_eq!(directives.len(), codes.len());
        let [even, odd] = &mut self.bins;
        let pairs = directives.chunks_exact(2).zip(codes.chunks_exact(2));
        for (d, c) in pairs {
            even[bin(d[0], c[0])] += 1;
            odd[bin(d[1], c[1])] += 1;
        }
        if let (Some(&d), Some(&c)) = (directives.last(), codes.last()) {
            if directives.len() % 2 == 1 {
                even[bin(d, c)] += 1;
            }
        }
    }

    /// The statistics of the tallied accesses under `classifier`: equal
    /// to folding [`PredictorStats::record_classified`] over them.
    /// Evictions and set conflicts belong to the walk, not the tally, and
    /// are left at zero.
    #[must_use]
    pub fn stats(&self, classifier: ClassifierKind) -> PredictorStats {
        let mut stats = PredictorStats::new();
        for directive in Directive::ALL {
            for code in 0..CODES as u8 {
                let i = bin(directive, code);
                let n = self.bins[0][i] + self.bins[1][i];
                if n > 0 {
                    let recommended = classifier.recommends(directive, code);
                    let access = Access::from_code(code, 0, recommended);
                    stats.record_classified_n(directive, &access, n);
                }
            }
        }
        stats
    }
}

#[inline]
fn bin(directive: Directive, code: u8) -> usize {
    usize::from(directive.encode()) * CODES + usize::from(code & (CODES as u8 - 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttributionTable, PredictorConfig, TableGeometry};
    use vp_rng::prop;

    fn classifiers() -> [ClassifierKind; 4] {
        [
            ClassifierKind::two_bit_counter(),
            ClassifierKind::SatCounter {
                template: SatCounter::new(1, 3, 3),
            },
            ClassifierKind::Directive,
            ClassifierKind::Always,
        ]
    }

    /// The configurations the differential oracle checks
    /// (`vp_verify::oracle::oracle_configs`), plus a 4-way table.
    fn configs() -> Vec<PredictorConfig> {
        vec![
            PredictorConfig::spec_table_stride_fsm(),
            PredictorConfig::spec_table_stride_profile(),
            PredictorConfig::InfiniteStride {
                classifier: ClassifierKind::two_bit_counter(),
            },
            PredictorConfig::InfiniteLastValue {
                classifier: ClassifierKind::Always,
            },
            PredictorConfig::TableLastValue {
                geometry: TableGeometry::new(8, 2),
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
            PredictorConfig::TableStride {
                geometry: TableGeometry::new(16, 4),
                classifier: ClassifierKind::Always,
            },
        ]
    }

    /// Every `(directive, code)` pair, tallied any number of times,
    /// yields the statistics of folding `record_classified` over the
    /// accesses it stands for, under every classifier.
    #[test]
    fn prop_histogram_stats_equal_the_fold() {
        prop::forall("histogram stats equal record_classified fold", |rng| {
            (0..rng.gen_range(0..200usize))
                .map(|_| {
                    (
                        rng.gen_range(0..3u8),
                        rng.gen_range(0..CODES as u8),
                        rng.gen_range(1..4u64),
                    )
                })
                .collect::<Vec<_>>()
        })
        .check(|pairs| {
            for classifier in classifiers() {
                let mut histogram = CodeHistogram::new();
                let mut fold = PredictorStats::new();
                for &(d, code, times) in pairs {
                    let directive = Directive::decode(d).unwrap();
                    let (hit, allocated) = (code & HIT != 0, code & ALLOCATED != 0);
                    let access = Access {
                        hit,
                        predicted: None,
                        recommended: match classifier {
                            ClassifierKind::SatCounter { .. } => hit && code & COUNTER != 0,
                            ClassifierKind::Directive => {
                                (hit || allocated) && directive.is_predictable()
                            }
                            ClassifierKind::Always => hit,
                        },
                        correct: code & CORRECT != 0,
                        nonzero_stride: code & NONZERO_STRIDE != 0,
                        allocated,
                    };
                    for _ in 0..times {
                        histogram.tally(&[directive], &[code]);
                        fold.record_classified(directive, &access);
                    }
                }
                assert_eq!(histogram.stats(classifier), fold, "{classifier:?}");
            }
        });
    }

    /// A random value-event stream: addresses from a small pool (so
    /// tables conflict), a fixed directive per address, values that mix
    /// strides, repeats and noise.
    fn events(rng: &mut vp_rng::Rng) -> (Vec<Directive>, Vec<(InstrAddr, u64)>) {
        let pcs = rng.gen_range(1..40u32);
        let directives = (0..pcs)
            .map(|_| Directive::decode(rng.gen_range(0..3u8)).unwrap())
            .collect();
        let events = (0..rng.gen_range(0..600usize))
            .map(|i| {
                let pc = rng.gen_range(0..pcs);
                let value = match pc % 3 {
                    0 => 7 * i as u64,
                    1 => u64::from(pc),
                    _ => rng.gen_u64() % 4,
                };
                (InstrAddr::new(pc), value)
            })
            .collect();
        (directives, events)
    }

    /// Walking blocks of any size and tallying the codes gives every
    /// configuration's predictor the statistics, occupancy, per-event
    /// outcomes and attribution table of calling `access` once per event.
    #[test]
    fn prop_block_walk_equals_sequential_access() {
        prop::forall("block walk equals sequential access", |rng| {
            (events(rng), rng.gen_range(1..70usize))
        })
        .check(|((directives, events), block)| {
            let row: Vec<Directive> = events
                .iter()
                .map(|(a, _)| directives[a.index() as usize])
                .collect();
            for config in configs() {
                let mut predictor = config.build();
                let mut expected_table = AttributionTable::new();
                let expected: Vec<Outcome> = events
                    .iter()
                    .zip(&row)
                    .map(|(&(addr, value), &d)| {
                        let access = predictor.access(addr, d, value);
                        expected_table.observe(addr, d, &access, value);
                        Outcome::of(&access)
                    })
                    .collect();

                let mut walk = config.walker();
                let mut histogram = CodeHistogram::new();
                let mut table = AttributionTable::new();
                let mut outcomes = Vec::new();
                let mut codes = Vec::new();
                for (chunk, dirs) in events.chunks(*block).zip(row.chunks(*block)) {
                    let addrs: Vec<InstrAddr> = chunk.iter().map(|e| e.0).collect();
                    let values: Vec<u64> = chunk.iter().map(|e| e.1).collect();
                    walk.walk(&addrs, dirs, &values, &mut codes);
                    histogram.tally(dirs, &codes);
                    table.observe_codes(config.classifier(), &addrs, dirs, &codes, &values);
                    outcomes.extend(
                        dirs.iter()
                            .zip(&codes)
                            .map(|(&d, &c)| config.classifier().outcome(d, c)),
                    );
                }
                let mut stats = histogram.stats(config.classifier());
                stats.evictions = walk.evictions();
                stats.set_conflicts = walk.conflicts();
                assert_eq!(stats, *predictor.stats(), "{}", config.label());
                assert_eq!(
                    walk.occupancy(),
                    predictor.occupancy(),
                    "{}",
                    config.label()
                );
                assert_eq!(outcomes, expected, "{}", config.label());
                assert_eq!(table, expected_table, "{}", config.label());
            }
        });
    }

    /// Configurations with one shared-state key walk identically, so one
    /// walk serves all their classifiers; keys split on the counter
    /// template, on admission by directive, and on the structure.
    #[test]
    fn shared_state_keys() {
        let key = |config: PredictorConfig| config.shared_state();
        let infinite = |classifier| PredictorConfig::InfiniteStride { classifier };
        let table = |classifier| PredictorConfig::TableStride {
            geometry: TableGeometry::SPEC_512_2WAY,
            classifier,
        };
        let fsm = key(infinite(ClassifierKind::two_bit_counter()));
        assert!(!fsm.1, "infinite walks read no directives");
        assert_eq!(key(infinite(ClassifierKind::Directive)), fsm);
        assert_eq!(key(infinite(ClassifierKind::Always)), fsm);
        assert_ne!(
            key(infinite(classifiers()[1])),
            fsm,
            "counter templates differ"
        );
        assert_eq!(
            key(table(ClassifierKind::Always)),
            key(table(ClassifierKind::two_bit_counter()))
        );
        let profile = key(table(ClassifierKind::Directive));
        assert!(profile.1, "directive admission reads directives");
        assert_ne!(profile.0, key(table(ClassifierKind::Always)).0);
        assert_ne!(key(table(ClassifierKind::Always)).0, fsm.0);
        let hybrid = PredictorConfig::Hybrid {
            stride: TableGeometry::new(4, 2),
            last_value: TableGeometry::new(8, 2),
        };
        assert_eq!(key(hybrid), (hybrid, true));
        assert_eq!(hybrid.classifier(), ClassifierKind::Directive);
    }
}
