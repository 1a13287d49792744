//! Per-static-instruction (per-PC) misprediction attribution.
//!
//! [`PredictorStats`] says *how often* a predictor was wrong; this module
//! says *where* and *why*. An [`AttributionTable`] rides alongside a
//! predictor during replay: every [`Access`] outcome is folded into a
//! per-PC record, and every raw-incorrect access is charged to exactly
//! one [`AttributionCause`] decided from a small per-PC shadow of the
//! value history (previous value, previous delta, allocation warm-up).
//! A replay that walks shared predictor state instead folds the walk's
//! raw codes a block at a time ([`AttributionTable::observe_codes`]),
//! into the records per-access observation would build.
//!
//! The table is exact (never sampled or pruned) during replay — top-K
//! selection happens only at report time ([`AttributionTable::top`]),
//! with a deterministic ordering — and its totals reconcile *exactly*
//! against the predictor's own statistics
//! ([`AttributionTable::reconcile`]), which the differential fuzzer
//! checks on every case.
//!
//! Memory stays bounded by program text size: per-PC records live in a
//! [`PcSlots`], like the [`crate::InfinitePredictor`]'s entries.

use std::fmt;

use vp_isa::{Directive, InstrAddr};

use crate::{Access, ClassifierKind, PcSlots, PredictorStats};

/// Why one raw-incorrect predictor access missed.
///
/// Every access whose raw prediction was wrong (or that found no entry)
/// is charged to exactly one cause, so per-PC cause counts always sum to
/// that PC's raw-incorrect count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AttributionCause {
    /// No history yet: the access allocated the PC's first entry, or hit
    /// the entry allocated by the immediately preceding access (stride
    /// warm-up — one observation cannot establish a delta).
    Cold,
    /// The PC's entry had been evicted by set pressure and this access
    /// re-allocated (or missed) at a PC the table had tracked before.
    Conflict,
    /// The value stream broke its stride: the delta from the previous
    /// value changed, so a stride-trained entry predicted stale history.
    StrideBreak,
    /// The value used to repeat (delta zero) and now changed — the
    /// failure mode of last-value prediction on a churning producer.
    LastValueChurn,
    /// The runtime behaviour contradicts the profile directive: the
    /// value stream repeated under a `stride` tag, or kept a steady
    /// non-zero stride under a `last-value` tag.
    ClassMismatch,
    /// The predictor declined to track the PC at all (e.g. an untagged
    /// instruction under directive-gated allocation), so no prediction
    /// was possible.
    Uncovered,
}

impl AttributionCause {
    /// Every cause, in stable report order.
    pub const ALL: [AttributionCause; 6] = [
        AttributionCause::Cold,
        AttributionCause::Conflict,
        AttributionCause::StrideBreak,
        AttributionCause::LastValueChurn,
        AttributionCause::ClassMismatch,
        AttributionCause::Uncovered,
    ];

    /// Stable text name (used by the manifest's attribution section).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            AttributionCause::Cold => "cold",
            AttributionCause::Conflict => "conflict",
            AttributionCause::StrideBreak => "stride-break",
            AttributionCause::LastValueChurn => "last-value-churn",
            AttributionCause::ClassMismatch => "class-mismatch",
            AttributionCause::Uncovered => "uncovered",
        }
    }

    /// Parses the text name.
    #[must_use]
    pub fn from_str_name(s: &str) -> Option<Self> {
        AttributionCause::ALL.into_iter().find(|c| c.as_str() == s)
    }

    fn index(self) -> usize {
        match self {
            AttributionCause::Cold => 0,
            AttributionCause::Conflict => 1,
            AttributionCause::StrideBreak => 2,
            AttributionCause::LastValueChurn => 3,
            AttributionCause::ClassMismatch => 4,
            AttributionCause::Uncovered => 5,
        }
    }
}

impl fmt::Display for AttributionCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Accumulated prediction outcomes of one static instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PcAttribution {
    /// The directive the PC carried (stable across a replay).
    pub directive: Directive,
    /// Dynamic accesses observed at this PC.
    pub accesses: u64,
    /// Accesses that found a table entry.
    pub hits: u64,
    /// Raw predictions that matched the actual value.
    pub raw_correct: u64,
    /// Accesses where the machine actually used the prediction.
    pub speculated: u64,
    /// Used predictions that were correct.
    pub speculated_correct: u64,
    /// Raw-incorrect accesses charged per cause, in
    /// [`AttributionCause::ALL`] order; sums to `accesses - raw_correct`.
    pub causes: [u64; 6],
}

impl PcAttribution {
    /// Raw prediction accuracy at this PC, in `[0, 1]`.
    #[must_use]
    pub fn raw_accuracy(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.raw_correct as f64 / self.accesses as f64
        }
    }

    /// Used predictions that were wrong (each paid the misprediction
    /// penalty).
    #[must_use]
    pub fn speculated_incorrect(&self) -> u64 {
        self.speculated - self.speculated_correct
    }

    /// Count charged to one cause.
    #[must_use]
    pub fn cause(&self, cause: AttributionCause) -> u64 {
        self.causes[cause.index()]
    }

    /// The dominant cause at this PC (largest count; earlier cause in
    /// [`AttributionCause::ALL`] wins ties), or `None` when the PC never
    /// mispredicted.
    #[must_use]
    pub fn dominant_cause(&self) -> Option<AttributionCause> {
        let (mut best, mut best_count) = (None, 0u64);
        for cause in AttributionCause::ALL {
            let n = self.cause(cause);
            if n > best_count {
                best = Some(cause);
                best_count = n;
            }
        }
        best
    }
}

/// Per-PC shadow of the value history, used only to decide causes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Shadow {
    /// The previous actual value produced at this PC.
    prev_value: u64,
    /// Delta between the two most recent values (0 until two are seen).
    prev_delta: u64,
    /// At least two values observed (so `prev_delta` is meaningful).
    has_delta: bool,
    /// The previous access allocated (this one is the warm-up access).
    warming: bool,
    /// The PC has allocated a table entry at least once (a later
    /// allocation is a conflict re-allocation, not a cold start).
    allocated_before: bool,
}

/// Whole-table totals, summed over every tracked PC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AttributionTotals {
    /// Static PCs tracked.
    pub pcs: u64,
    /// Dynamic accesses.
    pub accesses: u64,
    /// Accesses that found an entry.
    pub hits: u64,
    /// Raw-correct accesses.
    pub raw_correct: u64,
    /// Accesses that used the prediction.
    pub speculated: u64,
    /// Used-and-correct accesses.
    pub speculated_correct: u64,
    /// Cause counts, in [`AttributionCause::ALL`] order.
    pub causes: [u64; 6],
}

impl AttributionTotals {
    /// Count charged to one cause.
    #[must_use]
    pub fn cause(&self, cause: AttributionCause) -> u64 {
        self.causes[cause.index()]
    }
}

/// A per-PC attribution table observed alongside one predictor replay.
///
/// See the module docs for the reconciliation contract.
#[derive(Debug, Clone, Default)]
pub struct AttributionTable {
    slots: PcSlots<(PcAttribution, Shadow)>,
}

impl AttributionTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        AttributionTable::default()
    }

    fn slot(&mut self, addr: InstrAddr) -> &mut (PcAttribution, Shadow) {
        self.slots.get_or_insert_with(addr, Default::default).0
    }

    /// Folds one access outcome into the PC's record, charging a cause
    /// when the raw prediction missed. Call with exactly the arguments
    /// passed to / returned by [`crate::ValuePredictor::access`].
    pub fn observe(&mut self, addr: InstrAddr, directive: Directive, a: &Access, actual: u64) {
        let (record, shadow) = self.slot(addr);
        if record.accesses == 0 {
            record.directive = directive;
        }
        record.accesses += 1;
        record.hits += u64::from(a.hit);
        record.raw_correct += u64::from(a.correct);
        record.speculated += u64::from(a.speculated());
        record.speculated_correct += u64::from(a.speculated_correct());
        if !a.correct {
            let cause = decide_cause(directive, a, actual, shadow);
            record.causes[cause.index()] += 1;
        }
        // Advance the shadow history.
        if record.accesses >= 2 {
            shadow.prev_delta = actual.wrapping_sub(shadow.prev_value);
            shadow.has_delta = true;
        }
        shadow.prev_value = actual;
        shadow.warming = a.allocated;
        shadow.allocated_before |= a.allocated;
    }

    /// Folds one block of a state walk's raw `codes` (see
    /// [`crate::StateWalk::walk`]) made under `classifier`: the same
    /// records as calling [`AttributionTable::observe`] with each
    /// access's [`crate::ValuePredictor::access`] outcome, which the code
    /// and the classifier's [`ClassifierKind::recommends`] determine.
    ///
    /// # Panics
    ///
    /// Panics if the four slices have different lengths.
    pub fn observe_codes(
        &mut self,
        classifier: ClassifierKind,
        addrs: &[InstrAddr],
        directives: &[Directive],
        codes: &[u8],
        values: &[u64],
    ) {
        assert_eq!(addrs.len(), directives.len());
        assert_eq!(addrs.len(), codes.len());
        assert_eq!(addrs.len(), values.len());
        for (((&addr, &directive), &code), &value) in
            addrs.iter().zip(directives).zip(codes).zip(values)
        {
            let recommended = classifier.recommends(directive, code);
            self.observe(
                addr,
                directive,
                &Access::from_code(code, 0, recommended),
                value,
            );
        }
    }

    /// Iterates every tracked PC in ascending address order (the
    /// deterministic export order).
    pub fn entries(&self) -> impl Iterator<Item = (InstrAddr, &PcAttribution)> + '_ {
        self.slots.iter().map(|(a, (r, _))| (a, r))
    }

    /// Whole-table totals (exact — never affected by top-K selection).
    #[must_use]
    pub fn totals(&self) -> AttributionTotals {
        let mut t = AttributionTotals::default();
        for (_, r) in self.entries() {
            t.pcs += 1;
            t.accesses += r.accesses;
            t.hits += r.hits;
            t.raw_correct += r.raw_correct;
            t.speculated += r.speculated;
            t.speculated_correct += r.speculated_correct;
            for (slot, n) in t.causes.iter_mut().zip(r.causes) {
                *slot += n;
            }
        }
        t
    }

    /// The `k` hottest mispredicting PCs, ranked by speculated-incorrect
    /// count, then raw-incorrect count, then ascending address (a total
    /// order, so the selection is deterministic).
    #[must_use]
    pub fn top(&self, k: usize) -> Vec<(InstrAddr, PcAttribution)> {
        let mut rows: Vec<(InstrAddr, PcAttribution)> =
            self.entries().map(|(a, r)| (a, *r)).collect();
        rows.sort_by(|(aa, ar), (ba, br)| {
            br.speculated_incorrect()
                .cmp(&ar.speculated_incorrect())
                .then_with(|| (br.accesses - br.raw_correct).cmp(&(ar.accesses - ar.raw_correct)))
                .then_with(|| aa.cmp(ba))
        });
        rows.truncate(k);
        rows
    }

    /// Checks that the table's totals reproduce `stats` exactly — every
    /// access accounted, every raw miss charged to exactly one cause.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first mismatching
    /// quantity.
    pub fn reconcile(&self, stats: &PredictorStats) -> Result<(), String> {
        let t = self.totals();
        let checks = [
            ("accesses", t.accesses, stats.accesses),
            ("hits", t.hits, stats.hits),
            ("raw_correct", t.raw_correct, stats.raw_correct),
            ("speculated", t.speculated, stats.speculated),
            (
                "speculated_correct",
                t.speculated_correct,
                stats.speculated_correct,
            ),
            (
                "cause total",
                t.causes.iter().sum::<u64>(),
                stats.raw_incorrect(),
            ),
        ];
        for (name, attributed, reference) in checks {
            if attributed != reference {
                return Err(format!(
                    "attribution {name} = {attributed} but predictor stats say {reference}"
                ));
            }
        }
        Ok(())
    }
}

impl PartialEq for AttributionTable {
    /// Tables are equal when they track the same PCs with the same
    /// records (shadow history is replay scaffolding, not a result, and
    /// is excluded).
    fn eq(&self, other: &AttributionTable) -> bool {
        self.entries().eq(other.entries())
    }
}

/// Charges one raw-incorrect access to a cause, from the access outcome
/// and the PC's shadow history (*before* this access is folded in).
fn decide_cause(
    directive: Directive,
    a: &Access,
    actual: u64,
    shadow: &Shadow,
) -> AttributionCause {
    if !a.hit {
        if !a.allocated {
            // The predictor refused to track this PC (directive-gated
            // allocation, or a non-allocating miss path).
            return AttributionCause::Uncovered;
        }
        return if shadow.allocated_before {
            AttributionCause::Conflict
        } else {
            AttributionCause::Cold
        };
    }
    // A hit that predicted the wrong value.
    if shadow.warming || !shadow.has_delta {
        // The entry was allocated by the immediately preceding access
        // (or the PC has a single observation): there was no history to
        // predict from yet.
        return AttributionCause::Cold;
    }
    let delta = actual.wrapping_sub(shadow.prev_value);
    if delta == 0 {
        // The value repeated — trivially last-value-predictable — and
        // the prediction still missed (a stride entry extrapolated past
        // it). Under a `stride` tag that is the profile's mistake.
        return if directive == Directive::Stride {
            AttributionCause::ClassMismatch
        } else {
            AttributionCause::StrideBreak
        };
    }
    if delta == shadow.prev_delta {
        // A steady non-zero stride a stride predictor would catch; the
        // miss means this predictor (or this entry's training state)
        // could not. Under a `last-value` tag that is the profile's
        // mistake.
        return if directive == Directive::LastValue {
            AttributionCause::ClassMismatch
        } else {
            AttributionCause::StrideBreak
        };
    }
    if shadow.prev_delta == 0 {
        // The value had been repeating and now churned away.
        AttributionCause::LastValueChurn
    } else {
        AttributionCause::StrideBreak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PredictorConfig, TableGeometry};

    /// Replays `values` at one PC through `config`, observing every
    /// access into a fresh table.
    fn replay_one_pc(
        config: &PredictorConfig,
        directive: Directive,
        values: &[u64],
    ) -> (AttributionTable, PredictorStats) {
        let mut p = config.build();
        let mut table = AttributionTable::new();
        let addr = InstrAddr::new(7);
        for &v in values {
            let a = p.access(addr, directive, v);
            table.observe(addr, directive, &a, v);
        }
        (table, *p.stats())
    }

    fn infinite_stride() -> PredictorConfig {
        PredictorConfig::InfiniteStride {
            classifier: ClassifierKind::Always,
        }
    }

    #[test]
    fn cause_names_round_trip() {
        for c in AttributionCause::ALL {
            assert_eq!(AttributionCause::from_str_name(c.as_str()), Some(c));
        }
        assert_eq!(AttributionCause::from_str_name("bogus"), None);
    }

    #[test]
    fn steady_stride_charges_only_warmup() {
        let values: Vec<u64> = (0..20).map(|i| 10 + 4 * i).collect();
        let (table, stats) = replay_one_pc(&infinite_stride(), Directive::None, &values);
        table.reconcile(&stats).unwrap();
        let t = table.totals();
        // Access 1 allocates (cold), access 2 hits with no delta history
        // (cold warm-up); everything after predicts correctly.
        assert_eq!(t.cause(AttributionCause::Cold), 2);
        assert_eq!(t.causes.iter().sum::<u64>(), 2);
    }

    #[test]
    fn broken_stride_charges_stride_break() {
        // Warm up a stride of 4, then jump irregularly.
        let values = [0u64, 4, 8, 12, 100, 104, 300];
        let (table, stats) = replay_one_pc(&infinite_stride(), Directive::None, &values);
        table.reconcile(&stats).unwrap();
        let t = table.totals();
        assert!(t.cause(AttributionCause::StrideBreak) >= 2, "{t:?}");
        assert_eq!(t.cause(AttributionCause::ClassMismatch), 0);
    }

    #[test]
    fn repeating_value_under_stride_tag_is_a_class_mismatch() {
        // A stride entry trained on 0,8 extrapolates 16; the value
        // instead repeats 8 — trivially last-value-predictable, so the
        // `stride` tag is wrong.
        let values = [0u64, 8, 8, 8];
        let (table, stats) = replay_one_pc(&infinite_stride(), Directive::Stride, &values);
        table.reconcile(&stats).unwrap();
        let t = table.totals();
        assert!(t.cause(AttributionCause::ClassMismatch) >= 1, "{t:?}");
    }

    #[test]
    fn churning_last_value_charges_churn() {
        let config = PredictorConfig::InfiniteLastValue {
            classifier: ClassifierKind::Always,
        };
        // Repeats establish delta 0, then every value differs.
        let values = [5u64, 5, 5, 9, 13, 40];
        let (table, stats) = replay_one_pc(&config, Directive::None, &values);
        table.reconcile(&stats).unwrap();
        let t = table.totals();
        assert!(t.cause(AttributionCause::LastValueChurn) >= 1, "{t:?}");
    }

    #[test]
    fn steady_stride_under_last_value_tag_is_a_class_mismatch() {
        let config = PredictorConfig::InfiniteLastValue {
            classifier: ClassifierKind::Always,
        };
        let values: Vec<u64> = (0..10).map(|i| 4 * i).collect();
        let (table, stats) = replay_one_pc(&config, Directive::LastValue, &values);
        table.reconcile(&stats).unwrap();
        let t = table.totals();
        // After warm-up, every miss sees a steady non-zero stride under
        // a last-value tag.
        assert!(t.cause(AttributionCause::ClassMismatch) >= 6, "{t:?}");
    }

    #[test]
    fn untracked_pcs_charge_uncovered() {
        // The hybrid refuses untagged instructions entirely.
        let config = PredictorConfig::Hybrid {
            stride: TableGeometry::new(8, 2),
            last_value: TableGeometry::new(8, 2),
        };
        let values = [1u64, 2, 3, 4];
        let (table, stats) = replay_one_pc(&config, Directive::None, &values);
        table.reconcile(&stats).unwrap();
        let t = table.totals();
        assert_eq!(t.cause(AttributionCause::Uncovered), 4, "{t:?}");
    }

    #[test]
    fn eviction_reallocation_charges_conflict() {
        // A 1-entry direct-mapped table: two PCs in the same set thrash.
        let config = PredictorConfig::TableStride {
            geometry: TableGeometry::new(1, 1),
            classifier: ClassifierKind::Always,
        };
        let mut p = config.build();
        let mut table = AttributionTable::new();
        let (a0, a1) = (InstrAddr::new(0), InstrAddr::new(1));
        for i in 0..6u64 {
            let a = p.access(a0, Directive::None, i);
            table.observe(a0, Directive::None, &a, i);
            let a = p.access(a1, Directive::None, 100 + i);
            table.observe(a1, Directive::None, &a, 100 + i);
        }
        table.reconcile(p.stats()).unwrap();
        let t = table.totals();
        assert!(t.cause(AttributionCause::Conflict) >= 8, "{t:?}");
        // Exactly one cold start per PC.
        assert_eq!(t.cause(AttributionCause::Cold), 2, "{t:?}");
    }

    #[test]
    fn top_ranks_by_speculated_incorrect_then_address() {
        let mut table = AttributionTable::new();
        let charge = |table: &mut AttributionTable, addr: u32, wrong: u64| {
            let a = Access {
                hit: true,
                recommended: true,
                correct: false,
                predicted: Some(0),
                ..Access::default()
            };
            for i in 0..wrong {
                table.observe(InstrAddr::new(addr), Directive::None, &a, i * 3 + 1);
            }
        };
        charge(&mut table, 5, 2);
        charge(&mut table, 3, 9);
        charge(&mut table, 8, 9);
        let top = table.top(2);
        assert_eq!(top.len(), 2);
        // 3 and 8 tie at 9 speculated-incorrect; the lower address wins.
        assert_eq!(top[0].0, InstrAddr::new(3));
        assert_eq!(top[1].0, InstrAddr::new(8));
        assert_eq!(table.top(10).len(), 3);
    }

    #[test]
    fn reconcile_reports_the_mismatching_field() {
        let (table, mut stats) = replay_one_pc(&infinite_stride(), Directive::None, &[1, 2, 3]);
        table.reconcile(&stats).unwrap();
        stats.hits += 1;
        let err = table.reconcile(&stats).unwrap_err();
        assert!(err.contains("hits"), "{err}");
    }

    #[test]
    fn dominant_cause_prefers_the_largest_count() {
        let mut r = PcAttribution::default();
        assert_eq!(r.dominant_cause(), None);
        r.causes[AttributionCause::StrideBreak.index()] = 3;
        r.causes[AttributionCause::Cold.index()] = 1;
        assert_eq!(r.dominant_cause(), Some(AttributionCause::StrideBreak));
    }
}
