//! Per-access outcomes and cumulative predictor statistics.

use std::fmt;

use vp_isa::Directive;

/// What the predictor hardware did for one dynamic value-producing
/// instruction.
///
/// Returned by [`crate::ValuePredictor::access`]. The distinction between
/// the *raw* prediction (what the table would have said) and the
/// *recommended* decision (what the classification mechanism allowed) is the
/// entire subject of the paper's Section 5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Access {
    /// A table entry for the instruction existed at access time.
    pub hit: bool,
    /// The raw predicted value, when an entry existed.
    pub predicted: Option<u64>,
    /// The classification mechanism recommended using the prediction.
    pub recommended: bool,
    /// The raw prediction matched the actual outcome.
    pub correct: bool,
    /// The raw prediction was driven by a non-zero stride.
    pub nonzero_stride: bool,
    /// A new table entry was allocated by this access.
    pub allocated: bool,
}

impl Access {
    /// The machine actually executed dependents on a predicted value:
    /// an entry existed *and* the classifier recommended it.
    #[must_use]
    pub fn speculated(self) -> bool {
        self.hit && self.recommended
    }

    /// Speculated and the value was right (a paper "correct prediction").
    #[must_use]
    pub fn speculated_correct(self) -> bool {
        self.speculated() && self.correct
    }

    /// Speculated and the value was wrong (a paper "misprediction",
    /// charged the misprediction penalty).
    #[must_use]
    pub fn speculated_incorrect(self) -> bool {
        self.speculated() && !self.correct
    }
}

/// Cumulative statistics over every access presented to a predictor.
///
/// A passive data structure: fields are public, derived ratios are methods.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictorStats {
    /// Dynamic value-producing instructions presented.
    pub accesses: u64,
    /// Accesses that found an entry.
    pub hits: u64,
    /// New entries allocated.
    pub allocations: u64,
    /// Entries evicted by LRU replacement.
    pub evictions: u64,
    /// Raw predictions that matched the actual value.
    pub raw_correct: u64,
    /// Raw-correct accesses the classifier also recommended
    /// (numerator of the paper's Figure 5.2).
    pub raw_correct_recommended: u64,
    /// Raw-incorrect accesses the classifier suppressed
    /// (numerator of the paper's Figure 5.1).
    pub raw_incorrect_suppressed: u64,
    /// Accesses where a prediction was actually used.
    pub speculated: u64,
    /// Used predictions that were correct (Figure 5.3's quantity).
    pub speculated_correct: u64,
    /// Correct raw predictions driven by a non-zero stride.
    pub nonzero_stride_correct: u64,
    /// Accesses whose profile directive classified them stride-predictable.
    pub stride_accesses: u64,
    /// Raw-correct accesses among the stride-classified ones.
    pub stride_correct: u64,
    /// Accesses whose directive classified them last-value-predictable.
    pub last_value_accesses: u64,
    /// Raw-correct accesses among the last-value-classified ones.
    pub last_value_correct: u64,
    /// Accesses carrying no predictability directive.
    pub unclassified_accesses: u64,
    /// Raw-correct accesses among the unclassified ones.
    pub unclassified_correct: u64,
    /// Set-index conflicts in the backing table (new keys landing in sets
    /// that already hold other tags); always zero for infinite predictors.
    pub set_conflicts: u64,
}

impl PredictorStats {
    /// An all-zero statistics block.
    #[must_use]
    pub fn new() -> Self {
        PredictorStats::default()
    }

    /// Folds one access outcome into the totals.
    pub fn record(&mut self, a: &Access) {
        self.record_n(a, 1);
    }

    /// Folds `n` accesses with outcome `a` into the totals.
    fn record_n(&mut self, a: &Access, n: u64) {
        let times = |flag: bool| if flag { n } else { 0 };
        self.accesses += n;
        self.hits += times(a.hit);
        self.allocations += times(a.allocated);
        self.raw_correct += times(a.correct);
        self.raw_correct_recommended += times(a.correct && a.recommended);
        self.raw_incorrect_suppressed += times(!a.correct && !a.recommended);
        self.speculated += times(a.speculated());
        self.speculated_correct += times(a.speculated_correct());
        self.nonzero_stride_correct += times(a.correct && a.nonzero_stride);
    }

    /// Folds one access outcome into the totals, additionally attributing
    /// it to its profile-classification bucket (stride / last-value /
    /// unclassified) so per-class hit rates can be exported.
    pub fn record_classified(&mut self, directive: Directive, a: &Access) {
        self.record_classified_n(directive, a, 1);
    }

    /// [`PredictorStats::record_classified`] for `n` identical accesses.
    pub(crate) fn record_classified_n(&mut self, directive: Directive, a: &Access, n: u64) {
        self.record_n(a, n);
        let correct = if a.correct { n } else { 0 };
        match directive {
            Directive::Stride => {
                self.stride_accesses += n;
                self.stride_correct += correct;
            }
            Directive::LastValue => {
                self.last_value_accesses += n;
                self.last_value_correct += correct;
            }
            Directive::None => {
                self.unclassified_accesses += n;
                self.unclassified_correct += correct;
            }
        }
    }

    /// Raw predictions that missed the actual value (including accesses with
    /// no entry, which cannot supply a value).
    #[must_use]
    pub fn raw_incorrect(&self) -> u64 {
        self.accesses - self.raw_correct
    }

    /// Used predictions that were wrong (Figure 5.4's quantity).
    #[must_use]
    pub fn speculated_incorrect(&self) -> u64 {
        self.speculated - self.speculated_correct
    }

    /// Raw prediction accuracy over all accesses.
    #[must_use]
    pub fn raw_accuracy(&self) -> f64 {
        ratio(self.raw_correct, self.accesses)
    }

    /// Accuracy of the predictions the machine actually used.
    #[must_use]
    pub fn effective_accuracy(&self) -> f64 {
        ratio(self.speculated_correct, self.speculated)
    }

    /// Fraction of would-be mispredictions the classifier eliminated —
    /// the paper's Figure 5.1 metric, in `[0, 1]`.
    #[must_use]
    pub fn misprediction_classification_accuracy(&self) -> f64 {
        ratio(self.raw_incorrect_suppressed, self.raw_incorrect())
    }

    /// Fraction of would-be correct predictions the classifier admitted —
    /// the paper's Figure 5.2 metric, in `[0, 1]`.
    #[must_use]
    pub fn correct_classification_accuracy(&self) -> f64 {
        ratio(self.raw_correct_recommended, self.raw_correct)
    }

    /// The paper's *stride efficiency ratio*: correct predictions with a
    /// non-zero stride over all correct (raw) predictions, in `[0, 1]`.
    #[must_use]
    pub fn stride_efficiency_ratio(&self) -> f64 {
        ratio(self.nonzero_stride_correct, self.raw_correct)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl fmt::Display for PredictorStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {:.1}% raw accuracy, {} used ({} correct / {} wrong), {} allocs, {} evictions",
            self.accesses,
            100.0 * self.raw_accuracy(),
            self.speculated,
            self.speculated_correct,
            self.speculated_incorrect(),
            self.allocations,
            self.evictions,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(hit: bool, recommended: bool, correct: bool) -> Access {
        Access {
            hit,
            recommended,
            correct,
            ..Access::default()
        }
    }

    #[test]
    fn speculation_requires_hit_and_recommendation() {
        assert!(access(true, true, true).speculated());
        assert!(!access(false, true, true).speculated());
        assert!(!access(true, false, true).speculated());
    }

    #[test]
    fn record_accumulates_the_four_quadrants() {
        let mut s = PredictorStats::new();
        s.record(&access(true, true, true)); // used, correct
        s.record(&access(true, true, false)); // used, wrong
        s.record(&access(true, false, true)); // suppressed, would-be correct
        s.record(&access(false, false, false)); // miss, suppressed
        assert_eq!(s.accesses, 4);
        assert_eq!(s.speculated, 2);
        assert_eq!(s.speculated_correct, 1);
        assert_eq!(s.speculated_incorrect(), 1);
        assert_eq!(s.raw_correct, 2);
        assert_eq!(s.raw_incorrect(), 2);
        assert_eq!(s.raw_correct_recommended, 1);
        assert_eq!(s.raw_incorrect_suppressed, 1);
        assert!((s.misprediction_classification_accuracy() - 0.5).abs() < 1e-12);
        assert!((s.correct_classification_accuracy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn record_classified_buckets_by_directive() {
        let mut s = PredictorStats::new();
        s.record_classified(Directive::Stride, &access(true, true, true));
        s.record_classified(Directive::Stride, &access(true, true, false));
        s.record_classified(Directive::LastValue, &access(true, true, true));
        s.record_classified(Directive::None, &access(false, false, false));
        assert_eq!(s.accesses, 4);
        assert_eq!(s.stride_accesses, 2);
        assert_eq!(s.stride_correct, 1);
        assert_eq!(s.last_value_accesses, 1);
        assert_eq!(s.last_value_correct, 1);
        assert_eq!(s.unclassified_accesses, 1);
        assert_eq!(s.unclassified_correct, 0);
    }

    #[test]
    fn ratios_are_zero_on_empty() {
        let s = PredictorStats::new();
        assert_eq!(s.raw_accuracy(), 0.0);
        assert_eq!(s.effective_accuracy(), 0.0);
        assert_eq!(s.stride_efficiency_ratio(), 0.0);
    }

    #[test]
    fn stride_efficiency_counts_only_correct_nonzero() {
        let mut s = PredictorStats::new();
        s.record(&Access {
            hit: true,
            correct: true,
            nonzero_stride: true,
            ..Access::default()
        });
        s.record(&Access {
            hit: true,
            correct: true,
            nonzero_stride: false,
            ..Access::default()
        });
        s.record(&Access {
            hit: true,
            correct: false,
            nonzero_stride: true,
            ..Access::default()
        });
        assert!((s.stride_efficiency_ratio() - 0.5).abs() < 1e-12);
    }
}
