//! Per-static-instruction profile records.

use std::fmt;

use vp_isa::OpCategory;

/// Value-prediction category of a producing instruction, mirroring the
/// paper's Table 2.1 breakdown.
///
/// Jump-and-link instructions write a (trivially predictable) link value and
/// are bucketed with integer ALU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VpCategory {
    /// Integer computation.
    IntAlu,
    /// Integer loads.
    IntLoad,
    /// Floating-point computation.
    FpAlu,
    /// Floating-point loads.
    FpLoad,
    /// Stored values (the §2.1 generalization to memory storage operands;
    /// collected by `StoreValueCollector`, not part of the Table 2.1
    /// destination-register categories).
    Store,
}

impl VpCategory {
    /// The Table 2.1 destination-register categories, in its order
    /// (excludes [`VpCategory::Store`]).
    pub const ALL: [VpCategory; 4] = [
        VpCategory::IntAlu,
        VpCategory::IntLoad,
        VpCategory::FpAlu,
        VpCategory::FpLoad,
    ];

    /// Classifies a producing instruction's opcode category.
    ///
    /// Returns `None` for categories that never produce values (stores,
    /// branches, system).
    #[must_use]
    pub fn from_op_category(cat: OpCategory) -> Option<Self> {
        match cat {
            OpCategory::IntAlu | OpCategory::Jump => Some(VpCategory::IntAlu),
            OpCategory::IntLoad => Some(VpCategory::IntLoad),
            OpCategory::FpAlu => Some(VpCategory::FpAlu),
            OpCategory::FpLoad => Some(VpCategory::FpLoad),
            OpCategory::Store | OpCategory::Branch | OpCategory::System => None,
        }
    }

    /// Stable text name (used by the profile file format).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            VpCategory::IntAlu => "int-alu",
            VpCategory::IntLoad => "int-load",
            VpCategory::FpAlu => "fp-alu",
            VpCategory::FpLoad => "fp-load",
            VpCategory::Store => "store",
        }
    }

    /// Parses the text name.
    #[must_use]
    pub fn from_str_name(s: &str) -> Option<Self> {
        VpCategory::ALL
            .into_iter()
            .chain([VpCategory::Store])
            .find(|c| c.as_str() == s)
    }
}

impl fmt::Display for VpCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Accumulated prediction behaviour of one static instruction.
///
/// Counts are raw so records from different runs can be merged exactly;
/// the paper's two profile columns are the derived
/// [`InstrProfile::stride_accuracy`] and
/// [`InstrProfile::stride_efficiency_ratio`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrProfile {
    /// Category of the instruction.
    pub category: VpCategory,
    /// Dynamic executions observed.
    pub execs: u64,
    /// Executions correctly predicted by the (unbounded) stride predictor.
    pub stride_correct: u64,
    /// Stride-correct executions whose stride was non-zero.
    pub nonzero_stride_correct: u64,
    /// Executions correctly predicted by the (unbounded) last-value
    /// predictor.
    pub last_value_correct: u64,
}

impl InstrProfile {
    /// An empty record: no executions observed, nothing predicted.
    #[must_use]
    pub fn new(category: VpCategory) -> Self {
        InstrProfile {
            category,
            execs: 0,
            stride_correct: 0,
            nonzero_stride_correct: 0,
            last_value_correct: 0,
        }
    }

    /// Prediction accuracy under the stride predictor, in `[0, 1]`.
    ///
    /// This is the column the paper's classification threshold is compared
    /// against.
    #[must_use]
    pub fn stride_accuracy(&self) -> f64 {
        ratio(self.stride_correct, self.execs)
    }

    /// Prediction accuracy under the last-value predictor, in `[0, 1]`.
    #[must_use]
    pub fn last_value_accuracy(&self) -> f64 {
        ratio(self.last_value_correct, self.execs)
    }

    /// The paper's stride efficiency ratio: successful non-zero-stride
    /// predictions over all successful stride predictions, in `[0, 1]`.
    #[must_use]
    pub fn stride_efficiency_ratio(&self) -> f64 {
        ratio(self.nonzero_stride_correct, self.stride_correct)
    }

    /// The accuracy the profile promises under `directive`: the stride
    /// column for `stride`, the last-value column for `last-value`, and —
    /// for untagged instructions, where the annotation pass declined both
    /// schemes — the better of the two columns (the accuracy the best
    /// single-scheme predictor *would* have achieved). Used by the
    /// attribution layer to compute per-PC profile drift against observed
    /// replay accuracy.
    #[must_use]
    pub fn profiled_accuracy(&self, directive: vp_isa::Directive) -> f64 {
        match directive {
            vp_isa::Directive::Stride => self.stride_accuracy(),
            vp_isa::Directive::LastValue => self.last_value_accuracy(),
            vp_isa::Directive::None => self.stride_accuracy().max(self.last_value_accuracy()),
        }
    }

    /// Merges another record for the same instruction (e.g. from a
    /// different training run).
    ///
    /// # Panics
    ///
    /// Panics if the categories disagree — addresses are static, so the
    /// category can never legitimately change between runs.
    pub fn merge(&mut self, other: &InstrProfile) {
        assert_eq!(
            self.category, other.category,
            "category mismatch in profile merge"
        );
        self.execs += other.execs;
        self.stride_correct += other.stride_correct;
        self.nonzero_stride_correct += other.nonzero_stride_correct;
        self.last_value_correct += other.last_value_correct;
    }
}

/// `num / den`, or 0 when `den` is 0.
pub(crate) fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_round_trips_through_names() {
        for c in VpCategory::ALL {
            assert_eq!(VpCategory::from_str_name(c.as_str()), Some(c));
        }
        assert_eq!(VpCategory::from_str_name("bogus"), None);
    }

    #[test]
    fn jump_buckets_as_int_alu() {
        assert_eq!(
            VpCategory::from_op_category(OpCategory::Jump),
            Some(VpCategory::IntAlu)
        );
        assert_eq!(VpCategory::from_op_category(OpCategory::Store), None);
    }

    #[test]
    fn derived_ratios() {
        let p = InstrProfile {
            category: VpCategory::IntAlu,
            execs: 100,
            stride_correct: 80,
            nonzero_stride_correct: 60,
            last_value_correct: 20,
        };
        assert!((p.stride_accuracy() - 0.8).abs() < 1e-12);
        assert!((p.last_value_accuracy() - 0.2).abs() < 1e-12);
        assert!((p.stride_efficiency_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn profiled_accuracy_follows_the_directive() {
        use vp_isa::Directive;
        let p = InstrProfile {
            category: VpCategory::IntAlu,
            execs: 100,
            stride_correct: 80,
            nonzero_stride_correct: 60,
            last_value_correct: 20,
        };
        assert!((p.profiled_accuracy(Directive::Stride) - 0.8).abs() < 1e-12);
        assert!((p.profiled_accuracy(Directive::LastValue) - 0.2).abs() < 1e-12);
        // Untagged: the better single-scheme column.
        assert!((p.profiled_accuracy(Directive::None) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_record_has_zero_ratios() {
        let p = InstrProfile::new(VpCategory::FpLoad);
        assert_eq!(p.stride_accuracy(), 0.0);
        assert_eq!(p.stride_efficiency_ratio(), 0.0);
    }

    #[test]
    fn merge_sums_counts() {
        let mut a = InstrProfile {
            category: VpCategory::IntAlu,
            execs: 10,
            stride_correct: 5,
            nonzero_stride_correct: 2,
            last_value_correct: 3,
        };
        let b = InstrProfile {
            execs: 20,
            stride_correct: 15,
            ..a
        };
        a.merge(&b);
        assert_eq!(a.execs, 30);
        assert_eq!(a.stride_correct, 20);
        assert_eq!(a.nonzero_stride_correct, 4);
    }

    #[test]
    #[should_panic(expected = "category mismatch")]
    fn merge_rejects_category_change() {
        let mut a = InstrProfile::new(VpCategory::IntAlu);
        a.merge(&InstrProfile::new(VpCategory::FpAlu));
    }
}
