//! Classification mechanisms: who decides whether a prediction is used.

use crate::SatCounter;
use vp_isa::Directive;

/// The classification mechanism attached to a predictor.
///
/// The paper compares two of these head-to-head:
///
/// - [`ClassifierKind::SatCounter`] — the prior art: a saturating counter
///   per table entry, trained at run time (§2.2);
/// - [`ClassifierKind::Directive`] — the paper's contribution: the decision
///   was made offline from the profile image and is carried in the opcode,
///   so the hardware needs no counters at all (§3.2).
///
/// [`ClassifierKind::Always`] (no classification) is the unclassified
/// baseline used by ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassifierKind {
    /// Per-entry saturating counters; `template` sets bits/threshold/reset
    /// state for newly allocated entries.
    SatCounter {
        /// Counter configuration cloned into each new table entry.
        template: SatCounter,
    },
    /// The opcode directive decides: tagged instructions are admitted and
    /// always trusted; untagged instructions are never allocated.
    Directive,
    /// Every table hit is trusted; every value producer is admitted.
    Always,
}

impl ClassifierKind {
    /// The conventional 2-bit counter configuration.
    #[must_use]
    pub fn two_bit_counter() -> Self {
        ClassifierKind::SatCounter {
            template: SatCounter::two_bit(),
        }
    }

    /// The counter cloned into each new table entry: the
    /// [`ClassifierKind::SatCounter`] template, or the 2-bit counter that
    /// the other classifiers keep (and never read).
    #[must_use]
    pub fn counter_template(self) -> SatCounter {
        match self {
            ClassifierKind::SatCounter { template } => template,
            ClassifierKind::Directive | ClassifierKind::Always => SatCounter::two_bit(),
        }
    }

    /// Whether an instruction carrying `directive` may be *allocated* into
    /// the prediction table at all.
    ///
    /// This is the resource-utilisation lever of the paper's Section 5.2:
    /// directive classification admits only tagged instructions, while the
    /// hardware schemes must admit everything.
    #[must_use]
    pub fn admits(self, directive: Directive) -> bool {
        match self {
            ClassifierKind::SatCounter { .. } | ClassifierKind::Always => true,
            ClassifierKind::Directive => directive.is_predictable(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directive_classifier_admits_only_tagged() {
        let c = ClassifierKind::Directive;
        assert!(!c.admits(Directive::None));
        assert!(c.admits(Directive::Stride));
        assert!(c.admits(Directive::LastValue));
    }

    #[test]
    fn hardware_classifiers_admit_everything() {
        for c in [ClassifierKind::two_bit_counter(), ClassifierKind::Always] {
            for d in Directive::ALL {
                assert!(c.admits(d));
            }
        }
    }
}
