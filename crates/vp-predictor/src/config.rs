//! Declarative predictor configurations.
//!
//! Experiment code describes a predictor as data ([`PredictorConfig`]) and
//! builds it with [`PredictorConfig::build`]; this keeps sweep harnesses
//! (threshold sweeps, geometry ablations) free of generics.

use vp_isa::Directive;

use crate::entry::TwoDeltaStrideEntry;
use crate::hybrid::HybridState;
use crate::infinite::InfiniteState;
use crate::table_predictor::TableState;
use crate::{
    ClassifierKind, HybridPredictor, InfinitePredictor, LastValueEntry, StateWalk, StrideEntry,
    TableGeometry, TablePredictor, ValuePredictor,
};

/// A predictor + classifier configuration, as data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PredictorConfig {
    /// Unbounded stride predictor (§5.1's idealisation).
    InfiniteStride {
        /// Classification mechanism.
        classifier: ClassifierKind,
    },
    /// Unbounded last-value predictor.
    InfiniteLastValue {
        /// Classification mechanism.
        classifier: ClassifierKind,
    },
    /// Finite set-associative stride predictor (§5.2's machine).
    TableStride {
        /// Table geometry.
        geometry: TableGeometry,
        /// Classification mechanism.
        classifier: ClassifierKind,
    },
    /// Finite set-associative last-value predictor.
    TableLastValue {
        /// Table geometry.
        geometry: TableGeometry,
        /// Classification mechanism.
        classifier: ClassifierKind,
    },
    /// Finite set-associative two-delta stride predictor (an extension
    /// ablation; not part of the paper's evaluation).
    TableTwoDelta {
        /// Table geometry.
        geometry: TableGeometry,
        /// Classification mechanism.
        classifier: ClassifierKind,
    },
    /// Directive-routed stride + last-value hybrid (§3.1 / conclusions).
    Hybrid {
        /// Geometry of the stride-side table.
        stride: TableGeometry,
        /// Geometry of the last-value-side table.
        last_value: TableGeometry,
    },
}

impl PredictorConfig {
    /// The paper's §5.2 hardware baseline: 512-entry 2-way stride table with
    /// 2-bit saturating counters.
    #[must_use]
    pub fn spec_table_stride_fsm() -> Self {
        PredictorConfig::TableStride {
            geometry: TableGeometry::SPEC_512_2WAY,
            classifier: ClassifierKind::two_bit_counter(),
        }
    }

    /// The paper's §5.2 profile-guided configuration: the same 512-entry
    /// 2-way stride table, admission and use controlled by directives.
    #[must_use]
    pub fn spec_table_stride_profile() -> Self {
        PredictorConfig::TableStride {
            geometry: TableGeometry::SPEC_512_2WAY,
            classifier: ClassifierKind::Directive,
        }
    }

    /// Instantiates the configured predictor.
    #[must_use]
    pub fn build(&self) -> Box<dyn ValuePredictor> {
        match *self {
            PredictorConfig::InfiniteStride { classifier } => {
                Box::new(InfinitePredictor::<StrideEntry>::new(classifier))
            }
            PredictorConfig::InfiniteLastValue { classifier } => {
                Box::new(InfinitePredictor::<LastValueEntry>::new(classifier))
            }
            PredictorConfig::TableStride {
                geometry,
                classifier,
            } => Box::new(TablePredictor::<StrideEntry>::new(geometry, classifier)),
            PredictorConfig::TableLastValue {
                geometry,
                classifier,
            } => Box::new(TablePredictor::<LastValueEntry>::new(geometry, classifier)),
            PredictorConfig::TableTwoDelta {
                geometry,
                classifier,
            } => Box::new(TablePredictor::<TwoDeltaStrideEntry>::new(
                geometry, classifier,
            )),
            PredictorConfig::Hybrid { stride, last_value } => {
                Box::new(HybridPredictor::new(stride, last_value))
            }
        }
    }

    /// This configuration's predictor state alone, without its
    /// statistics, for a fused sweep to walk
    /// ([`StateWalk::walk`]).
    #[must_use]
    pub fn walker(&self) -> Box<dyn StateWalk> {
        match *self {
            PredictorConfig::InfiniteStride { classifier } => {
                Box::new(InfiniteState::<StrideEntry>::new(classifier))
            }
            PredictorConfig::InfiniteLastValue { classifier } => {
                Box::new(InfiniteState::<LastValueEntry>::new(classifier))
            }
            PredictorConfig::TableStride {
                geometry,
                classifier,
            } => Box::new(TableState::<StrideEntry>::new(geometry, classifier)),
            PredictorConfig::TableLastValue {
                geometry,
                classifier,
            } => Box::new(TableState::<LastValueEntry>::new(geometry, classifier)),
            PredictorConfig::TableTwoDelta {
                geometry,
                classifier,
            } => Box::new(TableState::<TwoDeltaStrideEntry>::new(geometry, classifier)),
            PredictorConfig::Hybrid { stride, last_value } => {
                Box::new(HybridState::new(stride, last_value))
            }
        }
    }

    /// The state a walk of this configuration evolves, as a key, and
    /// whether that walk reads directives. Two configurations with equal
    /// keys, walked over the same events (and, when the walk reads them,
    /// the same directives), evolve identical state and emit identical
    /// codes; they differ only in [`PredictorConfig::classifier`].
    ///
    /// Infinite tables admit every producer, and so do finite tables
    /// under [`ClassifierKind::SatCounter`] or [`ClassifierKind::Always`]:
    /// their key keeps the structure and the counter template
    /// ([`ClassifierKind::counter_template`]) and drops the classifier. A
    /// [`ClassifierKind::Directive`] table admits by directive and the
    /// hybrid routes by it, so both are their own key and read
    /// directives.
    #[must_use]
    pub fn shared_state(&self) -> (PredictorConfig, bool) {
        let counted = |classifier: ClassifierKind| ClassifierKind::SatCounter {
            template: classifier.counter_template(),
        };
        let mut key = *self;
        match &mut key {
            PredictorConfig::InfiniteStride { classifier }
            | PredictorConfig::InfiniteLastValue { classifier } => {
                *classifier = counted(*classifier)
            }
            PredictorConfig::TableStride { classifier, .. }
            | PredictorConfig::TableLastValue { classifier, .. }
            | PredictorConfig::TableTwoDelta { classifier, .. } => {
                if !classifier.admits(Directive::None) {
                    return (key, true);
                }
                *classifier = counted(*classifier);
            }
            PredictorConfig::Hybrid { .. } => return (key, true),
        }
        (key, false)
    }

    /// The classifier that decides which predictions are used: the
    /// configured one, or [`ClassifierKind::Directive`] for the hybrid,
    /// whose tables admit and trust only tagged instructions.
    #[must_use]
    pub fn classifier(&self) -> ClassifierKind {
        match *self {
            PredictorConfig::InfiniteStride { classifier }
            | PredictorConfig::InfiniteLastValue { classifier }
            | PredictorConfig::TableStride { classifier, .. }
            | PredictorConfig::TableLastValue { classifier, .. }
            | PredictorConfig::TableTwoDelta { classifier, .. } => classifier,
            PredictorConfig::Hybrid { .. } => ClassifierKind::Directive,
        }
    }

    /// A short human-readable label for experiment output.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            PredictorConfig::InfiniteStride { classifier } => {
                format!("infinite-stride/{}", classifier_label(*classifier))
            }
            PredictorConfig::InfiniteLastValue { classifier } => {
                format!("infinite-lv/{}", classifier_label(*classifier))
            }
            PredictorConfig::TableStride {
                geometry,
                classifier,
            } => {
                format!("stride[{geometry}]/{}", classifier_label(*classifier))
            }
            PredictorConfig::TableLastValue {
                geometry,
                classifier,
            } => {
                format!("lv[{geometry}]/{}", classifier_label(*classifier))
            }
            PredictorConfig::TableTwoDelta {
                geometry,
                classifier,
            } => {
                format!("2delta[{geometry}]/{}", classifier_label(*classifier))
            }
            PredictorConfig::Hybrid { stride, last_value } => {
                format!("hybrid[st {stride} + lv {last_value}]")
            }
        }
    }
}

fn classifier_label(c: ClassifierKind) -> &'static str {
    match c {
        ClassifierKind::SatCounter { .. } => "fsm",
        ClassifierKind::Directive => "profile",
        ClassifierKind::Always => "always",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_isa::{Directive, InstrAddr};

    #[test]
    fn every_config_builds_and_accepts_accesses() {
        let configs = [
            PredictorConfig::InfiniteStride {
                classifier: ClassifierKind::two_bit_counter(),
            },
            PredictorConfig::InfiniteLastValue {
                classifier: ClassifierKind::Always,
            },
            PredictorConfig::spec_table_stride_fsm(),
            PredictorConfig::spec_table_stride_profile(),
            PredictorConfig::TableLastValue {
                geometry: TableGeometry::new(64, 4),
                classifier: ClassifierKind::Directive,
            },
            PredictorConfig::Hybrid {
                stride: TableGeometry::new(64, 2),
                last_value: TableGeometry::new(128, 2),
            },
        ];
        for cfg in configs {
            let mut p = cfg.build();
            for i in 0..10u64 {
                p.access(InstrAddr::new(0), Directive::Stride, i);
            }
            assert_eq!(p.stats().accesses, 10, "{}", cfg.label());
            assert!(!cfg.label().is_empty());
        }
    }

    #[test]
    fn spec_configs_match_paper_geometry() {
        if let PredictorConfig::TableStride { geometry, .. } =
            PredictorConfig::spec_table_stride_fsm()
        {
            assert_eq!(geometry, TableGeometry::SPEC_512_2WAY);
        } else {
            panic!("wrong variant");
        }
    }
}
