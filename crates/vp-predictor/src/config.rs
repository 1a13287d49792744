//! Declarative predictor configurations.
//!
//! Experiment code describes a predictor as data ([`PredictorConfig`]) and
//! builds it with [`PredictorConfig::build`]; this keeps sweep harnesses
//! (threshold sweeps, geometry ablations) free of generics.

use vp_isa::InstrAddr;

use crate::entry::TwoDeltaStrideEntry;
use crate::{
    ClassifierKind, HybridPredictor, InfinitePredictor, LastValueEntry, StrideEntry, TableGeometry,
    TablePredictor, ValuePredictor,
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

    /// The modulus of this configuration's state partition, or `None`
    /// when every static address has fully independent state. Two static
    /// addresses can share predictor state (table set, LRU stamps,
    /// classifier cells) **only if** they are congruent modulo this
    /// value, so a replay sharded by [`shard_key`]`(modulus, addr) % n`
    /// is bit-identical to a sequential one for any shard count `n` (see
    /// `PredictorStats::merge`).
    ///
    /// - Infinite predictors keep fully independent per-address state:
    ///   `None`, the key is the address itself.
    /// - Finite tables interact exactly within a set (tags, LRU stamps
    ///   and conflicts are all per-set): the set count, the key is the
    ///   set index.
    /// - The hybrid's two tables may have different set counts; addresses
    ///   interact when they share a set in *either* table, and the
    ///   transitive closure of "equal mod `sets_stride`" and "equal mod
    ///   `sets_lv`" is "equal mod gcd": `gcd(sets_stride, sets_lv)`.
    #[must_use]
    pub fn shard_modulus(&self) -> Option<u64> {
        match *self {
            PredictorConfig::InfiniteStride { .. } | PredictorConfig::InfiniteLastValue { .. } => {
                None
            }
            PredictorConfig::TableStride { geometry, .. }
            | PredictorConfig::TableLastValue { geometry, .. }
            | PredictorConfig::TableTwoDelta { geometry, .. } => Some(geometry.sets() as u64),
            PredictorConfig::Hybrid { stride, last_value } => {
                Some(gcd(stride.sets() as u64, last_value.sets() as u64))
            }
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

    /// The coarsest state partition compatible with *every* one of
    /// `configs`: the gcd of the finite configurations' shard moduli.
    ///
    /// `g` divides each finite configuration's modulus `m`, so two
    /// addresses sharing state there (`a ≡ b mod m`) also share a shard
    /// (`a ≡ b mod g`); infinite configurations keep purely per-address
    /// state, which any function of the address respects. `None` (all
    /// infinite) shards by raw address.
    #[must_use]
    pub fn joint_shard_modulus<'a>(
        configs: impl IntoIterator<Item = &'a PredictorConfig>,
    ) -> Option<u64> {
        configs
            .into_iter()
            .filter_map(PredictorConfig::shard_modulus)
            .reduce(gcd)
    }
}

/// The state-partition key of `addr` under a shard modulus (from
/// [`PredictorConfig::shard_modulus`] or
/// [`PredictorConfig::joint_shard_modulus`]): `addr % modulus`, or the
/// raw address for `None`. Sharded replays route an event to shard
/// `shard_key(modulus, addr) % shards`.
#[must_use]
pub fn shard_key(modulus: Option<u64>, addr: InstrAddr) -> u64 {
    let a = u64::from(addr.index());
    modulus.map_or(a, |m| a % m)
}

/// Greatest common divisor (Euclid); both table set counts are positive.
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.max(1)
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
    fn shard_keys_respect_state_partitions() {
        let key = |c: &PredictorConfig, a: u32| shard_key(c.shard_modulus(), InstrAddr::new(a));
        // Infinite: per-address state, key is the address.
        let inf = PredictorConfig::InfiniteStride {
            classifier: ClassifierKind::two_bit_counter(),
        };
        assert_eq!(key(&inf, 1234), 1234);

        // Finite table: key is the set index (modulo sets).
        let table = PredictorConfig::spec_table_stride_fsm();
        assert_eq!(key(&table, 3), 3);
        assert_eq!(key(&table, 256 + 3), 3);

        // Hybrid: key is addr mod gcd of the two set counts.
        let hybrid = PredictorConfig::Hybrid {
            stride: TableGeometry::new(64, 2),     // 32 sets
            last_value: TableGeometry::new(96, 2), // 48 sets
        };
        // gcd(32, 48) = 16: addresses equal mod 16 share a key.
        assert_eq!(key(&hybrid, 5), key(&hybrid, 5 + 16));
        assert_ne!(key(&hybrid, 5), key(&hybrid, 6));
        // Soundness: equal key is implied by sharing a set in either table.
        for (a, b) in [(7u32, 7 + 32), (9, 9 + 48), (11, 11 + 96)] {
            assert_eq!(key(&hybrid, a), key(&hybrid, b));
        }

        // Joint modulus: gcd over the finite configurations only.
        assert_eq!(
            PredictorConfig::joint_shard_modulus(&[table, inf, hybrid]),
            Some(16)
        );
        assert_eq!(PredictorConfig::joint_shard_modulus(&[inf]), None);
        assert_eq!(shard_key(Some(16), InstrAddr::new(37)), 5);
        assert_eq!(shard_key(None, InstrAddr::new(37)), 37);
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
