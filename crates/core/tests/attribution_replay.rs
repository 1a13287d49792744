//! Property tests for the attributed predictor replay: for arbitrary
//! traces, predictor configurations and shard/job counts, the per-PC
//! [`vp_predictor::AttributionTable`] must be **bit-identical** between
//! `jobs=1` and `jobs=8` (and any shard refinement in between), the
//! attributed replay must leave [`vp_predictor::PredictorStats`]
//! untouched (observation-only), and the table's totals must reconcile
//! *exactly* with the stats — every access accounted, every raw miss
//! charged to exactly one cause.
//!
//! The generators (shared in `common/mod.rs`) mix repeats, constant
//! strides and noise across all six predictor configuration families,
//! with directives varying per static instruction so the
//! directive-routed causes (`class-mismatch`, `uncovered`) are exercised
//! too.

mod common;

use common::{arb_classifier, arb_events, arb_geometry, program_with, replay_cell};
use vp_predictor::PredictorConfig;
use vp_rng::{prop, Rng};
use vp_sim::Trace;

/// One configuration from each of the six families, with an arbitrary
/// classifier and geometry.
fn config_families(rng: &mut Rng) -> Vec<PredictorConfig> {
    let [c0, c1, c2, c3, c4] = std::array::from_fn(|_| arb_classifier(rng));
    vec![
        PredictorConfig::InfiniteStride { classifier: c0 },
        PredictorConfig::InfiniteLastValue { classifier: c1 },
        PredictorConfig::TableStride {
            geometry: arb_geometry(rng),
            classifier: c2,
        },
        PredictorConfig::TableLastValue {
            geometry: arb_geometry(rng),
            classifier: c3,
        },
        PredictorConfig::TableTwoDelta {
            geometry: arb_geometry(rng),
            classifier: c4,
        },
        PredictorConfig::Hybrid {
            stride: arb_geometry(rng),
            last_value: arb_geometry(rng),
        },
    ]
}

#[test]
fn prop_attribution_is_job_count_invariant_and_reconciles() {
    prop::forall("attribution jobs=1 == jobs=8, totals reconcile", |rng| {
        let n_static = rng.gen_range(4..120u32);
        let len = rng.gen_range(50..1000usize);
        let events = arb_events(rng, n_static, len);
        let configs = config_families(rng);
        (n_static, events, configs)
    })
    .cases(12)
    .check(|(n_static, events, configs)| {
        let program = program_with(*n_static);
        let trace = Trace::from_events(events.clone());
        for config in configs {
            // Baseline: unattributed sequential replay.
            let plain = replay_cell(&trace, &program, *config, 1, 1, false).outcome;
            // jobs=1: one shard, one worker.
            let cell = replay_cell(&trace, &program, *config, 1, 1, true);
            let (seq, seq_table) = (cell.outcome, cell.attribution.expect("attributed"));
            assert_eq!(
                seq.stats,
                plain.stats,
                "{}: attribution perturbed the replay",
                config.label()
            );
            seq_table
                .reconcile(&seq.stats)
                .unwrap_or_else(|e| panic!("{}: {e}", config.label()));
            // jobs=8 over every shard refinement: bit-identical tables.
            for shards in [2usize, 3, 5, 8] {
                let cell = replay_cell(&trace, &program, *config, shards, 8, true);
                let (par, par_table) = (cell.outcome, cell.attribution.expect("attributed"));
                assert_eq!(par.stats, seq.stats, "{}", config.label());
                assert_eq!(
                    par_table,
                    seq_table,
                    "{}: table diverged at {shards} shards / 8 jobs",
                    config.label()
                );
            }
        }
    });
}

/// The attribution cause partition is exhaustive and exclusive for any
/// input: summed cause counts equal the raw miss count per PC, not just
/// in aggregate.
#[test]
fn prop_per_pc_causes_partition_the_misses() {
    prop::forall("per-PC causes partition raw misses", |rng| {
        let n_static = rng.gen_range(4..80u32);
        let len = rng.gen_range(50..600usize);
        let events = arb_events(rng, n_static, len);
        let configs = config_families(rng);
        (n_static, events, configs)
    })
    .cases(12)
    .check(|(n_static, events, configs)| {
        let program = program_with(*n_static);
        let trace = Trace::from_events(events.clone());
        for config in configs {
            let table = replay_cell(&trace, &program, *config, 1, 1, true)
                .attribution
                .expect("attributed");
            for (addr, pc) in table.entries() {
                let misses = pc.accesses - pc.raw_correct;
                let charged: u64 = pc.causes.iter().sum();
                assert_eq!(
                    charged,
                    misses,
                    "{} @{addr}: {charged} charged causes vs {misses} raw misses",
                    config.label()
                );
            }
        }
    });
}
