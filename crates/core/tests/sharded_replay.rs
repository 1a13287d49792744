//! Property tests for the PC-sharded parallel predictor replay: for
//! arbitrary traces, predictor configurations, shard counts and job
//! counts, the sharded replay's merged [`vp_predictor::PredictorStats`]
//! must be **bit-identical** to a sequential replay's.
//!
//! The sequential replay itself must equal the independent event-at-a-
//! time reference ([`common::reference_replay`]). Generators live in
//! `common/mod.rs`.

mod common;

use common::{arb_config, arb_events, program_with, reference_replay, replay_cell};
use vp_rng::prop;
use vp_sim::Trace;

#[test]
fn prop_sharded_replay_is_bit_identical_to_sequential() {
    prop::forall("sharded replay == sequential replay", |rng| {
        let n_static = rng.gen_range(4..160u32);
        let len = rng.gen_range(50..1500usize);
        let events = arb_events(rng, n_static, len);
        let config = arb_config(rng);
        let shards = rng.gen_range(2..9usize);
        let jobs = rng.gen_range(1..5usize);
        (n_static, events, config, shards, jobs)
    })
    .cases(48)
    .check(|(n_static, events, config, shards, jobs)| {
        let program = program_with(*n_static);
        let trace = Trace::from_events(events.clone());
        let seq = replay_cell(&trace, &program, *config, 1, 1, false).outcome;
        let par = replay_cell(&trace, &program, *config, *shards, *jobs, false).outcome;
        let (stats, occupancy, _) = reference_replay(&trace, &program, *config);
        assert_eq!(seq.stats, stats, "{} != reference", config.label());
        assert_eq!(seq.occupancy, occupancy, "{} != reference", config.label());
        assert_eq!(
            par.stats,
            seq.stats,
            "{} diverged at {shards} shards / {jobs} jobs",
            config.label()
        );
        assert_eq!(par.occupancy, seq.occupancy, "{}", config.label());
        assert_eq!(par.shards, *shards);
    });
}

/// Merging per-shard statistics is order-independent: replaying the same
/// trace at different shard counts (different partition refinements of
/// the same state-partition relation) yields the same totals.
#[test]
fn prop_merge_is_shard_count_invariant() {
    prop::forall("merge totals invariant across shard counts", |rng| {
        let n_static = rng.gen_range(4..100u32);
        let len = rng.gen_range(50..800usize);
        let events = arb_events(rng, n_static, len);
        let config = arb_config(rng);
        (n_static, events, config)
    })
    .cases(24)
    .check(|(n_static, events, config)| {
        let program = program_with(*n_static);
        let trace = Trace::from_events(events.clone());
        let outcomes: Vec<_> = [1usize, 2, 3, 5, 8]
            .iter()
            .map(|&shards| replay_cell(&trace, &program, *config, shards, 2, false).outcome)
            .collect();
        for pair in outcomes.windows(2) {
            assert_eq!(pair[0].stats, pair[1].stats, "{}", config.label());
            assert_eq!(pair[0].occupancy, pair[1].occupancy, "{}", config.label());
        }
    });
}
