//! Generators and reference replays shared by the replay property suites
//! (`sharded_replay.rs`, `matrix_replay.rs`, `attribution_replay.rs`).
//!
//! The value streams mix repeats, constant strides and noise so every
//! classifier state machine (2-bit counters, directives, always-predict)
//! gets exercised through its full transition graph, and the programs'
//! directives vary per static instruction so directive-routed
//! configurations do not degenerate.

// Each suite is its own crate and uses a different subset.
#![allow(dead_code)]

use provp_core::{ReplayCellOutcome, ReplayRequest};
use vp_isa::asm::assemble;
use vp_isa::{InstrAddr, Program, Reg, RegClass};
use vp_predictor::{
    AttributionTable, ClassifierKind, PredictorConfig, PredictorStats, TableGeometry,
};
use vp_rng::Rng;
use vp_sim::{Trace, TraceEvent};

/// A program of `n` value producers whose directives cycle
/// none → stride → last-value per static instruction, plus a `halt`.
pub fn program_with(n: u32) -> Program {
    let mut src = String::new();
    for i in 0..n {
        let suffix = match i % 3 {
            0 => "",
            1 => ".st",
            _ => ".lv",
        };
        src.push_str(&format!("addi{suffix} r1, r1, 1\n"));
    }
    src.push_str("halt\n");
    assemble(&src).expect("synthetic program assembles")
}

/// `len` destination-writing events over `n_static` static addresses,
/// each value a repeat, a constant-stride step or fresh noise.
pub fn arb_events(rng: &mut Rng, n_static: u32, len: usize) -> Vec<TraceEvent> {
    let mut last = vec![0u64; n_static as usize];
    (0..len)
        .map(|_| {
            let a = rng.gen_range(0..n_static);
            let value = match rng.gen_range(0..4u32) {
                0 => last[a as usize],
                1 | 2 => last[a as usize].wrapping_add(8),
                _ => rng.gen_u64(),
            };
            last[a as usize] = value;
            TraceEvent {
                addr: InstrAddr::new(a),
                dest: Some((RegClass::Int, Reg::new(rng.gen_range(0..32u8)), value)),
                mem: None,
                stored: None,
                taken: None,
                next_pc: InstrAddr::new((a + 1) % n_static.max(1)),
            }
        })
        .collect()
}

pub fn arb_geometry(rng: &mut Rng) -> TableGeometry {
    let ways = 1usize << rng.gen_range(0..3u32); // 1, 2 or 4 ways
    let sets = rng.gen_range(2..33usize); // incl. non-power-of-two set counts
    TableGeometry::new(sets * ways, ways)
}

pub fn arb_classifier(rng: &mut Rng) -> ClassifierKind {
    match rng.gen_range(0..3u32) {
        0 => ClassifierKind::two_bit_counter(),
        1 => ClassifierKind::Directive,
        _ => ClassifierKind::Always,
    }
}

/// One arbitrary configuration from any of the six families.
pub fn arb_config(rng: &mut Rng) -> PredictorConfig {
    let classifier = arb_classifier(rng);
    match rng.gen_range(0..6u32) {
        0 => PredictorConfig::InfiniteStride { classifier },
        1 => PredictorConfig::InfiniteLastValue { classifier },
        2 => PredictorConfig::TableStride {
            geometry: arb_geometry(rng),
            classifier,
        },
        3 => PredictorConfig::TableLastValue {
            geometry: arb_geometry(rng),
            classifier,
        },
        4 => PredictorConfig::TableTwoDelta {
            geometry: arb_geometry(rng),
            classifier,
        },
        _ => PredictorConfig::Hybrid {
            stride: arb_geometry(rng),
            last_value: arb_geometry(rng),
        },
    }
}

/// One replay of a single cell through the builder.
pub fn replay_cell(
    trace: &Trace,
    program: &Program,
    config: PredictorConfig,
    shards: usize,
    jobs: usize,
    attribution: bool,
) -> ReplayCellOutcome {
    ReplayRequest::batch(trace)
        .single(program, config)
        .attribution(attribution)
        .shards(shards)
        .jobs(jobs)
        .run()
        .expect("replay")
        .into_single()
}

/// The independent reference: `trace`'s value events fed one at a time
/// through a fresh predictor, each access observed by an attribution
/// table. No blocks, no shards, no dedup — what any replay of the cell
/// must reproduce.
pub fn reference_replay(
    trace: &Trace,
    program: &Program,
    config: PredictorConfig,
) -> (PredictorStats, usize, AttributionTable) {
    let mut predictor = config.build();
    let mut table = AttributionTable::new();
    for (addr, value) in trace.columns().value_events() {
        let directive = program.text()[addr.index() as usize].directive;
        let access = predictor.access(addr, directive, value);
        table.observe(addr, directive, &access, value);
    }
    (*predictor.stats(), predictor.occupancy(), table)
}
