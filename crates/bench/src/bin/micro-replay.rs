//! Micro-benchmarks for the predictor replay path: retirement replay vs
//! the columnar value-event scan, the 1/2/4/8-shard parallel merge, and
//! the fused sweep matrix vs a per-cell replay loop.
//!
//! ```text
//! cargo run --release -p provp-bench --bin micro-replay -- \
//!     [workload] [--jobs=N] [--trace-cache=DIR]
//! ```
//!
//! Captures one reference-input trace (reusing `--trace-cache=DIR`
//! across runs when given), then replays it repeatedly through the §5.2
//! hardware-baseline predictor three ways:
//!
//! - `columnar-replay`: the columnar trace through the full retirement
//!   tracer glue ([`vp_sim::Trace::replay`] into a
//!   [`provp_core::PredictorTracer`]),
//! - `columnar-1shard`: the sequential value-event scan of a
//!   [`provp_core::ReplayRequest`],
//! - `columnar-Nshard`: the PC-sharded parallel scan at 2/4/8 shards.
//!
//! A second group compares sweeping a six-configuration matrix the old
//! way — one [`provp_core::ReplayRequest`] trace pass per cell — with
//! the fused kernel that decodes each value event once and updates
//! every cell's predictor bank in blocks, sequentially, PC-sharded,
//! and in bounded-memory streaming mode (`fused-stream`, which
//! re-simulates the program instead of touching the resident trace).
//!
//! Every variant's [`vp_predictor::PredictorStats`] are asserted equal
//! before timing starts — the bench doubles as an end-to-end check that
//! sharding and matrix fusion are bit-identical to the retirement
//! replay and to a sequential per-cell replay.

use std::path::PathBuf;
use std::sync::Arc;

use provp_bench::args;
use provp_bench::micro::{black_box, Group};
use provp_core::{PredictorTracer, ReplayRequest, SweepPlan, TraceStore};
use vp_obs::obs_error;
use vp_predictor::{ClassifierKind, PredictorConfig, TableGeometry};
use vp_sim::{RunLimits, Trace};
use vp_workloads::{InputSet, Workload, WorkloadKind};

/// The sweep-matrix cells of the comparison group: the §5.2 baseline
/// plus the scheme/capacity ablation configurations, all sharing the
/// workload's own directive annotation.
fn sweep_configs() -> Vec<PredictorConfig> {
    let fsm = ClassifierKind::two_bit_counter();
    let geometry = TableGeometry::SPEC_512_2WAY;
    vec![
        PredictorConfig::spec_table_stride_fsm(),
        PredictorConfig::TableLastValue {
            geometry,
            classifier: fsm,
        },
        PredictorConfig::TableTwoDelta {
            geometry,
            classifier: fsm,
        },
        PredictorConfig::InfiniteStride { classifier: fsm },
        PredictorConfig::InfiniteLastValue { classifier: fsm },
        PredictorConfig::Hybrid {
            stride: geometry,
            last_value: geometry,
        },
    ]
}

struct Args {
    kind: WorkloadKind,
    jobs: usize,
    trace_cache: Option<PathBuf>,
}

fn parse_args(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        kind: WorkloadKind::Compress,
        jobs: provp_core::exec::default_jobs(),
        trace_cache: None,
    };
    for arg in args::normalize(raw, &[])? {
        if let Some(n) = arg.strip_prefix("--jobs=") {
            parsed.jobs = match n {
                "auto" => provp_core::exec::default_jobs(),
                n => n
                    .parse()
                    .ok()
                    .filter(|&j| j >= 1)
                    .ok_or_else(|| format!("bad --jobs value `{n}` (want >= 1 or auto)"))?,
            };
        } else if let Some(dir) = arg.strip_prefix("--trace-cache=") {
            if dir.is_empty() {
                return Err("empty --trace-cache path".to_owned());
            }
            parsed.trace_cache = Some(PathBuf::from(dir));
        } else if arg.starts_with("--") {
            return Err(format!(
                "unknown argument `{arg}` (try [workload] --jobs=, --trace-cache=)"
            ));
        } else {
            parsed.kind =
                WorkloadKind::from_name(&arg).ok_or_else(|| format!("unknown workload `{arg}`"))?;
        }
    }
    Ok(parsed)
}

fn main() {
    let parsed = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            obs_error!("{msg}");
            std::process::exit(2);
        }
    };
    let Args {
        kind,
        jobs,
        trace_cache,
    } = parsed;
    let program = Workload::new(kind).program(&InputSet::reference());
    let trace: Arc<Trace> = match &trace_cache {
        Some(dir) => TraceStore::new()
            .with_spill_dir(dir.clone())
            .get(kind, InputSet::reference(), RunLimits::default())
            .expect("capture"),
        None => Arc::new(Trace::capture(&program, RunLimits::default()).expect("capture")),
    };
    let config = PredictorConfig::spec_table_stride_fsm();
    println!(
        "micro-replay: {kind}, {} events ({} with a destination value), {jobs} jobs",
        trace.len(),
        trace.columns().dest_count()
    );

    let single = |shards: usize, jobs: usize| {
        ReplayRequest::batch(&trace)
            .single(&program, config)
            .shards(shards)
            .jobs(jobs)
            .run()
            .expect("replay")
            .into_single()
            .outcome
    };

    let retirement_replay = || {
        let mut tracer = PredictorTracer::new(config.build());
        trace
            .replay(&program, &mut tracer)
            .expect("columnar replay");
        *tracer.stats()
    };

    // Cross-check first: every variant must produce identical statistics.
    let baseline = retirement_replay();
    for shards in [1usize, 2, 4, 8] {
        let out = single(shards, jobs);
        assert_eq!(
            out.stats, baseline,
            "{shards}-shard replay diverged from the retirement replay"
        );
    }

    let mut group = Group::new("replay").samples(10);
    group.bench("columnar-replay", || black_box(retirement_replay().hits));
    group.bench("columnar-1shard", || black_box(single(1, 1).stats.hits));
    for shards in [2usize, 4, 8] {
        group.bench(&format!("columnar-{shards}shard"), || {
            black_box(single(shards, jobs).stats.hits)
        });
    }

    // The fused-matrix comparison: one trace pass for all six cells vs
    // one pass per cell. The equality assertion runs before timing.
    let configs = sweep_configs();
    let mut plan = SweepPlan::new();
    let table = plan.add_directives(&program);
    for &c in &configs {
        plan.add_cell(c, table);
    }
    let cell_of = |c: &PredictorConfig| {
        ReplayRequest::batch(&trace)
            .single(&program, *c)
            .run()
            .expect("replay")
            .into_single()
            .outcome
            .stats
    };
    let fused_at = |shards: usize, jobs: usize| {
        ReplayRequest::batch(&trace)
            .plan(plan.clone())
            .shards(shards)
            .jobs(jobs)
            .run()
            .expect("matrix")
            .outcomes()
    };
    let streamed_at = |shards: usize| {
        ReplayRequest::stream(&program, RunLimits::default())
            .plan(plan.clone())
            .shards(shards)
            .run()
            .expect("stream")
            .outcomes()
    };
    let per_cell: Vec<_> = configs.iter().map(cell_of).collect();
    for shards in [1usize, 4, 8] {
        let fused = fused_at(shards, jobs);
        for (cell, (f, p)) in fused.iter().zip(&per_cell).enumerate() {
            assert_eq!(
                f.stats, *p,
                "fused cell {cell} diverged from per-cell replay at {shards} shards"
            );
        }
        let streamed = streamed_at(shards);
        for (cell, (s, p)) in streamed.iter().zip(&per_cell).enumerate() {
            assert_eq!(
                s.stats, *p,
                "streamed cell {cell} diverged from per-cell replay at {shards} shards"
            );
        }
    }
    println!(
        "sweep matrix: {} cells, one fused trace pass vs {} per-cell passes",
        plan.cells().len(),
        configs.len()
    );

    let mut group = Group::new("sweep").samples(10);
    group.bench("per-cell", || {
        black_box(configs.iter().map(|c| cell_of(c).hits).sum::<u64>())
    });
    group.bench("fused-1shard", || {
        black_box(fused_at(1, 1).iter().map(|o| o.stats.hits).sum::<u64>())
    });
    for shards in [4usize, 8] {
        group.bench(&format!("fused-{shards}shard"), || {
            black_box(
                fused_at(shards, jobs)
                    .iter()
                    .map(|o| o.stats.hits)
                    .sum::<u64>(),
            )
        });
    }
    // Streaming pays a fresh simulation per pass but holds no trace:
    // this is the "trace larger than RAM" configuration, timed against
    // the batch kernel on the same plan.
    group.bench(&format!("fused-stream-{jobs}shard"), || {
        black_box(
            streamed_at(jobs.max(2))
                .iter()
                .map(|o| o.stats.hits)
                .sum::<u64>(),
        )
    });
}
