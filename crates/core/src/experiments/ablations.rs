//! Ablation studies beyond the paper's evaluation (DESIGN.md §6).
//!
//! The paper fixes several design parameters (512-entry 2-way table,
//! 1-cycle penalty, n = 5 training runs, one shared table). These runners
//! vary them to show *why* the paper's conclusions hold:
//!
//! - [`geometry`] — table-size sweep: profile-guided admission matters
//!   exactly when the table is under pressure;
//! - [`penalty`] — misprediction-penalty sweep: classification quality
//!   matters more as mispredictions get more expensive;
//! - [`hybrid_split`] — how to divide one entry budget between a stride
//!   side and a last-value side (§3.1, observation 4);
//! - [`train_runs`] — how many training inputs the §4 stability result
//!   needs.

use vp_ilp::{BranchConfig, IlpConfig};
use vp_predictor::{ClassifierKind, PredictorConfig, PredictorStats, SatCounter, TableGeometry};
use vp_profile::AlignedVectors;
use vp_stats::metrics;
use vp_stats::table::{percent, signed_percent};
use vp_stats::{DecileHistogram, TextTable};
use vp_workloads::WorkloadKind;

use crate::Suite;

/// One row of the geometry sweep.
#[derive(Debug, Clone)]
pub struct GeometryRow {
    /// Table geometry under test.
    pub geometry: TableGeometry,
    /// Hardware-classified statistics.
    pub fsm: PredictorStats,
    /// Profile-classified statistics (threshold 90%).
    pub profile: PredictorStats,
}

/// Sweeps prediction-table sizes for one workload at fixed associativity,
/// comparing hardware and profile classification. The whole sweep (every
/// geometry × both classifiers) replays as one fused matrix pass over the
/// reference trace.
pub fn geometry(suite: &Suite, kind: WorkloadKind, entries: &[usize]) -> Vec<GeometryRow> {
    let geometries: Vec<TableGeometry> = entries
        .iter()
        .map(|&n| TableGeometry::new(n, 2.min(n)))
        .collect();
    let mut cells = Vec::with_capacity(2 * geometries.len());
    for &geometry in &geometries {
        cells.push((
            PredictorConfig::TableStride {
                geometry,
                classifier: ClassifierKind::two_bit_counter(),
            },
            None,
        ));
        cells.push((
            PredictorConfig::TableStride {
                geometry,
                classifier: ClassifierKind::Directive,
            },
            Some(0.9),
        ));
    }
    let grid = suite.predictor_stats_matrix(kind, &cells);
    geometries
        .iter()
        .zip(grid.chunks_exact(2))
        .map(|(&geometry, pair)| GeometryRow {
            geometry,
            fsm: pair[0],
            profile: pair[1],
        })
        .collect()
}

/// Renders the geometry sweep.
#[must_use]
pub fn render_geometry(kind: WorkloadKind, rows: &[GeometryRow]) -> String {
    let mut t = TextTable::new([
        "table",
        "FSM correct",
        "FSM wrong",
        "prof correct",
        "prof wrong",
        "Δcorrect",
    ]);
    for r in rows {
        let delta = if r.fsm.speculated_correct == 0 {
            0.0
        } else {
            100.0 * (r.profile.speculated_correct as f64 / r.fsm.speculated_correct as f64 - 1.0)
        };
        t.row([
            r.geometry.to_string(),
            r.fsm.speculated_correct.to_string(),
            r.fsm.speculated_incorrect().to_string(),
            r.profile.speculated_correct.to_string(),
            r.profile.speculated_incorrect().to_string(),
            signed_percent(delta),
        ]);
    }
    format!("Ablation — table geometry sweep on {kind} (profile threshold 90%)\n{t}")
}

/// One row of the penalty sweep: ILP increase per penalty value.
#[derive(Debug, Clone)]
pub struct PenaltyRow {
    /// Misprediction penalty in cycles.
    pub penalty: u64,
    /// ILP increase of VP + saturating counters over no-VP, %.
    pub fsm_increase: f64,
    /// ILP increase of VP + profiling (threshold 90%) over no-VP, %.
    pub profile_increase: f64,
}

/// Sweeps the value-misprediction penalty for one workload: every
/// machine runs in one ILP lane pass over the reference trace.
pub fn penalty(suite: &Suite, kind: WorkloadKind, penalties: &[u64]) -> Vec<PenaltyRow> {
    let mut machines = vec![(IlpConfig::paper_no_vp(), None)];
    for &p in penalties {
        machines.push((IlpConfig::paper_vp_fsm().with_penalty(p), None));
        machines.push((IlpConfig::paper_vp_profile().with_penalty(p), Some(0.9)));
    }
    let results = suite.ilp_machines(kind, &machines);
    let base = &results[0];
    penalties
        .iter()
        .zip(results[1..].chunks_exact(2))
        .map(|(&p, pair)| PenaltyRow {
            penalty: p,
            fsm_increase: pair[0].ilp_increase_over(base),
            profile_increase: pair[1].ilp_increase_over(base),
        })
        .collect()
}

/// Renders the penalty sweep.
#[must_use]
pub fn render_penalty(kind: WorkloadKind, rows: &[PenaltyRow]) -> String {
    let mut t = TextTable::new(["penalty", "VP+SC", "VP+Prof 90%"]);
    for r in rows {
        t.row([
            format!("{} cycles", r.penalty),
            signed_percent(r.fsm_increase),
            signed_percent(r.profile_increase),
        ]);
    }
    format!("Ablation — misprediction-penalty sweep on {kind}\n{t}")
}

/// One row of the hybrid-split sweep.
#[derive(Debug, Clone)]
pub struct HybridRow {
    /// Entries on the stride side (the rest go to the last-value side).
    pub stride_entries: usize,
    /// Entries on the last-value side.
    pub last_value_entries: usize,
    /// Hybrid statistics on the annotated binary.
    pub stats: PredictorStats,
}

/// Sweeps how a fixed entry budget is split between the hybrid's stride
/// and last-value sides (threshold 70% so both directive kinds appear).
/// All splits replay as one fused matrix pass over the reference trace.
pub fn hybrid_split(suite: &Suite, kind: WorkloadKind, total: usize) -> Vec<HybridRow> {
    let splits = [total / 8, total / 4, total / 2, 3 * total / 4];
    let cells: Vec<(PredictorConfig, Option<f64>)> = splits
        .iter()
        .map(|&stride_entries| {
            (
                PredictorConfig::Hybrid {
                    stride: TableGeometry::new(stride_entries, 2),
                    last_value: TableGeometry::new(total - stride_entries, 2),
                },
                Some(0.7),
            )
        })
        .collect();
    let grid = suite.predictor_stats_matrix(kind, &cells);
    splits
        .iter()
        .zip(grid)
        .map(|(&stride_entries, stats)| HybridRow {
            stride_entries,
            last_value_entries: total - stride_entries,
            stats,
        })
        .collect()
}

/// Renders the hybrid-split sweep.
#[must_use]
pub fn render_hybrid(kind: WorkloadKind, rows: &[HybridRow]) -> String {
    let mut t = TextTable::new(["split (st/lv)", "correct", "wrong", "effective accuracy"]);
    for r in rows {
        t.row([
            format!("{}/{}", r.stride_entries, r.last_value_entries),
            r.stats.speculated_correct.to_string(),
            r.stats.speculated_incorrect().to_string(),
            percent(r.stats.effective_accuracy()),
        ]);
    }
    format!(
        "Ablation — hybrid split sweep on {kind} ({} total entries, th=70%)\n",
        rows[0].stride_entries + rows[0].last_value_entries
    ) + &t.to_string()
}

/// One row of the confidence-counter configuration sweep.
#[derive(Debug, Clone)]
pub struct CounterRow {
    /// Configuration label.
    pub label: &'static str,
    /// Statistics on the paper's table with this counter configuration.
    pub stats: PredictorStats,
}

/// Sweeps saturating-counter configurations (the hardware classifier's
/// only tuning knobs: state count, prediction threshold, reset state) on
/// the paper's 512-entry 2-way stride table. All configurations replay as
/// one fused matrix pass over the reference trace.
pub fn counters(suite: &Suite, kind: WorkloadKind) -> Vec<CounterRow> {
    let configs: [(&'static str, SatCounter); 4] = [
        ("1-bit", SatCounter::new(0, 1, 1)),
        ("2-bit, predict>=2", SatCounter::two_bit()),
        ("2-bit, predict==3", SatCounter::new(1, 3, 3)),
        ("3-bit, predict>=4", SatCounter::new(3, 7, 4)),
    ];
    let cells: Vec<(PredictorConfig, Option<f64>)> = configs
        .iter()
        .map(|&(_, template)| {
            (
                PredictorConfig::TableStride {
                    geometry: TableGeometry::SPEC_512_2WAY,
                    classifier: ClassifierKind::SatCounter { template },
                },
                None,
            )
        })
        .collect();
    let grid = suite.predictor_stats_matrix(kind, &cells);
    configs
        .iter()
        .zip(grid)
        .map(|(&(label, _), stats)| CounterRow { label, stats })
        .collect()
}

/// Renders the counter sweep.
#[must_use]
pub fn render_counters(kind: WorkloadKind, rows: &[CounterRow]) -> String {
    let mut t = TextTable::new([
        "counter",
        "correct",
        "wrong",
        "effective accuracy",
        "misp. suppressed",
    ]);
    for r in rows {
        t.row([
            r.label.to_owned(),
            r.stats.speculated_correct.to_string(),
            r.stats.speculated_incorrect().to_string(),
            percent(r.stats.effective_accuracy()),
            percent(r.stats.misprediction_classification_accuracy()),
        ]);
    }
    format!("Ablation — confidence-counter configurations on {kind}\n{t}")
}

/// One row of the front-end relaxation sweep.
#[derive(Debug, Clone)]
pub struct FrontEndRow {
    /// The workload.
    pub kind: WorkloadKind,
    /// Front-end label.
    pub front_end: &'static str,
    /// Baseline (no VP) ILP on this front end.
    pub base_ilp: f64,
    /// ILP increase (%) from VP + profiling (threshold 90%) on this front
    /// end.
    pub vp_increase: f64,
}

/// Relaxes the paper's perfect-branch-prediction assumption: measures the
/// no-VP baseline and the VP gain under perfect, bimodal and gshare front
/// ends (8-cycle redirect penalty). Each workload's six machines run in
/// one ILP lane pass.
pub fn front_end(suite: &Suite, kinds: &[WorkloadKind]) -> Vec<FrontEndRow> {
    let fronts: [(&'static str, BranchConfig, u64); 3] = [
        ("perfect", BranchConfig::Perfect, 0),
        ("bimodal-4k", BranchConfig::bimodal_4k(), 8),
        ("gshare-4k", BranchConfig::gshare_4k(), 8),
    ];
    let machines: Vec<(IlpConfig, Option<f64>)> = fronts
        .iter()
        .flat_map(|&(_, branch, bp)| {
            [
                (IlpConfig::paper_no_vp().with_branch(branch, bp), None),
                (
                    IlpConfig::paper_vp_profile().with_branch(branch, bp),
                    Some(0.9),
                ),
            ]
        })
        .collect();
    let per_kind = suite.par_map(kinds, |&kind| suite.ilp_machines(kind, &machines));
    let mut rows = Vec::with_capacity(kinds.len() * fronts.len());
    for (&kind, results) in kinds.iter().zip(per_kind) {
        for (&(label, _, _), pair) in fronts.iter().zip(results.chunks_exact(2)) {
            rows.push(FrontEndRow {
                kind,
                front_end: label,
                base_ilp: pair[0].ilp(),
                vp_increase: pair[1].ilp_increase_over(&pair[0]),
            });
        }
    }
    rows
}

/// Renders the front-end sweep.
#[must_use]
pub fn render_front_end(rows: &[FrontEndRow]) -> String {
    let mut t = TextTable::new(["benchmark", "front end", "base ILP", "VP+Prof 90%"]);
    for r in rows {
        t.row([
            r.kind.name().to_owned(),
            r.front_end.to_owned(),
            format!("{:.2}", r.base_ilp),
            signed_percent(r.vp_increase),
        ]);
    }
    format!("Ablation — relaxing perfect branch prediction (8-cycle redirect penalty)\n{t}")
}

/// One row of the predictor-scheme comparison.
#[derive(Debug, Clone)]
pub struct SchemeRow {
    /// The workload.
    pub kind: WorkloadKind,
    /// Plain stride predictor statistics (the paper's scheme).
    pub stride: PredictorStats,
    /// Two-delta stride predictor statistics (extension).
    pub two_delta: PredictorStats,
    /// Last-value predictor statistics (the prior-art baseline).
    pub last_value: PredictorStats,
}

/// Compares prediction schemes head-to-head on the paper's 512-entry 2-way
/// table with saturating-counter classification. The three schemes replay
/// as one fused matrix pass per workload.
pub fn schemes(suite: &Suite, kinds: &[WorkloadKind]) -> Vec<SchemeRow> {
    let geometry = TableGeometry::SPEC_512_2WAY;
    let classifier = ClassifierKind::two_bit_counter();
    let cells = [
        (
            PredictorConfig::TableStride {
                geometry,
                classifier,
            },
            None,
        ),
        (
            PredictorConfig::TableTwoDelta {
                geometry,
                classifier,
            },
            None,
        ),
        (
            PredictorConfig::TableLastValue {
                geometry,
                classifier,
            },
            None,
        ),
    ];
    suite.par_map(kinds, |&kind| {
        let grid = suite.predictor_stats_matrix(kind, &cells);
        SchemeRow {
            kind,
            stride: grid[0],
            two_delta: grid[1],
            last_value: grid[2],
        }
    })
}

/// Renders the scheme comparison (raw accuracy per scheme).
#[must_use]
pub fn render_schemes(rows: &[SchemeRow]) -> String {
    let mut t = TextTable::new(["benchmark", "last-value", "stride", "two-delta"]);
    for r in rows {
        t.row([
            r.kind.name().to_owned(),
            percent(r.last_value.raw_accuracy()),
            percent(r.stride.raw_accuracy()),
            percent(r.two_delta.raw_accuracy()),
        ]);
    }
    format!(
        "Ablation — predictor schemes (raw accuracy, 512-entry 2-way table, 2-bit counters)\n{t}"
    )
}

/// One row of the training-run-count sweep.
#[derive(Debug, Clone)]
pub struct TrainRunsRow {
    /// Number of training inputs `n`.
    pub runs: u32,
    /// Mass of `M(V)average` coordinates in the lowest two deciles.
    pub v_avg_low_mass: f64,
    /// Aligned vector dimension.
    pub dim: usize,
}

/// Measures §4 profile stability as a function of `n` (2..=max_runs).
pub fn train_runs(kind: WorkloadKind, max_runs: u32) -> Vec<TrainRunsRow> {
    (2..=max_runs)
        .map(|runs| {
            let suite = Suite::with_train_runs(runs);
            let images = suite.train_images(kind);
            let vectors = AlignedVectors::from_images(&images, 10);
            let m = metrics::average_distance(vectors.accuracy_vectors());
            let hist = DecileHistogram::from_values(&m);
            TrainRunsRow {
                runs,
                v_avg_low_mass: hist.low_mass(2),
                dim: vectors.dim(),
            }
        })
        .collect()
}

/// Renders the training-run sweep.
#[must_use]
pub fn render_train_runs(kind: WorkloadKind, rows: &[TrainRunsRow]) -> String {
    let mut t = TextTable::new(["n", "M(V)avg mass in [0,20]", "coords"]);
    for r in rows {
        t.row([
            r.runs.to_string(),
            percent(r.v_avg_low_mass),
            r.dim.to_string(),
        ]);
    }
    format!("Ablation — profile stability vs number of training inputs on {kind}\n{t}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_pressure_story() {
        let suite = Suite::with_train_runs(2);
        let rows = geometry(&suite, WorkloadKind::Gcc, &[64, 512, 4096]);
        // The hardware scheme recovers as the table grows...
        assert!(rows[2].fsm.speculated_correct > rows[0].fsm.speculated_correct);
        // ...while the profile scheme is much less size-sensitive.
        let prof_ratio = rows[2].profile.speculated_correct as f64
            / rows[0].profile.speculated_correct.max(1) as f64;
        let fsm_ratio =
            rows[2].fsm.speculated_correct as f64 / rows[0].fsm.speculated_correct.max(1) as f64;
        assert!(
            prof_ratio < fsm_ratio,
            "profile {prof_ratio} vs fsm {fsm_ratio}"
        );
        assert!(render_geometry(WorkloadKind::Gcc, &rows).contains("Δcorrect"));
    }

    #[test]
    fn penalty_hurts_the_less_selective_classifier_more() {
        let suite = Suite::with_train_runs(2);
        let rows = penalty(&suite, WorkloadKind::Ijpeg, &[0, 4]);
        // Raising the penalty can only reduce the gain.
        assert!(rows[1].fsm_increase <= rows[0].fsm_increase + 1e-9);
        assert!(rows[1].profile_increase <= rows[0].profile_increase + 1e-9);
        assert!(render_penalty(WorkloadKind::Ijpeg, &rows).contains("penalty"));
    }

    #[test]
    fn hybrid_split_runs_and_renders() {
        let suite = Suite::with_train_runs(2);
        let rows = hybrid_split(&suite, WorkloadKind::M88ksim, 512);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert_eq!(r.stride_entries + r.last_value_entries, 512);
            assert!(
                r.stats.speculated_correct > 0,
                "split {}/{}",
                r.stride_entries,
                r.last_value_entries
            );
        }
        assert!(render_hybrid(WorkloadKind::M88ksim, &rows).contains("split"));
    }

    #[test]
    fn stricter_counters_trade_coverage_for_accuracy() {
        let suite = Suite::with_train_runs(1);
        let rows = counters(&suite, WorkloadKind::Gcc);
        let by = |label: &str| {
            rows.iter()
                .find(|r| r.label.starts_with(label))
                .expect("config present")
        };
        let loose = by("1-bit");
        let strict = by("3-bit");
        // A stricter confidence requirement uses fewer predictions...
        assert!(strict.stats.speculated <= loose.stats.speculated);
        // ...but the ones it uses are at least as accurate.
        assert!(
            strict.stats.effective_accuracy() >= loose.stats.effective_accuracy() - 1e-9,
            "strict {:.3} vs loose {:.3}",
            strict.stats.effective_accuracy(),
            loose.stats.effective_accuracy()
        );
        assert!(render_counters(WorkloadKind::Gcc, &rows).contains("counter"));
    }

    #[test]
    fn relaxed_front_end_dampens_but_preserves_vp_gains() {
        let suite = Suite::with_train_runs(1);
        let rows = front_end(&suite, &[WorkloadKind::M88ksim]);
        assert_eq!(rows.len(), 3);
        let (perfect, bimodal, gshare) = (&rows[0], &rows[1], &rows[2]);
        // Relaxing the front end can only lower the baseline ILP.
        assert!(bimodal.base_ilp <= perfect.base_ilp + 1e-9);
        assert!(gshare.base_ilp <= perfect.base_ilp + 1e-9);
        // m88ksim's dispatch branches alternate: bimodal thrashes on them
        // (the VP gain collapses), but history-based gshare recovers nearly
        // the full idealised gain.
        assert!(bimodal.vp_increase < 100.0, "{}", bimodal.vp_increase);
        assert!(gshare.vp_increase > 300.0, "{}", gshare.vp_increase);
        assert!(render_front_end(&rows).contains("front end"));
    }

    #[test]
    fn two_delta_never_loses_to_plain_stride_by_much() {
        let suite = Suite::with_train_runs(1);
        let rows = schemes(&suite, &[WorkloadKind::Ijpeg, WorkloadKind::M88ksim]);
        for r in &rows {
            // Stride subsumes last-value repeats; two-delta tracks stride
            // closely and wins when glitches interrupt regular patterns.
            assert!(
                r.two_delta.raw_accuracy() >= r.stride.raw_accuracy() - 0.05,
                "{}: 2delta {:.3} vs stride {:.3}",
                r.kind,
                r.two_delta.raw_accuracy(),
                r.stride.raw_accuracy()
            );
            assert!(r.stride.raw_accuracy() > 0.0);
        }
        assert!(render_schemes(&rows).contains("two-delta"));
    }

    #[test]
    fn stability_holds_for_small_n() {
        let rows = train_runs(WorkloadKind::Compress, 3);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(
                r.v_avg_low_mass > 0.8,
                "n={} mass={}",
                r.runs,
                r.v_avg_low_mass
            );
        }
        assert!(render_train_runs(WorkloadKind::Compress, &rows).contains("coords"));
    }
}
