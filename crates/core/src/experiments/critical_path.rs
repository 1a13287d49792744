//! Critical-path predictability: the paper's future-work analysis.
//!
//! Joins the critical path of `vp-ilp`'s no-VP machine (a tracked lane
//! of [`vp_ilp::IlpLanes`]) with the profile image of the held-out
//! reference run ([`Suite::reference_image`]): for each workload, how
//! much of the dataflow-binding work is done by instructions the
//! profiler would tag as value-predictable? This is
//! the mechanistic explanation of Table 5.2 — workloads gain from value
//! prediction in proportion to the predictable share of their critical
//! path.

use vp_ilp::{IlpConfig, IlpLanes};
use vp_stats::{table::percent, TextTable};
use vp_workloads::{InputSet, WorkloadKind};

use crate::Suite;

/// One workload's critical-path breakdown.
#[derive(Debug, Clone)]
pub struct Row {
    /// The workload.
    pub kind: WorkloadKind,
    /// Fraction of issues bound by data dependences (vs. the window).
    pub data_bound_fraction: f64,
    /// Fraction of data-bound issues charged to producers with ≥90%
    /// profiled stride accuracy.
    pub predictable_critical_fraction: f64,
    /// The top binding producers: `(address, share of data-bound issues,
    /// profiled accuracy)`.
    pub top: Vec<(vp_isa::InstrAddr, f64, f64)>,
}

/// The critical-path report for a set of workloads.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Per-workload rows.
    pub rows: Vec<Row>,
}

/// Runs the analysis on each workload's reference input.
pub fn run_analysis(suite: &Suite, kinds: &[WorkloadKind]) -> CriticalPath {
    let rows = suite.par_map(kinds, |&kind| {
        let program = suite.reference_program(kind, None);
        let mut lanes = IlpLanes::new(IlpConfig::PAPER_WINDOW);
        lanes.lane(&IlpConfig::paper_no_vp(), None);
        lanes.track_critical_path(0);
        suite.replay_trace(kind, InputSet::reference(), &program, &mut lanes);
        let report = lanes.finish().1.expect("lane 0 is tracked");
        let image = suite.reference_image(kind);
        let accuracy_of = |addr| image.get(addr).map_or(0.0, |r| r.stride_accuracy());
        let data = report.data_bound().max(1);
        let top = report
            .ranked()
            .into_iter()
            .take(5)
            .map(|(addr, n)| (addr, n as f64 / data as f64, accuracy_of(addr)))
            .collect();
        Row {
            kind,
            data_bound_fraction: report.data_bound() as f64 / report.instructions.max(1) as f64,
            predictable_critical_fraction: report
                .predictable_fraction(|addr| accuracy_of(addr) >= 0.9),
            top,
        }
    });
    CriticalPath { rows }
}

/// Convenience: all nine workloads.
pub fn run_all(suite: &Suite) -> CriticalPath {
    run_analysis(suite, &WorkloadKind::ALL)
}

impl CriticalPath {
    /// Renders the report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "benchmark",
            "data-bound issues",
            "critical & predictable",
            "top binding instruction",
        ]);
        for row in &self.rows {
            let top = row
                .top
                .first()
                .map(|(addr, share, acc)| {
                    format!("{addr} ({}, acc {})", percent(*share), percent(*acc))
                })
                .unwrap_or_else(|| "-".to_owned());
            t.row([
                row.kind.name().to_owned(),
                percent(row.data_bound_fraction),
                percent(row.predictable_critical_fraction),
                top,
            ]);
        }
        format!(
            "Critical-path predictability (no-VP schedule, 40-entry window)\n\
             'critical & predictable' = share of data-bound issues charged to\n\
             producers with >=90% profiled accuracy — the headroom value\n\
             prediction can collapse.\n{t}"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn critical_predictability_explains_table_5_2() {
        let suite = Suite::with_train_runs(1);
        let cp = run_analysis(
            &suite,
            &[
                WorkloadKind::M88ksim,
                WorkloadKind::Compress,
                WorkloadKind::Vortex,
            ],
        );
        let by = |kind| cp.rows.iter().find(|r| r.kind == kind).expect("row");
        let m88k = by(WorkloadKind::M88ksim);
        let compress = by(WorkloadKind::Compress);
        let vortex = by(WorkloadKind::Vortex);
        // The big Table 5.2 winners have mostly-predictable critical paths;
        // compress's hash chain is critical and unpredictable.
        assert!(
            m88k.predictable_critical_fraction > 0.6,
            "m88ksim {}",
            m88k.predictable_critical_fraction
        );
        assert!(
            vortex.predictable_critical_fraction > 0.4,
            "vortex {}",
            vortex.predictable_critical_fraction
        );
        assert!(
            compress.predictable_critical_fraction < m88k.predictable_critical_fraction,
            "compress {} vs m88ksim {}",
            compress.predictable_critical_fraction,
            m88k.predictable_critical_fraction
        );
        // Everything here is heavily data-bound (that is why VP matters).
        for row in &cp.rows {
            assert!(
                row.data_bound_fraction > 0.3,
                "{}: {}",
                row.kind,
                row.data_bound_fraction
            );
            assert!(!row.top.is_empty());
        }
        assert!(cp.render().contains("Critical-path"));
    }
}
