//! Store-value predictability: quantifying the paper's §2.1 remark that
//! the prediction schemes generalize to memory storage operands.

use vp_profile::{StoreValueCollector, VpCategory};
use vp_stats::{table::percent, TextTable};
use vp_workloads::{InputSet, WorkloadKind};

use crate::Suite;

/// One workload's store-value predictability.
#[derive(Debug, Clone)]
pub struct Row {
    /// The workload.
    pub kind: WorkloadKind,
    /// Dynamic stores observed.
    pub stores: u64,
    /// Store-value accuracy under the stride predictor, `[0, 1]`.
    pub stride_accuracy: f64,
    /// Store-value accuracy under the last-value predictor.
    pub last_value_accuracy: f64,
}

/// The store-value extension table.
#[derive(Debug, Clone)]
pub struct StoreValues {
    /// Per-workload rows.
    pub rows: Vec<Row>,
}

/// Profiles the values stored by each workload's reference run.
pub fn run_analysis(suite: &Suite, kinds: &[WorkloadKind]) -> StoreValues {
    let rows = suite.par_map(kinds, |&kind| {
        let program = suite.reference_program(kind, None);
        let mut collector = StoreValueCollector::new(kind.name());
        suite.replay_trace(kind, InputSet::reference(), &program, &mut collector);
        let image = collector.into_image();
        let (execs, _, _) = image.category_totals(VpCategory::Store);
        Row {
            kind,
            stores: execs,
            stride_accuracy: image.category_stride_accuracy(VpCategory::Store),
            last_value_accuracy: image.category_last_value_accuracy(VpCategory::Store),
        }
    });
    StoreValues { rows }
}

/// Convenience: all nine Table 4.1 workloads.
pub fn run_all(suite: &Suite) -> StoreValues {
    run_analysis(suite, &WorkloadKind::ALL)
}

impl StoreValues {
    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["benchmark", "dyn stores", "stride", "last-value"]);
        for r in &self.rows {
            t.row([
                r.kind.name().to_owned(),
                r.stores.to_string(),
                percent(r.stride_accuracy),
                percent(r.last_value_accuracy),
            ]);
        }
        format!(
            "Extension — predictability of stored values (the paper's §2.1\n\
             generalization to memory storage operands)\n{t}"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stored_values_are_predictable_where_registers_are() {
        let suite = Suite::with_train_runs(1);
        let sv = run_analysis(
            &suite,
            &[
                WorkloadKind::Vortex,
                WorkloadKind::Compress,
                WorkloadKind::M88ksim,
            ],
        );
        let by = |kind| sv.rows.iter().find(|r| r.kind == kind).expect("row");
        // vortex's log-sequence stores stride; m88ksim's statistics stores
        // stride; both should be clearly predictable.
        assert!(by(WorkloadKind::Vortex).stride_accuracy > 0.4);
        assert!(by(WorkloadKind::M88ksim).stride_accuracy > 0.4);
        for r in &sv.rows {
            assert!(r.stores > 1_000, "{}: {} stores", r.kind, r.stores);
            assert!((0.0..=1.0).contains(&r.stride_accuracy));
            assert!((0.0..=1.0).contains(&r.last_value_accuracy));
        }
        assert!(sv.render().contains("stored values"));
    }
}
