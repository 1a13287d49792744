//! Process-global sink for per-PC prediction-attribution results.
//!
//! Attribution is observation-only and off by default. Once a caller
//! [`enable`]s the sink, [`crate::Suite::predictor_stats`] asks its sweep
//! replay for attribution (a [`crate::replay::ReplayRequest`] with
//! attribution on: the same state walks, whose codes each cell also folds
//! into a per-PC table) and [`record`]s one [`AttributionRun`] per
//! `(workload, config, threshold)` replay. At exit the bench harness
//! [`drain`]s the sink into the run manifest's `attribution` array.
//!
//! Runs may be recorded from [`crate::Suite::par_map`] worker threads in
//! any interleaving; [`drain`] sorts them under a deterministic total
//! order so the exported manifest is byte-identical at any `--jobs`.

use std::sync::Mutex;

use vp_isa::InstrAddr;
use vp_obs::attribution::{AttributionPc, AttributionRun};
use vp_predictor::{AttributionCause, AttributionTable};

/// Sink state: `None` while disabled; `Some((top_k, runs))` once enabled.
static SINK: Mutex<Option<(usize, Vec<AttributionRun>)>> = Mutex::new(None);

fn sink() -> std::sync::MutexGuard<'static, Option<(usize, Vec<AttributionRun>)>> {
    match SINK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Turns the sink on, keeping the `top` hottest mispredicting PCs per
/// run (`0` keeps every PC). Idempotent; later calls update `top`.
pub fn enable(top: usize) {
    let mut guard = sink();
    match guard.as_mut() {
        Some((k, _)) => *k = top,
        None => *guard = Some((top, Vec::new())),
    }
}

/// Whether attribution is being collected.
#[must_use]
pub fn enabled() -> bool {
    sink().is_some()
}

/// The configured per-run top-K (`None` while disabled).
#[must_use]
pub fn top_k() -> Option<usize> {
    sink().as_ref().map(|(k, _)| *k)
}

/// Records one replay's attribution result. A no-op while disabled, so
/// callers need not re-check [`enabled`] between replay and record.
pub fn record(run: AttributionRun) {
    if let Some((_, runs)) = sink().as_mut() {
        runs.push(run);
    }
}

/// Takes every recorded run out of the sink (leaving it enabled),
/// sorted by `(workload, config, threshold)` — a total order independent
/// of worker-thread interleaving, so manifests stay byte-identical at
/// any `--jobs`.
#[must_use]
pub fn drain() -> Vec<AttributionRun> {
    let mut runs = match sink().as_mut() {
        Some((_, runs)) => std::mem::take(runs),
        None => Vec::new(),
    };
    runs.sort_by(|a, b| {
        (&a.workload, &a.config, a.threshold.map(f64::to_bits)).cmp(&(
            &b.workload,
            &b.config,
            b.threshold.map(f64::to_bits),
        ))
    });
    runs
}

/// Converts a replay's [`AttributionTable`] into the passive manifest
/// form: the top-K rows (every row when `top == 0`) plus exact totals.
///
/// `profiled_accuracy` looks a PC's Phase-2 profiled accuracy up in the
/// merged training image (returning `None` for unprofiled PCs); drift is
/// `profiled − observed` raw accuracy, so positive drift means the
/// training profile over-promised on the reference input.
#[must_use]
pub fn run_from_table(
    workload: &str,
    config: &str,
    threshold: Option<f64>,
    table: &AttributionTable,
    top: usize,
    profiled_accuracy: impl Fn(InstrAddr, vp_isa::Directive) -> Option<f64>,
) -> AttributionRun {
    let totals = table.totals();
    let pcs = table
        .top(top)
        .into_iter()
        .map(|(addr, r)| {
            let profiled = profiled_accuracy(addr, r.directive);
            AttributionPc {
                pc: u64::from(addr.index()),
                directive: r.directive.to_string(),
                accesses: r.accesses,
                hits: r.hits,
                raw_correct: r.raw_correct,
                speculated: r.speculated,
                speculated_correct: r.speculated_correct,
                causes: causes_map(&r.causes),
                profiled_accuracy: profiled,
                drift: profiled.map(|p| p - r.raw_accuracy()),
            }
        })
        .collect();
    AttributionRun {
        workload: workload.to_owned(),
        config: config.to_owned(),
        threshold,
        totals: vp_obs::attribution::AttributionTotals {
            pcs: totals.pcs,
            accesses: totals.accesses,
            hits: totals.hits,
            raw_correct: totals.raw_correct,
            speculated: totals.speculated,
            speculated_correct: totals.speculated_correct,
            causes: causes_map(&totals.causes),
        },
        pcs,
    }
}

/// Dense cause counts → named map, zero counts omitted (the manifest
/// form; [`vp_obs::attribution::CAUSE_ORDER`] names match
/// [`AttributionCause::as_str`] one-for-one).
fn causes_map(counts: &[u64; 6]) -> std::collections::BTreeMap<String, u64> {
    AttributionCause::ALL
        .iter()
        .zip(counts)
        .filter(|(_, &n)| n > 0)
        .map(|(c, &n)| (c.as_str().to_owned(), n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, config: &str, threshold: Option<f64>) -> AttributionRun {
        AttributionRun {
            workload: workload.to_owned(),
            config: config.to_owned(),
            threshold,
            totals: vp_obs::attribution::AttributionTotals::default(),
            pcs: Vec::new(),
        }
    }

    #[test]
    fn sink_orders_runs_deterministically() {
        // Serialise against other tests touching the process-global sink.
        let _guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        assert!(drain().is_empty());
        record(run("zzz", "a", None)); // dropped: sink disabled
        enable(7);
        assert!(enabled());
        assert_eq!(top_k(), Some(7));
        record(run("go", "stride", Some(0.9)));
        record(run("compress", "lv", None));
        record(run("go", "stride", Some(0.5)));
        let runs = drain();
        let labels: Vec<String> = runs.iter().map(vp_obs::AttributionRun::label).collect();
        assert_eq!(labels, ["compress/lv", "go/stride@0.50", "go/stride@0.90"]);
        // Drain leaves the sink enabled but empty.
        assert!(enabled() && drain().is_empty());
        *super::sink() = None;
    }

    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn run_from_table_maps_counts_and_drift() {
        use vp_isa::Directive;
        use vp_predictor::PredictorConfig;

        let mut table = AttributionTable::new();
        let mut p = PredictorConfig::spec_table_stride_profile().build();
        let pc = InstrAddr::new(3);
        for v in [10u64, 20, 30, 40, 31] {
            let a = p.access(pc, Directive::Stride, v);
            table.observe(pc, Directive::Stride, &a, v);
        }
        let out = run_from_table("wl", "cfg", Some(0.9), &table, 10, |addr, d| {
            assert_eq!(addr, pc);
            assert_eq!(d, Directive::Stride);
            Some(1.0)
        });
        assert_eq!(out.label(), "wl/cfg@0.90");
        assert_eq!(out.totals.pcs, 1);
        assert_eq!(out.totals.accesses, 5);
        assert_eq!(out.pcs.len(), 1);
        let row = &out.pcs[0];
        assert_eq!(row.pc, 3);
        assert_eq!(row.directive, "st");
        assert_eq!(row.accesses, 5);
        // Zero cause counts are omitted from the named map.
        assert!(row.causes.values().all(|&n| n > 0));
        assert_eq!(
            row.causes.values().sum::<u64>(),
            row.accesses - row.raw_correct
        );
        let drift = row.drift.expect("profiled PC has drift");
        assert!((drift - (1.0 - row.raw_accuracy())).abs() < 1e-12);
    }
}
