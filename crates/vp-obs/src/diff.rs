//! Regression attribution between two run manifests.
//!
//! `metrics-check` can say *that* simulator throughput regressed; this
//! module says *where the time went*. [`ManifestDiff::compute`] compares
//! a baseline manifest against a current one and produces a blame
//! table: per-phase wall-clock deltas (sorted by absolute movement, so
//! the guiltiest phase is first), per-counter and per-gauge deltas, and
//! the derived-rate movement (`sim_instr_per_sec`, `trace_hit_rate`).
//! [`ManifestDiff::render_markdown`] renders it as GitHub-flavoured
//! tables, which read as plain text in a log and render in
//! `$GITHUB_STEP_SUMMARY`.
//!
//! Samples do not participate in the diff; they exist to localise a
//! regression *within* one run, whereas the diff localises it *between*
//! runs. Neither do the `attribution` and `profile` sections:
//! `metrics-check` blames a failed accuracy gate on the guiltiest PCs and
//! a failed phase-share gate on the hottest stack under the phase, and
//! `attribution-report` renders the per-PC drift of one run.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::manifest::RunManifest;

/// Rows shown per section of the markdown report.
const TOP_ROWS: usize = 15;

/// One phase's wall-clock movement between baseline and current.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseDelta {
    /// Hierarchical span path.
    pub path: String,
    /// Baseline total milliseconds (0 when the phase is new).
    pub base_ms: f64,
    /// Current total milliseconds (0 when the phase disappeared).
    pub cur_ms: f64,
    /// `cur_ms - base_ms`.
    pub delta_ms: f64,
    /// Relative change (`delta_ms / base_ms`); `None` when the phase is
    /// new (no baseline to be relative to).
    pub pct: Option<f64>,
}

/// One counter's (or gauge's) movement between baseline and current.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterDelta {
    /// Metric key.
    pub key: String,
    /// Baseline value (0 when newly recorded).
    pub base: u64,
    /// Current value (0 when no longer recorded).
    pub cur: u64,
    /// `cur - base` (signed).
    pub delta: i128,
    /// Relative change; `None` when the baseline is 0.
    pub pct: Option<f64>,
}

/// One derived rate's movement.
#[derive(Debug, Clone, PartialEq)]
pub struct RateDelta {
    /// Rate name (`sim_instr_per_sec`, `trace_hit_rate`).
    pub name: &'static str,
    /// Baseline value.
    pub base: f64,
    /// Current value.
    pub cur: f64,
    /// Relative change; `None` when the baseline is 0.
    pub pct: Option<f64>,
}

/// A full attribution of the differences between two manifests.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestDiff {
    /// Baseline binary name.
    pub base_bin: String,
    /// Current binary name.
    pub cur_bin: String,
    /// Baseline end-to-end wall time, milliseconds.
    pub base_wall_ms: f64,
    /// Current end-to-end wall time, milliseconds.
    pub cur_wall_ms: f64,
    /// Phase deltas, sorted by `|delta_ms|` descending (ties broken by
    /// path, so output is deterministic).
    pub phases: Vec<PhaseDelta>,
    /// Counter deltas, sorted by `|delta|` descending then key; entries
    /// with no movement are omitted.
    pub counters: Vec<CounterDelta>,
    /// Gauge deltas, same ordering and omission rules as counters.
    pub gauges: Vec<CounterDelta>,
    /// Derived-rate movement.
    pub rates: Vec<RateDelta>,
}

fn pct(base: f64, delta: f64) -> Option<f64> {
    if base == 0.0 {
        None
    } else {
        Some(delta / base)
    }
}

fn fmt_pct(p: Option<f64>) -> String {
    match p {
        Some(p) => format!("{:+.1}%", p * 100.0),
        None => "new".to_owned(),
    }
}

fn numeric_deltas(
    base: &std::collections::BTreeMap<String, u64>,
    cur: &std::collections::BTreeMap<String, u64>,
) -> Vec<CounterDelta> {
    let keys: BTreeSet<&String> = base.keys().chain(cur.keys()).collect();
    let mut out: Vec<CounterDelta> = keys
        .into_iter()
        .filter_map(|k| {
            let b = base.get(k).copied().unwrap_or(0);
            let c = cur.get(k).copied().unwrap_or(0);
            if b == c {
                return None; // no movement, no blame
            }
            let delta = i128::from(c) - i128::from(b);
            Some(CounterDelta {
                key: k.clone(),
                base: b,
                cur: c,
                delta,
                pct: pct(b as f64, delta as f64),
            })
        })
        .collect();
    out.sort_by(|a, b| {
        b.delta
            .abs()
            .cmp(&a.delta.abs())
            .then_with(|| a.key.cmp(&b.key))
    });
    out
}

impl ManifestDiff {
    /// Compares `current` against `baseline` (see the module docs).
    #[must_use]
    pub fn compute(baseline: &RunManifest, current: &RunManifest) -> ManifestDiff {
        let base_by_path: std::collections::BTreeMap<&str, f64> = baseline
            .phases
            .iter()
            .map(|p| (p.path.as_str(), p.total_ms))
            .collect();
        let cur_by_path: std::collections::BTreeMap<&str, f64> = current
            .phases
            .iter()
            .map(|p| (p.path.as_str(), p.total_ms))
            .collect();
        let paths: BTreeSet<&str> = base_by_path
            .keys()
            .chain(cur_by_path.keys())
            .copied()
            .collect();
        let mut phases: Vec<PhaseDelta> = paths
            .into_iter()
            .map(|path| {
                let base_ms = base_by_path.get(path).copied().unwrap_or(0.0);
                let cur_ms = cur_by_path.get(path).copied().unwrap_or(0.0);
                let delta_ms = cur_ms - base_ms;
                PhaseDelta {
                    path: path.to_owned(),
                    base_ms,
                    cur_ms,
                    delta_ms,
                    pct: pct(base_ms, delta_ms),
                }
            })
            .collect();
        phases.sort_by(|a, b| {
            b.delta_ms
                .abs()
                .partial_cmp(&a.delta_ms.abs())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.path.cmp(&b.path))
        });

        let rate = |name: &'static str, base: f64, cur: f64| RateDelta {
            name,
            base,
            cur,
            pct: pct(base, cur - base),
        };
        ManifestDiff {
            base_bin: baseline.bin.clone(),
            cur_bin: current.bin.clone(),
            base_wall_ms: baseline.wall_ms,
            cur_wall_ms: current.wall_ms,
            phases,
            counters: numeric_deltas(&baseline.counters, &current.counters),
            gauges: numeric_deltas(&baseline.gauges, &current.gauges),
            rates: vec![
                rate(
                    "sim_instr_per_sec",
                    baseline.sim_instr_per_sec(),
                    current.sim_instr_per_sec(),
                ),
                rate(
                    "trace_hit_rate",
                    baseline.trace_hit_rate(),
                    current.trace_hit_rate(),
                ),
            ],
        }
    }

    /// End-to-end wall-clock movement in milliseconds.
    #[must_use]
    pub fn wall_delta_ms(&self) -> f64 {
        self.cur_wall_ms - self.base_wall_ms
    }

    /// Renders the blame as GitHub-flavoured Markdown tables, showing
    /// the 15 biggest movers per section.
    #[must_use]
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "### Manifest diff: `{}` vs `{}`",
            self.base_bin, self.cur_bin
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "Wall clock: {:.1} ms \u{2192} {:.1} ms (**{:+.1} ms**, {})",
            self.base_wall_ms,
            self.cur_wall_ms,
            self.wall_delta_ms(),
            fmt_pct(pct(self.base_wall_ms, self.wall_delta_ms())),
        );
        let _ = writeln!(out);
        if !self.phases.is_empty() {
            let _ = writeln!(
                out,
                "| phase | base ms | current ms | \u{394} ms | \u{394} |"
            );
            let _ = writeln!(out, "|---|---:|---:|---:|---:|");
            for p in self.phases.iter().take(TOP_ROWS) {
                let _ = writeln!(
                    out,
                    "| `{}` | {:.2} | {:.2} | {:+.2} | {} |",
                    p.path,
                    p.base_ms,
                    p.cur_ms,
                    p.delta_ms,
                    fmt_pct(p.pct)
                );
            }
            let _ = writeln!(out);
        }
        for (title, rows) in [("counter", &self.counters), ("gauge", &self.gauges)] {
            if rows.is_empty() {
                continue;
            }
            let _ = writeln!(out, "| {title} | base | current | \u{394} | \u{394}% |");
            let _ = writeln!(out, "|---|---:|---:|---:|---:|");
            for c in rows.iter().take(TOP_ROWS) {
                let _ = writeln!(
                    out,
                    "| `{}` | {} | {} | {:+} | {} |",
                    c.key,
                    c.base,
                    c.cur,
                    c.delta,
                    fmt_pct(c.pct)
                );
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "| derived rate | base | current | \u{394}% |");
        let _ = writeln!(out, "|---|---:|---:|---:|");
        for r in &self.rates {
            let _ = writeln!(
                out,
                "| `{}` | {:.3} | {:.3} | {} |",
                r.name,
                r.base,
                r.cur,
                fmt_pct(r.pct)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::PhaseEntry;

    fn manifest(wall_ms: f64, phase_ms: &[(&str, f64)], counters: &[(&str, u64)]) -> RunManifest {
        RunManifest {
            bin: "repro-all".to_owned(),
            wall_ms,
            phases: phase_ms
                .iter()
                .map(|(path, ms)| PhaseEntry {
                    path: (*path).to_owned(),
                    count: 1,
                    total_ms: *ms,
                    min_ms: *ms,
                    max_ms: *ms,
                })
                .collect(),
            counters: counters
                .iter()
                .map(|(k, v)| ((*k).to_owned(), *v))
                .collect(),
            ..RunManifest::default()
        }
    }

    fn base_and_current() -> (RunManifest, RunManifest) {
        let base = manifest(
            100.0,
            &[("run/profile", 60.0), ("run/simulate", 30.0)],
            &[
                ("sim.instructions", 1_000),
                ("sim.wall_ns", 1_000_000_000),
                ("trace_store.requests", 10),
                ("trace_store.memory_hits", 9),
            ],
        );
        let cur = manifest(
            150.0,
            &[
                ("run/profile", 61.0),
                ("run/simulate", 75.0),
                ("run/export", 5.0),
            ],
            &[
                ("sim.instructions", 1_000),
                ("sim.wall_ns", 2_000_000_000),
                ("trace_store.requests", 10),
                ("trace_store.memory_hits", 4),
            ],
        );
        (base, cur)
    }

    #[test]
    fn blames_largest_phase_first() {
        let (base, cur) = base_and_current();
        let diff = ManifestDiff::compute(&base, &cur);
        assert!((diff.wall_delta_ms() - 50.0).abs() < 1e-9);
        // simulate moved +45, export is new (+5), profile +1.
        assert_eq!(diff.phases[0].path, "run/simulate");
        assert!((diff.phases[0].delta_ms - 45.0).abs() < 1e-9);
        assert_eq!(diff.phases[1].path, "run/export");
        assert_eq!(diff.phases[1].pct, None, "new phase has no baseline");
        assert_eq!(diff.phases[2].path, "run/profile");
    }

    #[test]
    fn unchanged_counters_are_omitted_and_movement_sorted() {
        let (base, cur) = base_and_current();
        let diff = ManifestDiff::compute(&base, &cur);
        let keys: Vec<&str> = diff.counters.iter().map(|c| c.key.as_str()).collect();
        assert_eq!(keys, ["sim.wall_ns", "trace_store.memory_hits"]);
        assert_eq!(diff.counters[1].delta, -5);
    }

    #[test]
    fn derived_rates_track_throughput_halving() {
        let (base, cur) = base_and_current();
        let diff = ManifestDiff::compute(&base, &cur);
        let sim = &diff.rates[0];
        assert_eq!(sim.name, "sim_instr_per_sec");
        assert!((sim.base - 1_000.0).abs() < 1e-9);
        assert!((sim.cur - 500.0).abs() < 1e-9);
        assert!((sim.pct.unwrap() + 0.5).abs() < 1e-12);
    }

    #[test]
    fn renders_markdown() {
        let (base, cur) = base_and_current();
        let md = ManifestDiff::compute(&base, &cur).render_markdown();
        assert!(md.starts_with("### Manifest diff"));
        assert!(md.contains("| `run/simulate` | 30.00 | 75.00 | +45.00 |"));
        assert!(md.contains("| `sim.wall_ns` |"));
        assert!(md.contains("| `sim_instr_per_sec` |"));
    }

    #[test]
    fn top_limits_rows_per_section() {
        let names: Vec<String> = (1..=TOP_ROWS as u64 + 2)
            .map(|i| format!("run/p{i:02}"))
            .collect();
        let phases: Vec<(&str, f64)> = names
            .iter()
            .zip(1u32..)
            .map(|(n, ms)| (n.as_str(), f64::from(ms)))
            .collect();
        let counters: Vec<(&str, u64)> = names.iter().map(|n| n.as_str()).zip(1..).collect();
        let base = manifest(100.0, &[], &[]);
        let cur = manifest(100.0, &phases, &counters);
        let md = ManifestDiff::compute(&base, &cur).render_markdown();
        // Each section keeps its 15 biggest movers; the two smallest drop.
        assert_eq!(md.matches("`run/p17`").count(), 2, "phase and counter");
        assert_eq!(md.matches("`run/p03`").count(), 2);
        assert!(!md.contains("run/p02"));
        assert!(!md.contains("run/p01"));
    }

    #[test]
    fn identical_manifests_diff_to_nothing() {
        let (base, _) = base_and_current();
        let diff = ManifestDiff::compute(&base, &base.clone());
        assert_eq!(diff.wall_delta_ms(), 0.0);
        assert!(diff.counters.is_empty());
        assert!(diff.gauges.is_empty());
        assert!(diff.phases.iter().all(|p| p.delta_ms == 0.0));
    }

    #[test]
    fn attribution_and_profile_are_not_diffed() {
        use crate::attribution::{AttributionRun, AttributionTotals};
        use crate::manifest::{PhaseShare, ProfileSection};
        // Both sections present on both sides, and both moved.
        let annotate = |m: RunManifest, raw_correct: u64, share: f64| {
            let run = AttributionRun {
                workload: "compress".to_owned(),
                totals: AttributionTotals {
                    accesses: 100,
                    raw_correct,
                    ..AttributionTotals::default()
                },
                ..AttributionRun::default()
            };
            let profile = ProfileSection {
                phases: vec![PhaseShare {
                    path: "run/profile".to_owned(),
                    self_share: share,
                    total_share: share,
                }],
                ..ProfileSection::default()
            };
            m.with_attribution(vec![run]).with_profile(Some(profile))
        };
        let (base, cur) = base_and_current();
        let plain = ManifestDiff::compute(&base, &cur).render_markdown();
        let annotated = ManifestDiff::compute(&annotate(base, 90, 0.12), &annotate(cur, 40, 0.31));
        assert_eq!(annotated.render_markdown(), plain);
    }
}
