//! Regression attribution between two run manifests.
//!
//! `metrics-check` can say *that* simulator throughput regressed; this
//! module says *where the time went*. [`ManifestDiff::compute`] compares
//! a baseline manifest against a current one and produces a blame
//! table: per-phase wall-clock deltas (sorted by absolute movement, so
//! the guiltiest phase is first), per-counter and per-gauge deltas, and
//! the derived-rate movement (`sim_instr_per_sec`, `trace_hit_rate`).
//!
//! Three renderers serve three consumers:
//!
//! - [`ManifestDiff::render_table`] — aligned text for a terminal or CI
//!   log (the `manifest-diff` binary's default);
//! - [`ManifestDiff::render_markdown`] — a GitHub-flavoured table for
//!   `$GITHUB_STEP_SUMMARY`;
//! - [`ManifestDiff::to_json`] — machine-readable, for downstream
//!   tooling.
//!
//! Samples do not participate in the diff; they exist to localise a
//! regression *within* one run, whereas the diff localises it *between*
//! runs. When both sides carry `attribution` runs, the diff additionally
//! blames accuracy movement on specific PCs and misprediction causes:
//! replays are matched by workload × config × threshold and each matched
//! pair contributes per-PC raw-accuracy deltas over the union of the two
//! top-K lists. When both sides carry a `profile` section, the diff
//! blames sample-share movement per phase ("phase X went from 12% to
//! 31% of samples"). An optional section present on only one side is
//! skipped.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::attribution::AttributionRun;
use crate::json::Json;
use crate::manifest::{ProfileSection, RunManifest};

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

/// One static instruction's accuracy movement between two attributed
/// replays of the same workload × config point.
#[derive(Debug, Clone, PartialEq)]
pub struct PcAccuracyDelta {
    /// Static instruction address.
    pub pc: u64,
    /// The PC's directive in the current run (baseline's when the PC
    /// left the current top-K).
    pub directive: String,
    /// Baseline raw accuracy; `None` when the PC is new to the top-K.
    pub base_accuracy: Option<f64>,
    /// Current raw accuracy; `None` when the PC left the top-K.
    pub cur_accuracy: Option<f64>,
    /// `cur - base` (missing side treated as 0, matching counters).
    pub delta: f64,
    /// The dominant misprediction cause in the current run (baseline's
    /// when absent from the current top-K), when any miss was charged.
    pub cause: Option<String>,
}

/// Accuracy movement of one attributed replay (workload × config ×
/// threshold) between baseline and current manifests.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionDelta {
    /// `workload/config@threshold` run label.
    pub run: String,
    /// Baseline whole-table raw accuracy.
    pub base_accuracy: f64,
    /// Current whole-table raw accuracy.
    pub cur_accuracy: f64,
    /// Baseline effective (used-prediction) accuracy.
    pub base_effective: f64,
    /// Current effective accuracy.
    pub cur_effective: f64,
    /// Per-PC blame over the union of the two runs' top-K lists,
    /// sorted by `|delta|` descending then PC; unmoved PCs omitted.
    pub pcs: Vec<PcAccuracyDelta>,
}

impl AttributionDelta {
    /// Whole-table raw-accuracy movement (current minus baseline).
    #[must_use]
    pub fn accuracy_delta(&self) -> f64 {
        self.cur_accuracy - self.base_accuracy
    }
}

/// One profiled phase's sample-share movement between two manifests.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseShareDelta {
    /// Slash-separated span path.
    pub path: String,
    /// Baseline share of samples passing through this phase (0 when the
    /// phase is new).
    pub base_total: f64,
    /// Current share of samples passing through this phase.
    pub cur_total: f64,
    /// Baseline share of samples ending exactly at this phase.
    pub base_self: f64,
    /// Current share of samples ending exactly at this phase.
    pub cur_self: f64,
}

impl PhaseShareDelta {
    /// Total-share movement (current minus baseline), in `[-1, 1]`.
    #[must_use]
    pub fn delta_total(&self) -> f64 {
        self.cur_total - self.base_total
    }

    /// Self-share movement (current minus baseline), in `[-1, 1]`.
    #[must_use]
    pub fn delta_self(&self) -> f64 {
        self.cur_self - self.base_self
    }
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
    /// Per-replay accuracy blame (empty when either side carries no
    /// attribution, or nothing moved).
    pub attribution: Vec<AttributionDelta>,
    /// Per-phase sample-share blame (empty when either side carries no
    /// profile, or nothing moved). Sorted by `|delta_total|` descending
    /// then path.
    pub profile: Vec<PhaseShareDelta>,
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

/// Formats an optional per-PC accuracy (`None` = the PC was outside
/// that side's top-K list).
fn fmt_opt_acc(a: Option<f64>) -> String {
    match a {
        Some(a) => format!("{:.1}%", 100.0 * a),
        None => "-".to_owned(),
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

fn attribution_deltas(base: &[AttributionRun], cur: &[AttributionRun]) -> Vec<AttributionDelta> {
    // Runs are matched by workload × config × threshold (bit-exact:
    // thresholds come from the same sweep constants on both sides).
    let key = |r: &AttributionRun| {
        (
            r.workload.clone(),
            r.config.clone(),
            r.threshold.map(f64::to_bits),
        )
    };
    let mut out = Vec::new();
    for c in cur {
        let Some(b) = base.iter().find(|b| key(b) == key(c)) else {
            continue; // new run: nothing to blame against
        };
        let base_by_pc: std::collections::BTreeMap<u64, &crate::attribution::AttributionPc> =
            b.pcs.iter().map(|p| (p.pc, p)).collect();
        let cur_by_pc: std::collections::BTreeMap<u64, &crate::attribution::AttributionPc> =
            c.pcs.iter().map(|p| (p.pc, p)).collect();
        let union: BTreeSet<u64> = base_by_pc.keys().chain(cur_by_pc.keys()).copied().collect();
        let mut pcs: Vec<PcAccuracyDelta> = union
            .into_iter()
            .filter_map(|pc| {
                let bp = base_by_pc.get(&pc);
                let cp = cur_by_pc.get(&pc);
                let base_accuracy = bp.map(|p| p.raw_accuracy());
                let cur_accuracy = cp.map(|p| p.raw_accuracy());
                let delta = cur_accuracy.unwrap_or(0.0) - base_accuracy.unwrap_or(0.0);
                if delta.abs() < 1e-12 {
                    return None; // no movement, no blame
                }
                let witness = cp.or(bp)?;
                Some(PcAccuracyDelta {
                    pc,
                    directive: witness.directive.clone(),
                    base_accuracy,
                    cur_accuracy,
                    delta,
                    cause: witness.dominant_cause().map(str::to_owned),
                })
            })
            .collect();
        pcs.sort_by(|a, b| {
            b.delta
                .abs()
                .partial_cmp(&a.delta.abs())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.pc.cmp(&b.pc))
        });
        let base_accuracy = b.totals.raw_accuracy();
        let cur_accuracy = c.totals.raw_accuracy();
        let base_effective = b.totals.effective_accuracy();
        let cur_effective = c.totals.effective_accuracy();
        let moved = (cur_accuracy - base_accuracy).abs() > 1e-12
            || (cur_effective - base_effective).abs() > 1e-12
            || !pcs.is_empty();
        if !moved {
            continue;
        }
        out.push(AttributionDelta {
            run: c.label(),
            base_accuracy,
            cur_accuracy,
            base_effective,
            cur_effective,
            pcs,
        });
    }
    out
}

fn profile_deltas(
    base: Option<&ProfileSection>,
    cur: Option<&ProfileSection>,
) -> Vec<PhaseShareDelta> {
    let (Some(b), Some(c)) = (base, cur) else {
        return Vec::new(); // one side unprofiled: nothing to blame
    };
    let shares = |s: &ProfileSection| -> std::collections::BTreeMap<String, (f64, f64)> {
        s.phases
            .iter()
            .map(|p| (p.path.clone(), (p.total_share, p.self_share)))
            .collect()
    };
    let base_by_path = shares(b);
    let cur_by_path = shares(c);
    let paths: BTreeSet<&String> = base_by_path.keys().chain(cur_by_path.keys()).collect();
    let mut out: Vec<PhaseShareDelta> = paths
        .into_iter()
        .filter_map(|path| {
            let (base_total, base_self) = base_by_path.get(path).copied().unwrap_or((0.0, 0.0));
            let (cur_total, cur_self) = cur_by_path.get(path).copied().unwrap_or((0.0, 0.0));
            if (cur_total - base_total).abs() < 1e-12 && (cur_self - base_self).abs() < 1e-12 {
                return None; // no movement, no blame
            }
            Some(PhaseShareDelta {
                path: path.clone(),
                base_total,
                cur_total,
                base_self,
                cur_self,
            })
        })
        .collect();
    out.sort_by(|a, b| {
        b.delta_total()
            .abs()
            .partial_cmp(&a.delta_total().abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.path.cmp(&b.path))
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
            attribution: attribution_deltas(&baseline.attribution, &current.attribution),
            profile: profile_deltas(baseline.profile.as_ref(), current.profile.as_ref()),
        }
    }

    /// End-to-end wall-clock movement in milliseconds.
    #[must_use]
    pub fn wall_delta_ms(&self) -> f64 {
        self.cur_wall_ms - self.base_wall_ms
    }

    /// Renders an aligned text blame table, showing at most `top`
    /// phases/counters/gauges each (0 means unlimited).
    #[must_use]
    pub fn render_table(&self, top: usize) -> String {
        let take = |n: usize| if top == 0 { n } else { n.min(top) };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== manifest diff: {} ({:.1} ms) -> {} ({:.1} ms), wall {:+.1} ms ({}) ==",
            self.base_bin,
            self.base_wall_ms,
            self.cur_bin,
            self.cur_wall_ms,
            self.wall_delta_ms(),
            fmt_pct(pct(self.base_wall_ms, self.wall_delta_ms())),
        );
        if !self.phases.is_empty() {
            let _ = writeln!(out, "-- phases (by |delta|) --");
            let width = self
                .phases
                .iter()
                .take(take(self.phases.len()))
                .map(|p| p.path.len())
                .max()
                .unwrap_or(5)
                .max(5);
            let _ = writeln!(
                out,
                "{:width$}  {:>12}  {:>12}  {:>12}  {:>8}",
                "phase", "base ms", "current ms", "delta ms", "delta"
            );
            for p in self.phases.iter().take(take(self.phases.len())) {
                let _ = writeln!(
                    out,
                    "{:width$}  {:>12.2}  {:>12.2}  {:>+12.2}  {:>8}",
                    p.path,
                    p.base_ms,
                    p.cur_ms,
                    p.delta_ms,
                    fmt_pct(p.pct)
                );
            }
        }
        for (title, rows) in [("counters", &self.counters), ("gauges", &self.gauges)] {
            if rows.is_empty() {
                continue;
            }
            let _ = writeln!(out, "-- {title} (by |delta|) --");
            let width = rows
                .iter()
                .take(take(rows.len()))
                .map(|c| c.key.len())
                .max()
                .unwrap_or(3)
                .max(3);
            for c in rows.iter().take(take(rows.len())) {
                let _ = writeln!(
                    out,
                    "{:width$}  {:>14} -> {:>14}  ({:+}, {})",
                    c.key,
                    c.base,
                    c.cur,
                    c.delta,
                    fmt_pct(c.pct)
                );
            }
        }
        if !self.attribution.is_empty() {
            let _ = writeln!(out, "-- attribution (accuracy blame) --");
            for a in self.attribution.iter().take(take(self.attribution.len())) {
                let _ = writeln!(
                    out,
                    "{}  raw {:.1}% -> {:.1}% ({:+.1}pp), effective {:.1}% -> {:.1}% ({:+.1}pp)",
                    a.run,
                    100.0 * a.base_accuracy,
                    100.0 * a.cur_accuracy,
                    100.0 * a.accuracy_delta(),
                    100.0 * a.base_effective,
                    100.0 * a.cur_effective,
                    100.0 * (a.cur_effective - a.base_effective),
                );
                for p in a.pcs.iter().take(take(a.pcs.len())) {
                    let _ = writeln!(
                        out,
                        "  @{:<7} [{}]  {} -> {}  ({:+.1}pp, {})",
                        p.pc,
                        p.directive,
                        fmt_opt_acc(p.base_accuracy),
                        fmt_opt_acc(p.cur_accuracy),
                        100.0 * p.delta,
                        p.cause.as_deref().unwrap_or("no misses"),
                    );
                }
            }
        }
        if !self.profile.is_empty() {
            let _ = writeln!(out, "-- profile (sample-share blame) --");
            let width = self
                .profile
                .iter()
                .take(take(self.profile.len()))
                .map(|p| p.path.len())
                .max()
                .unwrap_or(5)
                .max(5);
            for p in self.profile.iter().take(take(self.profile.len())) {
                let _ = writeln!(
                    out,
                    "{:width$}  total {:>5.1}% -> {:>5.1}% ({:+.1}pp), self {:>5.1}% -> {:>5.1}% ({:+.1}pp)",
                    p.path,
                    100.0 * p.base_total,
                    100.0 * p.cur_total,
                    100.0 * p.delta_total(),
                    100.0 * p.base_self,
                    100.0 * p.cur_self,
                    100.0 * p.delta_self(),
                );
            }
        }
        let _ = writeln!(out, "-- derived --");
        for r in &self.rates {
            let _ = writeln!(
                out,
                "{:18}  {:.3} -> {:.3}  ({})",
                r.name,
                r.base,
                r.cur,
                fmt_pct(r.pct)
            );
        }
        out
    }

    /// Renders a GitHub-flavoured Markdown blame table (for
    /// `$GITHUB_STEP_SUMMARY`), showing at most `top` rows per section
    /// (0 means unlimited).
    #[must_use]
    pub fn render_markdown(&self, top: usize) -> String {
        let take = |n: usize| if top == 0 { n } else { n.min(top) };
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
            for p in self.phases.iter().take(take(self.phases.len())) {
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
            for c in rows.iter().take(take(rows.len())) {
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
        if !self.attribution.is_empty() {
            let _ = writeln!(
                out,
                "| attributed run | raw acc | \u{394} raw | effective acc | \u{394} eff | guiltiest pc |"
            );
            let _ = writeln!(out, "|---|---:|---:|---:|---:|---|");
            for a in self.attribution.iter().take(take(self.attribution.len())) {
                let guiltiest = a
                    .pcs
                    .first()
                    .map(|p| {
                        format!(
                            "`@{}` {:+.1}pp ({})",
                            p.pc,
                            100.0 * p.delta,
                            p.cause.as_deref().unwrap_or("no misses")
                        )
                    })
                    .unwrap_or_else(|| "-".to_owned());
                let _ = writeln!(
                    out,
                    "| `{}` | {:.1}% \u{2192} {:.1}% | {:+.1}pp | {:.1}% \u{2192} {:.1}% | {:+.1}pp | {} |",
                    a.run,
                    100.0 * a.base_accuracy,
                    100.0 * a.cur_accuracy,
                    100.0 * a.accuracy_delta(),
                    100.0 * a.base_effective,
                    100.0 * a.cur_effective,
                    100.0 * (a.cur_effective - a.base_effective),
                    guiltiest,
                );
            }
            let _ = writeln!(out);
        }
        if !self.profile.is_empty() {
            let _ = writeln!(
                out,
                "| profiled phase | total share | \u{394} total | self share | \u{394} self |"
            );
            let _ = writeln!(out, "|---|---:|---:|---:|---:|");
            for p in self.profile.iter().take(take(self.profile.len())) {
                let _ = writeln!(
                    out,
                    "| `{}` | {:.1}% \u{2192} {:.1}% | {:+.1}pp | {:.1}% \u{2192} {:.1}% | {:+.1}pp |",
                    p.path,
                    100.0 * p.base_total,
                    100.0 * p.cur_total,
                    100.0 * p.delta_total(),
                    100.0 * p.base_self,
                    100.0 * p.cur_self,
                    100.0 * p.delta_self(),
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

    /// Serialises the full diff (no `top` truncation) as a JSON
    /// document under the `provp-manifest-diff/v1` schema.
    #[must_use]
    pub fn to_json(&self) -> String {
        let phases: Vec<Json> = self
            .phases
            .iter()
            .map(|p| {
                let mut o = Json::obj()
                    .with("path", p.path.as_str())
                    .with("base_ms", p.base_ms)
                    .with("cur_ms", p.cur_ms)
                    .with("delta_ms", p.delta_ms);
                if let Some(pc) = p.pct {
                    o = o.with("pct", pc);
                }
                o
            })
            .collect();
        let numeric = |rows: &[CounterDelta]| {
            Json::Arr(
                rows.iter()
                    .map(|c| {
                        let mut o = Json::obj()
                            .with("key", c.key.as_str())
                            .with("base", c.base)
                            .with("cur", c.cur)
                            // i128 deltas always fit f64's integer range
                            // here (u64 inputs); render as float.
                            .with("delta", c.delta as f64);
                        if let Some(pc) = c.pct {
                            o = o.with("pct", pc);
                        }
                        o
                    })
                    .collect(),
            )
        };
        let rates: Vec<Json> = self
            .rates
            .iter()
            .map(|r| {
                let mut o = Json::obj()
                    .with("name", r.name)
                    .with("base", r.base)
                    .with("cur", r.cur);
                if let Some(pc) = r.pct {
                    o = o.with("pct", pc);
                }
                o
            })
            .collect();
        let mut doc = Json::obj()
            .with("schema", "provp-manifest-diff/v1")
            .with("base_bin", self.base_bin.as_str())
            .with("cur_bin", self.cur_bin.as_str())
            .with("base_wall_ms", self.base_wall_ms)
            .with("cur_wall_ms", self.cur_wall_ms)
            .with("wall_delta_ms", self.wall_delta_ms())
            .with("phases", Json::Arr(phases))
            .with("counters", numeric(&self.counters))
            .with("gauges", numeric(&self.gauges))
            .with("rates", Json::Arr(rates));
        if !self.attribution.is_empty() {
            let runs: Vec<Json> = self
                .attribution
                .iter()
                .map(|a| {
                    let pcs: Vec<Json> = a
                        .pcs
                        .iter()
                        .map(|p| {
                            let mut o = Json::obj()
                                .with("pc", p.pc)
                                .with("directive", p.directive.as_str());
                            if let Some(acc) = p.base_accuracy {
                                o = o.with("base_accuracy", acc);
                            }
                            if let Some(acc) = p.cur_accuracy {
                                o = o.with("cur_accuracy", acc);
                            }
                            o = o.with("delta", p.delta);
                            if let Some(cause) = &p.cause {
                                o = o.with("cause", cause.as_str());
                            }
                            o
                        })
                        .collect();
                    Json::obj()
                        .with("run", a.run.as_str())
                        .with("base_accuracy", a.base_accuracy)
                        .with("cur_accuracy", a.cur_accuracy)
                        .with("base_effective", a.base_effective)
                        .with("cur_effective", a.cur_effective)
                        .with("pcs", Json::Arr(pcs))
                })
                .collect();
            doc = doc.with("attribution", Json::Arr(runs));
        }
        if !self.profile.is_empty() {
            let phases: Vec<Json> = self
                .profile
                .iter()
                .map(|p| {
                    Json::obj()
                        .with("path", p.path.as_str())
                        .with("base_total", p.base_total)
                        .with("cur_total", p.cur_total)
                        .with("delta_total", p.delta_total())
                        .with("base_self", p.base_self)
                        .with("cur_self", p.cur_self)
                        .with("delta_self", p.delta_self())
                })
                .collect();
            doc = doc.with("profile", Json::Arr(phases));
        }
        doc.to_string()
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
    fn renders_all_three_formats() {
        let (base, cur) = base_and_current();
        let diff = ManifestDiff::compute(&base, &cur);

        let table = diff.render_table(0);
        assert!(table.contains("run/simulate"));
        assert!(table.contains("+45.00"));
        assert!(table.contains("sim_instr_per_sec"));

        let md = diff.render_markdown(0);
        assert!(md.starts_with("### Manifest diff"));
        assert!(md.contains("| `run/simulate` |"));
        assert!(md.contains("| `sim.wall_ns` |"));

        let json = Json::parse(&diff.to_json()).expect("diff JSON parses");
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some("provp-manifest-diff/v1")
        );
        assert_eq!(
            json.get("phases").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
    }

    #[test]
    fn top_limits_rows_per_section() {
        let (base, cur) = base_and_current();
        let diff = ManifestDiff::compute(&base, &cur);
        let table = diff.render_table(1);
        assert!(table.contains("run/simulate"));
        assert!(!table.contains("run/profile"));
        let md = diff.render_markdown(1);
        assert!(md.contains("run/simulate"));
        assert!(!md.contains("run/profile"));
    }

    #[test]
    fn identical_manifests_diff_to_nothing() {
        let (base, _) = base_and_current();
        let diff = ManifestDiff::compute(&base, &base.clone());
        assert_eq!(diff.wall_delta_ms(), 0.0);
        assert!(diff.counters.is_empty());
        assert!(diff.gauges.is_empty());
        assert!(diff.phases.iter().all(|p| p.delta_ms == 0.0));
        assert!(diff.attribution.is_empty());
    }

    fn attributed(raw_correct: u64, pc_correct: u64) -> RunManifest {
        use crate::attribution::{AttributionPc, AttributionRun, AttributionTotals};
        let mut causes = std::collections::BTreeMap::new();
        causes.insert("stride-break".to_owned(), 100 - pc_correct);
        let (base, _) = base_and_current();
        base.clone().with_attribution(vec![AttributionRun {
            workload: "compress".to_owned(),
            config: "stride[512x2]/profile".to_owned(),
            threshold: Some(0.9),
            totals: AttributionTotals {
                pcs: 1,
                accesses: 1000,
                hits: 900,
                raw_correct,
                speculated: 800,
                speculated_correct: raw_correct.min(800),
                causes: causes.clone(),
            },
            pcs: vec![AttributionPc {
                pc: 42,
                directive: "stride".to_owned(),
                accesses: 100,
                hits: 95,
                raw_correct: pc_correct,
                speculated: 90,
                speculated_correct: pc_correct.min(90),
                causes,
                profiled_accuracy: Some(0.95),
                drift: None,
            }],
        }])
    }

    #[test]
    fn attribution_blames_the_moved_pc() {
        let diff = ManifestDiff::compute(&attributed(900, 90), &attributed(700, 40));
        assert_eq!(diff.attribution.len(), 1);
        let a = &diff.attribution[0];
        assert_eq!(a.run, "compress/stride[512x2]/profile@0.90");
        assert!((a.accuracy_delta() + 0.2).abs() < 1e-9);
        assert_eq!(a.pcs.len(), 1);
        assert_eq!(a.pcs[0].pc, 42);
        assert!((a.pcs[0].delta + 0.5).abs() < 1e-9);
        assert_eq!(a.pcs[0].cause.as_deref(), Some("stride-break"));

        let table = diff.render_table(0);
        assert!(table.contains("-- attribution (accuracy blame) --"));
        assert!(table.contains("@42"));
        let md = diff.render_markdown(0);
        assert!(md.contains("| `compress/stride[512x2]/profile@0.90` |"));
        assert!(md.contains("`@42`"));
        let json = Json::parse(&diff.to_json()).unwrap();
        let runs = json.get("attribution").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(
            runs[0].get("pcs").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
    }

    #[test]
    fn identical_attribution_is_omitted() {
        let diff = ManifestDiff::compute(&attributed(900, 90), &attributed(900, 90));
        assert!(diff.attribution.is_empty());
        assert!(!diff.render_table(0).contains("accuracy blame"));
        assert!(!diff.to_json().contains("\"attribution\""));
    }

    fn profiled(profile_share: f64) -> RunManifest {
        use crate::manifest::{PhaseShare, ProfileSection};
        let (base, _) = base_and_current();
        base.with_profile(Some(ProfileSection {
            hz: 99,
            samples: 1000,
            dropped: 0,
            threads: 2,
            hot_stacks: Vec::new(),
            phases: vec![
                PhaseShare {
                    path: "run".to_owned(),
                    self_share: 0.0,
                    total_share: 1.0,
                },
                PhaseShare {
                    path: "run/profile".to_owned(),
                    self_share: profile_share,
                    total_share: profile_share,
                },
                PhaseShare {
                    path: "run/simulate".to_owned(),
                    self_share: 1.0 - profile_share,
                    total_share: 1.0 - profile_share,
                },
            ],
        }))
    }

    #[test]
    fn profile_blames_the_phase_that_grew() {
        // "phase run/profile went from 12% to 31% of samples".
        let diff = ManifestDiff::compute(&profiled(0.12), &profiled(0.31));
        assert_eq!(diff.profile.len(), 2, "the unmoved root is omitted");
        let p = diff
            .profile
            .iter()
            .find(|p| p.path == "run/profile")
            .expect("the grown phase is blamed");
        assert!((p.delta_total() - 0.19).abs() < 1e-9);
        assert!((p.delta_self() - 0.19).abs() < 1e-9);

        let table = diff.render_table(0);
        assert!(table.contains("-- profile (sample-share blame) --"));
        assert!(table.contains("12.0% ->  31.0% (+19.0pp)"));
        let md = diff.render_markdown(0);
        assert!(md.contains("| `run/profile` | 12.0% \u{2192} 31.0% | +19.0pp |"));
        let json = Json::parse(&diff.to_json()).unwrap();
        let rows = json.get("profile").and_then(Json::as_arr).unwrap();
        assert!(rows
            .iter()
            .any(|r| r.get("path").and_then(Json::as_str) == Some("run/profile")));
    }

    #[test]
    fn identical_profiles_diff_to_nothing() {
        let diff = ManifestDiff::compute(&profiled(0.5), &profiled(0.5));
        assert!(diff.profile.is_empty());
        assert!(!diff.render_table(0).contains("sample-share blame"));
        assert!(!diff.to_json().contains("\"profile\""));
    }
}
