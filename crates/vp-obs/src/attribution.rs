//! Passive, serialisable per-PC attribution results.
//!
//! The live accounting (cause taxonomy, per-PC tables) lives in
//! `vp-predictor`; this module holds the *observed results* in plain
//! string-keyed form so the manifest, `attribution-report` and
//! `metrics-check` can carry them without depending on predictor types.
//! One [`AttributionRun`] describes one predictor replay (a workload ×
//! config × threshold point): exact whole-table totals plus the top-K
//! hottest mispredicting PCs, each with its cause breakdown and
//! profile-drift (profiled accuracy minus observed replay accuracy — the
//! paper's central assumption, measured per instruction).
//!
//! Everything here is derived from exact integer counters, so runs are
//! bit-identical at any `--jobs` count and totals
//! reconcile exactly with `PredictorStats` (checked by `vp-verify`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::manifest::ManifestError;

/// Every attribution cause name, in stable report order (must match
/// `vp_predictor::AttributionCause::ALL`).
pub const CAUSE_ORDER: [&str; 6] = [
    "cold",
    "conflict",
    "stride-break",
    "last-value-churn",
    "class-mismatch",
    "uncovered",
];

/// One static instruction's observed prediction behaviour.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AttributionPc {
    /// Static instruction address (text index).
    pub pc: u64,
    /// The profile directive the instruction carried (`none`, `lv`,
    /// `stride` — `Directive::suffix` names).
    pub directive: String,
    /// Dynamic accesses at this PC.
    pub accesses: u64,
    /// Accesses that found a table entry.
    pub hits: u64,
    /// Raw predictions that matched the actual value.
    pub raw_correct: u64,
    /// Accesses where the prediction was actually used.
    pub speculated: u64,
    /// Used predictions that were correct.
    pub speculated_correct: u64,
    /// Raw-incorrect accesses per cause (zero-count causes omitted);
    /// values sum to `accesses - raw_correct`.
    pub causes: BTreeMap<String, u64>,
    /// The accuracy the Phase-2 profile promised under this PC's
    /// directive; `None` when the profile never saw the PC.
    pub profiled_accuracy: Option<f64>,
    /// Profile drift: `profiled_accuracy - raw_accuracy()`. Positive
    /// means the profile over-promised. `None` without a profile record.
    pub drift: Option<f64>,
}

impl AttributionPc {
    /// Observed raw prediction accuracy at this PC, in `[0, 1]`.
    #[must_use]
    pub fn raw_accuracy(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.raw_correct as f64 / self.accesses as f64
        }
    }

    /// Used predictions that were wrong.
    #[must_use]
    pub fn speculated_incorrect(&self) -> u64 {
        self.speculated - self.speculated_correct
    }

    /// The cause with the largest count (ties go to the earlier cause in
    /// [`CAUSE_ORDER`]); `None` when the PC never mispredicted.
    #[must_use]
    pub fn dominant_cause(&self) -> Option<&str> {
        let mut best: Option<(&str, u64)> = None;
        for name in CAUSE_ORDER {
            let n = self.causes.get(name).copied().unwrap_or(0);
            if n > 0 && best.is_none_or(|(_, b)| n > b) {
                best = Some((name, n));
            }
        }
        best.map(|(name, _)| name)
    }

    fn to_json(&self) -> Json {
        let mut o = Json::obj()
            .with("pc", self.pc)
            .with("directive", self.directive.as_str())
            .with("accesses", self.accesses)
            .with("hits", self.hits)
            .with("raw_correct", self.raw_correct)
            .with("speculated", self.speculated)
            .with("speculated_correct", self.speculated_correct)
            .with("causes", u64_map_json(&self.causes));
        if let Some(p) = self.profiled_accuracy {
            o = o.with("profiled_accuracy", p);
        }
        if let Some(d) = self.drift {
            o = o.with("drift", d);
        }
        o
    }

    fn parse(v: &Json) -> Result<AttributionPc, ManifestError> {
        let field = |k: &'static str| v.get(k).ok_or(ManifestError::Field(k));
        let num =
            |k: &'static str| field(k).and_then(|j| j.as_u64().ok_or(ManifestError::Field(k)));
        Ok(AttributionPc {
            pc: num("pc")?,
            directive: field("directive")?
                .as_str()
                .ok_or(ManifestError::Field("directive"))?
                .to_owned(),
            accesses: num("accesses")?,
            hits: num("hits")?,
            raw_correct: num("raw_correct")?,
            speculated: num("speculated")?,
            speculated_correct: num("speculated_correct")?,
            causes: field("causes")?
                .as_u64_map()
                .ok_or(ManifestError::Field("causes"))?,
            profiled_accuracy: v
                .get("profiled_accuracy")
                .map(|j| j.as_f64().ok_or(ManifestError::Field("profiled_accuracy")))
                .transpose()?,
            drift: v
                .get("drift")
                .map(|j| j.as_f64().ok_or(ManifestError::Field("drift")))
                .transpose()?,
        })
    }
}

/// Exact whole-table totals of one replay (independent of the top-K
/// selection, so reconciliation against `PredictorStats` never depends
/// on K).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AttributionTotals {
    /// Static PCs tracked.
    pub pcs: u64,
    /// Dynamic accesses.
    pub accesses: u64,
    /// Accesses that found an entry.
    pub hits: u64,
    /// Raw-correct accesses.
    pub raw_correct: u64,
    /// Accesses that used the prediction.
    pub speculated: u64,
    /// Used-and-correct accesses.
    pub speculated_correct: u64,
    /// Cause counts over the whole table (zero-count causes omitted).
    pub causes: BTreeMap<String, u64>,
}

impl AttributionTotals {
    /// Raw prediction accuracy over all accesses, in `[0, 1]`.
    #[must_use]
    pub fn raw_accuracy(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.raw_correct as f64 / self.accesses as f64
        }
    }

    /// Accuracy of the predictions the machine actually used.
    #[must_use]
    pub fn effective_accuracy(&self) -> f64 {
        if self.speculated == 0 {
            0.0
        } else {
            self.speculated_correct as f64 / self.speculated as f64
        }
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .with("pcs", self.pcs)
            .with("accesses", self.accesses)
            .with("hits", self.hits)
            .with("raw_correct", self.raw_correct)
            .with("speculated", self.speculated)
            .with("speculated_correct", self.speculated_correct)
            .with("causes", u64_map_json(&self.causes))
    }

    fn parse(v: &Json) -> Result<AttributionTotals, ManifestError> {
        let num = |k: &'static str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or(ManifestError::Field(k))
        };
        Ok(AttributionTotals {
            pcs: num("pcs")?,
            accesses: num("accesses")?,
            hits: num("hits")?,
            raw_correct: num("raw_correct")?,
            speculated: num("speculated")?,
            speculated_correct: num("speculated_correct")?,
            causes: v
                .get("causes")
                .and_then(Json::as_u64_map)
                .ok_or(ManifestError::Field("causes"))?,
        })
    }
}

/// One predictor replay's attribution: a workload × config (× optional
/// classification threshold) point.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AttributionRun {
    /// Workload name (`compress`, `ijpeg`, …).
    pub workload: String,
    /// Predictor configuration label (`PredictorConfig::label`).
    pub config: String,
    /// Classification threshold of the profile sweep point, when the
    /// replay came from a threshold sweep.
    pub threshold: Option<f64>,
    /// Exact whole-table totals.
    pub totals: AttributionTotals,
    /// The top-K hottest mispredicting PCs (already ranked by the
    /// deterministic speculated-incorrect / raw-incorrect / address
    /// order).
    pub pcs: Vec<AttributionPc>,
}

impl AttributionRun {
    /// A `workload/config@threshold` display label identifying the run.
    #[must_use]
    pub fn label(&self) -> String {
        match self.threshold {
            Some(t) => format!("{}/{}@{:.2}", self.workload, self.config, t),
            None => format!("{}/{}", self.workload, self.config),
        }
    }

    /// Serialises the run for the manifest's `attribution` array.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj()
            .with("workload", self.workload.as_str())
            .with("config", self.config.as_str());
        o = match self.threshold {
            Some(t) => o.with("threshold", t),
            None => o.with("threshold", Json::Null),
        };
        o.with("totals", self.totals.to_json()).with(
            "pcs",
            Json::Arr(self.pcs.iter().map(AttributionPc::to_json).collect()),
        )
    }

    /// Parses a run back from its JSON form.
    ///
    /// # Errors
    ///
    /// Rejects missing or mistyped fields with a field-naming message.
    pub fn parse(v: &Json) -> Result<AttributionRun, ManifestError> {
        let field = |k: &'static str| v.get(k).ok_or(ManifestError::Field(k));
        let threshold = match field("threshold")? {
            Json::Null => None,
            other => Some(other.as_f64().ok_or(ManifestError::Field("threshold"))?),
        };
        Ok(AttributionRun {
            workload: field("workload")?
                .as_str()
                .ok_or(ManifestError::Field("workload"))?
                .to_owned(),
            config: field("config")?
                .as_str()
                .ok_or(ManifestError::Field("config"))?
                .to_owned(),
            threshold,
            totals: AttributionTotals::parse(field("totals")?)?,
            pcs: field("pcs")?
                .as_arr()
                .ok_or(ManifestError::Field("pcs"))?
                .iter()
                .map(AttributionPc::parse)
                .collect::<Result<Vec<_>, _>>()?,
        })
    }
}

fn u64_map_json(m: &BTreeMap<String, u64>) -> Json {
    Json::Obj(m.iter().map(|(k, v)| (k.clone(), Json::from(*v))).collect())
}

fn fmt_opt_pct(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{:.1}%", 100.0 * v),
        None => "-".to_owned(),
    }
}

/// Formats a drift value in signed percentage points (`+12.3pp`).
fn fmt_drift(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{:+.1}pp", 100.0 * v),
        None => "-".to_owned(),
    }
}

/// Renders runs as GitHub-flavoured Markdown (for
/// `$GITHUB_STEP_SUMMARY`): per run, the totals, the cause counts in
/// [`CAUSE_ORDER`] and at most `top` PCs (0 means all carried PCs).
#[must_use]
pub fn render_report_markdown(runs: &[AttributionRun], top: usize) -> String {
    let take = |n: usize| if top == 0 { n } else { n.min(top) };
    let mut out = String::new();
    for run in runs {
        let t = &run.totals;
        let _ = writeln!(out, "### Attribution: `{}`", run.label());
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{} PCs, {} accesses, raw accuracy **{:.1}%**, effective accuracy **{:.1}%**",
            t.pcs,
            t.accesses,
            100.0 * t.raw_accuracy(),
            100.0 * t.effective_accuracy(),
        );
        let _ = writeln!(out);
        let causes: Vec<String> = CAUSE_ORDER
            .iter()
            .filter_map(|&c| {
                let n = t.causes.get(c).copied().unwrap_or(0);
                (n > 0).then(|| format!("{c} {n}"))
            })
            .collect();
        let _ = writeln!(
            out,
            "causes: {}",
            if causes.is_empty() {
                "none".to_owned()
            } else {
                causes.join(", ")
            }
        );
        let _ = writeln!(out);
        if run.pcs.is_empty() {
            continue;
        }
        let _ = writeln!(
            out,
            "| pc | directive | accesses | raw acc | spec wrong | dominant cause | profiled | drift |"
        );
        let _ = writeln!(out, "|---|---|---:|---:|---:|---|---:|---:|");
        for pc in run.pcs.iter().take(take(run.pcs.len())) {
            let _ = writeln!(
                out,
                "| `@{}` | {} | {} | {:.1}% | {} | {} | {} | {} |",
                pc.pc,
                pc.directive,
                pc.accesses,
                100.0 * pc.raw_accuracy(),
                pc.speculated_incorrect(),
                pc.dominant_cause().unwrap_or("-"),
                fmt_opt_pct(pc.profiled_accuracy),
                fmt_drift(pc.drift),
            );
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run() -> AttributionRun {
        let mut causes = BTreeMap::new();
        causes.insert("stride-break".to_owned(), 30u64);
        causes.insert("cold".to_owned(), 10u64);
        AttributionRun {
            workload: "compress".to_owned(),
            config: "stride[512x2]/profile".to_owned(),
            threshold: Some(0.9),
            totals: AttributionTotals {
                pcs: 2,
                accesses: 100,
                hits: 90,
                raw_correct: 60,
                speculated: 80,
                speculated_correct: 55,
                causes: causes.clone(),
            },
            pcs: vec![AttributionPc {
                pc: 42,
                directive: "stride".to_owned(),
                accesses: 70,
                hits: 65,
                raw_correct: 35,
                speculated: 60,
                speculated_correct: 32,
                causes,
                profiled_accuracy: Some(0.93),
                drift: Some(0.43),
            }],
        }
    }

    #[test]
    fn round_trips_through_json() {
        let r = run();
        let text = r.to_json().to_string();
        let back = AttributionRun::parse(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        // Canonical: re-serialisation is byte-identical.
        assert_eq!(back.to_json().to_string(), text);
    }

    #[test]
    fn null_threshold_and_missing_drift_round_trip() {
        let mut r = run();
        r.threshold = None;
        r.pcs[0].profiled_accuracy = None;
        r.pcs[0].drift = None;
        let text = r.to_json().to_string();
        assert!(text.contains(r#""threshold":null"#));
        assert!(!text.contains("profiled_accuracy"));
        let back = AttributionRun::parse(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn dominant_cause_breaks_ties_in_cause_order() {
        let mut pc = AttributionPc::default();
        assert_eq!(pc.dominant_cause(), None);
        pc.causes.insert("uncovered".to_owned(), 5);
        pc.causes.insert("cold".to_owned(), 5);
        // Tie at 5: `cold` comes earlier in CAUSE_ORDER.
        assert_eq!(pc.dominant_cause(), Some("cold"));
        pc.causes.insert("stride-break".to_owned(), 9);
        assert_eq!(pc.dominant_cause(), Some("stride-break"));
    }

    #[test]
    fn labels_and_ratios() {
        let r = run();
        assert_eq!(r.label(), "compress/stride[512x2]/profile@0.90");
        assert!((r.totals.raw_accuracy() - 0.6).abs() < 1e-12);
        assert!((r.totals.effective_accuracy() - 55.0 / 80.0).abs() < 1e-12);
        assert_eq!(r.pcs[0].speculated_incorrect(), 28);
    }

    #[test]
    fn renders_markdown() {
        let md = render_report_markdown(&[run()], 10);
        assert!(md.starts_with("### Attribution: `compress/stride[512x2]/profile@0.90`"));
        assert!(md.contains("\ncauses: cold 10, stride-break 30\n"));
        assert!(md.contains("| `@42` |"));
        assert!(md.contains("93.0%"));
        assert!(md.contains("+43.0pp"));
    }

    #[test]
    fn top_limits_pc_rows() {
        let mut r = run();
        let mut second = r.pcs[0].clone();
        second.pc = 99;
        r.pcs.push(second);
        let top = render_report_markdown(&[r.clone()], 1);
        assert!(top.contains("@42"));
        assert!(!top.contains("@99"));
        let all = render_report_markdown(&[r], 0);
        assert!(all.contains("@99"));
    }

    #[test]
    fn parse_rejects_missing_fields() {
        let bad = Json::parse(r#"{"workload":"w","config":"c"}"#).unwrap();
        assert!(AttributionRun::parse(&bad).is_err());
    }
}
