//! The machine-readable JSON run manifest.
//!
//! One manifest describes one bench-binary invocation: which binary ran
//! with which arguments, how wall-clock distributed over phases
//! (spans), every counter/gauge/histogram the run recorded, derived
//! rates (simulator throughput, cache hit rate) and peak RSS. Schema is
//! documented in `OBSERVABILITY.md`.
//!
//! Manifests round-trip through the serde-free parser in [`crate::json`]
//! — [`RunManifest::to_json`] then [`RunManifest::parse`] reproduces the
//! manifest exactly (modulo float formatting, which is shortest-roundtrip
//! and therefore lossless).
//!
//! ## Schema
//!
//! Every manifest is written as [`SCHEMA_V4`] and the parser accepts no
//! other identifier. Three sections are optional and left out when
//! empty: `samples` (the mid-run registry series, see
//! [`crate::sampler`]), `attribution` (per-PC misprediction attribution,
//! see [`crate::attribution`]) and `profile` (folded span-stack samples,
//! see [`crate::profiler`]). A document without them parses with the
//! sections empty.

use std::collections::BTreeMap;

use vp_stats::DecileHistogram;

use crate::attribution::AttributionRun;
use crate::json::{Json, ParseError};
use crate::registry::Snapshot;
use crate::sampler::Sample;

/// The manifest schema identifier, the only one written or read.
pub const SCHEMA_V4: &str = "provp-run-manifest/v4";

/// Wall-time aggregate of one span path.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseEntry {
    /// Hierarchical span path (`repro-all/table_2_1`).
    pub path: String,
    /// Completed instances.
    pub count: u64,
    /// Total wall time in milliseconds.
    pub total_ms: f64,
    /// Shortest instance, milliseconds.
    pub min_ms: f64,
    /// Longest instance, milliseconds.
    pub max_ms: f64,
}

/// One hot collapsed stack in the manifest's `profile` section.
#[derive(Debug, Clone, PartialEq)]
pub struct HotStack {
    /// Collapsed stack (`a;b;c`), one span name per frame.
    pub stack: String,
    /// Samples whose stack was exactly this.
    pub count: u64,
    /// `count` over all retained samples, in `[0, 1]`.
    pub share: f64,
}

/// One span path's sample shares in the `profile` section.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseShare {
    /// Slash-separated span path (same namespace as [`PhaseEntry`]).
    pub path: String,
    /// Share of samples whose stack ends exactly at this path.
    pub self_share: f64,
    /// Share of samples whose stack passes through this path (a
    /// prefix's total share is >= the sum of its children's).
    pub total_share: f64,
}

/// The folded sampling-profiler results embedded in a manifest.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileSection {
    /// Sampling cadence, Hz.
    pub hz: u64,
    /// Samples retained across all threads.
    pub samples: u64,
    /// Samples lost to ring overflow (drop-oldest).
    pub dropped: u64,
    /// Threads that contributed at least one sample.
    pub threads: u64,
    /// Hottest collapsed stacks, descending by count (top-K truncated).
    pub hot_stacks: Vec<HotStack>,
    /// Per-phase self/total sample shares, sorted by path.
    pub phases: Vec<PhaseShare>,
}

impl ProfileSection {
    /// Serialises the section (the manifest's `profile` value).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let hot_stacks: Vec<Json> = self
            .hot_stacks
            .iter()
            .map(|h| {
                Json::obj()
                    .with("stack", h.stack.as_str())
                    .with("count", h.count)
                    .with("share", h.share)
            })
            .collect();
        let phases: Vec<Json> = self
            .phases
            .iter()
            .map(|p| {
                Json::obj()
                    .with("path", p.path.as_str())
                    .with("self_share", p.self_share)
                    .with("total_share", p.total_share)
            })
            .collect();
        Json::obj()
            .with("hz", self.hz)
            .with("samples", self.samples)
            .with("dropped", self.dropped)
            .with("threads", self.threads)
            .with("hot_stacks", Json::Arr(hot_stacks))
            .with("phases", Json::Arr(phases))
    }

    /// Parses a `profile` value back into the section.
    ///
    /// # Errors
    ///
    /// Rejects missing or mistyped fields, naming the field.
    pub fn parse(v: &Json) -> Result<ProfileSection, ManifestError> {
        let field = |k: &'static str| v.get(k).ok_or(ManifestError::Field(k));
        let num = |k: &'static str| field(k)?.as_u64().ok_or_else(|| ManifestError::field(k));
        let hot_stacks = field("hot_stacks")?
            .as_arr()
            .ok_or_else(|| ManifestError::field("hot_stacks"))?
            .iter()
            .map(parse_hot_stack)
            .collect::<Result<Vec<_>, _>>()?;
        let phases = field("phases")?
            .as_arr()
            .ok_or_else(|| ManifestError::field("profile phases"))?
            .iter()
            .map(parse_phase_share)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ProfileSection {
            hz: num("hz")?,
            samples: num("samples")?,
            dropped: num("dropped")?,
            threads: num("threads")?,
            hot_stacks,
            phases,
        })
    }
}

/// Everything one bench-binary run observed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunManifest {
    /// The binary that produced this manifest.
    pub bin: String,
    /// Its command-line arguments.
    pub args: Vec<String>,
    /// End-to-end wall time of the run, milliseconds.
    pub wall_ms: f64,
    /// Peak resident set size in bytes (0 when unavailable).
    pub peak_rss_bytes: u64,
    /// Per-phase wall time, from the span registry.
    pub phases: Vec<PhaseEntry>,
    /// All counters.
    pub counters: BTreeMap<String, u64>,
    /// All gauges.
    pub gauges: BTreeMap<String, u64>,
    /// All histograms (ten decile bins each).
    pub histograms: BTreeMap<String, [u64; 10]>,
    /// Mid-run counter/gauge time series (left out of the document when
    /// empty).
    pub samples: Vec<Sample>,
    /// Per-PC attribution of one or more predictor replays (left out of
    /// the document when empty).
    pub attribution: Vec<AttributionRun>,
    /// Folded sampling-profiler results (left out when absent).
    pub profile: Option<ProfileSection>,
}

const NS_PER_MS: f64 = 1_000_000.0;

impl RunManifest {
    /// Builds a manifest from a registry snapshot.
    #[must_use]
    pub fn from_snapshot(
        bin: impl Into<String>,
        args: Vec<String>,
        wall_ms: f64,
        snapshot: &Snapshot,
    ) -> RunManifest {
        RunManifest {
            bin: bin.into(),
            args,
            wall_ms,
            peak_rss_bytes: crate::rss::peak_rss_bytes(),
            phases: snapshot
                .spans
                .iter()
                .map(|(path, stat)| PhaseEntry {
                    path: path.clone(),
                    count: stat.count,
                    total_ms: stat.total_ns as f64 / NS_PER_MS,
                    min_ms: stat.min_ns as f64 / NS_PER_MS,
                    max_ms: stat.max_ns as f64 / NS_PER_MS,
                })
                .collect(),
            counters: snapshot.counters.clone(),
            gauges: snapshot.gauges.clone(),
            histograms: snapshot
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.counts()))
                .collect(),
            samples: Vec::new(),
            attribution: Vec::new(),
            profile: None,
        }
    }

    /// Attaches a mid-run time series.
    #[must_use]
    pub fn with_samples(mut self, samples: Vec<Sample>) -> RunManifest {
        self.samples = samples;
        self
    }

    /// Attaches per-PC attribution runs.
    #[must_use]
    pub fn with_attribution(mut self, attribution: Vec<AttributionRun>) -> RunManifest {
        self.attribution = attribution;
        self
    }

    /// Attaches (or removes) the profiler section.
    #[must_use]
    pub fn with_profile(mut self, profile: Option<ProfileSection>) -> RunManifest {
        self.profile = profile;
        self
    }

    /// Simulator throughput in retired instructions per second, derived
    /// from the `sim.instructions` / `sim.wall_ns` counters (0 when the
    /// run simulated nothing).
    #[must_use]
    pub fn sim_instr_per_sec(&self) -> f64 {
        let instructions = self.counters.get("sim.instructions").copied().unwrap_or(0);
        let wall_ns = self.counters.get("sim.wall_ns").copied().unwrap_or(0);
        if wall_ns == 0 {
            0.0
        } else {
            instructions as f64 / (wall_ns as f64 / 1e9)
        }
    }

    /// TraceStore hit rate over all requests (memory + disk hits), in
    /// `[0, 1]`; 0 when the store was never used.
    #[must_use]
    pub fn trace_hit_rate(&self) -> f64 {
        let get = |k: &str| self.counters.get(k).copied().unwrap_or(0);
        let requests = get("trace_store.requests");
        if requests == 0 {
            0.0
        } else {
            (get("trace_store.memory_hits") + get("trace_store.disk_hits")) as f64 / requests as f64
        }
    }

    /// Serialises to the JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let phases: Vec<Json> = self
            .phases
            .iter()
            .map(|p| {
                Json::obj()
                    .with("path", p.path.as_str())
                    .with("count", p.count)
                    .with("total_ms", p.total_ms)
                    .with("min_ms", p.min_ms)
                    .with("max_ms", p.max_ms)
            })
            .collect();
        let map = |m: &BTreeMap<String, u64>| {
            Json::Obj(m.iter().map(|(k, v)| (k.clone(), Json::from(*v))).collect())
        };
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(k, bins)| {
                    (
                        k.clone(),
                        Json::Arr(bins.iter().map(|&b| Json::from(b)).collect()),
                    )
                })
                .collect(),
        );
        let derived = Json::obj()
            .with("sim_instr_per_sec", self.sim_instr_per_sec())
            .with("trace_hit_rate", self.trace_hit_rate());
        let mut doc = Json::obj()
            .with("schema", SCHEMA_V4)
            .with("bin", self.bin.as_str())
            .with(
                "args",
                Json::Arr(self.args.iter().map(|a| Json::from(a.as_str())).collect()),
            )
            .with("wall_ms", self.wall_ms)
            .with("peak_rss_bytes", self.peak_rss_bytes)
            .with("phases", Json::Arr(phases))
            .with("counters", map(&self.counters))
            .with("gauges", map(&self.gauges))
            .with("histograms", histograms);
        if !self.samples.is_empty() {
            let samples: Vec<Json> = self
                .samples
                .iter()
                .map(|s| {
                    Json::obj()
                        .with("t_ms", s.t_ms)
                        .with("counters", map(&s.counters))
                        .with("gauges", map(&s.gauges))
                })
                .collect();
            doc = doc.with("samples", Json::Arr(samples));
        }
        if !self.attribution.is_empty() {
            doc = doc.with(
                "attribution",
                Json::Arr(
                    self.attribution
                        .iter()
                        .map(AttributionRun::to_json)
                        .collect(),
                ),
            );
        }
        if let Some(profile) = &self.profile {
            doc = doc.with("profile", profile.to_json());
        }
        doc.with("derived", derived).to_string()
    }

    /// Parses a manifest back from its JSON form; optional sections the
    /// document leaves out parse empty.
    ///
    /// # Errors
    ///
    /// Rejects malformed JSON, any `schema` but [`SCHEMA_V4`], or
    /// structurally wrong fields (with a field-naming message).
    pub fn parse(text: &str) -> Result<RunManifest, ManifestError> {
        let doc = Json::parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| ManifestError::field("schema"))?;
        if schema != SCHEMA_V4 {
            return Err(ManifestError::Schema(schema.to_owned()));
        }
        let field = |k: &'static str| doc.get(k).ok_or(ManifestError::Field(k));
        let bin = field("bin")?
            .as_str()
            .ok_or_else(|| ManifestError::field("bin"))?
            .to_owned();
        let args = field("args")?
            .as_arr()
            .ok_or_else(|| ManifestError::field("args"))?
            .iter()
            .map(|a| a.as_str().map(str::to_owned))
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| ManifestError::field("args"))?;
        let wall_ms = field("wall_ms")?
            .as_f64()
            .ok_or_else(|| ManifestError::field("wall_ms"))?;
        let peak_rss_bytes = field("peak_rss_bytes")?
            .as_u64()
            .ok_or_else(|| ManifestError::field("peak_rss_bytes"))?;
        let phases = field("phases")?
            .as_arr()
            .ok_or_else(|| ManifestError::field("phases"))?
            .iter()
            .map(parse_phase)
            .collect::<Result<Vec<_>, _>>()?;
        let counters = field("counters")?
            .as_u64_map()
            .ok_or_else(|| ManifestError::field("counters"))?;
        let gauges = field("gauges")?
            .as_u64_map()
            .ok_or_else(|| ManifestError::field("gauges"))?;
        let histograms = match field("histograms")? {
            Json::Obj(members) => members
                .iter()
                .map(|(k, v)| parse_bins(v).map(|bins| (k.clone(), bins)))
                .collect::<Result<BTreeMap<_, _>, _>>()?,
            _ => return Err(ManifestError::field("histograms")),
        };
        // The three optional sections parse empty when left out.
        let samples = match doc.get("samples") {
            None => Vec::new(),
            Some(v) => v
                .as_arr()
                .ok_or_else(|| ManifestError::field("samples"))?
                .iter()
                .map(parse_sample)
                .collect::<Result<Vec<_>, _>>()?,
        };
        let attribution = match doc.get("attribution") {
            None => Vec::new(),
            Some(v) => v
                .as_arr()
                .ok_or_else(|| ManifestError::field("attribution"))?
                .iter()
                .map(AttributionRun::parse)
                .collect::<Result<Vec<_>, _>>()?,
        };
        let profile = doc.get("profile").map(ProfileSection::parse).transpose()?;
        Ok(RunManifest {
            bin,
            args,
            wall_ms,
            peak_rss_bytes,
            phases,
            counters,
            gauges,
            histograms,
            samples,
            attribution,
            profile,
        })
    }

    /// Rebuilds the decile histograms for analysis code.
    #[must_use]
    pub fn histogram(&self, key: &str) -> Option<DecileHistogram> {
        let bins = self.histograms.get(key)?;
        let mut h = DecileHistogram::new();
        for (i, &count) in bins.iter().enumerate() {
            for _ in 0..count.min(1_000_000) {
                h.add(i as f64 * 10.0 + 5.0);
            }
        }
        Some(h)
    }
}

fn parse_phase(v: &Json) -> Result<PhaseEntry, ManifestError> {
    let field = |k: &'static str| v.get(k).ok_or(ManifestError::Field(k));
    Ok(PhaseEntry {
        path: field("path")?
            .as_str()
            .ok_or_else(|| ManifestError::field("path"))?
            .to_owned(),
        count: field("count")?
            .as_u64()
            .ok_or_else(|| ManifestError::field("count"))?,
        total_ms: field("total_ms")?
            .as_f64()
            .ok_or_else(|| ManifestError::field("total_ms"))?,
        min_ms: field("min_ms")?
            .as_f64()
            .ok_or_else(|| ManifestError::field("min_ms"))?,
        max_ms: field("max_ms")?
            .as_f64()
            .ok_or_else(|| ManifestError::field("max_ms"))?,
    })
}

fn parse_hot_stack(v: &Json) -> Result<HotStack, ManifestError> {
    let field = |k: &'static str| v.get(k).ok_or(ManifestError::Field(k));
    Ok(HotStack {
        stack: field("stack")?
            .as_str()
            .ok_or_else(|| ManifestError::field("stack"))?
            .to_owned(),
        count: field("count")?
            .as_u64()
            .ok_or_else(|| ManifestError::field("hot-stack count"))?,
        share: field("share")?
            .as_f64()
            .ok_or_else(|| ManifestError::field("share"))?,
    })
}

fn parse_phase_share(v: &Json) -> Result<PhaseShare, ManifestError> {
    let field = |k: &'static str| v.get(k).ok_or(ManifestError::Field(k));
    Ok(PhaseShare {
        path: field("path")?
            .as_str()
            .ok_or_else(|| ManifestError::field("phase-share path"))?
            .to_owned(),
        self_share: field("self_share")?
            .as_f64()
            .ok_or_else(|| ManifestError::field("self_share"))?,
        total_share: field("total_share")?
            .as_f64()
            .ok_or_else(|| ManifestError::field("total_share"))?,
    })
}

fn parse_sample(v: &Json) -> Result<Sample, ManifestError> {
    let field = |k: &'static str| v.get(k).ok_or(ManifestError::Field(k));
    Ok(Sample {
        t_ms: field("t_ms")?
            .as_f64()
            .ok_or_else(|| ManifestError::field("t_ms"))?,
        counters: field("counters")?
            .as_u64_map()
            .ok_or_else(|| ManifestError::field("sample counters"))?,
        gauges: field("gauges")?
            .as_u64_map()
            .ok_or_else(|| ManifestError::field("sample gauges"))?,
    })
}

fn parse_bins(v: &Json) -> Result<[u64; 10], ManifestError> {
    let arr = v
        .as_arr()
        .ok_or_else(|| ManifestError::field("histogram bins"))?;
    if arr.len() != 10 {
        return Err(ManifestError::field("histogram bins (want 10)"));
    }
    let mut bins = [0u64; 10];
    for (slot, item) in bins.iter_mut().zip(arr) {
        *slot = item
            .as_u64()
            .ok_or_else(|| ManifestError::field("histogram bin"))?;
    }
    Ok(bins)
}

/// Why a manifest failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub enum ManifestError {
    /// The JSON itself was malformed.
    Json(ParseError),
    /// The `schema` field named anything but [`SCHEMA_V4`].
    Schema(String),
    /// A required field was missing or had the wrong type.
    Field(&'static str),
    /// Like [`ManifestError::Field`] with a dynamic description.
    FieldNamed(String),
}

impl ManifestError {
    fn field(name: &'static str) -> ManifestError {
        ManifestError::Field(name)
    }
}

impl From<ParseError> for ManifestError {
    fn from(e: ParseError) -> Self {
        ManifestError::Json(e)
    }
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::Json(e) => write!(f, "{e}"),
            ManifestError::Schema(s) => {
                write!(f, "unsupported manifest schema `{s}` (want `{SCHEMA_V4}`)")
            }
            ManifestError::Field(name) => write!(f, "missing or mistyped manifest field `{name}`"),
            ManifestError::FieldNamed(name) => {
                write!(f, "missing or mistyped manifest field `{name}`")
            }
        }
    }
}

impl std::error::Error for ManifestError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        let mut counters = BTreeMap::new();
        counters.insert("sim.instructions".to_owned(), 2_000_000u64);
        counters.insert("sim.wall_ns".to_owned(), 500_000_000u64);
        counters.insert("trace_store.requests".to_owned(), 10u64);
        counters.insert("trace_store.memory_hits".to_owned(), 7u64);
        counters.insert("trace_store.disk_hits".to_owned(), 1u64);
        let mut gauges = BTreeMap::new();
        gauges.insert("predictor.occupancy.max".to_owned(), 512u64);
        let mut histograms = BTreeMap::new();
        histograms.insert(
            "predictor.accuracy".to_owned(),
            [1, 0, 0, 0, 0, 0, 0, 0, 0, 4],
        );
        RunManifest {
            bin: "repro-all".to_owned(),
            args: vec![
                "--jobs=4".to_owned(),
                "--metrics-out=/tmp/m.json".to_owned(),
            ],
            wall_ms: 1234.5,
            peak_rss_bytes: 77_000_000,
            phases: vec![PhaseEntry {
                path: "repro-all/table_2_1".to_owned(),
                count: 1,
                total_ms: 100.25,
                min_ms: 100.25,
                max_ms: 100.25,
            }],
            counters,
            gauges,
            histograms,
            samples: Vec::new(),
            attribution: Vec::new(),
            profile: None,
        }
    }

    fn sample_full() -> RunManifest {
        use crate::attribution::{AttributionPc, AttributionRun, AttributionTotals};
        let mut counters = BTreeMap::new();
        counters.insert("trace_store.requests".to_owned(), 4u64);
        counters.insert("trace_store.memory_hits".to_owned(), 3u64);
        let mut causes = BTreeMap::new();
        causes.insert("stride-break".to_owned(), 4u64);
        let m = sample();
        let gauges = m.gauges.clone();
        m.with_samples(vec![
            Sample {
                t_ms: 10.5,
                counters: counters.clone(),
                gauges: BTreeMap::new(),
            },
            Sample {
                t_ms: 20.25,
                counters,
                gauges,
            },
        ])
        .with_attribution(vec![AttributionRun {
            workload: "compress".to_owned(),
            config: "stride[512x2]/profile".to_owned(),
            threshold: Some(0.9),
            totals: AttributionTotals {
                pcs: 1,
                accesses: 10,
                hits: 9,
                raw_correct: 6,
                speculated: 8,
                speculated_correct: 6,
                causes: causes.clone(),
            },
            pcs: vec![AttributionPc {
                pc: 17,
                directive: "stride".to_owned(),
                accesses: 10,
                hits: 9,
                raw_correct: 6,
                speculated: 8,
                speculated_correct: 6,
                causes,
                profiled_accuracy: Some(0.95),
                drift: Some(0.35),
            }],
        }])
        .with_profile(Some(ProfileSection {
            hz: 99,
            samples: 100,
            dropped: 3,
            threads: 2,
            hot_stacks: vec![HotStack {
                stack: "repro-all;predict".to_owned(),
                count: 60,
                share: 0.6,
            }],
            phases: vec![
                PhaseShare {
                    path: "repro-all".to_owned(),
                    self_share: 0.4,
                    total_share: 1.0,
                },
                PhaseShare {
                    path: "repro-all/predict".to_owned(),
                    self_share: 0.6,
                    total_share: 0.6,
                },
            ],
        }))
    }

    #[test]
    fn round_trips_through_hand_parser() {
        let full = sample_full();
        let only = |keep: &str| {
            let mut m = full.clone();
            if keep != "samples" {
                m.samples.clear();
            }
            if keep != "attribution" {
                m.attribution.clear();
            }
            if keep != "profile" {
                m.profile = None;
            }
            m
        };
        for m in [
            sample(),
            only("samples"),
            only("attribution"),
            only("profile"),
            full.clone(),
        ] {
            let text = m.to_json();
            assert!(text.contains(r#""schema":"provp-run-manifest/v4""#));
            // Empty optional sections are left out of the document.
            assert_eq!(text.contains(r#""samples":["#), !m.samples.is_empty());
            assert_eq!(
                text.contains(r#""attribution":["#),
                !m.attribution.is_empty()
            );
            assert_eq!(text.contains(r#""profile":{"#), m.profile.is_some());
            let back = RunManifest::parse(&text).unwrap();
            assert_eq!(back, m);
            // Canonical: re-serialisation is byte-identical.
            assert_eq!(back.to_json(), text);
        }
    }

    #[test]
    fn v2_round_trips_with_samples() {
        // Samples alone, which older writers marked v2, are written as v4.
        let m = sample_full()
            .with_attribution(Vec::new())
            .with_profile(None);
        let text = m.to_json();
        assert!(text.contains(r#""schema":"provp-run-manifest/v4""#));
        let back = RunManifest::parse(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.samples.len(), 2);
        // Canonical: re-serialisation is byte-identical.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn v3_round_trips_with_attribution() {
        // Attribution, which older writers marked v3, is written as v4.
        let m = sample_full().with_profile(None);
        let text = m.to_json();
        assert!(text.contains(r#""schema":"provp-run-manifest/v4""#));
        let back = RunManifest::parse(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.attribution.len(), 1);
        // Canonical: re-serialisation is byte-identical.
        assert_eq!(back.to_json(), text);
        // Attribution without samples round trips too.
        let no_samples = m.with_samples(Vec::new());
        let back = RunManifest::parse(&no_samples.to_json()).unwrap();
        assert_eq!(back, no_samples);
    }

    #[test]
    fn v4_round_trips_with_profile() {
        let m = sample_full();
        let back = RunManifest::parse(&m.to_json()).unwrap();
        assert_eq!(back.profile, m.profile);
        assert_eq!(back.profile.unwrap().phases.len(), 2);
    }

    #[test]
    fn pre_v4_schemas_are_rejected() {
        let text = sample().to_json();
        for schema in [
            "provp-run-manifest/v1",
            "provp-run-manifest/v2",
            "provp-run-manifest/v3",
            "other/v9",
        ] {
            let doc = text.replace("provp-run-manifest/v4", schema);
            assert_eq!(
                RunManifest::parse(&doc).unwrap_err(),
                ManifestError::Schema(schema.to_owned()),
                "{schema}"
            );
        }
    }

    #[test]
    fn profile_section_rejects_mistyped_fields() {
        let good = sample_full();
        let text = good.to_json();
        let broken = text.replace(r#""hz":99"#, r#""hz":"fast""#);
        assert!(matches!(
            RunManifest::parse(&broken).unwrap_err(),
            ManifestError::Field("hz")
        ));
        let broken = text.replace(r#""hot_stacks""#, r#""hot_snacks""#);
        assert!(matches!(
            RunManifest::parse(&broken).unwrap_err(),
            ManifestError::Field("hot_stacks")
        ));
    }

    #[test]
    fn derived_rates() {
        let m = sample();
        assert!((m.sim_instr_per_sec() - 4_000_000.0).abs() < 1e-6);
        assert!((m.trace_hit_rate() - 0.8).abs() < 1e-12);
        assert_eq!(RunManifest::default().sim_instr_per_sec(), 0.0);
        assert_eq!(RunManifest::default().trace_hit_rate(), 0.0);
    }

    #[test]
    fn rejects_wrong_schema_and_missing_fields() {
        let err = RunManifest::parse(r#"{"schema":"other/v9"}"#).unwrap_err();
        assert!(matches!(err, ManifestError::Schema(_)));
        let err = RunManifest::parse(r#"{"schema":"provp-run-manifest/v4"}"#).unwrap_err();
        assert!(matches!(err, ManifestError::Field("bin")));
        assert!(RunManifest::parse("not json").is_err());
    }

    #[test]
    fn from_snapshot_converts_units() {
        let r = crate::Registry::new();
        r.record_span("x", 2_000_000); // 2 ms
        let snap = r.snapshot();
        let m = RunManifest::from_snapshot("b", vec![], 9.0, &snap);
        assert_eq!(m.phases.len(), 1);
        assert_eq!(m.phases[0].path, "x");
        assert!((m.phases[0].total_ms - 2.0).abs() < 1e-9);
    }
}
