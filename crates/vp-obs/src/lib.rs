#![warn(missing_docs)]

//! # vp-obs — zero-dependency structured observability for provp
//!
//! The experiment pipeline (compile → profile → annotate → simulate) is
//! cached and parallel; this crate makes it *visible* without perturbing
//! it. Three layers, all dependency-free (the workspace stays
//! offline-buildable):
//!
//! 1. **Spans** ([`span`](mod@span)) — hierarchical wall-clock timing on a
//!    monotonic clock, recorded into a process-global, thread-safe
//!    [`Registry`]. Worker threads spawned by `parallel_map` adopt their
//!    parent's span path (see [`span::adopt`]), so per-phase totals
//!    aggregate across threads.
//! 2. **Metrics** ([`metrics`]) — typed counters, gauges and decile
//!    histograms (reusing [`vp_stats::DecileHistogram`]) under static
//!    string keys. Counters saturate instead of wrapping; updates are
//!    relaxed atomics, cheap enough for per-run (never per-instruction)
//!    recording.
//! 3. **Exporters** ([`export`], [`manifest`]) — a human-readable table
//!    on stderr and a machine-readable JSON *run manifest* that captures
//!    per-phase wall time, cache behaviour, simulator throughput,
//!    predictor table health and peak RSS. The JSON round-trips through
//!    the in-tree hand-rolled parser in [`json`] — no serde.
//!
//! On top of the aggregates sit further layers; the time-resolved one
//! is opt-in and bounded:
//!
//! - **Sampling** ([`sampler`]) — one background [`Ticker`] thread that
//!   snapshots the counter/gauge registry mid-run (the manifest's
//!   `samples` series) every `--sample-ms`.
//! - **Profiling** ([`profiler`]) — every span close records its self
//!   time (its wall time minus the spans closed inside it), so the
//!   registry's self times partition each thread's time exactly; they
//!   fold into collapsed stacks (`a;b;c <µs>`, readable by
//!   `flamegraph.pl` or speedscope) and the manifest's `profile` section
//!   that `metrics-check` can gate.
//! - **Diffing** ([`diff`]) — attribution of wall-clock and counter
//!   deltas between two manifests as a markdown blame table, powering
//!   the `manifest-diff` binary.
//! - **Prediction attribution** ([`attribution`]) — passive per-PC
//!   misprediction-cause and profile-drift results, embedded as the
//!   manifest's `attribution` array and rendered as markdown by the
//!   `attribution-report` binary.
//!
//! Instrumentation is observation-only by design: nothing in this crate
//! writes to stdout, and nothing feeds back into simulation results, so
//! golden experiment output stays byte-identical whether or not a
//! manifest is requested.
//!
//! ## Example
//!
//! ```
//! use vp_obs::{metrics, span};
//!
//! {
//!     let _phase = span("example/phase");
//!     metrics::counter("example.items").add(3);
//! }
//! let snap = vp_obs::global().snapshot();
//! assert_eq!(snap.counters["example.items"], 3);
//! assert_eq!(snap.spans["example/phase"].count, 1);
//! ```

pub mod attribution;
pub mod diff;
pub mod export;
pub mod json;
pub mod log;
pub mod manifest;
pub mod metrics;
pub mod profiler;
pub mod registry;
pub mod rss;
pub mod sampler;
pub mod span;

pub use attribution::{AttributionPc, AttributionRun, AttributionTotals};
pub use diff::ManifestDiff;
pub use export::{print_table, render_table, write_manifest};
pub use log::Level;
pub use manifest::{HotStack, PhaseShare, ProfileSection, RunManifest, SCHEMA_V5};
pub use metrics::{counter, gauge, histogram, Counter, Gauge, Histogram};
pub use profiler::Profile;
pub use registry::{global, Registry, Snapshot, SpanStat};
pub use sampler::{Sample, Ticker};
pub use span::{span, SpanGuard};
