#![warn(missing_docs)]

//! # provp-bench — reproduction binaries and micro-benchmarks
//!
//! One `repro-*` binary per table/figure of the paper (run with
//! `cargo run --release -p provp-bench --bin repro-table-5-2`), a
//! `repro-all` binary that regenerates the whole evaluation in one pass,
//! `ablation-*` binaries for the extension studies, the `critical-path`
//! and `store-values` analyses, the `workload-report` /
//! `profile-workload` / `annotate-workload` utilities, and dependency-free
//! micro-benchmarks (see [`micro`]) for the performance-critical
//! components.
//!
//! All experiment binaries accept:
//!
//! ```text
//! --workloads=gcc,go,swim    subset of workloads (default: the paper's
//!                            nine; `swim`/`tomcatv`/`su2cor`/`hydro2d`
//!                            are opt-in extras)
//! --train-runs=N             training inputs per workload (default: 5)
//! --jobs=N                   worker threads for the experiment grid
//!                            (default: 1; output is byte-identical at
//!                            any job count)
//! --stream                   run predictor sweeps in streaming mode: the
//!                            reference simulation feeds the replay
//!                            kernel through a bounded block channel and
//!                            the trace is never materialised (peak RSS
//!                            independent of trace length; results
//!                            byte-identical to batch)
//! --block-pool=N             block buffers circulating in the streaming
//!                            channel (default 8, min 2); implies nothing
//!                            without --stream
//! --trace-cache=DIR          spill captured simulation traces to DIR and
//!                            reuse them on later runs
//! --metrics-out=FILE         write a JSON run manifest (phase wall times,
//!                            cache and predictor counters, throughput,
//!                            peak RSS) to FILE after the run
//! --metrics-table            print the same report human-readably to
//!                            stderr
//! --trace-out=FILE           record span begin/end and pipeline events
//!                            into a bounded in-memory ring and write a
//!                            Chrome `trace_event` JSON file (open in
//!                            Perfetto or chrome://tracing) after the run
//! --sample-ms=N              snapshot every counter/gauge every N ms on
//!                            the background ticker thread and embed the
//!                            series as the manifest's `samples` array
//! --attribution              classify every predictor misprediction by
//!                            per-PC cause and embed the result as the
//!                            manifest's `attribution` array (see
//!                            OBSERVABILITY.md)
//! --attribution-top=N        PCs exported per attributed run, hottest
//!                            mispredictors first (default 20; 0 = all)
//! --profile-hz=N             sample every thread's open-span stack N
//!                            times per second on the background ticker
//!                            thread and embed the folded result as the
//!                            manifest's `profile` section
//! --profile-out=FILE         write the collapsed-stack samples to FILE
//!                            (`a;b;c <count>` lines) plus a rendered
//!                            flamegraph SVG next to it (FILE with a
//!                            `.svg` extension); requires --profile-hz=
//! ```
//!
//! Every flag also accepts the space-separated form (`--jobs 4`); see
//! [`args::normalize`].
//!
//! With none of the observability flags set, the layer stays passive
//! and stdout is byte-identical to an uninstrumented run — the event
//! ring, ticker and exporters only write to the requested files and to
//! stderr, never stdout. Diagnostics on stderr are level-filtered via
//! `PROVP_LOG=error|warn|info|debug` (default `warn`).

pub mod args;
pub mod micro;

use std::path::PathBuf;
use std::time::Instant;

use provp_core::Suite;
use vp_obs::{obs_error, RunManifest};
use vp_workloads::WorkloadKind;

/// Options shared by every reproduction binary.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workloads to run.
    pub kinds: Vec<WorkloadKind>,
    /// Training runs per workload.
    pub train_runs: u32,
    /// Worker threads for the experiment grid (1 = serial).
    pub jobs: usize,
    /// Whether predictor sweeps run in streaming (bounded-memory) mode.
    pub stream: bool,
    /// Block-pool size for the streaming channel (min 2).
    pub block_pool: usize,
    /// On-disk trace cache directory, if any.
    pub trace_cache: Option<PathBuf>,
    /// Where to write the JSON run manifest, if anywhere.
    pub metrics_out: Option<PathBuf>,
    /// Whether to print the human-readable metrics report to stderr.
    pub metrics_table: bool,
    /// Where to write the Chrome `trace_event` JSON document, if
    /// anywhere (also enables the in-memory event ring).
    pub trace_out: Option<PathBuf>,
    /// Mid-run registry sampling cadence in milliseconds, if sampling
    /// was requested.
    pub sample_ms: Option<u64>,
    /// Whether to collect per-PC misprediction attribution.
    /// Observation-only: stdout stays byte-identical either way.
    pub attribution: bool,
    /// PCs exported per attributed run (0 = all).
    pub attribution_top: usize,
    /// Span-stack sampling cadence in Hz, if profiling was requested.
    /// Observation-only: stdout stays byte-identical either way.
    pub profile_hz: Option<u32>,
    /// Where to write the collapsed-stack profile (and, next to it, the
    /// flamegraph SVG), if anywhere. Requires `profile_hz`.
    pub profile_out: Option<PathBuf>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            kinds: WorkloadKind::ALL.to_vec(),
            train_runs: 5,
            jobs: 1,
            stream: false,
            block_pool: provp_core::replay::stream::DEFAULT_BLOCK_POOL,
            trace_cache: None,
            metrics_out: None,
            metrics_table: false,
            trace_out: None,
            sample_ms: None,
            attribution: false,
            attribution_top: 20,
            profile_hz: None,
            profile_out: None,
        }
    }
}

impl Options {
    /// Parses command-line arguments (see the crate docs for the syntax).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown flags or workload
    /// names.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let mut opts = Options::default();
        for arg in args::normalize(args, &["--metrics-table", "--attribution", "--stream"])? {
            if let Some(list) = arg.strip_prefix("--workloads=") {
                opts.kinds = list
                    .split(',')
                    .map(|name| {
                        WorkloadKind::from_name(name.trim())
                            .ok_or_else(|| format!("unknown workload `{name}`"))
                    })
                    .collect::<Result<_, _>>()?;
            } else if let Some(n) = arg.strip_prefix("--train-runs=") {
                opts.train_runs = n
                    .parse()
                    .map_err(|_| format!("bad --train-runs value `{n}`"))?;
            } else if let Some(n) = arg.strip_prefix("--jobs=") {
                opts.jobs = match n {
                    "auto" => provp_core::exec::default_jobs(),
                    n => n
                        .parse()
                        .ok()
                        .filter(|&j| j >= 1)
                        .ok_or_else(|| format!("bad --jobs value `{n}` (want >= 1 or auto)"))?,
                };
            } else if arg == "--stream" {
                opts.stream = true;
            } else if let Some(n) = arg.strip_prefix("--block-pool=") {
                opts.block_pool = n
                    .parse()
                    .ok()
                    .filter(|&b| b >= provp_core::replay::stream::MIN_BLOCK_POOL)
                    .ok_or_else(|| {
                        format!(
                            "bad --block-pool value `{n}` (want >= {})",
                            provp_core::replay::stream::MIN_BLOCK_POOL
                        )
                    })?;
            } else if let Some(dir) = arg.strip_prefix("--trace-cache=") {
                if dir.is_empty() {
                    return Err("empty --trace-cache path".to_owned());
                }
                opts.trace_cache = Some(PathBuf::from(dir));
            } else if let Some(path) = arg.strip_prefix("--metrics-out=") {
                if path.is_empty() {
                    return Err("empty --metrics-out path".to_owned());
                }
                opts.metrics_out = Some(PathBuf::from(path));
            } else if arg == "--metrics-table" {
                opts.metrics_table = true;
            } else if let Some(path) = arg.strip_prefix("--trace-out=") {
                if path.is_empty() {
                    return Err("empty --trace-out path".to_owned());
                }
                opts.trace_out = Some(PathBuf::from(path));
            } else if let Some(n) = arg.strip_prefix("--sample-ms=") {
                opts.sample_ms = Some(
                    n.parse()
                        .ok()
                        .filter(|&ms| ms >= 1)
                        .ok_or_else(|| format!("bad --sample-ms value `{n}` (want >= 1)"))?,
                );
            } else if arg == "--attribution" {
                opts.attribution = true;
            } else if let Some(n) = arg.strip_prefix("--attribution-top=") {
                opts.attribution_top = n.parse().map_err(|_| {
                    format!("bad --attribution-top value `{n}` (want an integer; 0 = all)")
                })?;
            } else if let Some(n) = arg.strip_prefix("--profile-hz=") {
                opts.profile_hz = Some(
                    n.parse()
                        .ok()
                        .filter(|&hz| hz >= 1)
                        .ok_or_else(|| format!("bad --profile-hz value `{n}` (want >= 1)"))?,
                );
            } else if let Some(path) = arg.strip_prefix("--profile-out=") {
                if path.is_empty() {
                    return Err("empty --profile-out path".to_owned());
                }
                opts.profile_out = Some(PathBuf::from(path));
            } else {
                return Err(format!(
                    "unknown argument `{arg}` (try --workloads=, --train-runs=, \
                     --jobs=, --stream, --block-pool=, --trace-cache=, \
                     --metrics-out=, --metrics-table, --trace-out=, --sample-ms=, \
                     --attribution, --attribution-top=, --profile-hz=, \
                     --profile-out=)"
                ));
            }
        }
        if opts.profile_out.is_some() && opts.profile_hz.is_none() {
            return Err(
                "--profile-out requires --profile-hz= (nothing would be sampled)".to_owned(),
            );
        }
        Ok(opts)
    }

    /// Parses the process's real arguments, exiting with a usage message on
    /// error.
    #[must_use]
    pub fn from_env() -> Options {
        match Options::parse(std::env::args().skip(1)) {
            Ok(o) => o,
            Err(msg) => {
                obs_error!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// Builds the experiment suite for these options.
    #[must_use]
    pub fn suite(&self) -> Suite {
        let mut suite = Suite::with_train_runs(self.train_runs).with_jobs(self.jobs);
        if self.stream {
            suite = suite.with_streaming(self.block_pool);
        }
        match &self.trace_cache {
            Some(dir) => suite.with_trace_dir(dir.clone()),
            None => suite,
        }
    }
}

/// Runs one experiment binary end to end: parses the process arguments,
/// builds the suite, executes `body` under a root span named after the
/// binary, and — when the observability flags ask for it — folds the
/// suite's trace-store statistics into the metric registry, records the
/// event stream, samples the registry and span stacks mid-run and emits
/// the run manifest and Chrome trace.
///
/// With no observability flags set this adds nothing observable: no
/// files, no stderr, and stdout exactly as `body` printed it.
pub fn run_experiment(bin: &'static str, body: impl FnOnce(&Options, &Suite)) {
    let opts = Options::from_env();
    run_experiment_with(bin, &opts, body);
}

/// Like [`run_experiment`], but with pre-parsed options (for binaries that
/// layer extra argument handling on top of [`Options`]).
pub fn run_experiment_with(bin: &'static str, opts: &Options, body: impl FnOnce(&Options, &Suite)) {
    let started = Instant::now();
    if opts.trace_out.is_some() {
        vp_obs::events::enable();
    }
    if opts.attribution {
        provp_core::attribution::enable(opts.attribution_top);
    }
    let suite = opts.suite();
    // The ticker must start before the root span opens: span-stack
    // mirroring only covers spans pushed after arming, so starting it
    // here makes every stack sample a full `bin/...` path. Its hook
    // republishes the trace store's lock-consistent counter block right
    // before every registry snapshot, so invariants like `memory_hits +
    // misses == requests` hold in every sample, not just at end of run.
    // Publishing is idempotent (`record_absolute`), so the hook and the
    // end-of-run publish never double count.
    let ticker = (opts.sample_ms.is_some() || opts.profile_hz.is_some()).then(|| {
        let schedule = vp_obs::Schedule {
            sample_every: opts.sample_ms.map(std::time::Duration::from_millis),
            profile_hz: opts.profile_hz,
            ..vp_obs::Schedule::default()
        };
        let store = suite.trace_store();
        let hook = move || publish_trace_store_stats(&store.stats());
        vp_obs::Ticker::start(schedule, vp_obs::global(), hook).unwrap_or_else(|e| {
            obs_error!("failed to start the sampling thread: {e}");
            std::process::exit(1);
        })
    });
    vp_obs::events::instant("experiment.start", 0);
    {
        let _root = vp_obs::span(bin);
        body(opts, &suite);
    }
    vp_obs::events::instant("experiment.finish", 0);
    let vp_obs::Harvest { samples, profile } = ticker.map(vp_obs::Ticker::stop).unwrap_or_default();
    // Drain + export the event stream *before* the manifest snapshot so
    // `trace.dropped_events` lands in the manifest's counters (the
    // ticker's stop already published `profiler.samples` /
    // `profiler.dropped_samples` the same way).
    emit_trace(opts);
    emit_profile(opts, profile.as_ref());
    emit_metrics(bin, opts, &suite, started, samples, profile);
}

/// Drains the global event stream and writes the Chrome trace when
/// `--trace-out=` asked for one. A no-op otherwise.
fn emit_trace(opts: &Options) {
    let Some(path) = &opts.trace_out else { return };
    let (events, dropped) = vp_obs::events::drain_global();
    vp_obs::counter("trace.dropped_events").record_absolute(dropped);
    if dropped > 0 {
        vp_obs::obs_warn!(
            "event ring dropped {dropped} events (oldest first); the Chrome \
             trace at {} is truncated",
            path.display()
        );
    }
    if let Err(e) = vp_obs::write_chrome_trace(&events, dropped, path) {
        obs_error!("failed to write Chrome trace to {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// Hot stacks exported into the manifest's `profile` section.
const PROFILE_TOP_K: usize = 20;

/// Writes the collapsed-stack profile and its flamegraph SVG when
/// `--profile-out=` asked for them. A no-op otherwise.
fn emit_profile(opts: &Options, profile: Option<&vp_obs::Profile>) {
    let Some(path) = &opts.profile_out else {
        return;
    };
    let Some(profile) = profile else { return };
    if let Err(e) = vp_obs::export::write_atomically(path, &profile.folded_text()) {
        obs_error!("failed to write folded profile to {}: {e}", path.display());
        std::process::exit(1);
    }
    let svg_path = path.with_extension("svg");
    let title = format!(
        "{} @ {} Hz ({} samples, {} threads)",
        path.file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "profile".to_owned()),
        profile.hz,
        profile.samples,
        profile.threads,
    );
    let svg = vp_obs::flamegraph_svg(&profile.folded, &title);
    if let Err(e) = vp_obs::export::write_atomically(&svg_path, &svg) {
        obs_error!("failed to write flamegraph to {}: {e}", svg_path.display());
        std::process::exit(1);
    }
}

/// Publishes the suite's trace-store counters into the global registry and
/// writes/prints the manifest as requested. A no-op without metrics flags.
fn emit_metrics(
    bin: &str,
    opts: &Options,
    suite: &Suite,
    started: Instant,
    samples: Vec<vp_obs::Sample>,
    profile: Option<vp_obs::Profile>,
) {
    let attribution = provp_core::attribution::drain();
    if opts.metrics_out.is_none() && !opts.metrics_table {
        if !samples.is_empty() {
            vp_obs::obs_warn!(
                "--sample-ms collected {} samples but neither --metrics-out= nor \
                 --metrics-table was given; the series is discarded",
                samples.len()
            );
        }
        if !attribution.is_empty() {
            vp_obs::obs_warn!(
                "--attribution collected {} runs but neither --metrics-out= nor \
                 --metrics-table was given; the tables are discarded",
                attribution.len()
            );
        }
        if profile.is_some() && opts.profile_out.is_none() {
            vp_obs::obs_warn!(
                "--profile-hz sampled the run but none of --profile-out=, \
                 --metrics-out= or --metrics-table was given; the profile is \
                 discarded"
            );
        }
        return;
    }
    publish_trace_store_stats(&suite.trace_stats());
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let manifest = RunManifest::from_snapshot(
        bin,
        std::env::args().skip(1).collect(),
        wall_ms,
        &vp_obs::global().snapshot(),
    )
    .with_samples(samples)
    .with_attribution(attribution)
    .with_profile(profile.map(|p| p.to_section(PROFILE_TOP_K)));
    if opts.metrics_table {
        vp_obs::print_table(&manifest);
    }
    if let Some(path) = &opts.metrics_out {
        if let Err(e) = vp_obs::write_manifest(&manifest, path) {
            obs_error!("failed to write manifest to {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Publishes one trace store's cumulative [`provp_core::TraceStoreStats`]
/// block into the metric registry under the `trace_store.*` keys the
/// manifest's derived hit rate consumes.
///
/// Publishing is *idempotent* (`record_absolute` / `set_max` raise, never
/// accumulate): the stats block is already cumulative, and both the
/// sampler hook and the end-of-run exporter call this with snapshots of
/// the same monotone totals.
fn publish_trace_store_stats(stats: &provp_core::TraceStoreStats) {
    let c = |key: &'static str, v: u64| vp_obs::counter(key).record_absolute(v);
    c("trace_store.requests", stats.requests);
    c("trace_store.memory_hits", stats.memory_hits);
    c("trace_store.misses", stats.misses);
    c("trace_store.disk_hits", stats.disk_hits);
    c("trace_store.captures", stats.captures);
    c("trace_store.spills", stats.spills);
    c("trace_store.spill_failures", stats.spill_failures);
    c("trace_store.dedup_waits", stats.dedup_waits);
    vp_obs::gauge("trace_store.resident").set_max(stats.resident);
    vp_obs::gauge("trace_store.resident_bytes").set_max(stats.resident_bytes);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_covers_all_workloads() {
        let o = Options::default();
        assert_eq!(o.kinds.len(), 9);
        assert_eq!(o.train_runs, 5);
    }

    #[test]
    fn parses_flags() {
        let o = Options::parse([
            "--workloads=gcc,mgrid".into(),
            "--train-runs=2".into(),
            "--jobs=4".into(),
            "--trace-cache=results/traces".into(),
        ])
        .unwrap();
        assert_eq!(o.kinds, vec![WorkloadKind::Gcc, WorkloadKind::Mgrid]);
        assert_eq!(o.train_runs, 2);
        assert_eq!(o.jobs, 4);
        assert_eq!(o.trace_cache.as_deref(), Some("results/traces".as_ref()));
    }

    #[test]
    fn jobs_auto_picks_at_least_one_worker() {
        let o = Options::parse(["--jobs=auto".into()]).unwrap();
        assert!(o.jobs >= 1);
    }

    #[test]
    fn rejects_unknown_input() {
        assert!(Options::parse(["--workloads=nope".into()]).is_err());
        assert!(Options::parse(["--frobnicate".into()]).is_err());
        assert!(Options::parse(["--train-runs=x".into()]).is_err());
        assert!(Options::parse(["--jobs=0".into()]).is_err());
        assert!(Options::parse(["--jobs=lots".into()]).is_err());
        assert!(Options::parse(["--trace-cache=".into()]).is_err());
        assert!(Options::parse(["--trace-out=".into()]).is_err());
        assert!(Options::parse(["--sample-ms=0".into()]).is_err());
        assert!(Options::parse(["--sample-ms=soon".into()]).is_err());
    }

    #[test]
    fn parses_streaming_flags() {
        let o = Options::parse([]).unwrap();
        assert!(!o.stream);
        assert_eq!(o.block_pool, provp_core::replay::stream::DEFAULT_BLOCK_POOL);
        let o = Options::parse(["--stream".into(), "--block-pool=4".into()]).unwrap();
        assert!(o.stream);
        assert_eq!(o.block_pool, 4);
        // Space-separated value form works through the switch list.
        let o = Options::parse(["--stream".into(), "--block-pool".into(), "16".into()]).unwrap();
        assert_eq!(o.block_pool, 16);
        assert!(Options::parse(["--block-pool=1".into()]).is_err());
        assert!(Options::parse(["--block-pool=many".into()]).is_err());
    }

    #[test]
    fn parses_observability_flags() {
        let o = Options::parse(["--trace-out=t.json".into(), "--sample-ms=50".into()]).unwrap();
        assert_eq!(o.trace_out.as_deref(), Some("t.json".as_ref()));
        assert_eq!(o.sample_ms, Some(50));
        let o = Options::parse([]).unwrap();
        assert_eq!(o.trace_out, None);
        assert_eq!(o.sample_ms, None);
        assert!(!o.attribution);
        assert_eq!(o.attribution_top, 20);

        let o = Options::parse(["--attribution".into(), "--attribution-top=5".into()]).unwrap();
        assert!(o.attribution);
        assert_eq!(o.attribution_top, 5);
        assert!(Options::parse(["--attribution-top=few".into()]).is_err());
    }

    #[test]
    fn parses_profiler_flags() {
        let o =
            Options::parse(["--profile-hz=99".into(), "--profile-out=p.folded".into()]).unwrap();
        assert_eq!(o.profile_hz, Some(99));
        assert_eq!(o.profile_out.as_deref(), Some("p.folded".as_ref()));
        let o = Options::parse([]).unwrap();
        assert_eq!(o.profile_hz, None);
        assert_eq!(o.profile_out, None);
        // Sampling without exporting is fine: the profile still lands in
        // the manifest when metrics flags are present.
        let o = Options::parse(["--profile-hz=50".into()]).unwrap();
        assert_eq!(o.profile_hz, Some(50));

        assert!(Options::parse(["--profile-hz=0".into()]).is_err());
        assert!(Options::parse(["--profile-hz=fast".into()]).is_err());
        assert!(Options::parse(["--profile-out=".into()]).is_err());
        // --profile-out without a rate would silently sample nothing.
        assert!(Options::parse(["--profile-out=p.folded".into()]).is_err());
    }

    #[test]
    fn accepts_space_separated_flag_values() {
        let o = Options::parse([
            "--jobs".into(),
            "4".into(),
            "--metrics-table".into(),
            "--attribution".into(),
            "--workloads".into(),
            "gcc".into(),
        ])
        .unwrap();
        assert_eq!(o.jobs, 4);
        assert!(o.metrics_table);
        assert!(o.attribution);
        assert_eq!(o.kinds, vec![WorkloadKind::Gcc]);
        // A dangling value-taking flag is a usage error, not a panic.
        assert!(Options::parse(["--jobs".into()]).is_err());
    }
}
