//! Exporters: human-readable stderr table and JSON manifest file.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::manifest::RunManifest;

/// Renders the manifest as a human-readable report (the stderr
/// exporter).
#[must_use]
pub fn render_table(manifest: &RunManifest) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} run report ({} args, {:.1} ms wall, peak RSS {:.1} MiB) ==",
        manifest.bin,
        manifest.args.len(),
        manifest.wall_ms,
        manifest.peak_rss_bytes as f64 / (1024.0 * 1024.0),
    );

    if !manifest.phases.is_empty() {
        let _ = writeln!(out, "-- phases --");
        let width = manifest
            .phases
            .iter()
            .map(|p| p.path.len())
            .max()
            .unwrap_or(0)
            .max(5);
        let _ = writeln!(
            out,
            "{:width$}  {:>7}  {:>12}  {:>12}  {:>12}",
            "phase", "count", "total ms", "min ms", "max ms"
        );
        for p in &manifest.phases {
            let _ = writeln!(
                out,
                "{:width$}  {:>7}  {:>12.2}  {:>12.2}  {:>12.2}",
                p.path, p.count, p.total_ms, p.min_ms, p.max_ms
            );
        }
    }

    if !manifest.counters.is_empty() {
        let _ = writeln!(out, "-- counters --");
        let width = manifest.counters.keys().map(String::len).max().unwrap_or(0);
        for (k, v) in &manifest.counters {
            let _ = writeln!(out, "{k:width$}  {v}");
        }
    }

    if !manifest.gauges.is_empty() {
        let _ = writeln!(out, "-- gauges --");
        let width = manifest.gauges.keys().map(String::len).max().unwrap_or(0);
        for (k, v) in &manifest.gauges {
            let _ = writeln!(out, "{k:width$}  {v}");
        }
    }

    for name in manifest.histograms.keys() {
        let _ = writeln!(out, "-- histogram {name} --");
        if let Some(h) = manifest.histogram(name) {
            let _ = write!(out, "{h}");
        }
    }

    let _ = writeln!(out, "-- derived --");
    let _ = writeln!(
        out,
        "sim throughput      {:.0} instr/s",
        manifest.sim_instr_per_sec()
    );
    let _ = writeln!(
        out,
        "record cost         {:.1} ns/event",
        manifest.record_ns_per_event()
    );
    let _ = writeln!(
        out,
        "trace-store hit rate {:.1}%",
        100.0 * manifest.trace_hit_rate()
    );

    // Data-loss footer: any recorded sample loss must be visible without
    // opening the manifest (a zero is printed too, so "sampling was on
    // and nothing was lost" is distinguishable from "not sampled").
    if let Some(n) = manifest.counters.get("sampler.discarded_samples") {
        let _ = writeln!(out, "-- data loss --");
        let _ = writeln!(
            out,
            "samples discarded     {n}{}",
            if *n > 0 {
                " (sampler at capacity; raise --sample-ms)"
            } else {
                ""
            }
        );
    }
    out
}

/// Prints the human-readable report to stderr (never stdout).
pub fn print_table(manifest: &RunManifest) {
    eprint!("{}", render_table(manifest));
}

/// Writes the JSON manifest to `path` (atomically, via a sibling
/// temp file) with a trailing newline.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn write_manifest(manifest: &RunManifest, path: &Path) -> io::Result<()> {
    let mut text = manifest.to_json();
    text.push('\n');
    write_atomically(path, &text)
}

/// Writes `text` to `path` via a sibling `*.json.tmp` file followed by
/// an atomic rename, so a crash mid-write never leaves a truncated
/// document behind. Shared by the manifest and folded-profile exporters.
///
/// # Errors
///
/// Propagates filesystem failures; the temp file is removed when the
/// final rename fails.
pub fn write_atomically(path: &Path, text: &str) -> io::Result<()> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, text)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::PhaseEntry;

    fn manifest() -> RunManifest {
        let mut m = RunManifest {
            bin: "demo".to_owned(),
            wall_ms: 12.0,
            ..RunManifest::default()
        };
        m.phases.push(PhaseEntry {
            path: "demo/work".to_owned(),
            count: 2,
            total_ms: 10.0,
            min_ms: 4.0,
            max_ms: 6.0,
        });
        m.counters.insert("sim.instructions".to_owned(), 100);
        m.counters.insert("sim.wall_ns".to_owned(), 1_000_000_000);
        m.counters.insert("record.events".to_owned(), 40);
        m.counters.insert("record.ns".to_owned(), 500);
        m
    }

    #[test]
    fn table_lists_phases_counters_and_derived_rates() {
        let table = render_table(&manifest());
        assert!(table.contains("demo run report"));
        assert!(table.contains("demo/work"));
        assert!(table.contains("sim.instructions"));
        assert!(table.contains("100 instr/s"));
        assert!(table.contains("record cost         12.5 ns/event\n"));
        // No sampler counter recorded: no data-loss footer.
        assert!(!table.contains("-- data loss --"));
    }

    #[test]
    fn table_footer_surfaces_event_and_sample_loss() {
        let mut m = manifest();
        m.counters
            .insert("sampler.discarded_samples".to_owned(), 12);
        let table = render_table(&m);
        assert!(table.contains("-- data loss --"));
        assert!(table.contains("samples discarded     12 (sampler at capacity"));
        let mut m = manifest();
        m.counters.insert("sampler.discarded_samples".to_owned(), 0);
        // A recorded zero is shown plainly, without the loss hint.
        assert!(render_table(&m).contains("samples discarded     0\n"));
    }

    #[test]
    fn write_manifest_round_trips_via_file() -> Result<(), Box<dyn std::error::Error>> {
        let path = std::env::temp_dir().join(format!("vp-obs-export-{}.json", std::process::id()));
        write_manifest(&manifest(), &path)?;
        let text = std::fs::read_to_string(&path)?;
        assert!(text.ends_with('\n'));
        let back = RunManifest::parse(text.trim_end())?;
        assert_eq!(back, manifest());
        std::fs::remove_file(&path)?;
        Ok(())
    }

    #[test]
    fn atomic_write_leaves_no_temp_file_on_success() -> Result<(), Box<dyn std::error::Error>> {
        let path =
            std::env::temp_dir().join(format!("vp-obs-export-clean-{}.json", std::process::id()));
        write_atomically(&path, "{}\n")?;
        assert!(!path.with_extension("json.tmp").exists());
        std::fs::remove_file(&path)?;
        Ok(())
    }

    #[test]
    fn atomic_write_cleans_temp_file_when_rename_fails() -> Result<(), Box<dyn std::error::Error>> {
        // The sibling temp file is writable, but the final rename fails
        // because the target path is an existing *directory*; the
        // helper must clean the temp file up before reporting the error.
        let dir = std::env::temp_dir().join(format!("vp-obs-export-fail-{}", std::process::id()));
        let target = dir.join("out.json");
        std::fs::create_dir_all(&target)?;
        let err = write_atomically(&target, "{}\n");
        assert!(err.is_err(), "renaming a file onto a directory must fail");
        assert!(
            !target.with_extension("json.tmp").exists(),
            "temp file must be cleaned up on failure"
        );
        std::fs::remove_dir_all(&dir)?;
        Ok(())
    }
}
