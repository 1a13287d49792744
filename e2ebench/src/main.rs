//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a readable report followed, as the last
//! line of standard output, by one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`
//! holding the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exits 1 if any operation failed, 2 on a usage error.
//!
//! `e2ebench --record` prints the reference digests (`refs.txt`) instead.

use std::path::Path;
use std::process::ExitCode;

use provp_e2ebench::{record, run, Config, Metric, Outcome, WorkloadName};

const USAGE: &str = "usage: e2ebench --workload <paper-eval|pgo-train|predict-sweep|stream-sweep> \
                     [--seed N] [--seconds S] [--trace 0|1]\n       e2ebench --record";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_owned())),
            None => (arg.as_str(), None),
        };
        let mut value = || {
            inline
                .clone()
                .or_else(|| it.next().cloned())
                .ok_or(format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => {
                let v = value()?;
                workload = Some(WorkloadName::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be a finite number >= 0".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            _ => return Err(format!("unknown argument {arg:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Config::new(workload, seed, seconds, trace))
}

fn json(outcome: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--record"] {
        return match record() {
            Ok(lines) => {
                println!("# provp e2ebench reference digests: <key> <fnv-1a 64>");
                for line in lines {
                    println!("{line}");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("e2ebench: recording failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let outcome = run(&cfg);
    let name = cfg.workload.name();
    println!(
        "e2ebench {name} seed {} ({} s, {}): {} ops attempted, {} failed, {} threads available",
        cfg.seed,
        cfg.seconds,
        if cfg.trace { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failed,
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    for failure in outcome.failures.iter().take(10) {
        eprintln!("e2ebench: failed: {failure}");
    }
    print_table("end-to-end (untraced operations)", &outcome.end_to_end);
    for (name, median, spread, n) in &outcome.spreads {
        println!(
            "  {name}: median {median:.6} s, spread {:.2}% of it over {n} samples",
            spread * 100.0
        );
    }
    let per_layer = outcome
        .per_layer
        .as_ref()
        .map(provp_e2ebench::Layers::metrics);
    if let Some(layers) = &per_layer {
        print_table("per-layer (traced operations)", layers);
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{name}-seed{}.tsv", cfg.seed));
        match outcome.recorder.write_tsv(&path) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("e2ebench: writing {}: {e}", path.display()),
        }
    }
    let reported = per_layer.as_deref().unwrap_or(&outcome.end_to_end);
    println!("{}", json(&outcome, reported));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
