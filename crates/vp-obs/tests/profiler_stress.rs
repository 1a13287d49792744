//! Concurrency stress test for the span self-time accounting.
//!
//! N workers open and close nested spans in a tight loop (through the
//! real `span()` guards, under an adopted base path, exactly like
//! `parallel_map` workers). The contract under test: **every recorded
//! path is a prefix of the nesting chain the workers actually execute**,
//! no span's self time exceeds its wall time, and the adopted base
//! accounts for all of the workers' time.
//!
//! Lives in its own integration-test binary because the registry is
//! process-global: spans opened by unrelated tests in the same process
//! would show up in the profile and break the prefix assertion.

use std::time::{Duration, Instant};

use vp_obs::Profile;

/// The exact nesting chain every worker executes, outermost first. The
/// base path ("stress") is adopted, the rest are real spans.
const CHAIN: [&str; 5] = ["stress", "level-a", "level-b", "level-c", "level-d"];

fn worker(deadline: Instant) {
    let _base = vp_obs::span::adopt(Some(CHAIN[0].to_owned()));
    while Instant::now() < deadline {
        let _a = vp_obs::span(CHAIN[1]);
        for _ in 0..8 {
            let _b = vp_obs::span(CHAIN[2]);
            {
                let _c = vp_obs::span(CHAIN[3]);
                let _d = vp_obs::span(CHAIN[4]);
                std::hint::black_box(0u64);
            }
        }
        std::thread::sleep(Duration::from_micros(50));
    }
}

/// Runs `workers` threads of [`worker`] for `ms` and profiles the
/// registry afterwards.
fn run_workers(workers: usize, ms: u64) -> Profile {
    let deadline = Instant::now() + Duration::from_millis(ms);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(move || worker(deadline));
        }
    });
    Profile::from_spans(&vp_obs::global().snapshot().spans)
}

fn assert_prefix_valid(profile: &Profile) {
    for stack in profile.folded.keys() {
        let frames: Vec<&str> = stack.split(';').collect();
        assert!(
            frames.len() <= CHAIN.len() && frames[..] == CHAIN[..frames.len()],
            "stack `{stack}` is not a prefix of the executed chain {CHAIN:?}"
        );
    }
}

#[test]
fn concurrent_nesting_never_tears_sampled_stacks() {
    let profile = run_workers(8, 300);
    assert!(profile.threads >= 8, "every worker touched its stack");
    assert_prefix_valid(&profile);
    // The innermost frame is where the loop opens most spans; it must
    // have accrued time.
    assert!(
        profile.folded.keys().any(|k| k.ends_with("level-d")),
        "the hot innermost span recorded no time: {:?}",
        profile.folded.keys().collect::<Vec<_>>()
    );
    for (path, stat) in vp_obs::global().snapshot().spans {
        if stat.count > 0 {
            assert!(stat.self_ns <= stat.total_ns, "{path}: {stat:?}");
        }
    }

    // The folded form round-trips — the export path on real concurrent
    // data.
    let text = profile.folded_text();
    let reparsed = Profile::parse_folded(&text).expect("folded text parses");
    assert_eq!(reparsed, profile.folded, "folded text round-trips");

    // A second run over the same span topology still records cleanly
    // (threads that exited after the first run leave nothing behind).
    let second = run_workers(4, 100);
    assert!(second.total_us() > profile.total_us());
    assert_prefix_valid(&second);
}

#[test]
fn manifest_section_from_concurrent_profile_is_consistent() {
    // Runs in the same process as the stress test (fine: both only open
    // CHAIN spans), producing a section whose shares must partition.
    let profile = run_workers(4, 150);
    let section = profile.to_section(10);
    assert_eq!(section.total_us, profile.total_us());
    let hot: u64 = section.hot_stacks.iter().map(|h| h.us).sum();
    assert!(hot <= section.total_us);
    for phase in &section.phases {
        assert!(phase.path.starts_with("stress"));
        assert!(
            phase.self_share <= phase.total_share + 1e-12,
            "self share can never exceed total share ({})",
            phase.path
        );
    }
    // The adopted base's total share covers every worker's time.
    let root = section
        .phases
        .iter()
        .find(|p| p.path == "stress")
        .expect("root phase present");
    assert!((root.total_share - 1.0).abs() < 1e-9);
}
