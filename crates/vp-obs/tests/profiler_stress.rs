//! Concurrency stress test for the profiler's span-stack samples.
//!
//! N workers open and close nested spans in a tight loop (through the
//! real `span()` guards, under an adopted base path, exactly like
//! `parallel_map` workers) while the ticker snapshots at high
//! frequency. The contract under test: **every sampled stack is a
//! prefix of the nesting chain the workers actually execute** — a torn
//! read (half of one update, half of another) would produce an
//! out-of-order or gap-containing stack, which the assertions below
//! would catch.
//!
//! Lives in its own integration-test binary because the sampled stacks
//! are process-global: spans opened by unrelated tests in the same
//! process would show up in the folded output and break the
//! prefix-validity assertion.

use std::time::{Duration, Instant};

use vp_obs::{Profile, Schedule, Ticker};

/// The exact nesting chain every worker executes, outermost first. The
/// base path ("stress") is adopted, the rest are real spans.
const CHAIN: [&str; 5] = ["stress", "level-a", "level-b", "level-c", "level-d"];

/// Profiles `body` at `hz` on a ticker thread.
fn profile_at(hz: u32, body: impl FnOnce()) -> Profile {
    let schedule = Schedule {
        profile_hz: Some(hz),
        ..Schedule::default()
    };
    let ticker = Ticker::start(schedule, vp_obs::global(), || {}).unwrap();
    body();
    ticker.stop().profile.expect("profiling was scheduled")
}

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

fn assert_prefix_valid(profile: &Profile) {
    for stack in profile.folded.keys() {
        let frames: Vec<&str> = stack.split(';').collect();
        assert!(
            frames.len() <= CHAIN.len() && frames[..] == CHAIN[..frames.len()],
            "sampled stack `{stack}` is not a prefix of the executed chain {CHAIN:?} — torn snapshot"
        );
    }
}

#[test]
fn concurrent_nesting_never_tears_sampled_stacks() {
    let profile = profile_at(2_000, || {
        let deadline = Instant::now() + Duration::from_millis(300);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(move || worker(deadline));
            }
        });
    });

    assert!(
        profile.samples > 50,
        "8 workers over 300 ms at 2 kHz must yield samples, got {}",
        profile.samples
    );
    assert!(profile.threads >= 2, "multiple workers must contribute");
    assert_prefix_valid(&profile);
    // The innermost frame is where the loop spends its time; it must
    // have been observed at least once.
    assert!(
        profile.folded.keys().any(|k| k.ends_with("level-d")),
        "the hot innermost span was never sampled: {:?}",
        profile.folded.keys().collect::<Vec<_>>()
    );

    // The folded form round-trips — the export path on real concurrent
    // data.
    let text = profile.folded_text();
    let reparsed = Profile::parse_folded(&text).expect("folded text parses");
    assert_eq!(reparsed, profile.folded, "folded text round-trips");

    // A second profiling run over the same span topology still samples
    // cleanly (threads that exited after the first run leave no stale
    // stacks behind).
    let second = profile_at(2_000, || {
        let deadline = Instant::now() + Duration::from_millis(100);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(move || worker(deadline));
            }
        });
    });
    assert!(second.samples > 0);
    assert_prefix_valid(&second);
}

#[test]
fn manifest_section_from_concurrent_profile_is_consistent() {
    // Runs in the same process as the stress test (fine: both only open
    // CHAIN spans), producing a section whose shares must partition.
    let profile = profile_at(1_000, || {
        let deadline = Instant::now() + Duration::from_millis(150);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(move || worker(deadline));
            }
        });
    });
    let section = profile.to_section(10);
    assert_eq!(section.samples, profile.samples);
    let total: u64 = section.hot_stacks.iter().map(|h| h.count).sum();
    assert!(total <= profile.samples);
    for phase in &section.phases {
        assert!(phase.path.starts_with("stress"));
        assert!(
            phase.self_share <= phase.total_share + 1e-12,
            "self share can never exceed total share ({})",
            phase.path
        );
    }
    // The root phase's total share covers every sample.
    let root = section
        .phases
        .iter()
        .find(|p| p.path == "stress")
        .expect("root phase present");
    assert!((root.total_share - 1.0).abs() < 1e-9);
}
