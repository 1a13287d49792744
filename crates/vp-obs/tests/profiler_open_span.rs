//! A ticker started inside an already-open span attributes its samples
//! to that span: the profiler reads the span stack the guards keep, so
//! nothing has to be opened after profiling starts.
//!
//! Lives in its own integration-test binary so that no other test has
//! started a profiling ticker (or opened spans) in this process first.

use std::time::Duration;

use vp_obs::{Schedule, Ticker};

#[test]
fn ticker_started_inside_an_open_span_samples_it() {
    let _outer = vp_obs::span("open-before-ticker");
    let _inner = vp_obs::span("inner");
    let schedule = Schedule {
        profile_hz: Some(500),
        ..Schedule::default()
    };
    let ticker = Ticker::start(schedule, vp_obs::global(), || {}).unwrap();
    std::thread::sleep(Duration::from_millis(40));
    let profile = ticker.stop().profile.expect("profiling was scheduled");
    assert!(
        profile
            .folded
            .get("open-before-ticker;inner")
            .is_some_and(|&n| n > 0),
        "samples attribute to the span opened before the ticker: {:?}",
        profile.folded
    );
}
