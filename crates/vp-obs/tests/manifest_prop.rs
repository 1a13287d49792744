//! Property tests for the run-manifest schema: arbitrary manifests must
//! survive `to_json` → `parse` → `to_json` byte-identically (the format
//! is canonical and the float formatting shortest-roundtrip), always
//! under the v5 schema, with empty optional sections left out.
//!
//! Generated integers stay below 2^53: JSON numbers are f64 (in the
//! in-tree parser and in every JavaScript consumer alike), so the
//! manifest contract only covers integer-exact round-trips inside the
//! f64-representable range. Real counters stay far below that (2^53 ns
//! is over 100 days of simulator wall clock).

use std::collections::BTreeMap;

use vp_obs::attribution::{AttributionPc, AttributionRun, AttributionTotals, CAUSE_ORDER};
use vp_obs::manifest::{HotStack, PhaseEntry, PhaseShare, ProfileSection};
use vp_obs::sampler::Sample;
use vp_obs::{RunManifest, SCHEMA_V5};
use vp_rng::{prop, Rng};

const KEYS: &[&str] = &[
    "sim.instructions",
    "sim.wall_ns",
    "trace_store.requests",
    "trace_store.memory_hits",
    "trace_store.misses",
    "predictor.accesses",
    "predictor.hits",
];

fn arb_map(rng: &mut Rng) -> BTreeMap<String, u64> {
    let n = rng.below(KEYS.len() as u64 + 1) as usize;
    let mut keys = KEYS.to_vec();
    rng.shuffle(&mut keys);
    keys.into_iter()
        .take(n)
        .map(|k| (k.to_owned(), rng.below(1 << 53)))
        .collect()
}

fn arb_sample(rng: &mut Rng) -> Sample {
    Sample {
        t_ms: rng.gen_f64() * 60_000.0,
        counters: arb_map(rng),
        gauges: arb_map(rng),
    }
}

fn arb_causes(rng: &mut Rng) -> BTreeMap<String, u64> {
    let mut causes = BTreeMap::new();
    for c in CAUSE_ORDER {
        if rng.below(2) == 0 {
            causes.insert(c.to_owned(), 1 + rng.below(1_000));
        }
    }
    causes
}

fn arb_attribution_pc(rng: &mut Rng) -> AttributionPc {
    let accesses = 1 + rng.below(1 << 20);
    let raw_correct = rng.below(accesses + 1);
    let speculated = rng.below(accesses + 1);
    AttributionPc {
        pc: rng.below(1 << 20),
        directive: ["none", "lv", "stride"][rng.below(3) as usize].to_owned(),
        accesses,
        hits: rng.below(accesses + 1),
        raw_correct,
        speculated,
        speculated_correct: rng.below(speculated + 1),
        causes: arb_causes(rng),
        profiled_accuracy: (rng.below(2) == 0).then(|| rng.gen_f64()),
        drift: (rng.below(2) == 0).then(|| rng.gen_f64() - 0.5),
    }
}

fn arb_attribution_run(rng: &mut Rng) -> AttributionRun {
    AttributionRun {
        workload: format!("wl-{}", rng.below(4)),
        config: format!("cfg-{}", rng.below(4)),
        threshold: (rng.below(2) == 0).then(|| rng.below(100) as f64 / 100.0),
        totals: AttributionTotals {
            pcs: rng.below(1 << 20),
            accesses: rng.below(1 << 40),
            hits: rng.below(1 << 40),
            raw_correct: rng.below(1 << 40),
            speculated: rng.below(1 << 40),
            speculated_correct: rng.below(1 << 40),
            causes: arb_causes(rng),
        },
        pcs: (0..rng.below(4)).map(|_| arb_attribution_pc(rng)).collect(),
    }
}

fn arb_profile(rng: &mut Rng) -> ProfileSection {
    let stacks = ["run", "run;profile", "run;predict", "run;predict;replay"];
    let hot_stacks = (0..rng.below(4))
        .map(|i| HotStack {
            stack: stacks[i as usize].to_owned(),
            us: rng.below(1 << 30),
            share: rng.gen_f64(),
        })
        .collect();
    let phases = (0..rng.below(4))
        .map(|i| PhaseShare {
            path: stacks[i as usize].replace(';', "/"),
            self_share: rng.gen_f64(),
            total_share: rng.gen_f64(),
        })
        .collect();
    ProfileSection {
        total_us: rng.below(1 << 40),
        threads: rng.below(64),
        hot_stacks,
        phases,
    }
}

fn arb_manifest(rng: &mut Rng) -> RunManifest {
    let phases = (0..rng.below(4))
        .map(|i| {
            let min = rng.gen_f64() * 10.0;
            let max = min + rng.gen_f64() * 100.0;
            PhaseEntry {
                path: format!("run/phase-{i}"),
                count: 1 + rng.below(9),
                total_ms: max * 2.0,
                min_ms: min,
                max_ms: max,
            }
        })
        .collect();
    let histograms = (0..rng.below(3))
        .map(|i| {
            let mut bins = [0u64; 10];
            for b in &mut bins {
                *b = rng.below(1_000);
            }
            (format!("hist-{i}"), bins)
        })
        .collect();
    let samples = (0..rng.below(4)).map(|_| arb_sample(rng)).collect();
    let attribution = (0..rng.below(3))
        .map(|_| arb_attribution_run(rng))
        .collect();
    RunManifest {
        bin: format!("bin-{}", rng.below(100)),
        args: (0..rng.below(3)).map(|i| format!("--arg-{i}")).collect(),
        wall_ms: rng.gen_f64() * 1e5,
        peak_rss_bytes: rng.below(1 << 53),
        phases,
        counters: arb_map(rng),
        gauges: arb_map(rng),
        histograms,
        samples,
        attribution,
        profile: (rng.below(2) == 0).then(|| arb_profile(rng)),
    }
}

#[test]
fn serialisation_is_canonical_for_arbitrary_manifests() {
    prop::forall("manifest round-trip", arb_manifest).check(|m| {
        let text = m.to_json();
        let back = RunManifest::parse(&text).expect("serialised manifest parses");
        assert_eq!(&back, m, "parse must reconstruct the manifest exactly");
        assert_eq!(
            back.to_json(),
            text,
            "re-serialisation must be byte-identical"
        );
    });
}

/// The schema line is v5 whatever the content; only which optional
/// sections appear follows the content, and stripping a section yields a
/// document that parses back with that section empty.
#[test]
fn schema_version_is_derived_from_content() {
    prop::forall("manifest versioning", arb_manifest).check(|m| {
        let text = m.to_json();
        assert!(text.contains(&format!(r#""schema":"{SCHEMA_V5}""#)));
        assert_eq!(text.contains(r#""samples":["#), !m.samples.is_empty());
        assert_eq!(
            text.contains(r#""attribution":["#),
            !m.attribution.is_empty()
        );
        assert_eq!(text.contains(r#""profile":{"#), m.profile.is_some());

        let no_profile = m.clone().with_profile(None);
        let back = RunManifest::parse(&no_profile.to_json()).expect("parses");
        assert!(back.profile.is_none());
        assert_eq!(back, no_profile);

        let no_attribution = no_profile.with_attribution(Vec::new());
        let back = RunManifest::parse(&no_attribution.to_json()).expect("parses");
        assert!(back.attribution.is_empty());
        assert_eq!(back, no_attribution);

        let bare = no_attribution.with_samples(Vec::new());
        let bare_text = bare.to_json();
        assert!(bare_text.contains(SCHEMA_V5));
        assert!(!bare_text.contains("\"samples\""));
        let back = RunManifest::parse(&bare_text).expect("parses");
        assert!(back.samples.is_empty());
        assert_eq!(back, bare);
    });
}
