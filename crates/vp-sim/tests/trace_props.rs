//! Property tests for the trace file format: round-trip fidelity and
//! robustness against corrupted inputs (a malformed trace must error, never
//! panic or hang).

use vp_isa::{InstrAddr, Reg, RegClass};
use vp_rng::{prop, Rng};
use vp_sim::record::{read_columns, write_columns, TraceEvent};
use vp_sim::{MemAccess, Trace, TraceColumns, TraceError};

fn arb_event(rng: &mut Rng) -> TraceEvent {
    let mem = rng.gen_bool(0.5).then(|| MemAccess {
        addr: rng.gen_u64(),
        store: rng.gen_bool(0.5),
    });
    let stored = match mem {
        Some(MemAccess { store: true, .. }) => Some(0xabcd),
        _ => None,
    };
    TraceEvent {
        addr: InstrAddr::new(rng.gen_range(0..=u32::MAX)),
        dest: rng.gen_bool(0.5).then(|| {
            (
                if rng.gen_bool(0.5) {
                    RegClass::Fp
                } else {
                    RegClass::Int
                },
                Reg::new(rng.gen_range(0..32u8)),
                rng.gen_u64(),
            )
        }),
        mem,
        stored,
        taken: rng.gen_bool(0.5).then(|| rng.gen_bool(0.5)),
        next_pc: InstrAddr::new(rng.gen_range(0..=u32::MAX)),
    }
}

fn arb_events(rng: &mut Rng, lo: usize, hi: usize) -> Vec<TraceEvent> {
    let len = rng.gen_range(lo..hi);
    (0..len).map(|_| arb_event(rng)).collect()
}

/// The `provptr3` encoding of `events`.
fn encode(events: &[TraceEvent]) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_columns(&mut bytes, &TraceColumns::from_events(events)).unwrap();
    bytes
}

#[test]
fn prop_round_trip() {
    prop::forall("trace serialisation round-trips", |rng| {
        arb_events(rng, 0, 200)
    })
    .check(|events| {
        let back = read_columns(encode(events).as_slice()).unwrap();
        assert_eq!(&back.iter().collect::<Vec<_>>(), events);
    });
}

/// Truncating a valid trace anywhere must produce an error, not a panic
/// (and certainly not a silently short parse that claims success with the
/// original event count).
#[test]
fn prop_truncation_is_detected() {
    prop::forall("trace truncation is detected", |rng| {
        (arb_events(rng, 1, 50), rng.gen_f64())
    })
    .check(|(events, cut_fraction)| {
        let mut bytes = encode(events);
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        if cut < bytes.len() {
            bytes.truncate(cut);
            assert!(read_columns(bytes.as_slice()).is_err());
        }
    });
}

/// The checksummed columnar v3 format round-trips through the [`Trace`]
/// wrapper, and truncating the byte stream surfaces as a typed
/// [`TraceError`] (never a panic, never a silently short parse).
#[test]
fn prop_columnar_trace_round_trips_and_detects_truncation() {
    prop::forall("columnar trace round-trips", |rng| {
        (arb_events(rng, 1, 120), rng.gen_f64())
    })
    .check(|(events, cut_fraction)| {
        let trace = Trace::from_events(events.clone());
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        assert_eq!(&bytes[..8], b"provptr3");
        let back = Trace::read_from(bytes.as_slice()).unwrap();
        assert_eq!(back.columns(), trace.columns());

        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        if cut < bytes.len() {
            bytes.truncate(cut);
            let err = Trace::read_from(bytes.as_slice()).unwrap_err();
            assert!(
                matches!(
                    err,
                    TraceError::BadMagic
                        | TraceError::Truncated { .. }
                        | TraceError::Corrupt { .. }
                        | TraceError::Io(_)
                ),
                "unexpected error shape: {err}"
            );
        }
    });
}

/// Flipping bytes after the header may change events or error, but must
/// never panic.
#[test]
fn prop_corruption_never_panics() {
    prop::forall("trace corruption never panics", |rng| {
        let events = arb_events(rng, 1, 30);
        let flips: Vec<(u64, u8)> = (0..rng.gen_range(1..8usize))
            .map(|_| (rng.gen_u64(), rng.gen_range(0..=u8::MAX)))
            .collect();
        (events, flips)
    })
    .check(|(events, flips)| {
        let mut bytes = encode(events);
        for &(idx, value) in flips {
            let i = (idx % bytes.len() as u64) as usize;
            bytes[i] ^= value;
        }
        let _ = read_columns(bytes.as_slice()); // Ok or Err, both fine.
    });
}
