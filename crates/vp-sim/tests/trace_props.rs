//! Property tests for the columnar trace layout: arbitrary events,
//! including arbitrary seek and jump patterns, survive the trip through
//! [`TraceColumns`] unchanged.

use vp_isa::{InstrAddr, Reg, RegClass};
use vp_rng::{prop, Rng};
use vp_sim::record::TraceEvent;
use vp_sim::{MemAccess, TraceColumns};

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

#[test]
fn prop_round_trip() {
    prop::forall("trace columns round-trip", |rng| arb_events(rng, 0, 200)).check(|events| {
        let back: Vec<TraceEvent> = TraceColumns::from_events(events).iter().collect();
        assert_eq!(&back, events);
    });
}
