//! Pins the `provptr3` spill bytes across versions.
//!
//! Spill directories outlive the binaries that wrote them, so a change to
//! the in-memory trace layout must neither change the bytes a capture
//! spills nor the columns a spill file decodes to. The committed fixture
//! `tests/data/sample.provptr3` is the spill of [`SAMPLE`]; both
//! directions are checked against a fresh capture.
//!
//! Regenerate the fixture (only when the format itself is meant to
//! change) with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p vp-sim --test spill_fixture
//! ```

use std::fs;
use std::path::PathBuf;

use vp_isa::RegClass;
use vp_sim::record::read_columns;
use vp_sim::{MemAccess, RunLimits, Trace, TraceEvent};

/// Exercises every flag the format stores: integer and FP destinations, a
/// write to `r0` (no architectural destination), a load, a store, taken
/// and not-taken branches, and a `jal`/`jalr` call and return.
const SAMPLE: &str = ".f64 1.5\n\
    li r1, 0\n\
    li r2, 3\n\
    top: fld f1, (r0)\n\
    fadd f2, f2, f1\n\
    sd r1, 5(r1)\n\
    ld r3, 5(r1)\n\
    addi r0, r1, 7\n\
    jal r31, sub\n\
    addi r1, r1, 1\n\
    bne r1, r2, top\n\
    halt\n\
    sub: addi r4, r4, 2\n\
    jalr r0, r31, 0\n";

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/sample.provptr3")
}

fn capture() -> Trace {
    let p = vp_isa::asm::assemble(SAMPLE).unwrap();
    Trace::capture(&p, RunLimits::default()).unwrap()
}

#[test]
fn sample_exercises_every_flag() {
    let events: Vec<TraceEvent> = capture().iter().collect();
    let has = |pred: fn(&TraceEvent) -> bool| events.iter().any(pred);
    assert!(has(|e| matches!(e.dest, Some((RegClass::Int, _, _)))));
    assert!(has(|e| matches!(e.dest, Some((RegClass::Fp, _, _)))));
    assert!(has(|e| matches!(
        e.mem,
        Some(MemAccess { store: false, .. })
    )));
    assert!(has(|e| matches!(
        e.mem,
        Some(MemAccess { store: true, .. })
    )));
    assert!(has(|e| e.taken == Some(true)));
    assert!(has(|e| e.taken == Some(false)));
    // The `r0` write and the `jalr` return retire with no destination,
    // memory access or branch outcome; `jal` and `jalr` leave the
    // fall-through.
    assert!(has(|e| e.dest.is_none()
        && e.mem.is_none()
        && e.taken.is_none()));
    assert!(has(|e| e.taken.is_none() && e.next_pc != e.addr.next()));
}

#[test]
fn spill_bytes_are_pinned() {
    let trace = capture();
    let mut bytes = Vec::new();
    trace.write_to(&mut bytes).unwrap();
    let path = fixture_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &bytes).unwrap();
    }
    let fixture = fs::read(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));

    let decoded = read_columns(fixture.as_slice()).expect("fixture decodes");
    assert_eq!(
        &decoded,
        trace.columns(),
        "fixture decodes to a fresh capture"
    );
    assert!(
        bytes == fixture,
        "write_to of a fresh capture no longer reproduces {path:?} byte for byte"
    );
}
