//! `vortex` analogue: an object-oriented record-store running transactions.
//!
//! A transaction stream dispatches to 28 distinct class handlers that
//! locate a record by hashed key and read-modify-write its fields. Every
//! transaction also advances the store's write-ahead-log bookkeeping — a
//! long, serial, perfectly strided dependence chain (log sequence numbers,
//! commit counters). That chain is why the real vortex shows one of the
//! paper's largest ILP gains from value prediction, while its many
//! handlers give the large static working set that profits from
//! profile-guided table admission.

use vp_isa::{Opcode, Program, ProgramBuilder, Reg};
use vp_rng::Rng;

use super::util;
use crate::InputSet;

const PARAMS: i64 = 0; // [0] = transactions
const RECS: i64 = 16; // 256 records x 8 fields
const TXNS: i64 = RECS + 2048; // 2048 transaction words
const LOG: i64 = TXNS + 2048; // log bookkeeping block
const CLSCNT: i64 = LOG + 16; // 32 per-class commit counters

const HANDLERS: usize = 28;
const STRUCTURE_SEED: u64 = 0x0147_0000;

/// Builds the `vortex` analogue for one input set.
#[must_use]
pub fn build(input: &InputSet) -> Program {
    let mut b = ProgramBuilder::named("vortex");
    let mut structure = Rng::seed_from_u64(STRUCTURE_SEED);

    // ---- data ----
    b.data_word(input.size_in(1, 1_200, 2_000));
    b.data_word(HANDLERS as u64); // reloaded per transaction
    b.data_zeroed(14);
    b.data_block(util::random_words(input, 2, 2048, 0, 1_000)); // initial fields
    b.data_block(util::random_words(input, 3, 2048, 0, 1 << 20)); // transactions
    b.data_zeroed(16 + 32 + 8);

    // ---- registers ----
    let n = Reg::new(1);
    let i = Reg::new(2);
    let txn = Reg::new(3);
    let cls = Reg::new(4);
    let key = Reg::new(5);
    let rec = Reg::new(6);
    let f = Reg::new(7);
    let t = Reg::new(8);
    let lsn = Reg::new(9);
    let tmp = Reg::new(10);
    let commit = Reg::new(11);
    let c28 = Reg::new(12);
    let t2 = Reg::new(13);

    // ---- text ----
    b.ld(n, Reg::ZERO, PARAMS);
    b.li(c28, HANDLERS as i64);
    b.li(lsn, 0);
    b.li(commit, 0);
    let top = util::count_loop_begin(&mut b, i);

    b.ld(txn, i, TXNS);
    // Schema metadata (class count) reloaded from the catalog per txn.
    b.ld(c28, Reg::ZERO, PARAMS + 1);
    b.alu_rr(Opcode::Rem, cls, txn, c28);
    // Hash the key into a record id (data-dependent).
    b.alu_ri(Opcode::Srli, key, txn, 5);
    b.alu_rr(Opcode::Xor, key, key, txn);
    b.alu_ri(Opcode::Andi, rec, key, 255);
    b.alu_ri(Opcode::Slli, rec, rec, 3); // record base = rec * 8

    // Write-ahead-log bookkeeping: a serial, stride-predictable chain that
    // every transaction extends (LSN, checksum cursor, commit stamp).
    b.alu_ri(Opcode::Addi, lsn, lsn, 4);
    util::predictable_chain(&mut b, lsn, tmp, 10);
    b.sd(lsn, Reg::ZERO, LOG);
    b.alu_ri(Opcode::Addi, commit, commit, 1);
    b.sd(commit, Reg::ZERO, LOG + 1);

    let arms: Vec<_> = (0..HANDLERS).map(|_| b.new_label()).collect();
    let next = b.new_label();
    util::dispatch_ladder(&mut b, cls, t, &arms);
    b.jal(Reg::ZERO, next); // unreachable

    for &arm in &arms {
        b.bind(arm);
        // Each class touches 3 distinct fields with its own deltas.
        for _ in 0..3 {
            let field: i64 = structure.gen_range(0..8);
            let delta: i64 = structure.gen_range(1..9);
            b.alu_ri(Opcode::Addi, t2, rec, field);
            b.ld(f, t2, RECS);
            b.alu_ri(Opcode::Addi, f, f, delta);
            b.sd(f, t2, RECS);
        }
        // Per-class commit counter (strided in memory).
        let cnt_slot = CLSCNT + structure.gen_range(0..32i64);
        b.ld(t2, Reg::ZERO, cnt_slot);
        b.alu_ri(Opcode::Addi, t2, t2, 1);
        b.sd(t2, Reg::ZERO, cnt_slot);
        b.jal(Reg::ZERO, next);
    }

    b.bind(next);
    util::count_loop_end(&mut b, i, n, top);
    b.halt();

    b.build()
        .expect("vortex generator emits a well-formed program")
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_sim::{run, Machine, NullTracer, RunLimits};

    #[test]
    fn commit_counter_equals_transactions() {
        let p = build(&InputSet::train(0));
        let n = p.data()[0];
        let mut m = Machine::for_program(&p);
        vp_sim::runner::run_on(&mut m, &p, &mut NullTracer, RunLimits::default()).unwrap();
        assert_eq!(m.memory().read(LOG as u64 + 1), n);
        // LSN advances by a fixed stride per transaction.
        let lsn = m.memory().read(LOG as u64);
        assert_eq!(lsn % n, 0, "lsn {lsn} must be a multiple of the txn count");
    }

    #[test]
    fn field_updates_stay_within_records() {
        let p = build(&InputSet::train(1));
        let before: u64 = p.data()[RECS as usize..RECS as usize + 2048].iter().sum();
        let mut m = Machine::for_program(&p);
        vp_sim::runner::run_on(&mut m, &p, &mut NullTracer, RunLimits::default()).unwrap();
        let after: u64 = (0..2048u64).map(|k| m.memory().read(RECS as u64 + k)).sum();
        assert!(after > before, "transactions must mutate record fields");
    }

    #[test]
    fn working_set_is_large() {
        let p = build(&InputSet::train(0));
        assert!(
            p.value_producers().count() > 350,
            "{}",
            p.value_producers().count()
        );
    }

    #[test]
    fn budget() {
        let s = run(
            &build(&InputSet::train(2)),
            &mut NullTracer,
            RunLimits::with_max(3_000_000),
        )
        .unwrap();
        assert!(s.halted());
        assert!(s.instructions() > 80_000, "{}", s.instructions());
    }
}
