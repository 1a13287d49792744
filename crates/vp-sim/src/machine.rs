//! Architectural machine state.

use vp_isa::{InstrAddr, Program, Reg, RegClass};

use crate::Memory;

/// Slots of the register file: integer `r0`–`r31` at 0–31, FP `f0`–`f31`
/// at 32–63, and [`DISCARD`] for writes that leave no architectural trace.
/// Slots are `u8`s and the file has one entry for each, so indexing it
/// needs no bounds check; slots 65–255 are never used.
pub(crate) const REG_SLOTS: usize = 1 << u8::BITS;

/// The slot that takes writes to the hardwired integer `r0`, so slot 0
/// always reads zero.
pub(crate) const DISCARD: u8 = 2 * vp_isa::reg::NUM_REGS as u8;

/// The register-file slot a read of `reg` uses.
pub(crate) fn read_slot(class: RegClass, reg: Reg) -> u8 {
    match class {
        RegClass::Int => reg.index(),
        RegClass::Fp => vp_isa::reg::NUM_REGS as u8 + reg.index(),
    }
}

/// The register-file slot a write to `reg` uses.
pub(crate) fn write_slot(class: RegClass, reg: Reg) -> u8 {
    if class == RegClass::Int && reg.is_zero() {
        DISCARD
    } else {
        read_slot(class, reg)
    }
}

/// Architectural state: both register files, the program counter and memory.
///
/// The integer register `r0` is hardwired to zero: writes are discarded and
/// reads return 0. The floating-point file has no such register.
///
/// # Examples
///
/// ```
/// use vp_sim::Machine;
/// use vp_isa::{asm::assemble, Reg, RegClass};
///
/// let p = assemble("halt\n").unwrap();
/// let mut m = Machine::for_program(&p);
/// m.write_reg(RegClass::Int, Reg::new(4), 42);
/// assert_eq!(m.read_reg(RegClass::Int, Reg::new(4)), 42);
/// m.write_reg(RegClass::Int, Reg::ZERO, 9);
/// assert_eq!(m.read_reg(RegClass::Int, Reg::ZERO), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    /// One file for both classes, indexed by `read_slot`/`write_slot`.
    pub(crate) regs: [u64; REG_SLOTS],
    pub(crate) pc: InstrAddr,
    pub(crate) mem: Memory,
}

impl Machine {
    /// Creates a machine with zeroed registers, `pc = 0` and memory
    /// initialised from the program's data image.
    #[must_use]
    pub fn for_program(program: &Program) -> Self {
        Machine {
            regs: [0; REG_SLOTS],
            pc: InstrAddr::new(0),
            mem: Memory::with_image(program.data()),
        }
    }

    /// Current program counter.
    #[must_use]
    pub fn pc(&self) -> InstrAddr {
        self.pc
    }

    /// Reads a register from the given file.
    #[must_use]
    pub fn read_reg(&self, class: RegClass, reg: Reg) -> u64 {
        self.regs[usize::from(read_slot(class, reg))]
    }

    /// Reads an FP register as a double.
    #[must_use]
    pub fn read_f64(&self, reg: Reg) -> f64 {
        f64::from_bits(self.read_reg(RegClass::Fp, reg))
    }

    /// Writes a register in the given file. Writes to integer `r0` are
    /// discarded.
    pub fn write_reg(&mut self, class: RegClass, reg: Reg, value: u64) {
        self.regs[usize::from(write_slot(class, reg))] = value;
    }

    /// Writes an FP register from a double.
    pub fn write_f64(&mut self, reg: Reg, value: f64) {
        self.write_reg(RegClass::Fp, reg, value.to_bits());
    }

    /// The machine's memory.
    #[must_use]
    pub fn memory(&self) -> &Memory {
        &self.mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_isa::asm::assemble;

    fn machine() -> Machine {
        Machine::for_program(&assemble(".data 11 22\nhalt\n").unwrap())
    }

    #[test]
    fn data_image_is_loaded() {
        let m = machine();
        assert_eq!(m.memory().read(0), 11);
        assert_eq!(m.memory().read(1), 22);
    }

    #[test]
    fn int_zero_register_discards_writes() {
        let mut m = machine();
        m.write_reg(RegClass::Int, Reg::ZERO, 5);
        assert_eq!(m.read_reg(RegClass::Int, Reg::ZERO), 0);
    }

    #[test]
    fn fp_register_zero_is_writable() {
        let mut m = machine();
        m.write_f64(Reg::ZERO, 1.5);
        assert_eq!(m.read_f64(Reg::ZERO), 1.5);
        // The files are independent.
        assert_eq!(m.read_reg(RegClass::Int, Reg::ZERO), 0);
    }

    #[test]
    fn files_are_independent() {
        let mut m = machine();
        m.write_reg(RegClass::Int, Reg::new(3), 10);
        m.write_reg(RegClass::Fp, Reg::new(3), 20);
        assert_eq!(m.read_reg(RegClass::Int, Reg::new(3)), 10);
        assert_eq!(m.read_reg(RegClass::Fp, Reg::new(3)), 20);
    }
}
