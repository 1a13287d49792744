//! The top-level run loop.

use std::fmt;

use vp_isa::Program;

use crate::{Machine, SimError, Tracer};

/// Execution limits for a run.
///
/// The default budget (50 million instructions) comfortably covers every
/// workload in `vp-workloads` while still catching accidental infinite
/// loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLimits {
    /// Maximum number of instructions to retire before stopping.
    pub max_instructions: u64,
}

impl Default for RunLimits {
    fn default() -> Self {
        RunLimits {
            max_instructions: 50_000_000,
        }
    }
}

impl RunLimits {
    /// A budget of exactly `max_instructions`.
    #[must_use]
    pub fn with_max(max_instructions: u64) -> Self {
        RunLimits { max_instructions }
    }
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// The program executed `halt`.
    Halted,
    /// The instruction budget ran out first.
    BudgetExhausted,
}

/// Summary of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    instructions: u64,
    status: RunStatus,
}

impl RunSummary {
    /// Dynamic instructions retired.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Why the run stopped.
    #[must_use]
    pub fn status(&self) -> RunStatus {
        self.status
    }

    /// Whether the program reached `halt`.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.status == RunStatus::Halted
    }
}

impl fmt::Display for RunSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} instructions, {}",
            self.instructions,
            match self.status {
                RunStatus::Halted => "halted",
                RunStatus::BudgetExhausted => "budget exhausted",
            }
        )
    }
}

/// Runs `program` from a fresh machine until `halt` or the budget expires,
/// delivering each retirement to `tracer`.
///
/// # Errors
///
/// Propagates [`SimError`] faults (PC leaving the text segment, branch
/// target overflow).
pub fn run(
    program: &Program,
    tracer: &mut impl Tracer,
    limits: RunLimits,
) -> Result<RunSummary, SimError> {
    let mut machine = Machine::for_program(program);
    run_on(&mut machine, program, tracer, limits)
}

/// Like [`run`], but continues an existing machine (useful for phase-split
/// measurements such as the paper's FP init vs. computation phases).
///
/// Each call decodes the program's text once (O(text)) and runs the
/// decoded form; the decoded array is dropped when the call returns.
///
/// # Errors
///
/// Propagates [`SimError`] faults. The machine then holds the registers,
/// memory and PC from before the faulting instruction.
pub fn run_on(
    machine: &mut Machine,
    program: &Program,
    tracer: &mut impl Tracer,
    limits: RunLimits,
) -> Result<RunSummary, SimError> {
    let started = std::time::Instant::now();
    let (retired, status) =
        crate::exec::execute(machine, program, tracer, limits.max_instructions)?;
    // Throughput accounting for the observability layer: one bump per
    // completed run, outside the retire loop, so per-instruction cost is
    // untouched.
    vp_obs::counter("sim.runs").add(1);
    vp_obs::counter("sim.instructions").add(retired);
    vp_obs::counter("sim.wall_ns")
        .add(started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
    Ok(RunSummary {
        instructions: retired,
        status,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NullTracer;
    use vp_isa::asm::assemble;

    #[test]
    fn halting_program_reports_exact_count() {
        let p = assemble("li r1, 5\ntop: addi r1, r1, -1\nbne r1, r0, top\nhalt\n").unwrap();
        let s = run(&p, &mut NullTracer, RunLimits::default()).unwrap();
        assert!(s.halted());
        // li + 5*(addi+bne) + halt
        assert_eq!(s.instructions(), 12);
    }

    #[test]
    fn budget_stops_infinite_loop() {
        let p = assemble("top: beq r0, r0, top\nhalt\n").unwrap();
        let s = run(&p, &mut NullTracer, RunLimits::with_max(1000)).unwrap();
        assert_eq!(s.status(), RunStatus::BudgetExhausted);
        assert_eq!(s.instructions(), 1000);
    }

    #[test]
    fn run_on_resumes_machine_state() {
        let p = assemble("li r1, 2\ntop: addi r1, r1, -1\nbne r1, r0, top\nhalt\n").unwrap();
        let mut m = Machine::for_program(&p);
        // First, a budget that stops mid-loop.
        let s1 = run_on(&mut m, &p, &mut NullTracer, RunLimits::with_max(3)).unwrap();
        assert_eq!(s1.status(), RunStatus::BudgetExhausted);
        // Resume to completion.
        let s2 = run_on(&mut m, &p, &mut NullTracer, RunLimits::default()).unwrap();
        assert!(s2.halted());
        // li + 2*(addi+bne) + halt = 6 total across both segments.
        assert_eq!(s1.instructions() + s2.instructions(), 6);
    }

    #[test]
    fn fault_is_propagated() {
        let p = assemble("nop\n").unwrap();
        let e = run(&p, &mut NullTracer, RunLimits::default()).unwrap_err();
        assert!(matches!(e, SimError::PcOutOfRange { .. }));
    }
}
