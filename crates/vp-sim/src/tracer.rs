//! Trace consumers.
//!
//! A [`Tracer`] observes every retired instruction, playing the role SHADE's
//! analyzer hooks played for the paper: the profiler, the ILP machine and
//! online predictor evaluations are all tracers.

use crate::Retirement;

/// Observes retired instructions.
///
/// Implementations should be cheap: the simulator calls
/// [`Tracer::retire`] once per dynamic instruction. A `retire` defined in
/// a crate other than its caller's must be `#[inline]`, or the run loop
/// calls it out of line for every instruction. `#[inline]` is a hint: a
/// `retire` that must never be a call even beside another tracer in the
/// same loop (the recorder in [`Trace::capture_with`](crate::Trace::capture_with))
/// is `#[inline(always)]`, and should be small enough for that to pay,
/// with its rare work in a `#[cold]` function.
pub trait Tracer {
    /// Called after each instruction retires, with its full effect.
    fn retire(&mut self, ev: &Retirement<'_>);
}

/// A tracer that discards everything (for running programs purely for their
/// architectural effect).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {
    fn retire(&mut self, _ev: &Retirement<'_>) {}
}

/// Adapts a closure into a [`Tracer`].
///
/// ```
/// use vp_sim::{FnTracer, Tracer};
/// let mut count = 0u64;
/// {
///     let mut t = FnTracer::new(|_ev| count += 1);
///     // ... pass &mut t to vp_sim::run ...
///     # let _ = &mut t;
/// }
/// assert_eq!(count, 0);
/// ```
#[derive(Debug)]
pub struct FnTracer<F>(F);

impl<F: FnMut(&Retirement<'_>)> FnTracer<F> {
    /// Wraps the closure.
    pub fn new(f: F) -> Self {
        FnTracer(f)
    }
}

impl<F: FnMut(&Retirement<'_>)> Tracer for FnTracer<F> {
    fn retire(&mut self, ev: &Retirement<'_>) {
        (self.0)(ev);
    }
}

// The forwarding impls are forced inline: each is one call, and left to
// the inliner's budget inside a large run loop it stays a call per
// instruction in front of a tracer that would have inlined.
impl<T: Tracer + ?Sized> Tracer for &mut T {
    #[inline(always)]
    fn retire(&mut self, ev: &Retirement<'_>) {
        (**self).retire(ev);
    }
}

/// Fans one trace out to two tracers, in order.
///
/// Chains compose: `ChainTracer::new(a, ChainTracer::new(b, c))`.
#[derive(Debug, Default)]
pub struct ChainTracer<A, B> {
    first: A,
    second: B,
}

impl<A: Tracer, B: Tracer> ChainTracer<A, B> {
    /// Creates a tracer that forwards to `first`, then `second`.
    pub fn new(first: A, second: B) -> Self {
        ChainTracer { first, second }
    }

    /// Consumes the chain and returns both tracers.
    pub fn into_inner(self) -> (A, B) {
        (self.first, self.second)
    }
}

impl<A: Tracer, B: Tracer> Tracer for ChainTracer<A, B> {
    #[inline(always)]
    fn retire(&mut self, ev: &Retirement<'_>) {
        self.first.retire(ev);
        self.second.retire(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, RunLimits};
    use vp_isa::asm::assemble;

    #[test]
    fn chain_sees_events_in_order() {
        let p = assemble("li r1, 1\nhalt\n").unwrap();
        let mut log: Vec<&'static str> = Vec::new();
        {
            let log = std::cell::RefCell::new(&mut log);
            let a = FnTracer::new(|_: &Retirement<'_>| log.borrow_mut().push("a"));
            let b = FnTracer::new(|_: &Retirement<'_>| log.borrow_mut().push("b"));
            let mut chain = ChainTracer::new(a, b);
            run(&p, &mut chain, RunLimits::default()).unwrap();
        }
        assert_eq!(log, vec!["a", "b", "a", "b"]);
    }

    #[test]
    fn null_tracer_runs() {
        let p = assemble("li r1, 1\nhalt\n").unwrap();
        let summary = run(&p, &mut NullTracer, RunLimits::default()).unwrap();
        assert_eq!(summary.instructions(), 2);
    }
}
