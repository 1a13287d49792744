//! The finite instruction window.

use std::collections::VecDeque;

/// A sliding window over instruction completion times.
///
/// Models a `capacity`-entry instruction window in a limit study:
/// instruction *i* cannot dispatch until instruction *i − capacity* has
/// completed, i.e. the dispatch lower bound is the completion cycle of the
/// instruction whose slot is being reused.
///
/// # Examples
///
/// ```
/// use vp_ilp::SlidingWindow;
/// let mut w = SlidingWindow::new(2);
/// assert_eq!(w.dispatch_bound(), 0); // empty window: no constraint
/// w.push_completion(10);
/// w.push_completion(20);
/// assert_eq!(w.dispatch_bound(), 10); // next instr reuses slot of the 1st
/// ```
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    capacity: usize,
    completions: VecDeque<u64>,
}

impl SlidingWindow {
    /// A window with `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SlidingWindow {
            capacity,
            completions: VecDeque::with_capacity(capacity),
        }
    }

    /// The earliest cycle at which the next instruction may dispatch, given
    /// window occupancy alone.
    #[must_use]
    pub fn dispatch_bound(&self) -> u64 {
        if self.completions.len() < self.capacity {
            0
        } else {
            *self.completions.front().expect("window is full")
        }
    }

    /// Records the completion cycle of the instruction just dispatched,
    /// sliding the window forward.
    pub fn push_completion(&mut self, completion: u64) {
        if self.completions.len() == self.capacity {
            self.completions.pop_front();
        }
        self.completions.push_back(completion);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_constraint_until_full() {
        let mut w = SlidingWindow::new(3);
        w.push_completion(5);
        w.push_completion(6);
        assert_eq!(w.dispatch_bound(), 0);
        w.push_completion(7);
        assert_eq!(w.dispatch_bound(), 5);
    }

    #[test]
    fn window_slides_in_order() {
        let mut w = SlidingWindow::new(2);
        w.push_completion(10);
        w.push_completion(4); // out-of-order completion is fine
        assert_eq!(w.dispatch_bound(), 10);
        w.push_completion(12);
        assert_eq!(w.dispatch_bound(), 4);
    }

    #[test]
    fn size_one_window_serialises() {
        let mut w = SlidingWindow::new(1);
        w.push_completion(3);
        assert_eq!(w.dispatch_bound(), 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = SlidingWindow::new(0);
    }
}
