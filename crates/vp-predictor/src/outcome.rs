//! Per-event speculation outcomes, packed two bits to an event.
//!
//! A dataflow model of value prediction needs only one fact per dynamic
//! value-producing instruction: did the machine speculate on it, and was
//! the speculation right? An [`OutcomeColumn`] records that fact for every
//! value event of a trace, in trace order, so a predictor configuration
//! replayed once (by the fused sweep kernel) can drive any number of
//! machine models without re-running the predictor.

use crate::stats::Access;

/// What the machine did with one value event's prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Outcome {
    /// No speculation: no table entry, or the classifier withheld it.
    None = 0,
    /// Speculated and the predicted value was right.
    Correct = 1,
    /// Speculated and the predicted value was wrong.
    Incorrect = 2,
}

impl Outcome {
    /// The outcome of one predictor access.
    #[must_use]
    #[inline]
    pub fn of(access: &Access) -> Self {
        if !access.speculated() {
            Outcome::None
        } else if access.correct {
            Outcome::Correct
        } else {
            Outcome::Incorrect
        }
    }
}

/// Outcomes per packed word.
const PER_WORD: usize = 32;

/// One [`Outcome`] per value event, two bits each, in push order.
///
/// # Examples
///
/// ```
/// use vp_predictor::{Outcome, OutcomeColumn};
///
/// let mut column = OutcomeColumn::new();
/// column.push(Outcome::Correct);
/// column.push(Outcome::None);
/// column.push(Outcome::Incorrect);
/// assert_eq!(column.len(), 3);
/// // Two bits per outcome, the first in the low bits.
/// assert_eq!(column.words(), [0b10_00_01]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OutcomeColumn {
    words: Vec<u64>,
    len: usize,
}

impl OutcomeColumn {
    /// An empty column.
    #[must_use]
    pub fn new() -> Self {
        OutcomeColumn::default()
    }

    /// Appends one event's outcome.
    #[inline]
    pub fn push(&mut self, outcome: Outcome) {
        let shift = 2 * (self.len % PER_WORD);
        let bits = (outcome as u64) << shift;
        match self.words.last_mut() {
            Some(word) if shift != 0 => *word |= bits,
            _ => self.words.push(bits),
        }
        self.len += 1;
    }

    /// Number of events recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no event is recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed outcomes: 32 per word, the first in the low two bits,
    /// each as its `Outcome as u64`; bits past the last outcome are 0.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packs_across_word_boundaries() {
        let pattern = [Outcome::None, Outcome::Correct, Outcome::Incorrect];
        let mut column = OutcomeColumn::new();
        for i in 0..100 {
            column.push(pattern[i % 3]);
        }
        assert_eq!(column.len(), 100);
        assert_eq!(column.words.len(), 4);
        let words = column.words();
        assert!(
            (0..100)
                .all(|i| (words[i / PER_WORD] >> (2 * (i % PER_WORD))) & 0b11
                    == pattern[i % 3] as u64)
        );
        // Bits past the last outcome stay clear.
        assert_eq!(words[3] >> (2 * (100 % PER_WORD)), 0);
    }

    #[test]
    fn outcome_of_an_access() {
        let mut a = Access {
            hit: true,
            recommended: true,
            correct: true,
            ..Access::default()
        };
        assert_eq!(Outcome::of(&a), Outcome::Correct);
        a.correct = false;
        assert_eq!(Outcome::of(&a), Outcome::Incorrect);
        a.recommended = false;
        assert_eq!(Outcome::of(&a), Outcome::None);
    }
}
