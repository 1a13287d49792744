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

    #[inline]
    fn from_bits(bits: u64) -> Self {
        match bits {
            0 => Outcome::None,
            1 => Outcome::Correct,
            _ => Outcome::Incorrect,
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
/// let outcomes: Vec<Outcome> = column.iter().collect();
/// assert_eq!(outcomes, [Outcome::Correct, Outcome::None, Outcome::Incorrect]);
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

    /// The outcomes in push order.
    #[must_use]
    pub fn iter(&self) -> Outcomes<'_> {
        Outcomes {
            words: self.words.iter(),
            word: 0,
            index: 0,
            len: self.len,
        }
    }
}

/// Iterator over an [`OutcomeColumn`], unpacking one word per 32
/// outcomes.
#[derive(Debug, Clone)]
pub struct Outcomes<'a> {
    words: std::slice::Iter<'a, u64>,
    /// The current word, shifted so the next outcome is its low bits.
    word: u64,
    index: usize,
    len: usize,
}

impl Iterator for Outcomes<'_> {
    type Item = Outcome;

    #[inline]
    fn next(&mut self) -> Option<Outcome> {
        if self.index == self.len {
            return None;
        }
        if self.index.is_multiple_of(PER_WORD) {
            self.word = *self.words.next()?;
        }
        self.index += 1;
        let outcome = Outcome::from_bits(self.word & 0b11);
        self.word >>= 2;
        Some(outcome)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.len - self.index;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Outcomes<'_> {}

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
        let unpacked: Vec<Outcome> = column.iter().collect();
        assert_eq!(unpacked.len(), 100);
        assert!(unpacked
            .iter()
            .enumerate()
            .all(|(i, &o)| o == pattern[i % 3]));
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
