//! Round and step numbering for Bracha's consensus protocol.

use std::fmt;

/// A consensus round number, starting at 1.
///
/// Bracha's protocol proceeds in an unbounded sequence of rounds; each round
/// consists of the three [`Step`]s `Initial → Echo → Ready`.
///
/// # Example
///
/// ```
/// use bft_types::Round;
///
/// let r = Round::FIRST;
/// assert_eq!(r.get(), 1);
/// assert_eq!(r.next().get(), 2);
/// assert_eq!(r.next().prev(), Some(r));
/// assert_eq!(r.prev(), None);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Round(u64);

impl Round {
    /// The first round of the protocol.
    pub const FIRST: Round = Round(1);

    /// Creates a round from its 1-based number.
    ///
    /// # Panics
    ///
    /// Panics if `round` is zero; rounds are numbered from 1.
    pub fn new(round: u64) -> Self {
        assert!(round >= 1, "rounds are numbered from 1");
        Round(round)
    }

    /// Returns the 1-based round number.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Returns the next round.
    pub const fn next(self) -> Round {
        Round(self.0 + 1)
    }

    /// Returns the previous round, or `None` for the first round.
    pub const fn prev(self) -> Option<Round> {
        if self.0 > 1 {
            Some(Round(self.0 - 1))
        } else {
            None
        }
    }
}

impl fmt::Display for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Debug for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// One of the three steps of a Bracha consensus round.
///
/// Each round runs `Initial → Echo → Ready`; a process moves to the next
/// step only after collecting a quorum (`n − f`) of *validated* messages of
/// its current step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Step {
    /// Step 1: broadcast the current estimate.
    Initial,
    /// Step 2: broadcast the majority of the Initial messages received.
    Echo,
    /// Step 3: broadcast the (possibly D-flagged) Echo outcome; decide,
    /// adopt, or flip a coin.
    Ready,
}

impl Step {
    /// All steps in protocol order.
    pub const ALL: [Step; 3] = [Step::Initial, Step::Echo, Step::Ready];

    /// Returns the step that follows this one within a round, or `None`
    /// after [`Step::Ready`] (the round ends).
    pub const fn next(self) -> Option<Step> {
        match self {
            Step::Initial => Some(Step::Echo),
            Step::Echo => Some(Step::Ready),
            Step::Ready => None,
        }
    }

    /// Returns the step that precedes this one within a round, or `None`
    /// before [`Step::Initial`].
    pub const fn prev(self) -> Option<Step> {
        match self {
            Step::Initial => None,
            Step::Echo => Some(Step::Initial),
            Step::Ready => Some(Step::Echo),
        }
    }

    /// Returns the 0-based position of the step within its round.
    pub const fn index(self) -> usize {
        match self {
            Step::Initial => 0,
            Step::Echo => 1,
            Step::Ready => 2,
        }
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Step::Initial => "initial",
            Step::Echo => "echo",
            Step::Ready => "ready",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_sequence() {
        let r = Round::FIRST;
        assert_eq!(r.get(), 1);
        assert_eq!(r.prev(), None);
        let r5 = Round::new(5);
        assert_eq!(r5.get(), 5);
        assert_eq!(r5.next().get(), 6);
        assert_eq!(r5.prev(), Some(Round::new(4)));
    }

    #[test]
    #[should_panic(expected = "numbered from 1")]
    fn round_zero_panics() {
        let _ = Round::new(0);
    }

    #[test]
    fn step_order_is_a_chain() {
        assert_eq!(Step::Initial.next(), Some(Step::Echo));
        assert_eq!(Step::Echo.next(), Some(Step::Ready));
        assert_eq!(Step::Ready.next(), None);
        for (i, s) in Step::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
            if i > 0 {
                assert_eq!(s.prev(), Some(Step::ALL[i - 1]));
            } else {
                assert_eq!(s.prev(), None);
            }
        }
    }

    #[test]
    fn step_ordering_matches_protocol_order() {
        assert!(Step::Initial < Step::Echo);
        assert!(Step::Echo < Step::Ready);
    }
}
