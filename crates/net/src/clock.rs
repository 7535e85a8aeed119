//! The transport's wall-clock access, concentrated in one module.
//!
//! `bft-net` is a *host* crate: real sockets imply real time (backoff
//! delays, chaos windows, run timeouts). Protocol state machines never
//! see this clock — they stay pure and replayable under `bft-sim`. Keeping every `Instant`/`sleep` here makes the
//! lint escape hatches auditable in one place.

use std::time::Duration;

/// Milliseconds-resolution clock anchored at run start.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Clock {
    // lint: allow(determinism) — the TCP runtime is a wall-clock host; backoff, chaos windows and timeouts are real durations, protocol logic stays clock-free
    start: std::time::Instant,
}

impl Clock {
    /// A clock anchored at "now".
    pub(crate) fn new() -> Self {
        // lint: allow(determinism) — single wall-clock read anchoring the run; see struct note
        Clock { start: std::time::Instant::now() }
    }

    /// Elapsed time since run start.
    pub(crate) fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Milliseconds since run start.
    pub(crate) fn now_ms(&self) -> u64 {
        self.elapsed().as_millis() as u64
    }

    /// Microseconds since run start (the observer clock unit).
    pub(crate) fn now_us(&self) -> u64 {
        self.elapsed().as_micros() as u64
    }
}

/// Sleeps for `ms` milliseconds.
pub(crate) fn sleep_ms(ms: u64) {
    if ms == 0 {
        return;
    }
    // lint: allow(determinism) — real-time wait in the transport host (backoff, retransmission, poll intervals); never called from protocol state machines
    std::thread::sleep(Duration::from_millis(ms));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic_from_zero() {
        let c = Clock::new();
        let a = c.now_us();
        sleep_ms(2);
        let b = c.now_us();
        assert!(b >= a);
        assert!(c.now_ms() <= 10_000, "freshly anchored clock reads small");
    }
}
