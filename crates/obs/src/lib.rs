//! Protocol-level observability for the `async-bft` workspace.
//!
//! Every host (the deterministic simulator, the TCP transport) and every
//! protocol state machine (reliable broadcast, Bracha consensus, the
//! baselines) can carry an [`Obs`] handle and emit structured [`Event`]s
//! through it. The handle is **zero-cost when disabled**: a disabled
//! handle is a `None`, `emit` takes the event as a closure, and the
//! closure is never run — no formatting, no allocation, no locking.
//!
//! Enabled handles deliver events to a [`Sink`]. Ready-made sinks:
//!
//! * [`VecSink`] — records every event in order (tests, debugging).
//! * [`MetricsSink`] — aggregates per-round / per-phase latency and
//!   message-count statistics using `bft-stats`.
//! * [`JsonlSink`] — streams one JSON object per event to any
//!   `io::Write` (the machine-readable trace export).
//! * [`InvariantSink`] — checks agreement / validity / equivocation
//!   online while the run executes.
//!
//! Sinks compose with [`Tee`]. The host stamps event time into the
//! handle's shared clock ([`Obs::set_now`]); protocol code never needs a
//! clock of its own.
//!
//! # Example
//!
//! ```
//! use bft_obs::{Event, Obs, VecSink};
//! use bft_types::{NodeId, Value};
//!
//! let (obs, sink) = Obs::new(VecSink::new());
//! obs.set_now(7);
//! obs.emit(NodeId::new(0), || Event::Decided { round: 1, value: Value::One });
//!
//! let events = sink.lock().take();
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].0, 7); // the stamped time
//!
//! // A disabled handle never evaluates the closure:
//! let off = Obs::disabled();
//! off.emit(NodeId::new(0), || unreachable!("disabled handles skip the closure"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod invariant;
pub mod json;
mod jsonl;
mod metrics_sink;
mod sinks;
pub mod trace;

pub use event::{Event, RbcPhase, ReactorStats};
pub use invariant::InvariantSink;
pub use jsonl::JsonlSink;
pub use metrics_sink::MetricsSink;
pub use sinks::{Tee, VecSink};
pub use trace::{span_id, SpanRecord, TraceAssembler, TraceCtx, TracePhase, TraceSink};

use bft_types::NodeId;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A consumer of observability events.
///
/// `at` is the host's timestamp (simulated ticks under `bft-sim`,
/// microseconds since run start under `bft-net`); `node` is the node
/// at which the event was observed.
pub trait Sink {
    /// Consumes one event.
    fn on_event(&mut self, at: u64, node: NodeId, event: &Event);
}

/// A sink shared between an [`Obs`] handle and the host that wants to
/// read the sink's state after (or during) the run.
pub struct SharedSink<S: ?Sized>(Arc<Mutex<S>>);

impl<S> SharedSink<S> {
    /// Wraps a sink for sharing.
    pub fn new(sink: S) -> Self {
        SharedSink(Arc::new(Mutex::new(sink)))
    }

    /// Locks the sink for inspection.
    ///
    /// Do not hold the guard across calls into observed code — the
    /// emitting side takes the same lock.
    pub fn lock(&self) -> MutexGuard<'_, S> {
        self.0.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Recovers the sink, if this is the last handle to it.
    pub fn try_into_inner(self) -> Option<S> {
        Arc::try_unwrap(self.0).ok().map(|m| m.into_inner().unwrap_or_else(|p| p.into_inner()))
    }
}

impl<S: ?Sized> Clone for SharedSink<S> {
    fn clone(&self) -> Self {
        SharedSink(Arc::clone(&self.0))
    }
}

impl<S: ?Sized> fmt::Debug for SharedSink<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SharedSink(..)")
    }
}

struct ObsInner {
    clock: AtomicU64,
    sink: Arc<Mutex<dyn Sink + Send>>,
}

/// A cloneable observer handle carried by hosts and protocol state
/// machines.
///
/// Disabled (the default) it is a single `None` check per emission site;
/// enabled it stamps the shared clock's current time on every event and
/// forwards it to the sink. Clones share the sink and the clock.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
    spans_off: bool,
}

impl Obs {
    /// The disabled handle: every `emit` is a no-op and the event closure
    /// is never evaluated.
    pub fn disabled() -> Self {
        Obs { inner: None, spans_off: false }
    }

    /// Creates an enabled handle feeding `sink`, returning the handle and
    /// a [`SharedSink`] through which the host can read the sink back.
    pub fn new<S: Sink + Send + 'static>(sink: S) -> (Self, SharedSink<S>) {
        let shared = SharedSink::new(sink);
        (Self::to(&shared), shared)
    }

    /// Creates an enabled handle feeding an existing shared sink.
    pub fn to<S: Sink + Send + 'static>(shared: &SharedSink<S>) -> Self {
        let sink: Arc<Mutex<dyn Sink + Send>> = Arc::clone(&shared.0) as _;
        Obs { inner: Some(Arc::new(ObsInner { clock: AtomicU64::new(0), sink })), spans_off: false }
    }

    /// A clone of this handle that forwards events but silently drops
    /// trace spans (`SpanStart` / `SpanEnd`).
    ///
    /// Span ids are pure functions of `(trace, node, phase)`, so a
    /// restarted node's spans would collide with the ones its pre-crash
    /// incarnation already emitted; recovering replacements observe
    /// events only.
    pub fn sans_spans(&self) -> Self {
        Obs { inner: self.inner.clone(), spans_off: true }
    }

    /// Whether events are being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether trace spans are being recorded (enabled and not
    /// span-suppressed via [`Obs::sans_spans`]).
    pub fn spans_enabled(&self) -> bool {
        self.inner.is_some() && !self.spans_off
    }

    /// Sets the shared clock (hosts call this as their time advances).
    pub fn set_now(&self, now: u64) {
        if let Some(inner) = &self.inner {
            inner.clock.store(now, Ordering::Relaxed);
        }
    }

    /// The current value of the shared clock (0 when disabled).
    pub fn now(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| inner.clock.load(Ordering::Relaxed))
    }

    /// Emits one event observed at `node`.
    ///
    /// The closure is evaluated only when the handle is enabled, so
    /// emission sites may format labels or clone payloads inside it
    /// without cost on the disabled path.
    pub fn emit(&self, node: NodeId, event: impl FnOnce() -> Event) {
        if let Some(inner) = &self.inner {
            let at = inner.clock.load(Ordering::Relaxed);
            let event = event();
            let mut sink = inner.sink.lock().unwrap_or_else(|p| p.into_inner());
            sink.on_event(at, node, &event);
        }
    }

    /// Emits one event observed at `node` with an explicit timestamp,
    /// bypassing the shared clock.
    ///
    /// Two users: hosts whose emission sites run on threads the shared
    /// clock is not refreshed from (the TCP runtime's reader/writer
    /// threads stamp `Clock::now_us()` at emit time), and retroactive
    /// emissions whose logical time predates the current clock (opening
    /// a trace span once its outcome is known).
    pub fn emit_at(&self, at: u64, node: NodeId, event: impl FnOnce() -> Event) {
        if let Some(inner) = &self.inner {
            let event = event();
            let mut sink = inner.sink.lock().unwrap_or_else(|p| p.into_inner());
            sink.on_event(at, node, &event);
        }
    }
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Obs({})", if self.enabled() { "enabled" } else { "disabled" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_types::Value;

    #[test]
    fn disabled_handle_skips_closure() {
        let obs = Obs::disabled();
        let mut ran = false;
        obs.emit(NodeId::new(0), || {
            ran = true;
            Event::NodeHalted
        });
        assert!(!ran);
        assert!(!obs.enabled());
        assert_eq!(obs.now(), 0);
    }

    #[test]
    fn enabled_handle_stamps_time_and_records() {
        let (obs, sink) = Obs::new(VecSink::new());
        assert!(obs.enabled());
        obs.set_now(5);
        obs.emit(NodeId::new(1), || Event::RoundStarted { round: 1 });
        obs.set_now(9);
        obs.emit(NodeId::new(2), || Event::Decided { round: 1, value: Value::One });
        let events = sink.lock().take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0], (5, NodeId::new(1), Event::RoundStarted { round: 1 }));
        assert_eq!(events[1], (9, NodeId::new(2), Event::Decided { round: 1, value: Value::One }));
    }

    #[test]
    fn emit_at_bypasses_shared_clock() {
        let (obs, sink) = Obs::new(VecSink::new());
        obs.set_now(100);
        obs.emit_at(7, NodeId::new(1), || Event::NodeHalted);
        let events = sink.lock().take();
        assert_eq!(events, vec![(7, NodeId::new(1), Event::NodeHalted)]);
        assert_eq!(obs.now(), 100, "the shared clock is untouched");
    }

    #[test]
    fn clones_share_sink_and_clock() {
        let (obs, sink) = Obs::new(VecSink::new());
        let clone = obs.clone();
        obs.set_now(3);
        clone.emit(NodeId::new(0), || Event::NodeHalted);
        assert_eq!(clone.now(), 3);
        assert_eq!(sink.lock().events().len(), 1);
        assert_eq!(sink.lock().events()[0].0, 3);
    }
}
