//! The traced run's span data: per-request span trees stitched from the
//! generator's and the gateway's stamps, per-phase durations from the
//! program's existing epoch spans, and the JSONL file both end up in.

use crate::loadgen::Record;
#[cfg(test)]
use crate::sink::CommitStamp;
use crate::sink::{sampled, BenchSink};
use crate::stats;
use async_bft::obs::json::JsonValue;
use async_bft::obs::{TraceAssembler, TraceCtx};
use async_bft::types::NodeId;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::PathBuf;

/// At most this many request trees are written out.
const MAX_REQUESTS_WRITTEN: usize = 20_000;
/// Epoch span trees are written for this many distinct epochs.
const MAX_EPOCHS_WRITTEN: usize = 64;

/// One sampled request; every stamp is microseconds on the generator's
/// clock. `request` = due → acked, and its children tile it exactly:
/// `gen_wait` (due → sent), `admit` (sent → accepted by the gateway),
/// `order` (accepted → seen committed by the gateway), `ack` (→ read).
#[derive(Clone, Copy, Debug)]
pub struct RequestSpan {
    pub client: u64,
    pub seq: u64,
    pub due: u64,
    pub sent: u64,
    pub accepted: u64,
    pub committed: u64,
    pub acked: u64,
    /// The epoch the request committed in, at gateway node `node`.
    pub epoch: u64,
    pub node: NodeId,
    /// Whether a gateway stamp had to be clamped between the
    /// generator's (see [`request_spans`]).
    pub clamped: bool,
}

impl RequestSpan {
    pub fn admit_us(&self) -> u64 {
        self.accepted.saturating_sub(self.sent)
    }

    pub fn ack_us(&self) -> u64 {
        self.acked.saturating_sub(self.committed)
    }

    /// The epoch trace this request rode in: the program derives trace
    /// ids from `(proposer, epoch)`, so the join needs no coordination.
    pub fn epoch_trace(&self) -> u64 {
        TraceCtx::derive(self.node, self.epoch, self.epoch).trace
    }
}

/// Joins the generator's records with the gateway stamps of the sampled
/// requests that fell due inside the window.
pub fn request_spans(
    records: &[Record],
    sink: &BenchSink,
    window_us: (u64, u64),
) -> Vec<RequestSpan> {
    records
        .iter()
        .filter(|r| sampled(r.seq) && r.due_us >= window_us.0 && r.due_us < window_us.1)
        .filter_map(|r| {
            let commit = sink.committed.get(&(r.client, r.seq))?;
            // The gateway queues its reply before it emits the event the
            // sink stamps, and the emit can wait on the observer's lock,
            // so a stamp may trail the generator's next one; clamp it so
            // the children tile the request.
            let stamped = *sink.accepted.get(&(r.client, r.seq))?;
            let accepted = stamped.clamp(r.sent_us, r.ack_us);
            let committed = commit.at_us.clamp(accepted, r.ack_us);
            Some(RequestSpan {
                client: r.client,
                seq: r.seq,
                due: r.due_us,
                sent: r.sent_us,
                accepted,
                committed,
                acked: r.ack_us,
                epoch: commit.epoch,
                node: commit.node,
                clamped: accepted != stamped || committed != commit.at_us,
            })
        })
        .collect()
}

pub fn child_p50_ms(requests: &[RequestSpan], child: impl Fn(&RequestSpan) -> u64) -> f64 {
    let ms: Vec<f64> = requests.iter().map(|r| child(r) as f64 / 1e3).collect();
    stats::median(&ms)
}

/// Completed-span durations by phase name, from the program's own
/// spans. A phase the program no longer emits is simply absent and
/// reads as 0.
pub struct Phases(BTreeMap<&'static str, Vec<f64>>);

impl Phases {
    pub fn of(assembler: &TraceAssembler) -> Self {
        Phases(
            assembler
                .phase_durations()
                .into_iter()
                .map(|(name, samples)| {
                    let mut v = samples.values().to_vec();
                    stats::sort(&mut v);
                    (name, v)
                })
                .collect(),
        )
    }

    /// Sum of the named phases' median durations (observer clock units).
    pub fn p50(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.0.get(n).map_or(0.0, |v| stats::quantile_sorted(v, 0.5))).sum()
    }

    pub fn count(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.len() as f64)
    }
}

fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Where trace files go: `out/` beside this package's manifest, which
/// is inside whatever checkout the benchmark was built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes `out/<workload>.trace.jsonl`: one JSON object per span. The
/// request trees come first (`"span": "request"` and its four children,
/// sharing `"id"`); each `order` child names the epoch `"trace"` it rode
/// in, and the epoch spans of the first few such traces (plus
/// `more_traces`, as `(trace id, epoch)`) follow.
pub fn write(
    workload: &str,
    requests: &[RequestSpan],
    more_traces: &[(u64, u64)],
    assembler: &TraceAssembler,
) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}.trace.jsonl"));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);

    let mut epochs: BTreeSet<u64> = BTreeSet::new();
    let mut traces: BTreeMap<u64, u64> = more_traces.iter().copied().collect();
    for r in requests.iter().take(MAX_REQUESTS_WRITTEN) {
        let id = format!("c{}-s{}", r.client, r.seq);
        let span = |name: &str, parent: JsonValue, start: u64, end: u64| {
            vec![
                ("id", JsonValue::str(id.clone())),
                ("span", JsonValue::str(name)),
                ("parent", parent),
                ("start_us", JsonValue::U64(start)),
                ("end_us", JsonValue::U64(end)),
            ]
        };
        let parent = || JsonValue::str("request");
        let mut root = span("request", JsonValue::Null, r.due, r.acked);
        root.push(("client", JsonValue::U64(r.client)));
        root.push(("seq", JsonValue::U64(r.seq)));
        let mut order = span("order", parent(), r.accepted, r.committed);
        order.push(("epoch", JsonValue::U64(r.epoch)));
        order.push(("node", JsonValue::U64(r.node.index() as u64)));
        order.push(("trace", JsonValue::U64(r.epoch_trace())));
        for line in [
            root,
            span("gen_wait", parent(), r.due, r.sent),
            span("admit", parent(), r.sent, r.accepted),
            order,
            span("ack", parent(), r.committed, r.acked),
        ] {
            writeln!(file, "{}", obj(line))?;
        }
        if epochs.len() < MAX_EPOCHS_WRITTEN || epochs.contains(&r.epoch) {
            epochs.insert(r.epoch);
            traces.insert(r.epoch_trace(), r.epoch);
        }
    }
    // The program's own spans of those epochs, on the observer's clock
    // (microseconds since the runtime started; durations are comparable
    // with the request spans, absolute times are not).
    for s in assembler.spans().filter(|s| traces.contains_key(&s.trace)) {
        let Some(end) = s.end else { continue };
        let line = obj(vec![
            ("trace", JsonValue::U64(s.trace)),
            ("epoch", JsonValue::U64(traces[&s.trace])),
            ("span", JsonValue::str(s.phase.name())),
            ("round", JsonValue::U64(s.phase.round())),
            ("node", JsonValue::U64(s.node.index() as u64)),
            ("start_obs", JsonValue::U64(s.start)),
            ("end_obs", JsonValue::U64(end)),
        ]);
        writeln!(file, "{line}")?;
    }
    file.flush()?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_tile_the_request_span_even_when_a_gateway_stamp_trails() {
        let record = Record { client: 1, seq: 16, due_us: 100, sent_us: 130, ack_us: 9_500 };
        let mut sink = BenchSink::new(crate::loadgen::Clock::start());
        sink.accepted.insert((1, 16), 400);
        let late = CommitStamp { at_us: 9_700, epoch: 3, node: NodeId::new(1) };
        sink.committed.insert((1, 16), late);
        let spans = request_spans(&[record], &sink, (0, 1_000));
        let r = spans[0];
        assert!(r.clamped, "the commit stamp trailed the ack read");
        assert_eq!(r.committed, 9_500);
        assert_eq!(
            (r.sent - r.due) + r.admit_us() + (r.committed - r.accepted) + r.ack_us(),
            r.acked - r.due
        );
        assert_eq!(child_p50_ms(&spans, RequestSpan::admit_us), 0.27);
        assert!(request_spans(&[record], &sink, (200, 1_000)).is_empty(), "due outside the window");
    }
}
