//! Protocol-level tracing: run a small cluster with an observer
//! attached, stream every event as JSONL to stdout, and print the
//! aggregated metrics as a Prometheus text snapshot.
//!
//! ```bash
//! cargo run --example observability
//! ```

use async_bft::obs::{JsonlSink, MetricsSink, Obs, Tee};
use async_bft::{Cluster, Schedule};

fn main() {
    // Tee the event stream: raw JSONL lines into a buffer (stdout at
    // the end), aggregated latency/message metrics alongside.
    let (obs, shared) = Obs::new(Tee(JsonlSink::new(Vec::new()), MetricsSink::new()));

    let report = Cluster::new(4)
        .expect("n > 0")
        .seed(7)
        .split_inputs(2)
        .schedule(Schedule::Uniform { min: 1, max: 10 })
        .observer(obs.clone())
        .run();
    drop(obs);

    let Tee(jsonl, mut metrics) = shared.try_into_inner().expect("all handles dropped");

    let lines = jsonl.lines();
    let trace = String::from_utf8(jsonl.into_inner()).expect("jsonl is utf-8");
    println!("--- first 10 of {lines} events ---");
    for line in trace.lines().take(10) {
        println!("{line}");
    }
    println!("--- aggregated metrics ---");
    println!("{}", metrics.render_prometheus());
    println!("--- run report ---");
    println!("decided: {:?} in round {:?}", report.unanimous_output(), report.decision_round());
}
