//! `abtrace` — reconstruct causal trace trees from a JSONL event
//! export and print a latency-attribution report.
//!
//! ```text
//! abtrace [FILE] [--json] [--canonical]
//! ```
//!
//! Reads the JSONL stream written by `absim --trace-out` / `abnet
//! --trace-out` (or stdin when no FILE is given), reassembles every
//! `span_start`/`span_end` pair into per-transaction trace trees, and
//! prints:
//!
//! * per-phase latency (count, p50, p99, max),
//! * the critical-path breakdown of submit → commit latency (which
//!   phase the proposer was actually waiting on, summing exactly to the
//!   measured end-to-end latency),
//! * the per-instance ABA round-count distribution (the O(1) expected
//!   rounds claim, measured).
//!
//! `--json` prints the same analysis as the deterministic `"tracing"`
//! JSON object instead of the human-readable table. `--canonical`
//! prints one sorted line per span (byte-identical across same-seed
//! simulator runs — the determinism check).
//!
//! Examples:
//!
//! ```text
//! absim --n 4 --epochs 4 --trace-out /tmp/trace.jsonl
//! abtrace /tmp/trace.jsonl
//! ```

use async_bft::obs::json::JsonValue;
use async_bft::obs::{Event, TraceAssembler, TracePhase};
use async_bft::types::NodeId;
use std::io::{BufRead, Read};

struct Options {
    input: Option<String>,
    json: bool,
    canonical: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options { input: None, json: false, canonical: false };
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--canonical" => opts.canonical = true,
            "--help" | "-h" => {
                println!("usage: abtrace [FILE] [--json] [--canonical]");
                std::process::exit(0);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown argument: {flag}")),
            file if opts.input.is_none() => opts.input = Some(file.to_string()),
            extra => return Err(format!("unexpected extra input: {extra}")),
        }
    }
    Ok(opts)
}

/// Statistics of one ingestion pass.
#[derive(Default)]
struct Ingest {
    lines: u64,
    span_events: u64,
    skipped: u64,
}

/// Reconstructs a span event from one parsed JSONL object; lines that
/// are valid JSON but not span events return `None` (they are the
/// metrics/protocol events sharing the export).
fn span_event(obj: &JsonValue) -> Option<(u64, NodeId, Event)> {
    let at = obj.get("t")?.as_u64()?;
    let node = NodeId::new(obj.get("node")?.as_u64()? as usize);
    let trace = obj.get("trace")?.as_u64()?;
    let span = obj.get("span")?.as_u64()?;
    match obj.get("ev")?.as_str()? {
        "span_start" => {
            let parent = obj.get("parent")?.as_u64()?;
            let round = obj.get("round").and_then(JsonValue::as_u64).unwrap_or(0);
            let phase = TracePhase::from_parts(obj.get("phase")?.as_str()?, round)?;
            Some((at, node, Event::SpanStart { trace, span, parent, phase }))
        }
        "span_end" => Some((at, node, Event::SpanEnd { trace, span })),
        _ => None,
    }
}

fn ingest(reader: impl BufRead, asm: &mut TraceAssembler) -> Result<Ingest, String> {
    let mut stats = Ingest::default();
    for line in reader.lines() {
        let line = line.map_err(|e| format!("read: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        stats.lines += 1;
        let Ok(obj) = JsonValue::parse(&line) else {
            stats.skipped += 1;
            continue;
        };
        if let Some((at, node, event)) = span_event(&obj) {
            asm.on_event(at, node, &event);
            stats.span_events += 1;
        }
    }
    Ok(stats)
}

fn run() -> Result<(), String> {
    let opts = parse_args()?;
    let mut asm = TraceAssembler::new();
    let stats = match &opts.input {
        Some(path) => {
            let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
            ingest(std::io::BufReader::new(file), &mut asm)?
        }
        None => {
            let mut text = String::new();
            std::io::stdin().read_to_string(&mut text).map_err(|e| format!("stdin: {e}"))?;
            ingest(std::io::Cursor::new(text), &mut asm)?
        }
    };

    if stats.span_events == 0 {
        return Err(format!(
            "no span events in {} input lines — was the export produced with --trace-out \
             in --epochs ordering mode?",
            stats.lines
        ));
    }
    eprintln!(
        "read {} lines: {} span events, {} unparseable",
        stats.lines, stats.span_events, stats.skipped
    );

    if opts.canonical {
        for line in asm.canonical_lines() {
            println!("{line}");
        }
    } else if opts.json {
        println!("{}", asm.to_json());
    } else {
        print!("{}", asm.render_report());
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}
