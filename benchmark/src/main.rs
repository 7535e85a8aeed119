//! `abbench` — the one end-to-end + per-layer benchmark of the
//! async-bft workspace, behind `BENCHMARK.json`.
//!
//! ```text
//! abbench --workload tcp4_open --seed 1 --seconds 20 --trace 0
//! ```
//!
//! runs one workload once and prints, as the last line of stdout, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0` (observers off), the per-layer
//! metrics with `--trace 1` (same workload, same seed, observers and
//! step timers on, then the layer drives). Without `--workload` it runs
//! every workload both ways, each in a child process of its own, and
//! prints every metric by name with its unit (see `README.md`).
//!
//! The benchmark only *calls* the program, through the `async_bft`
//! facade; it changes nothing outside its own directory.

#![forbid(unsafe_code)]

mod check;
mod cluster;
mod drives;
mod loadgen;
mod procfs;
mod rng;
mod simrun;
mod sink;
mod spec;
mod stats;
mod tcp;
mod trace;
mod wrap;

use async_bft::obs::json::JsonValue;
use spec::{Kind, Metric, Workload, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the run set out to do (slots due; txs offered).
    pub attempted: u64,
    /// Those that were not committed by the end of the drain.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    /// Failed correctness checks; empty means the outputs were right.
    pub problems: Vec<String>,
    notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "{name} is not in the metric tables"
        );
        self.values.insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// The contract's result object, metrics in table order.
    fn to_json(&self, table: &[Metric]) -> JsonValue {
        let metrics = table
            .iter()
            .map(|m| {
                let value = self.values.get(m.name).copied().unwrap_or(0.0);
                let entry = JsonValue::Obj(vec![
                    ("value".into(), JsonValue::F64(value)),
                    ("unit".into(), JsonValue::str(m.unit)),
                ]);
                (m.name.to_string(), entry)
            })
            .collect();
        JsonValue::Obj(vec![
            ("correct".into(), JsonValue::Bool(self.problems.is_empty())),
            ("attempted".into(), JsonValue::U64(self.attempted.max(1))),
            ("failed".into(), JsonValue::U64(self.failed)),
            ("metrics".into(), JsonValue::Obj(metrics)),
        ])
    }
}

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    /// `Some(false)`: untraced only; `Some(true)`: traced only.
    trace: Option<bool>,
    repeat: usize,
    check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: None,
        repeat: 1,
        check_repeat: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|_| format!("{flag}: not a number: {v}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--trace" => args.trace = Some(number(value()?)? != 0),
            "--traced-only" => args.trace = Some(true),
            "--untraced-only" => args.trace = Some(false),
            "--repeat" => args.repeat = number(value()?)?.max(1) as usize,
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Runs one workload once in this process.
fn run_one(w: &Workload, seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let mut out = match (&w.kind, traced) {
        (Kind::Tcp(t), false) => tcp::run_untraced(t, seed, seconds)?,
        (Kind::Tcp(t), true) => tcp::run_traced(w.name, t, seed, seconds)?,
        (Kind::Sim(s), false) => simrun::run_untraced(s, seed, seconds)?,
        (Kind::Sim(s), true) => simrun::run_traced(w.name, s, seed, seconds)?,
    };
    if traced {
        for (name, value) in drives::run(seed) {
            out.set(name, value);
        }
    }
    Ok(out)
}

/// The driver's protocol: one workload, one run, one JSON line.
fn single(w: &Workload, args: &Args) -> ExitCode {
    let traced = args.trace.unwrap_or(false);
    match run_one(w, args.seed, args.seconds, traced) {
        Ok(out) => {
            for note in &out.notes {
                eprintln!("[{}] {note}", w.name);
            }
            for problem in &out.problems {
                eprintln!("[{}] INCORRECT: {problem}", w.name);
            }
            println!("{}", out.to_json(if traced { PER_LAYER } else { END_TO_END }));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("[{}] run failed: {e}", w.name);
            ExitCode::FAILURE
        }
    }
}

/// One child run's parsed result line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: BTreeMap<String, f64>,
}

/// Runs `workload` in a child process (a fresh address space, so
/// `peak_rss_mib` and thread counts are the workload's own).
fn child(workload: &str, args: &Args, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    let doc = JsonValue::parse(line).map_err(|e| format!("{workload}: {e}"))?;
    let Some(JsonValue::Obj(metrics)) = doc.get("metrics") else {
        return Err(format!("{workload}: no metrics in the result line"));
    };
    Ok(ChildResult {
        correct: doc.get("correct") == Some(&JsonValue::Bool(true)),
        attempted: doc.get("attempted").and_then(JsonValue::as_u64).unwrap_or(0),
        failed: doc.get("failed").and_then(JsonValue::as_u64).unwrap_or(0),
        values: metrics
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// Every selected workload, untraced and/or traced, `repeat` times;
/// prints each metric's median by name and unit. With `check_repeat`
/// the whole set runs twice and each end-to-end metric's change between
/// the two is held against its bound.
fn all(selected: &[Workload], args: &Args) -> ExitCode {
    let mut ok = true;
    let sets = if args.check_repeat { 2 } else { 1 };
    // (workload, metric) → one median per set.
    let mut medians: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for set in 0..sets {
        for w in selected {
            for traced in [false, true] {
                if args.trace.is_some_and(|only| only != traced) || (set > 0 && traced) {
                    continue;
                }
                let table = if traced { PER_LAYER } else { END_TO_END };
                let mut runs: Vec<ChildResult> = Vec::new();
                for _ in 0..args.repeat {
                    match child(w.name, args, traced) {
                        Ok(r) => runs.push(r),
                        Err(e) => {
                            eprintln!("{e}");
                            ok = false;
                        }
                    }
                }
                if runs.is_empty() {
                    continue;
                }
                ok &= runs.iter().all(|r| r.correct);
                let (attempted, failed): (u64, u64) =
                    runs.iter().fold((0, 0), |a, r| (a.0 + r.attempted, a.1 + r.failed));
                if set == 0 && !traced {
                    println!("# {}: {}", w.name, w.why);
                }
                println!(
                    "# {} [{}] set {} runs {} correct {} attempted {} failed {} ({:.4})",
                    w.name,
                    if traced { "traced" } else { "untraced" },
                    set + 1,
                    runs.len(),
                    runs.iter().all(|r| r.correct),
                    attempted,
                    failed,
                    failed as f64 / attempted.max(1) as f64,
                );
                for m in table {
                    let values: Vec<f64> =
                        runs.iter().filter_map(|r| r.values.get(m.name).copied()).collect();
                    let median = stats::median(&values);
                    let spread = if values.len() > 1 {
                        format!("  spread {:.1}%", 100.0 * stats::iqr_share(&values))
                    } else {
                        String::new()
                    };
                    println!(
                        "{:<12} {:<34} {:>14.4} {:<6} ({} is better){}",
                        w.name,
                        m.name,
                        median,
                        m.unit,
                        m.better.as_str(),
                        spread
                    );
                    if !traced {
                        medians.entry((w.name, m.name)).or_default().push(median);
                    }
                }
            }
        }
    }
    if args.check_repeat {
        println!("# second set against the first, per end-to-end metric");
        for ((workload, name), pair) in &medians {
            let (Some(m), [first, second]) =
                (END_TO_END.iter().find(|m| m.name == *name), pair.as_slice())
            else {
                continue;
            };
            let worse = match m.better {
                spec::Better::Lower => (second - first) / first,
                spec::Better::Higher => (first - second) / first,
            };
            let within = worse <= m.bound;
            ok &= within;
            println!(
                "{workload:<12} {name:<26} {first:>12.4} -> {second:>12.4}  worse by {:>6.1}% (bound {:.0}%) {}",
                100.0 * worse,
                100.0 * m.bound,
                if within { "ok" } else { "OUT OF BOUNDS" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("abbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads = spec::workloads();
    let selected: Vec<Workload> = match &args.workload {
        Some(name) => match workloads.iter().find(|w| w.name == name) {
            Some(w) => vec![w.clone()],
            None => {
                let known: Vec<&str> = workloads.iter().map(|w| w.name).collect();
                eprintln!("abbench: no workload {name}; there are {}", known.join(", "));
                return ExitCode::from(2);
            }
        },
        None => workloads,
    };
    let one_run =
        args.workload.is_some() && args.trace.is_some() && args.repeat == 1 && !args.check_repeat;
    match (one_run, selected.first()) {
        (true, Some(w)) => single(w, &args),
        _ => all(&selected, &args),
    }
}
