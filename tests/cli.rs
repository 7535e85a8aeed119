//! The command lines of `absim` and `abnet`, end to end through the built
//! binaries.
//!
//! Every `absim` command below is seeded, so its stdout is fixed: the text
//! here is what the binaries printed before they shared one harness, and
//! each command must still print it byte for byte, run dark and with
//! `--metrics-out` (observing a run must not change it). `abnet`'s
//! argument errors are checked for their message and exit code 2, printed
//! before any banner or socket.

use std::process::{Command, Output};

const CONSENSUS: &str = "\
n = 7, f-bound = 2, actual faults = 2, coin = Local, schedule = Uniform { min: 1, max: 20 }
run   0 (seed 0): decision = Some(0), round = Some(1), msgs = 2282, latency = Some(139)
run   1 (seed 1): decision = Some(0), round = Some(1), msgs = 2275, latency = Some(136)
run   2 (seed 2): decision = Some(0), round = Some(1), msgs = 2247, latency = Some(136)

summary: 3/3 terminated, 3/3 agreed, mean rounds = 1.00, mean msgs = 2268
";

const ORDERING: &str = "\
ordering mode: n = 4, f = 1, epochs = 4, batch = 2, pipeline depth = 2, rbc = bracha
run   0 (seed 0): txs ordered = 32, ticks = 426, tx/kilotick = 75.12, msgs = 12564, \
opened = 4 idle, 12 full, 0 joined

summary: 1/1 completed, 1/1 agreed
";

const CODED: &str = "\
ordering mode: n = 7, f = 2, epochs = 6, batch = 4, pipeline depth = 2, rbc = coded
run   0 (seed 0): txs ordered = 168, ticks = 675, tx/kilotick = 248.89, msgs = 201600, \
opened = 7 idle, 35 full, 0 joined

summary: 1/1 completed, 1/1 agreed
";

const KV: &str = "\
state-machine mode: n = 4, f = 1, epochs = 8, checkpoint interval = 4, rbc = bracha, restart = yes
run   0 (seed 0): state hash = 76e7b41aefac76b6, epochs = 8, keys = 8, ticks = 2535, msgs = 26038

summary: 1/1 completed, 1/1 agreed
";

fn run(bin: &str, args: &[&str]) -> Output {
    match Command::new(bin).args(args).output() {
        Ok(out) => out,
        Err(e) => panic!("{bin}: {e}"),
    }
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Runs `absim args` dark and with `--metrics-out`, checks both print
/// `want` and exit 0, and returns the Prometheus snapshot.
fn absim(name: &str, args: &[&str], want: &str) -> String {
    let dark = run(env!("CARGO_BIN_EXE_absim"), args);
    assert!(dark.status.success(), "{name}: {:?}", dark.status);
    assert_eq!(stdout(&dark), want, "{name}, dark");

    let prom = std::env::temp_dir().join(format!("absim-cli-{}-{name}.prom", std::process::id()));
    let path = prom.to_string_lossy().into_owned();
    let observed = run(env!("CARGO_BIN_EXE_absim"), &[args, &["--metrics-out", &path]].concat());
    assert!(observed.status.success(), "{name}: {:?}", observed.status);
    assert_eq!(stdout(&observed), want, "{name}, with --metrics-out");
    let text = std::fs::read_to_string(&prom).unwrap_or_default();
    let _ = std::fs::remove_file(&prom);
    text
}

/// The value of the Prometheus line that starts with `series `.
fn sample(prom: &str, series: &str) -> Option<u64> {
    prom.lines().find_map(|line| line.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
}

/// The snapshot's per-trigger epoch counts, which must sum to the total.
fn opened(prom: &str) -> (u64, u64, u64) {
    let by = |t: &str| sample(prom, &format!("bft_epochs_started_total{{trigger=\"{t}\"}}"));
    let counts = (by("idle").unwrap_or(0), by("full").unwrap_or(0), by("joined").unwrap_or(0));
    assert_eq!(Some(counts.0 + counts.1 + counts.2), sample(prom, "bft_epochs_started_total"));
    counts
}

#[test]
fn absim_consensus_output_is_unchanged() {
    let args = ["--n", "7", "--ones", "3", "--fault", "flip-value", "--fault", "seesaw"];
    let prom = absim("consensus", &[&args[..], &["--runs", "3"]].concat(), CONSENSUS);
    assert_eq!(sample(&prom, "bft_epochs_started_total"), Some(0));
}

#[test]
fn absim_ordering_output_is_unchanged() {
    let prom = absim("ordering", &["--n", "4", "--epochs", "4", "--batch", "2"], ORDERING);
    assert_eq!(opened(&prom), (4, 12, 0), "the run line's opened counts");
}

#[test]
fn absim_coded_ordering_output_is_unchanged() {
    let args = ["--n", "7", "--epochs", "6", "--batch", "4", "--rbc", "coded"];
    let prom = absim("coded", &args, CODED);
    assert_eq!(opened(&prom), (7, 35, 0), "the run line's opened counts");
}

#[test]
fn absim_kv_output_is_unchanged() {
    let args = ["--n", "4", "--kv-workload", "--checkpoint-interval", "4", "--restart-node"];
    let prom = absim("kv", &args, KV);
    assert!(sample(&prom, "bft_state_transfers_completed_total").is_some_and(|n| n > 0));
}

#[test]
fn abnet_argument_errors_exit_2_before_any_socket() {
    for (args, message) in [
        (
            &["--fault", "flip-value", "--epochs", "2"][..],
            "error: --fault/--ones apply to consensus mode, not --epochs ordering mode\n",
        ),
        (
            &["--clients", "4", "--kv-workload"][..],
            "error: --clients gateway mode composes only with ordering flags\n",
        ),
    ] {
        let out = run(env!("CARGO_BIN_EXE_abnet"), args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert_eq!(String::from_utf8_lossy(&out.stderr), message, "{args:?}");
        assert_eq!(stdout(&out), "", "{args:?}: no banner, so no cluster was built");
    }
}
