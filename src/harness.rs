//! The one harness behind the `absim` and `abnet` binaries.
//!
//! It owns everything the two front ends share: the flag parser (each
//! binary passes the flags it accepts and its defaults), the mode a
//! command line selects and its banner, the `Config` for `--n`, one node
//! builder per mode, the per-run observer export with the `--metrics-out`
//! snapshot, and the summary line with its exit code. A binary keeps only
//! its substrate's run loop and run line.
//!
//! Exit codes: 0 when every run completed and agreed, 1 when one did not,
//! 2 for a bad command line (see [`fail`]).

use crate::coin::{BoxedCoin, CommonCoin, LocalCoin};
use crate::obs::{JsonlSink, MetricsSink, Obs, SharedSink, Tee};
use crate::order::{OrderOptions, OrderProcess};
use crate::rbc::RbcKind;
use crate::smr::{seeded_workload, SmrOptions, SmrProcess};
use crate::types::{Config, NodeId};
use crate::{CoinChoice, FaultKind, Schedule};
use std::fmt::Display;
use std::io::Write;
use std::str::FromStr;

/// What a command line asked for; each field is the flag of that name.
#[derive(Clone, Debug)]
pub struct Options {
    /// Cluster size.
    pub n: usize,
    /// Seed of the first run; run `r` uses `seed + r`.
    pub seed: u64,
    /// Consensus inputs: nodes `0..ones` vote 1 (default `n / 2`).
    pub ones: Option<usize>,
    /// The coin of a simulated run.
    pub coin: CoinChoice,
    /// The simulated network schedule of consensus mode.
    pub schedule: Schedule,
    /// Byzantine behaviours, one per lowest-indexed node.
    pub faults: Vec<FaultKind>,
    /// Per-mille share of frames the TCP chaos delays.
    pub delay_per_mille: u16,
    /// Upper bound of a chaos delay, in milliseconds.
    pub max_delay_ms: u64,
    /// TCP run timeout, in seconds.
    pub timeout_secs: u64,
    /// Number of seeded runs.
    pub runs: u64,
    /// Ordering epochs (0: single-shot consensus).
    pub epochs: u64,
    /// Most payloads per batch.
    pub batch: usize,
    /// Most epochs in flight.
    pub pipeline: usize,
    /// The broadcast carrying batches.
    pub rbc: RbcKind,
    /// Run the replicated KV state machine over the ordered log.
    pub kv_workload: bool,
    /// Epochs between certified checkpoints.
    pub checkpoint_interval: u64,
    /// Crash the highest-indexed node early and restart it empty.
    pub restart_node: bool,
    /// Gateway clients (0: no gateway).
    pub clients: u64,
    /// Aggregate client submissions per second.
    pub rate: u64,
    /// How long the clients submit, in milliseconds.
    pub load_ms: u64,
    /// Bytes per client transaction.
    pub tx_bytes: usize,
    /// Where to stream every event as JSONL.
    pub trace_out: Option<String>,
    /// Where to write the Prometheus snapshot at exit.
    pub metrics_out: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            n: 4,
            seed: 0,
            ones: None,
            coin: CoinChoice::Local,
            schedule: Schedule::Uniform { min: 1, max: 20 },
            faults: Vec::new(),
            delay_per_mille: 0,
            max_delay_ms: 2,
            timeout_secs: 60,
            runs: 1,
            epochs: 0,
            batch: 4,
            pipeline: 2,
            rbc: RbcKind::Bracha,
            kv_workload: false,
            checkpoint_interval: 4,
            restart_node: false,
            clients: 0,
            rate: 2000,
            load_ms: 2000,
            tx_bytes: 32,
            trace_out: None,
            metrics_out: None,
        }
    }
}

/// The protocol stack a command line runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Single-shot binary consensus (the default).
    Consensus,
    /// `--epochs E`: atomic broadcast, E epochs of batched ACS.
    Ordering,
    /// `--kv-workload`: the replicated KV state machine.
    Smr,
    /// `--clients C`: gateway-fronted ordering under client load.
    Gateway,
}

/// Prints `error: {msg}` and exits 2, the exit code of a bad command line.
pub fn fail(msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

fn num<T: FromStr>(flag: &str, value: String) -> Result<T, String>
where
    T::Err: Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

fn parse_fault(s: &str) -> Result<FaultKind, String> {
    Ok(match s {
        "crash" => FaultKind::Crash { after: 40 },
        "mute" => FaultKind::Mute,
        "flip-value" => FaultKind::FlipValue,
        "random-value" => FaultKind::RandomValue,
        "always-flag" => FaultKind::AlwaysFlag,
        "seesaw" => FaultKind::Seesaw,
        other => return Err(format!("unknown fault kind: {other}")),
    })
}

fn parse_schedule(s: &str) -> Result<Schedule, String> {
    Ok(match s {
        "fixed" => Schedule::Fixed(1),
        "uniform" => Schedule::Uniform { min: 1, max: 20 },
        "split" => Schedule::Split { fast: 1, slow: 8 },
        "partition" => Schedule::Partition { near: 1, far: 100, heal_at: 300 },
        "favor" => Schedule::FavorFaulty { favored: 2, fast: 1, slow: 15 },
        other => return Err(format!("unknown schedule: {other}")),
    })
}

impl Options {
    /// Parses the process's arguments over `self` as the defaults,
    /// accepting only the flags `synopsis` lists (`bin`'s usage, e.g.
    /// `"[--n N] [--fault KIND]... [--kv-workload]"`). `--help` prints the
    /// usage and exits 0; a bad flag exits 2.
    pub fn parse(mut self, bin: &str, synopsis: &str) -> Options {
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            if flag == "--help" || flag == "-h" {
                println!(
                    "usage: {bin} {synopsis}\n--pipeline D is the maximum number of epochs in \
                     flight; beside those in flight a node opens another only for a full --batch \
                     or after a peer"
                );
                std::process::exit(0);
            }
            if !synopsis.split(['[', ' ', ']']).any(|word| word == flag) {
                fail(format!("unknown argument: {flag}"));
            }
            if let Err(e) = self.set(&flag, &mut args) {
                fail(e);
            }
        }
        self
    }

    fn set(&mut self, flag: &str, args: &mut impl Iterator<Item = String>) -> Result<(), String> {
        let mut value = || args.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag {
            "--kv-workload" => self.kv_workload = true,
            "--restart-node" => self.restart_node = true,
            "--n" => self.n = num(flag, value()?)?,
            "--seed" => self.seed = num(flag, value()?)?,
            "--ones" => self.ones = Some(num(flag, value()?)?),
            "--coin" => {
                self.coin = match value()?.as_str() {
                    "local" => CoinChoice::Local,
                    "common" => CoinChoice::Common,
                    other => return Err(format!("unknown coin: {other}")),
                }
            }
            "--schedule" => self.schedule = parse_schedule(&value()?)?,
            "--fault" => self.faults.push(parse_fault(&value()?)?),
            "--delay" => self.delay_per_mille = num(flag, value()?)?,
            "--max-delay-ms" => self.max_delay_ms = num(flag, value()?)?,
            "--timeout-secs" => self.timeout_secs = num(flag, value()?)?,
            "--runs" => self.runs = num(flag, value()?)?,
            "--epochs" => self.epochs = num(flag, value()?)?,
            "--batch" => self.batch = num(flag, value()?)?,
            "--pipeline" => self.pipeline = num(flag, value()?)?,
            "--rbc" => {
                let v = value()?;
                self.rbc = RbcKind::parse(&v)
                    .ok_or_else(|| format!("--rbc: expected bracha or coded, got {v}"))?;
            }
            "--checkpoint-interval" => self.checkpoint_interval = num(flag, value()?)?,
            "--clients" => self.clients = num(flag, value()?)?,
            "--rate" => self.rate = num(flag, value()?)?,
            "--load-ms" => self.load_ms = num(flag, value()?)?,
            "--tx-bytes" => self.tx_bytes = num(flag, value()?)?,
            "--trace-out" => self.trace_out = Some(value()?),
            "--metrics-out" => self.metrics_out = Some(value()?),
            other => return Err(format!("unknown argument: {other}")),
        }
        Ok(())
    }

    /// The mode the flags select: `--clients`, else `--kv-workload`, else
    /// `--epochs`, else consensus. Exits 2 when a consensus-only flag
    /// (`--fault`, `--ones`) or `--kv-workload` rides on a mode it does
    /// not compose with.
    pub fn mode(&self) -> Mode {
        let consensus_only = !self.faults.is_empty() || self.ones.is_some();
        if self.clients > 0 {
            if consensus_only || self.kv_workload {
                fail("--clients gateway mode composes only with ordering flags");
            }
            return Mode::Gateway;
        }
        let (mode, name) = match (self.kv_workload, self.epochs > 0) {
            (true, _) => (Mode::Smr, "--kv-workload"),
            (false, true) => (Mode::Ordering, "--epochs ordering"),
            (false, false) => return Mode::Consensus,
        };
        if consensus_only {
            fail(format!("--fault/--ones apply to consensus mode, not {name} mode"));
        }
        mode
    }

    /// The cluster's configuration: `--n` nodes at the maximum resilience
    /// `f = ⌊(n−1)/3⌋`. Exits 2 when `--n` admits none.
    pub fn config(&self) -> Config {
        Config::max_resilience(self.n).unwrap_or_else(|e| fail(e))
    }

    /// The ordering options of the flags, with an `epochs` horizon.
    pub fn order(&self, epochs: u64) -> OrderOptions {
        OrderOptions {
            batch_max: self.batch.max(1),
            pipeline_depth: self.pipeline.max(1),
            epochs,
            rbc: self.rbc,
        }
    }

    /// Consensus mode's setup: checks `--fault`s against the f-bound and
    /// prints the banner, ending in the substrate's `tail`.
    pub fn consensus(&self, tail: &str) -> Config {
        let (cfg, faults) = (self.config(), self.faults.len());
        if faults > cfg.f() {
            fail(format!(
                "{faults} faults exceed the resilience bound f = {} for n = {}",
                cfg.f(),
                self.n
            ));
        }
        println!("n = {}, f-bound = {}, actual faults = {faults}, {tail}", self.n, cfg.f());
        cfg
    }

    /// Ordering mode's setup: prints the banner.
    pub fn ordering(&self) -> (Config, OrderOptions) {
        let cfg = self.config();
        let order = self.order(self.epochs);
        println!(
            "ordering mode: n = {}, f = {}, epochs = {}, batch = {}, pipeline depth = {}, rbc = {}",
            self.n,
            cfg.f(),
            order.epochs,
            order.batch_max,
            order.pipeline_depth,
            order.rbc
        );
        (cfg, order)
    }

    /// State-machine mode's setup (8 epochs unless `--epochs` says
    /// otherwise): prints the banner.
    pub fn smr(&self) -> (Config, SmrOptions) {
        let cfg = self.config();
        let epochs = if self.epochs > 0 { self.epochs } else { 8 };
        let smr = SmrOptions {
            order: self.order(epochs),
            checkpoint_interval: self.checkpoint_interval.max(1),
        };
        println!(
            "state-machine mode: n = {}, f = {}, epochs = {epochs}, checkpoint interval = {}, \
             rbc = {}, restart = {}",
            self.n,
            cfg.f(),
            smr.checkpoint_interval,
            smr.order.rbc,
            if self.restart_node { "yes" } else { "no" },
        );
        (cfg, smr)
    }

    /// Runs `--runs` seeded runs: `one(run, seed, observer)` runs one,
    /// prints its run line and returns whether it completed and whether
    /// its correct nodes agreed. `observe` attaches metrics to every run
    /// (its run line reads them); otherwise a run without `--trace-out`
    /// or `--metrics-out` runs dark. Writes `--metrics-out` at the end.
    pub fn runs(
        &self,
        observe: bool,
        mut one: impl FnMut(u64, u64, RunObs<'_>) -> (bool, bool),
    ) -> Tally {
        let mut export = Export::new(self, observe);
        let mut tally = Tally { runs: self.runs, ..Tally::default() };
        for run in 0..self.runs {
            let (ok, agreed) = one(run, self.seed + run, export.run(run));
            tally.ok += u64::from(ok);
            tally.agreed += u64::from(agreed);
        }
        export.write();
        tally
    }
}

/// How many of a sequence of runs completed and agreed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Runs that completed (every correct node produced an output).
    pub ok: u64,
    /// Runs whose correct nodes agreed.
    pub agreed: u64,
    /// Runs made.
    pub runs: u64,
}

impl Tally {
    /// `summary: ok/runs {verb}, agreed/runs agreed`.
    pub fn line(&self, verb: &str) -> String {
        format!("summary: {}/{} {verb}, {}/{} agreed", self.ok, self.runs, self.agreed, self.runs)
    }

    /// Prints the summary line and exits, 1 unless every run completed
    /// and agreed.
    pub fn exit(&self, verb: &str) -> ! {
        println!("\n{}", self.line(verb));
        std::process::exit(if self.ok < self.runs || self.agreed < self.runs { 1 } else { 0 })
    }
}

/// The per-run export sink: metrics, and a JSONL event stream when
/// `--trace-out` is given.
type ExportSink = Tee<MetricsSink, Option<JsonlSink<Box<dyn Write + Send>>>>;

/// The export of a sequence of runs: one observer per run, and the
/// merged metrics that `--metrics-out` writes at the end.
#[derive(Debug)]
pub struct Export {
    trace_out: Option<String>,
    metrics_out: Option<String>,
    observe: bool,
    total: MetricsSink,
}

impl Export {
    /// The export the flags ask for; `observe` as in [`Options::runs`].
    pub fn new(opts: &Options, observe: bool) -> Self {
        Export {
            trace_out: opts.trace_out.clone(),
            metrics_out: opts.metrics_out.clone(),
            observe: observe || opts.trace_out.is_some() || opts.metrics_out.is_some(),
            total: MetricsSink::new(),
        }
    }

    /// The observer of run `run`. The trace file is truncated by the
    /// first run and appended by later ones (single-run exports are what
    /// `abtrace` expects).
    pub fn run(&mut self, run: u64) -> RunObs<'_> {
        if !self.observe {
            return RunObs { obs: Obs::disabled(), sink: None, total: &mut self.total };
        }
        let jsonl = self.trace_out.as_ref().map(|path| {
            let file = std::fs::OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(run == 0)
                .append(run != 0)
                .open(path)
                .unwrap_or_else(|e| fail(format!("--trace-out {path}: {e}")));
            let out: Box<dyn Write + Send> = Box::new(std::io::BufWriter::new(file));
            JsonlSink::new(out)
        });
        let (obs, sink) = Obs::new(Tee(MetricsSink::new(), jsonl));
        RunObs { obs, sink: Some(sink), total: &mut self.total }
    }

    /// Writes the `--metrics-out` snapshot of every run's metrics; exits 2
    /// when it cannot.
    pub fn write(mut self) {
        if let Some(path) = &self.metrics_out {
            if let Err(e) = std::fs::write(path, self.total.render_prometheus()) {
                fail(format!("--metrics-out {path}: {e}"));
            }
        }
    }
}

/// One run's observer, handed to the run by [`Export::run`].
#[derive(Debug)]
pub struct RunObs<'a> {
    /// What the run's nodes and substrate emit into.
    pub obs: Obs,
    sink: Option<SharedSink<ExportSink>>,
    total: &'a mut MetricsSink,
}

impl RunObs<'_> {
    /// Ends the run: flushes its JSONL stream, folds its metrics into the
    /// export's total and returns them (empty when the run ran dark).
    pub fn finish(self) -> MetricsSink {
        let Some(sink) = self.sink else { return MetricsSink::new() };
        let mut guard = sink.lock();
        if let Some(jsonl) = guard.1.as_mut() {
            jsonl.flush();
        }
        let metrics = std::mem::take(&mut guard.0);
        self.total.merge(&metrics);
        metrics
    }
}

/// Node `id`'s coin factory for a run seeded `seed`: per agreement
/// instance, the dealer-model common coin or the node's private coin.
pub fn coin_for(coin: CoinChoice, seed: u64, id: NodeId) -> impl FnMut(u64) -> BoxedCoin + Send {
    move |inst| -> BoxedCoin {
        match coin {
            CoinChoice::Common => Box::new(CommonCoin::new(seed, inst)),
            CoinChoice::Local => Box::new(LocalCoin::for_instance(seed, id, inst)),
        }
    }
}

/// An ordering node preloaded with its workload: `epochs × batch_max`
/// payloads `tx-{id}-{k}`, a full batch for every epoch.
pub fn order_node(
    cfg: Config,
    id: NodeId,
    order: OrderOptions,
    coin: CoinChoice,
    seed: u64,
    obs: &Obs,
) -> OrderProcess<BoxedCoin> {
    let workload = (0..order.epochs * order.batch_max as u64)
        .map(|k| format!("tx-{}-{k}", id.index()).into_bytes())
        .collect();
    OrderProcess::new(cfg, id, order, workload, coin_for(coin, seed, id)).with_obs(obs.clone())
}

/// Builds the state-machine nodes of one run.
#[derive(Clone, Copy, Debug)]
pub struct SmrNodes {
    cfg: Config,
    smr: SmrOptions,
    coin: CoinChoice,
    seed: u64,
}

impl SmrNodes {
    /// The nodes of a run seeded `seed`.
    pub fn new(cfg: Config, smr: SmrOptions, coin: CoinChoice, seed: u64) -> Self {
        SmrNodes { cfg, smr, coin, seed }
    }

    /// Node `id`, its mempool the seeded put/cas/del workload of
    /// `epochs × batch_max` operations.
    pub fn node(&self, id: NodeId, obs: Obs) -> SmrProcess<BoxedCoin> {
        let count = (self.smr.order.epochs * self.smr.order.batch_max as u64) as usize;
        let workload = seeded_workload(self.seed, id, count);
        let coin = coin_for(self.coin, self.seed, id);
        SmrProcess::new(self.cfg, id, self.smr, workload, coin).with_obs(obs)
    }

    /// `--restart-node`'s victim, the highest-indexed node, and the
    /// factory of its replacement: empty state, recovering through peer
    /// state transfer.
    pub fn restart(self, obs: Obs) -> (NodeId, impl FnOnce() -> SmrProcess<BoxedCoin> + Send) {
        let victim = NodeId::new(self.cfg.n() - 1);
        (victim, move || self.node(victim, obs).recovering(true))
    }
}
