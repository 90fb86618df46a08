//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <read_wide|write_mix|integrate|all>
//!           [--seed <n>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! Runs one workload (or, with `all`, each in turn in its own process)
//! for `--seconds` seconds, checks every answer, and
//! prints as its last line one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value","unit"}}}`.
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! only the benchmark's own clock around each request; with `--trace 1`
//! every request is split into its public layer calls and the per-layer
//! metrics are printed instead. See `README.md` beside this file.

mod check;
mod host;
mod integrate;
mod model;
mod serving;

use check::Verdict;
use qp::CacheStats;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// A run sets up at least `SETUPS` times and for at least
/// `SETUP_SECONDS`; `setup_s` is the median set-up.
const SETUPS: usize = 5;
const SETUP_SECONDS: f64 = 2.0;

const WORKLOADS: [&str; 3] = ["read_wide", "write_mix", "integrate"];

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("p50_us", "us"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run; 0 where the workload
/// does not exercise the layer.
const PER_LAYER: [(&str, &str); 21] = [
    ("serve.parse_us", "us"),
    ("serve.pin_us", "us"),
    ("serve.mutate_us", "us"),
    ("serve.render_us", "us"),
    ("qp.plan_us", "us"),
    ("qp.ask_hit_us", "us"),
    ("qp.ask_miss_us", "us"),
    ("qp.ask_derived_us", "us"),
    ("qp.cache.hit_ratio", "ratio"),
    ("qp.cache.evictions", "1/op"),
    ("qp.cache.invalidations", "1/op"),
    ("qp.cache.footprint_saves", "1/op"),
    ("qp.rows_scanned_per_row", "ratio"),
    ("qp.demanded_facts_per_derived", "count"),
    ("federation.store_clone_us", "us"),
    ("federation.extent_stats_us", "us"),
    ("core.integrate_us", "us"),
    ("analysis.gate_us", "us"),
    ("core.total_checks", "count"),
    ("core.check_ratio", "ratio"),
    ("traced_throughput_ops_s", "1/s"),
];

/// The command line.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Run, String> {
    let mut run = Run {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = number()?,
            "--seconds" => run.seconds = number()?.clamp(1, 600),
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if run.workload != "all" && !WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!(
            "--workload must be all or one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(run)
}

/// The timed part of a run: rounds of operations, timed per operation,
/// with wall and process CPU time taken around each round only, so the
/// checks between rounds count toward neither.
pub struct Window {
    seconds: u64,
    started: Instant,
    latencies_us: Vec<f64>,
    /// Per round: operations, wall seconds, CPU microseconds, host steal
    /// ticks.
    rounds: Vec<(usize, f64, f64, u64)>,
    steal_start: Option<u64>,
}

impl Window {
    pub fn start(seconds: u64) -> Self {
        Window {
            seconds,
            started: Instant::now(),
            latencies_us: Vec::new(),
            rounds: Vec::new(),
            steal_start: host::steal_ticks(),
        }
    }

    /// Whether the run has measured for its `--seconds`. Checked between
    /// rounds, so every run does whole rounds.
    pub fn done(&self) -> bool {
        self.started.elapsed() >= Duration::from_secs(self.seconds)
    }

    /// Time one round. `f` sends the round's operations and pushes each
    /// one's latency in microseconds.
    pub fn round<R>(&mut self, f: impl FnOnce(&mut Vec<f64>) -> R) -> Result<R, String> {
        let ops = self.latencies_us.len();
        let steal = host::steal_ticks().unwrap_or(0);
        let cpu = host::process_cpu_us()?;
        let t = Instant::now();
        let r = f(&mut self.latencies_us);
        let wall = t.elapsed().as_secs_f64();
        let cpu = host::process_cpu_us()? - cpu;
        let steal = host::steal_ticks().unwrap_or(0).saturating_sub(steal);
        self.rounds
            .push((self.latencies_us.len() - ops, wall, cpu, steal));
        Ok(r)
    }

    /// Throughput, CPU time per operation and p50 latency of the median
    /// round among the rounds the host stole least from (steal at or
    /// below the median round's, so at least half of them). The host's
    /// speed drifts by ±15% over seconds and it steals up to a third of
    /// the CPU at times; the median quiet round is steadier than the
    /// run's mean or pooled quantiles.
    fn per_round(&self) -> [f64; 3] {
        let mut steals: Vec<f64> = self.rounds.iter().map(|r| r.3 as f64).collect();
        let quiet = host::median(&mut steals);
        let mut start = 0;
        let mut cols: [Vec<f64>; 3] = Default::default();
        for &(n, wall, cpu, steal) in &self.rounds {
            let mut lat = self.latencies_us[start..start + n].to_vec();
            start += n;
            if steal as f64 > quiet {
                continue;
            }
            cols[0].push(n as f64 / wall.max(1e-9));
            cols[1].push(cpu / n.max(1) as f64);
            cols[2].push(host::quantile(&mut lat, 0.50));
        }
        cols.map(|mut c| host::median(&mut c))
    }
}

/// Per-layer samples and counters of a traced run.
#[derive(Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    values: BTreeMap<&'static str, f64>,
    asks: u64,
    cache: CacheStats,
    rows_scanned: u64,
    rows_emitted: u64,
    derived_executed: u64,
    demanded: u64,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, took: Duration) {
        self.samples
            .entry(name)
            .or_default()
            .push(took.as_secs_f64() * 1e6);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Fold in the result-cache counters' movement over one ask.
    pub fn cache(&mut self, before: &CacheStats, after: &CacheStats) {
        self.asks += 1;
        let c = &mut self.cache;
        c.hits += after.hits - before.hits;
        c.misses += after.misses - before.misses;
        c.evictions += after.evictions - before.evictions;
        c.invalidations += after.invalidations - before.invalidations;
        c.footprint_saves += after.footprint_saves - before.footprint_saves;
    }

    /// Fold in the work counters of one executed (not cached) ask.
    pub fn executed(&mut self, stats: &fedoo_core::QpStats, derived: bool) {
        self.rows_scanned += stats.rows_scanned;
        self.rows_emitted += stats.rows_emitted;
        if derived {
            self.derived_executed += 1;
            self.demanded += stats.demanded_facts;
        }
    }

    fn metrics(mut self, traced_ops_s: f64) -> BTreeMap<&'static str, f64> {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let mut m: BTreeMap<&'static str, f64> = self
            .samples
            .iter_mut()
            .map(|(k, v)| (*k, host::median(v)))
            .collect();
        let c = &self.cache;
        m.insert("qp.cache.hit_ratio", ratio(c.hits, c.hits + c.misses));
        m.insert("qp.cache.evictions", ratio(c.evictions, self.asks));
        m.insert("qp.cache.invalidations", ratio(c.invalidations, self.asks));
        m.insert(
            "qp.cache.footprint_saves",
            ratio(c.footprint_saves, self.asks),
        );
        m.insert(
            "qp.rows_scanned_per_row",
            ratio(self.rows_scanned, self.rows_emitted),
        );
        m.insert(
            "qp.demanded_facts_per_derived",
            ratio(self.demanded, self.derived_executed),
        );
        m.extend(self.values);
        m.insert("traced_throughput_ops_s", traced_ops_s);
        m
    }
}

/// What one run found and measured.
#[derive(Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    wrong: u64,
    /// The first few failures and wrong answers, for the log.
    problems: Vec<String>,
    setup_s: Vec<f64>,
    notes: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Set up repeatedly, recording each duration, and keep the last
    /// set-up. Short set-ups repeat more often, so their median is as
    /// steady as that of long ones.
    pub fn set_up<T>(
        &mut self,
        mut f: impl FnMut(&mut Outcome) -> Result<T, String>,
    ) -> Result<T, String> {
        let started = Instant::now();
        loop {
            let t = Instant::now();
            let made = f(self)?;
            self.setup_s.push(t.elapsed().as_secs_f64());
            if self.setup_s.len() >= SETUPS && started.elapsed().as_secs_f64() >= SETUP_SECONDS {
                return Ok(made);
            }
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn problem(&mut self, what: &str, detail: String) {
        if self.problems.len() < 5 {
            self.problems.push(format!("{what}: {detail}"));
        }
    }

    /// Count one timed operation and its verdict.
    pub fn record(&mut self, verdict: Verdict) {
        self.attempted += 1;
        match verdict {
            Verdict::Ok => {}
            Verdict::Failed(e) => {
                self.failed += 1;
                self.problem("failed", e);
            }
            Verdict::Wrong(e) => {
                self.wrong += 1;
                self.problem("wrong", e);
            }
        }
    }

    /// A check made outside the timed rounds (warm-up replies, the
    /// reference comparison): any problem makes the run incorrect but is
    /// no operation attempted.
    pub fn verify(&mut self, verdict: Verdict) {
        if let Verdict::Failed(e) | Verdict::Wrong(e) = verdict {
            self.wrong += 1;
            self.problem("check", e);
        }
    }

    /// Close the run: turn the window and layer samples into metrics.
    pub fn finish(mut self, mut w: Window, trace: bool, layers: Layers) -> Result<Self, String> {
        let [throughput, cpu_per_op, p50] = w.per_round();
        let steal = match (w.steal_start, host::steal_ticks()) {
            (Some(a), Some(b)) => b.saturating_sub(a).to_string(),
            _ => "n/a".to_string(),
        };
        self.note(format!(
            "host: steal_ticks={steal} over {:.1} s, available_parallelism={}",
            w.started.elapsed().as_secs_f64(),
            host::parallelism()
        ));
        let lat = &mut w.latencies_us;
        self.note(format!(
            "rounds={} samples={} p50={:.1}us p90={:.1}us p95={:.1}us p99={:.1}us",
            w.rounds.len(),
            lat.len(),
            host::quantile(lat, 0.50),
            host::quantile(lat, 0.90),
            host::quantile(lat, 0.95),
            host::quantile(lat, 0.99)
        ));
        if trace {
            let m = layers.metrics(throughput);
            self.metrics = PER_LAYER
                .iter()
                .map(|(name, _)| (*name, m.get(name).copied().unwrap_or(0.0)))
                .collect();
        } else {
            let values = [
                host::median(&mut self.setup_s),
                throughput,
                p50,
                cpu_per_op,
                host::peak_rss_mb()?,
            ];
            self.metrics = END_TO_END
                .iter()
                .zip(values)
                .map(|((name, _), v)| (*name, v))
                .collect();
        }
        Ok(self)
    }

    fn json(&self, trace: bool) -> String {
        let units: BTreeMap<&str, &str> = if trace {
            PER_LAYER.into_iter().collect()
        } else {
            END_TO_END.into_iter().collect()
        };
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\":{{\"value\":{v},\"unit\":\"{}\"}}", units[name])
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.wrong == 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// `--workload all`: every workload in turn, each in a process of its
/// own (peak memory is per process), with the other flags as given.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for workload in WORKLOADS {
        let mut child_args = args.to_vec();
        if let Some(i) = child_args.iter().position(|a| a == "--workload") {
            child_args[i + 1] = workload.to_string();
        }
        println!("# --workload {workload}");
        let ok = Command::new(&exe)
            .args(&child_args)
            .status()
            .is_ok_and(|s| s.success());
        all_ok &= ok;
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse_args(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if run.workload == "all" {
        return run_all(&args);
    }
    if let Err(e) = check::self_test() {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    let outcome = match run.workload.as_str() {
        "read_wide" => serving::run(serving::Spec::read_wide(), &run),
        "write_mix" => serving::run(serving::Spec::write_mix(), &run),
        _ => integrate::run(&run),
    };
    match outcome {
        Ok(out) => {
            for line in out.notes.iter().chain(&out.problems) {
                println!("# {line}");
            }
            println!("{}", out.json(run.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", run.workload);
            ExitCode::FAILURE
        }
    }
}
