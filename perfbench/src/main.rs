//! `perfbench` — the relcont benchmark: three workloads, measured end to
//! end (`--trace 0`) or per layer (`--trace 1`).
//!
//! ```sh
//! python3 perfbench/run.py --workload thm33_scaling --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `run.py` builds this binary and the `relcont` CLI, then runs it from the
//! repository root. Every result is checked against a reference; the last
//! line of standard output is one JSON object (`correct`, `attempted`,
//! `failed`, `metrics`). The exit code is 1 when a result was wrong or a
//! decomposed re-run disagreed with the top-level call. The metric names
//! and units come from `BENCHMARK.json` in the working directory.

mod certain;
mod serve;
mod thm33;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use trace::Layers;

/// Set-up rounds timed per run; `setup_s` is the median round's mean.
pub const SETUP_ROUNDS: usize = 9;

/// Command-line options.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `relcont` CLI, for `cli.check_ms`.
    relcont: Option<PathBuf>,
    /// Example 1 input files, for `cli.check_ms`.
    data: PathBuf,
    /// Negative self-test: flip the first reference result.
    pub flip_reference: bool,
    /// Negative self-test: stretch every operation by this share of its
    /// own duration (0.5 = 50% slower).
    pub slowdown: f64,
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Latency of every operation that completed, in ms.
    pub latencies_ms: Vec<f64>,
    /// Wall time of the measured work.
    pub elapsed_s: f64,
    pub attempted: u64,
    /// Errors, sheds, timeouts and verdicts still `Unknown` after retries.
    pub failed: u64,
    /// Definite results that disagree with the reference.
    pub wrong: u64,
    /// Decomposed re-runs that disagree with the top-level result.
    pub decomposition_mismatches: u64,
    /// Program-side set-up time of one set-up (see [`Setup`]).
    pub setup_s: f64,
    /// `VmHWM` right after the timed loop, before any reference check.
    pub peak_rss_mb: f64,
    /// Per-layer metrics (trace runs only).
    pub layers: Layers,
    /// Measured workload properties, printed on every run.
    pub shares: Vec<(&'static str, String)>,
}

/// The elapsed time of an operation that started at `started`, in ms,
/// after stretching it by the injected slowdown (if any).
pub fn finish_op(started: Instant, slowdown: f64) -> f64 {
    if slowdown > 0.0 {
        std::thread::sleep(started.elapsed().mul_f64(slowdown));
    }
    started.elapsed().as_secs_f64() * 1e3
}

/// Units of work (sweeps, passes, requests) a run does: `--seconds` at the
/// workload's nominal rate on a 2-core VM, divided by `traced_cost` in
/// traced runs, which repeat each operation. A run does a fixed amount of
/// work instead of stopping at a deadline: the program slows down and
/// grows as it ages (its symbol table is never freed), so a deadline would
/// let a faster host do more work, age further and report a different
/// memory peak.
pub fn work_units(args: &Args, per_second: f64, traced_cost: f64) -> usize {
    let scale = if args.trace { traced_cost } else { 1.0 };
    ((args.seconds * per_second / scale).round() as usize).max(1)
}

/// Times a workload's program-side set-up. A round runs the set-up
/// `per_round` times, and `setup_s` is the median over `SETUP_ROUNDS`
/// rounds of a round's mean time per set-up: one set-up takes a few to
/// tens of milliseconds, so single set-ups mostly measure the host's
/// scheduling. Every workload spreads the rounds over its run
/// ([`Setup::between`]), so that a slow stretch of the host weighs on the
/// set-up time as it does on the operations: the host's speed changes by
/// a third within minutes.
pub struct Setup {
    per_round: usize,
    rounds: Vec<f64>,
}

impl Setup {
    pub fn new(per_round: usize) -> Setup {
        Setup {
            per_round: per_round.max(1),
            rounds: Vec::with_capacity(SETUP_ROUNDS),
        }
    }

    /// Runs one round and returns the last set-up's result. Each earlier
    /// result is dropped, untimed, before the next set-up starts.
    pub fn round<T>(&mut self, mut setup: impl FnMut() -> T) -> T {
        let mut total = 0.0;
        let mut last = None;
        for _ in 0..self.per_round {
            drop(last.take());
            let t = Instant::now();
            let out = setup();
            total += t.elapsed().as_secs_f64();
            last = Some(out);
        }
        self.rounds.push(total / self.per_round as f64);
        last.expect("per_round > 0")
    }

    /// Called after `done` of `total` timed operations: runs the rounds
    /// that are due, spacing the rounds after the first evenly over the
    /// operations, and drops their results. Returns the wall time spent,
    /// which the caller takes out of its measured time.
    pub fn between<T>(
        &mut self,
        done: usize,
        total: usize,
        mut setup: impl FnMut() -> T,
    ) -> Duration {
        let t = Instant::now();
        while self.rounds.len() < SETUP_ROUNDS && done * SETUP_ROUNDS >= self.rounds.len() * total {
            drop(self.round(&mut setup));
        }
        t.elapsed()
    }

    /// `setup_s`, in seconds.
    pub fn seconds(mut self) -> f64 {
        median(&mut self.rounds)
    }
}

fn median(v: &mut [f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile (`q` in 0..=1) of `v`, sorting it in place.
fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median wall time of a `relcont check` process on the Example 1 files,
/// in ms, or `None` if the process did not report "contained" (exit 0).
fn cli_check_ms(relcont: &PathBuf, data: &std::path::Path) -> Option<f64> {
    let dir = data.join("example1");
    let mut times = Vec::new();
    for _ in 0..7 {
        let t = Instant::now();
        let out = Command::new(relcont)
            .arg("check")
            .arg("--views")
            .arg(dir.join("views.dl"))
            .arg("--q1")
            .arg(dir.join("q1.dl"))
            .arg("--q2")
            .arg(dir.join("q2.dl"))
            .output()
            .ok()?;
        times.push(t.elapsed().as_secs_f64() * 1e3);
        if !out.status.success() {
            return None;
        }
    }
    Some(median(&mut times))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        relcont: None,
        data: PathBuf::from("perfbench/data"),
        flip_reference: false,
        slowdown: 0.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--inject-wrong-reference" {
            args.flip_reference = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            "--relcont" => args.relcont = Some(PathBuf::from(&value)),
            "--data" => args.data = PathBuf::from(&value),
            "--inject-slowdown" => args.slowdown = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// A metric as `BENCHMARK.json` lists it.
struct Metric {
    name: String,
    unit: String,
}

/// The `end_to_end` and `per_layer` metric lists of `BENCHMARK.json`.
fn read_metrics(path: &std::path::Path) -> Result<(Vec<Metric>, Vec<Metric>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let bench: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| -> Result<Vec<Metric>, String> {
        let bad = || format!("{}: bad `{key}` list", path.display());
        bench
            .get_field(key)
            .as_array()
            .ok_or_else(bad)?
            .iter()
            .map(|m| {
                Ok(Metric {
                    name: m.get_field("name").as_str().ok_or_else(bad)?.to_string(),
                    unit: m.get_field("unit").as_str().ok_or_else(bad)?.to_string(),
                })
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}

fn json_metrics(metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (end_to_end, per_layer) = match read_metrics(std::path::Path::new("BENCHMARK.json")) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "thm33_scaling" => thm33::run(&args),
        "serve_churn" => serve::run(&args),
        "certain_eval" => certain::run(&args),
        w => {
            eprintln!("perfbench: unknown workload {w}");
            return ExitCode::from(2);
        }
    };
    let mut cli_ok = true;
    if args.trace {
        match args
            .relcont
            .as_ref()
            .map(|bin| cli_check_ms(bin, &args.data))
        {
            Some(Some(ms)) => out.layers.add("cli.check_ms", ms),
            _ => cli_ok = false,
        }
    }

    if args.trace {
        let (din, dout) = (
            out.layers.get("tidy.disjuncts_in"),
            out.layers.get("tidy.disjuncts_out"),
        );
        if din > 0.0 {
            out.layers.add("tidy.out_in_ratio", dout / din);
        }
        out.shares
            .push(("tidy_out_in", format!("{} of {din} disjuncts kept", dout)));
    }

    let completed = out.latencies_ms.len() as f64;
    let lat = &mut out.latencies_ms;
    let mut e2e = Vec::with_capacity(end_to_end.len());
    for m in &end_to_end {
        let v = match m.name.as_str() {
            "ops_per_s" => completed / out.elapsed_s,
            "latency_p50_ms" => percentile(lat, 0.50),
            "latency_p90_ms" => percentile(lat, 0.90),
            "latency_p99_ms" => percentile(lat, 0.99),
            "setup_s" => out.setup_s,
            "peak_rss_mb" => out.peak_rss_mb,
            other => {
                eprintln!("perfbench: no end-to-end metric named {other}");
                return ExitCode::from(2);
            }
        };
        e2e.push((m.name.as_str(), m.unit.as_str(), v));
    }
    println!(
        "workload {} seed {} trace {}: {} ops in {:.3} s",
        args.workload,
        args.seed,
        args.trace as u8,
        out.latencies_ms.len(),
        out.elapsed_s
    );
    for (name, unit, v) in &e2e {
        println!("  {name} = {v:.4} {unit}");
    }
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  failed_share = {failed_share:.4} ({} of {})",
        out.failed, out.attempted
    );
    println!("  wrong_results = {}", out.wrong);
    for (name, v) in &out.shares {
        println!("  property {name} = {v}");
    }
    if args.trace {
        println!(
            "  decomposition_mismatches = {}",
            out.decomposition_mismatches
        );
    }

    if let Some(name) = out
        .layers
        .names()
        .find(|n| !per_layer.iter().any(|m| m.name == *n))
    {
        eprintln!("perfbench: per-layer metric {name} is not listed in BENCHMARK.json");
        return ExitCode::from(2);
    }
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        per_layer
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str(), out.layers.get(&m.name)))
            .collect()
    } else {
        e2e
    };
    let correct = out.wrong == 0 && out.decomposition_mismatches == 0 && cli_ok;
    if !cli_ok {
        println!("  relcont check on Example 1 did not exit 0 (or --relcont was not given)");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
