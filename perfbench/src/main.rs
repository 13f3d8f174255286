//! The CRES benchmark: three workloads, each a simulate → detect →
//! investigate round repeated for the run's length, plus a traced mode
//! that replays every workload's per-unit pipeline with a span around
//! each public call. See `README.md` for workloads, metrics and how to
//! run it.

mod fleet;
mod forensics;
mod gauntlet;
mod speed;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use cres_sim::DetRng;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Rounds every untraced run makes at least, so every metric covers three
/// or more rounds.
const MIN_ROUNDS: usize = 3;

/// What a run is asked to do.
pub struct Ctx {
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// How long the untraced rounds may take, seconds.
    pub seconds: f64,
    /// Fleet workers and campaign threads: one per host CPU.
    pub workers: usize,
}

/// One reported metric.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// A run's result: operations attempted and failed, failed checks and
/// metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a failed check; `failed_ops` operations count as failed.
    pub fn check(&mut self, ok: bool, failed_ops: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += failed_ops;
            self.problems.push(what());
        }
    }

    fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.metrics.extend(other.metrics);
    }

    fn json(&self) -> String {
        let correct = self.problems.is_empty() && self.failed == 0;
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN or infinity; a non-finite value is a bug in
            // the benchmark and is reported as -1.
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Runs `round(0)`, `round(1)`, ... until `ctx.seconds` have passed, at
/// least [`MIN_ROUNDS`] times, starting no round that would likely end
/// past the deadline. Round `r` always gets the same inputs, so a run
/// differs from another on the same seed only in how many rounds fit.
pub fn rounds(ctx: &Ctx, mut round: impl FnMut(usize)) {
    let started = Instant::now();
    for r in 0.. {
        round(r);
        let elapsed = started.elapsed().as_secs_f64();
        let per_round = elapsed / (r + 1) as f64;
        if r + 1 >= MIN_ROUNDS && elapsed + per_round > ctx.seconds {
            return;
        }
    }
}

/// The seed of round `round`: the workload seed itself for round 0, then
/// streams forked from it. Rounds on distinct seeds average out costs
/// that vary with the seed, such as the RSA key search in provisioning.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    if round == 0 {
        return seed;
    }
    DetRng::seed_from(seed)
        .fork(&format!("perfbench/round/{round}"))
        .next_u64()
}

/// Mean of `values`.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn host_line(workers: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"host\": {{\"cpu_model\": \"{}\", \"nproc\": {workers}, \"rustc\": \"{}\"}}}}",
        cpu.replace('"', "'"),
        env!("PERFBENCH_RUSTC")
    )
}

const USAGE: &str = "usage: cres-perfbench --workload <fleet_standard|gauntlet|forensics> \
                     [--seed N] [--seconds S] [--trace 0|1] [--spans-out FILE]";

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 30.0,
        trace: false,
        spans_out: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--spans-out" => args.spans_out = Some(value),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let default_seed = match args.workload.as_str() {
        "fleet_standard" => fleet::DEFAULT_SEED,
        "gauntlet" => gauntlet::DEFAULT_SEED,
        "forensics" => forensics::DEFAULT_SEED,
        other => {
            eprintln!("error: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed.unwrap_or(default_seed),
        seconds: args.seconds,
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    println!("{}", host_line(ctx.workers));

    let mut outcome = Outcome::default();
    if args.trace {
        // The per-layer metric list is one list for every workload, so a
        // traced run profiles all three pipelines at the given seed.
        let mut spans = String::new();
        outcome.absorb(fleet::trace(&ctx, &mut spans));
        outcome.absorb(gauntlet::trace(&ctx, &mut spans));
        outcome.absorb(forensics::trace(&ctx, &mut spans));
        if let Some(path) = &args.spans_out {
            if let Err(e) = std::fs::write(path, spans) {
                eprintln!("error: writing spans to {path}: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        outcome.absorb(match args.workload.as_str() {
            "fleet_standard" => fleet::run(&ctx),
            "gauntlet" => gauntlet::run(&ctx),
            _ => forensics::run(&ctx),
        });
        outcome.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }

    for problem in &outcome.problems {
        eprintln!("check failed: {problem}");
    }
    println!("{}", outcome.json());
    if outcome.problems.is_empty() && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
