//! The treelineage benchmark: three workloads on one `EvalSession` each,
//! driven as a closed loop by one client thread, with every answer checked
//! against an independent path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_exact --seed 1 --seconds 25 --trace 0
//! ```
//!
//! * `--trace 0` prints the end-to-end metrics (tracing off).
//! * `--trace 1` runs the workload untraced, then with the session's
//!   `Telemetry` enabled, then replays its inputs through each layer's
//!   public entry point, and prints the per-layer metrics and each layer's
//!   share of call time.
//! * `--repeat N` runs the workload (or `--workload all`) N times in child
//!   processes with seeds `seed..seed+N` and prints each metric's median,
//!   quartiles, quartile spread and the value of every run.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A wrong answer exits with code 1.

mod clock;
mod gen;
mod ingest;
mod layers;
mod report;
mod serve;
mod stats;
mod writes;

use ingest::Ingest;
use layers::Reconciliation;
use report::{E2e, LayerSamples, Metric, Series, Traced};
use serve::{Serve, PATTERN_CALLS};
use std::time::Instant;
use treelineage::prelude::*;
use writes::{AnswerKind, Tally};

const WORKLOADS: [&str; 3] = ["serve_exact", "serve_float", "ingest_update"];

/// A wall-clock budget: the untraced closed loop's and the traced run's
/// phases.
pub struct Budget {
    started: Instant,
    seconds: f64,
}

impl Budget {
    pub fn new(seconds: f64) -> Self {
        Budget {
            started: Instant::now(),
            seconds,
        }
    }

    pub fn spent(&self) -> bool {
        self.started.elapsed().as_secs_f64() >= self.seconds
    }
}

/// A wrong answer: report it and exit non-zero.
pub fn mismatch(message: &str) -> ! {
    eprintln!("wrong answer: {message}");
    println!("{}", json(false, 1, 0, &[]));
    std::process::exit(1);
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn serve_kind(workload: &str) -> Option<AnswerKind> {
    match workload {
        "serve_exact" => Some(AnswerKind::Exact),
        "serve_float" => Some(AnswerKind::Float),
        _ => None,
    }
}

/// Set-ups per run, before and after the timed loop; `setup_s` is their
/// median. Splitting them around the loop samples the host at different
/// moments, so one slow stretch moves the median less.
const SETUPS_BEFORE: usize = 6;
const SETUPS_AFTER: usize = 5;

/// Times `setup` `n` times, keeping the last state.
fn set_up<T>(e: &mut E2e, n: usize, mut setup: impl FnMut() -> T) -> Option<T> {
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        last = Some(e.set_up(&mut setup));
    }
    last
}

/// The untraced run: set-ups, then `seconds` of wall time in the closed
/// loop (serve workloads run their cold and write probes between pattern
/// windows, outside the timed calls), then more set-ups. Every sample is
/// nominal CPU time (see [`clock`]).
fn end_to_end(workload: &str, seed: u64, seconds: f64) -> E2e {
    let mut e = E2e::new();
    if let Some(kind) = serve_kind(workload) {
        let setup = || Serve::setup(kind, seed, Telemetry::disabled());
        let mut serve = set_up(&mut e, SETUPS_BEFORE, setup).expect("at least one set-up");
        e.latency_tail_pct = serve::TAIL_PCT;
        e.update_tail_pct = serve::TAIL_PCT;
        let refs = serve.references();
        let mut k = 0;
        let run = Budget::new(seconds);
        while !run.spent() {
            let call = serve.call(k, &refs);
            let answered = e.tally.answered;
            let s = serve.execute(&call, &refs, &mut e.tally);
            e.call(s, e.tally.answered - answered);
            if Serve::is_primary(&call) {
                e.sample(Series::Latency, s);
            }
            k += 1;
            if k % PATTERN_CALLS == 0 {
                e.close_window(true);
                serve.probe_window(&mut e);
            }
        }
        e.close_window(false);
        drop(serve);
        set_up(&mut e, SETUPS_AFTER, setup);
    } else {
        let setup = || Ingest::setup(seed, Telemetry::disabled());
        let mut ingest = set_up(&mut e, SETUPS_BEFORE, setup).expect("at least one set-up");
        e.latency_tail_pct = ingest::TAIL_PCT;
        e.update_tail_pct = ingest::TAIL_PCT;
        let run = Budget::new(seconds);
        // Whole segments only, each on a fresh session set up from the same
        // seed (its set-up counts as one more set-up sample), so every run
        // has the same op mix however fast it goes.
        loop {
            while !ingest.segment_done() {
                let answered = e.tally.answered;
                let step = ingest.step(&mut e.tally);
                let answered = e.tally.answered - answered;
                Ingest::record(&step, &mut e, answered);
                if ingest.ops() % ingest::PATTERN.len() == 0 {
                    e.close_window(true);
                }
            }
            let references = std::mem::take(&mut ingest.references);
            drop(ingest);
            if run.spent() {
                break;
            }
            ingest = set_up(&mut e, 1, setup).expect("one set-up");
            ingest.references = references;
        }
        set_up(&mut e, SETUPS_AFTER, setup);
    }
    e
}

/// Busy time, calls and answers of one side of the traced run's
/// interleaved comparison.
#[derive(Default)]
struct Side {
    busy: f64,
    calls: u64,
    tally: Tally,
}

impl Side {
    fn run(&mut self, step: &mut impl FnMut(&mut Tally) -> f64) {
        self.busy += step(&mut self.tally);
        self.calls += 1;
    }

    fn per_request(&self) -> f64 {
        self.busy / self.tally.answered.max(1) as f64
    }
}

/// Alternates the same call sequence between an untraced (`a`) and a
/// telemetry-enabled (`b`) copy of the workload, swapping which goes first
/// each round, until their combined busy time reaches `seconds`.
fn interleave(
    seconds: f64,
    mut a: impl FnMut(&mut Tally) -> f64,
    mut b: impl FnMut(&mut Tally) -> f64,
) -> (Side, Side) {
    let (mut untraced, mut traced) = (Side::default(), Side::default());
    while untraced.busy + traced.busy < seconds {
        if untraced.calls % 2 == 0 {
            untraced.run(&mut a);
            traced.run(&mut b);
        } else {
            traced.run(&mut b);
            untraced.run(&mut a);
        }
    }
    (untraced, traced)
}

/// The traced run: two thirds of the time alternating calls between an
/// untraced session and one with its telemetry enabled (for the tracing
/// overhead and the pool counters), then a third replaying the untraced
/// session's own inputs through each layer directly.
fn traced(workload: &str, seed: u64, seconds: f64, notes: &mut Vec<String>) -> Traced {
    let registry = Telemetry::enabled();
    let mut recon = Reconciliation::default();
    let mut samples = LayerSamples::default();
    let mut tally = Tally::default();
    let ((untraced, traced), stats, snapshot);
    if let Some(kind) = serve_kind(workload) {
        let a = Serve::setup(kind, seed, Telemetry::disabled());
        let b = Serve::setup(kind, seed, registry.clone());
        let refs = a.references();
        let before = b.session.metrics();
        let (mut ka, mut kb) = (0, 0);
        (untraced, traced) = interleave(
            seconds * 2.0 / 3.0,
            |t| {
                ka += 1;
                a.execute(&a.call(ka - 1, &refs), &refs, t)
            },
            |t| {
                kb += 1;
                b.execute(&b.call(kb - 1, &refs), &refs, t)
            },
        );
        snapshot = (before, b.session.metrics());
        stats = a.session.stats();
        let budget = Budget::new(seconds / 3.0);
        a.replay(&refs, &budget, &mut recon, &mut samples, &mut tally);
    } else {
        let mut a = Ingest::setup(seed, Telemetry::disabled());
        let mut b = Ingest::setup(seed, registry.clone());
        let before = b.session.metrics();
        // A session whose segment is done is set up afresh (outside the
        // timed steps); `stats()` comes from the last complete segment.
        let mut segment_stats = None;
        (untraced, traced) = interleave(
            seconds * 2.0 / 3.0,
            |t| {
                if a.segment_done() {
                    segment_stats = Some(a.session.stats());
                    a.next_segment(Telemetry::disabled());
                }
                a.step(t).latency.unwrap_or(0.0)
            },
            |t| {
                if b.segment_done() {
                    b.next_segment(registry.clone());
                }
                b.step(t).latency.unwrap_or(0.0)
            },
        );
        snapshot = (before, b.session.metrics());
        stats = segment_stats.unwrap_or_else(|| a.session.stats());
        a.replay(
            &Budget::new(seconds / 3.0),
            &mut recon,
            &mut samples,
            &mut tally,
        );
    }
    let (before, after) = snapshot;
    let per_call = |name: &str| {
        (after.counter_total(name) - before.counter_total(name)) as f64 / traced.calls.max(1) as f64
    };
    notes.push("stage spans of the telemetry-enabled session (cross-check):".to_string());
    for span in &after.spans {
        notes.push(format!(
            "  span {:<24} count {:>7}  total {:>10.3} ms",
            span.name,
            span.count,
            span.total_ns as f64 / 1e6
        ));
    }
    for side in [&untraced.tally, &traced.tally] {
        tally.attempted += side.attempted;
        tally.failed += side.failed;
        tally.answered += side.answered;
    }
    Traced {
        samples,
        recon,
        stats,
        pool_tasks_per_call: per_call("pool_tasks_total"),
        pool_steals_per_call: per_call("pool_steals_total"),
        trace_overhead_pct: 100.0 * (traced.per_request() / untraced.per_request() - 1.0),
        tally,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--repeat" => args.repeat = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let known = WORKLOADS.contains(&args.workload.as_str())
        || (args.repeat.is_some() && args.workload == "all");
    if !known {
        return Err(format!(
            "--workload must be one of {} (or all, with --repeat)",
            WORKLOADS.join(", ")
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Runs each workload `n` times in child processes and prints each
/// metric's median, quartiles, quartile spread and the value of every run.
fn repeat(args: &Args, n: usize) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    for workload in workloads {
        let mut series: Vec<(String, String, Vec<f64>)> = Vec::new();
        for i in 0..n as u64 {
            let output = std::process::Command::new(&exe)
                .args(["--workload", workload])
                .args(["--seed", &(args.seed + i).to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .output()
                .map_err(|e| e.to_string())?;
            if !output.status.success() {
                return Err(format!(
                    "{workload} seed {} failed: {}",
                    args.seed + i,
                    String::from_utf8_lossy(&output.stderr)
                ));
            }
            for line in String::from_utf8_lossy(&output.stdout).lines() {
                let mut f = line.split_whitespace();
                if f.next() != Some("metric") {
                    continue;
                }
                let (Some(name), Some(value), Some(unit)) = (f.next(), f.next(), f.next()) else {
                    continue;
                };
                let value: f64 = value
                    .parse()
                    .map_err(|_| format!("bad metric line {line}"))?;
                match series.iter_mut().find(|s| s.0 == name) {
                    Some(s) => s.2.push(value),
                    None => series.push((name.to_string(), unit.to_string(), vec![value])),
                }
            }
        }
        println!(
            "{workload}: {n} runs, seeds {}..{}",
            args.seed,
            args.seed + n as u64 - 1
        );
        for (name, unit, values) in &series {
            let sorted = stats::sorted(values);
            let median = stats::quantile(&sorted, 0.5);
            let (q1, q3) = (
                stats::quantile(&sorted, 0.25),
                stats::quantile(&sorted, 0.75),
            );
            let spread = if median != 0.0 {
                (q3 - q1) / median.abs()
            } else {
                0.0
            };
            println!(
                "  {name:<40} median {median:>12.4} {unit:<10} q1 {q1:>12.4}  q3 {q3:>12.4}  spread {:>6.2}%",
                spread * 100.0
            );
            let raw: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
            println!("    runs: {}", raw.join(" "));
        }
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Some(n) = args.repeat {
        if let Err(e) = repeat(&args, n) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    let threads = if serve_kind(&args.workload).is_some() {
        serve::THREADS
    } else {
        ingest::THREADS
    };
    println!(
        "workload {} seed {} seconds {} trace {} threads {threads} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut notes = Vec::new();
    let (metrics, tally) = if args.trace {
        let t = traced(&args.workload, args.seed, args.seconds, &mut notes);
        let (metrics, more) = report::per_layer(&t);
        notes.extend(more);
        (metrics, t.tally)
    } else {
        let e = end_to_end(&args.workload, args.seed, args.seconds);
        let (metrics, more) = report::end_to_end(&e);
        notes.extend(more);
        (metrics, e.tally)
    };
    for m in &metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    for n in &notes {
        println!("# {n}");
    }
    println!(
        "{}",
        json(true, tally.attempted.max(1), tally.failed, &metrics)
    );
}
