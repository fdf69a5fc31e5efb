//! What one run measured, and how it is printed.

use crate::clock;
use crate::layers::{self, LayerTimes, Reconciliation, Structure};
use crate::stats;
use crate::writes::Tally;
use treelineage::prelude::*;
use treelineage::SessionStats;

/// Which end-to-end sample series a timed operation belongs to.
#[derive(Clone, Copy)]
pub enum Series {
    Latency,
    Cold,
    Update,
    Reweight,
}

/// End-to-end samples of one untraced run, in nominal CPU time (see
/// [`clock`]; seconds unless named ms).
#[derive(Default)]
pub struct E2e {
    pub setup_s: Vec<f64>,
    /// Summed raw CPU time of every timed call (the closed loop's busy
    /// time).
    pub busy_s: f64,
    /// Throughput (answers per nominal busy second) of each repetition of
    /// the workload's call pattern; `throughput_rps` is their median, so a
    /// burst of host noise moves it less than a run-long mean.
    pub windows: Vec<f64>,
    /// Latency of each call the workload's `latency_*` metrics are over.
    pub latency_ms: Vec<f64>,
    pub cold_ms: Vec<f64>,
    pub update_ms: Vec<f64>,
    pub reweight_ms: Vec<f64>,
    pub tally: Tally,
    /// Percentiles `latency_tail_ms` and `update_tail_ms` are taken at.
    pub latency_tail_pct: f64,
    pub update_tail_pct: f64,
    /// Host-speed readings (CPU seconds of one [`clock::kernel`] run), at
    /// the start and at every window and set-up boundary.
    pub readings: Vec<f64>,
    /// The open window: raw samples, busy CPU time and answers.
    pending: Vec<(Series, f64)>,
    window_busy: f64,
    window_answered: u64,
}

impl E2e {
    pub fn new() -> E2e {
        E2e {
            readings: vec![clock::reading()],
            ..E2e::default()
        }
    }

    /// Records one timed call of the open window: its raw CPU seconds and
    /// the answers it gave.
    pub fn call(&mut self, seconds: f64, answered: u64) {
        self.busy_s += seconds;
        self.window_busy += seconds;
        self.window_answered += answered;
    }

    /// Records one raw sample (CPU seconds) of `series` in the open window.
    pub fn sample(&mut self, series: Series, seconds: f64) {
        self.pending.push((series, seconds));
    }

    /// Reads the host speed and returns the scale of the time since the
    /// previous reading.
    fn read(&mut self) -> f64 {
        let before = *self.readings.last().expect("a reading at the start");
        let after = clock::reading();
        self.readings.push(after);
        clock::scale(before, after)
    }

    /// Closes the open window: files its samples in nominal CPU time, and
    /// its throughput when it ran the whole call pattern.
    pub fn close_window(&mut self, whole_pattern: bool) {
        let k = self.read();
        for (series, seconds) in std::mem::take(&mut self.pending) {
            let ms = seconds * k * 1e3;
            match series {
                Series::Latency => self.latency_ms.push(ms),
                Series::Cold => self.cold_ms.push(ms),
                Series::Update => self.update_ms.push(ms),
                Series::Reweight => self.reweight_ms.push(ms),
            }
        }
        if whole_pattern && self.window_busy > 0.0 {
            self.windows
                .push(self.window_answered as f64 / (self.window_busy * k));
        }
        self.window_busy = 0.0;
        self.window_answered = 0;
    }

    /// Runs and times one set-up, between two host-speed readings.
    pub fn set_up<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let (state, s) = layers::timed(setup);
        let k = self.read();
        self.setup_s.push(s * k);
        state
    }
}

/// Per-layer samples of a traced run.
#[derive(Default)]
pub struct LayerSamples {
    pub treewidth_ms: Vec<f64>,
    pub encode_ms: Vec<f64>,
    pub query_compile_ms: Vec<f64>,
    pub materialize_ms: Vec<f64>,
    pub dsdnnf_ms: Vec<f64>,
    pub tree_nodes: Vec<f64>,
    pub automaton_states: Vec<f64>,
    pub gates: Vec<f64>,
    pub fragments: Vec<f64>,
    pub eval_exact_ms: Vec<f64>,
    pub eval_wmc_ms: Vec<f64>,
    pub eval_count_ms: Vec<f64>,
    pub eval_interval_ms: Vec<f64>,
    pub result_bits: Vec<f64>,
    /// Σ exact-pass nanoseconds and Σ gates × denominator limbs, for the
    /// derived ns/(gate·limb).
    pub exact_ns: f64,
    pub gate_limbs: f64,
}

impl LayerSamples {
    /// Records one direct compile (the query compile is recorded by the
    /// caller, only when a machine was built).
    pub fn record_compile(&mut self, s: &Structure, t: &LayerTimes) {
        self.treewidth_ms.push(t.treewidth * 1e3);
        self.encode_ms.push(t.encode * 1e3);
        self.materialize_ms.push(t.materialize * 1e3);
        self.dsdnnf_ms.push(t.dsdnnf * 1e3);
        self.tree_nodes.push(s.tree_nodes as f64);
        self.automaton_states.push(s.automaton_states as f64);
        self.gates.push(s.gates as f64);
        self.fragments.push(s.fragments as f64);
    }

    pub fn record_exact(&mut self, seconds: f64, gates: usize, p: &Rational) {
        self.eval_exact_ms.push(seconds * 1e3);
        self.result_bits.push(p.denominator().bits() as f64);
        self.exact_ns += seconds * 1e9;
        self.gate_limbs += (gates * crate::layers::limbs(p)) as f64;
    }
}

/// Everything a traced run reports.
pub struct Traced {
    pub samples: LayerSamples,
    pub recon: Reconciliation,
    pub stats: SessionStats,
    pub pool_tasks_per_call: f64,
    pub pool_steals_per_call: f64,
    pub trace_overhead_pct: f64,
    pub tally: Tally,
}

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Resident-set high-water mark of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics, plus human-readable notes (tail percentile and
/// sample counts, error rate).
pub fn end_to_end(e: &E2e) -> (Vec<Metric>, Vec<String>) {
    let (tail, beyond) = stats::tail(&e.latency_ms, e.latency_tail_pct);
    let (update_tail, update_beyond) = stats::tail(&e.update_ms, e.update_tail_pct);
    let attempted = e.tally.attempted.max(1);
    let metrics = vec![
        metric("setup_s", stats::median(&e.setup_s), "s"),
        metric("throughput_rps", stats::median(&e.windows), "1/s"),
        metric("latency_p50_ms", stats::median(&e.latency_ms), "ms"),
        metric("latency_tail_ms", tail, "ms"),
        metric("cold_p50_ms", stats::median(&e.cold_ms), "ms"),
        metric("update_p50_ms", stats::median(&e.update_ms), "ms"),
        metric("update_tail_ms", update_tail, "ms"),
        metric("reweight_p50_ms", stats::median(&e.reweight_ms), "ms"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    let tail_note = |name: &str, pct: f64, n: usize, beyond: usize, what: &str| {
        let flag = if beyond < stats::MIN_BEYOND {
            format!(" (warning: fewer than {} beyond)", stats::MIN_BEYOND)
        } else {
            String::new()
        };
        format!("{name} is p{pct} of {n} {what}, {beyond} beyond it{flag}")
    };
    let notes = vec![
        tail_note(
            "latency_tail_ms",
            e.latency_tail_pct,
            e.latency_ms.len(),
            beyond,
            "calls",
        ),
        tail_note(
            "update_tail_ms",
            e.update_tail_pct,
            e.update_ms.len(),
            update_beyond,
            "updates",
        ),
        format!(
            "samples: {} setups, {} throughput windows, {} cold, {} updates, {} reweights; {:.2}s busy (raw CPU)",
            e.setup_s.len(),
            e.windows.len(),
            e.cold_ms.len(),
            e.update_ms.len(),
            e.reweight_ms.len(),
            e.busy_s
        ),
        {
            let r = stats::sorted(&e.readings);
            format!(
                "host speed: {} readings of the reference kernel, median {:.4} ms, range {:.4}..{:.4} ms (nominal {} ms)",
                r.len(),
                stats::quantile(&r, 0.5) * 1e3,
                r.first().copied().unwrap_or(0.0) * 1e3,
                r.last().copied().unwrap_or(0.0) * 1e3,
                clock::NOMINAL_S * 1e3
            )
        },
        format!(
            "error_rate {} ({} typed errors / {} operations)",
            e.tally.failed as f64 / attempted as f64,
            e.tally.failed,
            e.tally.attempted
        ),
    ];
    (metrics, notes)
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole <= 0.0 {
        0.0
    } else {
        100.0 * part / whole
    }
}

/// The per-layer metrics of a traced run, plus the reconciliation table.
pub fn per_layer(t: &Traced) -> (Vec<Metric>, Vec<String>) {
    let s = &t.samples;
    let st = &t.stats;
    let (calls, call_s) = Reconciliation::totals(&t.recon.calls);
    let (structural, structural_s) = Reconciliation::totals(&t.recon.structural);
    let metrics = vec![
        metric("graph.treewidth_ms", stats::median(&s.treewidth_ms), "ms"),
        metric("encoding.encode_ms", stats::median(&s.encode_ms), "ms"),
        metric("encoding.tree_nodes", stats::median(&s.tree_nodes), "count"),
        metric(
            "encoding.query_compile_ms",
            stats::median(&s.query_compile_ms),
            "ms",
        ),
        metric(
            "encoding.materialize_ms",
            stats::median(&s.materialize_ms),
            "ms",
        ),
        metric(
            "encoding.automaton_states",
            stats::median(&s.automaton_states),
            "count",
        ),
        metric(
            "engine.dsdnnf_compile_ms",
            stats::median(&s.dsdnnf_ms),
            "ms",
        ),
        metric("circuit.gates", stats::median(&s.gates), "count"),
        metric("engine.fragments", stats::median(&s.fragments), "count"),
        metric(
            "engine.eval_exact_ms",
            stats::median(&s.eval_exact_ms),
            "ms",
        ),
        metric("engine.eval_wmc_ms", stats::median(&s.eval_wmc_ms), "ms"),
        metric(
            "engine.eval_count_ms",
            stats::median(&s.eval_count_ms),
            "ms",
        ),
        metric(
            "engine.eval_interval_ms",
            stats::median(&s.eval_interval_ms),
            "ms",
        ),
        metric("num.result_bits", stats::median(&s.result_bits), "bits"),
        metric(
            "num.ns_per_gate_limb",
            if s.gate_limbs > 0.0 {
                s.exact_ns / s.gate_limbs
            } else {
                0.0
            },
            "ns",
        ),
        metric("engine.session.overhead_ms", t.recon.overhead_ms(), "ms"),
        metric(
            "engine.session.lineage_hit_ratio",
            ratio(st.lineage_hits, st.lineage_hits + st.lineage_misses),
            "ratio",
        ),
        metric(
            "engine.session.fragments_reused_ratio",
            ratio(
                st.fragments_reused,
                st.fragments_reused + st.fragments_recompiled,
            ),
            "ratio",
        ),
        metric(
            "engine.session.exact_fallback_share",
            ratio(st.exact_fallbacks, st.exact_fallbacks + st.float_decisions),
            "ratio",
        ),
        metric("engine.session.errors", st.errors as f64, "count"),
        metric(
            "engine.session.worker_panics",
            st.worker_panics as f64,
            "count",
        ),
        metric("engine.pool.tasks", t.pool_tasks_per_call, "count/call"),
        metric("engine.pool.steals", t.pool_steals_per_call, "count/call"),
        metric("telemetry.trace_overhead_pct", t.trace_overhead_pct, "%"),
        metric("share.eval_exact_pct", pct(calls.eval_exact, call_s), "%"),
        metric("share.eval_wmc_pct", pct(calls.eval_wmc, call_s), "%"),
        metric("share.eval_count_pct", pct(calls.eval_count, call_s), "%"),
        metric(
            "share.eval_interval_pct",
            pct(calls.eval_interval, call_s),
            "%",
        ),
        metric("share.compile_pct", pct(calls.compile(), call_s), "%"),
        metric(
            "share.overhead_pct",
            pct(call_s - calls.total(), call_s),
            "%",
        ),
        metric(
            "share.structural_compile_pct",
            pct(structural.compile(), structural_s),
            "%",
        ),
    ];
    let mut notes = vec![format!(
        "reconciliation over {} replayed calls ({:.1} ms) and {} structural writes ({:.1} ms)",
        t.recon.calls.len(),
        call_s * 1e3,
        t.recon.structural.len(),
        structural_s * 1e3
    )];
    for (name, rows, whole) in [
        ("calls", &calls, call_s),
        ("structural", &structural, structural_s),
    ] {
        notes.push(format!(
            "  {name:<10} treewidth {:>5.1}%  encode {:>5.1}%  query_compile {:>5.1}%  materialize {:>5.1}%  dsdnnf {:>5.1}%  exact {:>5.1}%  wmc {:>5.1}%  count {:>5.1}%  interval {:>5.1}%  rest {:>5.1}%",
            pct(rows.treewidth, whole),
            pct(rows.encode, whole),
            pct(rows.query_compile, whole),
            pct(rows.materialize, whole),
            pct(rows.dsdnnf, whole),
            pct(rows.eval_exact, whole),
            pct(rows.eval_wmc, whole),
            pct(rows.eval_count, whole),
            pct(rows.eval_interval, whole),
            pct(whole - rows.total(), whole),
        ));
    }
    (metrics, notes)
}
