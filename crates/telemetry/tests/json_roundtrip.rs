//! Property tests: the JSON-lines serialization of a [`MetricsSnapshot`] is
//! lossless. All sample values are integers (counts, nanoseconds), so the
//! decode of an encode must be `==` to the original — no float rounding, no
//! label reordering, no escaping loss. Finite floats written by the same
//! writer parse back bit for bit.

use proptest::prelude::*;
use treelineage_telemetry::json::{parse, Json};
use treelineage_telemetry::{
    CounterSample, GaugeSample, HistogramSample, MetricsSnapshot, SpanAggregate,
};

/// Finite floats that random bit patterns rarely hit.
const EDGE_FLOATS: [f64; 10] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    1e300,
    -1e-300,
    5e-324, // the smallest subnormal
    f64::MIN_POSITIVE,
    f64::MAX,
    1e16, // the smallest integral float written with an exponent
];

/// Names exercising the JSON escaper: plain metric names plus strings with
/// quotes, backslashes, control characters, and non-ASCII.
const NAMES: [&str; 6] = [
    "requests_total",
    "request_latency_ns",
    "weird \"quoted\" name",
    "back\\slash",
    "ctrl\n\t\u{1}",
    "unicode µs",
];

fn name(rng_pick: usize) -> String {
    NAMES[rng_pick % NAMES.len()].to_string()
}

fn labels(seed: u64) -> Vec<(String, String)> {
    (0..(seed % 3))
        .map(|i| {
            (
                format!("k{i}"),
                name((seed >> (8 * i)) as usize % NAMES.len()),
            )
        })
        .collect()
}

fn snapshot(seed: u64) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    for i in 0..(seed % 4) {
        snap.counters.push(CounterSample {
            name: name((seed + i) as usize),
            labels: labels(seed.rotate_left(i as u32)),
            value: seed.wrapping_mul(i + 1),
        });
    }
    for i in 0..(seed % 3) {
        snap.gauges.push(GaugeSample {
            name: name((seed + 7 * i) as usize),
            labels: labels(seed.rotate_right(i as u32)),
            value: (seed.wrapping_mul(i + 3)) as i64,
        });
    }
    if seed.is_multiple_of(2) {
        let bounds: Vec<u64> = (1..=(seed % 5 + 1)).map(|i| i * 1000).collect();
        let buckets: Vec<u64> = (0..bounds.len() + 1)
            .map(|i| (seed >> (i % 17)) % 1_000_003)
            .collect();
        let count = buckets.iter().sum();
        snap.histograms.push(HistogramSample {
            name: name(seed as usize / 3),
            labels: labels(seed / 5),
            sum: count * 10,
            bounds,
            buckets,
            count,
        });
    }
    if seed.is_multiple_of(3) {
        snap.spans.push(SpanAggregate {
            name: name(seed as usize / 7),
            count: seed % 100,
            total_ns: seed,
            min_ns: seed % 1000,
            max_ns: seed % 1000 + seed / 2,
        });
    }
    snap
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn json_lines_round_trip_is_lossless(seed in any::<u64>()) {
        let snap = snapshot(seed);
        let encoded = snap.to_json_lines();
        let decoded = MetricsSnapshot::from_json_lines(&encoded).unwrap();
        prop_assert_eq!(decoded, snap);
    }

    #[test]
    fn registry_snapshots_round_trip(seed in any::<u64>()) {
        // The same property through a live registry: record, snapshot,
        // encode, decode.
        let t = treelineage_telemetry::Telemetry::enabled();
        t.counter_add("requests_total", &[("tier", "float")], seed % 17);
        t.gauge_set("occupancy", &[], (seed % 31) as i64 - 15);
        t.observe_ns("latency_ns", &[], seed % 5_000_000_000);
        drop(t.span("stage"));
        let snap = t.snapshot();
        let decoded = MetricsSnapshot::from_json_lines(&snap.to_json_lines()).unwrap();
        prop_assert_eq!(decoded, snap);
    }

    #[test]
    fn finite_floats_round_trip_bit_for_bit(bits in any::<u64>(), edge in 0..EDGE_FLOATS.len()) {
        let sign = bits & (1 << 63);
        let random = f64::from_bits(bits);
        // The same mantissa with the exponent field cleared, and the bits as
        // an integer (integral, with an exponent past 1e16).
        let subnormal = f64::from_bits(sign | (bits & ((1 << 52) - 1)));
        let integral = f64::from_bits(sign | (bits as f64).to_bits());
        for value in [random, subnormal, integral, EDGE_FLOATS[edge]] {
            if !value.is_finite() {
                continue;
            }
            let mut text = String::new();
            Json::Float(value).write(&mut text);
            let back = match parse(&text) {
                Ok(Json::Float(back)) => back,
                other => panic!("{value:?} wrote {text}, read {other:?}"),
            };
            prop_assert_eq!(back.to_bits(), value.to_bits(), "{}", text);
        }
    }
}
