//! Perf-regression gate: checks perfbench runs of a change against runs of
//! its parent, within the end-to-end bounds of `BENCHMARK.json`.
//!
//! ```text
//! bench_diff BENCHMARK.json PARENT.txt CHANGE.txt
//! ```
//!
//! `PARENT.txt` and `CHANGE.txt` are concatenated standard outputs of
//! `perfbench --trace 0` runs (`ci/perf_gate.sh` records them). A run opens
//! with a `workload <name> …` line, prints `metric <name> <value> <unit>`
//! lines and closes with a JSON line carrying `correct`, `attempted` and
//! `failed`. For each workload and `end_to_end` metric of `BENCHMARK.json`
//! the gate takes each side's median over its runs, and fails when the
//! change's is worse than the parent's, in the metric's `better`
//! direction, by more than `bound` × the parent's. It also fails when a
//! workload or metric is missing on either side, when the change's share of
//! failed operations (`failed / attempted` over its runs) exceeds the
//! parent's, and when a change run gave a wrong answer. Exit status: 0
//! pass, 1 fail, 2 unreadable input.
//!
//! `BENCHMARK.json` carries floats (`"bound": 0.25`), which the telemetry
//! crate's integer-only JSON parser deliberately rejects, so this binary
//! brings its own minimal float-tolerant reader (std-only, like everything
//! else in the workspace).

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [spec, parent, change] = args.as_slice() else {
        eprintln!("usage: bench_diff BENCHMARK.json PARENT.txt CHANGE.txt");
        return ExitCode::from(2);
    };
    let read = |path: &String| std::fs::read_to_string(path).map_err(|e| e.to_string());
    let load = |path: &String| {
        read(path)
            .and_then(|text| runs(&text))
            .map_err(|e| format!("{path}: {e}"))
    };
    let inputs = read(spec)
        .and_then(|text| Spec::from_json(&parse(&text)?))
        .map_err(|e| format!("{spec}: {e}"))
        .and_then(|spec| Ok((spec, load(parent)?, load(change)?)));
    let (spec, parent, change) = match inputs {
        Ok(inputs) => inputs,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::from(2);
        }
    };
    match gate(&spec, &parent, &change) {
        Ok(report) => {
            print!("{report}");
            println!("bench_diff: every end-to-end metric within its bound");
            ExitCode::SUCCESS
        }
        Err(failures) => {
            eprint!("{failures}");
            ExitCode::FAILURE
        }
    }
}

/// The workloads and `end_to_end` metrics of `BENCHMARK.json`.
#[derive(Debug)]
struct Spec {
    workloads: Vec<String>,
    metrics: Vec<Bound>,
}

/// A metric's direction and its regression bound, a fraction of the
/// parent's median.
#[derive(Debug)]
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

impl Spec {
    fn from_json(doc: &Value) -> Result<Spec, String> {
        let entries = |key: &str| match field(doc, key) {
            Some(Value::Array(items)) => Ok(items),
            _ => Err(format!("no {key:?} array")),
        };
        let text = |entry: &Value, key: &str| match field(entry, key) {
            Some(Value::String(s)) => Ok(s.clone()),
            _ => Err(format!("an entry has no {key:?} string")),
        };
        let workloads = entries("workloads")?;
        let workloads = workloads.iter().map(|w| text(w, "name"));
        let metrics = entries("end_to_end")?.iter().map(|m| {
            let name = text(m, "name")?;
            let lower_is_better = match text(m, "better")?.as_str() {
                "lower" => true,
                "higher" => false,
                _ => return Err(format!("{name}: better is neither lower nor higher")),
            };
            match field(m, "bound") {
                Some(&Value::Number(bound)) if bound >= 0.0 => Ok(Bound {
                    name,
                    lower_is_better,
                    bound,
                }),
                _ => Err(format!("{name}: no non-negative bound")),
            }
        });
        Ok(Spec {
            workloads: workloads.collect::<Result<_, _>>()?,
            metrics: metrics.collect::<Result<_, _>>()?,
        })
    }
}

/// One perfbench run: its workload, its metric values and its result line.
#[derive(Debug, Default)]
struct Run {
    workload: String,
    metrics: Vec<(String, f64)>,
    attempted: f64,
    failed: f64,
    correct: bool,
    /// Whether the result line, which closes the run, has been read.
    closed: bool,
}

/// Reads concatenated perfbench outputs. Output outside a run, or a run
/// without its result line, is an error: a truncated log must not pass as
/// a short one.
fn runs(text: &str) -> Result<Vec<Run>, String> {
    let mut runs: Vec<Run> = Vec::new();
    for (n, line) in (1..).zip(text.lines()) {
        let mut words = line.split_whitespace();
        let first = words.next().unwrap_or("");
        match (first, runs.last_mut().filter(|r| !r.closed)) {
            ("workload", None) => runs.push(Run {
                workload: words.next().unwrap_or("").to_string(),
                ..Run::default()
            }),
            ("metric", Some(run)) => {
                let (name, value) = (words.next(), words.next().map(str::parse));
                let (Some(name), Some(Ok(value))) = (name, value) else {
                    return Err(format!("line {n}: bad metric line {line:?}"));
                };
                run.metrics.push((name.to_string(), value));
            }
            (_, Some(run)) if first.starts_with('{') => {
                let result = parse(line).map_err(|e| format!("line {n}: {e}"))?;
                let count = |key| match field(&result, key) {
                    Some(&Value::Number(v)) => Ok(v),
                    _ => Err(format!("line {n}: no {key:?} count")),
                };
                (run.attempted, run.failed) = (count("attempted")?, count("failed")?);
                run.correct = field(&result, "correct") == Some(&Value::Bool(true));
                run.closed = true;
            }
            _ if first == "workload" || first == "metric" || first.starts_with('{') => {
                return Err(format!("line {n}: {first} line out of place"));
            }
            _ => {}
        }
    }
    match runs.last() {
        Some(run) if !run.closed => Err("the last run has no result line".to_string()),
        _ => Ok(runs),
    }
}

/// The runs of `workload`, or `None` when there are none.
fn of<'a>(runs: &'a [Run], workload: &str) -> Option<Vec<&'a Run>> {
    let of: Vec<&Run> = runs.iter().filter(|r| r.workload == workload).collect();
    (!of.is_empty()).then_some(of)
}

/// The median of `metric` over `runs`, or `None` when no run has it.
fn median(runs: &[&Run], metric: &str) -> Option<f64> {
    let values = runs.iter().flat_map(|r| r.metrics.iter());
    let mut values: Vec<f64> = values
        .filter(|(m, _)| m == metric)
        .map(|(_, v)| *v)
        .collect();
    values.sort_by(f64::total_cmp);
    let high = *values.get(values.len() / 2)?;
    Some((values[(values.len() - 1) / 2] + high) / 2.0)
}

/// `failed / attempted`, each summed over `runs`.
fn failed_share(runs: &[&Run]) -> f64 {
    let sum = |count: fn(&Run) -> f64| runs.iter().map(|r| count(r)).sum::<f64>();
    sum(|r| r.failed) / sum(|r| r.attempted).max(1.0)
}

/// Both sides' values of `what`, or the failure line naming the side that
/// lacks it.
fn both<T>(what: &str, parent: Option<T>, change: Option<T>) -> Result<(T, T), String> {
    match (parent, change) {
        (Some(p), Some(c)) => Ok((p, c)),
        (None, _) => Err(format!("bench_diff: {what} missing on the parent side\n")),
        (_, None) => Err(format!("bench_diff: {what} missing on the change side\n")),
    }
}

/// Checks the change against the parent. `Ok` carries the per-metric
/// report; `Err` carries it followed by every failure.
fn gate(spec: &Spec, parent: &[Run], change: &[Run]) -> Result<String, String> {
    let (mut report, mut failures) = (String::new(), String::new());
    for name in &spec.workloads {
        let what = format!("workload {name}");
        let (p, c) = match both(&what, of(parent, name), of(change, name)) {
            Ok(sides) => sides,
            Err(e) => {
                failures.push_str(&e);
                continue;
            }
        };
        for m in &spec.metrics {
            let what = format!("{name} {}", m.name);
            let (old, new) = match both(&what, median(&p, &m.name), median(&c, &m.name)) {
                Ok(sides) => sides,
                Err(e) => {
                    failures.push_str(&e);
                    continue;
                }
            };
            let line = format!(
                "{what}: {old} -> {new} ({:+.1}%, bound {}%)\n",
                (new - old) / old * 100.0,
                m.bound * 100.0
            );
            report.push_str(&format!("  {line}"));
            // Written so that a NaN median fails.
            let within = if m.lower_is_better {
                new <= old * (1.0 + m.bound)
            } else {
                new >= old * (1.0 - m.bound)
            };
            if !within {
                failures.push_str(&format!("bench_diff: REGRESSION {line}"));
            }
        }
        let (old, new) = (failed_share(&p), failed_share(&c));
        report.push_str(&format!("  {name} failed share: {old} -> {new}\n"));
        if new > old {
            failures.push_str(&format!(
                "bench_diff: REGRESSION {name} failed share: {old} -> {new}\n"
            ));
        }
        let wrong = c.iter().filter(|r| !r.correct).count();
        if wrong > 0 {
            failures.push_str(&format!(
                "bench_diff: {name}: {wrong} change runs gave a wrong answer\n"
            ));
        }
    }
    if failures.is_empty() {
        Ok(report)
    } else {
        Err(report + &failures)
    }
}

/// The value of `key` in a JSON object.
fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Minimal JSON value: what `BENCHMARK.json` and perfbench's result lines
/// need.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

/// Parses one JSON document (float-tolerant, surrounding whitespace
/// allowed; string escapes limited to `\" \\ / n t r`).
fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.ws();
    if p.pos != p.bytes.len() {
        return p.error("trailing content");
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn error<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then consumes `byte` if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        self.ws();
        let next = self.peek() == Some(byte);
        self.pos += usize::from(next);
        next
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        let literals = [
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
            ("null", Value::Null),
        ];
        for (literal, value) in literals {
            if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
                self.pos += literal.len();
                return Ok(value);
            }
        }
        match self.peek() {
            Some(b'{') => self.items(b'}', Self::member).map(Value::Object),
            Some(b'[') => self.items(b']', Self::value).map(Value::Array),
            Some(b'"') => self.string().map(Value::String),
            Some(_) => self.number(),
            None => self.error("unexpected end of input"),
        }
    }

    /// The items of the array or object that opens at the current byte, up
    /// to its `close` byte.
    fn items<T>(
        &mut self,
        close: u8,
        item: fn(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat(close) {
                return Ok(items);
            }
            if !self.eat(b',') {
                return self.error("expected ',' or a closing bracket");
            }
        }
    }

    fn member(&mut self) -> Result<(String, Value), String> {
        let key = self.string()?;
        if !self.eat(b':') {
            return self.error("expected ':'");
        }
        Ok((key, self.value()?))
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Value::Number)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return self.error("expected a string");
        }
        // Bytes are copied as they are, so multi-byte characters of the
        // (valid UTF-8) input stay whole.
        let mut out = Vec::new();
        loop {
            let byte = self.peek().ok_or("unterminated string")?;
            self.pos += 1;
            match byte {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    out.push(match self.peek() {
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        Some(b'r') => b'\r',
                        Some(c @ (b'"' | b'\\' | b'/')) => c,
                        _ => return self.error("unsupported escape"),
                    });
                    self.pos += 1;
                }
                _ => out.push(byte),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_floats_strings_and_nesting() {
        let doc =
            parse(r#"{"a": {"b": [1, 2.5, -3e-2]}, "s": "x\"y\n", "t": true, "n": null}"#).unwrap();
        assert_eq!(field(&doc, "t"), Some(&Value::Bool(true)));
        assert_eq!(field(&doc, "n"), Some(&Value::Null));
        assert_eq!(field(&doc, "s"), Some(&Value::String("x\"y\n".to_string())));
        let b = field(&doc, "a").and_then(|a| field(a, "b")).unwrap();
        let numbers = [1.0, 2.5, -0.03].map(Value::Number).to_vec();
        assert_eq!(b, &Value::Array(numbers));
        assert_eq!(field(b, "0"), None, "arrays have no fields");
        assert!(parse(r#"{"a": 1} x"#).is_err() && parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn parses_the_benchmark_spec() {
        let doc = parse(include_str!("../../../../BENCHMARK.json")).unwrap();
        let spec = Spec::from_json(&doc).unwrap();
        assert_eq!(
            spec.workloads,
            ["serve_exact", "serve_float", "ingest_update"]
        );
        assert_eq!(spec.metrics.len(), 9);
        assert!(spec.metrics.iter().all(|m| m.bound == 0.25));
        let higher = spec.metrics.iter().filter(|m| !m.lower_is_better);
        assert_eq!(
            higher.map(|m| m.name.as_str()).collect::<Vec<_>>(),
            ["throughput_rps"]
        );
    }

    /// A spec over workload `w` with one metric in each direction.
    fn spec() -> Spec {
        let doc = parse(
            r#"{"workloads": [{"name": "w"}], "end_to_end": [
                {"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
                {"name": "throughput_rps", "better": "higher", "bound": 0.25}]}"#,
        );
        Spec::from_json(&doc.unwrap()).unwrap()
    }

    /// One run's standard output, as perfbench prints it.
    fn run(workload: &str, metrics: &[(&str, f64)], attempted: u64, failed: u64) -> String {
        let metrics: String = metrics
            .iter()
            .map(|(m, v)| format!("metric {m} {v} ms\n"))
            .collect();
        format!(
            "workload {workload} seed 1 seconds 2 trace 0 threads 1 nproc 2\n{metrics}# a note\n\
             {{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{\"setup_s\": {{\"value\": 0.0125, \"unit\": \"s\"}}}}}}\n"
        )
    }

    /// Runs of `w` with these (latency, throughput) values.
    fn side(values: &[(f64, f64)]) -> Vec<Run> {
        let metrics = |&(l, t): &(f64, f64)| [("latency_p50_ms", l), ("throughput_rps", t)];
        let text: String = values
            .iter()
            .map(|v| run("w", &metrics(v), 100, 0))
            .collect();
        runs(&text).unwrap()
    }

    #[test]
    fn medians_of_perfbench_output() {
        let latency =
            |v: f64, attempted, failed| run("w", &[("latency_p50_ms", v)], attempted, failed);
        let text = [
            latency(3.0, 10, 1),
            run("v", &[], 5, 0),
            latency(1.0, 10, 0),
            latency(2.5, 20, 0),
            latency(2.0, 10, 0),
        ];
        let parsed = runs(&text.concat()).unwrap();
        let w = of(&parsed, "w").unwrap();
        assert_eq!(median(&w, "latency_p50_ms"), Some(2.25));
        assert_eq!(median(&w, "throughput_rps"), None);
        assert_eq!(failed_share(&w), 1.0 / 50.0);
        assert_eq!(of(&parsed, "u").map(|u| u.len()), None);
        let odd = side(&[(3.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        assert_eq!(median(&of(&odd, "w").unwrap(), "latency_p50_ms"), Some(2.0));
    }

    #[test]
    fn accepts_improvements_and_noise_within_limit() {
        let parent = side(&[(10.0, 100.0), (11.0, 120.0), (9.0, 80.0)]);
        let change = side(&[(12.0, 90.0), (11.5, 200.0), (30.0, 85.0)]);
        let report = gate(&spec(), &parent, &change).unwrap();
        assert!(report.contains("w latency_p50_ms: 10 -> 12 (+20.0%, bound 25%)"));
        assert!(report.contains("w throughput_rps: 100 -> 90 (-10.0%, bound 25%)"));
        assert!(gate(&spec(), &parent, &side(&[(5.0, 300.0)])).is_ok());
    }

    #[test]
    fn exact_boundary_is_not_a_regression() {
        let parent = side(&[(100.0, 100.0); 3]);
        assert!(gate(&spec(), &parent, &side(&[(125.0, 75.0); 3])).is_ok());
    }

    #[test]
    fn rejects_regressions_past_the_limit() {
        let parent = side(&[(100.0, 100.0); 3]);
        let change = side(&[(130.0, 100.0), (131.0, 100.0), (90.0, 100.0)]);
        let failures = gate(&spec(), &parent, &change).unwrap_err();
        assert!(failures.contains("REGRESSION w latency_p50_ms: 100 -> 130 (+30.0%, bound 25%)"));
        assert!(!failures.contains("REGRESSION w throughput_rps"));
    }

    #[test]
    fn rejects_higher_is_better_regressions() {
        let parent = side(&[(100.0, 100.0); 3]);
        let failures = gate(&spec(), &parent, &side(&[(100.0, 74.0); 3])).unwrap_err();
        assert!(failures.contains("REGRESSION w throughput_rps: 100 -> 74 (-26.0%, bound 25%)"));
        assert!(!failures.contains("REGRESSION w latency_p50_ms"));
    }

    #[test]
    fn rejects_missing_workloads_and_metrics() {
        let full = side(&[(100.0, 100.0)]);
        let other = runs(&run("v", &[("latency_p50_ms", 1.0)], 1, 0)).unwrap();
        let partial = runs(&run("w", &[("latency_p50_ms", 100.0)], 1, 0)).unwrap();
        for (parent, change, missing) in [
            (&full, &other, "workload w missing on the change side"),
            (&other, &full, "workload w missing on the parent side"),
            (
                &full,
                &partial,
                "w throughput_rps missing on the change side",
            ),
            (
                &partial,
                &full,
                "w throughput_rps missing on the parent side",
            ),
        ] {
            assert!(gate(&spec(), parent, change).unwrap_err().contains(missing));
        }
    }

    #[test]
    fn rejects_a_rise_in_the_failed_share() {
        let with = |counts: &[(u64, u64)]| {
            let metrics = [("latency_p50_ms", 1.0), ("throughput_rps", 1.0)];
            let text: String = counts
                .iter()
                .map(|&(a, f)| run("w", &metrics, a, f))
                .collect();
            runs(&text).unwrap()
        };
        let parent = with(&[(100, 1), (100, 0)]);
        assert!(gate(&spec(), &parent, &with(&[(300, 1), (100, 0)])).is_ok());
        assert!(gate(&spec(), &parent, &with(&[(200, 1), (200, 1)])).is_ok());
        let failures = gate(&spec(), &parent, &with(&[(200, 2), (200, 1)])).unwrap_err();
        assert!(failures.contains("REGRESSION w failed share: 0.005 -> 0.0075"));
    }

    #[test]
    fn rejects_wrong_answers_and_truncated_logs() {
        let full = run(
            "w",
            &[("latency_p50_ms", 100.0), ("throughput_rps", 100.0)],
            100,
            0,
        );
        let wrong = full.replace("\"correct\": true", "\"correct\": false");
        let change = runs(&format!("{full}{wrong}")).unwrap();
        let failures = gate(&spec(), &side(&[(100.0, 100.0)]), &change).unwrap_err();
        assert!(failures.contains("w: 1 change runs gave a wrong answer"));
        assert!(runs(&full[..full.find('{').unwrap()]).is_err());
        assert!(runs(&format!("metric latency_p50_ms 1 ms\n{full}")).is_err());
        assert!(runs(&format!("{}{full}", &full[..full.find('#').unwrap()])).is_err());
    }
}
