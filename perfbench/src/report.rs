//! Metric collection, the declared metric sets, host metadata, and the
//! result line.

use std::fmt::Write as _;

/// End-to-end metrics and units, printed by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("bfs_mteps", "MTEPS"),
    ("sssp_mteps", "MTEPS"),
    ("cc_ms", "ms"),
    ("pagerank_ms", "ms"),
    ("goodput_rps", "1/s"),
];

/// Per-layer metrics and units, printed by every workload with tracing on.
/// A layer that a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("io.mm_read_s", "s"),
    ("graph.build_s", "s"),
    ("io.esnc_open_ms", "ms"),
    ("serve.engine_new_ms", "ms"),
    ("graph.topology_bytes_per_edge", "B"),
    ("algos.bfs.work", "count"),
    ("algos.bfs.work_spread", "ratio"),
    ("algos.bfs.iterations", "count"),
    ("algos.bfs.self_ms", "ms"),
    ("algos.sssp.work", "count"),
    ("algos.sssp.work_spread", "ratio"),
    ("algos.sssp.iterations", "count"),
    ("algos.sssp.self_ms", "ms"),
    ("algos.cc.work", "count"),
    ("algos.cc.work_spread", "ratio"),
    ("algos.cc.iterations", "count"),
    ("algos.cc.self_ms", "ms"),
    ("algos.pagerank.work", "count"),
    ("algos.pagerank.work_spread", "ratio"),
    ("algos.pagerank.iterations", "count"),
    ("algos.pagerank.self_ms", "ms"),
    ("core.enactor.bfs.iter_us_p50", "us"),
    ("core.enactor.sssp.iter_us_p50", "us"),
    ("core.enactor.cc.iter_us_p50", "us"),
    ("core.enactor.pagerank.iter_us_p50", "us"),
    ("parallel.region_us_p50", "us"),
    ("core.push.edges", "count"),
    ("core.pull.edges", "count"),
    ("core.direction.pull_share", "ratio"),
    ("core.direction.switches", "count"),
    ("core.advance.useful_ratio", "ratio"),
    ("core.advance.dedup_ratio", "ratio"),
    ("core.advance.skew", "ratio"),
    ("core.filter.drop_ratio", "ratio"),
    ("graph.ccsr.decode_meps", "Medge/s"),
    ("graph.csr.scan_meps", "Medge/s"),
    ("serve.probe_p50_ms", "ms"),
    ("serve.probe_p99_ms", "ms"),
    ("serve.heavy_p50_ms", "ms"),
    ("serve.admission.queue_ms_p50", "ms"),
    ("serve.admission.queue_ms_p99", "ms"),
    ("serve.service_ms_p50.bfs", "ms"),
    ("serve.service_ms_p50.bfs-batch", "ms"),
    ("serve.service_ms_p50.pagerank", "ms"),
    ("serve.shed_share", "ratio"),
    ("serve.degraded_share", "ratio"),
    ("serve.quarantined_total", "count"),
    ("bench.send_lag_ms_p99", "ms"),
    ("bench.trace_overhead_share", "ratio"),
    ("bench.failed_share", "ratio"),
];

/// Named values with units, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if let Some(slot) = self.0.iter_mut().find(|(n, _, _)| *n == name) {
            *slot = (name, value, unit);
        } else {
            self.0.push((name, value, unit));
        }
    }

    /// Keeps exactly the declared metrics, in their order and with their
    /// units, filling a missing one with 0 (a layer the workload does not
    /// exercise).
    pub fn select(&self, declared: &[(&str, &'static str)]) -> Metrics {
        Metrics(
            declared
                .iter()
                .map(|&(n, unit)| {
                    let v = self.0.iter().find(|(m, _, _)| m == n).map_or(0.0, |m| m.1);
                    (n.to_string(), v, unit)
                })
                .collect(),
        )
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }
}

/// The result of one workload run.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Outputs that failed their check; any makes the run incorrect.
    pub mismatches: Vec<String>,
    /// Probes the probe latencies are over.
    pub probes: usize,
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values (which JSON cannot hold) become 0.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".into()
    }
}

/// Escapes a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                num(*v),
                json_str(u)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A flat JSON object of string fields (host metadata).
pub fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one section of `BENCHMARK.json`, the
    /// benchmark's declaration of its metrics.
    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let rest = &text[start..];
        let end = rest.find(']').expect("section closes");
        let field = |entry: &str, key: &str| {
            let at = entry.find(&format!("\"{key}\"")).expect("key present");
            entry[at + key.len() + 2..]
                .split('"')
                .nth(1)
                .expect("quoted value")
                .to_string()
        };
        rest[..end]
            .split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    fn owned(xs: &[(&str, &str)]) -> Vec<(String, String)> {
        xs.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn declared_metric_sets_match_the_benchmark_file() {
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn select_orders_and_fills() {
        let mut m = Metrics::default();
        m.put("b", 2.0, "s");
        m.put("a", 1.0, "ms");
        m.put("a", 1.5, "ms");
        let s = m.select(&[("a", "ms"), ("c", "s")]);
        let v: Vec<_> = s.iter().map(|(n, v, u)| (n.clone(), *v, *u)).collect();
        assert_eq!(
            v,
            vec![("a".to_string(), 1.5, "ms"), ("c".to_string(), 0.0, "s")]
        );
    }

    #[test]
    fn result_line_is_one_json_object_with_full_digits() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.203_456_789_012_3, "ms");
        let line = result_line(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.2034567890123, \"unit\": \"ms\"}}}"
        );
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }
}
