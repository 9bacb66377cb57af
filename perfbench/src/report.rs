//! The benchmark's metric vocabulary and its output.
//!
//! Every invocation prints a human-readable table and then, as its last
//! line, one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! Untraced, `metrics` holds every [`END_TO_END`] metric; traced, every
//! [`PER_LAYER`] metric. A metric a workload does not exercise reads 0.

/// End-to-end metrics: `(name, unit)`. Each is defined on every workload.
pub const END_TO_END: [(&str, &str); 4] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"), ("work_per_s", "1/s")];

/// Per-layer metrics of the traced invocation: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("workloads.gen_s", "s"),
    ("workloads.refs", "count"),
    ("core.build_s", "s"),
    ("proc.refs_executed", "count"),
    ("core.proc_self_pct", "%"),
    ("engine.events", "count"),
    ("engine.queue_peak", "count"),
    ("engine.ns_per_event", "ns/event"),
    ("net.messages", "count"),
    ("net.flits", "count"),
    ("net.link_stall_cycles", "cycles"),
    ("interconnect.self_pct", "%"),
    ("interconnect.ns_per_msg", "ns/msg"),
    ("sd.snoops", "count"),
    ("sd.read_hits", "count"),
    ("sd.hit_ratio", "ratio"),
    ("sd.evictions", "count"),
    ("switchdir.self_pct", "%"),
    ("switchdir.ns_per_snoop", "ns/snoop"),
    ("home.lookups", "count"),
    ("home.naks", "count"),
    ("home.nak_ratio", "ratio"),
    ("reads.retries", "count"),
    ("home.ctrl.stall_cycles", "cycles"),
    ("lat.retry_wait_pct", "%"),
    ("directory.self_pct", "%"),
    ("directory.ns_per_lookup", "ns/lookup"),
    ("cache.read_misses", "count"),
    ("cache.l1_read_hits", "count"),
    ("cache.ctoc_serves", "count"),
    ("cache.fills", "count"),
    ("reads.ctoc_switch", "count"),
    ("reads.ctoc_home", "count"),
    ("cache.self_pct", "%"),
    ("obs.flight_overhead_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.sampled_events", "count"),
    ("tracesim.refs", "count"),
    ("tracesim.run_s", "s"),
    ("tracesim.ns_per_ref", "ns/ref"),
    ("trace_refs_per_s", "ref/s"),
    ("sim_msgs_per_s", "msg/s"),
    ("sim_cycles", "cycles"),
    ("sd_read_latency_reduction_pct", "%"),
    ("sd_exec_reduction_pct", "%"),
    ("server.start_s", "s"),
    ("server.hit_ratio", "ratio"),
    ("server.queue_us_p50", "us"),
    ("server.exec_us_p50", "us"),
    ("server.outside_us_p50", "us"),
    ("server.outside_us_p95", "us"),
    ("serve_hit_p50_ms", "ms"),
    ("serve_hit_p95_ms", "ms"),
    ("serve_hit_tail_ms", "ms"),
    ("serve_hit_tail_pct", "%"),
    ("serve_hit_samples", "count"),
    ("serve_miss_p50_ms", "ms"),
    ("serve_miss_samples", "count"),
    ("serve_rps", "req/s"),
    ("ops_failed_frac", "ratio"),
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

impl Metric {
    /// A metric; non-finite values (an empty ratio) and -0 read 0.
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        Metric { name: name.to_string(), value, unit: unit.to_string() }
    }
}

/// Everything one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: simulated runs, or requests.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    e2e: Vec<Metric>,
    layers: Vec<Metric>,
    info: Vec<Metric>,
}

impl Outcome {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, m: Metric) {
        self.e2e.push(m);
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, m: Metric) {
        self.layers.push(m);
    }

    /// Records a figure shown in the table but not in the JSON line.
    pub fn info(&mut self, m: Metric) {
        self.info.push(m);
    }

    /// Failed operations over attempted ones.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The metrics of the JSON line: every name in `schema`, in order, 0
    /// for those this workload did not record.
    ///
    /// # Panics
    /// Panics if a recorded metric is not in `schema` or has another unit
    /// there: the schema is the contract the output is checked against.
    pub fn select(&self, traced: bool) -> Vec<Metric> {
        let (schema, recorded): (&[(&str, &str)], &[Metric]) =
            if traced { (&PER_LAYER, &self.layers) } else { (&END_TO_END, &self.e2e) };
        for m in recorded {
            assert!(
                schema.iter().any(|&(n, u)| n == m.name && u == m.unit),
                "metric {} [{}] is not in the schema",
                m.name,
                m.unit
            );
        }
        schema
            .iter()
            .map(|&(name, unit)| {
                recorded
                    .iter()
                    .rev()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or_else(|| Metric::new(name, 0.0, unit))
            })
            .collect()
    }

    /// The human-readable table: the JSON line's metrics plus the extra
    /// figures, one per line.
    pub fn table(&self, traced: bool) -> String {
        let selected = self.select(traced);
        let extra = self.info.iter().filter(|i| selected.iter().all(|m| m.name != i.name));
        let mut s = String::new();
        for m in selected.iter().chain(extra) {
            s.push_str(&format!("{:<32} {:>18.6} {}\n", m.name, m.value, m.unit));
        }
        s
    }

    /// The JSON result line.
    pub fn json_line(&self, traced: bool) -> String {
        let metrics: Vec<String> = self
            .select(traced)
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dresar_types::JsonValue;

    /// The benchmark's declared metrics (`BENCHMARK.json` at the repository
    /// root) must be exactly the ones the program emits, with the same
    /// units.
    #[test]
    fn schema_matches_the_benchmark_declaration() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(JsonValue::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn json_line_lists_every_schema_metric() {
        let mut o = Outcome { attempted: 3, ..Outcome::default() };
        o.e2e(Metric::new("wall_s", 1.25, "s"));
        let line = o.json_line(false);
        let doc = JsonValue::parse(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(JsonValue::as_bool), Some(true));
        let metrics = doc.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some(unit));
        }
        let wall = metrics.get("wall_s").and_then(|m| m.get("value")).and_then(JsonValue::as_f64);
        assert_eq!(wall, Some(1.25));
        o.failed = 1;
        assert!(o.json_line(false).starts_with("{\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "not in the schema")]
    fn unknown_metrics_are_refused() {
        let mut o = Outcome::default();
        o.layer(Metric::new("made.up", 1.0, "count"));
        o.select(true);
    }
}
