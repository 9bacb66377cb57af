//! `bench_report` — the repo's standard telemetry run and regression gate.
//!
//! Runs the figure/ablation configurations (base and 1K-entry switch
//! directory per workload) plus a deterministic crossbar validation batch,
//! and writes one schema-versioned document, `BENCH_dresar.json`, holding
//! each run's component-metrics registry. Everything in `runs` is a
//! deterministic simulation counter: two same-seed invocations produce
//! byte-identical `runs` sections. The `host` section (wall-clock phases,
//! simulated cycles/sec, peak RSS) is measured on the host and therefore
//! nondeterministic; it is recorded for humans and never compared.
//!
//! Usage:
//!
//! ```text
//! bench_report [tiny|reduced|paper] [--out PATH] [--heatmap PATH]
//!              [--scaling PATH] [--protocols PATH]
//!              [--baseline PATH [--tolerance PCT] [--informational]]
//! ```
//!
//! With `--scaling`, the machine-size sweep (16/64/256-node radix-4 BMINs,
//! base and two switch-directory sizes, two workloads) runs and its figure
//! is written as a markdown document: raw counters, the derived
//! latency-reduction table, and a bar chart of the largest-SD benefit per
//! machine size. The sweep runs inside the host-profiler window, so the
//! main document's `host.profile` (and its VmHWM peak) covers the 256-node
//! machines — the CI scaling leg gates on that number. The figure itself
//! contains only deterministic counters and is byte-identical across
//! sweep thread counts.
//!
//! With `--protocols`, the coherence-protocol ablation (MSI, MESI, MOESI
//! and the directoryless-shared-LLC baseline, each at base and two
//! switch-directory sizes, two workloads, the paper's 16-node machine)
//! runs and its figure is written as a markdown document: raw counters and
//! the per-protocol latency-reduction table, including cycles saved per
//! switch-served cache-to-cache read. Every run is audited by the
//! per-protocol coherence checker; the figure is byte-identical across
//! sweep thread counts.
//!
//! With `--heatmap`, a second schema-versioned document is written holding
//! the topology contention heatmap sweep: every execution-driven workload
//! at base and sd1024, each run carrying its metrics, per-phase latency
//! breakdown and per-resource contention attribution (the input format of
//! `dresar_diff`). Like `runs`, the heatmap document is byte-identical
//! across thread counts.
//!
//! With `--baseline`, the freshly produced registries are diffed scalar-by-
//! scalar against the baseline document. Any scalar whose relative change
//! exceeds the tolerance (percent, default 0 — exact match) is a
//! regression: they are listed on stderr and the process exits nonzero,
//! unless `--informational` downgrades the gate to reporting only (the
//! mode CI uses on pull requests).

use dresar_bench::benefit::{render_benefit, Grouping};
use dresar_bench::plan::{
    heatmap_plan, protocol_plan, run_plan, scaling_plan, standard_runs, suite, SCALING_POINTS,
};
use dresar_bench::sweep::SweepRunner;
use dresar_bench::{heatmap_json, json_doc, Cli};
use dresar_obs::{HostProfiler, MetricsRegistry};
use dresar_types::{FromJson, JsonValue, Protocol, ToJson, SCHEMA_VERSION};
use dresar_workloads::Scale;
use std::process::ExitCode;

fn total_sim_cycles(runs: &[(String, MetricsRegistry)]) -> u64 {
    use dresar_obs::MetricValue;
    runs.iter()
        .flat_map(|(_, m)| [m.get("sim.cycles"), m.get("trace.exec_cycles")])
        .filter_map(|v| match v {
            Some(MetricValue::Counter(c)) => Some(*c),
            _ => None,
        })
        .sum()
}

/// Parses the `runs` array of a `bench_report` document into name→registry.
fn parse_runs(doc: &JsonValue) -> Result<Vec<(String, MetricsRegistry)>, String> {
    if let Some(v) = doc.get("schema_version").and_then(JsonValue::as_u64) {
        if v != SCHEMA_VERSION as u64 {
            eprintln!(
                "bench_report: note: baseline schema_version {v} differs from current \
                 {SCHEMA_VERSION}; comparing anyway"
            );
        }
    }
    let Some(JsonValue::Arr(runs)) = doc.get("runs") else {
        return Err("document has no `runs` array".into());
    };
    runs.iter()
        .map(|r| {
            let name = r
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("run entry missing `name`")?
                .to_string();
            let metrics = r.get("metrics").ok_or("run entry missing `metrics`")?;
            let reg =
                MetricsRegistry::from_json(metrics).map_err(|e| format!("run '{name}': {e}"))?;
            Ok((name, reg))
        })
        .collect()
}

/// Compares current runs against a baseline document. Returns the number of
/// regressions (scalar changes beyond tolerance, plus whole runs that
/// appeared or disappeared).
fn compare(
    current: &[(String, MetricsRegistry)],
    baseline: &[(String, MetricsRegistry)],
    tolerance_pct: f64,
) -> usize {
    let tol = tolerance_pct / 100.0;
    let mut regressions = 0usize;
    for (name, base_reg) in baseline {
        let Some((_, cur)) = current.iter().find(|(n, _)| n == name) else {
            eprintln!("REGRESSION {name}: run present in baseline but not produced");
            regressions += 1;
            continue;
        };
        for d in cur.diff(base_reg) {
            let rel = d.rel_change();
            if rel.abs() > tol {
                eprintln!(
                    "REGRESSION {name}/{}: baseline {:?} -> current {:?} ({:+.2}%)",
                    d.name,
                    d.baseline,
                    d.current,
                    rel * 100.0
                );
                regressions += 1;
            }
        }
    }
    for (name, _) in current {
        if !baseline.iter().any(|(n, _)| n == name) {
            eprintln!("REGRESSION {name}: run not present in baseline (record a new one)");
            regressions += 1;
        }
    }
    regressions
}

/// Writes `text` to `path`, reporting a failure as exit status 2.
fn write_out(path: &str, text: &str) -> Result<(), ExitCode> {
    std::fs::write(path, text).map_err(|e| {
        eprintln!("bench_report: cannot write {path}: {e}");
        ExitCode::from(2)
    })
}

fn main() -> ExitCode {
    match report() {
        Ok(code) | Err(code) => code,
    }
}

fn report() -> Result<ExitCode, ExitCode> {
    let cli = Cli::from_env(
        Scale::Tiny,
        &["--informational"],
        &["--out", "--heatmap", "--scaling", "--protocols", "--baseline", "--tolerance"],
    );
    let scale = cli.scale;
    let out = cli.value("--out").unwrap_or("BENCH_dresar.json");
    let tolerance_pct: f64 = match cli.value("--tolerance") {
        None => 0.0,
        Some(v) => v.parse().map_err(|_| {
            eprintln!("bench_report: bad tolerance '{v}': expected a number");
            ExitCode::from(2)
        })?,
    };
    let runner = SweepRunner::from_env();

    let mut prof = HostProfiler::new();
    prof.phase("sweep");
    let benches = suite(scale);
    let runs = standard_runs(&benches, runner);
    // The scaling sweep runs inside the profiled window on purpose: its
    // 256-node machines dominate peak RSS, and the CI scaling leg gates on
    // the `host.profile` VmHWM this run records.
    let mut figures = Vec::new();
    if let Some(path) = cli.value("--scaling") {
        prof.phase("scaling");
        let runs = run_plan(scaling_plan(&SCALING_POINTS, scale), runner);
        figures.push((Grouping::MachineSize, path, runs));
    }
    if let Some(path) = cli.value("--protocols") {
        prof.phase("protocols");
        let runs = run_plan(protocol_plan(&Protocol::ALL, scale), runner);
        figures.push((Grouping::Protocol, path, runs));
    }
    prof.phase("report");
    for r in runs.iter().chain(figures.iter().flat_map(|(_, _, runs)| runs)) {
        prof.run_timing(&r.name, r.wall_seconds);
    }
    let registries: Vec<(String, MetricsRegistry)> =
        runs.iter().map(|r| (r.name.clone(), r.registry())).collect();
    let sim_cycles = total_sim_cycles(&registries);

    let runs_json: Vec<JsonValue> = registries
        .iter()
        .map(|(name, m)| {
            JsonValue::obj().field("name", name.as_str()).field("metrics", m.to_json()).build()
        })
        .collect();
    let host = prof.finish();
    // Only the standard suite's phase simulated the cycles counted here.
    let cycles_per_sec = host.cycles_per_sec("sweep", sim_cycles);
    let doc = json_doc("bench_report")
        .field("scale", format!("{scale:?}"))
        .field("runs", runs_json)
        .field(
            "host",
            JsonValue::obj()
                .field("profile", host.to_json())
                .field("simulated_cycles", sim_cycles)
                .field("cycles_per_sec", cycles_per_sec)
                .build(),
        )
        .build();
    write_out(out, &format!("{}\n", doc.dump()))?;
    println!(
        "bench_report: {} runs at scale {scale:?} -> {out} ({sim_cycles} simulated cycles, \
         {cycles_per_sec:.0} cycles/sec)",
        runs.len(),
    );

    for (g, path, runs) in &figures {
        write_out(path, &render_benefit(*g, scale, runs))?;
        let kind = match g {
            Grouping::MachineSize => "scaling",
            Grouping::Protocol => "protocol",
        };
        println!("bench_report: {} {kind} runs -> {path}", runs.len());
    }

    if let Some(hm_path) = cli.value("--heatmap") {
        let hm_runs = run_plan(heatmap_plan(&benches), runner);
        let hm_doc = json_doc("heatmap")
            .field("scale", format!("{scale:?}"))
            .field("runs", hm_runs.iter().map(heatmap_json).collect::<Vec<_>>())
            .build();
        write_out(hm_path, &format!("{}\n", hm_doc.dump()))?;
        let critical = hm_runs
            .iter()
            .filter_map(|r| {
                let hm = r.obs()?.heatmap.as_ref()?;
                Some((&r.name, hm.critical.as_ref()?))
            })
            .max_by(|a, b| a.1.utilization.total_cmp(&b.1.utilization));
        match critical {
            Some((name, c)) => println!(
                "bench_report: {} heatmap runs -> {hm_path} (hottest: {name} {} at {:.1}%)",
                hm_runs.len(),
                c.resource,
                100.0 * c.utilization
            ),
            None => println!("bench_report: {} heatmap runs -> {hm_path}", hm_runs.len()),
        }
    }

    let Some(baseline_path) = cli.value("--baseline") else {
        return Ok(ExitCode::SUCCESS);
    };
    let baseline = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read {baseline_path}: {e}"))
        .and_then(|s| {
            JsonValue::parse(&s).map_err(|e| format!("cannot parse {baseline_path}: {e}"))
        })
        .and_then(|doc| parse_runs(&doc))
        .map_err(|e| {
            eprintln!("bench_report: {e}");
            ExitCode::from(2)
        })?;
    let regressions = compare(&registries, &baseline, tolerance_pct);
    if regressions == 0 {
        println!("bench_report: 0 regressions vs {baseline_path} (tolerance {tolerance_pct}%)");
        return Ok(ExitCode::SUCCESS);
    }
    eprintln!(
        "bench_report: {regressions} regression(s) vs {baseline_path} (tolerance {tolerance_pct}%)"
    );
    if cli.flag("--informational") {
        eprintln!("bench_report: informational mode, not failing");
        return Ok(ExitCode::SUCCESS);
    }
    Ok(ExitCode::FAILURE)
}
