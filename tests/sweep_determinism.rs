//! Tier-1 guarantees for the run plan and the figures built on it.
//!
//! 1. Every plan family's output is **byte-identical** between a serial and
//!    a parallel runner — the property that lets `BENCH_dresar.json` and the
//!    committed figures stay under exact-match gates while being produced on
//!    however many cores the host has.
//! 2. The committed tiny-scale artifacts regenerate byte-identically: the
//!    `runs` section of `BENCH_dresar.json` and `FIG_protocols.md`.
//! 3. Every gauge in every produced registry satisfies `current <= peak`.
//!    Both sides now use the same merge scope (max across instances); a
//!    summed current against a maxed peak once let `current > peak` into
//!    committed telemetry.
//! 4. Writebacks cross-check: a capacity-exceeding workload produces
//!    writebacks, and the cache-side and network-side counts agree. (At
//!    `Scale::Tiny` the per-node footprint fits in the 128 KB L2, so the
//!    committed baseline legitimately reports zero.)

use dresar_bench::benefit::{render_benefit, Grouping};
use dresar_bench::heatmap_json;
use dresar_bench::plan::{
    ablation_plan, ablation_workloads, faulted_plan, heatmap_plan, probe_plan, protocol_plan,
    run_plan, scaling_plan, size_plan, standard_runs, suite, Run,
};
use dresar_bench::sweep::SweepRunner;
use dresar_faults::FaultPlan;
use dresar_obs::{MetricValue, ObserverConfig};
use dresar_types::{JsonValue, Protocol, ToJson};
use dresar_workloads::Scale;

fn parallel() -> SweepRunner {
    SweepRunner::with_threads(4)
}

/// The `runs` array exactly as `bench_report` writes it.
fn runs_json(runs: &[Run]) -> String {
    let arr: Vec<JsonValue> = runs
        .iter()
        .map(|r| {
            JsonValue::obj()
                .field("name", r.name.as_str())
                .field("metrics", r.registry().to_json())
                .build()
        })
        .collect();
    JsonValue::Arr(arr).dump()
}

/// Everything a run reported: its registry plus the full execution report
/// (observer payloads included) or the trace-driven figure metrics.
fn full_dump(runs: &[Run]) -> String {
    let arr: Vec<JsonValue> = runs
        .iter()
        .map(|r| {
            let report = r.execution().map_or_else(|| r.metrics().to_json(), ToJson::to_json);
            JsonValue::obj()
                .field("name", r.name.as_str())
                .field("registry", r.registry().to_json())
                .field("report", report)
                .build()
        })
        .collect();
    JsonValue::Arr(arr).dump()
}

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let benches = suite(Scale::Tiny);
    let serial = runs_json(&standard_runs(&benches, SweepRunner::serial()));
    let parallel = runs_json(&standard_runs(&benches, parallel()));
    assert_eq!(serial, parallel, "parallel sweep output diverged from serial");
    // The degraded runs depend on the sd1024 cycle counts, so a real
    // document came out of both paths, not two identical empties.
    assert!(serial.contains("FFT.sd-degraded"), "expected full run set, got: {serial}");
    let committed = include_str!("../BENCH_dresar.json");
    assert!(
        committed.contains(&format!("\"runs\":{serial},\"host\":")),
        "tiny runs no longer regenerate BENCH_dresar.json byte-identically"
    );
}

#[test]
fn heatmap_sweep_is_byte_identical_to_serial() {
    let doc = |runner| {
        let runs = run_plan(heatmap_plan(&suite(Scale::Tiny)), runner);
        JsonValue::Arr(runs.iter().map(heatmap_json).collect()).dump()
    };
    let serial = doc(SweepRunner::serial());
    let parallel = doc(parallel());
    assert_eq!(serial, parallel, "parallel heatmap sweep diverged from serial");
    // Execution-driven workloads at both configurations, each naming a
    // critical resource — a real attribution came out of both paths.
    assert!(serial.contains("FFT.base") && serial.contains("FFT.sd1024"), "{serial}");
    assert!(serial.contains("\"critical\":{\"resource\":"), "no critical resource: {serial}");
    assert!(!serial.contains("TPC-C"), "trace-driven workloads have no topology to attribute");
}

#[test]
fn protocol_figure_regenerates_byte_identically_serial_and_parallel() {
    let plan = protocol_plan(&Protocol::ALL, Scale::Tiny);
    let serial = run_plan(plan.clone(), SweepRunner::serial());
    let parallel = run_plan(plan, parallel());
    // Every run's full report, not just the columns the figure shows.
    assert_eq!(full_dump(&serial), full_dump(&parallel), "parallel protocol runs diverged");
    let figure = render_benefit(Grouping::Protocol, Scale::Tiny, &serial);
    assert_eq!(figure, include_str!("../FIG_protocols.md"), "FIG_protocols.md is stale");
}

#[test]
fn every_other_plan_family_is_byte_identical_serial_vs_parallel() {
    let benches = suite(Scale::Tiny);
    let observed = ObserverConfig { latency_breakdown: true, ..ObserverConfig::default() };
    let faults = FaultPlan { seed: 7, drop_ppm: 2000, disable_at: 40_000, ..FaultPlan::default() };
    let plans = [
        ("size", size_plan(&benches)),
        ("probe", probe_plan(&benches, observed)),
        ("faulted", faulted_plan(&benches, faults)),
        // The 256-node point is left to the CI scaling leg, which checks
        // the full ladder serial against parallel at reduced scale.
        ("scaling", scaling_plan(&[(16, 4), (64, 4)], Scale::Tiny)),
        ("ablations", ablation_plan(&ablation_workloads(Scale::Tiny))),
    ];
    for (family, plan) in plans {
        let serial = full_dump(&run_plan(plan.clone(), SweepRunner::serial()));
        let parallel = full_dump(&run_plan(plan, parallel()));
        assert!(serial.len() > 100, "{family}: empty plan");
        assert_eq!(serial, parallel, "{family}: parallel runs diverged from serial");
    }
}

#[test]
fn every_gauge_reports_current_at_most_peak() {
    let runs = standard_runs(&suite(Scale::Tiny), SweepRunner::from_env());
    let mut gauges = 0usize;
    for r in &runs {
        for (name, v) in r.registry().iter() {
            if let MetricValue::Gauge { current, peak } = v {
                gauges += 1;
                assert!(
                    current <= peak,
                    "{}/{name}: gauge current {current} > peak {peak}",
                    r.name
                );
            }
        }
    }
    assert!(gauges > 0, "expected gauges in the standard run set");
}

#[test]
fn capacity_pressure_produces_matching_writeback_counts() {
    use dresar::system::{RunOptions, System};
    use dresar_types::config::SystemConfig;
    use dresar_types::{StreamItem, Workload};

    // Shrink the caches so each stream's footprint exceeds its L2 (4x as
    // many distinct lines as the cache holds).
    let mut cfg = SystemConfig::paper_table2();
    cfg.l1.size_bytes = 1024;
    cfg.l2.size_bytes = 2048;
    cfg.switch_dir = None;
    let line = cfg.l2.line_bytes;
    let lines = cfg.l2.size_bytes / cfg.l2.line_bytes;
    let streams: Vec<Vec<StreamItem>> = (0..4u64)
        .map(|p| (0..4 * lines).map(|i| StreamItem::write(p * 0x10_0000 + i * line, 1)).collect())
        .collect();
    let w = Workload { name: "capacity".into(), streams };
    let report = System::new(cfg, &w).run(RunOptions::default());
    let cache_wb = report
        .metrics
        .get("cache.writebacks")
        .and_then(|v| match v {
            MetricValue::Counter(c) => Some(*c),
            _ => None,
        })
        .expect("cache.writebacks counter");
    let net_wb = report
        .metrics
        .get("net.writebacks")
        .and_then(|v| match v {
            MetricValue::Counter(c) => Some(*c),
            _ => None,
        })
        .expect("net.writebacks counter");
    assert!(cache_wb > 0, "capacity-exceeding workload produced no writebacks");
    assert_eq!(cache_wb, net_wb, "cache evictions and writeback messages disagree");
}
