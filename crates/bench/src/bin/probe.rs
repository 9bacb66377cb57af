//! Calibration probe: prints the raw Figure 1/8/9/10/11 inputs for every
//! workload at the chosen scale, for sanity-checking the reproduction
//! against the paper's bands before the figure binaries format them.
//!
//! With `--json`, emits one machine-readable document instead, including
//! the per-phase read-latency breakdown from the observability layer
//! (execution-driven workloads only). Adding `--heatmap` also attaches the
//! topology contention heatmap to each observed run (`base_heatmap` /
//! `with_sd_heatmap`), naming the critical resource per configuration.
//!
//! Usage: `probe [tiny|reduced|paper] [--json [--heatmap]] [--faults SPEC]`.

use dresar_bench::plan::{faulted_plan, find, probe_plan, run_plan, suite, Bench, Run};
use dresar_bench::sweep::SweepRunner;
use dresar_bench::{json_doc, Cli};
use dresar_faults::FaultPlan;
use dresar_obs::{ObserverConfig, DEFAULT_ATTRIB_WINDOW};
use dresar_stats::{percent_of, percent_reduction};
use dresar_types::{JsonValue, ToJson};
use dresar_workloads::Scale;

fn main() {
    let cli = Cli::from_env(Scale::Reduced, &["--json", "--heatmap"], &["--faults"]);
    let scale = cli.scale;
    let benches = suite(scale);
    if let Some(spec) = cli.value("--faults") {
        // A typo'd schedule must never silently run fault-free.
        let plan = FaultPlan::parse(spec).unwrap_or_else(|e| {
            eprintln!("probe: bad fault plan '{spec}': {e}");
            std::process::exit(2);
        });
        run_faulted(scale, &benches, plan, cli.flag("--json"));
        return;
    }
    if cli.flag("--json") {
        emit_json(scale, &benches, cli.flag("--heatmap"));
        return;
    }
    println!("scale = {scale:?}");
    println!(
        "{:8} {:>10} {:>8} {:>8} {:>8} {:>8} | {:>9} {:>9} {:>9} {:>7}",
        "workload",
        "reads",
        "dirty%",
        "homeCC",
        "swCC",
        "sdhit%",
        "lat_base",
        "lat_sd",
        "exec_red%",
        "stall_red%"
    );
    let runs = run_plan(probe_plan(&benches, ObserverConfig::default()), SweepRunner::from_env());
    for b in &benches {
        let (base_run, with_run) = pair(&runs, b);
        let (base, with) = (base_run.metrics(), with_run.metrics());
        let dirty_pct = 100.0 * base.reads.dirty_fraction();
        let sd_serve_pct = percent_of(with.reads.ctoc_switch as f64, with.reads.dirty() as f64);
        let exec_red = percent_reduction(base.exec(), with.exec());
        let stall_red = percent_reduction(base.read_stall(), with.read_stall());
        let cc_red = percent_reduction(base.home_ctoc(), with.home_ctoc());
        println!(
            "{:8} {:>10} {:>7.1}% {:>8} {:>8} {:>7.1}% | {:>9.1} {:>9.1} {:>8.2}% {:>8.2}%  ccred={:.1}%  ({:.1}s)",
            b.label,
            base.reads.total(),
            dirty_pct,
            with.reads.ctoc_home,
            with.reads.ctoc_switch,
            sd_serve_pct,
            base.avg_read_latency(),
            with.avg_read_latency(),
            exec_red,
            stall_red,
            cc_red,
            base_run.wall_seconds + with_run.wall_seconds,
        );
    }
}

/// A bench's `(base, sd1024)` runs.
fn pair<'a>(runs: &'a [Run], b: &Bench) -> (&'a Run, &'a Run) {
    (find(runs, &format!("{}.base", b.label)), find(runs, &format!("{}.sd1024", b.label)))
}

/// `--faults <plan>`: runs every execution-driven workload (sd1024) under
/// the plan and prints what the injector did, the watchdog verdict, and the
/// end-of-run coherence audit. With `--json`, emits one document instead.
fn run_faulted(scale: Scale, benches: &[Bench], plan: FaultPlan, json: bool) {
    let runs = run_plan(faulted_plan(benches, plan), SweepRunner::from_env());
    let reports: Vec<_> = benches
        .iter()
        .filter(|b| b.is_execution())
        .map(|b| {
            let run = find(&runs, &format!("{}.faulted", b.label));
            (b.label, run.execution().expect("faulted runs are execution-driven"))
        })
        .collect();
    if json {
        let workloads: Vec<JsonValue> = reports
            .iter()
            .map(|(label, r)| {
                JsonValue::obj().field("label", *label).field("report", r.to_json()).build()
            })
            .collect();
        let doc = json_doc("probe-faults")
            .field("scale", format!("{scale:?}"))
            .field("workloads", workloads)
            .build();
        println!("{}", doc.dump());
        return;
    }
    println!("scale = {scale:?}  (fault-injected; sd1024)");
    println!(
        "{:8} {:>10} {:>8} {:>8} {:>8} {:>8} {:>10} {:>10}",
        "workload", "cycles", "dropped", "retrans", "lost", "scrubbed", "watchdog", "coherence"
    );
    for (label, r) in &reports {
        let f = r.faults.unwrap_or_default();
        let wd = r.watchdog.as_ref().map_or("-", |w| w.kind.label());
        let coh = r.coherence.as_ref().map_or("-", |c| if c.ok() { "ok" } else { "VIOLATED" });
        println!(
            "{:8} {:>10} {:>8} {:>8} {:>8} {:>8} {:>10} {:>10}",
            label, r.cycles, f.dropped, f.retransmissions, f.lost, f.scrubbed, wd, coh
        );
    }
}

fn emit_json(scale: Scale, benches: &[Bench], heatmap: bool) {
    let observers = ObserverConfig {
        latency_breakdown: true,
        heatmap_window: heatmap.then_some(DEFAULT_ATTRIB_WINDOW),
        ..Default::default()
    };
    let runs = run_plan(probe_plan(benches, observers), SweepRunner::from_env());
    let workloads: Vec<JsonValue> = benches
        .iter()
        .map(|b| {
            let (base_run, with_run) = pair(&runs, b);
            let (base, with) = (base_run.metrics(), with_run.metrics());
            let mut w = JsonValue::obj()
                .field("label", b.label)
                .field("base", base.to_json())
                .field("with_sd", with.to_json())
                .field(
                    "reductions",
                    JsonValue::obj()
                        .field(
                            "home_ctoc_pct",
                            percent_reduction(base.home_ctoc(), with.home_ctoc()),
                        )
                        .field(
                            "avg_read_latency_pct",
                            percent_reduction(base.avg_read_latency(), with.avg_read_latency()),
                        )
                        .field(
                            "read_stall_pct",
                            percent_reduction(base.read_stall(), with.read_stall()),
                        )
                        .field("exec_pct", percent_reduction(base.exec(), with.exec()))
                        .build(),
                );
            for (key, run) in [("base_breakdown", base_run), ("with_sd_breakdown", with_run)] {
                if let Some(bd) = run.obs().and_then(|o| o.breakdown.as_ref()) {
                    w = w.field(key, bd.to_json());
                }
            }
            for (key, run) in [("base_heatmap", base_run), ("with_sd_heatmap", with_run)] {
                if let Some(hm) = run.obs().and_then(|o| o.heatmap.as_ref()) {
                    w = w.field(key, hm.to_json());
                }
            }
            w.build()
        })
        .collect();
    let doc = json_doc("probe")
        .field("scale", format!("{scale:?}"))
        .field("workloads", workloads)
        .build();
    println!("{}", doc.dump());
}
