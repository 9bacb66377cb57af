//! The batch workloads, `paper16` and `scale256`: generate reference
//! streams, build each machine, run it, and check every output.
//!
//! Every layer is timed from outside, around the public calls: the
//! `dresar_workloads` generators, `System::new` / `TraceSimulator::new`,
//! `System::run` / `System::run_probed` and `TraceSimulator::run`.

use crate::layers::{Layer, LayerProbe, LayerTimes};
use crate::report::{Metric, Outcome};
use crate::stats::{fits, median, pct, ratio};
use dresar::system::{ExecutionReport, RunOptions, System};
use dresar_faults::WatchdogConfig;
use dresar_obs::{MetricValue, MetricsRegistry, ObserverConfig, PHASES};
use dresar_stats::percent_reduction;
use dresar_trace_sim::TraceSimulator;
use dresar_types::config::{SwitchDirConfig, SystemConfig, TraceSimConfig};
use dresar_types::{ToJson, Workload};
use dresar_workloads::{commercial_suite, scientific, scientific_suite, Scale};
use std::time::Instant;

/// One event in this many is timed in the traced pass.
pub const SAMPLE_EVERY: u64 = 64;

/// Set-up is repeated at least this many times per invocation, so its
/// figure is a median.
const MIN_SETUPS: usize = 5;

/// Switch-directory entries of the `sd1024` machine.
const SD_ENTRIES: u32 = 1024;

/// A batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    /// The paper's 16-node machine: five kernels execution-driven and two
    /// commercial traces trace-driven, each on `base` and `sd1024`.
    Paper16,
    /// Weak-scaled FFT on a 256-node, 4-stage radix-4 BMIN, base machine.
    Scale256,
}

/// Which simulator runs a workload, on what machine.
#[derive(Debug, Clone, Copy)]
enum Simulator {
    Exec(SystemConfig),
    Trace(TraceSimConfig),
}

/// One simulated run of a pass.
#[derive(Debug, Clone)]
struct RunDef {
    /// `<app>.<base|sd1024>`.
    name: String,
    /// Application label, pairing a run with its other machine.
    app: &'static str,
    /// Index into the pass's generated workloads.
    workload: usize,
    simulator: Simulator,
}

/// How the execution-driven runs of a pass are observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `RunOptions::default()` observers: the always-on flight recorder.
    Default,
    /// No observer at all.
    ObserversOff,
    /// The benchmark's sampling [`LayerProbe`] and nothing else.
    Traced,
    /// The latency-breakdown observer (for the retry-wait share).
    Breakdown,
}

impl Batch {
    fn sd() -> Option<SwitchDirConfig> {
        Some(SwitchDirConfig { entries: SD_ENTRIES, ..SwitchDirConfig::paper_default() })
    }

    /// Generates the pass's reference streams. The kernels are
    /// deterministic; the commercial traces are drawn from `seed`.
    fn generate(self, seed: u64) -> Vec<Workload> {
        match self {
            Batch::Paper16 => {
                let mut w = scientific_suite(16, Scale::Reduced);
                w.extend(commercial_suite(16, Scale::Reduced, seed));
                w
            }
            Batch::Scale256 => vec![scientific::fft(256, Scale::Reduced.fft_points() * 16)],
        }
    }

    fn runs(self) -> Vec<RunDef> {
        match self {
            Batch::Paper16 => {
                let mut runs = Vec::new();
                let apps = ["FFT", "TC", "SOR", "FWA", "GAUSS", "TPC-C", "TPC-D"];
                for (i, app) in apps.into_iter().enumerate() {
                    for (tag, sd) in [("base", None), ("sd1024", Batch::sd())] {
                        let simulator = if i < 5 {
                            let mut cfg = SystemConfig::paper_table2();
                            cfg.switch_dir = sd;
                            Simulator::Exec(cfg)
                        } else {
                            let mut cfg = TraceSimConfig::paper_table3();
                            cfg.switch_dir = sd;
                            Simulator::Trace(cfg)
                        };
                        runs.push(RunDef {
                            name: format!("{app}.{tag}"),
                            app,
                            workload: i,
                            simulator,
                        });
                    }
                }
                runs
            }
            Batch::Scale256 => {
                let mut cfg = SystemConfig::scaled(256, 4);
                cfg.switch_dir = None;
                vec![RunDef {
                    name: "FFT.n256.base".into(),
                    app: "FFT",
                    workload: 0,
                    simulator: Simulator::Exec(cfg),
                }]
            }
        }
    }
}

/// Options of every execution-driven run, as in the scaling sweep: the
/// coherence audit, the watchdog and a cycle budget on top of the
/// defaults.
fn run_options(mode: Mode) -> RunOptions {
    let opts = RunOptions {
        verify_coherence: true,
        watchdog: Some(WatchdogConfig::default()),
        max_cycles: 500_000_000,
        ..RunOptions::default()
    };
    match mode {
        Mode::Default => opts,
        Mode::ObserversOff | Mode::Traced => {
            RunOptions { observers: ObserverConfig::default(), ..opts }
        }
        Mode::Breakdown => RunOptions {
            observers: ObserverConfig { latency_breakdown: true, ..ObserverConfig::default() },
            ..opts
        },
    }
}

/// What one simulated run produced.
#[derive(Debug, Clone, Default)]
struct RunResult {
    build_s: f64,
    run_s: f64,
    /// Execution-driven (has a registry) or trace-driven.
    exec: bool,
    /// Everything simulated, serialized; equal across repetitions.
    fingerprint: String,
    failures: Vec<String>,
    registry: MetricsRegistry,
    cycles: u64,
    avg_read_latency: f64,
    refs: u64,
    layers: Option<LayerTimes>,
    /// (retry-wait cycles, all read-latency cycles) from the breakdown.
    retry_wait: Option<(u64, u64)>,
}

/// One full pass over a batch workload.
#[derive(Debug, Clone, Default)]
struct Pass {
    gen_s: f64,
    build_s: f64,
    wall_s: f64,
    generated_refs: u64,
    runs: Vec<RunResult>,
}

impl Pass {
    fn setup_s(&self) -> f64 {
        self.gen_s + self.build_s
    }

    fn exec_runs(&self) -> impl Iterator<Item = &RunResult> {
        self.runs.iter().filter(|r| r.exec)
    }

    fn trace_runs(&self) -> impl Iterator<Item = &RunResult> {
        self.runs.iter().filter(|r| !r.exec)
    }

    fn exec_run_s(&self) -> f64 {
        self.exec_runs().map(|r| r.run_s).sum()
    }

    fn trace_run_s(&self) -> f64 {
        self.trace_runs().map(|r| r.run_s).sum()
    }

    fn counter(&self, name: &str) -> u64 {
        self.exec_runs().map(|r| counter(&r.registry, name)).sum()
    }

    fn trace_refs(&self) -> u64 {
        self.trace_runs().map(|r| r.refs).sum()
    }

    fn trace_refs_per_s(&self) -> f64 {
        ratio(self.trace_refs() as f64, self.trace_run_s())
    }

    fn msgs_per_s(&self) -> f64 {
        ratio(self.counter("net.messages") as f64, self.exec_run_s())
    }
}

/// A counter's value, a gauge's peak, 0 when absent.
fn counter(reg: &MetricsRegistry, name: &str) -> u64 {
    match reg.get(name) {
        Some(MetricValue::Counter(c)) => *c,
        Some(MetricValue::Gauge { peak, .. }) => *peak,
        _ => 0,
    }
}

fn check_exec(r: &ExecutionReport, w: &Workload) -> Vec<String> {
    let mut bad = Vec::new();
    match &r.coherence {
        Some(c) if c.ok() && c.quiesced => {}
        Some(c) => bad.push(format!(
            "coherence audit: quiesced={} violations={:?}",
            c.quiesced, c.violations
        )),
        None => bad.push("coherence audit missing".into()),
    }
    if let Some(wd) = &r.watchdog {
        bad.push(format!("watchdog tripped: {}", wd.to_json().dump()));
    }
    if !r.sim_errors.is_empty() {
        bad.push(format!("sim errors: {:?}", r.sim_errors));
    }
    let generated = w.total_refs() as u64;
    if r.refs_executed != generated {
        bad.push(format!("executed {} of {generated} generated references", r.refs_executed));
    }
    bad
}

/// Runs `def` on `w` under `mode`, timing set-up and run separately.
fn run_one(def: &RunDef, w: &Workload, mode: Mode) -> RunResult {
    match def.simulator {
        Simulator::Exec(cfg) => {
            let t0 = Instant::now();
            let sys = System::new(cfg, w);
            let build_s = t0.elapsed().as_secs_f64();
            let opts = run_options(mode);
            let mut probe = LayerProbe::new(SAMPLE_EVERY);
            let t1 = Instant::now();
            let report =
                if mode == Mode::Traced { sys.run_probed(opts, &mut probe) } else { sys.run(opts) };
            let run_s = t1.elapsed().as_secs_f64();
            let mut failures = check_exec(&report, w);
            let layers = (mode == Mode::Traced).then(|| probe.finish());
            if layers.as_ref().is_some_and(|l| !l.shares_are_whole()) {
                failures.push("sampled layer shares do not sum to the sampled time".into());
            }
            let retry_wait = report.obs.as_ref().and_then(|o| o.breakdown.as_ref()).map(|b| {
                let i = PHASES.iter().position(|&p| p == "retry_wait").expect("a breakdown phase");
                (b.classes.iter().map(|c| c.phases[i]).sum(), b.total_phase_cycles())
            });
            if mode == Mode::Breakdown && retry_wait.is_none() {
                failures.push("latency breakdown missing".into());
            }
            RunResult {
                build_s,
                run_s,
                exec: true,
                fingerprint: format!("{} {}", report.cycles, report.metrics.to_json().dump()),
                failures,
                cycles: report.cycles,
                avg_read_latency: report.avg_read_latency(),
                refs: report.refs_executed,
                registry: report.metrics,
                layers,
                retry_wait,
            }
        }
        Simulator::Trace(cfg) => {
            let t0 = Instant::now();
            let sim = TraceSimulator::new(cfg);
            let build_s = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let report = sim.run(w);
            let run_s = t1.elapsed().as_secs_f64();
            let processed = report.reads.total() + report.read_hits + report.writes;
            let generated = w.total_refs() as u64;
            let mut failures = Vec::new();
            if processed != generated {
                failures.push(format!("processed {processed} of {generated} trace references"));
            }
            RunResult {
                build_s,
                run_s,
                exec: false,
                fingerprint: report.to_json().dump(),
                failures,
                cycles: report.exec_cycles,
                avg_read_latency: report.avg_read_latency(),
                refs: processed,
                ..RunResult::default()
            }
        }
    }
}

fn pass(batch: Batch, seed: u64, mode: Mode) -> Pass {
    let t0 = Instant::now();
    let workloads = batch.generate(seed);
    let gen_s = t0.elapsed().as_secs_f64();
    let runs: Vec<RunResult> =
        batch.runs().iter().map(|def| run_one(def, &workloads[def.workload], mode)).collect();
    Pass {
        gen_s,
        build_s: runs.iter().map(|r| r.build_s).sum(),
        wall_s: t0.elapsed().as_secs_f64(),
        generated_refs: workloads.iter().map(|w| w.total_refs() as u64).sum(),
        runs,
    }
}

/// Set-up alone, for the set-up median when few passes fit the budget.
fn setup_only(batch: Batch, seed: u64) -> f64 {
    let t0 = Instant::now();
    let workloads = batch.generate(seed);
    for def in batch.runs() {
        match def.simulator {
            Simulator::Exec(cfg) => {
                drop(std::hint::black_box(System::new(cfg, &workloads[def.workload])))
            }
            Simulator::Trace(cfg) => drop(std::hint::black_box(TraceSimulator::new(cfg))),
        }
    }
    t0.elapsed().as_secs_f64()
}

/// Counts failed runs and checks that every pass simulated exactly what
/// the first did. Adds to `out`.
fn tally(batch: Batch, passes: &[Pass], out: &mut Outcome) {
    let defs = batch.runs();
    let first = &passes[0];
    for (k, p) in passes.iter().enumerate() {
        for (i, r) in p.runs.iter().enumerate() {
            out.attempted += 1;
            let mut failures = r.failures.clone();
            if r.fingerprint != first.runs[i].fingerprint {
                failures.push(format!("simulated counters differ from pass 0 in pass {k}"));
            }
            if !failures.is_empty() {
                out.failed += 1;
                for f in failures {
                    eprintln!("FAIL {} pass {k}: {f}", defs[i].name);
                }
            }
        }
    }
}

/// Mean over applications of the sd1024-vs-base percent reduction of
/// `f`, 0 when the workload has no sd1024 runs.
fn mean_reduction(batch: Batch, p: &Pass, f: impl Fn(&RunResult) -> f64) -> f64 {
    let defs = batch.runs();
    let mut reductions = Vec::new();
    for (i, d) in defs.iter().enumerate() {
        if d.name.ends_with(".sd1024") {
            let base = defs.iter().position(|b| b.app == d.app && b.name.ends_with(".base"));
            if let Some(b) = base {
                reductions.push(percent_reduction(f(&p.runs[b]), f(&p.runs[i])));
            }
        }
    }
    if reductions.is_empty() {
        0.0
    } else {
        reductions.iter().sum::<f64>() / reductions.len() as f64
    }
}

/// The untraced measurement: as many passes as fit in `seconds` (at
/// least one), reporting medians.
pub fn measure(batch: Batch, seed: u64, seconds: f64, out: &mut Outcome) {
    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut walls = Vec::new();
    while walls.is_empty() || fits(t0, &walls, seconds) {
        let p = pass(batch, seed, Mode::Default);
        eprintln!(
            "pass {}: wall {:.4} s, set-up {:.4} s, {:.0} msg/s",
            walls.len(),
            p.wall_s,
            p.setup_s(),
            p.msgs_per_s()
        );
        walls.push(p.wall_s);
        passes.push(p);
    }
    let mut setups: Vec<f64> = passes.iter().map(Pass::setup_s).collect();
    while setups.len() < MIN_SETUPS {
        setups.push(setup_only(batch, seed));
    }
    tally(batch, &passes, out);
    let msgs: Vec<f64> = passes.iter().map(Pass::msgs_per_s).collect();
    out.e2e(Metric::new("wall_s", median(&walls), "s"));
    out.e2e(Metric::new("setup_s", median(&setups), "s"));
    out.e2e(Metric::new("work_per_s", median(&msgs), "1/s"));
    out.info(Metric::new("sim_msgs_per_s", median(&msgs), "msg/s"));
    let trace_rates: Vec<f64> = passes.iter().map(Pass::trace_refs_per_s).collect();
    out.info(Metric::new("passes", passes.len() as f64, "count"));
    out.info(Metric::new("trace_refs_per_s", median(&trace_rates), "ref/s"));
    for m in simulated(batch, &passes[0]) {
        out.info(m);
    }
}

/// The simulated results of a pass, identical in every pass: execution
/// cycles and the Figure 9 and Figure 11 switch-directory gains.
fn simulated(batch: Batch, p: &Pass) -> [Metric; 3] {
    [
        Metric::new("sim_cycles", p.exec_runs().map(|r| r.cycles).sum::<u64>() as f64, "cycles"),
        Metric::new(
            "sd_read_latency_reduction_pct",
            mean_reduction(batch, p, |r| r.avg_read_latency),
            "%",
        ),
        Metric::new("sd_exec_reduction_pct", mean_reduction(batch, p, |r| r.cycles as f64), "%"),
    ]
}

/// The traced measurement: one pass in each [`Mode`], giving the
/// per-layer counts, the sampled layer shares and the observer and
/// tracing overheads.
pub fn trace(batch: Batch, seed: u64, out: &mut Outcome) {
    let modes = [Mode::Default, Mode::ObserversOff, Mode::Traced, Mode::Breakdown];
    let passes: Vec<Pass> = modes.iter().map(|&m| pass(batch, seed, m)).collect();
    tally(batch, &passes, out);
    let [on, off, traced, breakdown] = [&passes[0], &passes[1], &passes[2], &passes[3]];
    let c = |name: &str| off.counter(name) as f64;
    let mut layers = LayerTimes::default();
    for r in traced.exec_runs() {
        layers.merge(r.layers.as_ref().expect("traced runs carry layer times"));
    }
    let est = |l: Layer| layers.est_ns[l.index()];
    let gens: Vec<f64> = passes.iter().map(|p| p.gen_s).collect();
    let builds: Vec<f64> = passes.iter().map(|p| p.build_s).collect();
    let (wait, total) = breakdown
        .exec_runs()
        .filter_map(|r| r.retry_wait)
        .fold((0, 0), |(w, t), (rw, rt)| (w + rw, t + rt));
    let trace_refs = off.trace_refs() as f64;
    let trace_s: Vec<f64> = passes.iter().map(Pass::trace_run_s).collect();
    let trace_s = median(&trace_s);
    let queue_peak = off.exec_runs().map(|r| counter(&r.registry, "engine.queue.depth")).max();

    let m = |name: &str, value: f64, unit: &str| Metric::new(name, value, unit);
    let metrics = [
        m("workloads.gen_s", median(&gens), "s"),
        m("workloads.refs", off.generated_refs as f64, "count"),
        m("core.build_s", median(&builds), "s"),
        m("proc.refs_executed", c("proc.refs_executed"), "count"),
        m("core.proc_self_pct", layers.self_pct(Layer::Core), "%"),
        m("engine.events", c("engine.queue.scheduled"), "count"),
        m("engine.queue_peak", queue_peak.unwrap_or(0) as f64, "count"),
        m(
            "engine.ns_per_event",
            ratio(off.exec_run_s() * 1e9, c("engine.queue.scheduled")),
            "ns/event",
        ),
        m("net.messages", c("net.messages"), "count"),
        m("net.flits", c("net.flits"), "count"),
        m("net.link_stall_cycles", c("net.link_stall_cycles"), "cycles"),
        m("interconnect.self_pct", layers.self_pct(Layer::Interconnect), "%"),
        m("interconnect.ns_per_msg", ratio(est(Layer::Interconnect), c("net.messages")), "ns/msg"),
        m("sd.snoops", c("sd.snoops"), "count"),
        m("sd.read_hits", c("sd.read_hits"), "count"),
        m("sd.hit_ratio", ratio(c("sd.read_hits"), c("sd.snoops")), "ratio"),
        m("sd.evictions", c("sd.evictions"), "count"),
        m("switchdir.self_pct", layers.self_pct(Layer::Switchdir), "%"),
        m("switchdir.ns_per_snoop", ratio(est(Layer::Switchdir), c("sd.snoops")), "ns/snoop"),
        m("home.lookups", c("home.lookups"), "count"),
        m("home.naks", c("home.naks"), "count"),
        m("home.nak_ratio", ratio(c("home.naks"), c("home.lookups")), "ratio"),
        m("reads.retries", c("reads.retries"), "count"),
        m("home.ctrl.stall_cycles", c("home.ctrl.stall_cycles"), "cycles"),
        m("lat.retry_wait_pct", pct(wait as f64, total as f64), "%"),
        m("directory.self_pct", layers.self_pct(Layer::Directory), "%"),
        m("directory.ns_per_lookup", ratio(est(Layer::Directory), c("home.lookups")), "ns/lookup"),
        m("cache.read_misses", c("cache.read_misses"), "count"),
        m("cache.l1_read_hits", c("cache.l1_read_hits"), "count"),
        m("cache.ctoc_serves", c("cache.ctoc_serves"), "count"),
        m("cache.fills", c("cache.fills"), "count"),
        m("reads.ctoc_switch", c("reads.ctoc_switch"), "count"),
        m("reads.ctoc_home", c("reads.ctoc_home"), "count"),
        m("cache.self_pct", layers.self_pct(Layer::Cache), "%"),
        m(
            "obs.flight_overhead_pct",
            pct(on.exec_run_s() - off.exec_run_s(), off.exec_run_s()),
            "%",
        ),
        m("trace.overhead_pct", pct(traced.exec_run_s() - off.exec_run_s(), off.exec_run_s()), "%"),
        m("trace.sampled_events", layers.sampled_events as f64, "count"),
        m("tracesim.refs", trace_refs, "count"),
        m("tracesim.run_s", trace_s, "s"),
        m("tracesim.ns_per_ref", ratio(trace_s * 1e9, trace_refs), "ns/ref"),
        m("trace_refs_per_s", ratio(trace_refs, trace_s), "ref/s"),
        m("sim_msgs_per_s", on.msgs_per_s(), "msg/s"),
    ];
    for metric in metrics.into_iter().chain(simulated(batch, off)) {
        out.layer(metric);
    }
}
