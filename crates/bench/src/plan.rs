//! The run plan: every simulation the evaluation harness performs, as data.
//!
//! A plan is a list of [`Entry`]s — name, machine, workload, run options and
//! post-run checks — and [`run_plan`] is the one function that executes any
//! plan. It shards the entries over a [`SweepRunner`], runs each entry with
//! [`run_entry`] inside its worker, and returns the results sorted by name.
//! [`run_entry`] builds the entry's simulator, applies the entry's checks and
//! times the run; it is the one simulator builder, shared by the figure
//! binaries and the `dresar-serve` service. Each figure family is a function
//! returning entries ([`size_plan`], [`scaling_plan`], [`protocol_plan`],
//! ...); the binaries are views that build a plan, run it and format the
//! resulting [`Run`]s.
//!
//! Output is byte-identical to a serial execution: entries share no mutable
//! state (a shared [`Streams`] handle is generated once and then only read),
//! results land in submission-order slots, and the name sort removes any
//! order dependence downstream.

use crate::sweep::{Job, SweepRunner};
use crate::Metrics;
use dresar::system::{ExecutionReport, RunOptions, System};
use dresar::TransientReadPolicy;
use dresar_faults::{FaultPlan, WatchdogConfig};
use dresar_interconnect::{routes, Bmin, FlitNetwork};
use dresar_obs::{MetricsRegistry, ObsReport, ObserverConfig, DEFAULT_ATTRIB_WINDOW};
use dresar_trace_sim::{TraceReport, TraceSimulator};
use dresar_types::config::{SwitchDirConfig, SystemConfig, TraceSimConfig};
use dresar_types::{Protocol, Workload};
use dresar_workloads::{generate, is_commercial, scientific, Scale, APPS};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Seed of the commercial (TPC-C/TPC-D) trace generators.
pub const COMMERCIAL_SEED: u64 = 0xD2E5_A25E;

/// The simulator, and the machine it models, that one plan entry runs on.
#[derive(Debug, Clone, Copy)]
pub enum Machine {
    /// Execution-driven simulation of this machine.
    Execution(SystemConfig),
    /// The trace-driven constant-latency model.
    Trace(TraceSimConfig),
    /// The cycle-accurate flit network of this machine's BMIN, driven with
    /// a fixed validation batch instead of a workload.
    Crossbar(SystemConfig),
}

impl Machine {
    /// This machine with `entries`-entry switch directories (`None` = base).
    pub fn with_sd(self, entries: Option<u32>) -> Machine {
        let sd =
            entries.map(|entries| SwitchDirConfig { entries, ..SwitchDirConfig::paper_default() });
        match self {
            Machine::Execution(mut c) => {
                c.switch_dir = sd;
                Machine::Execution(c)
            }
            Machine::Trace(mut c) => {
                c.switch_dir = sd;
                Machine::Trace(c)
            }
            Machine::Crossbar(_) => self,
        }
    }

    /// The switch-directory geometry (`None` = base machine).
    pub fn switch_dir(&self) -> Option<SwitchDirConfig> {
        match self {
            Machine::Execution(c) | Machine::Crossbar(c) => c.switch_dir,
            Machine::Trace(c) => c.switch_dir,
        }
    }

    /// Switch-directory entries per switch (`None` = base machine).
    pub fn sd_entries(&self) -> Option<u32> {
        self.switch_dir().map(|s| s.entries)
    }

    /// Checks the whole configuration (node count against the switch
    /// radix, cache and switch-directory geometry).
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Machine::Execution(c) | Machine::Crossbar(c) => c.validate(),
            Machine::Trace(c) => c.validate(),
        }
    }
}

/// A workload's reference streams, generated on first use (inside whichever
/// worker needs them first) and shared by every entry holding a clone.
/// Big machines' streams are therefore built once per workload, never on the
/// submitting thread, and freed when the last entry using them finishes.
#[derive(Clone)]
pub struct Streams(Arc<LazyStreams>);

struct LazyStreams {
    streams: OnceLock<Workload>,
    generate: Box<dyn Fn() -> Workload + Send + Sync>,
}

impl Streams {
    /// Streams produced by `generate` on first use.
    pub fn new(generate: impl Fn() -> Workload + Send + Sync + 'static) -> Self {
        Streams(Arc::new(LazyStreams { streams: OnceLock::new(), generate: Box::new(generate) }))
    }

    /// The workload, generating it if no entry has yet.
    pub fn get(&self) -> &Workload {
        self.0.streams.get_or_init(|| (self.0.generate)())
    }
}

impl std::fmt::Debug for Streams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let generated = self.0.streams.get().map(|w| w.name.as_str());
        f.debug_tuple("Streams").field(&generated).finish()
    }
}

/// One planned run.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Run name, unique within a plan (`"FFT.sd1024"`, `"SOR.n064.base"`).
    pub name: String,
    /// Workload label the views group rows by (`"FFT"`, `"TPC-C"`).
    pub label: &'static str,
    /// What simulates the run.
    pub machine: Machine,
    /// The reference streams.
    pub workload: Streams,
    /// Run options (read by the execution-driven simulator only).
    pub options: RunOptions,
    /// The run doubles as a correctness probe: a tripped watchdog, a
    /// recorded sim error or a dirty coherence audit panics the plan instead
    /// of publishing a figure. Requires `options.verify_coherence`.
    pub checked: bool,
}

/// What a run's simulator reported.
#[derive(Debug)]
pub enum Report {
    /// Execution-driven report.
    Execution(Box<ExecutionReport>),
    /// Trace-driven report.
    Trace(Box<TraceReport>),
    /// The flit network's validation counters.
    Crossbar(MetricsRegistry),
}

/// One executed plan entry: the record every view reads.
#[derive(Debug)]
pub struct Run {
    /// The entry's name.
    pub name: String,
    /// The entry's workload label.
    pub label: &'static str,
    /// The machine it ran on.
    pub machine: Machine,
    /// What the simulator reported.
    pub report: Report,
    /// Host wall-clock seconds spent building and running the simulator
    /// (workload generation excluded). Host-measured, so never compared.
    pub wall_seconds: f64,
}

impl Run {
    /// The figure metrics (all zero for the crossbar batch).
    pub fn metrics(&self) -> Metrics {
        match &self.report {
            Report::Execution(r) => {
                Metrics { reads: r.reads, exec_cycles: r.cycles, sd_hits: r.sd.read_hits }
            }
            Report::Trace(r) => {
                Metrics { reads: r.reads, exec_cycles: r.exec_cycles, sd_hits: r.sd.read_hits }
            }
            Report::Crossbar(_) => Metrics::default(),
        }
    }

    /// The execution-driven report, if this run had one.
    pub fn execution(&self) -> Option<&ExecutionReport> {
        match &self.report {
            Report::Execution(r) => Some(r),
            _ => None,
        }
    }

    /// What the run's observers recorded (execution-driven runs only).
    pub fn obs(&self) -> Option<&ObsReport> {
        self.execution().and_then(|r| r.obs.as_ref())
    }

    /// The deterministic component-metrics registry. Execution-driven runs
    /// return the simulator's snapshot (plus the audit's verdict when one
    /// ran); trace-driven runs get one assembled from the trace report's
    /// counters (the constant-latency model has no event engine or flit
    /// network to instrument).
    pub fn registry(&self) -> MetricsRegistry {
        match &self.report {
            Report::Execution(r) => {
                let mut m = r.metrics.clone();
                if let Some(c) = &r.coherence {
                    m.counter("coherence.ok", u64::from(c.ok()));
                    m.counter("coherence.blocks_checked", c.blocks_checked);
                }
                m
            }
            Report::Trace(r) => {
                let mut m = MetricsRegistry::new();
                m.counter("trace.exec_cycles", r.exec_cycles);
                m.counter("trace.read_hits", r.read_hits);
                m.counter("trace.writes", r.writes);
                m.counter("reads.clean", r.reads.clean);
                m.counter("reads.ctoc_home", r.reads.ctoc_home);
                m.counter("reads.ctoc_switch", r.reads.ctoc_switch);
                m.counter("reads.latency_cycles", r.reads.latency_cycles);
                m.counter("reads.stall_cycles", r.reads.stall_cycles);
                m.counter("reads.retries", r.reads.retries);
                m.counter("home.lookups", r.dir.lookups);
                m.counter("home.reads_ctoc", r.dir.reads_ctoc);
                m.counter("home.invals_sent", r.dir.invals_sent);
                m.counter("home.naks", r.dir.naks);
                if self.machine.sd_entries().is_some() {
                    m.counter("sd.snoops", r.sd.snoops);
                    m.counter("sd.read_hits", r.sd.read_hits);
                    m.counter("sd.inserts", r.sd.inserts);
                    m.counter("sd.evictions", r.sd.evictions);
                    m.counter("sd.copybacks_marked", r.sd.copybacks_marked);
                }
                m
            }
            Report::Crossbar(m) => m.clone(),
        }
    }
}

/// Looks a run up by name in a name-sorted result list.
///
/// # Panics
/// If no run has that name (a view asking for a run its plan never had).
pub fn find<'a>(runs: &'a [Run], name: &str) -> &'a Run {
    runs.binary_search_by(|r| r.name.as_str().cmp(name))
        .map(|i| &runs[i])
        .unwrap_or_else(|_| panic!("no run named '{name}' in the plan"))
}

/// Executes `plan` through `runner` and returns its runs sorted by name.
pub fn run_plan(plan: Vec<Entry>, runner: SweepRunner) -> Vec<Run> {
    let jobs: Vec<Job<'static, Run>> = plan
        .into_iter()
        .map(|entry| -> Job<'static, Run> { Box::new(move || run_entry(entry)) })
        .collect();
    let mut runs = runner.run_jobs(jobs);
    runs.sort_by(|a, b| a.name.cmp(&b.name));
    runs
}

/// Runs one entry on the calling thread: generates its streams if no entry
/// has yet, builds and runs its simulator, and applies its checks. This is
/// the only place a simulator is built for a plan or a served request.
///
/// # Panics
/// If the entry is [`Entry::checked`] and a check fails.
pub fn run_entry(entry: Entry) -> Run {
    let workload = entry.workload.get();
    let t0 = Instant::now();
    let report = match entry.machine {
        Machine::Execution(cfg) => {
            Report::Execution(Box::new(System::new(cfg, workload).run(entry.options)))
        }
        Machine::Trace(cfg) => Report::Trace(Box::new(TraceSimulator::new(cfg).run(workload))),
        Machine::Crossbar(cfg) => Report::Crossbar(crossbar_validation(cfg)),
    };
    let wall_seconds = t0.elapsed().as_secs_f64();
    if let (true, Report::Execution(r)) = (entry.checked, &report) {
        check(&entry.name, r);
    }
    Run { name: entry.name, label: entry.label, machine: entry.machine, report, wall_seconds }
}

/// The post-run checks of a [`Entry::checked`] run.
fn check(name: &str, r: &ExecutionReport) {
    assert!(r.watchdog.is_none(), "{name}: watchdog tripped: {:?}", r.watchdog);
    assert!(r.sim_errors.is_empty(), "{name}: sim errors {:?}", r.sim_errors);
    let audit = r.coherence.as_ref().expect("checked runs request verify_coherence");
    assert!(audit.ok(), "{name}: coherence violations {:?}", audit.violations);
}

/// A deterministic flit-level batch through the machine's BMIN: two
/// messages per processor on fixed routes, run to drain. This is the one
/// place the cycle-accurate [`FlitNetwork`] arbitration counters surface in
/// telemetry (the execution-driven system uses the analytical hop model).
fn crossbar_validation(cfg: SystemConfig) -> MetricsRegistry {
    let nodes = cfg.nodes as u8;
    let bmin = Bmin::new(cfg.nodes, cfg.switch.radix as usize);
    let mut net = FlitNetwork::new(bmin, cfg.switch);
    for p in 0..nodes {
        let peer = (p + 5) % nodes;
        net.inject(u64::from(p), &routes::forward(&bmin, p, peer), 1)
            .expect("fixed validation route");
        net.inject(100 + u64::from(p), &routes::backward(&bmin, peer, p), 5)
            .expect("fixed validation route");
    }
    let delivered = net.run_until_drained(100_000).len() as u64;
    let s = net.arbiter_stats();
    let mut m = MetricsRegistry::new();
    m.counter("xbar.deliveries", delivered);
    m.counter("xbar.cycles", net.now());
    m.counter("xbar.grants", s.grants);
    m.counter("xbar.conflicts", s.conflicts);
    m.counter("xbar.lock_blocked", s.lock_blocked);
    m.counter("xbar.offers_refused", s.offers_refused);
    m
}

/// One workload of the paper's evaluation suite, on the machine the paper
/// evaluates it with (scientific kernels execution-driven on Table 2,
/// commercial traces trace-driven on Table 3).
#[derive(Debug, Clone)]
pub struct Bench {
    /// Display name matching the paper's figures.
    pub label: &'static str,
    /// The paper machine for this workload (switch directories set per entry).
    pub machine: Machine,
    /// The reference streams.
    pub workload: Streams,
}

impl Bench {
    /// Application `label` (one of [`APPS`]) on `nodes` processors at
    /// `scale`, on the machine the paper evaluates it with: scientific
    /// kernels execution-driven on Table 2, commercial traces trace-driven
    /// on Table 3 (both with the paper's switch directories; entries set
    /// their own). `seed` feeds the commercial trace generators.
    pub fn new(label: &'static str, nodes: usize, scale: Scale, seed: u64) -> Bench {
        let machine = if is_commercial(label) {
            Machine::Trace(TraceSimConfig { nodes, ..TraceSimConfig::paper_table3() })
        } else {
            Machine::Execution(SystemConfig { nodes, ..SystemConfig::paper_table2() })
        };
        let workload = Streams::new(move || {
            generate(label, nodes, scale, seed)
                .unwrap_or_else(|| panic!("'{label}' is not an application label"))
        });
        Bench { label, machine, workload }
    }

    /// Whether the execution-driven simulator runs this workload.
    pub fn is_execution(&self) -> bool {
        matches!(self.machine, Machine::Execution(_))
    }

    /// An entry running this workload at `sd` switch-directory entries.
    fn entry(&self, tag: &str, sd: Option<u32>, options: RunOptions) -> Entry {
        Entry {
            name: format!("{}.{tag}", self.label),
            label: self.label,
            machine: self.machine.with_sd(sd),
            workload: self.workload.clone(),
            options,
            checked: false,
        }
    }
}

/// The paper's seven-workload evaluation suite at a given scale.
pub fn suite(scale: Scale) -> Vec<Bench> {
    APPS.iter().map(|&label| Bench::new(label, 16, scale, COMMERCIAL_SEED)).collect()
}

/// Base and the paper's 1K-entry directory: the pair behind
/// `BENCH_dresar.json`, `probe` and the contention heatmap.
pub const PAIR_CONFIGS: [(&str, Option<u32>); 2] = [("base", None), ("sd1024", Some(1024))];

/// The Figure 8–11 axis: base plus directory sizes 256–2048.
pub const SIZE_CONFIGS: [(&str, Option<u32>); 5] = [
    ("base", None),
    ("sd256", Some(256)),
    ("sd512", Some(512)),
    ("sd1024", Some(1024)),
    ("sd2048", Some(2048)),
];

/// The switch-directory configurations each scaling point and each
/// protocol is evaluated at. Tags are zero-padded so a name sort is also a
/// size sort. Undersized directories are deliberately absent: once the
/// weak-scaled working set outgrows an SD's capacity, eviction thrash tips
/// the home directories into a NAK retry storm that never converges
/// (256 entries collapse past 16 nodes; 512 entries collapse at 256 nodes,
/// where FFT retires ~263 k of 3.2 M references in 4 G cycles with ~100 M
/// retries). 1024 and 2048 entries stay healthy at every ladder size.
pub const SCALING_CONFIGS: [(&str, Option<u32>); 3] =
    [("base", None), ("sd1024", Some(1024)), ("sd2048", Some(2048))];

/// The `--scaling` machine-size ladder: the paper's 16-node 2-stage BMIN,
/// then the 3- and 4-stage radix-4 machines up to the full 256-node
/// `NodeId` range. Each step adds one stage to the home path, which is
/// exactly the variable the paper's benefit argument turns on.
pub const SCALING_POINTS: [(usize, u32); 3] = [(16, 4), (64, 4), (256, 4)];

/// Run options with every observer off (the figure sweeps and `probe`'s
/// table read only the figure metrics).
pub fn unobserved() -> RunOptions {
    RunOptions { observers: ObserverConfig::default(), ..RunOptions::default() }
}

/// `{label}.{tag}` entries: each bench at each `(tag, entries)` switch-
/// directory setting of `axis` (`None` entries = the base machine).
pub fn sweep<'a>(
    benches: impl IntoIterator<Item = &'a Bench>,
    axis: &[(&'static str, Option<u32>)],
    options: RunOptions,
) -> Vec<Entry> {
    benches
        .into_iter()
        .flat_map(|b| axis.iter().map(move |&(tag, sd)| b.entry(tag, sd, options)))
        .collect()
}

/// The Figure 8–11 size sweep (Figure 1 reads its base runs).
pub fn size_plan(benches: &[Bench]) -> Vec<Entry> {
    sweep(benches, &SIZE_CONFIGS, unobserved())
}

/// `probe`'s base/sd1024 pairs for every workload, with `observers` on the
/// execution-driven runs.
pub fn probe_plan(benches: &[Bench], observers: ObserverConfig) -> Vec<Entry> {
    sweep(benches, &PAIR_CONFIGS, RunOptions { observers, ..RunOptions::default() })
}

/// `probe --faults`: every execution-driven workload at sd1024 under
/// `plan`, with the watchdog and the coherence audit on.
pub fn faulted_plan(benches: &[Bench], plan: FaultPlan) -> Vec<Entry> {
    benches.iter().filter(|b| b.is_execution()).map(|b| faulted(b, "faulted", plan)).collect()
}

fn faulted(b: &Bench, tag: &str, plan: FaultPlan) -> Entry {
    b.entry(tag, Some(1024), faulted_options(plan))
}

/// Run options for a run under fault plan `plan`: the watchdog turns a
/// livelock into a report and the coherence audit checks the outcome.
pub fn faulted_options(plan: FaultPlan) -> RunOptions {
    RunOptions {
        faults: Some(plan),
        watchdog: Some(WatchdogConfig::default()),
        verify_coherence: true,
        ..RunOptions::default()
    }
}

/// The first `bench_report` stage: every workload at base and sd1024, plus
/// the crossbar validation batch.
pub fn standard_plan(benches: &[Bench]) -> Vec<Entry> {
    let mut plan = sweep(benches, &PAIR_CONFIGS, RunOptions::default());
    plan.extend(crossbar_plan());
    plan
}

/// The second `bench_report` stage, built from the first stage's runs: each
/// execution-driven workload at sd1024 with the switch directories disabled
/// half-way through the healthy sd1024 run, exercising the degraded
/// home-directory fallback. The registry carries the fault, watchdog and
/// audit counters, so the regression gate also pins the fault schedule.
pub fn degraded_plan(benches: &[Bench], standard: &[Run]) -> Vec<Entry> {
    benches
        .iter()
        .filter(|b| b.is_execution())
        .map(|b| {
            let cycles = find(standard, &format!("{}.sd1024", b.label)).metrics().exec_cycles;
            let plan = FaultPlan { disable_at: (cycles / 2).max(1), ..FaultPlan::default() };
            faulted(b, "sd-degraded", plan)
        })
        .collect()
}

/// The complete `BENCH_dresar.json` run set: [`standard_plan`], then
/// [`degraded_plan`] from its results, merged and sorted by name.
pub fn standard_runs(benches: &[Bench], runner: SweepRunner) -> Vec<Run> {
    let mut runs = run_plan(standard_plan(benches), runner);
    runs.extend(run_plan(degraded_plan(benches, &runs), runner));
    runs.sort_by(|a, b| a.name.cmp(&b.name));
    runs
}

/// The fixed flit-level batch on the paper's 16-node BMIN (`xbar.validation`).
pub fn crossbar_plan() -> Vec<Entry> {
    vec![Entry {
        name: "xbar.validation".into(),
        label: "xbar",
        machine: Machine::Crossbar(SystemConfig::paper_table2()),
        workload: Streams::new(Workload::default),
        options: RunOptions::default(),
        checked: false,
    }]
}

/// The `--heatmap` plan: every execution-driven workload at base and
/// sd1024 with the latency-breakdown and contention-attribution observers
/// on. Trace-driven workloads have no topology to attribute.
pub fn heatmap_plan(benches: &[Bench]) -> Vec<Entry> {
    let observers = ObserverConfig {
        latency_breakdown: true,
        heatmap_window: Some(DEFAULT_ATTRIB_WINDOW),
        ..ObserverConfig::default()
    };
    sweep(
        benches.iter().filter(|b| b.is_execution()),
        &PAIR_CONFIGS,
        RunOptions { observers, ..RunOptions::default() },
    )
}

/// Options for the correctness-probe runs of the scaling and protocol
/// figures (see [`Entry::checked`]).
fn audited() -> RunOptions {
    RunOptions { verify_coherence: true, ..RunOptions::default() }
}

/// The `--scaling` plan over a machine-size ladder: FFT and SOR, weak-scaled
/// (the problem grows with the machine — FFT points by `p/16`, the SOR grid
/// side by `sqrt(p/16)` — so per-processor work stays constant), each at
/// [`SCALING_CONFIGS`], named `<workload>.n<nodes>.<config>` with the node
/// count zero-padded so a name sort is also a machine-size sort. Strong
/// scaling degenerates at 256 processors: barrier traffic swamps the read
/// path and the figure would measure starvation, not the home-path length.
pub fn scaling_plan(points: &[(usize, u32)], scale: Scale) -> Vec<Entry> {
    let options = RunOptions {
        // A config that tips into a NAK storm (see SCALING_CONFIGS) must
        // fail the sweep as a tripped watchdog, not hang it forever.
        max_cycles: 500_000_000,
        watchdog: Some(WatchdogConfig::default()),
        ..audited()
    };
    let mut plan = Vec::new();
    for &(nodes, radix) in points {
        let grow = (nodes / 16).max(1);
        let kernels = [
            ("FFT", Streams::new(move || scientific::fft(nodes, scale.fft_points() * grow))),
            (
                "SOR",
                Streams::new(move || {
                    scientific::sor(nodes, scale.grid_n() * grow.isqrt(), scale.sor_iters())
                }),
            ),
        ];
        let machine = Machine::Execution(SystemConfig::scaled(nodes, radix));
        for (label, workload) in kernels {
            for (tag, sd) in SCALING_CONFIGS {
                plan.push(Entry {
                    name: format!("{label}.n{nodes:03}.{tag}"),
                    label,
                    machine: machine.with_sd(sd),
                    workload: workload.clone(),
                    options,
                    checked: true,
                });
            }
        }
    }
    plan
}

/// The `--protocols` plan: each protocol crossed with [`SCALING_CONFIGS`]
/// and the two kernels with the most contrasting sharing patterns (FFT's
/// all-to-all butterflies vs SOR's nearest-neighbour borders) on the
/// paper's 16-node machine, named `<workload>.<protocol>.<config>`. Every
/// run is audited by the per-protocol coherence checker.
pub fn protocol_plan(protocols: &[Protocol], scale: Scale) -> Vec<Entry> {
    let kernels = [Bench::new("FFT", 16, scale, 0), Bench::new("SOR", 16, scale, 0)];
    let mut plan = Vec::new();
    for &protocol in protocols {
        let mut cfg = SystemConfig::paper_table2();
        cfg.protocol = protocol;
        for b in &kernels {
            for (tag, sd) in SCALING_CONFIGS {
                plan.push(Entry {
                    name: format!("{}.{protocol}.{tag}", b.label),
                    label: b.label,
                    machine: Machine::Execution(cfg).with_sd(sd),
                    workload: b.workload.clone(),
                    options: audited(),
                    checked: true,
                });
            }
        }
    }
    plan
}

/// The design-choice ablations (DESIGN.md §3), as `(name, machine, policy)`:
/// the transient-read policy, pending-buffer capacity (§4.3), directory
/// associativity and switch radix, against the base machine.
pub fn ablation_variants() -> Vec<(&'static str, SystemConfig, TransientReadPolicy)> {
    use TransientReadPolicy::{Accumulate, Retry};
    let base = SystemConfig::paper_table2();
    let with_sd = |f: &dyn Fn(&mut SwitchDirConfig)| {
        let mut c = base;
        let mut sd = SwitchDirConfig::paper_default();
        f(&mut sd);
        c.switch_dir = Some(sd);
        c
    };
    let mut radix2 = base;
    radix2.switch.radix = 2;
    vec![
        ("paper default (retry, 4-way, pend=16)", base, Retry),
        ("accumulate readers", base, Accumulate),
        ("pending buffer = 1", with_sd(&|sd| sd.pending_buffer_entries = 1), Retry),
        ("pending buffer = 64", with_sd(&|sd| sd.pending_buffer_entries = 64), Retry),
        ("direct-mapped directory", with_sd(&|sd| sd.ways = 1), Retry),
        ("8-way directory", with_sd(&|sd| sd.ways = 8), Retry),
        ("4x4 switches (4 stages)", radix2, Retry),
        ("no switch directory (base)", SystemConfig::paper_base(), Retry),
    ]
}

/// The two workloads the ablations run, as `(label, streams)`.
pub fn ablation_workloads(scale: Scale) -> [(&'static str, Streams); 2] {
    [
        ("FFT", Bench::new("FFT", 16, scale, 0).workload),
        ("SOR", Streams::new(move || scientific::sor(16, scale.grid_n().min(192), 2))),
    ]
}

/// The `ablations` plan: every workload of [`ablation_workloads`] under
/// every variant, named `<workload>/<variant>`.
pub fn ablation_plan(workloads: &[(&'static str, Streams)]) -> Vec<Entry> {
    let mut plan = Vec::new();
    for &(label, ref workload) in workloads {
        for (variant, cfg, policy) in ablation_variants() {
            plan.push(Entry {
                name: format!("{label}/{variant}"),
                label,
                machine: Machine::Execution(cfg),
                workload: workload.clone(),
                options: RunOptions { transient_policy: policy, ..RunOptions::default() },
                checked: false,
            });
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_the_papers_seven_workloads() {
        let s = suite(Scale::Tiny);
        let labels: Vec<_> = s.iter().map(|b| b.label).collect();
        assert_eq!(labels, vec!["FFT", "TC", "SOR", "FWA", "GAUSS", "TPC-C", "TPC-D"]);
        assert!(s[..5].iter().all(Bench::is_execution));
        assert!(s[5..].iter().all(|b| matches!(b.machine, Machine::Trace(_))));
    }

    #[test]
    fn streams_are_generated_once_and_shared() {
        let calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counted = Arc::clone(&calls);
        let s = Streams::new(move || {
            counted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            scientific::fft(16, 64)
        });
        let t = s.clone();
        assert_eq!(s.get().total_refs(), t.get().total_refs());
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn runs_come_back_name_sorted_with_timings() {
        let runs = run_plan(size_plan(&suite(Scale::Tiny)[..1]), SweepRunner::with_threads(2));
        let names: Vec<&str> = runs.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["FFT.base", "FFT.sd1024", "FFT.sd2048", "FFT.sd256", "FFT.sd512"]);
        assert!(runs.iter().all(|r| r.metrics().reads.total() > 0 && r.wall_seconds >= 0.0));
        assert_eq!(find(&runs, "FFT.sd512").machine.sd_entries(), Some(512));
    }

    #[test]
    #[should_panic(expected = "FFT.n016.base: sim errors [\"sharer 300 out of range\"]")]
    fn checks_refuse_a_run_with_sim_errors() {
        let r = ExecutionReport {
            sim_errors: vec!["sharer 300 out of range".into()],
            ..ExecutionReport::default()
        };
        check("FFT.n016.base", &r);
    }
}
