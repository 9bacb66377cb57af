//! # dresar-bench
//!
//! The evaluation harness: everything needed to regenerate the paper's
//! tables and figures. Every simulation is an entry of a declarative
//! [`plan`], executed by the one runner [`plan::run_plan`]; the binaries are
//! views over plans.
//!
//! Binaries (all accept an optional scale argument `tiny|reduced|paper`,
//! default `reduced` — `bench_report` defaults to `tiny` — and exit 2 on an
//! unknown scale or flag):
//!
//! * `fig1` — clean vs dirty read fractions per workload (Figure 1);
//! * `fig2` — cumulative miss/CtoC distribution over blocks for TPC-C
//!   (Figure 2);
//! * `all_figures` — Figures 1, 2 and 8–11 (normalized reductions in
//!   home-node CtoC transfers, average read latency, read stall time and
//!   execution time across switch-directory sizes 256–2048) from one sweep,
//!   as an EXPERIMENTS.md-style report;
//! * `params` — prints the Table 2 / Table 3 configurations in use;
//! * `dresar_cycle_budget` — the §4.2/§4.3 port-scheduling budget check
//!   (Figures 5–7 arithmetic);
//! * `probe`, `ablations` — calibration table and design-choice ablations;
//! * `bench_report`, `dresar_diff`, `scope_overhead` — telemetry, its
//!   explainer and the observability cost guard.
//!
//! Host timing is `perfbench`'s job (the repository benchmark, outside this
//! workspace): end-to-end and per-layer costs of these same runs.
//!
//! The `probe`, `ablations`, `fig1`, `fig2` and `all_figures` binaries also
//! accept `--json` to emit their results as a single machine-readable JSON
//! document on stdout (see the README's "Observability" section).

pub mod benefit;
pub mod plan;
pub mod sweep;

use dresar_stats::{percent_reduction, BlockHistogram, FigureTable, ReadStats};
use dresar_trace_sim::TraceSimulator;
use dresar_types::config::TraceSimConfig;
use dresar_types::{JsonValue, ToJson};
use dresar_workloads::{generate, Scale};
use plan::{find, Bench, Run, COMMERCIAL_SEED, SIZE_CONFIGS};

/// Figure-relevant metrics extracted from either simulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct Metrics {
    /// Read statistics.
    pub reads: ReadStats,
    /// Execution time in cycles.
    pub exec_cycles: u64,
    /// Switch-directory read hits (0 for base).
    pub sd_hits: u64,
}

impl Metrics {
    /// Home-node cache-to-cache transfers (Figure 8 metric).
    pub fn home_ctoc(&self) -> f64 {
        self.reads.ctoc_home as f64
    }

    /// Average read-miss latency (Figure 9 metric).
    pub fn avg_read_latency(&self) -> f64 {
        self.reads.avg_latency()
    }

    /// Read stall cycles (Figure 10 metric).
    pub fn read_stall(&self) -> f64 {
        self.reads.stall_cycles as f64
    }

    /// Execution time (Figure 11 metric).
    pub fn exec(&self) -> f64 {
        self.exec_cycles as f64
    }
}

impl ToJson for Metrics {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .field("reads", self.reads.to_json())
            .field("exec_cycles", self.exec_cycles)
            .field("sd_hits", self.sd_hits)
            .field("avg_read_latency", self.avg_read_latency())
            .build()
    }
}

/// Figure 1 (clean vs dirty read fractions on the base machine) from a
/// plan holding each bench's `base` run.
pub fn fig1_table(scale: Scale, benches: &[Bench], runs: &[Run]) -> FigureTable {
    let mut table = FigureTable::new(
        format!("Figure 1: Fraction of Clean vs. Dirty Memory Reads (scale={scale:?})"),
        vec!["clean %".into(), "dirty CtoC %".into(), "read misses".into()],
        "percent of read misses",
    );
    for b in benches {
        let m = find(runs, &format!("{}.base", b.label)).metrics();
        let total = m.reads.total().max(1) as f64;
        table.push_row(
            b.label,
            vec![100.0 * m.reads.clean as f64 / total, 100.0 * m.reads.dirty_fraction(), total],
        );
    }
    table
}

/// One of the Figure 8–11 reductions over the switch-directory size sweep.
#[derive(Debug, Clone, Copy)]
pub struct SizeFigure {
    /// Short name (`"fig8"`), the key in `all_figures --json`.
    pub tool: &'static str,
    /// Table title.
    pub title: &'static str,
    /// Markdown heading in the `all_figures` report.
    pub heading: &'static str,
    /// The reduced metric.
    pub metric: fn(&Metrics) -> f64,
    /// What the paper reports for this figure.
    pub paper: &'static str,
}

/// Figures 8–11, in paper order.
pub const SIZE_FIGURES: [SizeFigure; 4] = [
    SizeFigure {
        tool: "fig8",
        title: "Figure 8: Reduction in Home Node CtoC Transfers",
        heading: "Figure 8 — reduction in home-node CtoC transfers (% vs base)",
        metric: Metrics::home_ctoc,
        paper: "Paper: FFT 66%, TC 68%, others 42-52%, TPC-C up to 51%, TPC-D 17%; 1K is the knee.",
    },
    SizeFigure {
        tool: "fig9",
        title: "Figure 9: Reduction in the Average Read Latency",
        heading: "Figure 9 — reduction in average read latency (% vs base)",
        metric: Metrics::avg_read_latency,
        paper: "Paper: scientific 8-23%, TPC-C up to 10%, TPC-D up to 5%.",
    },
    SizeFigure {
        tool: "fig10",
        title: "Figure 10: Reduction in the Read Stall Time",
        heading: "Figure 10 — reduction in read stall time (% vs base)",
        metric: Metrics::read_stall,
        paper: "Paper: stall reductions track Figure 9, slightly amplified.",
    },
    SizeFigure {
        tool: "fig11",
        title: "Figure 11: Execution Time Reduction",
        heading: "Figure 11 — reduction in execution time (% vs base)",
        metric: Metrics::exec,
        paper: "Paper: SOR up to 9%, FFT/TC ~4%, TPC-C ~4%, TPC-D ~2%, others negligible.",
    },
];

/// Figures 8–11 (percent reduction vs base at each switch-directory size)
/// from a [`plan::size_plan`] run, in [`SIZE_FIGURES`] order.
pub fn size_tables(scale: Scale, benches: &[Bench], runs: &[Run]) -> Vec<FigureTable> {
    SIZE_FIGURES
        .iter()
        .map(|f| {
            let metric = f.metric;
            let mut table = FigureTable::new(
                format!("{} (scale={scale:?})", f.title),
                vec!["256".into(), "512".into(), "1K".into(), "2K".into()],
                "% reduction vs base",
            );
            for b in benches {
                let run = |tag: &str| find(runs, &format!("{}.{tag}", b.label)).metrics();
                let base = metric(&run("base"));
                let vals = SIZE_CONFIGS[1..]
                    .iter()
                    .map(|&(tag, _)| percent_reduction(base, metric(&run(tag))))
                    .collect();
                table.push_row(b.label, vals);
            }
            table
        })
        .collect()
}

/// Figure 2's input: the TPC-C block histogram from the trace-driven base
/// machine. The one simulation outside the run plan — it needs the trace
/// simulator's histogram collection, which no other figure uses.
pub fn fig2_histogram(scale: Scale) -> BlockHistogram {
    let workload = generate("TPC-C", 16, scale, COMMERCIAL_SEED).expect("TPC-C is an application");
    let mut sim = TraceSimulator::new(TraceSimConfig::paper_base());
    sim.collect_histogram();
    sim.run(&workload).histogram.expect("histogram collected")
}

/// One run of the `--heatmap` document (the input format of `dresar_diff`):
/// the figure metrics, the per-phase latency breakdown (phase sums telescope
/// to `reads.latency_cycles` exactly, which is what lets `dresar_diff`
/// attribute a cycle delta with zero residual) and the contention heatmap.
///
/// # Panics
/// If the run did not record both observers (see [`plan::heatmap_plan`]).
pub fn heatmap_json(run: &Run) -> JsonValue {
    let obs = run.obs().expect("heatmap runs are observed");
    JsonValue::obj()
        .field("name", run.name.as_str())
        .field("metrics", run.metrics().to_json())
        .field("breakdown", obs.breakdown.as_ref().expect("breakdown observed").to_json())
        .field("heatmap", obs.heatmap.as_ref().expect("heatmap observed").to_json())
        .build()
}

/// Starts a machine-readable JSON document. Every `--json` emitter goes
/// through here so all documents lead with the same two fields:
/// `schema_version` (see [`dresar_types::SCHEMA_VERSION`]) then `tool`.
pub fn json_doc(tool: &str) -> dresar_types::ObjBuilder {
    JsonValue::obj().field("schema_version", dresar_types::SCHEMA_VERSION).field("tool", tool)
}

/// A bench binary's parsed command line: an optional scale positional
/// (`tiny|reduced|paper`) followed or preceded by the binary's own flags.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The requested scale (the binary's default when none was given).
    pub scale: Scale,
    flags: Vec<(String, Option<String>)>,
}

impl Cli {
    /// Parses `args` (program name excluded). `switches` are flags without a
    /// value, `valued` flags take the next argument. An unknown scale, an
    /// unknown flag or a valued flag missing its value is an error.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        default_scale: Scale,
        switches: &[&str],
        valued: &[&str],
    ) -> Result<Cli, String> {
        let mut cli = Cli { scale: default_scale, flags: Vec::new() };
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            if switches.contains(&a.as_str()) {
                cli.flags.push((a, None));
            } else if valued.contains(&a.as_str()) {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                cli.flags.push((a, Some(v)));
            } else if a.starts_with('-') {
                return Err(format!("unknown flag '{a}'"));
            } else {
                cli.scale = Scale::parse(&a)
                    .ok_or_else(|| format!("unknown scale '{a}', expected tiny|reduced|paper"))?;
            }
        }
        Ok(cli)
    }

    /// [`Cli::parse`] over the process arguments; on an error prints it and
    /// exits with status 2.
    pub fn from_env(default_scale: Scale, switches: &[&str], valued: &[&str]) -> Cli {
        let mut args = std::env::args();
        let tool = args.next().unwrap_or_default();
        let tool = tool.rsplit('/').next().unwrap_or("dresar-bench").to_string();
        Cli::parse(args, default_scale, switches, valued).unwrap_or_else(|e| {
            eprintln!("{tool}: {e}");
            std::process::exit(2);
        })
    }

    /// Whether the switch `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == name)
    }

    /// The last value given for the valued flag `name`.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(f, _)| f == name).and_then(|(_, v)| v.as_deref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        let args = args.iter().map(|a| a.to_string());
        Cli::parse(args, Scale::Reduced, &["--json"], &["--out"])
    }

    #[test]
    fn cli_accepts_scale_and_flags_in_any_order() {
        let cli = parse(&["--out", "x.json", "tiny", "--json"]).unwrap();
        assert_eq!(cli.scale, Scale::Tiny);
        assert!(cli.flag("--json"));
        assert_eq!(cli.value("--out"), Some("x.json"));
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.scale, Scale::Reduced);
        assert!(!cli.flag("--json"));
        assert_eq!(cli.value("--out"), None);
    }

    #[test]
    fn cli_rejects_unknown_scales_flags_and_missing_values() {
        assert_eq!(
            parse(&["tyni"]),
            Err("unknown scale 'tyni', expected tiny|reduced|paper".into())
        );
        assert_eq!(parse(&["tiny", "--jsn"]), Err("unknown flag '--jsn'".into()));
        assert_eq!(parse(&["-j"]), Err("unknown flag '-j'".into()));
        assert_eq!(parse(&["--out"]), Err("--out needs a value".into()));
    }
}
