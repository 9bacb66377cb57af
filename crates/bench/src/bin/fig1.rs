//! Figure 1: fraction of reads serviced clean-from-memory vs dirty
//! cache-to-cache, for the five scientific applications (execution-driven)
//! and the two commercial workloads (trace-driven).
//!
//! Usage: `fig1 [tiny|reduced|paper] [--json]`.

use dresar_bench::plan::{run_plan, suite, sweep, unobserved};
use dresar_bench::sweep::SweepRunner;
use dresar_bench::{fig1_table, json_doc, Cli};
use dresar_types::ToJson;
use dresar_workloads::Scale;

fn main() {
    let cli = Cli::from_env(Scale::Reduced, &["--json"], &[]);
    let scale = cli.scale;
    let benches = suite(scale);
    // Figure 1 characterizes the *base* machine (no switch directory).
    let plan = sweep(&benches, &[("base", None)], unobserved());
    let table = fig1_table(scale, &benches, &run_plan(plan, SweepRunner::from_env()));
    if cli.flag("--json") {
        let doc = json_doc("fig1")
            .field("scale", format!("{scale:?}"))
            .field("table", table.to_json())
            .build();
        println!("{}", doc.dump());
    } else {
        println!("{}", table.render());
        println!("Paper bands: FFT/SOR 60-70% dirty; TC/FWA/GAUSS 15-30%; TPC-C ~38%; TPC-D ~62%.");
    }
}
