//! Quality ablations for the DRESAR design choices (DESIGN.md §3):
//!
//! * TRANSIENT-read policy: the paper's Retry choice vs the rejected
//!   bit-vector Accumulate alternative;
//! * pending-buffer capacity (§4.3): unlimited vs 16 vs 1 vs effectively
//!   disabled;
//! * directory associativity: the paper's 4-way vs direct-mapped;
//! * switch radix: 8x8 two-stage vs 4x4 four-stage (more, smaller switch
//!   directories closer to the processors).
//!
//! Usage: `ablations [tiny|reduced|paper] [--json]`.

use dresar_bench::plan::{ablation_plan, ablation_variants, ablation_workloads, find, run_plan};
use dresar_bench::sweep::SweepRunner;
use dresar_bench::{json_doc, Cli};
use dresar_types::{JsonValue, ToJson};
use dresar_workloads::Scale;

fn main() {
    let cli = Cli::from_env(Scale::Reduced, &["--json"], &[]);
    let scale = cli.scale;
    let json = cli.flag("--json");
    let workloads = ablation_workloads(scale);
    let runs = run_plan(ablation_plan(&workloads), SweepRunner::from_env());
    let mut json_workloads: Vec<JsonValue> = Vec::new();
    for (wname, w) in &workloads {
        let refs = w.get().total_refs();
        if !json {
            println!("\n=== {wname} ({refs} refs) ===");
            println!(
                "{:40} {:>9} {:>9} {:>9} {:>10} {:>9}",
                "variant", "homeCC", "swCC", "retries", "avg lat", "exec"
            );
        }
        let mut json_variants: Vec<JsonValue> = Vec::new();
        for (variant, _, _) in ablation_variants() {
            let r = find(&runs, &format!("{wname}/{variant}"))
                .execution()
                .expect("ablations are execution-driven");
            if json {
                json_variants.push(
                    JsonValue::obj().field("variant", variant).field("report", r.to_json()).build(),
                );
            } else {
                println!(
                    "{:40} {:>9} {:>9} {:>9} {:>10.1} {:>9}",
                    variant,
                    r.reads.ctoc_home,
                    r.reads.ctoc_switch,
                    r.reads.retries,
                    r.avg_read_latency(),
                    r.cycles
                );
            }
        }
        if json {
            json_workloads.push(
                JsonValue::obj()
                    .field("workload", *wname)
                    .field("refs", refs)
                    .field("variants", json_variants)
                    .build(),
            );
        }
    }
    if json {
        let doc = json_doc("ablations")
            .field("scale", format!("{scale:?}"))
            .field("workloads", json_workloads)
            .build();
        println!("{}", doc.dump());
    }
}
