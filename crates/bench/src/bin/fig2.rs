//! Figure 2: cumulative distribution of read misses and cache-to-cache
//! transfers over blocks (sorted by decreasing misses per block) for the
//! TPC-C workload on the trace-driven simulator.
//!
//! Usage: `fig2 [tiny|reduced|paper] [--json]`.

use dresar_bench::{fig2_histogram, json_doc, Cli};
use dresar_types::JsonValue;
use dresar_workloads::Scale;

fn main() {
    let cli = Cli::from_env(Scale::Reduced, &["--json"], &[]);
    let scale = cli.scale;
    let h = fig2_histogram(scale);

    if cli.flag("--json") {
        let points: Vec<JsonValue> = h
            .cumulative(20)
            .into_iter()
            .map(|pt| {
                JsonValue::obj()
                    .field("block_rank", pt.block_rank)
                    .field("miss_fraction", pt.miss_fraction)
                    .field("ctoc_fraction", pt.ctoc_fraction)
                    .build()
            })
            .collect();
        let doc = json_doc("fig2")
            .field("scale", format!("{scale:?}"))
            .field("blocks_touched", h.blocks_touched())
            .field("read_misses", h.total_misses())
            .field("ctoc_transfers", h.total_ctocs())
            .field("cumulative", points)
            .field("top_decile_ctoc_coverage", h.ctoc_coverage_of_top(0.10))
            .build();
        println!("{}", doc.dump());
        return;
    }

    println!("Figure 2: Access Frequency of TPC-C Blocks (scale={scale:?})");
    println!(
        "blocks touched = {}, read misses = {}, CtoC transfers = {}",
        h.blocks_touched(),
        h.total_misses(),
        h.total_ctocs()
    );
    println!("{:>10} {:>12} {:>12}", "top-N", "misses %", "CtoCs %");
    for pt in h.cumulative(20) {
        println!(
            "{:>10} {:>11.1}% {:>11.1}%",
            pt.block_rank,
            100.0 * pt.miss_fraction,
            100.0 * pt.ctoc_fraction
        );
    }
    println!(
        "\ntop 10% of blocks cover {:.1}% of CtoC transfers (paper: ~88%)",
        100.0 * h.ctoc_coverage_of_top(0.10)
    );
}
