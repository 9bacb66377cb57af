//! Regenerates the full evaluation — Figures 1, 2 and 8–11 — from one
//! switch-directory size sweep, emitting EXPERIMENTS.md-style markdown on
//! stdout, or with `--json` one document holding every figure's table.
//!
//! Usage: `all_figures [tiny|reduced|paper] [--json]` (default `reduced`).

use dresar_bench::plan::{run_plan, size_plan, suite};
use dresar_bench::sweep::SweepRunner;
use dresar_bench::{fig1_table, fig2_histogram, json_doc, size_tables, Cli, SIZE_FIGURES};
use dresar_types::{JsonValue, ToJson};
use dresar_workloads::Scale;

fn main() {
    let cli = Cli::from_env(Scale::Reduced, &["--json"], &[]);
    let scale = cli.scale;
    let t0 = std::time::Instant::now();
    let benches = suite(scale);
    // One sweep feeds every figure: Figure 1 reads its base runs.
    let runs = run_plan(size_plan(&benches), SweepRunner::from_env());
    let fig1 = fig1_table(scale, &benches, &runs);
    let h = fig2_histogram(scale);
    let sized = size_tables(scale, &benches, &runs);

    if cli.flag("--json") {
        let fig2 = JsonValue::obj()
            .field("blocks_touched", h.blocks_touched())
            .field("read_misses", h.total_misses())
            .field("ctoc_transfers", h.total_ctocs())
            .field("top_decile_ctoc_coverage", h.ctoc_coverage_of_top(0.10))
            .build();
        let mut doc = json_doc("all_figures")
            .field("scale", format!("{scale:?}"))
            .field("fig1", fig1.to_json())
            .field("fig2", fig2);
        for (f, table) in SIZE_FIGURES.iter().zip(&sized) {
            doc = doc.field(f.tool, table.to_json());
        }
        println!("{}", doc.build().dump());
        return;
    }

    println!("# dresar evaluation (scale = {scale:?})\n");
    println!("## Figure 1 — clean vs dirty read fractions (base machine)\n");
    println!("| workload | read misses | clean % | dirty CtoC % |");
    println!("|----------|------------:|--------:|-------------:|");
    for (label, v) in fig1.rows() {
        println!("| {label} | {} | {:.1} | {:.1} |", v[2] as u64, v[0], v[1]);
    }

    println!("\n## Figure 2 — TPC-C block access skew\n");
    println!(
        "blocks touched = {}, read misses = {}, CtoC transfers = {}, top-10% CtoC coverage = {:.1}% (paper: ~88%)",
        h.blocks_touched(),
        h.total_misses(),
        h.total_ctocs(),
        100.0 * h.ctoc_coverage_of_top(0.10)
    );

    let header = "| workload | 256 | 512 | 1K | 2K |\n|----------|----:|----:|---:|---:|";
    for (f, table) in SIZE_FIGURES.iter().zip(&sized) {
        println!("\n## {}\n\n{header}", f.heading);
        for (label, vals) in table.rows() {
            let cells: Vec<String> = vals.iter().map(|v| format!("{v:.1}")).collect();
            println!("| {label} | {} |", cells.join(" | "));
        }
        println!("\n{}", f.paper);
    }

    println!("\n_Total regeneration time: {:.1}s_", t0.elapsed().as_secs_f64());
}
