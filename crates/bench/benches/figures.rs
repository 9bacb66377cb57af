//! End-to-end simulation cost per paper workload at test scale: how long
//! regenerating each figure's data points takes per workload, for both the
//! base and the switch-directory machine.

use dresar_bench::harness::{bench, black_box};
use dresar_bench::plan::{run_plan, suite, sweep, unobserved, PAIR_CONFIGS};
use dresar_bench::sweep::SweepRunner;
use dresar_workloads::Scale;

fn main() {
    for entry in sweep(&suite(Scale::Tiny), &PAIR_CONFIGS, unobserved()) {
        let name = format!("simulate/{}", entry.name.replace(".sd1024", "_sd1k").replace('.', "_"));
        bench(&name, || {
            black_box(run_plan(vec![entry.clone()], SweepRunner::serial()));
        });
    }
}
