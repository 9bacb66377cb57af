//! `dresar-scope` observability cost guard.
//!
//! Two modes:
//!
//! * default — measures the always-on flight recorder's simulation
//!   throughput (cycles/sec) against the `NullProbe` fast path and emits
//!   one JSON document. With `--max-overhead-pct P` the process exits
//!   nonzero when the recorder costs more than `P` percent, which is how
//!   CI enforces the guard on `main` while keeping it informational on
//!   pull requests.
//! * `--emit-trace` — runs one traced simulation and prints the raw
//!   Chrome-trace document on stdout, for external schema validation.
//!
//! ```text
//! scope_overhead [tiny|reduced|paper] [--repeats N] [--max-overhead-pct P]
//! scope_overhead [tiny|reduced|paper] --emit-trace
//! ```
//!
//! Both configurations run the identical workload through the identical
//! runner ([`dresar_bench::plan::run_entry`]); only the observer config
//! differs, so the ratio isolates the probe dispatch + ring-write cost.
//! Per-config throughput is the *best* of `--repeats` runs (default 3):
//! minimum-noise estimators compare far more stably than means on shared
//! CI hosts.

use dresar::system::RunOptions;
use dresar_bench::plan::{run_entry, suite, sweep, Bench, Run};
use dresar_bench::{json_doc, Cli};
use dresar_obs::{ObserverConfig, DEFAULT_FLIGHT_CAPACITY};
use dresar_workloads::Scale;

fn main() {
    let cli =
        Cli::from_env(Scale::Reduced, &["--emit-trace"], &["--repeats", "--max-overhead-pct"]);
    let scale = cli.scale;
    let repeats = cli.value("--repeats").map_or(3, |v| parse_num(v, "--repeats").max(1.0) as usize);
    let max_overhead_pct =
        cli.value("--max-overhead-pct").map(|v| parse_num(v, "--max-overhead-pct"));

    let benches = suite(scale);
    let fft = benches.iter().find(|b| b.label == "FFT").expect("suite always contains FFT");

    if cli.flag("--emit-trace") {
        let observers = ObserverConfig { trace: true, ..ObserverConfig::default() };
        let run = run_fft(fft, observers);
        let trace = run.obs().and_then(|o| o.trace.as_ref());
        print!("{}", trace.expect("traced execution-driven run yields a trace"));
        return;
    }

    let null_cfg = ObserverConfig::default();
    let flight_cfg =
        ObserverConfig { flight: Some(DEFAULT_FLIGHT_CAPACITY), ..ObserverConfig::default() };
    // Warm caches/allocator (and generate the workload) once, untimed.
    run_fft(fft, null_cfg);

    let mut best_null = 0.0f64;
    let mut best_flight = 0.0f64;
    for _ in 0..repeats {
        best_null = best_null.max(throughput(&run_fft(fft, null_cfg)));
        best_flight = best_flight.max(throughput(&run_fft(fft, flight_cfg)));
    }
    let overhead_pct = 100.0 * (best_null - best_flight) / best_null;

    let doc = json_doc("scope-overhead")
        .field("scale", format!("{scale:?}"))
        .field("workload", fft.label)
        .field("repeats", repeats as u64)
        .field("null_probe_cycles_per_sec", best_null)
        .field("flight_cycles_per_sec", best_flight)
        .field("overhead_pct", overhead_pct)
        .field("max_overhead_pct", max_overhead_pct)
        .build();
    println!("{}", doc.dump());

    if let Some(limit) = max_overhead_pct {
        if overhead_pct > limit {
            eprintln!("flight-recorder overhead {overhead_pct:.1}% exceeds the {limit:.1}% budget");
            std::process::exit(1);
        }
    }
}

/// One FFT sd1024 run under `observers`, on the calling thread.
fn run_fft(fft: &Bench, observers: ObserverConfig) -> Run {
    let mut plan =
        sweep([fft], &[("sd1024", Some(1024))], RunOptions { observers, ..RunOptions::default() });
    run_entry(plan.remove(0))
}

/// Simulated cycles per wall-clock second of one run.
fn throughput(run: &Run) -> f64 {
    run.metrics().exec_cycles as f64 / run.wall_seconds.max(1e-9)
}

fn parse_num(value: &str, flag: &str) -> f64 {
    value.parse().unwrap_or_else(|_| {
        eprintln!("error: {flag} wants a number, got '{value}'");
        std::process::exit(2);
    })
}
