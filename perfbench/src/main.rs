//! `dresar-perfbench`: the repository's end-to-end and per-layer host
//! performance benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper16|scale256|serve|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`), it repeats the workload for `--seconds` and
//! reports the end-to-end metrics as medians. Traced (`--trace 1`), it
//! reports the per-layer metrics. Either way every output is checked, a
//! human-readable table goes to stdout, and the last stdout line is one
//! JSON object whose `correct` field is the verdict. `--workload all` runs
//! every workload untraced and then traced in one process, and exits 1 if
//! any check failed. See `perfbench/README.md` for the workloads and
//! metrics.

mod layers;
mod report;
mod serve;
mod sim;
mod stats;
use report::{Metric, Outcome};
use sim::Batch;

/// The named workloads.
const WORKLOADS: [&str; 3] = ["paper16", "scale256", "serve"];

/// Runs every workload, untraced and then traced, in this one process.
const ALL: &str = "all";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} '{value}': expected {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) || value == ALL => {
                workload = Some(value.clone());
            }
            "--workload" => return Err(bad(&format!("{}|{ALL}", WORKLOADS.join("|")))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| bad("a whole number of seconds"))?;
                seconds = Some(s as f64);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    dresar_obs::hostprof::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

/// Measures `workload` once, prints its table and JSON line, and returns
/// whether every output checked out.
fn run(workload: &str, args: &Args, traced: bool) -> bool {
    let mut out = Outcome::default();
    let batch = match workload {
        "paper16" => Some(Batch::Paper16),
        "scale256" => Some(Batch::Scale256),
        _ => None,
    };
    match (batch, traced) {
        (Some(b), false) => sim::measure(b, args.seed, args.seconds, &mut out),
        (Some(b), true) => sim::trace(b, args.seed, &mut out),
        (None, _) => serve::measure(args.seed, args.seconds, &mut out),
    }
    out.e2e(Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"));
    out.layer(Metric::new("ops_failed_frac", out.failed_frac(), "ratio"));
    out.info(Metric::new("ops_failed_frac", out.failed_frac(), "ratio"));
    println!(
        "perfbench workload={workload} seed={} seconds={} trace={}",
        args.seed, args.seconds, traced as u8
    );
    print!("{}", out.table(traced));
    println!("{}", out.json_line(traced));
    out.failed == 0
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.workload != ALL {
        // The JSON line's `correct` carries the verdict.
        run(&args.workload, &args, args.trace);
        return;
    }
    // `peak_rss_mb` is then the process high-water mark so far.
    let mut ok = true;
    for w in WORKLOADS {
        ok &= run(w, &args, false);
        ok &= run(w, &args, true);
    }
    if !ok {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload serve --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a, Args { workload: "serve".into(), seed: 3, seconds: 10.0, trace: true });
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1",
            "--workload serve",
            "--workload serve --seed x",
            "--workload serve --seed 1 --trace 2",
            "--workload serve --seed 1 --bogus 1",
            "--workload serve --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted: {bad}");
        }
    }
}
