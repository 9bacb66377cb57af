//! `dresar_serve` — run the DReSAR simulation service.
//!
//! ```text
//! dresar_serve [--addr HOST:PORT] [--queue-depth N] [--workers N] [--cache N]
//!              [--store-dir PATH] [--max-deadline-ms N] [--chaos SPEC]
//! ```
//!
//! Serves until a client sends `POST /shutdown`, then drains queued
//! executions and exits. Defaults: addr 127.0.0.1:8757, queue depth 64,
//! workers sized from `DRESAR_SWEEP_THREADS` (else one per core), cache of
//! 128 results.
//!
//! `--store-dir` enables the durable result store: every fresh execution is
//! persisted under the directory (one content-addressed file per digest),
//! and a restarted server re-serves those digests byte-identically without
//! recomputing. `--max-deadline-ms` caps per-request `deadline_ms` values.
//! `--chaos` arms the seeded fault-injection plan — a test harness, never for production.

use dresar_server::serve::{Server, ServerConfig};
use dresar_server::ServeFaultPlan;

fn main() {
    let mut addr = "127.0.0.1:8757".to_string();
    let mut cfg = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {name} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => addr = take("--addr"),
            "--queue-depth" => cfg.queue_depth = parse_num(&take("--queue-depth"), "--queue-depth"),
            "--workers" => cfg.workers = parse_num(&take("--workers"), "--workers"),
            "--cache" => cfg.cache_entries = parse_num(&take("--cache"), "--cache"),
            "--store-dir" => cfg.store_dir = Some(take("--store-dir").into()),
            "--max-deadline-ms" => {
                let ms = parse_num(&take("--max-deadline-ms"), "--max-deadline-ms");
                if ms == 0 {
                    eprintln!("error: --max-deadline-ms must be positive");
                    std::process::exit(2);
                }
                cfg.max_deadline = std::time::Duration::from_millis(ms as u64);
            }
            "--chaos" => cfg.chaos = Some(parse_chaos(&take("--chaos"))),
            "--help" | "-h" => {
                println!(
                    "usage: dresar_serve [--addr HOST:PORT] [--queue-depth N] [--workers N] \
                     [--cache N] [--store-dir PATH] [--max-deadline-ms N] [--chaos SPEC]"
                );
                return;
            }
            other => {
                eprintln!("error: unknown flag '{other}' (try --help)");
                std::process::exit(2);
            }
        }
    }
    let server = match Server::start(&addr, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot start on {addr}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("dresar-serve listening on {} (POST /shutdown to stop)", server.local_addr());
    server.join();
    eprintln!("dresar-serve drained and stopped");
}

fn parse_chaos(spec: &str) -> ServeFaultPlan {
    match ServeFaultPlan::parse(spec) {
        Ok(plan) => {
            if plan.is_active() {
                eprintln!("dresar-serve: CHAOS ARMED ({spec}) — fault injection is live");
            }
            plan
        }
        Err(e) => {
            eprintln!("error: bad chaos spec '{spec}': {e}");
            std::process::exit(2);
        }
    }
}

fn parse_num(value: &str, flag: &str) -> usize {
    value.parse().unwrap_or_else(|_| {
        eprintln!("error: {flag} wants a non-negative integer, got '{value}'");
        std::process::exit(2);
    })
}
