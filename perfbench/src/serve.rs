//! The `serve` workload: an in-process `dresar_serve` driven by one
//! closed-loop client connection.
//!
//! Each pass starts a server (`Server::start` on 127.0.0.1:0, one engine
//! worker, memory-only cache), warms its cache with seven tiny suite
//! specs, then sends a fixed number of requests, one at a time. Nine in
//! ten hit a warmed spec; one in ten carries a fresh seed, so it misses,
//! executes a tiny run and is inserted into the cache. The seed chooses
//! the specs and their order. Every reply is checked byte for byte.

use crate::report::{Metric, Outcome};
use crate::stats::{fits, median, percentile, ratio, tail};
use dresar_server::client::{post_run, HttpResponse};
use dresar_server::serve::{Server, ServerConfig};
use dresar_types::{RunSpec, SmallRng, ToJson};
use std::collections::HashMap;
use std::time::Instant;

/// Requests per pass: seven blocks of ten, one miss in each block, so
/// every pass misses once on each application.
pub const PASS_REQUESTS: usize = 10 * APPS.len();

/// The paper's seven workloads, as the serving tier names them.
const APPS: [&str; 7] = ["FFT", "TC", "SOR", "FWA", "GAUSS", "TPC-C", "TPC-D"];

/// Machines a warmed spec may ask for: base, or a healthy switch-directory
/// size.
const SD_CHOICES: [Option<u32>; 3] = [None, Some(1024), Some(2048)];

/// Misses run on the serving default machine, so every pass executes the
/// same work.
const MISS_SD: Option<u32> = Some(1024);

/// One request of the closed loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Req {
    /// The warmed spec at this index.
    Hit(usize),
    /// A spec no earlier request used.
    Miss(RunSpec),
}

/// A tiny 16-node spec of `app` on `sd_entries` with a fresh seed.
fn spec(rng: &mut SmallRng, app: &str, sd_entries: Option<u32>) -> RunSpec {
    RunSpec {
        workload: app.to_string(),
        scale: "tiny".into(),
        nodes: 16,
        sd_entries,
        // The JSON layer carries integers exactly up to 2^53.
        seed: rng.next_u64() >> 11,
        ..RunSpec::default()
    }
}

/// The seven specs warmed into the cache: one per application, in a
/// seed-chosen order, each on a seed-chosen machine with a seed-chosen
/// seed.
pub fn warm_specs(seed: u64) -> Vec<RunSpec> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let apps = shuffled_apps(&mut rng);
    apps.into_iter()
        .map(|app| {
            let sd = SD_CHOICES[rng.gen_range(0..SD_CHOICES.len())];
            spec(&mut rng, app, sd)
        })
        .collect()
}

/// [`APPS`] in an order drawn from `rng`.
fn shuffled_apps(rng: &mut SmallRng) -> Vec<&'static str> {
    let mut apps = APPS.to_vec();
    for i in (1..apps.len()).rev() {
        apps.swap(i, rng.gen_range(0..i + 1));
    }
    apps
}

/// The requests of pass `pass`: [`PASS_REQUESTS`] requests in blocks of
/// ten, each block with exactly one miss at a seed-chosen position. The
/// misses cover each application once, in a seed-chosen order, each with a
/// seed-chosen seed.
pub fn pass_requests(seed: u64, pass: u64) -> Vec<Req> {
    let mut rng = SmallRng::seed_from_u64(seed ^ (pass + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut out = Vec::with_capacity(PASS_REQUESTS);
    for app in shuffled_apps(&mut rng) {
        let miss_at: usize = rng.gen_range(0..10);
        for i in 0..10 {
            out.push(if i == miss_at {
                Req::Miss(spec(&mut rng, app, MISS_SD))
            } else {
                Req::Hit(rng.gen_range(0..APPS.len()))
            });
        }
    }
    out
}

/// One request as the client saw it.
struct Sample {
    hit: bool,
    client_us: f64,
    resp: std::io::Result<HttpResponse>,
}

impl Sample {
    fn header(&self, name: &str) -> Option<u64> {
        self.resp.as_ref().ok().and_then(|r| r.header_u64(name))
    }

    /// Client latency minus the server-reported queue and execution time:
    /// accept, connect, parse and write.
    fn outside_us(&self) -> f64 {
        let inside = self.header("X-Dresar-Queue-Us").unwrap_or(0)
            + self.header("X-Dresar-Exec-Us").unwrap_or(0);
        self.client_us - inside as f64
    }
}

/// Timed `client::post_run`, from connect to last byte.
fn post(addr: &str, spec: &RunSpec) -> (f64, std::io::Result<HttpResponse>) {
    let body = spec.to_json().dump();
    let t = Instant::now();
    let resp = post_run(addr, &body);
    (t.elapsed().as_secs_f64() * 1e6, resp)
}

/// Expected bodies, computed locally once per spec.
#[derive(Default)]
struct Oracle {
    bodies: HashMap<u64, Result<String, String>>,
}

impl Oracle {
    fn expect(&mut self, spec: &RunSpec) -> &Result<String, String> {
        self.bodies.entry(spec.digest()).or_insert_with(|| {
            dresar_server::run::validate(spec).and_then(|v| v.execute()).map_err(|e| e.to_string())
        })
    }

    /// Checks one reply; returns why it is wrong.
    fn check(&mut self, spec: &RunSpec, resp: &std::io::Result<HttpResponse>) -> Option<String> {
        let resp = match resp {
            Ok(r) => r,
            Err(e) => return Some(format!("transport error: {e}")),
        };
        if resp.status != 200 {
            return Some(format!("status {}: {}", resp.status, resp.body.trim()));
        }
        match self.expect(spec) {
            Ok(body) if *body == resp.body => None,
            Ok(_) => Some("body differs from a local execution of the spec".into()),
            Err(e) => Some(format!("local execution failed: {e}")),
        }
    }
}

/// Runs as many passes as fit in `seconds` (at least one) and records
/// the metrics of both the untraced and the traced invocation: no layer
/// of the serving path is probed, so both come from the same loop.
pub fn measure(seed: u64, seconds: f64, out: &mut Outcome) {
    let warm = warm_specs(seed);
    let mut oracle = Oracle::default();
    let (mut walls, mut setups, mut starts) = (Vec::new(), Vec::new(), Vec::new());
    let mut samples: Vec<Sample> = Vec::new();
    let mut rates = Vec::new();
    let cfg = ServerConfig { workers: 1, ..ServerConfig::default() };
    let t_all = Instant::now();
    let mut k = 0;
    while k == 0 || fits(t_all, &walls, seconds) {
        let requests = pass_requests(seed, k);
        let t0 = Instant::now();
        let server = match Server::start("127.0.0.1:0", cfg.clone()) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("FAIL server start: {e}");
                out.attempted += 1;
                out.failed += 1;
                return;
            }
        };
        starts.push(t0.elapsed().as_secs_f64());
        let addr = server.local_addr().to_string();
        let warm_replies: Vec<_> = warm.iter().map(|s| post(&addr, s).1).collect();
        let setup_s = t0.elapsed().as_secs_f64();
        setups.push(setup_s);

        let t1 = Instant::now();
        let mut pass: Vec<(RunSpec, Sample)> = Vec::with_capacity(requests.len());
        for req in requests {
            let (spec, hit) = match req {
                Req::Hit(i) => (warm[i].clone(), true),
                Req::Miss(s) => (s, false),
            };
            let (client_us, resp) = post(&addr, &spec);
            pass.push((spec, Sample { hit, client_us, resp }));
        }
        let loop_s = t1.elapsed().as_secs_f64();
        rates.push(pass.len() as f64 / loop_s);

        let t2 = Instant::now();

        for (s, reply) in warm.iter().zip(&warm_replies) {
            out.attempted += 1;
            if let Some(why) = oracle.check(s, reply) {
                out.failed += 1;
                eprintln!("FAIL warm-up {}: {why}", s.to_json().dump());
            }
        }
        for (spec, sample) in &pass {
            out.attempted += 1;
            // A hit must equal the warm-up reply; a miss, a local run.
            let why = match (&sample.resp, sample.hit) {
                (Ok(r), true) if r.status == 200 => {
                    let i = warm.iter().position(|w| w == spec).expect("hits are warmed specs");
                    match &warm_replies[i] {
                        Ok(w) if w.body == r.body => None,
                        _ => Some("hit body differs from the warm-up reply".to_string()),
                    }
                }
                _ => oracle.check(spec, &sample.resp),
            };
            if let Some(why) = why {
                out.failed += 1;
                eprintln!("FAIL request {}: {why}", spec.to_json().dump());
            }
        }
        let checks_s = t2.elapsed().as_secs_f64();
        server.shutdown();
        let wall_s = t0.elapsed().as_secs_f64();
        walls.push(wall_s);
        eprintln!(
            "pass {k}: wall {wall_s:.4} s, set-up {setup_s:.4} s, loop {loop_s:.4} s, \
             checks {checks_s:.4} s"
        );
        samples.extend(pass.into_iter().map(|(_, s)| s));
        k += 1;
    }

    let ms = |pick: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
        samples.iter().filter(|s| pick(s)).map(|s| s.client_us / 1000.0).collect()
    };
    let hits = ms(&|s| s.hit);
    let misses = ms(&|s| !s.hit);
    let miss_header = |name: &str| -> Vec<f64> {
        samples.iter().filter(|s| !s.hit).filter_map(|s| s.header(name)).map(|v| v as f64).collect()
    };
    let outside: Vec<f64> = samples.iter().map(Sample::outside_us).collect();
    let cached = samples
        .iter()
        .filter(|s| s.resp.as_ref().ok().and_then(|r| r.header("X-Dresar-Cache")) == Some("hit"))
        .count();
    let (tail_pct, tail_ms) = tail(&hits);
    let rps = median(&rates);

    out.e2e(Metric::new("wall_s", median(&walls), "s"));
    out.e2e(Metric::new("setup_s", median(&setups), "s"));
    out.e2e(Metric::new("work_per_s", rps, "1/s"));
    let m = |name: &str, value: f64, unit: &str| Metric::new(name, value, unit);
    let figures = [
        m("server.start_s", median(&starts), "s"),
        m("server.hit_ratio", ratio(cached as f64, samples.len() as f64), "ratio"),
        m("server.queue_us_p50", percentile(&miss_header("X-Dresar-Queue-Us"), 50.0), "us"),
        m("server.exec_us_p50", percentile(&miss_header("X-Dresar-Exec-Us"), 50.0), "us"),
        m("server.outside_us_p50", percentile(&outside, 50.0), "us"),
        m("server.outside_us_p95", percentile(&outside, 95.0), "us"),
        m("serve_hit_p50_ms", percentile(&hits, 50.0), "ms"),
        m("serve_hit_p95_ms", percentile(&hits, 95.0), "ms"),
        m("serve_hit_tail_ms", tail_ms, "ms"),
        m("serve_hit_tail_pct", tail_pct, "%"),
        m("serve_hit_samples", hits.len() as f64, "count"),
        m("serve_miss_p50_ms", percentile(&misses, 50.0), "ms"),
        m("serve_miss_samples", misses.len() as f64, "count"),
        m("serve_rps", rps, "req/s"),
    ];
    out.info(m("passes", walls.len() as f64, "count"));
    for metric in figures {
        out.layer(metric.clone());
        out.info(metric);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_fixes_the_mix() {
        assert_eq!(warm_specs(7), warm_specs(7));
        assert_eq!(pass_requests(7, 0), pass_requests(7, 0));
        assert_ne!(warm_specs(7), warm_specs(8));
        assert_ne!(pass_requests(7, 0), pass_requests(8, 0));
        assert_ne!(pass_requests(7, 0), pass_requests(7, 1));
    }

    #[test]
    fn warm_specs_cover_every_application_once() {
        let mut apps: Vec<String> = warm_specs(3).into_iter().map(|s| s.workload).collect();
        apps.sort();
        let mut want: Vec<String> = APPS.iter().map(|s| s.to_string()).collect();
        want.sort();
        assert_eq!(apps, want);
        for s in warm_specs(3) {
            dresar_server::run::validate(&s).expect("warm specs are servable");
        }
    }

    #[test]
    fn one_request_in_ten_misses_and_misses_are_fresh() {
        let warm = warm_specs(11);
        let mut digests: Vec<u64> = warm.iter().map(RunSpec::digest).collect();
        for pass in 0..3 {
            let reqs = pass_requests(11, pass);
            assert_eq!(reqs.len(), PASS_REQUESTS);
            let mut missed = Vec::new();
            for block in reqs.chunks(10) {
                let misses: Vec<&Req> =
                    block.iter().filter(|r| matches!(r, Req::Miss(_))).collect();
                assert_eq!(misses.len(), 1);
                if let Req::Miss(s) = misses[0] {
                    missed.push(s.workload.clone());
                }
            }
            missed.sort();
            let mut apps: Vec<String> = APPS.iter().map(|s| s.to_string()).collect();
            apps.sort();
            assert_eq!(missed, apps, "each pass misses once per application");
            for r in reqs {
                if let Req::Miss(s) = r {
                    dresar_server::run::validate(&s).expect("miss specs are servable");
                    digests.push(s.digest());
                }
            }
        }
        let n = digests.len();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), n, "no miss repeats a warmed or earlier spec");
    }

    #[test]
    fn a_short_loop_serves_correct_replies() {
        let mut out = Outcome::default();
        measure(5, 0.0, &mut out);
        assert_eq!(out.failed, 0);
        assert_eq!(out.attempted, (warm_specs(5).len() + PASS_REQUESTS) as u64);
        let rows = out.select(true);
        let get = |n: &str| rows.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(get("serve_hit_samples"), 63.0);
        assert_eq!(get("serve_miss_samples"), 7.0);
        assert_eq!(get("server.hit_ratio"), 0.9);
    }
}
