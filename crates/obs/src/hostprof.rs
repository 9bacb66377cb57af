//! Host-side self-profiling: wall-clock per simulation phase, simulated
//! throughput, and peak resident set size.
//!
//! Everything here measures the *host*, not the simulated machine, so none
//! of it is deterministic and none of it may enter the
//! [`crate::metrics::MetricsRegistry`] or any baseline comparison. The
//! `bench_report` binary records a [`HostProfile`] alongside the
//! deterministic counters so regressions in simulator *speed* are visible
//! without contaminating the correctness gate.

use dresar_types::{JsonValue, ToJson};
use std::time::Instant;

/// Wall-clock timing of one named phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTiming {
    /// Phase label (e.g. `"build"`, `"run"`, `"report"`).
    pub name: String,
    /// Elapsed wall-clock seconds.
    pub wall_seconds: f64,
}

/// Wall-clock timing of one named simulation run inside a phase. Unlike
/// [`PhaseTiming`], runs may execute concurrently: with a parallel sweep
/// the per-run seconds can sum to more than the enclosing phase.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTiming {
    /// Run label (e.g. `"FFT.sd1024"`).
    pub name: String,
    /// Elapsed wall-clock seconds for this run on its worker thread.
    pub wall_seconds: f64,
}

/// A finished profile: per-phase timings plus process-wide peak RSS.
#[derive(Debug, Clone, PartialEq)]
pub struct HostProfile {
    /// Phases in the order they ran.
    pub phases: Vec<PhaseTiming>,
    /// Per-run wall-clock breakdown (empty when the caller profiles only
    /// at phase granularity).
    pub runs: Vec<RunTiming>,
    /// Total wall-clock seconds from profiler creation to [`HostProfiler::finish`].
    pub total_seconds: f64,
    /// Peak resident set size in bytes (`VmHWM` from `/proc/self/status`);
    /// `None` where the proc filesystem is unavailable.
    pub peak_rss_bytes: Option<u64>,
}

impl HostProfile {
    /// Simulated cycles per wall-clock second of `phase`, the phase that
    /// simulated those cycles (other phases' wall time is not divided in).
    /// Zero when the phase is absent or took no measurable time.
    pub fn cycles_per_sec(&self, phase: &str, simulated_cycles: u64) -> f64 {
        match self.phases.iter().find(|p| p.name == phase) {
            Some(p) if p.wall_seconds > 0.0 => simulated_cycles as f64 / p.wall_seconds,
            _ => 0.0,
        }
    }
}

impl ToJson for HostProfile {
    fn to_json(&self) -> JsonValue {
        let phases: Vec<JsonValue> = self
            .phases
            .iter()
            .map(|p| {
                JsonValue::obj()
                    .field("name", p.name.as_str())
                    .field("wall_seconds", p.wall_seconds)
                    .build()
            })
            .collect();
        let runs: Vec<JsonValue> = self
            .runs
            .iter()
            .map(|r| {
                JsonValue::obj()
                    .field("name", r.name.as_str())
                    .field("wall_seconds", r.wall_seconds)
                    .build()
            })
            .collect();
        JsonValue::obj()
            .field("phases", JsonValue::Arr(phases))
            .field("runs", JsonValue::Arr(runs))
            .field("total_seconds", self.total_seconds)
            .field("peak_rss_bytes", self.peak_rss_bytes)
            .build()
    }
}

/// Accumulates phase timings; one instance per profiled run.
#[derive(Debug)]
pub struct HostProfiler {
    started: Instant,
    phases: Vec<PhaseTiming>,
    runs: Vec<RunTiming>,
    current: Option<(String, Instant)>,
}

impl Default for HostProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl HostProfiler {
    /// Starts the profiler (total clock begins now).
    pub fn new() -> Self {
        HostProfiler {
            started: Instant::now(),
            phases: Vec::new(),
            runs: Vec::new(),
            current: None,
        }
    }

    /// Records one named run's wall-clock seconds (measured by the caller,
    /// e.g. on a sweep worker thread).
    pub fn run_timing(&mut self, name: &str, wall_seconds: f64) {
        self.runs.push(RunTiming { name: name.to_string(), wall_seconds });
    }

    /// Begins a named phase, closing the previous one if still open.
    pub fn phase(&mut self, name: &str) {
        self.close_current();
        self.current = Some((name.to_string(), Instant::now()));
    }

    fn close_current(&mut self) {
        if let Some((name, at)) = self.current.take() {
            self.phases.push(PhaseTiming { name, wall_seconds: at.elapsed().as_secs_f64() });
        }
    }

    /// Closes any open phase and returns the finished profile.
    pub fn finish(mut self) -> HostProfile {
        self.close_current();
        HostProfile {
            phases: self.phases,
            runs: self.runs,
            total_seconds: self.started.elapsed().as_secs_f64(),
            peak_rss_bytes: peak_rss_bytes(),
        }
    }
}

/// Peak resident set size of this process in bytes, from the `VmHWM` line
/// of `/proc/self/status`. Returns `None` off Linux or when the read fails.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

/// Parses the `VmHWM:   123456 kB` line out of a `/proc/<pid>/status` dump.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_in_order() {
        let mut p = HostProfiler::new();
        p.phase("build");
        p.phase("run"); // closes "build"
        let prof = p.finish(); // closes "run"
        let names: Vec<&str> = prof.phases.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, vec!["build", "run"]);
        assert!(prof.phases.iter().all(|x| x.wall_seconds >= 0.0));
        assert!(prof.total_seconds >= 0.0);
    }

    #[test]
    fn parse_vm_hwm_extracts_kilobytes() {
        let status = "Name:\tfoo\nVmPeak:\t  999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 10 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(123456 * 1024));
        assert_eq!(parse_vm_hwm("Name:\tfoo\n"), None);
    }

    #[test]
    fn cycles_per_sec_divides_by_the_producing_phase_only() {
        let phase = |name: &str, wall_seconds| PhaseTiming { name: name.into(), wall_seconds };
        let prof = HostProfile {
            phases: vec![phase("sweep", 2.0), phase("scaling", 30.0), phase("report", 0.0)],
            runs: vec![],
            total_seconds: 32.0,
            peak_rss_bytes: None,
        };
        assert_eq!(prof.cycles_per_sec("sweep", 1000), 500.0);
        assert_eq!(prof.cycles_per_sec("report", 1000), 0.0, "zero-time phase");
        assert_eq!(prof.cycles_per_sec("protocols", 1000), 0.0, "absent phase");
    }

    #[test]
    fn profile_serializes_with_null_rss() {
        let prof = HostProfile {
            phases: vec![PhaseTiming { name: "run".into(), wall_seconds: 1.5 }],
            runs: vec![RunTiming { name: "FFT.base".into(), wall_seconds: 1.0 }],
            total_seconds: 1.5,
            peak_rss_bytes: None,
        };
        let dump = prof.to_json().dump();
        assert!(dump.contains("\"peak_rss_bytes\":null"), "{dump}");
        assert!(dump.contains("\"name\":\"run\""), "{dump}");
        assert!(dump.contains("\"name\":\"FFT.base\""), "{dump}");
    }
}
