//! # dresar-workloads
//!
//! Workload generators for the `dresar` simulators, reproducing the
//! paper's evaluation mix (§2, §5.1):
//!
//! * [`scientific`] — the five numerical kernels, implemented as *real*
//!   shared-memory computations whose every load/store to the shared arrays
//!   is recorded into per-processor reference streams (execution-driven in
//!   spirit, like the paper's RSIM runs):
//!   - Fast Fourier Transform ([`scientific::fft`]),
//!   - Successive Over-Relaxation ([`scientific::sor`]),
//!   - Transitive Closure ([`scientific::tc`]),
//!   - Floyd–Warshall all-pairs shortest paths ([`scientific::fwa`]),
//!   - Gaussian Elimination ([`scientific::gauss`]).
//! * [`commercial`] — synthetic TPC-C (OLTP) and TPC-D (DSS) memory-
//!   reference traces. The paper used proprietary IBM COMPASS traces; the
//!   generator is calibrated to the published characteristics instead (see
//!   DESIGN.md's substitution table): hot-block skew (Figure 2) and the
//!   38% / 62% dirty-read fractions (Figure 1).
//! * [`builder`] — the stream-recording substrate shared by all kernels.
//! * [`scale`] — paper-scale vs reduced vs test-size presets.

#![warn(missing_docs)]

pub mod builder;
pub mod commercial;
pub mod scale;
pub mod scientific;

pub use builder::StreamRecorder;
pub use scale::Scale;

use dresar_types::Workload;

/// The paper's seven applications (§5.1) by label: the five scientific
/// kernels, then the two commercial traces.
pub const APPS: [&str; 7] = ["FFT", "TC", "SOR", "FWA", "GAUSS", "TPC-C", "TPC-D"];

/// Whether `app` is one of the commercial traces (TPC-C, TPC-D), which the
/// paper simulates trace-driven rather than execution-driven.
pub fn is_commercial(app: &str) -> bool {
    matches!(app, "TPC-C" | "TPC-D")
}

/// Generates application `app` (an [`APPS`] label) for `processors`
/// processors at `scale`. Scientific kernels are pure functions of
/// (processors, scale); the commercial traces also fold in `seed`. `None`
/// for an unknown label.
pub fn generate(app: &str, processors: usize, scale: Scale, seed: u64) -> Option<Workload> {
    let p = processors;
    Some(match app {
        "FFT" => scientific::fft(p, scale.fft_points()),
        "TC" => scientific::tc(p, scale.matrix_n()),
        "SOR" => scientific::sor(p, scale.grid_n(), scale.sor_iters()),
        "FWA" => scientific::fwa(p, scale.matrix_n()),
        "GAUSS" => scientific::gauss(p, scale.matrix_n()),
        "TPC-C" => commercial::tpcc(p, scale.commercial_refs(), seed),
        "TPC-D" => commercial::tpcd(p, scale.commercial_refs(), seed ^ 0x9e37_79b9),
        _ => return None,
    })
}

/// Generates the paper's five scientific workloads at the given scale.
pub fn scientific_suite(processors: usize, scale: Scale) -> Vec<Workload> {
    APPS.iter()
        .filter(|a| !is_commercial(a))
        .filter_map(|a| generate(a, processors, scale, 0))
        .collect()
}

/// Generates the two commercial workloads at the given scale.
pub fn commercial_suite(processors: usize, scale: Scale, seed: u64) -> Vec<Workload> {
    APPS.iter()
        .filter(|a| is_commercial(a))
        .filter_map(|a| generate(a, processors, scale, seed))
        .collect()
}
