//! Turning a validated [`RunSpec`] into a served JSON document.
//!
//! Validation is split from execution on purpose: the server validates
//! *before* admission (so malformed requests are rejected instantly with a
//! structured error and never occupy a queue slot or an engine worker), and
//! executes only specs that are guaranteed to configure cleanly.
//!
//! The served body is the existing report document — an
//! [`dresar::system::ExecutionReport`] for the five scientific workloads
//! (execution-driven, Table 2) or a [`dresar_trace_sim::TraceReport`] for
//! the two commercial traces (trace-driven, Table 3) — wrapped in the
//! workspace's standard schema-versioned envelope together with the spec
//! echo and its digest. Bodies are fully deterministic (host profiling is
//! never included), which is what lets the cache serve them byte-identical
//! to a fresh run.

use crate::error::ServeError;
use dresar::system::{RunOptions, System};
use dresar::TransientReadPolicy;
use dresar_faults::{FaultPlan, WatchdogConfig};
use dresar_trace_sim::TraceSimulator;
use dresar_types::config::{SwitchDirConfig, SystemConfig, TraceSimConfig};
use dresar_types::{RunSpec, ToJson, Workload};
use dresar_workloads::{commercial, scientific, Scale};

/// Which simulator a workload label runs on (mirrors the machines of
/// `dresar_bench::plan::suite`, but resolved from a request instead of the
/// fixed suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Fft,
    Tc,
    Sor,
    Fwa,
    Gauss,
    Tpcc,
    Tpcd,
}

impl Kind {
    fn parse(label: &str) -> Option<Kind> {
        match label {
            "FFT" => Some(Kind::Fft),
            "TC" => Some(Kind::Tc),
            "SOR" => Some(Kind::Sor),
            "FWA" => Some(Kind::Fwa),
            "GAUSS" => Some(Kind::Gauss),
            "TPC-C" => Some(Kind::Tpcc),
            "TPC-D" => Some(Kind::Tpcd),
            _ => None,
        }
    }

    fn is_trace_driven(self) -> bool {
        matches!(self, Kind::Tpcc | Kind::Tpcd)
    }
}

/// A spec that passed every admission-time check and is ready to execute.
#[derive(Debug, Clone)]
pub struct ValidatedSpec {
    spec: RunSpec,
    kind: Kind,
    scale: Scale,
    sd: Option<SwitchDirConfig>,
    faults: Option<FaultPlan>,
}

/// Checks everything about a spec that can fail, mapping each failure to
/// its distinct machine-readable [`ServeError`].
pub fn validate(spec: &RunSpec) -> Result<ValidatedSpec, ServeError> {
    let kind = Kind::parse(&spec.workload).ok_or_else(|| {
        ServeError::BadWorkload(format!(
            "unknown workload '{}'; expected FFT|TC|SOR|FWA|GAUSS|TPC-C|TPC-D",
            spec.workload
        ))
    })?;
    let scale = Scale::parse(&spec.scale).ok_or_else(|| {
        ServeError::BadScale(format!("unknown scale '{}'; expected tiny|reduced|paper", spec.scale))
    })?;
    let sd = spec
        .sd_entries
        .map(|entries| {
            let sd = SwitchDirConfig { entries, ..SwitchDirConfig::paper_default() };
            sd.validate().map_err(ServeError::BadSdSize).map(|()| sd)
        })
        .transpose()?;
    // The full config check (node count vs switch radix, cache geometry)
    // runs against the simulator the workload will actually use.
    if kind.is_trace_driven() {
        if let Some(p) = spec.protocol.filter(|&p| p != dresar_types::Protocol::Msi) {
            return Err(ServeError::BadField(format!(
                "workload '{}' is trace-driven (constant-latency model, MSI only; \
                 protocol '{p}' needs the execution-driven simulator)",
                spec.workload
            )));
        }
        let mut cfg = TraceSimConfig::paper_table3();
        cfg.nodes = spec.nodes as usize;
        cfg.switch_dir = sd;
        cfg.validate().map_err(ServeError::BadTopology)?;
    } else {
        let mut cfg = SystemConfig::paper_table2();
        cfg.nodes = spec.nodes as usize;
        cfg.switch_dir = sd;
        cfg.validate().map_err(ServeError::BadTopology)?;
    }
    let faults = match &spec.faults {
        None => None,
        Some(plan) if kind.is_trace_driven() => {
            return Err(ServeError::FaultsUnsupported(format!(
                "workload '{}' is trace-driven (constant-latency model, no message system to \
                 inject '{plan}' into)",
                spec.workload
            )));
        }
        Some(plan) => Some(
            FaultPlan::parse(plan)
                .map_err(|e| ServeError::BadFaults(format!("bad fault plan '{plan}': {e}")))?,
        ),
    };
    Ok(ValidatedSpec { spec: spec.clone(), kind, scale, sd, faults })
}

impl ValidatedSpec {
    /// The underlying request.
    pub fn spec(&self) -> &RunSpec {
        &self.spec
    }

    /// Generates the workload streams for this request. Scientific kernels
    /// are pure functions of (processors, scale); commercial traces also
    /// fold in the request seed, exactly like the bench suite.
    fn workload(&self) -> Workload {
        let p = self.spec.nodes as usize;
        match self.kind {
            Kind::Fft => scientific::fft(p, self.scale.fft_points()),
            Kind::Tc => scientific::tc(p, self.scale.matrix_n()),
            Kind::Sor => scientific::sor(p, self.scale.grid_n(), self.scale.sor_iters()),
            Kind::Fwa => scientific::fwa(p, self.scale.matrix_n()),
            Kind::Gauss => scientific::gauss(p, self.scale.matrix_n()),
            Kind::Tpcc => commercial::tpcc(p, self.scale.commercial_refs(), self.spec.seed),
            Kind::Tpcd => {
                commercial::tpcd(p, self.scale.commercial_refs(), self.spec.seed ^ 0x9e37_79b9)
            }
        }
    }

    /// Runs the simulation and serializes the complete response body
    /// (trailing newline included). Deterministic: equal specs produce
    /// byte-identical bodies.
    pub fn execute(&self) -> Result<String, ServeError> {
        self.execute_full(false).map(|out| out.body)
    }

    /// [`ValidatedSpec::execute`] plus the observability side channels:
    /// the flight-recorder dump when the run was anomalous, and — when
    /// `traced` — the simulator's Chrome-trace document, pulled out of the
    /// report so the body itself stays identical to an untraced run.
    pub fn execute_full(&self, traced: bool) -> Result<ExecOutput, ServeError> {
        let workload = self.workload();
        let mut flight = None;
        let mut trace = None;
        let (driver, report_json) = if self.kind.is_trace_driven() {
            let mut cfg = TraceSimConfig::paper_table3();
            cfg.nodes = self.spec.nodes as usize;
            cfg.switch_dir = self.sd;
            let report = TraceSimulator::new(cfg).run(&workload);
            ("trace", report.to_json())
        } else {
            let mut cfg = SystemConfig::paper_table2();
            cfg.nodes = self.spec.nodes as usize;
            cfg.switch_dir = self.sd;
            cfg.protocol = self.spec.protocol.unwrap_or_default();
            let mut options = RunOptions {
                transient_policy: TransientReadPolicy::Retry,
                faults: self.faults,
                watchdog: self.faults.as_ref().map(|_| WatchdogConfig::default()),
                verify_coherence: self.faults.is_some(),
                ..RunOptions::default()
            };
            options.observers.trace = traced;
            let mut report = System::new(cfg, &workload).run(options);
            if let Some(obs) = report.obs.as_mut() {
                flight = obs.flight.as_ref().map(|f| f.to_json().dump());
                trace = obs.trace.take();
                if obs.is_empty() {
                    report.obs = None;
                }
            }
            ("execution", report.to_json())
        };
        let mut body = dresar_bench::json_doc("dresar-serve")
            .field("digest", self.spec.digest_hex().as_str())
            .field("driver", driver)
            .field("spec", self.spec.to_json())
            .field("report", report_json)
            .build()
            .dump();
        body.push('\n');
        Ok(ExecOutput { body, flight, trace })
    }
}

/// Everything one execution yields beyond its serialized body.
#[derive(Debug, Clone)]
pub struct ExecOutput {
    /// The complete response body (trailing newline included).
    pub body: String,
    /// Serialized flight-recorder dump, present when the run was anomalous
    /// (watchdog trip, coherence failure, lost messages, sim errors).
    pub flight: Option<String>,
    /// The simulator's Chrome-trace event document, present when tracing
    /// was requested (execution-driven workloads only — the trace-driven
    /// model has no message system to trace).
    pub trace: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_validates() {
        let v = validate(&RunSpec::default()).expect("default spec is servable");
        assert_eq!(v.kind, Kind::Fft);
        assert_eq!(v.scale, Scale::Tiny);
    }

    #[test]
    fn each_semantic_failure_gets_its_own_code() {
        let cases: Vec<(RunSpec, &str)> = vec![
            (RunSpec { workload: "LINPACK".into(), ..RunSpec::default() }, "bad_workload"),
            (RunSpec { scale: "huge".into(), ..RunSpec::default() }, "bad_scale"),
            (RunSpec { nodes: 12, ..RunSpec::default() }, "bad_topology"),
            (RunSpec { sd_entries: Some(100), ..RunSpec::default() }, "bad_sd_size"),
            (RunSpec { faults: Some("warp=9".into()), ..RunSpec::default() }, "bad_faults"),
            (
                RunSpec {
                    workload: "TPC-C".into(),
                    faults: Some("drop_ppm=10".into()),
                    ..RunSpec::default()
                },
                "faults_unsupported",
            ),
        ];
        for (spec, code) in cases {
            let err = validate(&spec).expect_err("spec must be rejected");
            assert_eq!(err.code(), code, "spec {spec:?}");
        }
    }

    #[test]
    fn protocol_threads_through_and_trace_driven_rejects() {
        let spec = RunSpec { protocol: Some(dresar_types::Protocol::Mesi), ..RunSpec::default() };
        validate(&spec).expect("execution-driven spec accepts a protocol override");

        let trace = RunSpec {
            workload: "TPC-C".into(),
            protocol: Some(dresar_types::Protocol::Mesi),
            ..RunSpec::default()
        };
        let err = validate(&trace).expect_err("trace-driven spec must reject non-MSI protocols");
        assert_eq!(err.code(), "bad_field");

        let trace_msi = RunSpec {
            workload: "TPC-C".into(),
            protocol: Some(dresar_types::Protocol::Msi),
            ..RunSpec::default()
        };
        validate(&trace_msi).expect("explicit MSI matches the trace-driven default");
    }

    #[test]
    fn execution_is_deterministic_per_digest() {
        let spec = RunSpec { sd_entries: Some(256), ..RunSpec::default() };
        let a = validate(&spec).unwrap().execute().unwrap();
        let b = validate(&spec).unwrap().execute().unwrap();
        assert_eq!(a, b, "equal specs must serialize byte-identically");
        let doc = dresar_types::JsonValue::parse(&a).unwrap();
        assert_eq!(
            doc.get("digest").and_then(dresar_types::JsonValue::as_str),
            Some(spec.digest_hex().as_str())
        );
        assert!(doc.get("report").and_then(|r| r.get("cycles")).is_some());
    }

    #[test]
    fn trace_driven_workloads_serve_trace_reports() {
        let spec = RunSpec { workload: "TPC-C".into(), ..RunSpec::default() };
        let body = validate(&spec).unwrap().execute().unwrap();
        let doc = dresar_types::JsonValue::parse(&body).unwrap();
        assert_eq!(doc.get("driver").and_then(dresar_types::JsonValue::as_str), Some("trace"));
        assert!(doc.get("report").and_then(|r| r.get("exec_cycles")).is_some());
    }
}
