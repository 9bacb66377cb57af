//! Structured, machine-readable service errors.
//!
//! Every failure mode a client can trigger maps to a distinct stable
//! `code` string (and an HTTP status), so load generators and operators can
//! classify failures without parsing prose. The JSON body shape is fixed:
//!
//! ```json
//! {"schema_version":2,"tool":"dresar-serve",
//!  "error":{"code":"bad_sd_size","status":400,"detail":"..."}}
//! ```
//!
//! This extends the PR 3 philosophy of surfacing `SimError`s instead of
//! crashing to the service boundary: a malformed request, an out-of-range
//! configuration or an overloaded queue each produce a structured document,
//! never a connection drop or a hang.

use dresar_types::{JsonValue, ToJson};

/// One classified service error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request body is not parseable JSON.
    BadJson(String),
    /// The run spec names a field the server does not know (likely a typo
    /// that would otherwise silently fall back to a default — and silently
    /// split the cache once the field is learned).
    UnknownField(String),
    /// A known field has the wrong type or a malformed value.
    BadField(String),
    /// Unknown workload label.
    BadWorkload(String),
    /// Unknown scale preset.
    BadScale(String),
    /// Node count the topology cannot realize.
    BadTopology(String),
    /// Switch-directory geometry that fails validation.
    BadSdSize(String),
    /// Malformed fault-plan spec.
    BadFaults(String),
    /// A fault plan on a trace-driven workload (no message system to
    /// inject into).
    FaultsUnsupported(String),
    /// The connection closed before `Content-Length` bytes arrived.
    TruncatedBody {
        /// Bytes promised by the `Content-Length` header.
        expected: usize,
        /// Bytes actually received before EOF.
        got: usize,
    },
    /// Malformed HTTP framing (bad request line, missing headers, ...).
    BadRequest(String),
    /// Body larger than the server accepts.
    BodyTooLarge(usize),
    /// No route matches the request path.
    NotFound(String),
    /// The path exists but not for this method.
    MethodNotAllowed(String),
    /// The bounded admission queue is full: the request was shed.
    Overloaded {
        /// The queue bound that was hit.
        queue_depth: usize,
    },
    /// `GET /debug/flight` before any anomalous run deposited a dump.
    FlightUnavailable,
    /// The server is draining for shutdown.
    ShuttingDown,
    /// The engine execution panicked. The panic was contained by its
    /// worker (the pool keeps serving); this request reports the failure
    /// structurally, with the digest so operators can reproduce it.
    JobPanicked {
        /// Hex digest of the spec whose execution panicked.
        digest: String,
        /// The stringified panic payload.
        message: String,
    },
    /// The request's compute deadline passed before a result was ready
    /// (either expired while still queued — enforced at dequeue, without
    /// burning a worker — or while waiting on a coalesced execution).
    DeadlineExceeded {
        /// The effective deadline in milliseconds (after the server cap).
        deadline_ms: u64,
        /// Where the deadline expired: `"queued"` or `"waiting"`.
        at: &'static str,
    },
}

impl ServeError {
    /// The stable machine-readable error code.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::BadJson(_) => "bad_json",
            ServeError::UnknownField(_) => "unknown_field",
            ServeError::BadField(_) => "bad_field",
            ServeError::BadWorkload(_) => "bad_workload",
            ServeError::BadScale(_) => "bad_scale",
            ServeError::BadTopology(_) => "bad_topology",
            ServeError::BadSdSize(_) => "bad_sd_size",
            ServeError::BadFaults(_) => "bad_faults",
            ServeError::FaultsUnsupported(_) => "faults_unsupported",
            ServeError::TruncatedBody { .. } => "truncated_body",
            ServeError::BadRequest(_) => "bad_request",
            ServeError::BodyTooLarge(_) => "body_too_large",
            ServeError::NotFound(_) => "not_found",
            ServeError::MethodNotAllowed(_) => "method_not_allowed",
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::FlightUnavailable => "no_flight_dump",
            ServeError::ShuttingDown => "shutting_down",
            ServeError::JobPanicked { .. } => "internal_panic",
            ServeError::DeadlineExceeded { .. } => "deadline_exceeded",
        }
    }

    /// The HTTP status the error is served with.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::NotFound(_) | ServeError::FlightUnavailable => 404,
            ServeError::MethodNotAllowed(_) => 405,
            ServeError::BodyTooLarge(_) => 413,
            ServeError::Overloaded { .. } => 429,
            ServeError::ShuttingDown | ServeError::DeadlineExceeded { .. } => 503,
            ServeError::JobPanicked { .. } => 500,
            _ => 400,
        }
    }

    /// `Retry-After` seconds for retryable failures: transient conditions
    /// (a shed request, a draining server, an expired deadline) advertise
    /// when trying again is reasonable; permanent failures return `None`
    /// and get no header.
    pub fn retry_after(&self) -> Option<u64> {
        match self {
            ServeError::Overloaded { .. }
            | ServeError::ShuttingDown
            | ServeError::DeadlineExceeded { .. } => Some(1),
            _ => None,
        }
    }

    /// Human-readable detail line.
    pub fn detail(&self) -> String {
        match self {
            ServeError::BadJson(d)
            | ServeError::UnknownField(d)
            | ServeError::BadField(d)
            | ServeError::BadWorkload(d)
            | ServeError::BadScale(d)
            | ServeError::BadTopology(d)
            | ServeError::BadSdSize(d)
            | ServeError::BadFaults(d)
            | ServeError::FaultsUnsupported(d)
            | ServeError::BadRequest(d)
            | ServeError::NotFound(d)
            | ServeError::MethodNotAllowed(d) => d.clone(),
            ServeError::TruncatedBody { expected, got } => {
                format!("body truncated: Content-Length {expected} but only {got} bytes arrived")
            }
            ServeError::BodyTooLarge(limit) => {
                format!("request body exceeds the {limit}-byte limit")
            }
            ServeError::Overloaded { queue_depth } => {
                format!("admission queue full (bound {queue_depth}); request shed, retry later")
            }
            ServeError::FlightUnavailable => {
                "no flight-recorder dump recorded yet (no anomalous run has completed)".to_string()
            }
            ServeError::ShuttingDown => "server is draining for shutdown".to_string(),
            ServeError::JobPanicked { digest, message } => {
                format!("execution for digest {digest} panicked (worker contained it): {message}")
            }
            ServeError::DeadlineExceeded { deadline_ms, at } => {
                format!("compute deadline of {deadline_ms} ms expired while {at}")
            }
        }
    }

    /// The complete JSON error document this error is served as.
    pub fn body(&self) -> String {
        let mut text = dresar_bench::json_doc("dresar-serve")
            .field(
                "error",
                JsonValue::obj()
                    .field("code", self.code())
                    .field("status", self.status())
                    .field("detail", self.detail().as_str())
                    .build(),
            )
            .build()
            .dump();
        text.push('\n');
        text
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code(), self.detail())
    }
}

impl std::error::Error for ServeError {}

impl ToJson for ServeError {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .field("code", self.code())
            .field("status", self.status())
            .field("detail", self.detail().as_str())
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_error_code_is_distinct() {
        let all = [
            ServeError::BadJson(String::new()),
            ServeError::UnknownField(String::new()),
            ServeError::BadField(String::new()),
            ServeError::BadWorkload(String::new()),
            ServeError::BadScale(String::new()),
            ServeError::BadTopology(String::new()),
            ServeError::BadSdSize(String::new()),
            ServeError::BadFaults(String::new()),
            ServeError::FaultsUnsupported(String::new()),
            ServeError::TruncatedBody { expected: 1, got: 0 },
            ServeError::BadRequest(String::new()),
            ServeError::BodyTooLarge(0),
            ServeError::NotFound(String::new()),
            ServeError::MethodNotAllowed(String::new()),
            ServeError::Overloaded { queue_depth: 1 },
            ServeError::FlightUnavailable,
            ServeError::ShuttingDown,
            ServeError::JobPanicked { digest: String::new(), message: String::new() },
            ServeError::DeadlineExceeded { deadline_ms: 1, at: "queued" },
        ];
        let mut codes: Vec<&str> = all.iter().map(ServeError::code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), all.len(), "error codes must be pairwise distinct");
    }

    #[test]
    fn retryable_errors_advertise_retry_after() {
        assert_eq!(ServeError::Overloaded { queue_depth: 4 }.retry_after(), Some(1));
        assert_eq!(ServeError::ShuttingDown.retry_after(), Some(1));
        assert_eq!(
            ServeError::DeadlineExceeded { deadline_ms: 10, at: "queued" }.retry_after(),
            Some(1)
        );
        assert_eq!(ServeError::BadJson(String::new()).retry_after(), None);
        assert_eq!(
            ServeError::JobPanicked { digest: String::new(), message: String::new() }.retry_after(),
            None,
            "a deterministic panic will panic again; advertising a retry would be a lie"
        );
    }

    #[test]
    fn error_body_is_machine_readable() {
        let body = ServeError::Overloaded { queue_depth: 8 }.body();
        let doc = JsonValue::parse(&body).expect("error body parses");
        let err = doc.get("error").expect("has error object");
        assert_eq!(err.get("code").and_then(JsonValue::as_str), Some("overloaded"));
        assert_eq!(err.get("status").and_then(JsonValue::as_u64), Some(429));
        assert_eq!(
            doc.get("schema_version").and_then(JsonValue::as_u64),
            Some(dresar_types::SCHEMA_VERSION as u64)
        );
    }
}
