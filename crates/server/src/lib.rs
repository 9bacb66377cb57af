//! `dresar-server` — a concurrent simulation service over the DReSAR
//! engines.
//!
//! The workspace's simulators are deterministic batch programs; this crate
//! puts a serving boundary in front of them so a run becomes a `POST /run`
//! request instead of a process launch. Three mechanisms make the service
//! efficient under concurrent load, each leaning on determinism:
//!
//! - **Content-addressed caching** ([`cache`]): a run request canonicalizes
//!   to a [`dresar_types::RunSpec`] digest; equal specs produce
//!   byte-identical reports, so a bounded LRU of finished bodies serves
//!   repeats without re-simulating — and a cache hit is provably
//!   indistinguishable from a re-run.
//! - **Request coalescing** ([`serve`]): concurrent requests for the same
//!   digest attach to one in-flight execution; N clients cost one engine
//!   run and all N receive byte-identical bodies.
//! - **Bounded admission** ([`serve`] via [`pool::ServicePool`]): a
//!   fixed-depth queue sheds
//!   excess load with structured 429 `overloaded` errors instead of
//!   accepting unbounded work, and drains gracefully on shutdown.
//!
//! The HTTP layer ([`http`]) is a hand-rolled HTTP/1.1 subset over
//! `std::net` — dependency-free, matching the workspace's hand-rolled JSON.
//! [`client`] is the matching client and load generator; [`error`] defines
//! the machine-readable error vocabulary; [`run`] resolves validated specs
//! to `dresar_bench` run-plan entries, which the plan's runner executes on
//! the execution-driven or trace-driven simulator.
//!
//! Quickstart (also see `examples/serve_quickstart.rs` and the README):
//!
//! ```no_run
//! use dresar_server::serve::{Server, ServerConfig};
//!
//! let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let addr = server.local_addr().to_string();
//! let resp = dresar_server::client::post_run(
//!     &addr,
//!     r#"{"workload":"FFT","scale":"tiny","nodes":16,"seed":7}"#,
//! )
//! .unwrap();
//! assert_eq!(resp.status, 200);
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod client;
pub mod error;
pub mod http;
pub mod pool;
pub mod run;
pub mod serve;
pub mod store;

pub use cache::ResultCache;
pub use chaos::{ServeChaos, ServeFaultPlan};
pub use client::{
    http_request, post_run, post_run_retry, run_load, HttpResponse, LoadOptions, LoadReport,
    RetryPolicy,
};
pub use error::ServeError;
pub use run::{validate, ValidatedSpec};
pub use serve::{Server, ServerConfig};
pub use store::{ResultStore, StoreError};
