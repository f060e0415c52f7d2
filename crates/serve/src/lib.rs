//! `pi-serve` — a batched characterization-and-sizing service over the
//! predictive interconnect models, with a synthetic-traffic load generator.
//!
//! The one-shot CLI pays full model warm-up per invocation and answers
//! one query at a time. This crate turns the same engines into a
//! long-lived local service:
//!
//! - a hand-rolled HTTP/1.1 layer ([`http`]) and JSON codec ([`json`])
//!   over `std::net` — zero external dependencies, like everything else
//!   in the workspace;
//! - typed request/response bodies ([`api`]) whose encode→decode round
//!   trip is bit-exact, so served numbers can be compared against
//!   in-process ones without tolerance;
//! - a warm store ([`store`]) of per-technology-node contexts (calibrated
//!   models, cached buffering plans, cached synthesized networks);
//! - **request batching** ([`batch`]): requests parsed since the last
//!   batch drain from a bounded queue and coalesce into single
//!   structure-of-arrays sweeps through `pi-core`/`pi-cosi` batch entry
//!   points, bit-identical to one-shot evaluation;
//! - the serving loop ([`server`]): one `poll(2)`-driven thread that
//!   multiplexes every connection and executes each batch at the top of
//!   its loop (a panicking batch answers `500` and the loop keeps
//!   serving), load-aware admission control that sheds expensive queries
//!   with 503 + `Retry-After` before cheap evals, cooperative shutdown,
//!   and `pi-obs` spans/counters on every wakeup and batch;
//! - live telemetry: rolling-window metrics behind a zero-dependency
//!   Prometheus `GET /metrics` endpoint, per-request phase tracing
//!   (parse → queue → compute → render → flush) into `serve.phase.*`
//!   windowed histograms, and an optional JSONL access log
//!   (`PI_SERVE_ACCESS_LOG`) with a slow-request phase breakdown;
//! - a load generator ([`load`]) replaying synthetic traffic whose wire
//!   lengths follow the Davis stochastic wiring distribution
//!   ([`traffic`]), reporting p50/p99 latency, achieved QPS, batch sizes
//!   and cache hit rate.
//!
//! # Examples
//!
//! ```
//! use pi_serve::config::ServeConfig;
//! use pi_serve::load::{run_load, LoadConfig};
//! use pi_serve::server::Server;
//!
//! let mut server = Server::start(&ServeConfig {
//!     port: 0, // ephemeral
//!     ..ServeConfig::default()
//! })
//! .unwrap();
//! let report = run_load(&LoadConfig {
//!     addr: server.addr().to_string(),
//!     qps: 200.0,
//!     duration_s: 0.2,
//!     concurrency: 2,
//!     ..LoadConfig::default()
//! })
//! .unwrap();
//! assert_eq!(report.errors, 0);
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod api;
pub mod batch;
pub mod config;
pub mod http;
#[cfg(unix)]
mod io_loop;
pub mod load;
pub mod server;
pub mod store;
mod telemetry;
pub mod traffic;

pub use api::{ApiRequest, ApiResponse};
pub use batch::{execute_batch, Batcher, PhaseTiming};
pub use config::ServeConfig;
pub use load::{run_load, Client, LoadConfig, LoadReport, StatusLatency};
pub use pi_obs::json;
pub use server::{install_shutdown_signals, signalled, Server, ServerStats};
pub use store::{NodeContext, NodeStore};
pub use traffic::TrafficGen;
