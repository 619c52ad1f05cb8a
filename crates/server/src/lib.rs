//! # gsql-serve — a concurrent query service over `gsql-core`
//!
//! A long-running, multi-client HTTP service for the GSQL-subset engine:
//! accept queries over the wire, execute them against one shared
//! in-memory graph, and stay predictable under load.
//!
//! Everything is built on `std` only (no external network crates):
//! blocking sockets from [`std::net`], a hand-rolled minimal HTTP/1.1
//! layer ([`http`]) that sends every message in one write call, and a
//! hand-rolled JSON codec ([`json`]).
//!
//! The moving parts:
//! * [`server`] — acceptor, bounded worker pool, a per-connection socket
//!   registry (drain half-closes it; a watchdog thread peeks the
//!   connections running a query and cancels those whose client left),
//!   graceful drain-then-shutdown;
//! * [`admission`] — bounded connection queue (503 on overflow), a
//!   non-blocking concurrent-query gate (429 when saturated), and
//!   per-request [`gsql_core::Budget`]s derived from server defaults
//!   clamped by `x-gsql-*` request headers;
//! * [`plan_cache`] — parse-once plan cache keyed by source fingerprint,
//!   LRU-evicted, with pinned prepared statements
//!   (`POST /prepare` → `POST /execute/{id}`);
//! * [`metrics`] — lock-free counters, a log₂ latency histogram and
//!   aggregated [`gsql_core::ResourceReport`] totals, served by
//!   `GET /metrics`;
//! * [`handlers`] — endpoint routing and the error→status mapping.
//!
//! The graph is a [`pgraph::wal::LiveGraph`]: every request pins an
//! immutable snapshot (`Arc<Graph>`) and builds a throwaway
//! [`gsql_core::Engine`] view with its own budget and cancellation
//! handle, which is cheap (the snapshot is borrowed, never copied).
//! `POST /mutate` commits INSERT/UPDATE/DELETE batches through the
//! write-ahead log; with `--data-dir` they survive crashes
//! (docs/DURABILITY.md).

pub mod admission;
pub mod client;
pub mod config;
pub mod handlers;
pub mod http;
pub mod json;
pub mod metrics;
pub mod plan_cache;
pub mod server;

pub use config::{load_graph, parse_args, ServerConfig};
pub use server::{Server, Shared};
