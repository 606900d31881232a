//! # Sweep-as-a-service daemon
//!
//! A thin network layer over the simulator's session-oriented streaming
//! core ([`tlabp_sim::Session`]): clients serialize a
//! [`Plan`](tlabp_sim::plan::Plan) onto a line-delimited, checksummed
//! wire protocol ([`proto`]) and receive result frames streamed back in
//! plan order as jobs finish, followed by a terminal `done` frame.
//!
//! * [`proto`] — the frame format: `TLBS <version> <kind> <len>
//!   <payload> <checksum>`, versioned and checksummed like the trace
//!   artifact container, with a precise rejection taxonomy
//!   ([`proto::FrameError`]), plus the byte-stream reassembly state
//!   machine ([`proto::FrameAssembler`]) the event-driven core reads
//!   through.
//! * [`server`] — [`server::SweepServer`]: one warm
//!   [`TraceStore`](tlabp_sim::TraceStore) and the global worker pool
//!   shared across all connections, served by an event-driven
//!   readiness loop ([`event`]: `poll(2)` over a poll set rebuilt every
//!   turn) from a fixed set of threads, with per-client admission control
//!   ([`INFLIGHT`] plans in flight per connection, FIFO beyond; each
//!   plan holds at most twice the pool width of tasks in the shared
//!   queue) and bounded per-connection output queues. The daemon needs
//!   a unix host: on any other, binding fails with
//!   [`std::io::ErrorKind::Unsupported`]. Its [`ServeConfig`] comes from
//!   the `TLABP_SERVE_*` knobs, read by [`tlabp_core::env`].
//! * memo tiers — a byte-capped LRU (`TLABP_SERVE_MEMO_BYTES`) of
//!   pre-encoded response frames replayed byte-for-byte with zero
//!   simulation work, persisted as v3 artifact containers (text
//!   sections) next to the trace artifacts and re-hydrated on daemon
//!   start, so a
//!   restarted daemon still answers previously-seen plans without
//!   simulating.
//! * [`client`] — [`client::Client`]: submit plans, iterate streamed
//!   outcomes, or drain a whole response into a
//!   [`ResultSet`](tlabp_sim::ResultSet) bit-identical to an in-process
//!   [`Session::run`](tlabp_sim::Session::run) of the same plan.
//!
//! Unsafe code is confined to one block, the raw `poll` call in
//! [`event`]; every other module keeps the workspace-wide
//! `deny(unsafe_code)` discipline.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
#[cfg(unix)]
pub mod event;
mod memo;
pub mod proto;
pub mod server;

pub use client::{Client, ResultStream};
pub use proto::{Done, FrameError, FrameKind, PROTOCOL_VERSION};
pub use server::{serve, SweepServer, INFLIGHT};
pub use tlabp_core::env::{MemoDirMode, ServeConfig};
