//! # IOctopus — the core crate of the reproduction
//!
//! The paper's contribution is a *device architecture*: a NIC (or SSD)
//! whose physical functions — one per CPU socket — are unified into a
//! single logical device, with firmware (IOctoRFS) steering every flow to
//! the PF local to the consuming thread. This crate assembles the full
//! simulated machines from the substrate crates ([`memsys`], [`pcie`],
//! [`nic`], [`kernel`], [`nvme`], [`workloads`]) and exposes:
//!
//! * [`config`] — experiment configuration: NIC [`Placement`]
//!   (`Local` / `Remote` / `Octopus`), DDIO mode, machine presets;
//! * [`system`] — machine assembly: the server (with a bifurcated
//!   two-PF NIC) and the client (conventional single-PF NIC), wired
//!   back-to-back;
//! * [`netloop`] — the discrete-event loop driving netperf-style, RR, and
//!   key-value applications over the two hosts;
//! * [`experiments`] — one runner per figure of the paper's evaluation
//!   (§5), each returning a typed, serializable result;
//! * [`results`] — the result types the bench harnesses print.
//!
//! ## Quick start
//!
//! ```
//! use ioctopus::config::Placement;
//! use ioctopus::experiments::tcp_stream;
//!
//! // Single-core TCP Rx at 64 KiB messages, octoNIC vs. remote NIC:
//! let octo = tcp_stream::run_rx(Placement::Octopus, 65536, 4);
//! let remote = tcp_stream::run_rx(Placement::Remote, 65536, 4);
//! assert!(octo.throughput_gbps > remote.throughput_gbps);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod experiments;
pub mod netloop;
pub mod params;
pub mod results;
pub mod sweep;
pub mod system;

pub use config::{DdioMode, Placement};
pub use system::{Duplex, Side};
