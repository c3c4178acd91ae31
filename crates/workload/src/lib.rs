//! # noftl-workload — the workload lab
//!
//! Deterministic workload generation and replay for the NoFTL-regions
//! stack: the measuring stick every placement/service-class/caching change is
//! evaluated against.
//!
//! * [`rng`] — keyed SplitMix64 streams and the uniform / Zipfian /
//!   latest key distributions.  Same `(seed, stream)` ⇒ byte-identical
//!   draws on every run and machine.
//! * [`ycsb`] — the six YCSB core workloads A–F as pure-function op
//!   streams ([`ycsb::YcsbSpec::core`]); backends never influence the
//!   stream, so NoFTL-KV and the B+-tree replay *identical* keys.
//! * [`backend`] — the five-verb [`backend::WorkloadBackend`] surface
//!   and its two implementations: [`backend::KvBackend`] (NoFTL-KV) and
//!   [`backend::BtreeBackend`] (dbms heap + B+-tree index, one
//!   auto-commit transaction per op).
//! * [`runner`] — closed-loop execution with per-op simulated latency
//!   captured into `noftl-obs` histograms.
//! * [`trace`] — the `noftl-trace v1` text format: an open-loop,
//!   rate-controlled issue schedule.
//! * [`replay`](mod@replay) — coordinated-omission-free replay of a
//!   trace (latency = completion − *scheduled* issue).
//! * [`scenario`] — composed multi-tenant mixes, headlined by
//!   [`scenario::oltp_beside_compaction`]: a latency-sensitive B+-tree
//!   tenant beside a compaction-churning KV tenant sharing the device's
//!   channels, reported shared vs alone.
//!
//! Everything reports *simulated device time*, so throughput and the
//! p50/p99/p999 tails are deterministic — two runs of the same binary
//! produce identical numbers, which is what lets CI gate on them.

#![warn(missing_docs)]

pub mod backend;
pub mod replay;
pub mod rng;
pub mod runner;
pub mod scenario;
pub mod trace;
pub mod ycsb;

pub use backend::{BtreeBackend, KvBackend, Result, WorkloadBackend, WorkloadError};
pub use replay::{replay, ReplayReport};
pub use rng::{KeyDistribution, KeyedRng, Zipfian};
pub use runner::{load_phase, run_ycsb, RunReport};
pub use scenario::{oltp_beside_compaction, MultiTenantConfig, MultiTenantReport, TenantReport};
pub use trace::{parse, render, TraceOp};
pub use ycsb::{key_bytes, stream_digest, Op, OpKind, YcsbSpec};
