//! # noftl-regions — workspace facade
//!
//! Reproduction of *"Revisiting DBMS Space Management for Native Flash"*
//! (Hardock, Petrov, Gottstein, Buchmann — EDBT 2016).  This crate simply
//! re-exports the workspace members under short names so that examples and
//! downstream users can depend on a single crate:
//!
//! * [`flash`] — the native NAND flash device simulator (`flash-sim`);
//! * [`ftl`] — the conventional FTL-based SSD baseline (`ftl-sim`);
//! * [`noftl`] — NoFTL regions, the paper's contribution (`noftl-core`);
//! * [`dbms`] — the storage engine that runs on either stack (`dbms-engine`);
//! * [`tpcc`] — the TPC-C workload and placement configurations
//!   (`tpcc-workload`);
//! * [`workload`] — the workload lab: deterministic YCSB A–F generators,
//!   rate-controlled trace replay and multi-tenant scenarios
//!   (`noftl-workload`);
//! * [`bench`](mod@bench) — the experiment harness used by the figure
//!   binaries (`noftl-bench`);
//! * [`obs`] — the cross-layer observability layer: metrics registry,
//!   latency histograms and the event tracer (`noftl-obs`).
//!
//! See `README.md` for a tour of the system and its experiments; the
//! paper-vs-measured Figure-3 comparison (regions vs. traditional TPC-C
//! throughput) is printed by `python3 perfbench/run.py --figure3`.

#![warn(missing_docs)]

pub use dbms_engine as dbms;
pub use flash_sim as flash;
pub use ftl_sim as ftl;
pub use noftl_bench as bench;
pub use noftl_core as noftl;
pub use noftl_obs as obs;
pub use noftl_workload as workload;
pub use tpcc_workload as tpcc;

// The one-call rendering facade (`obs::dump::{table, prometheus,
// chrome_trace}`) is what examples reach for, so it gets a root alias.
pub use noftl_obs::dump;

// Die-level write placement is part of the repo's top-level story (the
// queue-aware allocation redesign), so the policy types are additionally
// re-exported at the root: the policy trait, its two implementations, the
// serialisable selector and the per-die load snapshot they steer by.
pub use flash_sim::DieLoad;
pub use noftl_core::{PlacementPolicy, PlacementPolicyKind, QueueAware, RoundRobin};
