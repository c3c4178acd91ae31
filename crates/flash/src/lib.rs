//! # flash-sim — a native NAND flash device simulator
//!
//! This crate implements the *substrate* required by the NoFTL architecture
//! described in "Revisiting DBMS Space Management for Native Flash"
//! (Hardock et al., EDBT 2016): a NAND flash device exposed through its
//! **native interface** instead of a legacy block-device interface.
//!
//! The simulated device provides exactly the command set listed in the
//! paper's Figure 1:
//!
//! * `READ PAGE` — [`NandDevice::read_page`]
//! * `PROGRAM PAGE` — [`NandDevice::program_page`]
//! * `ERASE BLOCK` — [`NandDevice::erase_block`]
//! * `COPYBACK` — [`NandDevice::copyback`] (die-internal page move, no
//!   channel transfer)
//! * page metadata handling — every page carries an out-of-band
//!   [`PageMetadata`] record readable via [`NandDevice::read_metadata`]
//!
//! Every command is also available through an explicit submit/poll
//! completion protocol — see the [`queue`] module — which is how batched
//! and concurrent clients exploit the device's die-level parallelism.
//!
//! ## Time model
//!
//! The simulator is *discrete-time* and fully deterministic.  There is no
//! global event loop: every operation is issued at a caller-supplied
//! [`SimTime`] and the device returns the operation's *completion time*,
//! computed from per-die and per-channel `busy_until` timestamps plus the
//! latencies of the configured [`TimingModel`].  Queueing and parallelism
//! across channels, dies and planes therefore emerge naturally: two
//! operations issued to different dies overlap, two operations issued to
//! the same die serialize.
//!
//! ## Structural model
//!
//! ```text
//! device ── channel ── chip ── die ── plane ── block ── page (+ OOB metadata)
//! ```
//!
//! NAND programming constraints are enforced: pages inside a block must be
//! programmed sequentially, a page can only be programmed when erased
//! (out-of-place updates are mandatory), and erases operate on whole blocks
//! and wear them out.
//!
//! ## What this substitutes for
//!
//! The paper evaluates on a real native-flash board with 64 dies.  We do
//! not have that hardware, so this simulator reproduces the *behavioural*
//! properties the evaluation depends on: command latencies, channel/die
//! parallelism, sequential-programming and erase-before-write constraints,
//! copyback support, per-block wear, and complete operation statistics
//! (reads, programs, erases, copybacks, transferred bytes, busy time).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod addr;
pub mod arbiter;
pub mod backend;
pub mod badblock;
pub mod block;
pub mod crc;
pub mod device;
pub mod die;
pub mod error;
pub mod fault;
pub mod geometry;
pub mod image;
pub mod lockorder;
pub mod metadata;
pub(crate) mod obs;
pub mod queue;
pub mod sched;
pub mod stats;
pub mod time;
pub mod timing;

pub use addr::{BlockAddr, DieId, PageAddr, PlaneAddr};
pub use arbiter::{ArbiterConfig, IoTag, ServiceClass};
pub use backend::FlashBackend;
pub use badblock::BadBlockPolicy;
pub use block::{BlockInfo, BlockSnapshot, BlockState, PageState};
pub use crc::crc32;
pub use device::{DeviceBuilder, DeviceSnapshot, DieLoad, NandDevice, OpOutcome};
pub use error::FlashError;
pub use fault::DeviceLossInjector;
pub use geometry::FlashGeometry;
pub use lockorder::{LockClass, TrackedGuard};
pub use metadata::PageMetadata;
pub use queue::{CmdHandle, CmdOutput, CommandQueue, Completion, FlashCommand, OpKind, QueueStats};
pub use stats::{DeviceStats, DieStats, UtilizationSummary, WearSummary};
pub use time::{Duration, SimTime};
pub use timing::TimingModel;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, FlashError>;

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn public_reexports_are_usable() {
        let geo = FlashGeometry::small_test();
        let dev = DeviceBuilder::new(geo).build();
        assert!(dev.geometry().total_pages() > 0);
    }
}
