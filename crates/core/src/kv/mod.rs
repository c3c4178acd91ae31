//! # NoFTL-KV — a log-structured key-value layer on queued multi-die I/O.
//!
//! The paper's follow-up direction to configurable regions: instead of an
//! LSM engine fighting an opaque FTL (its flushes and compactions
//! colliding with the device's own garbage collection), the key-value
//! mechanics are expressed as *region-local* operations against the NoFTL
//! storage manager:
//!
//! * **Memtable** ([`memtable`]) — an in-memory sorted write buffer with a
//!   size threshold.  Puts and deletes (tombstones) land here first.
//! * **Sorted runs** ([`run`]) — a flushed memtable becomes one immutable
//!   sorted run: an ordinary NoFTL *object* whose data pages are written
//!   through [`NoFtl::write_batch`], so the whole flush fans out across
//!   the region's dies at one shared issue time via the command-queue
//!   submission API.  The last page of a run is a self-describing footer
//!   carrying a sparse per-page index.
//! * **Compaction as region-local GC** ([`store`]) — when a level
//!   accumulates enough runs they are merged (newest version wins,
//!   tombstones dropped at the bottom) and the merged run is written as
//!   one queued batch; the source runs are then retired through the
//!   existing object-drop path, whose invalidations feed the region's
//!   normal GC/erase machinery.
//! * **Crash safety rides the checkpoint/mount path** — the run directory
//!   and sequence numbers are exactly the storage manager's object
//!   directory, journalled by [`NoFtl::checkpoint`] chunk pages.  After a
//!   power cut, [`NoFtl::mount`] discards torn pages via the OOB payload
//!   checksum and [`KvStore::open`] then discards incomplete (torn tail)
//!   runs and runs superseded by a durable merge.  A flush is *committed*
//!   once `flush` returns: run pages durable and the directory
//!   checkpointed.
//!
//! [`KvWorkload`] is the store's put/delete workload for the fault
//! harness ([`crate::fault`]), which crashes it through cut → reboot →
//! mount → open → verify cycles on any device.
//!
//! [`NoFtl`]: crate::NoFtl
//! [`NoFtl::write_batch`]: crate::NoFtl::write_batch
//! [`NoFtl::checkpoint`]: crate::NoFtl::checkpoint
//! [`NoFtl::mount`]: crate::NoFtl::mount
//! [`KvStore::open`]: store::KvStore::open

pub mod memtable;
pub mod run;
pub mod store;
pub mod workload;

pub use run::RunMeta;
pub use store::{KvConfig, KvOpenReport, KvStats, KvStore};
pub use workload::{KvRunReport, KvWorkload};
