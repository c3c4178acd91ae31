//! # dbms-engine — a small storage engine over native flash or a block device
//!
//! The paper integrates NoFTL regions into Shore-MT and drives them with
//! TPC-C.  This crate is the equivalent substrate for the reproduction: a
//! compact but complete storage engine providing
//!
//! * fixed 4 KiB **slotted pages** ([`page`]) and schema-driven record
//!   encoding ([`value`], [`schema`]);
//! * **heap files** with a free-space map ([`heap`]);
//! * **B+-tree** secondary/primary indexes ([`btree`]);
//! * a **buffer pool** with clock eviction and background write-back
//!   ([`buffer`]) — evictions and flusher batches charge the flash device
//!   but not the transaction's response time, mirroring asynchronous
//!   flushers;
//! * a **catalog**, lightweight **transactions** and a simple **WAL**
//!   ([`catalog`], [`txn`], [`wal`]);
//! * a [`Database`] facade used by the TPC-C workload.
//!
//! The engine is storage-agnostic through the [`StorageBackend`] trait:
//! [`storage::NoFtlBackend`] places objects into NoFTL regions (the
//! paper's proposal), [`storage::BlockBackend`] maps objects onto a legacy
//! block device (an FTL SSD) the way a conventional DBMS would.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod btree;
pub mod buffer;
pub mod catalog;
pub mod db;
pub mod error;
pub mod heap;
pub mod page;
pub mod schema;
pub mod storage;
pub mod txn;
pub mod value;
pub mod wal;
pub mod workload;

pub use buffer::{BufferPool, BufferStats};
pub use catalog::{IndexDef, TableDef};
pub use db::{Database, DatabaseConfig, RecoveryReport};
pub use error::DbError;
pub use heap::RecordId;
pub use schema::{ColumnType, Schema};
pub use storage::{BlockBackend, NoFtlBackend, ObjectId, StorageBackend};
pub use txn::Txn;
pub use value::{Record, Value};
pub use wal::{Lsn, Wal, WalRecord, WalStats};
pub use workload::{TableRunReport, TableWorkload};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DbError>;

/// The fixed page size used throughout the engine (matches the paper's
/// 4 KiB host I/O unit).
pub const PAGE_SIZE: usize = 4096;

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn page_size_matches_flash_default() {
        assert_eq!(PAGE_SIZE as u32, flash_sim::FlashGeometry::edbt_paper().page_size);
    }
}
