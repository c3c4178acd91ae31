//! Engine error type.

use std::fmt;

use noftl_core::fault::FaultError;

/// Errors surfaced by the storage engine.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// A table/index/object name was not found in the catalog.
    NotFound {
        /// What was looked up.
        what: String,
    },
    /// A table/index/object with this name already exists.
    AlreadyExists {
        /// The conflicting name.
        what: String,
    },
    /// A record does not match its table schema.
    SchemaMismatch {
        /// Human-readable description.
        message: String,
    },
    /// A record, key or value is too large for a page.
    TooLarge {
        /// Human-readable description.
        message: String,
    },
    /// A record id does not point at a live record.
    InvalidRid {
        /// Human-readable description.
        message: String,
    },
    /// Corrupted or unexpected on-page data.
    Corrupted {
        /// Human-readable description.
        message: String,
    },
    /// The storage backend reported an error.
    Storage {
        /// Human-readable description.
        message: String,
    },
    /// The device lost power (a simulated power cut); the stack must be
    /// rebooted and recovered.
    PowerLoss {
        /// Human-readable description.
        message: String,
    },
    /// The transaction was aborted (e.g. TPC-C NewOrder with an invalid item).
    Aborted {
        /// Reason for the abort.
        reason: String,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::NotFound { what } => write!(f, "not found: {what}"),
            DbError::AlreadyExists { what } => write!(f, "already exists: {what}"),
            DbError::SchemaMismatch { message } => write!(f, "schema mismatch: {message}"),
            DbError::TooLarge { message } => write!(f, "too large: {message}"),
            DbError::InvalidRid { message } => write!(f, "invalid record id: {message}"),
            DbError::Corrupted { message } => write!(f, "corrupted data: {message}"),
            DbError::Storage { message } => write!(f, "storage error: {message}"),
            DbError::PowerLoss { message } => write!(f, "power loss: {message}"),
            DbError::Aborted { reason } => write!(f, "transaction aborted: {reason}"),
        }
    }
}

impl std::error::Error for DbError {}

impl DbError {
    /// Construct a [`DbError::Storage`] from any displayable error.
    pub fn storage(e: impl fmt::Display) -> Self {
        DbError::Storage { message: e.to_string() }
    }

    /// Construct a [`DbError::NotFound`].
    pub fn not_found(what: impl Into<String>) -> Self {
        DbError::NotFound { what: what.into() }
    }
}

impl From<noftl_core::NoFtlError> for DbError {
    fn from(e: noftl_core::NoFtlError) -> Self {
        if e.is_power_loss() {
            DbError::PowerLoss { message: e.to_string() }
        } else {
            DbError::storage(e)
        }
    }
}

impl From<ftl_sim::FtlError> for DbError {
    fn from(e: ftl_sim::FtlError) -> Self {
        DbError::storage(e)
    }
}

impl From<flash_sim::FlashError> for DbError {
    fn from(e: flash_sim::FlashError) -> Self {
        if e.is_power_loss() {
            DbError::PowerLoss { message: e.to_string() }
        } else {
            DbError::storage(e)
        }
    }
}

impl FaultError for DbError {
    fn is_power_loss(&self) -> bool {
        matches!(self, DbError::PowerLoss { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: DbError = noftl_core::NoFtlError::UnknownObject { object: "x".into() }.into();
        assert!(matches!(e, DbError::Storage { .. }));
        assert!(e.to_string().contains("storage error"));
        assert!(DbError::not_found("table t").to_string().contains("table t"));
        let e: DbError = ftl_sim::FtlError::OutOfSpace.into();
        assert!(e.to_string().contains("device full"));
        let e: DbError = flash_sim::FlashError::oob("addr").into();
        assert!(e.to_string().contains("out of bounds"));
        assert!(!e.is_power_loss());
        let cut = flash_sim::FlashError::PowerLoss { at: flash_sim::SimTime(7) };
        assert!(DbError::from(noftl_core::NoFtlError::Flash(cut)).is_power_loss());
    }
}
