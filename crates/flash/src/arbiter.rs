//! Service classes: what each flash command is for.
//!
//! The paper's region abstraction lets the DBMS tell the flash layer what
//! an I/O *is for*; this module gives that intent a vocabulary.  Every
//! submitted command carries an [`IoTag`] naming its [`ServiceClass`] and
//! originating region.  The class alone decides how the command's channel
//! transfer is scheduled, on every device:
//!
//! * a [`ServiceClass::Latency`] transfer takes the first idle channel gap
//!   it fits in — gaps a transfer opens whenever it starts past the
//!   channel's `busy_until` — and appends only when none fits;
//! * every other transfer appends at `busy_until`.
//!
//! So a workload that declares no `Latency` region schedules exactly like
//! the untagged path.  The tag's region and [`IoTag::exempt`] flag are
//! carried for accounting (`flash.arbiter.exempt` counts exempt commands)
//! and never change scheduling.

use serde::{Deserialize, Serialize};

/// Priority class of one submitted flash command.
///
/// The class travels with the command through the submission queue and the
/// device's issue path; the region layer above resolves it from the
/// region's spec (or the manager-wide default) and overrides it for
/// maintenance I/O (GC relocation, compaction merges, rebuild copies are
/// `Background` regardless of the region's class).
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub enum ServiceClass {
    /// Tail-latency sensitive (OLTP point I/O): backfills idle channel
    /// gaps.
    Latency,
    /// Ordinary throughput-oriented traffic — the default.
    #[default]
    Throughput,
    /// Maintenance traffic (GC, compaction, rebuild).
    Background,
}

impl ServiceClass {
    /// Every class, in codec/slot order.
    pub const ALL: [ServiceClass; 3] =
        [ServiceClass::Latency, ServiceClass::Throughput, ServiceClass::Background];

    /// Stable lower-case name (metric fragments, DDL rendering).
    pub fn name(self) -> &'static str {
        match self {
            ServiceClass::Latency => "latency",
            ServiceClass::Throughput => "throughput",
            ServiceClass::Background => "background",
        }
    }

    /// Parse a DDL-style class name (case-insensitive).
    pub fn parse(s: &str) -> Option<ServiceClass> {
        match s.to_ascii_lowercase().as_str() {
            "latency" => Some(ServiceClass::Latency),
            "throughput" => Some(ServiceClass::Throughput),
            "background" => Some(ServiceClass::Background),
            _ => None,
        }
    }

    /// Stable codec byte (checkpoint persistence).
    pub fn code(self) -> u8 {
        match self {
            ServiceClass::Latency => 0,
            ServiceClass::Throughput => 1,
            ServiceClass::Background => 2,
        }
    }

    /// Inverse of [`ServiceClass::code`].
    pub fn from_code(code: u8) -> Option<ServiceClass> {
        match code {
            0 => Some(ServiceClass::Latency),
            1 => Some(ServiceClass::Throughput),
            2 => Some(ServiceClass::Background),
            _ => None,
        }
    }

    /// Dense slot index (obs arrays).
    pub fn slot(self) -> usize {
        self.code() as usize
    }
}

/// Per-command tag: who is doing this I/O and what it is for.  The
/// default tag (`Throughput`, no region, not exempt) is what the untagged
/// device API uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoTag {
    /// Priority class.
    pub class: ServiceClass,
    /// Originating region id (`None` for raw-device traffic).
    pub region: Option<u32>,
    /// Durability traffic (metadata-journal and checkpoint writes);
    /// counted, but scheduled by its class like any other command.
    pub exempt: bool,
}

impl IoTag {
    /// Tag for regular traffic of `class` from `region`.
    pub fn new(class: ServiceClass, region: Option<u32>) -> Self {
        IoTag { class, region, exempt: false }
    }

    /// Background (maintenance) traffic from `region`.
    pub fn background(region: Option<u32>) -> Self {
        IoTag { class: ServiceClass::Background, region, exempt: false }
    }

    /// Durability traffic of `class` from `region`.
    pub fn durability(class: ServiceClass, region: Option<u32>) -> Self {
        IoTag { class, region, exempt: true }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_codec_roundtrips_and_parses() {
        for class in ServiceClass::ALL {
            assert_eq!(ServiceClass::from_code(class.code()), Some(class));
            assert_eq!(ServiceClass::parse(class.name()), Some(class));
            assert_eq!(ServiceClass::parse(&class.name().to_ascii_uppercase()), Some(class));
        }
        assert_eq!(ServiceClass::from_code(9), None);
        assert_eq!(ServiceClass::parse("bogus"), None);
        assert_eq!(ServiceClass::default(), ServiceClass::Throughput);
        assert_eq!(IoTag::default().class, ServiceClass::Throughput);
        assert!(!IoTag::default().exempt);
        assert!(IoTag::durability(ServiceClass::Throughput, Some(3)).exempt);
    }
}
