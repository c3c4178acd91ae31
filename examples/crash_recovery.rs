//! Crash consistency end to end: run a workload, cut power mid-flight,
//! reboot the device from a file-backed image, remount the storage
//! manager and recover the database from the WAL tail.
//!
//! ```text
//! cargo run --example crash_recovery
//! ```

use noftl_regions::dbms::TableWorkload;
use noftl_regions::noftl::fault::{nand, run_cycle, Cut, FaultConfig};

fn main() {
    // The fault harness drives a mixed insert/update/delete workload over
    // an indexed table, with checkpoints and WAL truncations firing along
    // the way.  `Cut::Fraction` places the power cut within the
    // workload's simulated time span.
    let workload = TableWorkload { txns: 120, ..TableWorkload::default() };
    // Persist the torn device to a file and boot the image.
    let cfg = FaultConfig { image_file: true, ..FaultConfig::default() };
    for fraction in [0.25, 0.5, 0.85] {
        let outcome =
            run_cycle(&workload, &cfg, Cut::Fraction(fraction), nand).expect("recovery verifies");
        println!(
            "cut at {:>12} ns ({}):",
            outcome.cut_at.as_nanos(),
            if outcome.in_flight { "during a commit" } else { "between commits" },
        );
        println!(
            "  before: {} committed txns, WAL {} pages",
            outcome.run.committed_txns, outcome.run.wal_pages_at_crash
        );
        println!(
            "  mount : checkpoint #{}, {} pages scanned, {} torn discarded, {} remapped from OOB",
            outcome.mount.checkpoint_seq,
            outcome.mount.pages_scanned,
            outcome.mount.torn_pages_discarded,
            outcome.mount.pages_after_checkpoint,
        );
        println!(
            "  redo  : {} records scanned, {} committed txns, {} page images replayed",
            outcome.reopen.wal_records_scanned,
            outcome.reopen.committed_txns,
            outcome.reopen.redo_pages_applied,
        );
        println!(
            "  verify: {} rows intact{}\n",
            outcome.verified_keys,
            if outcome.in_flight_survived { " (in-flight commit survived whole)" } else { "" },
        );
    }
    println!("all cuts recovered: no torn pages served, no committed writes lost");
}
