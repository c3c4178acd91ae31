//! Contract of the storage manager's page pipeline.
//!
//! Every logical page I/O of `NoFtl` runs one windowed loop: page `i`
//! issues once page `i - window` has completed, `write_batch` is the
//! loop with a window as deep as the batch, `write` and `read` are the
//! loop with window 1, and `write_atomic` stages every commit until all
//! programs succeeded.  These tests pin what that promises:
//!
//! * (a) the same pages written one `write` at a time at one instant, as
//!   one `write_batch`, and through `write_windowed` with a window at
//!   least as deep leave identical devices, completion times and region
//!   statistics;
//! * (b) `write_windowed` / `read_windowed` with window 1 equal a chain
//!   of blocking calls, each issued at the previous completion;
//! * (c) a power cut mid-window, for every window: each page whose
//!   program succeeded is committed, torn pages stay unmapped, and the
//!   first failure in submission order is returned;
//! * (d) a region filling up mid-batch does not stop the batch's pages
//!   bound for another region;
//! * (e) an atomic write stays all-or-nothing when its own allocations
//!   make GC relocate the pages it has staged;
//! * (f) a failed windowed read stops at its failure: it has nothing to
//!   commit, so no page behind the failure is read;
//!
//! plus the window's own bookkeeping: its completion is the maximum over
//! all pages, and its measured in-flight depth never exceeds the window.

use std::sync::Arc;

use noftl_regions::flash::{
    BlockAddr, DeviceBuilder, Duration, FlashGeometry, NandDevice, SimTime, TimingModel,
};
use noftl_regions::noftl::{NoFtl, NoFtlConfig, NoFtlError, ObjectId, RegionSpec};

type Batch = Vec<(ObjectId, u64, Vec<u8>)>;

fn device() -> Arc<NandDevice> {
    Arc::new(
        DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build(),
    )
}

fn page(byte: u8) -> Vec<u8> {
    vec![byte; FlashGeometry::small_test().page_size as usize]
}

/// A fresh manager over a fresh device with one `dies`-die region and
/// one object in it.
fn stack(dies: u32, config: NoFtlConfig) -> (Arc<NandDevice>, NoFtl, ObjectId) {
    let dev = device();
    let noftl = NoFtl::new(dev.clone(), config);
    let rid = noftl.create_region(RegionSpec::named("rg").with_die_count(dies)).unwrap();
    let obj = noftl.create_object("t", rid).unwrap();
    (dev, noftl, obj)
}

/// Write base versions of pages `0..n` one at a time; returns the instant
/// the device went idle.
fn write_base(noftl: &NoFtl, obj: ObjectId, n: u64) -> SimTime {
    let mut t = SimTime::ZERO;
    for p in 0..n {
        t = noftl.write(obj, p, &page(0x10 + p as u8), t).unwrap();
    }
    t
}

fn batch(obj: ObjectId, n: u64) -> Batch {
    (0..n).map(|p| (obj, p, page(0x80 + p as u8))).collect()
}

/// Device image, completion time and region statistics of one run, the
/// three things two equivalent pipelines must agree on.
fn outcome(dev: &NandDevice, noftl: &NoFtl, done: SimTime) -> impl PartialEq + std::fmt::Debug {
    let snap = dev.snapshot();
    let rid = noftl.region_id("rg").unwrap();
    (snap.blocks, snap.stats, snap.epoch, snap.wear, done, noftl.region_stats(rid).unwrap())
}

#[test]
fn one_instant_write_batch_and_deep_window_are_identical() {
    const N: u64 = 10;
    let run = |how: &str| {
        let (dev, noftl, obj) = stack(3, NoFtlConfig::default());
        // Half the pages have an older version, so the runs also
        // invalidate.
        let at = write_base(&noftl, obj, N / 2);
        let writes = batch(obj, N);
        let done = match how {
            "write" => {
                writes.iter().map(|(o, p, d)| noftl.write(*o, *p, d, at).unwrap()).max().unwrap()
            }
            "write_batch" => noftl.write_batch(&writes, at).unwrap(),
            _ => noftl.write_windowed(&writes, at, N as usize + 3).unwrap(),
        };
        for (o, p, d) in &writes {
            assert_eq!(&noftl.read(*o, *p, done).unwrap().0, d, "{how}: page {p}");
        }
        outcome(&dev, &noftl, done)
    };
    let writes = run("write");
    assert_eq!(writes, run("write_batch"), "N x write vs write_batch");
    assert_eq!(writes, run("write_windowed"), "N x write vs write_windowed(>= N)");
}

#[test]
fn window_of_one_is_a_chain_of_blocking_calls() {
    const N: u64 = 9;
    let (chain_dev, chain, obj) = stack(3, NoFtlConfig::default());
    let mut t = write_base(&chain, obj, N / 2);
    for (o, p, d) in batch(obj, N) {
        t = chain.write(o, p, &d, t).unwrap();
    }
    let mut chained_reads = Vec::new();
    for p in 0..N {
        let (data, done) = chain.read(obj, p, t).unwrap();
        chained_reads.push(data);
        t = done;
    }

    let chained = outcome(&chain_dev, &chain, t);

    // A window of 0 is clamped to 1.
    for window in [1, 0] {
        let (piped_dev, piped, obj) = stack(3, NoFtlConfig::default());
        let at = write_base(&piped, obj, N / 2);
        let written = piped.write_windowed(&batch(obj, N), at, window).unwrap();
        let reads: Vec<(ObjectId, u64)> = (0..N).map(|p| (obj, p)).collect();
        let (payloads, done) = piped.read_windowed(&reads, written, window).unwrap();
        assert_eq!(payloads, chained_reads, "window {window}");
        assert_eq!(chained, outcome(&piped_dev, &piped, done), "window {window}");
        // Empty pipelines issue nothing and finish at once.
        assert_eq!(piped.write_windowed(&[], done, window).unwrap(), done);
        assert_eq!(piped.read_windowed(&[], done, window).unwrap(), (Vec::new(), done));
    }
}

#[test]
fn windowed_completion_is_the_max_across_the_window_not_the_last() {
    // The first page lands on a die busy with background erases; the
    // second (idle die) completes much earlier.  The window's completion
    // is the slow first page's, i.e. the instant the device quiesces.
    let (dev, noftl, obj) = stack(2, NoFtlConfig::default());
    let dies = noftl.region_dies(noftl.region_id("rg").unwrap()).unwrap();
    for b in 0..4u32 {
        dev.erase_block(BlockAddr::new(dies[0], 0, b), SimTime::ZERO).unwrap();
    }
    let busy_until = dev.die_busy_until(dies[0]);
    let done = noftl.write_windowed(&batch(obj, 2), SimTime::ZERO, 2).unwrap();
    assert!(done > busy_until, "{done} must cover the page behind the erases ({busy_until})");
    assert_eq!(done, dev.quiesce_time());
}

#[test]
fn window_occupancy_is_measured_and_bounded_by_the_window() {
    let (_, noftl, obj) = stack(4, NoFtlConfig::default());
    let done = noftl.write_windowed(&batch(obj, 8), SimTime::ZERO, 2).unwrap();
    let reads: Vec<(ObjectId, u64)> = (0..8).map(|p| (obj, p)).collect();
    noftl.read_windowed(&reads, done, 3).unwrap();
    // Blocking calls run the same loop but stay out of the histograms.
    noftl.write(obj, 0, &page(1), done).unwrap();
    noftl.read(obj, 0, done).unwrap();
    let snap = noftl.metrics_snapshot();
    let writes = snap.histogram("core.flush.window_occupancy").unwrap();
    let reads = snap.histogram("core.read.window_occupancy").unwrap();
    assert_eq!((writes.count, writes.max), (8, 2), "one sample per page, never above 2");
    assert_eq!((reads.count, reads.max), (8, 3), "one sample per page, never above 3");
    assert_eq!(snap.histogram("core.flush.window_ns").unwrap().count, 1);
    assert_eq!(snap.histogram("core.read.window_ns").unwrap().count, 1);
}

/// Submitted and failed command counts of the manager's queue.
fn queue_counts(noftl: &NoFtl) -> (u64, u64) {
    let snap = noftl.metrics_snapshot();
    (
        snap.counter("flash.queue.submitted").unwrap_or(0),
        snap.counter("flash.queue.failed").unwrap_or(0),
    )
}

#[test]
fn power_cut_mid_window_commits_exactly_the_programs_that_succeeded() {
    const N: u64 = 16;
    for window in [1, 4, N as usize] {
        for unknown_first in [false, true] {
            // The same run without a cut measures the window's span, so
            // the cut lands halfway through it.
            let (_, probe, obj) = stack(4, NoFtlConfig::default());
            let at = write_base(&probe, obj, N);
            let span = probe.write_windowed(&batch(obj, N), at, window).unwrap().since(at);

            let (dev, noftl, obj) = stack(4, NoFtlConfig::default());
            let at = write_base(&noftl, obj, N);
            let mut writes = batch(obj, N);
            if unknown_first {
                // An earlier failure of another kind: it must be the one
                // reported, and must not stop the pages behind it.
                writes[0].0 = 999;
            }
            dev.arm_power_cut(at + Duration(span.as_nanos() / 2));
            let (submitted, failed) = queue_counts(&noftl);
            let err = noftl.write_windowed(&writes, at, window).unwrap_err();
            let (submitted, failed) = {
                let (s, f) = queue_counts(&noftl);
                (s - submitted, f - failed)
            };
            dev.clear_power_cut();

            let label = format!("window {window}, unknown first {unknown_first}");
            if unknown_first {
                assert!(matches!(err, NoFtlError::UnknownObject { .. }), "{label}: {err}");
            } else {
                assert!(
                    matches!(&err, NoFtlError::Flash(e) if e.is_power_loss()),
                    "{label}: {err}"
                );
            }
            let programs = N - u64::from(unknown_first);
            assert_eq!(submitted, programs, "{label}: every page behind a failure still issues");
            assert!(
                failed > 0 && failed < programs,
                "{label}: the cut must tear part of the window"
            );
            // Every page reads back one whole version: the new one iff
            // its program succeeded; torn pages were never mapped.
            let t = dev.quiesce_time();
            let mut new_versions = 0;
            for p in u64::from(unknown_first)..N {
                let (data, _) = noftl.read(obj, p, t).unwrap();
                let (old, new) = (page(0x10 + p as u8), page(0x80 + p as u8));
                assert!(data == old || data == new, "{label}: page {p} is torn");
                new_versions += u64::from(data == new);
            }
            assert_eq!(new_versions, programs - failed, "{label}: successes == new versions");
        }
    }
}

#[test]
fn a_full_region_mid_batch_still_commits_the_other_regions_pages() {
    let fill = |noftl: &NoFtl, obj: ObjectId, limit: u64| -> u64 {
        let mut t = SimTime::ZERO;
        for p in 0..limit {
            match noftl.write(obj, p, &page(1), t) {
                Ok(done) => t = done,
                Err(NoFtlError::RegionFull { .. }) => return p,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        limit
    };
    // How many distinct pages the one-die region holds.
    let (_, probe, probe_obj) = stack(1, NoFtlConfig::default());
    let capacity = fill(&probe, probe_obj, 10_000);
    assert!(capacity < 10_000, "the region must fill up");

    for window in [None, Some(3)] {
        let dev = device();
        let noftl = NoFtl::new(dev.clone(), NoFtlConfig::default());
        let small = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
        let other = noftl.create_region(RegionSpec::named("other").with_die_count(2)).unwrap();
        let a = noftl.create_object("a", small).unwrap();
        let b = noftl.create_object("b", other).unwrap();
        // Leave room for exactly two more pages in `small`.
        assert_eq!(fill(&noftl, a, capacity - 2), capacity - 2);
        let at = dev.quiesce_time();
        let writes: Batch = (0..6u64)
            .flat_map(|i| [(a, capacity + i, page(0xA0 + i as u8)), (b, i, page(0xB0 + i as u8))])
            .collect();
        let err = match window {
            None => noftl.write_batch(&writes, at),
            Some(w) => noftl.write_windowed(&writes, at, w),
        }
        .unwrap_err();
        assert!(matches!(err, NoFtlError::RegionFull { region } if region == small), "{err}");
        let t = dev.quiesce_time();
        for i in 0..6u64 {
            assert_eq!(
                noftl.read(b, i, t).unwrap().0,
                page(0xB0 + i as u8),
                "other region page {i}"
            );
            let got = noftl.read(a, capacity + i, t);
            if i < 2 {
                assert_eq!(got.unwrap().0, page(0xA0 + i as u8), "full region page {i}");
            } else {
                assert!(matches!(got, Err(NoFtlError::PageNotWritten { .. })), "page {i}");
            }
        }
    }
}

#[test]
fn a_failed_windowed_read_issues_nothing_after_the_failing_page() {
    const N: u64 = 8;
    const MISSING: u64 = 3;
    for window in [1, 4, N as usize] {
        // Pages `0..MISSING` and the ones after the gap are written; the
        // read of `MISSING` fails before it reaches the device.
        let setup = || {
            let (dev, noftl, obj) = stack(4, NoFtlConfig::default());
            let written: Batch =
                batch(obj, N).into_iter().filter(|(_, p, _)| *p != MISSING).collect();
            let at = noftl.write_windowed(&written, SimTime::ZERO, 1).unwrap();
            (dev, noftl, obj, at)
        };
        let (dev, noftl, obj, at) = setup();
        let reads: Vec<(ObjectId, u64)> = (0..N).map(|p| (obj, p)).collect();
        let (submitted, _) = queue_counts(&noftl);
        let err = noftl.read_windowed(&reads, at, window).unwrap_err();
        assert!(matches!(err, NoFtlError::PageNotWritten { page: MISSING, .. }), "{err}");
        let (after, _) = queue_counts(&noftl);
        assert_eq!(after - submitted, MISSING, "window {window}: reads issued");

        // The device and the region account exactly the reads in front
        // of the failure.
        let (prefix_dev, prefix, _, at) = setup();
        prefix.read_windowed(&reads[..MISSING as usize], at, window).unwrap();
        assert_eq!(
            outcome(&dev, &noftl, dev.quiesce_time()),
            outcome(&prefix_dev, &prefix, prefix_dev.quiesce_time()),
            "window {window}"
        );
    }
}

/// Valid pages on the device's blocks of region `name`.
fn valid_pages(noftl: &NoFtl, name: &str) -> u32 {
    let rid = noftl.region_id(name).unwrap();
    let blocks = noftl.device().geometry().blocks_per_die();
    noftl
        .region_dies(rid)
        .unwrap()
        .into_iter()
        .flat_map(|die| (0..blocks).map(move |b| BlockAddr::new(die, 0, b)))
        .map(|b| noftl.device().block_info(b).unwrap().valid_pages)
        .sum()
}

#[test]
fn atomic_write_stays_all_or_nothing_when_its_allocations_run_gc() {
    // One die of 16 blocks x 8 pages; GC fires once 13 or fewer blocks
    // are free.  Page 0 is written twice, so the first block holds one
    // invalid page and becomes GC's only candidate once the atomic batch
    // has filled it with staged pages: the batch's 16th allocation
    // relocates six staged pages and erases their block.
    let config =
        NoFtlConfig { gc_low_watermark: 13, gc_high_watermark: 14, ..NoFtlConfig::default() };
    const N: u64 = 17;
    for abort in [false, true] {
        let (_, noftl, obj) = stack(1, config);
        let mut t = noftl.write(obj, 0, &page(1), SimTime::ZERO).unwrap();
        t = noftl.write(obj, 0, &page(2), t).unwrap();
        let rid = noftl.region_id("rg").unwrap();
        let gc_before = noftl.region_stats(rid).unwrap().gc_copybacks;
        let mut writes = batch(obj, N);
        if abort {
            writes.push((999, 0, page(3)));
        }
        let result = noftl.write_atomic(&writes, t);
        assert!(
            noftl.region_stats(rid).unwrap().gc_copybacks > gc_before,
            "the batch's allocations must relocate pages"
        );
        let t = noftl.device().quiesce_time();
        if abort {
            assert!(result.is_err());
            // Nothing of the batch is visible, and no staged copy — moved
            // by GC or not — survives as a valid page.
            assert_eq!(noftl.read(obj, 0, t).unwrap().0, page(2));
            for p in 1..N {
                assert!(matches!(noftl.read(obj, p, t), Err(NoFtlError::PageNotWritten { .. })));
            }
            assert_eq!(valid_pages(&noftl, "rg"), 1, "only the committed page 0 is valid");
        } else {
            let done = result.unwrap();
            for (o, p, d) in &writes {
                assert_eq!(&noftl.read(*o, *p, done).unwrap().0, d, "page {p}");
            }
            assert_eq!(valid_pages(&noftl, "rg"), N as u32, "one valid copy per page");
        }
    }
}
