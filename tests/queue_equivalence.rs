//! Command-queue acceptance tests.
//!
//! Three properties of the submission-queue redesign are checked here:
//!
//! 1. **Equivalence** — N random interleaved submissions through
//!    [`CommandQueue`] produce the same final device state (block states,
//!    payloads, OOB metadata, per-page epochs) and the same per-op
//!    outcomes as the same operations issued sequentially through the
//!    legacy blocking API.  The blocking calls are thin submit+wait
//!    wrappers, so any divergence would expose a hole in the per-die
//!    lock-shard refactor.
//! 2. **Concurrency** — threads submitting to disjoint dies through one
//!    shared queue produce exactly the per-die timings of a
//!    single-threaded run: there is no device-global lock left whose
//!    acquisition order could perturb the timing model.
//! 3. **Crash interaction** — with a power cut armed, a queued batch
//!    tears exactly the commands whose scheduled completion exceeds the
//!    cut instant, and a NoFTL mount after the cut keeps every committed
//!    page while discarding the torn ones.

use std::sync::Arc;

use proptest::prelude::*;

use noftl_regions::flash::queue::{CommandQueue, FlashCommand};
use noftl_regions::flash::{
    BlockAddr, DeviceBuilder, DieId, FlashGeometry, NandDevice, PageAddr, PageMetadata, SimTime,
    TimingModel,
};
use noftl_regions::noftl::fault::SplitMix64;
use noftl_regions::noftl::{NoFtl, NoFtlConfig, RegionSpec};

fn device() -> NandDevice {
    DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build()
}

/// Generate `nops` random commands that are *valid by construction*
/// (sequential programming, erase-before-reuse, same-die copybacks), by
/// tracking a shadow model of every block's write pointer and the set of
/// programmed pages per die.
fn generate_commands(seed: u64, nops: usize, geo: &FlashGeometry) -> Vec<FlashCommand> {
    let mut rng = SplitMix64(seed);
    let dies = geo.total_dies();
    let blocks = geo.blocks_per_plane;
    let ppb = geo.pages_per_block;
    let psz = geo.page_size as usize;
    // Shadow state per (die, block): next programmable page.
    let mut write_ptr = vec![vec![0u32; blocks as usize]; dies as usize];
    // Pages that have been programmed since their block's last erase.
    let mut written: Vec<Vec<PageAddr>> = vec![Vec::new(); dies as usize];
    let mut out = Vec::with_capacity(nops);
    while out.len() < nops {
        let die = rng.below(dies as u64) as u32;
        let d = die as usize;
        match rng.below(10) {
            // Programs dominate so the device actually fills up.
            0..=4 => {
                let block = rng.below(blocks as u64) as u32;
                let next = write_ptr[d][block as usize];
                if next >= ppb {
                    continue;
                }
                let addr = PageAddr::new(DieId(die), 0, block, next);
                let byte = (rng.next_u64() & 0xFF) as u8;
                let data = vec![byte; psz];
                let lp = rng.below(1024);
                let meta = PageMetadata::new(1 + die, lp).with_payload_checksum(&data);
                write_ptr[d][block as usize] = next + 1;
                written[d].push(addr);
                out.push(FlashCommand::Program { addr, data, meta });
            }
            5 | 6 => {
                if written[d].is_empty() {
                    continue;
                }
                let idx = rng.below(written[d].len() as u64) as usize;
                out.push(FlashCommand::Read { addr: written[d][idx] });
            }
            7 => {
                if written[d].is_empty() {
                    continue;
                }
                let idx = rng.below(written[d].len() as u64) as usize;
                out.push(FlashCommand::MetadataRead { addr: written[d][idx] });
            }
            8 => {
                // Copyback: a programmed source, destination at another
                // block's write pointer on the same die.
                if written[d].is_empty() {
                    continue;
                }
                let sidx = rng.below(written[d].len() as u64) as usize;
                let src = written[d][sidx];
                let dblock = rng.below(blocks as u64) as u32;
                let next = write_ptr[d][dblock as usize];
                if dblock == src.block || next >= ppb {
                    continue;
                }
                let dst = PageAddr::new(DieId(die), 0, dblock, next);
                write_ptr[d][dblock as usize] = next + 1;
                written[d].push(dst);
                out.push(FlashCommand::Copyback { src, dst });
            }
            _ => {
                // Erase a block that has been written to.
                let block = rng.below(blocks as u64) as u32;
                if write_ptr[d][block as usize] == 0 {
                    continue;
                }
                write_ptr[d][block as usize] = 0;
                written[d].retain(|p| p.block != block);
                out.push(FlashCommand::Erase { block: BlockAddr::new(DieId(die), 0, block) });
            }
        }
    }
    out
}

/// What one blocking call yields, reduced to what a completion record
/// exposes: payload, OOB metadata, completion time.
type BlockingOutcome =
    Result<(Vec<u8>, Option<PageMetadata>, SimTime), noftl_regions::flash::FlashError>;

/// Replay one command through the legacy blocking API.
fn run_blocking(dev: &NandDevice, cmd: &FlashCommand, at: SimTime) -> BlockingOutcome {
    match cmd {
        FlashCommand::Read { addr } => {
            dev.read_page(*addr, at).map(|(d, m, o)| (d, m, o.completed_at))
        }
        FlashCommand::MetadataRead { addr } => {
            dev.read_metadata(*addr, at).map(|(m, o)| (Vec::new(), m, o.completed_at))
        }
        FlashCommand::Program { addr, data, meta } => {
            dev.program_page(*addr, data, *meta, at).map(|o| (Vec::new(), None, o.completed_at))
        }
        FlashCommand::Erase { block } => {
            dev.erase_block(*block, at).map(|o| (Vec::new(), None, o.completed_at))
        }
        FlashCommand::Copyback { src, dst } => {
            dev.copyback(*src, *dst, at).map(|o| (Vec::new(), None, o.completed_at))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// N random interleaved submissions through `CommandQueue` leave the
    /// device in the same state — block-for-block, epoch-for-epoch — as
    /// the same operations through the legacy blocking API, with
    /// identical per-operation completion times and verdicts.
    #[test]
    fn queued_and_blocking_submission_are_equivalent(
        seed in 0u64..(1u64 << 48),
        nops in 60usize..160,
    ) {
        let geo = FlashGeometry::small_test();
        let commands = generate_commands(seed, nops, &geo);

        // Reference: the blocking API, one call after another (all issued
        // at t=0; the per-die clocks provide the serialisation).
        let blocking_dev = device();
        let mut blocking: Vec<BlockingOutcome> = Vec::with_capacity(commands.len());
        for cmd in &commands {
            blocking.push(run_blocking(&blocking_dev, cmd, SimTime::ZERO));
        }

        // Queued: the same submission order through the command queue.
        let queued_dev = Arc::new(device());
        let queue = CommandQueue::new(queued_dev.clone());
        let handles = queue.submit_batch(commands.iter().cloned(), SimTime::ZERO);
        for (i, h) in handles.into_iter().enumerate() {
            let completion = queue.wait(h).unwrap();
            match (&blocking[i], completion.result) {
                (Ok((data, meta, done)), Ok(out)) => {
                    prop_assert_eq!(data, &out.data, "payload of op {}", i);
                    prop_assert_eq!(meta, &out.meta, "metadata of op {}", i);
                    prop_assert_eq!(*done, out.outcome.completed_at, "completion of op {}", i);
                }
                (Err(expected), Err(got)) => prop_assert_eq!(expected, &got, "error of op {}", i),
                (expected, got) => {
                    prop_assert!(false, "op {i}: blocking {expected:?} vs queued {got:?}");
                }
            }
        }

        // Identical final device images: page states, payloads, OOB
        // metadata (thus per-page epochs), wear and statistics.
        let a = blocking_dev.snapshot();
        let b = queued_dev.snapshot();
        prop_assert_eq!(a.blocks, b.blocks);
        prop_assert_eq!(a.stats, b.stats);
        prop_assert_eq!(a.epoch, b.epoch);
        prop_assert_eq!(a.wear, b.wear);
    }
}

/// Threads submitting to disjoint dies through one shared queue get the
/// same per-die completion times as a single-threaded run — they no
/// longer serialize on a device-global mutex, so nothing about their
/// interleaving can influence the timing model.
#[test]
fn concurrent_disjoint_die_reads_do_not_serialize() {
    let geo = FlashGeometry::small_test();
    let prep = |dev: &NandDevice| {
        for die in 0..geo.total_dies() {
            for p in 0..geo.pages_per_block {
                let addr = PageAddr::new(DieId(die), 0, 0, p);
                let data = vec![(die ^ p) as u8; geo.page_size as usize];
                dev.program_page(addr, &data, PageMetadata::new(1, p as u64), SimTime::ZERO)
                    .unwrap();
            }
        }
    };
    let read_die = move |queue: &CommandQueue, die: u32, at: SimTime| -> Vec<SimTime> {
        let handles: Vec<_> = (0..geo.pages_per_block)
            .map(|p| {
                queue.submit(FlashCommand::Read { addr: PageAddr::new(DieId(die), 0, 0, p) }, at)
            })
            .collect();
        handles
            .into_iter()
            .map(|h| queue.wait(h).unwrap().result.unwrap().outcome.completed_at)
            .collect()
    };

    // Single-threaded reference.
    let ref_dev = Arc::new(device());
    prep(&ref_dev);
    let t0 = ref_dev.quiesce_time();
    let ref_queue = CommandQueue::new(ref_dev.clone());
    let expect0 = read_die(&ref_queue, 0, t0);
    let expect2 = read_die(&ref_queue, 2, t0);

    // Two threads on dies of different channels, one shared queue.
    let dev = Arc::new(device());
    prep(&dev);
    let queue = Arc::new(CommandQueue::new(dev.clone()));
    let (qa, qb) = (Arc::clone(&queue), Arc::clone(&queue));
    let ta = std::thread::spawn(move || read_die(&qa, 0, t0));
    let tb = std::thread::spawn(move || read_die(&qb, 2, t0));
    let got0 = ta.join().unwrap();
    let got2 = tb.join().unwrap();
    assert_eq!(got0, expect0, "die 0 timings must match the single-threaded run");
    assert_eq!(got2, expect2, "die 2 timings must match the single-threaded run");
}

/// With a power cut armed, a queued fan-out batch tears exactly the
/// commands whose scheduled completion exceeds the cut instant.
#[test]
fn power_cut_tears_exactly_the_late_queued_programs() {
    let geo = FlashGeometry::small_test();
    let batch = |start_block: u32| -> Vec<FlashCommand> {
        // Two programs per die (depth 2 everywhere), all issued at t=0.
        (0..2 * geo.total_dies())
            .map(|i| {
                let die = i % geo.total_dies();
                let page = i / geo.total_dies();
                let addr = PageAddr::new(DieId(die), 0, start_block, page);
                let data = vec![i as u8; geo.page_size as usize];
                FlashCommand::Program {
                    addr,
                    data: data.clone(),
                    meta: PageMetadata::new(1, i as u64).with_payload_checksum(&data),
                }
            })
            .collect()
    };

    // Probe run (no cut) to learn every command's completion time.
    let probe_dev = Arc::new(device());
    let probe_q = CommandQueue::new(probe_dev.clone());
    let probe_handles = probe_q.submit_batch(batch(0), SimTime::ZERO);
    let completions: Vec<SimTime> = probe_handles
        .into_iter()
        .map(|h| probe_q.wait(h).unwrap().result.unwrap().outcome.completed_at)
        .collect();
    let earliest = *completions.iter().min().unwrap();
    let latest = *completions.iter().max().unwrap();
    assert!(earliest < latest, "queue depth 2 must stagger completions");
    // Cut strictly between the first and second wave.
    let cut = SimTime((earliest.as_nanos() + latest.as_nanos()) / 2);

    let dev = Arc::new(device());
    dev.arm_power_cut(cut);
    let queue = CommandQueue::new(dev.clone());
    let handles = queue.submit_batch(batch(0), SimTime::ZERO);
    let mut survived = 0;
    for (i, h) in handles.into_iter().enumerate() {
        let completion = queue.wait(h).unwrap();
        if completions[i] <= cut {
            let out = completion.result.unwrap_or_else(|e| {
                panic!("op {i} completing at {:?} <= cut {cut:?} must survive: {e}", completions[i])
            });
            assert_eq!(out.outcome.completed_at, completions[i]);
            survived += 1;
        } else {
            let err = completion.result.expect_err("op completing after the cut must tear");
            assert!(err.is_power_loss(), "op {i}: {err}");
        }
    }
    assert_eq!(survived, geo.total_dies() as usize, "exactly the first wave survives");
}

/// A power cut mid-`write_batch` at the storage-manager level: the
/// committed prefix survives a reboot + mount, torn pages are discarded,
/// and the recovered manager serves the pre-crash versions.
#[test]
fn queued_write_batch_under_power_cut_mounts_cleanly() {
    let dev = Arc::new(device());
    let noftl = NoFtl::new(dev.clone(), NoFtlConfig::default());
    let rg = noftl.create_region(RegionSpec::named("rg").with_die_count(4)).unwrap();
    let obj = noftl.create_object("t", rg).unwrap();
    let psz = dev.geometry().page_size as usize;
    let page = |b: u8| vec![b; psz];

    // Base versions of 8 pages, checkpointed so the device mounts.
    let mut t = SimTime::ZERO;
    for p in 0..8u64 {
        t = noftl.write(obj, p, &page(0x10 + p as u8), t).unwrap();
    }
    t = noftl.checkpoint(t).unwrap();

    // Overwrite all 8 via a queued batch with a cut landing mid-batch:
    // two waves of 4 (one per die); tear the second wave.
    let quiesce = dev.quiesce_time();
    let probe_dev = Arc::new(device());
    let probe = NoFtl::new(probe_dev.clone(), NoFtlConfig::default());
    let prg = probe.create_region(RegionSpec::named("rg").with_die_count(4)).unwrap();
    let pobj = probe.create_object("t", prg).unwrap();
    let w0 = probe.submit_write(pobj, 0, &page(1), SimTime::ZERO).unwrap();
    let (_, first_done) = probe.wait_io(w0).unwrap();
    let span = first_done.as_nanos();
    let cut = SimTime(quiesce.as_nanos() + span * 3 / 2);
    dev.arm_power_cut(cut);

    let batch: Vec<(u32, u64, Vec<u8>)> =
        (0..8u64).map(|p| (obj, p, page(0x40 + p as u8))).collect();
    let err = noftl.write_batch(&batch, quiesce).unwrap_err();
    assert!(matches!(err, noftl_regions::noftl::NoFtlError::Flash(e) if e.is_power_loss()));

    // Reboot from the snapshot and mount.
    let dev2 = Arc::new(dev.power_cycle(None).unwrap());
    let (mounted, report) = NoFtl::mount(dev2, NoFtlConfig::default(), t).unwrap();
    assert!(report.torn_pages_discarded > 0, "the cut must have torn part of the batch");
    // Every page reads as either its base version or its batch version —
    // never a torn mix (the checksum would have discarded it).
    let done = report.completed_at;
    let mut new_versions = 0;
    for p in 0..8u64 {
        let (data, _) = mounted.read(obj, p, done).unwrap();
        let old = page(0x10 + p as u8);
        let new = page(0x40 + p as u8);
        assert!(data == old || data == new, "page {p} must be one complete version");
        new_versions += usize::from(data == new);
    }
    assert!(new_versions >= 1, "the first wave of the batch completed before the cut");
    assert!(new_versions < 8, "the cut must have prevented part of the batch");
}
