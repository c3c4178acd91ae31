//! The NoFTL-KV store: memtable + per-region sorted runs, flushed and
//! compacted through the command-queue submission API.
//!
//! See the [module docs](super) for the architecture.  The durability
//! contract in one line: **a put is committed once a flush covering it
//! returns** — run pages written (as one queued multi-die batch) *and*
//! the object directory checkpointed through the storage manager's
//! region-metadata journal.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use parking_lot::Mutex;

use flash_sim::{ServiceClass, SimTime};

use crate::error::NoFtlError;
use crate::manager::{NoFtl, Pipeline};
use crate::object::ObjectId;
use crate::obs::KvObs;
use crate::region::RegionId;
use crate::Result;

use super::memtable::Memtable;
use super::run::{self, Entry, RunMeta};

/// Configuration of a [`KvStore`].
#[derive(Debug, Clone, Copy)]
pub struct KvConfig {
    /// Memtable flush threshold in approximate resident bytes.
    pub memtable_bytes: usize,
    /// Number of runs in one level that triggers a size-tiered merge into
    /// the next level.
    pub compaction_threshold: usize,
    /// Fan flushes/compactions out across the region's dies in one
    /// batch-deep window (as [`NoFtl::write_batch`] does).  `false` writes
    /// one page at a time (window 1) — the ablation the `kv_ops` bench
    /// measures.
    pub queued_flush: bool,
    /// Checkpoint the storage manager after create/flush/compaction so
    /// the run directory is durable (the store's commit point).  Disable
    /// only when the caller batches its own checkpoints.
    pub auto_checkpoint: bool,
    /// Maximum reads in flight when scans and compaction merges pull run
    /// pages through [`NoFtl::read_windowed`] — the read-side counterpart
    /// of `queued_flush`.  `1` degrades to one blocking read at a time.
    pub read_window: usize,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            memtable_bytes: 64 * 1024,
            compaction_threshold: 4,
            queued_flush: true,
            auto_checkpoint: true,
            read_window: 8,
        }
    }
}

/// Operation counters of a [`KvStore`].
#[derive(Debug, Clone, Default)]
pub struct KvStats {
    /// Puts accepted.
    pub puts: u64,
    /// Deletes (tombstones) accepted.
    pub deletes: u64,
    /// Point lookups served.
    pub gets: u64,
    /// Range scans served.
    pub scans: u64,
    /// Gets answered from the memtable (value or tombstone).
    pub memtable_hits: u64,
    /// Run pages read on behalf of gets/scans/merges.
    pub run_page_reads: u64,
    /// Memtable flushes completed.
    pub flushes: u64,
    /// Pages written by flushes (data + footer).
    pub flushed_pages: u64,
    /// Compaction merges started.
    pub compactions_started: u64,
    /// Compaction merges completed.
    pub compactions: u64,
    /// Source runs retired by completed compactions.
    pub compacted_runs: u64,
    /// Pages written by completed compactions.
    pub compacted_pages: u64,
    /// Simulated-time windows `(start_ns, end_ns)` of completed
    /// compaction merges — the crash harness aims power cuts into these.
    pub compaction_windows: Vec<(u64, u64)>,
}

/// Rows returned by [`KvStore::scan`]: live key/value pairs in key order.
pub type ScanResult = Vec<(Vec<u8>, Vec<u8>)>;

/// What [`KvStore::open`] found while rebuilding the run directory.
#[derive(Debug, Clone, Default)]
pub struct KvOpenReport {
    /// Valid runs adopted into the directory.
    pub runs_recovered: usize,
    /// Incomplete runs discarded (torn by a power cut before their flush
    /// or merge was acknowledged).
    pub torn_runs_discarded: usize,
    /// Runs dropped because a durable merged run covers their sequence
    /// range (crash landed between a merge commit and the source drops).
    pub superseded_runs_discarded: usize,
    /// Total entries across recovered runs (tombstones included).
    pub entries_recovered: u64,
    /// Next flush sequence number.
    pub next_seq: u64,
    /// Device time when the open (footer reads included) finished.
    pub completed_at: SimTime,
}

#[derive(Debug)]
struct KvInner {
    memtable: Memtable,
    /// Live runs, newest first (descending `seq_hi`; live runs always
    /// cover pairwise-disjoint sequence ranges).
    runs: Vec<RunMeta>,
    next_seq: u64,
    stats: KvStats,
}

/// A log-structured key-value store over one NoFTL region.
pub struct KvStore {
    noftl: Arc<NoFtl>,
    region: RegionId,
    name: String,
    config: KvConfig,
    inner: Mutex<KvInner>,
    /// Pre-bound metric handles on the stack's shared registry.
    obs: KvObs,
}

impl std::fmt::Debug for KvStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("KvStore")
            .field("name", &self.name)
            .field("region", &self.region)
            .field("runs", &inner.runs.len())
            .field("memtable_entries", &inner.memtable.len())
            .finish_non_exhaustive()
    }
}

fn kv_err(message: impl Into<String>) -> NoFtlError {
    NoFtlError::Kv { message: message.into() }
}

impl KvStore {
    /// Marker-object name anchoring a store (records its region in the
    /// checkpointed object directory).
    fn marker_name(name: &str) -> String {
        format!("__kv_{name}")
    }

    /// Name prefix of this store's run objects.
    fn run_prefix(name: &str) -> String {
        format!("__kv_{name}_r")
    }

    fn run_name(&self, level: u32, seq_lo: u64, seq_hi: u64) -> String {
        format!("{}{level}_{seq_lo}_{seq_hi}", Self::run_prefix(&self.name))
    }

    fn validate_name(name: &str) -> Result<()> {
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '-') {
            return Err(kv_err(format!(
                "store name '{name}' must be non-empty ASCII alphanumeric/'-'"
            )));
        }
        Ok(())
    }

    /// Create a new store in `region`.  Registers the store's marker
    /// object and (with `auto_checkpoint`) checkpoints so the store
    /// survives a crash even before its first flush.  Returns the store
    /// and the completion time.
    pub fn create(
        noftl: Arc<NoFtl>,
        region: RegionId,
        name: &str,
        config: KvConfig,
        at: SimTime,
    ) -> Result<(KvStore, SimTime)> {
        Self::validate_name(name)?;
        noftl.create_object(&Self::marker_name(name), region)?;
        let mut now = at;
        if config.auto_checkpoint {
            now = noftl.checkpoint(now)?;
        }
        let store = KvStore {
            obs: KvObs::new(Arc::clone(noftl.metrics())),
            noftl,
            region,
            name: name.to_string(),
            config,
            inner: Mutex::new(KvInner {
                memtable: Memtable::new(),
                runs: Vec::new(),
                next_seq: 1,
                stats: KvStats::default(),
            }),
        };
        Ok((store, now))
    }

    /// Re-open a store on a freshly mounted storage manager.
    ///
    /// Rebuilds the run directory from the checkpointed object directory:
    /// every surviving run object's footer is read back and validated.
    /// Runs torn by a power cut (missing pages after the mount's OOB
    /// checksum scan, or an unreadable footer) are discarded — they
    /// belong to flushes that were never acknowledged.  So are orphan
    /// objects that decode as this store's runs (same situation, crash
    /// during the directory checkpoint) and runs whose sequence range is
    /// covered by a durable higher-level merge (crash between a merge
    /// commit and its source drops).
    pub fn open(
        noftl: Arc<NoFtl>,
        name: &str,
        config: KvConfig,
        at: SimTime,
    ) -> Result<(KvStore, KvOpenReport)> {
        Self::validate_name(name)?;
        let marker = Self::marker_name(name);
        let marker_id = noftl
            .object_id(&marker)
            .ok_or_else(|| kv_err(format!("kv store '{name}' not found (no marker object)")))?;
        let region = noftl.object_stats(marker_id)?.region;
        let mut report = KvOpenReport::default();
        let mut now = at;

        // Candidate run objects: properly named runs plus orphans (objects
        // that lost their directory entry to a crash mid-checkpoint).
        let mut candidates = noftl.objects_with_prefix(&Self::run_prefix(name));
        candidates.extend(noftl.objects_with_prefix("__orphan_"));
        let mut runs: Vec<RunMeta> = Vec::new();
        for (obj, obj_name) in candidates {
            let orphan = obj_name.starts_with("__orphan_");
            match Self::load_run(&noftl, name, obj, &mut now) {
                Some(mut meta) if !orphan => {
                    meta.object = obj;
                    report.entries_recovered += meta.entries;
                    runs.push(meta);
                }
                Some(_) => {
                    // A complete run that never made it into the directory:
                    // its flush was not acknowledged.  Discard.
                    noftl.drop_object(obj)?;
                    report.torn_runs_discarded += 1;
                }
                None if orphan => {
                    // Not ours (or not a run at all) — leave it alone.
                }
                None => {
                    noftl.drop_object(obj)?;
                    report.torn_runs_discarded += 1;
                }
            }
        }

        // Supersession: a durable merge covers its sources' entire
        // sequence range at a higher level.
        let covered: Vec<ObjectId> = runs
            .iter()
            .filter(|b| {
                runs.iter()
                    .any(|a| a.level > b.level && a.seq_lo <= b.seq_lo && b.seq_hi <= a.seq_hi)
            })
            .map(|b| b.object)
            .collect();
        for obj in &covered {
            noftl.drop_object(*obj)?;
            report.superseded_runs_discarded += 1;
        }
        runs.retain(|r| !covered.contains(&r.object));
        report.entries_recovered = runs.iter().map(|r| r.entries).sum();

        runs.sort_by_key(|r| std::cmp::Reverse(r.seq_hi));
        report.runs_recovered = runs.len();
        report.next_seq = runs.iter().map(|r| r.seq_hi).max().unwrap_or(0) + 1;
        report.completed_at = now;
        let store = KvStore {
            obs: KvObs::new(Arc::clone(noftl.metrics())),
            noftl,
            region,
            name: name.to_string(),
            config,
            inner: Mutex::new(KvInner {
                memtable: Memtable::new(),
                runs,
                next_seq: report.next_seq,
                stats: KvStats::default(),
            }),
        };
        Ok((store, report))
    }

    /// Validate one candidate run object and decode its footer into a
    /// [`RunMeta`].  `None` = not a complete run of `store`.
    fn load_run(noftl: &NoFtl, store: &str, obj: ObjectId, now: &mut SimTime) -> Option<RunMeta> {
        let extent = noftl.object_extent(obj).ok()?;
        if extent == 0 {
            return None; // no durable pages at all
        }
        // Torn data pages were discarded by the mount's OOB checksum scan,
        // leaving holes in the page map: mapped != extent ⇒ incomplete.
        if noftl.object_pages(obj).ok()? != extent {
            return None;
        }
        let (payload, t) = noftl.read(obj, extent - 1, *now).ok()?;
        *now = t;
        let footer = run::decode_footer(&payload)?;
        if footer.store != store || u64::from(footer.data_pages) + 1 != extent {
            return None;
        }
        let min_key = footer.index.first().map(|(k, _)| k.clone()).unwrap_or_default();
        Some(RunMeta {
            object: obj,
            level: footer.level,
            seq_lo: footer.seq_lo,
            seq_hi: footer.seq_hi,
            entries: footer.entries,
            data_pages: footer.data_pages,
            min_key,
            max_key: footer.max_key,
            index: footer.index,
            written_at: *now,
        })
    }

    /// The store's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The region hosting the store's runs.
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// Snapshot of the operation counters.
    pub fn stats(&self) -> KvStats {
        self.inner.lock().stats.clone()
    }

    /// Number of live runs (all levels).
    pub fn run_count(&self) -> usize {
        self.inner.lock().runs.len()
    }

    /// Entries currently buffered in the memtable.
    pub fn memtable_len(&self) -> usize {
        self.inner.lock().memtable.len()
    }

    fn check_entry_size(&self, key: &[u8], value_len: usize) -> Result<()> {
        let page_size = self.noftl.device().geometry().page_size as usize;
        if key.is_empty() {
            return Err(kv_err("empty keys are not supported"));
        }
        if key.len() > u16::MAX as usize
            || key.len() + value_len > run::max_entry_payload(page_size)
        {
            return Err(kv_err(format!(
                "entry of {} bytes exceeds the per-page budget of {}",
                key.len() + value_len,
                run::max_entry_payload(page_size)
            )));
        }
        Ok(())
    }

    /// Insert or overwrite a key.  May trigger a memtable flush (and
    /// cascading compactions) when the buffer crosses its threshold.
    /// Returns the completion time (`at` if the write stayed in memory).
    pub fn put(&self, key: &[u8], value: &[u8], at: SimTime) -> Result<SimTime> {
        self.check_entry_size(key, value.len())?;
        let mut inner = self.inner.lock();
        inner.stats.puts += 1;
        inner.memtable.insert(key.to_vec(), Some(value.to_vec()));
        let now = self.maybe_flush(&mut inner, at)?;
        self.obs.note_put(at, now);
        Ok(now)
    }

    /// Delete a key (a tombstone that shadows older run versions).
    pub fn delete(&self, key: &[u8], at: SimTime) -> Result<SimTime> {
        self.check_entry_size(key, 0)?;
        let mut inner = self.inner.lock();
        inner.stats.deletes += 1;
        inner.memtable.insert(key.to_vec(), None);
        self.maybe_flush(&mut inner, at)
    }

    /// Point lookup: memtable first, then runs newest-to-oldest.
    pub fn get(&self, key: &[u8], at: SimTime) -> Result<(Option<Vec<u8>>, SimTime)> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        inner.stats.gets += 1;
        if let Some(hit) = inner.memtable.get(key) {
            inner.stats.memtable_hits += 1;
            return Ok((hit.map(<[u8]>::to_vec), at));
        }
        let mut now = at;
        for run_meta in &inner.runs {
            if !run_meta.may_contain(key) {
                continue;
            }
            let (start, end) = run_meta.page_window(key);
            for page in start..end {
                let (payload, t) = self.noftl.read(run_meta.object, u64::from(page), now)?;
                now = t;
                inner.stats.run_page_reads += 1;
                let entries = run::decode_data_page(&payload).ok_or_else(|| {
                    kv_err(format!("run object {} page {page} is not a data page", run_meta.object))
                })?;
                if let Some(value) = run::search_entries(&entries, key) {
                    return Ok((value.clone(), now));
                }
            }
        }
        Ok((None, now))
    }

    /// Range scan over `[lo, hi]` (inclusive; `None` = unbounded).
    /// Returns live key/value pairs in key order.
    pub fn scan(
        &self,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        at: SimTime,
    ) -> Result<(ScanResult, SimTime)> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        inner.stats.scans += 1;
        let mut now = at;
        let in_range = |key: &[u8]| lo.is_none_or(|lo| key >= lo) && hi.is_none_or(|hi| key <= hi);
        let mut merged: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        // Oldest to newest so later versions overwrite earlier ones.
        for run_meta in inner.runs.iter().rev() {
            if run_meta.entries == 0 {
                continue;
            }
            let (start, end) = run_meta.range_window(lo, hi);
            if start >= end {
                continue;
            }
            // Pull the run's window through the bounded read pipeline so
            // the page fetches overlap the region's dies.
            let reads: Vec<_> =
                (start..end).map(|page| (run_meta.object, u64::from(page))).collect();
            let (pages, t) = self.noftl.read_windowed(&reads, now, self.config.read_window)?;
            now = now.max(t);
            inner.stats.run_page_reads += reads.len() as u64;
            for (i, payload) in pages.iter().enumerate() {
                let page = start + i as u32;
                let entries = run::decode_data_page(payload).ok_or_else(|| {
                    kv_err(format!("run object {} page {page} is not a data page", run_meta.object))
                })?;
                for (key, value) in entries {
                    if in_range(&key) {
                        merged.insert(key, value);
                    }
                }
            }
        }
        let lo_bound = lo.map_or(Bound::Unbounded, Bound::Included);
        let hi_bound = hi.map_or(Bound::Unbounded, Bound::Included);
        for (key, value) in inner.memtable.range(lo_bound, hi_bound) {
            merged.insert(key.to_vec(), value.map(<[u8]>::to_vec));
        }
        let out = merged.into_iter().filter_map(|(k, v)| v.map(|v| (k, v))).collect::<Vec<_>>();
        Ok((out, now))
    }

    /// Bounded range scan: up to `limit` live entries with key `>= lo`
    /// (`None` = from the start), in key order.
    ///
    /// Unlike [`scan`](Self::scan), the merge is *limit-aware*: the runs
    /// are drained through per-run streaming cursors (each pulling pages
    /// through the windowed pipeline in [`KvConfig::read_window`]-sized
    /// chunks on demand), merged smallest-key-first with the newest
    /// source winning each key.  Tombstones do not consume result slots:
    /// the merge keeps draining past masked keys until `limit` live rows
    /// are found or every source is exhausted, so delete-heavy workloads
    /// get exactly as many rows as a full scan would (the former
    /// under-fill).  A short scan of a large store still touches a
    /// handful of pages instead of every run tail.
    pub fn scan_limit(
        &self,
        lo: Option<&[u8]>,
        limit: usize,
        at: SimTime,
    ) -> Result<(ScanResult, SimTime)> {
        if limit == 0 {
            return Ok((Vec::new(), at));
        }
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        inner.stats.scans += 1;
        let mut now = at;
        // One streaming cursor per run, in `inner.runs` order (newest
        // seq_hi first): each holds the run's undrained entries at or
        // above `lo` and refills a window of pages at a time on demand.
        struct Cursor {
            object: ObjectId,
            next_page: u32,
            end: u32,
            buf: std::collections::VecDeque<(Vec<u8>, Option<Vec<u8>>)>,
        }
        let mut cursors: Vec<Cursor> = inner
            .runs
            .iter()
            .filter(|r| r.entries != 0)
            .map(|r| {
                let (start, end) = r.range_window(lo, None);
                Cursor {
                    object: r.object,
                    next_page: start,
                    end,
                    buf: std::collections::VecDeque::new(),
                }
            })
            .collect();
        let window = self.config.read_window.max(1) as u32;
        // The memtable: the newest source of all.
        let lo_bound = lo.map_or(Bound::Unbounded, Bound::Included);
        let mut mem: std::collections::VecDeque<(Vec<u8>, Option<Vec<u8>>)> = inner
            .memtable
            .range(lo_bound, Bound::Unbounded)
            .map(|(k, v)| (k.to_vec(), v.map(<[u8]>::to_vec)))
            .collect();
        let mut out: ScanResult = Vec::with_capacity(limit);
        loop {
            // Refill every drained cursor that still has pages.
            for c in &mut cursors {
                while c.buf.is_empty() && c.next_page < c.end {
                    let chunk_end = c.end.min(c.next_page + window);
                    let reads: Vec<_> =
                        (c.next_page..chunk_end).map(|p| (c.object, u64::from(p))).collect();
                    let (pages, t) =
                        self.noftl.read_windowed(&reads, now, self.config.read_window)?;
                    now = now.max(t);
                    inner.stats.run_page_reads += reads.len() as u64;
                    for (i, payload) in pages.iter().enumerate() {
                        let p = c.next_page + i as u32;
                        let entries = run::decode_data_page(payload).ok_or_else(|| {
                            kv_err(format!("run object {} page {p} is not a data page", c.object))
                        })?;
                        for (key, value) in entries {
                            if lo.is_none_or(|lo| key.as_slice() >= lo) {
                                c.buf.push_back((key, value));
                            }
                        }
                    }
                    c.next_page = chunk_end;
                }
            }
            // Smallest key across all sources.
            let mut min_key: Option<Vec<u8>> = mem.front().map(|(k, _)| k.clone());
            for c in &cursors {
                if let Some((k, _)) = c.buf.front() {
                    if min_key.as_ref().is_none_or(|m| k < m) {
                        min_key = Some(k.clone());
                    }
                }
            }
            let Some(min_key) = min_key else { break };
            // Newest version wins: the memtable first, then the runs in
            // `inner.runs` order; every older version of the key is
            // popped so the next round sees fresh fronts.
            let mut winner: Option<Option<Vec<u8>>> = None;
            if mem.front().is_some_and(|(k, _)| *k == min_key) {
                if let Some((_, v)) = mem.pop_front() {
                    winner = Some(v);
                }
            }
            for c in &mut cursors {
                if c.buf.front().is_some_and(|(k, _)| *k == min_key) {
                    if let Some((_, v)) = c.buf.pop_front() {
                        if winner.is_none() {
                            winner = Some(v);
                        }
                    }
                }
            }
            // A `Some(None)` winner is a tombstone: drained, not emitted.
            if let Some(Some(value)) = winner {
                out.push((min_key, value));
                if out.len() == limit {
                    break;
                }
            }
        }
        Ok((out, now))
    }

    /// Flush the memtable to a level-0 run (no-op when empty).  This is
    /// the store's durability point: on return the run's pages are on
    /// flash and the run directory is checkpointed.
    pub fn flush(&self, at: SimTime) -> Result<SimTime> {
        let mut inner = self.inner.lock();
        let now = self.flush_locked(&mut inner, at)?;
        self.maybe_compact(&mut inner, now)
    }

    fn maybe_flush(&self, inner: &mut KvInner, at: SimTime) -> Result<SimTime> {
        if inner.memtable.approx_bytes() < self.config.memtable_bytes {
            return Ok(at);
        }
        let now = self.flush_locked(inner, at)?;
        self.maybe_compact(inner, now)
    }

    fn flush_locked(&self, inner: &mut KvInner, at: SimTime) -> Result<SimTime> {
        if inner.memtable.is_empty() {
            return Ok(at);
        }
        let seq = inner.next_seq;
        let entries = inner.memtable.take_sorted();
        let now = self.write_run(inner, 0, (seq, seq), &entries, at, None)?;
        inner.next_seq = seq + 1;
        inner.stats.flushes += 1;
        self.obs.note_flush(entries.len() as u64, at, now);
        Ok(now)
    }

    /// Write one run (pages fanned out through the queued batch path),
    /// checkpoint the directory and install the [`RunMeta`].
    fn write_run(
        &self,
        inner: &mut KvInner,
        level: u32,
        (seq_lo, seq_hi): (u64, u64),
        entries: &[Entry],
        at: SimTime,
        class: Option<ServiceClass>,
    ) -> Result<SimTime> {
        let page_size = self.noftl.device().geometry().page_size as usize;
        let encoded = run::encode_run(&self.name, level, seq_lo, seq_hi, entries, page_size);
        let obj = self.noftl.create_object(&self.run_name(level, seq_lo, seq_hi), self.region)?;
        let page_count = encoded.pages.len() as u64;
        let batch: Vec<(ObjectId, u64, Vec<u8>)> =
            encoded.pages.into_iter().enumerate().map(|(i, page)| (obj, i as u64, page)).collect();
        // The queued flush issues the whole run at one shared time, fanned
        // across the region's dies; the ablation writes strictly one page
        // at a time.
        let window = if self.config.queued_flush { batch.len() } else { 1 };
        let mut now =
            self.noftl.write_pages(&batch, at, Pipeline { class, ..Pipeline::window(window) })?;
        if self.config.auto_checkpoint {
            now = self.noftl.checkpoint(now)?;
        }
        let mut meta = encoded.meta;
        meta.object = obj;
        meta.written_at = now;
        let pos = inner.runs.partition_point(|r| r.seq_hi > meta.seq_hi);
        inner.runs.insert(pos, meta);
        if level == 0 {
            inner.stats.flushed_pages += page_count;
        } else {
            inner.stats.compacted_pages += page_count;
        }
        Ok(now)
    }

    /// Run size-tiered compactions until no level holds
    /// `compaction_threshold` runs or more.  The threshold is clamped to
    /// 2: a merge needs at least two sources, and a lower configured
    /// value would re-select the same single-run level forever.
    fn maybe_compact(&self, inner: &mut KvInner, at: SimTime) -> Result<SimTime> {
        let threshold = self.config.compaction_threshold.max(2);
        let mut now = at;
        // Each merge strictly shrinks the run count, so this terminates.
        loop {
            let mut by_level: BTreeMap<u32, usize> = BTreeMap::new();
            for r in &inner.runs {
                *by_level.entry(r.level).or_default() += 1;
            }
            let Some(level) =
                by_level.iter().find(|(_, count)| **count >= threshold).map(|(level, _)| *level)
            else {
                return Ok(now);
            };
            now = self.compact_level(inner, level, now)?;
        }
    }

    /// Merge every run of `level` into one run at `level + 1`: the
    /// region-local GC expression of LSM compaction.  The merged run is
    /// written as one queued batch and made durable (checkpoint) *before*
    /// the sources are retired through the object-drop path, so a crash
    /// at any instant leaves either the sources or the merge — never
    /// neither.
    fn compact_level(&self, inner: &mut KvInner, level: u32, at: SimTime) -> Result<SimTime> {
        let sources: Vec<RunMeta> =
            inner.runs.iter().filter(|r| r.level == level).cloned().collect();
        if sources.len() < 2 {
            return Ok(at);
        }
        inner.stats.compactions_started += 1;
        let started = at;
        // `sources.len() >= 2` was checked above, so the fold always sees
        // at least one run.
        let (seq_lo, seq_hi) =
            sources.iter().fold((u64::MAX, 0), |(lo, hi), r| (lo.min(r.seq_lo), hi.max(r.seq_hi)));
        // Tombstones may be dropped once no older run could still hold a
        // shadowed version of the key.
        let bottom = !inner.runs.iter().any(|r| r.seq_hi < seq_lo);

        // Merge: read sources oldest-first so newer versions win.
        let mut merged: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        let mut now = at;
        let mut ordered = sources.clone();
        ordered.sort_by_key(|r| r.seq_hi);
        for src in &ordered {
            if src.data_pages == 0 {
                continue;
            }
            // Merge input is read through the bounded pipeline: up to
            // `read_window` pages of the source run in flight at once.
            let reads: Vec<_> =
                (0..src.data_pages).map(|page| (src.object, u64::from(page))).collect();
            // Compaction merge input is maintenance traffic.
            let io = Pipeline {
                class: Some(ServiceClass::Background),
                observed: true,
                ..Pipeline::window(self.config.read_window)
            };
            let (pages, t) = self.noftl.read_pages(&reads, now, io)?;
            now = now.max(t);
            inner.stats.run_page_reads += reads.len() as u64;
            for (page, payload) in pages.iter().enumerate() {
                let entries = run::decode_data_page(payload).ok_or_else(|| {
                    kv_err(format!("run object {} page {page} is not a data page", src.object))
                })?;
                for (key, value) in entries {
                    merged.insert(key, value);
                }
            }
        }
        if bottom {
            merged.retain(|_, v| v.is_some());
        }
        let entries: Vec<Entry> = merged.into_iter().collect();
        now = self.write_run(
            inner,
            level + 1,
            (seq_lo, seq_hi),
            &entries,
            now,
            Some(ServiceClass::Background),
        )?;

        // Retire the sources through the normal drop path: their pages
        // become invalid and the region's GC reclaims the blocks.
        for src in &sources {
            self.noftl.drop_object(src.object)?;
            inner.runs.retain(|r| r.object != src.object);
            inner.stats.compacted_runs += 1;
        }
        if self.config.auto_checkpoint {
            now = self.noftl.checkpoint(now)?;
        }
        inner.stats.compactions += 1;
        inner.stats.compaction_windows.push((started.as_nanos(), now.as_nanos()));
        self.obs.note_compact(u64::from(level), started, now);
        Ok(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::RegionSpec;
    use crate::NoFtlConfig;
    use flash_sim::{DeviceBuilder, FlashGeometry, NandDevice, TimingModel};

    fn stack(timing: TimingModel) -> (Arc<NandDevice>, Arc<NoFtl>, RegionId) {
        let device =
            Arc::new(DeviceBuilder::new(FlashGeometry::small_test()).timing(timing).build());
        let noftl = Arc::new(NoFtl::new(device.clone(), NoFtlConfig::default()));
        let rid = noftl.create_region(RegionSpec::named("rgKv").with_die_count(3)).unwrap();
        (device, noftl, rid)
    }

    fn small_config() -> KvConfig {
        KvConfig { memtable_bytes: 4 * 1024, compaction_threshold: 3, ..KvConfig::default() }
    }

    fn key(i: u64) -> Vec<u8> {
        format!("user{i:06}").into_bytes()
    }

    fn val(i: u64, round: u64) -> Vec<u8> {
        format!("value-{i:06}-v{round:04}-padpadpad").into_bytes()
    }

    #[test]
    fn put_get_roundtrip_through_memtable_and_runs() {
        let (_d, noftl, rid) = stack(TimingModel::instant());
        let (kv, mut t) =
            KvStore::create(Arc::clone(&noftl), rid, "s", small_config(), SimTime::ZERO).unwrap();
        for i in 0..200u64 {
            t = kv.put(&key(i), &val(i, 0), t).unwrap();
        }
        assert!(kv.stats().flushes > 0, "threshold must have forced flushes");
        assert!(kv.run_count() > 0);
        // Some keys now live only in runs, some still in the memtable.
        for i in 0..200u64 {
            let (got, t2) = kv.get(&key(i), t).unwrap();
            t = t2;
            assert_eq!(got.as_deref(), Some(val(i, 0).as_slice()), "key {i}");
        }
        let stats = kv.stats();
        assert!(stats.memtable_hits > 0);
        assert!(stats.run_page_reads > 0);
        assert_eq!(kv.get(b"missing", t).unwrap().0, None);
    }

    #[test]
    fn scan_limit_drains_past_tombstones_to_fill_the_limit() {
        let (_d, noftl, rid) = stack(TimingModel::instant());
        let (kv, mut t) =
            KvStore::create(Arc::clone(&noftl), rid, "s", small_config(), SimTime::ZERO).unwrap();
        // 120 keys, then delete every key not divisible by 10 — a
        // tombstone-heavy store where live rows are sparse in key order.
        for i in 0..120u64 {
            t = kv.put(&key(i), &val(i, 0), t).unwrap();
        }
        t = kv.flush(t).unwrap();
        for i in 0..120u64 {
            if i % 10 != 0 {
                t = kv.delete(&key(i), t).unwrap();
            }
        }
        t = kv.flush(t).unwrap();
        // 12 live rows remain (0, 10, ..., 110).  A limit-8 scan must
        // return 8 of them, not under-fill on the masked candidates.
        let (rows, t2) = kv.scan_limit(None, 8, t).unwrap();
        t = t2;
        let expect: Vec<Vec<u8>> = (0..8u64).map(|i| key(i * 10)).collect();
        assert_eq!(rows.len(), 8, "limit-8 over 12 live rows must fill");
        assert_eq!(rows.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(), expect);
        for (i, (_, v)) in rows.iter().enumerate() {
            assert_eq!(v, &val(i as u64 * 10, 0));
        }
        // Asking past exhaustion returns every live row, no phantoms.
        let (rows, t2) = kv.scan_limit(None, 100, t).unwrap();
        t = t2;
        assert_eq!(rows.len(), 12);
        // A lo bound mid-range still fills from the bound onward.
        let (rows, _) = kv.scan_limit(Some(&key(55)), 4, t).unwrap();
        let expect: Vec<Vec<u8>> = [60u64, 70, 80, 90].iter().map(|i| key(*i)).collect();
        assert_eq!(rows.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(), expect);
    }

    #[test]
    fn overwrites_and_tombstones_shadow_run_versions() {
        let (_d, noftl, rid) = stack(TimingModel::instant());
        let (kv, mut t) =
            KvStore::create(Arc::clone(&noftl), rid, "s", small_config(), SimTime::ZERO).unwrap();
        for i in 0..60u64 {
            t = kv.put(&key(i), &val(i, 1), t).unwrap();
        }
        t = kv.flush(t).unwrap();
        // Overwrite half, delete a quarter; flush again so the newer run
        // shadows the older one.
        for i in 0..30u64 {
            t = kv.put(&key(i), &val(i, 2), t).unwrap();
        }
        for i in 30..45u64 {
            t = kv.delete(&key(i), t).unwrap();
        }
        t = kv.flush(t).unwrap();
        for i in 0..30u64 {
            let (got, t2) = kv.get(&key(i), t).unwrap();
            t = t2;
            assert_eq!(got.as_deref(), Some(val(i, 2).as_slice()), "overwritten key {i}");
        }
        for i in 30..45u64 {
            let (got, t2) = kv.get(&key(i), t).unwrap();
            t = t2;
            assert_eq!(got, None, "deleted key {i}");
        }
        for i in 45..60u64 {
            let (got, t2) = kv.get(&key(i), t).unwrap();
            t = t2;
            assert_eq!(got.as_deref(), Some(val(i, 1).as_slice()), "untouched key {i}");
        }
    }

    #[test]
    fn windowed_scan_and_compaction_match_serial_reads_and_finish_no_later() {
        // Identical workloads under read_window = 1 (serial reads) and
        // the default pipeline: same scan contents, same compaction
        // output, and the windowed variant never finishes later under a
        // real timing model (its reads overlap the region's dies).
        let run = |read_window: usize| {
            let (_d, noftl, rid) = stack(TimingModel::mlc_2015());
            let config = KvConfig { read_window, ..small_config() };
            let (kv, mut t) =
                KvStore::create(Arc::clone(&noftl), rid, "s", config, SimTime::ZERO).unwrap();
            for i in 0..120u64 {
                t = kv.put(&key(i), &val(i, 0), t).unwrap();
            }
            t = kv.flush(t).unwrap();
            let scan_start = t;
            let (rows, t2) = kv.scan(None, None, t).unwrap();
            let scan_ns = t2.as_nanos() - scan_start.as_nanos();
            (rows, scan_ns, kv.stats().run_page_reads, kv.stats().compactions)
        };
        let (serial_rows, serial_ns, serial_reads, serial_compactions) = run(1);
        let (windowed_rows, windowed_ns, windowed_reads, windowed_compactions) =
            run(KvConfig::default().read_window);
        assert_eq!(serial_rows, windowed_rows, "window width must not change scan contents");
        assert_eq!(serial_reads, windowed_reads, "both variants read the same pages");
        assert_eq!(serial_compactions, windowed_compactions);
        assert!(serial_compactions > 0, "workload must exercise the merge path");
        assert!(
            windowed_ns <= serial_ns,
            "windowed scan ({windowed_ns} ns) slower than serial ({serial_ns} ns)"
        );
    }

    #[test]
    fn scan_merges_memtable_and_runs() {
        let (_d, noftl, rid) = stack(TimingModel::instant());
        let (kv, mut t) =
            KvStore::create(Arc::clone(&noftl), rid, "s", small_config(), SimTime::ZERO).unwrap();
        for i in 0..50u64 {
            t = kv.put(&key(i), &val(i, 1), t).unwrap();
        }
        t = kv.flush(t).unwrap();
        t = kv.put(&key(10), &val(10, 9), t).unwrap(); // newer, memtable only
        t = kv.delete(&key(11), t).unwrap(); // tombstone in memtable
        let (rows, t2) = kv.scan(Some(&key(5)), Some(&key(14)), t).unwrap();
        t = t2;
        let keys: Vec<u64> = rows
            .iter()
            .map(|(k, _)| String::from_utf8_lossy(k)[4..].parse::<u64>().unwrap())
            .collect();
        assert_eq!(keys, vec![5, 6, 7, 8, 9, 10, 12, 13, 14], "11 deleted, bounds inclusive");
        let ten = rows.iter().find(|(k, _)| k == &key(10)).unwrap();
        assert_eq!(ten.1, val(10, 9), "memtable version wins");
        // Unbounded scan returns everything alive.
        let (all, _) = kv.scan(None, None, t).unwrap();
        assert_eq!(all.len(), 49);
    }

    #[test]
    fn flush_issues_one_queued_multi_die_batch() {
        let (device, noftl, rid) = stack(TimingModel::mlc_2015());
        let (kv, mut t) =
            KvStore::create(Arc::clone(&noftl), rid, "s", KvConfig::default(), SimTime::ZERO)
                .unwrap();
        for i in 0..300u64 {
            t = kv.put(&key(i), &val(i, 0), t).unwrap();
        }
        let before = noftl.io_queue_stats();
        t = kv.flush(t).unwrap();
        let after = noftl.io_queue_stats();
        let pages = kv.stats().flushed_pages;
        assert!(pages >= 4, "300 entries must span several pages (got {pages})");
        // Every run page went through the submission queue...
        assert_eq!(after.submitted - before.submitted, pages);
        // ...fanned over more than one die of the region.
        let dies_hit = after
            .per_die_submitted
            .iter()
            .zip(before.per_die_submitted.iter())
            .filter(|(a, b)| *a > *b)
            .count();
        assert!(dies_hit >= 2, "flush must fan across dies (hit {dies_hit})");
        let _ = t;
        let _ = device;
    }

    #[test]
    fn queued_flush_beats_sequential_flush() {
        let run = |queued: bool| {
            let (_d, noftl, rid) = stack(TimingModel::mlc_2015());
            let config = KvConfig { queued_flush: queued, ..KvConfig::default() };
            let (kv, mut t) =
                KvStore::create(Arc::clone(&noftl), rid, "s", config, SimTime::ZERO).unwrap();
            for i in 0..300u64 {
                t = kv.put(&key(i), &val(i, 0), t).unwrap();
            }
            let start = t;
            let done = kv.flush(t).unwrap();
            done - start
        };
        let queued = run(true);
        let sequential = run(false);
        assert!(
            queued < sequential,
            "queued flush ({queued:?}) must beat sequential ({sequential:?})"
        );
    }

    #[test]
    fn compaction_merges_runs_and_retires_sources() {
        let (_d, noftl, rid) = stack(TimingModel::instant());
        let config = KvConfig { compaction_threshold: 3, ..small_config() };
        let (kv, mut t) =
            KvStore::create(Arc::clone(&noftl), rid, "s", config, SimTime::ZERO).unwrap();
        // Overwrite the same keys across enough flushes to force merges.
        for round in 1..=9u64 {
            for i in 0..40u64 {
                t = kv.put(&key(i), &val(i, round), t).unwrap();
            }
            t = kv.flush(t).unwrap();
        }
        let stats = kv.stats();
        assert!(stats.compactions > 0, "threshold 3 over 9 flushes must compact");
        assert_eq!(stats.compactions_started, stats.compactions);
        assert!(stats.compacted_runs >= 3);
        assert!(!stats.compaction_windows.is_empty());
        assert!(
            kv.run_count() < stats.flushes as usize,
            "merges must shrink the run directory ({} runs after {} flushes)",
            kv.run_count(),
            stats.flushes
        );
        // Latest versions win after all merges.
        for i in 0..40u64 {
            let (got, t2) = kv.get(&key(i), t).unwrap();
            t = t2;
            assert_eq!(got.as_deref(), Some(val(i, 9).as_slice()), "key {i}");
        }
        // Source run objects are gone from the manager's directory.
        let live_runs = noftl.objects_with_prefix("__kv_s_r").len();
        assert_eq!(live_runs, kv.run_count());
    }

    #[test]
    fn compaction_io_is_tagged_background_on_an_arbiter_device() {
        let device = Arc::new(
            DeviceBuilder::new(FlashGeometry::small_test())
                .timing(TimingModel::instant())
                .arbiter(flash_sim::ArbiterConfig::default())
                .build(),
        );
        let noftl = Arc::new(NoFtl::new(device.clone(), NoFtlConfig::default()));
        let rid = noftl
            .create_region(
                RegionSpec::named("rgKv")
                    .with_die_count(3)
                    .with_service_class(flash_sim::ServiceClass::Latency),
            )
            .unwrap();
        let config = KvConfig { compaction_threshold: 3, ..small_config() };
        let (kv, mut t) =
            KvStore::create(Arc::clone(&noftl), rid, "s", config, SimTime::ZERO).unwrap();
        let bg = || device.metrics().counter("flash.arbiter.class.background.ops").get();
        for round in 1..=4u64 {
            for i in 0..40u64 {
                t = kv.put(&key(i), &val(i, round), t).unwrap();
            }
            t = kv.flush(t).unwrap();
        }
        assert!(kv.stats().compactions > 0, "threshold 3 over 4 flushes must compact");
        // Both the merge reads and the merged-run writes are maintenance
        // traffic: tagged Background even though the region is Latency.
        assert!(bg() > 0, "compaction I/O must be admitted as background");
        // Plain flushes and gets stay on the region's own class.
        let before = bg();
        let (got, _) = kv.get(&key(0), t).unwrap();
        assert!(got.is_some());
        assert_eq!(bg(), before, "host gets are not background traffic");
        assert!(device.metrics().counter("flash.arbiter.class.latency.ops").get() > 0);
    }

    #[test]
    fn bottom_level_compaction_drops_tombstones() {
        let (_d, noftl, rid) = stack(TimingModel::instant());
        let config =
            KvConfig { compaction_threshold: 2, memtable_bytes: 1 << 20, ..KvConfig::default() };
        let (kv, mut t) =
            KvStore::create(Arc::clone(&noftl), rid, "s", config, SimTime::ZERO).unwrap();
        for i in 0..20u64 {
            t = kv.put(&key(i), &val(i, 0), t).unwrap();
        }
        t = kv.flush(t).unwrap();
        for i in 0..20u64 {
            t = kv.delete(&key(i), t).unwrap();
        }
        t = kv.flush(t).unwrap(); // two L0 runs → merge into L1 (bottom)
        let stats = kv.stats();
        assert!(stats.compactions > 0);
        assert_eq!(kv.run_count(), 1);
        let merged_entries = { kv.inner.lock().runs[0].entries };
        assert_eq!(merged_entries, 0, "all entries were tombstoned and dropped at the bottom");
        let (rows, _) = kv.scan(None, None, t).unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn create_open_roundtrip_after_remount() {
        let (device, noftl, rid) = stack(TimingModel::mlc_2015());
        let (kv, mut t) =
            KvStore::create(Arc::clone(&noftl), rid, "s", small_config(), SimTime::ZERO).unwrap();
        for i in 0..120u64 {
            t = kv.put(&key(i), &val(i, 3), t).unwrap();
        }
        t = kv.flush(t).unwrap();
        let runs_before = kv.run_count();
        // Clean reboot: snapshot → new device → mount → open.
        let device2 = Arc::new(device.power_cycle(None).unwrap());
        let (noftl2, mount) = NoFtl::mount(device2, NoFtlConfig::default(), t).unwrap();
        let (kv2, report) =
            KvStore::open(Arc::new(noftl2), "s", small_config(), mount.completed_at).unwrap();
        assert_eq!(report.runs_recovered, runs_before);
        assert_eq!(report.torn_runs_discarded, 0);
        assert_eq!(report.superseded_runs_discarded, 0);
        let mut t2 = report.completed_at;
        for i in 0..120u64 {
            let (got, t3) = kv2.get(&key(i), t2).unwrap();
            t2 = t3;
            assert_eq!(got.as_deref(), Some(val(i, 3).as_slice()), "key {i}");
        }
        // The reopened store keeps working, with fresh sequence numbers.
        t2 = kv2.put(b"after-reopen", b"ok", t2).unwrap();
        t2 = kv2.flush(t2).unwrap();
        assert_eq!(kv2.get(b"after-reopen", t2).unwrap().0.as_deref(), Some(b"ok".as_slice()));
    }

    #[test]
    fn open_unknown_store_fails() {
        let (_d, noftl, _rid) = stack(TimingModel::instant());
        assert!(matches!(
            KvStore::open(noftl, "nope", KvConfig::default(), SimTime::ZERO),
            Err(NoFtlError::Kv { .. })
        ));
    }

    #[test]
    fn compaction_threshold_below_two_is_clamped() {
        // Regression: threshold 1 used to make maybe_compact re-select a
        // single-run level forever (compact_level needs >= 2 sources and
        // returned without changing anything), hanging the first flush.
        let (_d, noftl, rid) = stack(TimingModel::instant());
        let config = KvConfig { compaction_threshold: 1, ..KvConfig::default() };
        let (kv, mut t) =
            KvStore::create(Arc::clone(&noftl), rid, "s", config, SimTime::ZERO).unwrap();
        for round in 0..3u64 {
            for i in 0..20u64 {
                t = kv.put(&key(i), &val(i, round), t).unwrap();
            }
            t = kv.flush(t).unwrap(); // must terminate
        }
        assert!(kv.stats().compactions > 0, "clamped threshold 2 still merges");
        assert_eq!(kv.get(&key(7), t).unwrap().0.as_deref(), Some(val(7, 2).as_slice()));
    }

    #[test]
    fn maximum_size_entry_survives_put_and_flush() {
        // Regression: the put-time size check was 6 bytes looser than the
        // encoder's assert, so a maximum-size entry was accepted into the
        // memtable and then panicked the flush.
        let (_d, noftl, rid) = stack(TimingModel::instant());
        let (kv, t) =
            KvStore::create(Arc::clone(&noftl), rid, "s", KvConfig::default(), SimTime::ZERO)
                .unwrap();
        let page_size = noftl.device().geometry().page_size as usize;
        let max = run::max_entry_payload(page_size);
        let big_val = vec![0xBB; max - 3];
        let t = kv.put(b"big", &big_val, t).unwrap();
        assert!(kv.put(b"big2", &vec![0xBB; max - 3], t).is_err(), "one byte over is rejected");
        let t = kv.flush(t).unwrap(); // must not panic
        assert_eq!(kv.get(b"big", t).unwrap().0.as_deref(), Some(big_val.as_slice()));
    }

    #[test]
    fn invalid_names_and_oversized_entries_rejected() {
        let (_d, noftl, rid) = stack(TimingModel::instant());
        assert!(KvStore::create(
            Arc::clone(&noftl),
            rid,
            "bad_name",
            KvConfig::default(),
            SimTime::ZERO
        )
        .is_err());
        let (kv, t) =
            KvStore::create(Arc::clone(&noftl), rid, "ok", KvConfig::default(), SimTime::ZERO)
                .unwrap();
        assert!(kv.put(b"", b"v", t).is_err(), "empty key");
        let huge = vec![0u8; 5000];
        assert!(kv.put(b"k", &huge, t).is_err(), "entry larger than a page");
    }
}
