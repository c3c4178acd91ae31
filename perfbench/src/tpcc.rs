//! The two Figure-3 workloads: TPC-C under the six-region placement of
//! Figure 2 and under traditional (one-region) placement.
//!
//! The operation loop is `tpcc_workload::Driver`'s: 20 terminals, each on
//! its own simulated clock, and at every step the terminal furthest
//! behind runs its next transaction.  It differs only in what it
//! records — per-transaction simulated and host latency, spans, and
//! errors counted (with the transaction rolled back) instead of aborting
//! the run.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dbms_engine::txn::TxnOutcome;
use dbms_engine::value::composite_key;
use dbms_engine::Database;
use flash_sim::{Duration, FlashGeometry, SimTime};
use noftl_core::{NoFtlConfig, PlacementConfig};
use tpcc_workload::{placement, schema, transactions, Loader, ScaleConfig, TxnMix, TxnType};

use crate::trace::{self, Layer};
use crate::{DbCounters, Iteration, Measured, Stack};

/// The TPC-C seed `--seed 0` maps to: `figure3`'s default, so seed 0
/// reproduces its TPS exactly.
pub const FIGURE3_SEED: u64 = 20_160_315;

/// Shape of one TPC-C workload.
#[derive(Debug, Clone)]
pub struct TpccConfig {
    /// Data placement.
    pub placement: PlacementConfig,
    /// Flash geometry.
    pub geometry: FlashGeometry,
    /// TPC-C scale.
    pub scale: ScaleConfig,
    /// Buffer pool pages.
    pub buffer_pages: usize,
    /// Logical terminals.
    pub clients: usize,
    /// Transactions attempted in the measured phase.
    pub transactions: u64,
    /// Driver seed (the loader uses `seed ^ 0xC0FFEE`, like `figure3`).
    pub seed: u64,
}

impl TpccConfig {
    /// The `figure3` configuration for `placement` at benchmark seed `seed`.
    pub fn figure3(placement: PlacementConfig, seed: u64) -> Self {
        TpccConfig {
            placement,
            geometry: figure3_geometry(),
            scale: ScaleConfig::small(2),
            buffer_pages: 1_500,
            clients: 20,
            transactions: 12_000,
            seed: FIGURE3_SEED.wrapping_add(seed),
        }
    }

    /// `tpcc_regions`: the six Figure-2 regions.
    pub fn regions(seed: u64) -> Self {
        Self::figure3(placement::figure2(figure3_geometry().total_dies()), seed)
    }

    /// `tpcc_traditional`: one region over every die.
    pub fn traditional(seed: u64) -> Self {
        Self::figure3(placement::traditional(figure3_geometry().total_dies()), seed)
    }
}

/// `figure3`'s device: 64 dies over 4 channels, 20 blocks of 32 pages
/// per die, so the TPC-C database keeps garbage collection busy.
pub fn figure3_geometry() -> FlashGeometry {
    FlashGeometry {
        channels: 4,
        chips_per_channel: 4,
        dies_per_chip: 4,
        planes_per_die: 1,
        blocks_per_plane: 20,
        pages_per_block: 32,
        page_size: 4096,
        oob_size: 64,
    }
}

/// Committed and rolled-back counts plus the makespan, as
/// `tpcc_workload::Driver` reports them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Committed transactions.
    pub committed: u64,
    /// Spec-mandated NewOrder rollbacks.
    pub rolled_back: u64,
    /// Simulated makespan of the measured phase.
    pub makespan: Duration,
}

struct Client {
    rng: StdRng,
    clock: SimTime,
    home_warehouse: i64,
}

fn span_name(t: TxnType) -> &'static str {
    match t {
        TxnType::NewOrder => "new_order",
        TxnType::Payment => "payment",
        TxnType::OrderStatus => "order_status",
        TxnType::Delivery => "delivery",
        TxnType::StockLevel => "stock_level",
    }
}

fn run_txn(
    db: &Database,
    scale: &ScaleConfig,
    client: &mut Client,
    txn: &mut dbms_engine::Txn,
    kind: TxnType,
) -> dbms_engine::Result<TxnOutcome> {
    let (rng, w) = (&mut client.rng, client.home_warehouse);
    match kind {
        TxnType::NewOrder => transactions::new_order(db, scale, rng, txn, w),
        TxnType::Payment => transactions::payment(db, scale, rng, txn, w),
        TxnType::OrderStatus => transactions::order_status(db, scale, rng, txn, w),
        TxnType::Delivery => transactions::delivery(db, scale, rng, txn, w),
        TxnType::StockLevel => transactions::stock_level(db, scale, rng, txn, w),
    }
}

/// One iteration: build, load, run `config.transactions` transactions,
/// collect metrics, check consistency conditions 1 and 2.
pub fn iterate(config: &TpccConfig, traced: bool) -> (Iteration, Outcome) {
    let mut it = Iteration::default();
    let t0 = Instant::now();
    let stack = Stack::new(config.geometry, NoFtlConfig::paper_defaults(), traced);
    let loaded = stack.database(&config.placement, config.buffer_pages).and_then(|db| {
        let (_, start) =
            Loader::new(config.scale, config.seed ^ 0xC0FFEE).load(&db, SimTime::ZERO)?;
        Ok((db, start))
    });
    let (db, start) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            it.attempted = 1;
            it.fail(format!("set-up: {e}"));
            return (it, Outcome::default());
        }
    };
    it.setup_s = t0.elapsed().as_secs_f64();

    let before = stack.snapshot();
    let db_before = DbCounters::of(&db);
    let mix = TxnMix::standard();
    let mut clients: Vec<Client> = (0..config.clients.max(1))
        .map(|i| Client {
            rng: StdRng::seed_from_u64(
                config.seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9),
            ),
            clock: start,
            home_warehouse: (i as i64 % config.scale.warehouses) + 1,
        })
        .collect();
    let mut per_type = [(0u64, 0u64); 5];
    let mut sim_lat_ns = Vec::with_capacity(config.transactions as usize);
    it.host_lat_ns.reserve(config.transactions as usize);
    let mut rolled_back = 0u64;
    if traced {
        trace::start();
    }
    let loop_start = Instant::now();
    for _ in 0..config.transactions {
        let idx = clients
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.clock)
            .map(|(i, _)| i)
            .expect("at least one client");
        let client = &mut clients[idx];
        let kind = mix.pick(&mut client.rng);
        let mut txn = db.begin(client.clock);
        let h0 = Instant::now();
        let span = trace::enter(Layer::Op, span_name(kind), client.clock);
        let result = run_txn(&db, &config.scale, client, &mut txn, kind);
        trace::exit(span, client.clock, txn.now);
        let host_ns = h0.elapsed().as_nanos() as u64;
        it.attempted += 1;
        let slot = &mut per_type[TxnType::all().iter().position(|t| *t == kind).unwrap_or(0)];
        slot.0 += 1;
        slot.1 += txn.elapsed().0;
        match result {
            Ok(TxnOutcome::Committed) => {
                it.ops += 1;
                sim_lat_ns.push(txn.elapsed().0);
                it.host_lat_ns.push(host_ns);
            }
            Ok(TxnOutcome::RolledBack) => rolled_back += 1,
            Err(e) => {
                db.rollback(&mut txn);
                it.fail(format!("{}: {e}", kind.name()));
            }
        }
        client.clock = txn.now;
    }
    it.host_s = loop_start.elapsed().as_secs_f64();
    if traced {
        it.spans = Some(trace::finish());
    }
    let end = clients.iter().map(|c| c.clock).max().unwrap_or(start);
    let makespan = end.since(start);
    let after = stack.snapshot();

    let (sim, mut layer, mut info) = Measured {
        stack: &stack,
        before: &before,
        after: &after,
        ops: it.ops,
        makespan,
        sim_lat_ns,
        live_user_bytes: live_user_bytes(&db),
    }
    .metrics();
    it.sim = sim;
    db_before.push_deltas(&DbCounters::of(&db), it.ops, &mut layer);
    for (t, (count, ns)) in TxnType::all().iter().zip(per_type) {
        let mean_ms = if count == 0 { 0.0 } else { ns as f64 / 1e6 / count as f64 };
        info.push(format!("tpcc.{}.lat_mean_sim_ms", span_name(*t)), mean_ms, "ms");
    }
    layer.push("tpcc.rollback_frac", rolled_back as f64 / it.attempted.max(1) as f64, "ratio");
    it.layer_stats = layer;
    it.info = info;

    it.check_failures = check_consistency(&db, &config.scale, end);
    let outcome = Outcome { committed: it.ops, rolled_back, makespan };
    (it, outcome)
}

/// Rows × encoded row width over every TPC-C table.
fn live_user_bytes(db: &Database) -> u64 {
    schema::table_names()
        .iter()
        .filter_map(|name| db.table(name).ok())
        .map(|t| t.heap.record_count() * t.schema.record_len() as u64)
        .sum()
}

// Column positions (see `tpcc_workload::schema`).
const W_YTD: usize = 8;
const D_YTD: usize = 9;
const D_NEXT_O_ID: usize = 10;
const O_ID: usize = 0;

/// TPC-C consistency conditions 1 (`W_YTD` = Σ `D_YTD`) and 2
/// (`D_NEXT_O_ID − 1` = max `O_ID` of the district's orders).  Returns
/// one line per violation.
pub fn check_consistency(db: &Database, scale: &ScaleConfig, at: SimTime) -> Vec<String> {
    let mut txn = db.begin(at);
    let result = consistency(db, scale, &mut txn);
    db.rollback(&mut txn);
    result.unwrap_or_else(|e| vec![format!("consistency check could not read the data: {e}")])
}

fn consistency(
    db: &Database,
    scale: &ScaleConfig,
    txn: &mut dbms_engine::Txn,
) -> dbms_engine::Result<Vec<String>> {
    let mut failures = Vec::new();
    let missing = |what: String| dbms_engine::DbError::not_found(what);
    for w in 1..=scale.warehouses {
        let (_, wh) = db
            .index_get(txn, "WAREHOUSE", "W_IDX", &schema::warehouse_key(w))?
            .ok_or_else(|| missing(format!("warehouse {w}")))?;
        let w_ytd = wh[W_YTD].as_float().unwrap_or(f64::NAN);
        let mut d_ytd_sum = 0.0;
        for d in 1..=scale.districts_per_warehouse {
            let (_, district) = db
                .index_get(txn, "DISTRICT", "D_IDX", &schema::district_key(w, d))?
                .ok_or_else(|| missing(format!("district {w}-{d}")))?;
            d_ytd_sum += district[D_YTD].as_float().unwrap_or(f64::NAN);
            let next_o_id = district[D_NEXT_O_ID].as_int().unwrap_or(-1);
            let orders = db.index_prefix(txn, "ORDER", "O_IDX", &composite_key(&[w, d]))?;
            let max_o_id = match orders.last() {
                Some((_, rid)) => db.get(txn, "ORDER", *rid)?[O_ID].as_int().unwrap_or(-1),
                None => 0,
            };
            if next_o_id - 1 != max_o_id {
                failures.push(format!(
                    "condition 2: district {w}-{d} D_NEXT_O_ID - 1 = {} but max O_ID = {max_o_id}",
                    next_o_id - 1
                ));
            }
        }
        // Half a cent: far above float rounding, far below any payment.
        let diff = (w_ytd - d_ytd_sum).abs();
        if diff.is_nan() || diff >= 0.005 {
            failures.push(format!(
                "condition 1: warehouse {w} W_YTD = {w_ytd} but sum D_YTD = {d_ytd_sum}"
            ));
        }
    }
    Ok(failures)
}
