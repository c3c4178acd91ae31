//! Benchmark entry point.
//!
//! ```text
//! noftl-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! noftl-perfbench --figure3 [--seed <n>]
//! ```
//!
//! Runs iterations of one workload until the next would overrun
//! `--seconds` (at least three; at least one traced pair), prints every
//! metric by name and unit, and ends with one JSON line `{"correct",
//! "attempted", "failed", "metrics"}`.  With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` each
//! untraced iteration is paired with a traced one and the metrics are the
//! per-layer breakdown.  `--figure3` runs both TPC-C placements once and
//! prints the regions-vs-traditional deltas next to the paper's.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use noftl_perfbench::layers::{Breakdown, TIMED_KINDS};
use noftl_perfbench::tpcc::{self, TpccConfig};
use noftl_perfbench::trace::{Layer, Span};
use noftl_perfbench::ycsb::{self, YcsbConfig};
use noftl_perfbench::{median, quantile, Iteration, Metrics, REGIONS};

const WORKLOADS: [&str; 4] = ["tpcc_regions", "tpcc_traditional", "ycsb_a_kv", "ycsb_b_btree"];

/// Iterations of an end-to-end run, at least: the per-op host minimum and
/// the `setup_s` median are taken over this many, whatever the budget.
const MIN_ITERATIONS: usize = 3;

/// Operations whose spans are written to the trace file.
const TRACE_FILE_OPS: u32 = 200;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    figure3: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false, figure3: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--figure3" {
            args.figure3 = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}, expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.figure3 && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(args)
}

/// One iteration of `workload`.
fn iterate(workload: &str, seed: u64, traced: bool) -> Iteration {
    match workload {
        "tpcc_regions" => tpcc::iterate(&TpccConfig::regions(seed), traced).0,
        "tpcc_traditional" => tpcc::iterate(&TpccConfig::traditional(seed), traced).0,
        "ycsb_a_kv" => ycsb::iterate(&YcsbConfig::a_kv(seed), traced),
        _ => ycsb::iterate(&YcsbConfig::b_btree(seed), traced),
    }
}

/// Every per-layer metric, in output order, with its unit.  A metric of a
/// layer the workload does not use reads 0; every metric with a time unit
/// applies to every workload.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = Vec::new();
    let mut push = |n: &str, u| names.push((n.to_string(), u));
    push("dbms.host_self_us_per_op", "us");
    push("dbms.buffer_hit_ratio", "ratio");
    push("dbms.buffer_misses_per_op", "count");
    push("dbms.wal_forces_per_op", "count");
    push("dbms.wal_pages_per_op", "pages");
    push("dbms.storage_calls_per_op", "count");
    push("dbms.storage_sim_us_per_op", "us");
    push("core.host_self_us_per_op", "us");
    push("core.gc_copybacks", "count");
    push("core.gc_erases", "count");
    push("core.gc_runs", "count");
    for region in REGIONS {
        push(&format!("core.{region}.wa"), "ratio");
        push(&format!("core.{region}.copybacks"), "count");
    }
    push("core.write_4k_sim_us_mean", "us");
    push("core.max_erase_count", "count");
    push("kv.memtable_hit_ratio", "ratio");
    push("kv.run_pages_per_get", "pages");
    push("kv.flushes", "count");
    push("kv.compactions", "count");
    push("kv.compacted_pages_per_flushed_page", "ratio");
    push("flash.host_ns_per_call", "ns");
    push("flash.calls_per_op", "count");
    push("flash.reads_per_op", "pages");
    push("flash.wait_sim_us_mean", "us");
    push("flash.service_sim_us_mean", "us");
    for kind in TIMED_KINDS {
        push(&format!("flash.{kind}.wait_share"), "ratio");
    }
    push("flash.die_util_mean", "ratio");
    push("flash.die_util_min", "ratio");
    push("tpcc.rollback_frac", "ratio");
    push("trace.host_ops_ratio", "ratio");
    names
}

/// Accumulated result of a run.
struct Report {
    metrics: Metrics,
    info: Metrics,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    fn new(measured: &[Iteration]) -> Self {
        let mut problems = Vec::new();
        for it in measured {
            if let Some(e) = &it.first_error {
                problems.push(format!("first error: {e}"));
            }
            problems.extend(it.check_failures.iter().map(|c| format!("check failed: {c}")));
        }
        let first = &measured[0];
        if let Some(other) = measured.iter().find(|it| {
            !it.sim.bit_identical(&first.sim) || !it.layer_stats.bit_identical(&first.layer_stats)
        }) {
            problems.push(format!(
                "simulated metrics differ between iterations of one seed ({:?} vs {:?})",
                first.sim.get("throughput_sim"),
                other.sim.get("throughput_sim")
            ));
        }
        Report {
            metrics: Metrics::default(),
            info: first.info.clone(),
            attempted: measured.iter().map(|it| it.attempted).sum(),
            failed: measured.iter().map(|it| it.failed).sum(),
            problems,
        }
    }

    fn print(&self) {
        for p in &self.problems {
            println!("{p}");
        }
        for m in &self.info.0 {
            println!("info   {:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
        for m in &self.metrics.0 {
            println!("metric {:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let correct = self.problems.iter().all(|p| p.starts_with("first error"))
            && self.metrics.0.iter().all(|m| m.value.is_finite());
        let mut json = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in self.metrics.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Run iterations (pairs of an untraced and a traced one with `--trace 1`)
/// until the next would overrun the budget; end-to-end runs make at least
/// [`MIN_ITERATIONS`], traced runs at least one pair.
fn collect(args: &Args) -> (Vec<Iteration>, Vec<Iteration>) {
    let t0 = Instant::now();
    let min_rounds = if args.trace { 1 } else { MIN_ITERATIONS };
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    loop {
        plain.push(iterate(&args.workload, args.seed, false));
        if args.trace {
            traced.push(iterate(&args.workload, args.seed, true));
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let per_round = elapsed / plain.len() as f64;
        if plain.len() >= min_rounds && elapsed + per_round > args.seconds {
            break;
        }
    }
    (plain, traced)
}

fn end_to_end(args: &Args) -> Report {
    let (plain, _) = collect(args);
    let mut report = Report::new(&plain);
    let first = &plain[0];
    for (i, it) in plain.iter().enumerate() {
        println!(
            "iteration {i}: setup {:.3} s, {:.1} host ops/s over {:.2} s",
            it.setup_s,
            it.host_ops_per_s(),
            it.host_s
        );
    }
    // Every iteration runs the same ops, so each op's host time is taken
    // as its minimum over the iterations: interference only ever adds time.
    let mut host_ns = per_op_min(&plain);
    let host_ops_per_s = host_ns.len() as f64 / (host_ns.iter().sum::<u64>() as f64 / 1e9);
    host_ns.sort_unstable();
    let host_q = |q: f64| quantile(&host_ns, q) as f64 / 1e3;
    let m = &mut report.metrics;
    let setups: Vec<f64> = plain.iter().map(|it| it.setup_s).collect();
    m.push("setup_s", median(&setups), "s");
    m.push("host_ops_per_s", host_ops_per_s, "1/s");
    m.0.extend(first.sim.0.iter().cloned());
    // Per-op host quantiles drift with the machine's speed more than any
    // bound allows (a sub-microsecond memtable put on `ycsb_a_kv`), so
    // they are printed but not part of the result.
    report.info.push("host_lat_p50_us", host_q(0.5), "us");
    report.info.push("host_lat_p99_us", host_q(0.99), "us");
    println!(
        "workload {} seed {}: {} iterations of {} ops ({} attempted, {} failed); \
         latency statistics over {} samples ({} in the slowest 10 %, {} beyond p99.9)",
        args.workload,
        args.seed,
        plain.len(),
        first.ops,
        first.attempted,
        first.failed,
        first.ops,
        first.ops / 10,
        first.ops / 1000,
    );
    report
}

/// Per-op host nanoseconds, minimum over the iterations (the first
/// iteration's when the iterations did not count the same ops).
fn per_op_min(its: &[Iteration]) -> Vec<u64> {
    let first = &its[0].host_lat_ns;
    if its.iter().any(|it| it.host_lat_ns.len() != first.len()) {
        return first.clone();
    }
    (0..first.len()).map(|k| its.iter().map(|it| it.host_lat_ns[k]).min().unwrap_or(0)).collect()
}

fn per_layer(args: &Args) -> Report {
    let (plain, traced) = collect(args);
    let mut report = Report::new(&plain);
    let traced_report = Report::new(&traced);
    report.problems.extend(traced_report.problems);
    report.attempted += traced_report.attempted;
    report.failed += traced_report.failed;
    if !plain[0].sim.bit_identical(&traced[0].sim)
        || !plain[0].layer_stats.bit_identical(&traced[0].layer_stats)
    {
        report.problems.push(
            "check failed: the traced run's simulated metrics differ from the untraced run's"
                .into(),
        );
    }
    let breakdowns: Vec<Breakdown> =
        traced.iter().map(|it| Breakdown::from_spans(it.spans.as_deref().unwrap_or(&[]))).collect();
    for b in &breakdowns {
        if b.nesting_violations > 0 || b.orphans > 0 || b.max_residual_ns > 0 {
            report.problems.push(format!(
                "check failed: layer self times do not sum to op spans: {}",
                b.table()
            ));
        }
    }
    let mut layer_host_ns = BTreeMap::new();
    for layer in [Layer::Op, Layer::Kv, Layer::Core, Layer::Flash] {
        let per_it: Vec<f64> = breakdowns.iter().map(|b| b.layer_ns(layer) as f64).collect();
        layer_host_ns.insert(layer, median(&per_it));
    }
    let first = &breakdowns[0];
    let mut computed = first.metrics(traced[0].ops, &layer_host_ns);
    computed.0.extend(traced[0].layer_stats.0.iter().cloned());
    let plain_ops: Vec<f64> = plain.iter().map(Iteration::host_ops_per_s).collect();
    let traced_ops: Vec<f64> = traced.iter().map(Iteration::host_ops_per_s).collect();
    let overhead = median(&traced_ops) / median(&plain_ops);
    computed.push("trace.host_ops_ratio", overhead, "ratio");
    for (name, unit) in per_layer_names() {
        report.metrics.push(name.clone(), computed.get(&name).unwrap_or(0.0), unit);
    }
    println!(
        "workload {} seed {}: {} traced iterations of {} ops",
        args.workload,
        args.seed,
        traced.len(),
        traced[0].ops
    );
    println!("{}", first.table());
    println!("tracing overhead: traced / untraced host_ops_per_s = {overhead:.3}");
    if let Some(spans) = &traced[0].spans {
        match write_trace(&args.workload, args.seed, spans) {
            Ok(path) => println!("spans of the first {TRACE_FILE_OPS} ops written to {path}"),
            Err(e) => println!("could not write the span file: {e}"),
        }
    }
    report
}

/// Write the spans of the first ops as a Chrome trace (`chrome://tracing`,
/// Perfetto) under `.bench_out/` in the working directory.
fn write_trace(workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<String> {
    std::fs::create_dir_all(".bench_out")?;
    let path = format!(".bench_out/{workload}-seed{seed}.trace.json");
    let mut out = String::from("{\"traceEvents\": [\n");
    let mut first = true;
    for s in spans.iter().filter(|s| s.op < TRACE_FILE_OPS) {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"cat\": \"{:?}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \
             \"args\": {{\"op\": {}, \"parent\": {}, \"sim_issue_ns\": {}, \"sim_start_ns\": {}, \"sim_end_ns\": {}}}}}",
            s.kind,
            s.layer,
            s.host_start as f64 / 1e3,
            s.host_ns() as f64 / 1e3,
            s.op,
            s.parent,
            s.sim_issue,
            s.sim_start,
            s.sim_end
        );
    }
    out.push_str("\n]}\n");
    std::fs::write(&path, out)?;
    Ok(path)
}

/// Both TPC-C placements once at `seed`, and the Figure-3 deltas.
fn figure3(seed: u64) {
    let (regions, _) = tpcc::iterate(&TpccConfig::regions(seed), false);
    let (traditional, _) = tpcc::iterate(&TpccConfig::traditional(seed), false);
    let get = |it: &Iteration, name: &str| {
        [&it.sim, &it.layer_stats, &it.info].iter().find_map(|m| m.get(name)).unwrap_or(f64::NAN)
    };
    let delta = |name| 100.0 * (get(&regions, name) / get(&traditional, name) - 1.0);
    println!("{:<32} {:>12} {:>12}", "", "traditional", "regions");
    for name in [
        "throughput_sim",
        "core.read_4k_sim_us_mean",
        "core.write_4k_sim_us_mean",
        "tpcc.new_order.lat_mean_sim_ms",
        "tpcc.payment.lat_mean_sim_ms",
        "tpcc.stock_level.lat_mean_sim_ms",
        "core.gc_copybacks",
        "core.gc_erases",
        "core.max_erase_count",
        "write_amp",
    ] {
        println!("{name:<32} {:>12.2} {:>12.2}", get(&traditional, name), get(&regions, name));
    }
    println!("paper reference (Figure 3): TPS +21%, COPYBACKs -19.2%, ERASEs -4.4%");
    println!(
        "this run (seed {seed}):       TPS {:+.1}%, COPYBACKs {:+.1}%, ERASEs {:+.1}%",
        delta("throughput_sim"),
        delta("core.gc_copybacks"),
        delta("core.gc_erases"),
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.figure3 {
        figure3(args.seed);
        return ExitCode::SUCCESS;
    }
    let report = if args.trace { per_layer(&args) } else { end_to_end(&args) };
    // A failed check is reported through `correct` in the result line.
    report.print();
    ExitCode::SUCCESS
}
