//! Per-layer breakdown of a traced iteration.
//!
//! A span's *self time* is its host duration minus the durations of the
//! spans nested directly inside it.  The stack is single-threaded, so
//! children never overlap and the self times of one operation's spans sum
//! to the operation's host span exactly; [`Breakdown::max_residual_ns`]
//! and the nesting counters verify that on every run.

use std::collections::BTreeMap;

use crate::trace::{Layer, Span, NO_PARENT};
use crate::Metrics;

/// Counts and simulated times of one flash command kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct KindAgg {
    /// Calls.
    pub calls: u64,
    /// Host self nanoseconds.
    pub host_ns: u64,
    /// Simulated wait: die start − issue.
    pub wait_ns: u64,
    /// Simulated service: completion − die start.
    pub service_ns: u64,
}

/// Aggregates of a traced iteration.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Operation (root) spans.
    pub ops: u64,
    /// Summed host duration of the operation spans.
    pub op_host_ns: u64,
    /// Host self time per layer.
    pub self_ns: BTreeMap<Layer, u64>,
    /// Largest per-operation difference between the operation's host
    /// span and the sum of its spans' self times.
    pub max_residual_ns: u64,
    /// Spans that do not lie inside their parent, or whose children
    /// outlast them.
    pub nesting_violations: u64,
    /// Layer calls made outside any operation.
    pub orphans: u64,
    /// Flash calls by kind.
    pub flash: BTreeMap<&'static str, KindAgg>,
    /// Calls across the storage seam: `StorageBackend` calls from the
    /// dbms, or `KvStore` calls from the YCSB client.
    pub storage_calls: u64,
    /// Summed simulated duration (completion − issue) of those calls.
    pub storage_sim_ns: u64,
    /// `KvStore::get` calls.
    pub kv_gets: u64,
    /// Flash page reads made inside `KvStore::get` calls.
    pub kv_get_page_reads: u64,
}

impl Breakdown {
    /// Aggregate `spans`.
    pub fn from_spans(spans: &[Span]) -> Self {
        let mut out = Breakdown::default();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent == NO_PARENT {
                if s.layer != Layer::Op {
                    out.orphans += 1;
                }
                continue;
            }
            let p = &spans[s.parent as usize];
            if s.host_start < p.host_start || s.host_end > p.host_end {
                out.nesting_violations += 1;
            }
            child_ns[s.parent as usize] += s.host_ns();
        }
        let mut op_self_sum: Vec<u64> = Vec::new();
        let mut op_span_ns: Vec<u64> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            if child_ns[i] > s.host_ns() {
                out.nesting_violations += 1;
            }
            let self_ns = s.host_ns().saturating_sub(child_ns[i]);
            *out.self_ns.entry(s.layer).or_default() += self_ns;
            if s.op != u32::MAX {
                let op = s.op as usize;
                if op_self_sum.len() <= op {
                    op_self_sum.resize(op + 1, 0);
                    op_span_ns.resize(op + 1, 0);
                }
                op_self_sum[op] += self_ns;
                if s.layer == Layer::Op {
                    op_span_ns[op] = s.host_ns();
                    out.ops += 1;
                    out.op_host_ns += s.host_ns();
                }
            }
            match s.layer {
                Layer::Flash => {
                    let agg = out.flash.entry(s.kind).or_default();
                    agg.calls += 1;
                    agg.host_ns += self_ns;
                    agg.wait_ns += s.sim_start.saturating_sub(s.sim_issue);
                    agg.service_ns += s.sim_end.saturating_sub(s.sim_start);
                    if s.kind == "read" && inside_kv_get(spans, s) {
                        out.kv_get_page_reads += 1;
                    }
                }
                Layer::Core | Layer::Kv => {
                    if spans.get(s.parent as usize).is_some_and(|p| p.layer == Layer::Op) {
                        out.storage_calls += 1;
                        out.storage_sim_ns += s.sim_end.saturating_sub(s.sim_issue);
                    }
                    if s.layer == Layer::Kv && s.kind == "get" {
                        out.kv_gets += 1;
                    }
                }
                _ => {}
            }
        }
        out.max_residual_ns = op_self_sum
            .iter()
            .zip(&op_span_ns)
            .map(|(sum, span)| sum.abs_diff(*span))
            .max()
            .unwrap_or(0);
        out
    }

    /// Host self time of `layer` in nanoseconds.
    pub fn layer_ns(&self, layer: Layer) -> u64 {
        self.self_ns.get(&layer).copied().unwrap_or(0)
    }

    /// Flash calls of every kind.
    pub fn flash_calls(&self) -> u64 {
        self.flash.values().map(|k| k.calls).sum()
    }

    /// The span-derived per-layer metrics, per counted operation.
    ///
    /// `layer_host_ns` holds the host self time per layer to report (the
    /// median over the traced iterations of a run).  The storage-manager
    /// layer (`core`) is the `StorageBackend` seam under the dbms and the
    /// `KvStore` under the KV client: the KV store calls the manager
    /// directly, with no public seam in between.
    pub fn metrics(&self, ops: u64, layer_host_ns: &BTreeMap<Layer, f64>) -> Metrics {
        let per_op = |x: f64| if ops == 0 { 0.0 } else { x / ops as f64 };
        let host = |layer| layer_host_ns.get(&layer).copied().unwrap_or(0.0);
        let mut m = Metrics::default();
        m.push("dbms.host_self_us_per_op", per_op(host(Layer::Op) / 1e3), "us");
        m.push("dbms.storage_calls_per_op", per_op(self.storage_calls as f64), "count");
        m.push("dbms.storage_sim_us_per_op", per_op(self.storage_sim_ns as f64 / 1e3), "us");
        m.push(
            "core.host_self_us_per_op",
            per_op((host(Layer::Core) + host(Layer::Kv)) / 1e3),
            "us",
        );
        let run_pages = if self.kv_gets == 0 {
            0.0
        } else {
            self.kv_get_page_reads as f64 / self.kv_gets as f64
        };
        m.push("kv.run_pages_per_get", run_pages, "pages");
        let calls = self.flash_calls();
        m.push(
            "flash.host_ns_per_call",
            if calls == 0 { 0.0 } else { host(Layer::Flash) / calls as f64 },
            "ns",
        );
        m.push("flash.calls_per_op", per_op(calls as f64), "count");
        let timed = self.timed();
        let mean =
            |ns: u64| if timed.calls == 0 { 0.0 } else { ns as f64 / 1e3 / timed.calls as f64 };
        m.push("flash.wait_sim_us_mean", mean(timed.wait_ns), "us");
        m.push("flash.service_sim_us_mean", mean(timed.service_ns), "us");
        for kind in TIMED_KINDS {
            let agg = self.flash.get(kind).copied().unwrap_or_default();
            let total = (agg.wait_ns + agg.service_ns) as f64;
            let share = if total == 0.0 { 0.0 } else { agg.wait_ns as f64 / total };
            m.push(format!("flash.{kind}.wait_share"), share, "ratio");
        }
        m
    }

    /// Flash commands with simulated timing, summed over kinds.
    fn timed(&self) -> KindAgg {
        let mut sum = KindAgg::default();
        for kind in TIMED_KINDS.iter().chain(["read_metadata"].iter()) {
            let agg = self.flash.get(kind).copied().unwrap_or_default();
            sum.calls += agg.calls;
            sum.host_ns += agg.host_ns;
            sum.wait_ns += agg.wait_ns;
            sum.service_ns += agg.service_ns;
        }
        sum
    }

    /// Human-readable self-time table.
    pub fn table(&self) -> String {
        let total = self.op_host_ns.max(1) as f64;
        let mut out = String::from("layer  self_ms   share\n");
        for (name, layer) in
            [("op", Layer::Op), ("kv", Layer::Kv), ("core", Layer::Core), ("flash", Layer::Flash)]
        {
            let ns = self.layer_ns(layer);
            out.push_str(&format!(
                "{name:<6} {:>8.1} {:>6.1}%\n",
                ns as f64 / 1e6,
                100.0 * ns as f64 / total
            ));
        }
        out.push_str("flash command  calls  wait_sim_us_mean  service_sim_us_mean  host_ns_mean\n");
        for (kind, agg) in &self.flash {
            let per = |x: u64| x as f64 / agg.calls.max(1) as f64;
            out.push_str(&format!(
                "{kind:<14} {:>6} {:>17.1} {:>20.1} {:>13.0}\n",
                agg.calls,
                per(agg.wait_ns) / 1e3,
                per(agg.service_ns) / 1e3,
                per(agg.host_ns)
            ));
        }
        out.push_str(&format!(
            "sum of self times vs op spans: max residual {} ns over {} ops, {} nesting violations, {} orphan calls",
            self.max_residual_ns, self.ops, self.nesting_violations, self.orphans
        ));
        out
    }
}

/// Flash commands whose wait and service are reported per kind.
pub const TIMED_KINDS: [&str; 4] = ["read", "program", "erase", "copyback"];

fn inside_kv_get(spans: &[Span], s: &Span) -> bool {
    let mut p = s.parent;
    while p != NO_PARENT {
        let parent = &spans[p as usize];
        if parent.layer == Layer::Kv {
            return parent.kind == "get";
        }
        p = parent.parent;
    }
    false
}
