//! Per-layer accounting for traced runs, the shared point replay, and
//! the run report.
//!
//! A traced run first executes the workload's real path, then replays
//! its inputs by calling each layer's public function directly under a
//! span. A layer's self time is taken by difference on the same box:
//! the interpreter is the plan executed under `NoMem`, the cache
//! simulator is the same execution under `TraceMem(Hierarchy)` minus
//! that. The replay itself is the tracing overhead.

use std::collections::BTreeMap;

use pdesched_cachesim::{CacheConfig, Hierarchy};
use pdesched_core::{plan, NoMem, Pipeline, Variant};
use pdesched_kernels::{GHOST, NCOMP};
use pdesched_machine::{BoxTraffic, TraceMem};
use pdesched_mesh::{trace_addr, FArrayBox, IBox};

use crate::util::timed;

/// Per-layer metrics, in `BENCHMARK.json` order, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("plan.lower_s", "s"),
    ("plan.lowers", "count"),
    ("passes.apply_s", "s"),
    ("passes.applied", "count"),
    ("interp.exec_s", "s"),
    ("interp.accesses", "count"),
    ("cachesim.sim_s", "s"),
    ("cachesim.macc_per_s", "Macc/s"),
    ("cachesim.l1_hit_ratio", "ratio"),
    ("cachesim.llc_hit_ratio", "ratio"),
    ("cachesim.dram_bytes", "B"),
    ("store.load_s", "s"),
    ("store.snapshot_s", "s"),
    ("store.lookup_s", "s"),
    ("store.compact_s", "s"),
    ("store.entries", "count"),
    ("store.misses", "count"),
    ("store.retried_appends", "count"),
    ("store.errors", "count"),
    ("sweep.prewarm_s", "s"),
    ("sweep.points_per_s", "1/s"),
    ("sweep.busy_ratio", "ratio"),
    ("sweep.engine_threads", "count"),
    ("model.rank_s.n16", "s"),
    ("model.rank_s.n32", "s"),
    ("model.rank_s.n64", "s"),
    ("model.rank_s.n128", "s"),
    ("model.predict_s", "s"),
    ("model.predict_calls", "count"),
    ("figures.assemble_s", "s"),
    ("serve.overhead_s", "s"),
    ("serve.latency_p50_ms.warm", "ms"),
    ("serve.latency_p50_ms.sim", "ms"),
    ("serve.requests", "count"),
    ("serve.coalesced", "count"),
    ("serve.rejected", "count"),
    ("trace.wall_s", "s"),
    ("trace.accounted_ratio", "ratio"),
    ("trace.overhead_s", "s"),
];

/// The self-time rows of the accounting table: each names the metric
/// holding that layer's self time.
const SELF_TIME_ROWS: &[(&str, &str)] = &[
    ("core::plan lowering", "plan.lower_s"),
    ("core::plan::passes + verify", "passes.apply_s"),
    ("core::plan::interp + kernels", "interp.exec_s"),
    ("cachesim", "cachesim.sim_s"),
    ("machine::traffic store I/O", "store.io_s"),
    ("machine::engine sweep", "sweep.self_s"),
    ("machine::model", "model.self_s"),
    ("machine::figures", "figures.assemble_s"),
    ("machine::serve", "serve.overhead_s"),
];

/// Accumulated per-layer values of one traced run.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    l1: (u64, u64),
    llc: (u64, u64),
}

impl Layers {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_insert(0.0) += v;
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Model self time: rank + predict, the lookups they made excluded
    /// (those are store time).
    fn model_self(&self) -> f64 {
        ["model.rank_s.n16", "model.rank_s.n32", "model.rank_s.n64", "model.rank_s.n128"]
            .iter()
            .map(|k| self.get(k))
            .sum::<f64>()
            + self.get("model.predict_s")
    }

    /// The accounting table (one line per layer) and the accounted sum.
    pub fn self_time_table(&self, real_wall: f64) -> (Vec<String>, f64) {
        let mut lines =
            vec![format!("{:<32} {:>12} {:>8}", "layer (self time)", "seconds", "share")];
        let mut sum = 0.0;
        for (label, key) in SELF_TIME_ROWS {
            let v = match *key {
                "store.io_s" => {
                    self.get("store.load_s")
                        + self.get("store.snapshot_s")
                        + self.get("store.lookup_s")
                        + self.get("store.compact_s")
                }
                "model.self_s" => self.model_self(),
                k => self.get(k),
            };
            sum += v;
            lines.push(format!("{label:<32} {v:>12.4} {:>7.1}%", 100.0 * v / real_wall.max(1e-12)));
        }
        lines.push(format!(
            "{:<32} {sum:>12.4} {:>7.1}%  (of real-path wall {real_wall:.4} s)",
            "accounted",
            100.0 * sum / real_wall.max(1e-12)
        ));
        (lines, sum)
    }

    /// Fold in one replayed simulation's hit counters.
    fn count_hits(&mut self, stats: &pdesched_cachesim::Stats) {
        let (l1, llc) = (stats.levels[0], stats.levels[stats.levels.len() - 1]);
        self.l1.0 += l1.hits;
        self.l1.1 += l1.hits + l1.misses;
        self.llc.0 += llc.hits;
        self.llc.1 += llc.hits + llc.misses;
    }

    /// Derived cache-simulator ratios; call once after the replay.
    pub fn finish_cachesim(&mut self) {
        let ratio = |(h, t): (u64, u64)| if t == 0 { 0.0 } else { h as f64 / t as f64 };
        self.set("cachesim.l1_hit_ratio", ratio(self.l1));
        self.set("cachesim.llc_hit_ratio", ratio(self.llc));
        let sim = self.get("cachesim.sim_s");
        let accesses = self.get("interp.accesses");
        self.set("cachesim.macc_per_s", if sim > 0.0 { accesses / sim / 1e6 } else { 0.0 });
    }

    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        PER_LAYER.iter().map(|(name, unit)| (name.to_string(), self.get(name), *unit)).collect()
    }
}

/// Boxes one traffic measurement streams through (the machine crate's
/// warm-up repetitions; the replayed traffic is compared bit for bit to
/// the stored value, so a drift here fails the run).
fn box_reps(n: i32) -> usize {
    if n <= 32 {
        4
    } else if n <= 64 {
        2
    } else {
        1
    }
}

/// Execute `plan` over the measurement's box sequence under `mem`,
/// timing only the execution (buffer set-up stays outside the span).
fn execute_boxes<M: pdesched_core::Mem>(plan: &plan::Plan, n: i32, mem: &M) -> f64 {
    trace_addr::reset();
    let cells = IBox::cube(n);
    let mut boxes: Vec<(FArrayBox, FArrayBox)> = (0..box_reps(n))
        .map(|i| {
            let mut phi0 = FArrayBox::new(cells.grown(GHOST), NCOMP);
            phi0.fill_synthetic(97 + i as u64);
            (phi0, FArrayBox::new(cells, NCOMP))
        })
        .collect();
    let scratch = trace_addr::mark();
    let ((), secs) = timed(|| {
        for (phi0, phi1) in &mut boxes {
            trace_addr::rewind(scratch);
            plan::execute(plan, phi0, phi1, cells, mem);
        }
    });
    secs
}

/// Replay one traffic measurement layer by layer: lowering, passes,
/// interpretation under `NoMem`, and the same execution through the
/// cache simulator. `first_lowering` says whether the real path lowered
/// this (variant, size, passes) shape here or found it in the plan
/// cache; only a real lowering is charged to the plan and pass layers.
pub fn replay_point(
    layers: &mut Layers,
    variant: Variant,
    n: i32,
    configs: &[CacheConfig],
    pipeline: &Pipeline,
    first_lowering: bool,
) -> Result<BoxTraffic, String> {
    let (lowered, t_lower) = timed(|| plan::lower(variant, IBox::cube(n).size(), 1));
    let plan = if pipeline.is_empty() {
        lowered
    } else {
        let (applied, t_pass) = timed(|| pipeline.apply(lowered));
        let applied = applied.map_err(|e| format!("{variant} n={n}: {e}"))?;
        if first_lowering {
            layers.add("passes.apply_s", t_pass);
            layers.add("passes.applied", 1.0);
        }
        applied
    };
    if first_lowering {
        layers.add("plan.lower_s", t_lower);
        layers.add("plan.lowers", 1.0);
    }
    let t_interp = execute_boxes(&plan, n, &NoMem);
    let trace = TraceMem::new(Hierarchy::new(configs));
    let t_exec = execute_boxes(&plan, n, &trace);
    let (sim, t_flush) = timed(|| trace.finish());
    layers.add("interp.exec_s", t_interp);
    layers.add("cachesim.sim_s", t_exec + t_flush - t_interp);
    let s = sim.stats();
    layers.add("interp.accesses", (s.reads + s.writes) as f64);
    layers.count_hits(&s);
    let k = box_reps(n) as u64;
    let nlev = s.levels.len();
    let t = BoxTraffic {
        dram_bytes: s.dram_bytes(sim.line()) / k,
        reads: s.reads / k,
        writes: s.writes / k,
        l1_hit: s.levels[0].hit_ratio(),
        llc_hit: s.levels[nlev - 1].hit_ratio(),
    };
    layers.add("cachesim.dram_bytes", t.dram_bytes as f64);
    Ok(t)
}

/// Bitwise equality of two measurements (the ratios compared by bits,
/// not by float equality).
pub fn same_traffic(a: &BoxTraffic, b: &BoxTraffic) -> bool {
    a.dram_bytes == b.dram_bytes
        && a.reads == b.reads
        && a.writes == b.writes
        && a.l1_hit.to_bits() == b.l1_hit.to_bits()
        && a.llc_hit.to_bits() == b.llc_hit.to_bits()
}

/// What one run reports.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// (name, value, unit) in output order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Within-run samples behind each metric, for the quartile table.
    pub samples: Vec<(String, Vec<f64>)>,
    /// Free-form lines printed before the result.
    pub notes: Vec<String>,
    pub sweep_threads: usize,
    pub client_threads: usize,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}
