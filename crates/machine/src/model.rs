//! The roofline-with-contention execution-time model.
//!
//! `time(t) = max(compute(t), memory(t)) + overhead(t)` where
//!
//! * `compute(t)` — exact operation count (from `pdesched_kernels::ops`,
//!   including the overlapped-tile redundancy) divided by the effective
//!   rate of `t` threads, discounted by the schedule's *available
//!   parallelism* (load balance over boxes / z-slices / tiles, and the
//!   wavefront ramp-up where early and late wavefronts cannot fill the
//!   machine);
//! * `memory(t)` — the schedule's measured per-box DRAM traffic (cache
//!   simulator, with the LLC share shrinking as threads pack a socket)
//!   divided by the achievable bandwidth of `t` scatter-placed threads;
//! * `overhead(t)` — barrier and region-spawn costs, significant only
//!   for the wavefront schedules (many barriers) and for `P < Box` runs
//!   over thousands of tiny boxes.
//!
//! This is precisely the explanation the paper itself gives for every
//! curve in Figures 2–4 and 10–12 (Section VI-B).

use crate::spec::MachineSpec;
use crate::traffic::TrafficCache;
use pdesched_core::{wavefront, Category, Granularity, Variant};
use pdesched_kernels::ops::{exemplar_ops, exemplar_ops_overlapped};
use pdesched_kernels::NCOMP;
use pdesched_mesh::IBox;

/// The per-node problem: `num_boxes` boxes of `box_n`^3 cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Workload {
    /// Cells per box edge.
    pub box_n: i32,
    /// Number of boxes on the node.
    pub num_boxes: usize,
}

impl Workload {
    /// The paper's fixed-size problem: 50,331,648 cells
    /// (512 × 384 × 256) divided into boxes of `box_n`^3
    /// (Section III-C: 12,288 / 1,536 / 192 / 24 boxes for
    /// 16/32/64/128).
    pub fn paper(box_n: i32) -> Workload {
        let total: usize = 512 * 384 * 256;
        let per_box = (box_n as usize).pow(3);
        assert_eq!(total % per_box, 0, "box size {box_n} must divide the domain");
        Workload { box_n, num_boxes: total / per_box }
    }

    /// Total cells.
    pub fn total_cells(&self) -> usize {
        self.num_boxes * (self.box_n as usize).pow(3)
    }
}

/// A predicted execution time and its components.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Prediction {
    /// Predicted wall-clock seconds for one exemplar update of the whole
    /// workload.
    pub seconds: f64,
    /// Compute-bound component (seconds).
    pub compute_s: f64,
    /// Memory-bound component (seconds).
    pub memory_s: f64,
    /// Synchronization/overhead component (seconds).
    pub overhead_s: f64,
    /// Total DRAM traffic (bytes).
    pub traffic_bytes: u64,
    /// Total floating-point operations.
    pub flops: u64,
    /// Average DRAM bandwidth the run would sustain (GB/s).
    pub bandwidth_gbs: f64,
}

/// Fraction of extra throughput a second hardware thread per core buys
/// (hyper-threading) on this latency-bound kernel.
const SMT_BOOST: f64 = 0.10;
/// Cost of one barrier across `t` threads (seconds); log-ish growth
/// folded into a flat constant at these scales.
const BARRIER_S: f64 = 3.0e-6;
/// Cost of forking/joining one parallel region.
const REGION_S: f64 = 12.0e-6;
/// Extra time factor oversubscription (threads > cores) costs
/// barrier-heavy schedules (wavefronts resynchronize constantly).
const OVERSUB_BARRIER_PENALTY: f64 = 1.35;
/// Extra time factor oversubscription costs every other schedule —
/// except overlapped tiles parallelized over tiles, whose independent
/// tasks tolerate hyper-threading (Fig. 11: "this schedule does not
/// incur a slowdown with the use of hyper-threading").
const OVERSUB_PENALTY: f64 = 1.20;

/// The schedule's available parallelism at `t` workers: the ratio of
/// total work items to the padded work of the critical path
/// (`sum_w ceil(items_w / t) * t`).
pub fn parallel_efficiency(variant: Variant, wl: Workload, t: usize) -> f64 {
    if t <= 1 {
        return 1.0;
    }
    let t = t as f64;
    let pad = |items: usize| -> f64 { (items as f64 / t).ceil() * t };
    match variant.gran {
        Granularity::OverBoxes => wl.num_boxes as f64 / pad(wl.num_boxes),
        Granularity::WithinBox => {
            let n = wl.box_n;
            match variant.category {
                // z-slice parallelism: each pass splits N slabs.
                Category::Series => n as f64 / pad(n as usize),
                // Wavefronts of tiles (T = 1 for plain shift-fuse):
                // early/late fronts cannot fill the machine.
                Category::ShiftFuse | Category::BlockedWavefront => {
                    let tile = variant.tile.unwrap_or(1);
                    let sizes = wavefront::wavefront_sizes(n, tile);
                    let total: usize = sizes.iter().sum();
                    let padded: f64 = sizes.iter().map(|&s| pad(s)).sum();
                    total as f64 / padded
                }
                Category::OverlappedTile => {
                    let tiles = IBox::cube(n).tile_counts(variant.tile_size()).product();
                    tiles as f64 / pad(tiles)
                }
            }
        }
    }
}

/// Number of barriers one box execution performs (used for overhead).
fn barriers_per_box(variant: Variant, n: i32) -> usize {
    match (variant.gran, variant.category) {
        (Granularity::WithinBox, Category::Series) => 4 * 3, // phases x directions
        (Granularity::WithinBox, Category::ShiftFuse | Category::BlockedWavefront) => {
            let fronts = wavefront::wavefront_count(n, variant.tile.unwrap_or(1));
            match variant.comp {
                pdesched_core::CompLoop::Outside => fronts * NCOMP + 1,
                pdesched_core::CompLoop::Inside => fronts,
            }
        }
        _ => 0,
    }
}

/// Effective compute throughput of `t` hardware threads in GFLOP/s.
fn compute_rate(spec: &MachineSpec, t: usize) -> f64 {
    let cores = spec.cores() as f64;
    let t = (t as f64).min(spec.hw_threads() as f64);
    let effective = if t <= cores { t } else { cores * (1.0 + SMT_BOOST * (t - cores) / cores) };
    effective * spec.core_gflops
}

/// The cache hierarchy a prediction at `threads` threads simulates
/// against: private L1/L2 plus the LLC share left to one thread when the
/// run's socket-0 threads compete for it. This is the *single* place the
/// (machine, threads) pair turns into a traffic-measurement point — the
/// sweep engine enumerates points through it, so prewarmed keys always
/// match what [`predict_time`] will ask for.
pub fn prediction_hierarchy(
    spec: &MachineSpec,
    threads: usize,
) -> Vec<pdesched_cachesim::CacheConfig> {
    let threads_on_socket0 = spec.threads_per_socket(threads.min(spec.cores()))[0].max(1);
    spec.hierarchy_for(threads_on_socket0)
}

/// Predict the execution time of one whole-workload exemplar update.
pub fn predict_time(
    spec: &MachineSpec,
    variant: Variant,
    wl: Workload,
    threads: usize,
    cache: &TrafficCache,
) -> Prediction {
    assert!(threads >= 1 && threads <= spec.hw_threads());
    // Traffic: per-box measurement with the per-thread LLC share.
    let hierarchy = prediction_hierarchy(spec, threads);
    let per_box_traffic = cache.get(variant, wl.box_n, &hierarchy);
    predict_with_traffic(spec, variant, wl, threads, per_box_traffic.dram_bytes)
}

/// [`predict_time`] with closed-form traffic (`crate::analytic`) instead
/// of the cache simulator: instant, for wide what-if sweeps; the
/// simulator-backed path remains the reference for figure generation.
pub fn predict_time_analytic(
    spec: &MachineSpec,
    variant: Variant,
    wl: Workload,
    threads: usize,
) -> Prediction {
    let threads_on_socket0 = spec.threads_per_socket(threads.min(spec.cores()))[0].max(1);
    let cache_share = spec.hierarchy_for(threads_on_socket0)[2].size as u64;
    let per_box = crate::analytic::analytic_box_traffic(variant, wl.box_n, cache_share);
    predict_with_traffic(spec, variant, wl, threads, per_box)
}

/// [`predict_time`] with per-box DRAM traffic the caller already holds
/// (from a [`crate::traffic::StoreView`] snapshot, a shard merge, a
/// remote cache): the same model tail as the cache-backed path, with no
/// `TrafficCache` lookup — `machine::serve`'s warm path uses this so N
/// concurrent readers never contend on the cache mutex or simulate.
/// The caller is responsible for having measured `per_box_dram_bytes`
/// at [`prediction_hierarchy`]`(spec, threads)`, or the prediction is
/// for a different machine state than it claims.
pub fn predict_time_with_traffic(
    spec: &MachineSpec,
    variant: Variant,
    wl: Workload,
    threads: usize,
    per_box_dram_bytes: u64,
) -> Prediction {
    assert!(threads >= 1 && threads <= spec.hw_threads());
    predict_with_traffic(spec, variant, wl, threads, per_box_dram_bytes)
}

/// Shared tail of the two prediction paths.
fn predict_with_traffic(
    spec: &MachineSpec,
    variant: Variant,
    wl: Workload,
    threads: usize,
    per_box_traffic: u64,
) -> Prediction {
    let cells = IBox::cube(wl.box_n);
    let per_box_ops = match variant.category {
        Category::OverlappedTile => exemplar_ops_overlapped(cells, variant.tile_size()),
        _ => exemplar_ops(cells),
    };
    let flops = per_box_ops.flops() * wl.num_boxes as u64;
    let traffic_bytes = per_box_traffic * wl.num_boxes as u64;
    let eff = parallel_efficiency(variant, wl, threads);
    let compute_s = flops as f64 / (compute_rate(spec, threads) * 1e9) / eff.max(1e-9);
    let bw = spec.bandwidth_at(threads.min(spec.cores()));
    let memory_s = traffic_bytes as f64 / (bw * 1e9);
    let mut overhead_s = 0.0;
    if threads > 1 {
        let barriers = barriers_per_box(variant, wl.box_n) * wl.num_boxes;
        overhead_s += barriers as f64 * BARRIER_S;
        let regions = match variant.gran {
            Granularity::OverBoxes => 1,
            Granularity::WithinBox => wl.num_boxes * 2,
        };
        overhead_s += regions as f64 * REGION_S;
    }
    let mut seconds = compute_s.max(memory_s) + overhead_s;
    if threads > spec.cores() {
        let barrier_heavy = barriers_per_box(variant, wl.box_n) > 0;
        let ht_tolerant =
            variant.category == Category::OverlappedTile && variant.gran == Granularity::WithinBox;
        seconds *= if barrier_heavy {
            OVERSUB_BARRIER_PENALTY
        } else if ht_tolerant {
            1.0
        } else {
            OVERSUB_PENALTY
        };
    }
    Prediction {
        seconds,
        compute_s,
        memory_s,
        overhead_s,
        traffic_bytes,
        flops,
        bandwidth_gbs: traffic_bytes as f64 / seconds / 1e9,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdesched_core::{CompLoop, IntraTile};

    #[test]
    fn paper_workloads() {
        assert_eq!(Workload::paper(16).num_boxes, 12_288);
        assert_eq!(Workload::paper(32).num_boxes, 1_536);
        assert_eq!(Workload::paper(64).num_boxes, 192);
        assert_eq!(Workload::paper(128).num_boxes, 24);
        assert_eq!(Workload::paper(128).total_cells(), 50_331_648);
    }

    #[test]
    fn efficiency_over_boxes() {
        // 24 boxes over 24 threads: perfect. Over 16 threads: ceil(24/16)
        // = 2 slots of 16 = 32 padded -> 0.75.
        let wl = Workload::paper(128);
        assert_eq!(parallel_efficiency(Variant::baseline(), wl, 24), 1.0);
        assert_eq!(parallel_efficiency(Variant::baseline(), wl, 16), 0.75);
        assert_eq!(parallel_efficiency(Variant::baseline(), wl, 1), 1.0);
    }

    #[test]
    fn efficiency_wavefront_ramp() {
        // Wavefronts cannot fill the machine during ramp-up; efficiency
        // strictly below over-boxes and OT at the same thread count.
        let wl = Workload { box_n: 64, num_boxes: 1 };
        let wf = Variant::blocked_wavefront(CompLoop::Outside, 16);
        let ot = Variant::overlapped(IntraTile::ShiftFuse, 16, Granularity::WithinBox);
        let e_wf = parallel_efficiency(wf, wl, 8);
        let e_ot = parallel_efficiency(ot, wl, 8);
        assert!(e_wf < e_ot, "wavefront {e_wf} !< overlapped {e_ot}");
        assert!(e_wf > 0.2);
        assert_eq!(parallel_efficiency(ot, wl, 8), 1.0); // 64 tiles / 8
    }

    #[test]
    fn small_box_has_no_intra_parallelism_with_big_tiles() {
        // A 16 box with 16 tiles is one tile: serial (paper Fig. 9
        // discussion).
        let wl = Workload::paper(16);
        let ot = Variant::overlapped(IntraTile::ShiftFuse, 8, Granularity::WithinBox);
        let e = parallel_efficiency(ot, wl, 16);
        assert!(e <= 8.0 / 16.0 + 1e-12, "8 tiles cannot fill 16 threads: {e}");
    }

    #[test]
    fn prediction_components_consistent() {
        let spec = MachineSpec::i5_desktop();
        let cache = TrafficCache::new();
        let wl = Workload { box_n: 16, num_boxes: 8 };
        let p = predict_time(&spec, Variant::baseline(), wl, 2, &cache);
        assert!(p.seconds >= p.compute_s.max(p.memory_s));
        assert!(p.flops > 0 && p.traffic_bytes > 0);
        assert!(p.bandwidth_gbs > 0.0);
    }

    #[test]
    fn more_threads_never_slower_within_cores_for_baseline() {
        let spec = MachineSpec::sandy_bridge_node();
        let cache = TrafficCache::new();
        let wl = Workload { box_n: 16, num_boxes: 256 };
        let mut prev = f64::INFINITY;
        for t in [1, 2, 4, 8, 16] {
            let p = predict_time(&spec, Variant::baseline(), wl, t, &cache);
            assert!(p.seconds <= prev * 1.001, "t={t}");
            prev = p.seconds;
        }
    }
}
