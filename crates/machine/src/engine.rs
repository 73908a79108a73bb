//! The parallel sweep engine: prewarm every traffic measurement a
//! figure or ranking will need, concurrently, then generate serially.
//!
//! Figure generation spends essentially all of its time inside
//! [`crate::traffic::measure_box_traffic`] — full schedule executions
//! replayed through the cache simulator. Those measurements are
//! independent across (variant, box size, hierarchy) points, so the
//! engine fans them out over a [`SpmdPool`] (the repo's own OpenMP-style
//! substrate — the machinery under study runs the study). The figure
//! generators themselves stay serial and read everything back as cache
//! hits, which keeps their output *byte-identical* to a fully serial
//! run: parallelism only changes the order measurements complete, never
//! a measured value (each point is simulated exactly once, from a fixed
//! seed) nor the order points are read back.

use crate::journal::{self, PriorSweep, SweepJournal};
use crate::model::prediction_hierarchy;
use crate::spec::MachineSpec;
use crate::traffic::TrafficCache;
use pdesched_cachesim::CacheConfig;
use pdesched_core::Variant;
use pdesched_par::cancel::{self, CancelToken, Cancelled};
use pdesched_par::SpmdPool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// One independent simulation point: `variant` updating an `n`^3 box
/// through the hierarchy `configs`.
#[derive(Clone, Debug, PartialEq)]
pub struct SimPoint {
    /// The schedule to execute.
    pub variant: Variant,
    /// Box edge length.
    pub n: i32,
    /// Cache hierarchy (L1 first, LLC last).
    pub configs: Vec<CacheConfig>,
}

impl SimPoint {
    /// The point [`crate::model::predict_time`] will look up for
    /// `(spec, variant, box_n, threads)` — same hierarchy computation,
    /// so prewarming this point guarantees the prediction is a hit.
    pub fn for_prediction(
        spec: &MachineSpec,
        variant: Variant,
        box_n: i32,
        threads: usize,
    ) -> SimPoint {
        SimPoint { variant, n: box_n, configs: prediction_hierarchy(spec, threads) }
    }
}

/// One simulation point whose measurement panicked during a prewarm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PointFailure {
    /// Display name of the schedule variant.
    pub variant: String,
    /// Box edge length.
    pub n: i32,
    /// The panic message.
    pub error: String,
}

/// One requested point rejected up front because the variant cannot
/// execute on its box size (`Variant::validate_for_box`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SkippedPoint {
    /// Display name of the schedule variant.
    pub variant: String,
    /// Box edge length.
    pub n: i32,
    /// Why the variant is invalid for this box.
    pub reason: String,
}

/// Time and retry budget for one [`SweepEngine::prewarm`] call.
///
/// Deadlines are enforced by a watchdog thread that trips the relevant
/// [`CancelToken`]: the whole-sweep deadline trips the sweep token
/// (remaining points are left unmeasured and the report comes back
/// [`PrewarmReport::cancelled`]); the per-point deadline trips only that
/// point's child token (the point lands in
/// [`PrewarmReport::timed_out`] and every other point proceeds).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepBudget {
    /// Wall-clock limit for a single point's measurement.
    pub point_deadline: Option<Duration>,
    /// Wall-clock limit for the whole sweep.
    pub sweep_deadline: Option<Duration>,
    /// Extra attempts for a transiently failing store append
    /// (forwarded to [`TrafficCache::set_append_retry`]).
    pub max_retries: u32,
    /// Initial backoff between append retries (doubles per attempt,
    /// bounded).
    pub backoff: Duration,
}

impl Default for SweepBudget {
    fn default() -> Self {
        SweepBudget {
            point_deadline: None,
            sweep_deadline: None,
            max_retries: 0,
            backoff: Duration::from_millis(25),
        }
    }
}

/// What one [`SweepEngine::prewarm`] call did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PrewarmReport {
    /// Points requested (before dedup).
    pub requested: usize,
    /// Distinct points after dedup.
    pub unique: usize,
    /// Points successfully simulated (the rest were already cached,
    /// failed, timed out, or left behind by a cancellation).
    pub measured: usize,
    /// Points whose measurement panicked. The panic is contained to the
    /// point: every other point still completes, and the caller decides
    /// whether a partial sweep is acceptable.
    pub failed: Vec<PointFailure>,
    /// Points killed by the per-point deadline
    /// ([`SweepBudget::point_deadline`]). Like failures, they are
    /// contained: the remaining points still complete.
    pub timed_out: Vec<PointFailure>,
    /// Unique points rejected before measurement because the variant is
    /// invalid for the box size, with the validator's reason. Sweeps can
    /// hand the engine a raw cross-product and read back exactly what
    /// was dropped instead of pre-filtering.
    pub skipped: Vec<SkippedPoint>,
    /// Why the sweep stopped early, if it did: the cancel token's trip
    /// reason (caller cancellation or the sweep deadline). `None` means
    /// the sweep ran to completion.
    pub cancelled: Option<String>,
    /// Scheduled points left unmeasured because the sweep was cancelled
    /// (always 0 when `cancelled` is `None`). They stay missing from
    /// the store, so a re-run resumes exactly these.
    pub remaining: usize,
    /// What the journal said about a previous interrupted sweep over the
    /// same store — `Some` exactly when this run is a resume.
    pub resumed_from: Option<PriorSweep>,
    /// Wall-clock seconds of the whole prewarm call (dedup, validation,
    /// journal handling, and the parallel measurement region).
    pub seconds: f64,
    /// Wall-clock seconds from the first point actually entering
    /// measurement to the end of the parallel region; 0 when nothing was
    /// measured. On a resume that skips thousands of already-stored
    /// points, this excludes the skip/dedup prologue that `seconds`
    /// includes.
    pub measure_seconds: f64,
    /// Measurement throughput (`measured / measure_seconds`), clocked
    /// from the first measured point onward so a resume over a mostly
    /// complete store doesn't report a collapsed rate; 0 when nothing
    /// was measured.
    pub points_per_sec: f64,
    /// Shard-worker threads each point's measurement was granted
    /// (1 = serial engines): `pool threads / ready points` when the
    /// sweep had fewer ready points than pool threads, else 1.
    pub engine_threads: usize,
}

/// Best-effort text of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).into()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// A persistent worker pool that fills a [`TrafficCache`] in parallel,
/// under supervision: cancellable, deadline-bounded, and resumable (see
/// [`SweepBudget`] and [`PrewarmReport`]).
pub struct SweepEngine {
    pool: SpmdPool,
    progress: bool,
    budget: SweepBudget,
    /// Heartbeat interval for the mid-sweep progress line; `None`
    /// silences it.
    heartbeat: Option<Duration>,
    /// External cancellation (e.g. the signal handler's token); child
    /// tokens per point hang off it.
    token: Option<CancelToken>,
}

impl SweepEngine {
    /// An engine with `threads` measurement workers (including the
    /// caller), no progress output, a default (unlimited) budget, and a
    /// 10 s heartbeat.
    pub fn new(threads: usize) -> Self {
        SweepEngine {
            pool: SpmdPool::new(threads.max(1)),
            progress: false,
            budget: SweepBudget::default(),
            heartbeat: Some(Duration::from_secs(10)),
            token: None,
        }
    }

    /// Emit one stderr line per completed measurement (for the `repro`
    /// binary's progress display).
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// Set the time/retry budget enforced on every subsequent prewarm.
    pub fn with_budget(mut self, budget: SweepBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Supervise sweeps under `token`: tripping it (from a signal
    /// handler, another thread, anywhere) makes the running prewarm
    /// stop at the next checkpoint and report
    /// [`PrewarmReport::cancelled`].
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.token = Some(token);
        self
    }

    /// Heartbeat interval for the operator-facing progress line
    /// (points done / total / ETA); `None` disables it.
    pub fn with_heartbeat(mut self, interval: Option<Duration>) -> Self {
        self.heartbeat = interval;
        self
    }

    /// Measurement workers (including the caller).
    pub fn nthreads(&self) -> usize {
        self.pool.nthreads()
    }

    /// Measure every point of `points` not already in `cache`,
    /// dynamically scheduled over the pool (costs vary by orders of
    /// magnitude with box size, so static partitioning would straggle).
    /// Big boxes go first to keep the tail short.
    ///
    /// Degrades gracefully: a point whose measurement panics is caught
    /// on its worker, recorded in [`PrewarmReport::failed`], and the
    /// remaining points still complete — one poisoned simulation must
    /// not abort an hours-long unattended sweep. Under a [`SweepBudget`]
    /// a watchdog additionally kills individual points that exceed the
    /// per-point deadline (reported in [`PrewarmReport::timed_out`]) and
    /// cancels the whole sweep at the sweep deadline; an engine-level
    /// [`CancelToken`] cancels it externally. However the sweep stops,
    /// every completed point is already durably appended to the store
    /// and a journal sidecar marks the interruption, so re-running the
    /// same prewarm resumes with exactly the missing points and ends
    /// bit-identical to an uninterrupted run.
    pub fn prewarm(&self, cache: &TrafficCache, points: &[SimPoint]) -> PrewarmReport {
        let t0 = Instant::now();
        let mut todo: Vec<&SimPoint> = Vec::new();
        let mut skipped: Vec<SkippedPoint> = Vec::new();
        for p in points {
            if todo.contains(&p) {
                continue;
            }
            if let Err(e) = p.variant.validate_for_box(p.n) {
                let s = SkippedPoint { variant: p.variant.to_string(), n: p.n, reason: e.reason };
                if !skipped.contains(&s) {
                    skipped.push(s);
                }
                continue;
            }
            if !cache.contains(p.variant, p.n, &p.configs) {
                todo.push(p);
            }
        }
        skipped.sort_by(|a, b| (&a.variant, a.n).cmp(&(&b.variant, b.n)));
        let unique = {
            let mut seen: Vec<&SimPoint> = Vec::new();
            for p in points {
                if !seen.contains(&p) {
                    seen.push(p);
                }
            }
            seen.len()
        };
        todo.sort_by_key(|p| std::cmp::Reverse(p.n));
        let total = todo.len();

        // Checkpoint/resume: the store is the source of truth for
        // completed points (they were filtered out of `todo` above); the
        // journal sidecar records everything else about the previous
        // sweep. An unterminated journal means we are resuming it.
        let mut resumed_from: Option<PriorSweep> = None;
        let journal: Option<SweepJournal> = match cache.store_path() {
            Some(store) if !cache.store_read_only() => {
                let jpath = journal::journal_path_for(store);
                resumed_from = journal::load(&jpath);
                SweepJournal::start(&jpath, total)
            }
            _ => None,
        };
        cache.set_append_retry(self.budget.max_retries, self.budget.backoff);

        // Point-level thread policy: when the sweep has fewer ready
        // points than pool threads, the idle threads become shard
        // workers *inside* each point's measurement (`crate::parallel`,
        // bit-identical by construction). With plenty of points the
        // point-level parallelism of the pool already saturates the
        // host, so each point stays serial.
        let engine_threads = if total > 0 && total < self.pool.nthreads() {
            self.pool.nthreads() / total
        } else {
            1
        };
        cache.set_engine_threads(engine_threads);

        let sweep_token = self.token.clone().unwrap_or_default();
        let counter = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let measured = AtomicUsize::new(0);
        let failures: Mutex<Vec<PointFailure>> = Mutex::new(Vec::new());
        let timeouts: Mutex<Vec<PointFailure>> = Mutex::new(Vec::new());
        // One supervision slot per worker: the token and start time of
        // the point it is currently measuring, for the watchdog's
        // per-point deadline scan.
        let slots: Vec<Mutex<Option<(CancelToken, Instant)>>> =
            (0..self.pool.nthreads()).map(|_| Mutex::new(None)).collect();
        // When the first point actually entered measurement: the rate
        // basis for `points_per_sec` and the heartbeat ETA, so a resume
        // that spends its prologue skipping stored points doesn't dilute
        // the measured rate.
        let first_measure: Mutex<Option<Instant>> = Mutex::new(None);
        let stop = Mutex::new(false);
        let stop_cv = Condvar::new();

        let run_result = std::thread::scope(|s| {
            let supervise = self.budget.sweep_deadline.is_some()
                || self.budget.point_deadline.is_some()
                || self.heartbeat.is_some();
            if supervise && total > 0 {
                let sweep_token = sweep_token.clone();
                let budget = self.budget.clone();
                let heartbeat = self.heartbeat;
                let (slots, stop, stop_cv, done) = (&slots, &stop, &stop_cv, &done);
                let first_measure = &first_measure;
                s.spawn(move || {
                    let mut last_beat = Instant::now();
                    let mut guard = stop.lock().unwrap_or_else(|e| e.into_inner());
                    while !*guard {
                        guard = stop_cv
                            .wait_timeout(guard, Duration::from_millis(20))
                            .unwrap_or_else(|e| e.into_inner())
                            .0;
                        if *guard {
                            break;
                        }
                        if let Some(sd) = budget.sweep_deadline {
                            if t0.elapsed() >= sd && !sweep_token.is_tripped() {
                                sweep_token.trip(&format!(
                                    "sweep deadline {:.3}s exceeded",
                                    sd.as_secs_f64()
                                ));
                            }
                        }
                        if let Some(pd) = budget.point_deadline {
                            for slot in slots {
                                let held = slot.lock().unwrap_or_else(|e| e.into_inner());
                                if let Some((tok, started)) = &*held {
                                    if started.elapsed() >= pd && !tok.tripped_directly() {
                                        tok.trip(&format!(
                                            "point deadline {:.3}s exceeded",
                                            pd.as_secs_f64()
                                        ));
                                    }
                                }
                            }
                        }
                        if let Some(hb) = heartbeat {
                            if last_beat.elapsed() >= hb {
                                last_beat = Instant::now();
                                let d = done.load(Ordering::Relaxed);
                                let secs = first_measure
                                    .lock()
                                    .unwrap_or_else(|e| e.into_inner())
                                    .map_or(0.0, |t| t.elapsed().as_secs_f64());
                                let rate = if secs > 0.0 { d as f64 / secs } else { 0.0 };
                                let eta = if rate > 0.0 {
                                    format!("{:.0}s", (total - d) as f64 / rate)
                                } else {
                                    "?".into()
                                };
                                eprintln!(
                                    "[sweep] heartbeat: {d}/{total} points, \
                                     {rate:.2} points/s, eta {eta}"
                                );
                            }
                        }
                    }
                });
            }

            let r = self.pool.run_cancellable(&sweep_token, |ctx| {
                ctx.dynamic_items(&counter, total, 1, |i| {
                    if sweep_token.is_tripped() {
                        // Cancelled sweep: drain the queue without
                        // measuring; the skipped points stay missing
                        // from the store for the resume run.
                        return;
                    }
                    let p = todo[i];
                    {
                        let mut fm = first_measure.lock().unwrap_or_else(|e| e.into_inner());
                        if fm.is_none() {
                            *fm = Some(Instant::now());
                        }
                    }
                    let point_token = sweep_token.child();
                    *slots[ctx.tid()].lock().unwrap_or_else(|e| e.into_inner()) =
                        Some((point_token.clone(), Instant::now()));
                    let _ambient = cancel::set_current(Some(point_token.clone()));
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        cache.get(p.variant, p.n, &p.configs);
                    }));
                    *slots[ctx.tid()].lock().unwrap_or_else(|e| e.into_inner()) = None;
                    let d = done.fetch_add(1, Ordering::Relaxed) + 1;
                    match r {
                        Ok(()) => {
                            measured.fetch_add(1, Ordering::Relaxed);
                            if self.progress {
                                eprintln!(
                                    "[sweep] measured {d}/{total}: {} n={} (thread {})",
                                    p.variant,
                                    p.n,
                                    ctx.tid()
                                );
                            }
                        }
                        Err(payload) if payload.is::<Cancelled>() => {
                            if point_token.tripped_directly() {
                                // This point's own deadline fired.
                                let f = PointFailure {
                                    variant: p.variant.to_string(),
                                    n: p.n,
                                    error: point_token
                                        .reason()
                                        .unwrap_or_else(|| "point deadline".into()),
                                };
                                if self.progress {
                                    eprintln!(
                                        "[sweep] TIMEOUT {d}/{total}: {} n={}: {} (thread {})",
                                        p.variant,
                                        p.n,
                                        f.error,
                                        ctx.tid()
                                    );
                                }
                                if let Some(j) = &journal {
                                    j.timeout(&f.variant, f.n, &f.error);
                                }
                                timeouts.lock().unwrap_or_else(|e| e.into_inner()).push(f);
                            }
                            // Sweep-level cancel: the point is simply
                            // unmeasured (counted in `remaining`).
                        }
                        Err(payload) => {
                            let f = PointFailure {
                                variant: p.variant.to_string(),
                                n: p.n,
                                error: panic_message(payload.as_ref()),
                            };
                            if self.progress {
                                eprintln!(
                                    "[sweep] FAILED {d}/{total}: {} n={}: {} (thread {})",
                                    p.variant,
                                    p.n,
                                    f.error,
                                    ctx.tid()
                                );
                            }
                            if let Some(j) = &journal {
                                j.fail(&f.variant, f.n, &f.error);
                            }
                            failures.lock().unwrap_or_else(|e| e.into_inner()).push(f);
                        }
                    }
                });
            });
            *stop.lock().unwrap_or_else(|e| e.into_inner()) = true;
            stop_cv.notify_all();
            r
        });
        // Later misses (figure rendering on the caller's thread, a next
        // prewarm with its own policy) go back to the serial engines.
        cache.set_engine_threads(1);

        let mut failed = failures.into_inner().unwrap_or_else(|e| e.into_inner());
        let mut timed_out = timeouts.into_inner().unwrap_or_else(|e| e.into_inner());
        // Completion order is scheduling-dependent; report failures in a
        // deterministic order.
        failed.sort_by(|a, b| (&a.variant, a.n).cmp(&(&b.variant, b.n)));
        timed_out.sort_by(|a, b| (&a.variant, a.n).cmp(&(&b.variant, b.n)));
        let cancelled = match run_result {
            Err(c) => Some(c.reason),
            // The token can trip after the last point completes; the
            // sweep still finished, but report it faithfully.
            Ok(()) => sweep_token
                .is_tripped()
                .then(|| sweep_token.reason().unwrap_or_else(|| "cancelled".into())),
        };
        if let Some(j) = &journal {
            match &cancelled {
                Some(reason) => j.cancelled(reason),
                None => j.complete(),
            }
        }
        let measured = measured.load(Ordering::Relaxed);
        let seconds = t0.elapsed().as_secs_f64();
        let measure_seconds = first_measure
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .map_or(0.0, |t| t.elapsed().as_secs_f64());
        PrewarmReport {
            requested: points.len(),
            unique,
            measured,
            remaining: total - measured - failed.len() - timed_out.len(),
            failed,
            timed_out,
            skipped,
            cancelled,
            resumed_from,
            seconds,
            measure_seconds,
            points_per_sec: if measured > 0 && measure_seconds > 0.0 {
                measured as f64 / measure_seconds
            } else {
                0.0
            },
            engine_threads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::CacheStats;
    use pdesched_cachesim::CacheConfig;

    fn tiny() -> Vec<CacheConfig> {
        vec![CacheConfig::new(8 * 1024, 4), CacheConfig::new(64 * 1024, 8)]
    }

    fn points() -> Vec<SimPoint> {
        let mut p = Vec::new();
        for v in [Variant::baseline(), Variant::shift_fuse()] {
            for n in [8, 12] {
                p.push(SimPoint { variant: v, n, configs: tiny() });
            }
        }
        p
    }

    #[test]
    fn parallel_prewarm_equals_serial_measurement() {
        // The whole point of the engine: same numbers as the serial
        // path, bit for bit.
        let serial = TrafficCache::new();
        for p in points() {
            serial.get(p.variant, p.n, &p.configs);
        }
        let parallel = TrafficCache::new();
        let engine = SweepEngine::new(4);
        engine.prewarm(&parallel, &points());
        for p in points() {
            let a = serial.get(p.variant, p.n, &p.configs);
            let b = parallel.get(p.variant, p.n, &p.configs);
            assert_eq!(a, b, "{} n={}", p.variant, p.n);
        }
    }

    #[test]
    fn prewarm_dedupes_and_skips_cached() {
        let cache = TrafficCache::new();
        let engine = SweepEngine::new(2);
        // Duplicate the list: 8 requested, 4 unique.
        let mut pts = points();
        pts.extend(points());
        let r = engine.prewarm(&cache, &pts);
        assert_eq!((r.requested, r.unique, r.measured), (8, 4, 4));
        assert_eq!(cache.stats().misses, 4, "each unique point simulated exactly once");
        // Second prewarm: everything cached, nothing measured.
        let r2 = engine.prewarm(&cache, &pts);
        assert_eq!(r2.measured, 0);
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn prewarmed_cache_answers_without_missing() {
        let cache = TrafficCache::new();
        SweepEngine::new(3).prewarm(&cache, &points());
        let before = cache.stats();
        for p in points() {
            cache.get(p.variant, p.n, &p.configs);
        }
        let after = cache.stats();
        assert_eq!(after.misses, before.misses, "all reads must be hits");
        assert_eq!(
            after,
            CacheStats { hits: before.hits + 4, misses: before.misses, ..Default::default() }
        );
    }

    #[test]
    fn prewarm_skips_invalid_points_with_reason() {
        // A raw cross-product may contain variants invalid for a box
        // size: they are rejected up front, with the validator's reason,
        // and never reach a worker (so they don't show up as panics).
        let cache = TrafficCache::new();
        let engine = SweepEngine::new(2);
        let mut pts = points();
        let bad = Variant::blocked_wavefront(pdesched_core::CompLoop::Outside, 8);
        pts.push(SimPoint { variant: bad, n: 8, configs: tiny() });
        pts.push(SimPoint { variant: bad, n: 8, configs: tiny() }); // duplicate
        let r = engine.prewarm(&cache, &pts);
        assert_eq!(r.skipped.len(), 1, "{:?}", r.skipped);
        assert_eq!(r.skipped[0].n, 8);
        assert!(r.skipped[0].reason.contains("smaller than the box"), "{}", r.skipped[0].reason);
        assert!(r.failed.is_empty());
        assert_eq!(r.measured, 4, "valid points still measured");
    }

    #[test]
    fn for_prediction_matches_predict_time_lookup() {
        // A point built by the engine must be the exact key predict_time
        // reads: prewarm it, predict, and verify zero misses.
        let spec = MachineSpec::i5_desktop();
        let cache = TrafficCache::new();
        let v = Variant::shift_fuse();
        let p = SimPoint::for_prediction(&spec, v, 16, spec.cores());
        SweepEngine::new(2).prewarm(&cache, &[p]);
        let misses_before = cache.stats().misses;
        let wl = crate::model::Workload::paper(16);
        crate::model::predict_time(&spec, v, wl, spec.cores(), &cache);
        assert_eq!(cache.stats().misses, misses_before, "prediction must hit the prewarmed key");
    }
}
