//! `cold-figs`: regenerate Figs. 2, 3 and 4 at 64^3 (what
//! `repro --fast fig2 fig3 fig4` does) from an empty store.
//!
//! Per figure: one `SweepEngine::prewarm` over the figure's points, then
//! `figures::figure234_sized(.., 64)`, then rendering. The seed only
//! permutes the order points are submitted in; the rendered text is
//! checked byte for byte against `golden/fig234_fast.txt`.

use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

use pdesched_bench::render_figure;
use pdesched_core::{Pipeline, Variant};
use pdesched_machine::figures::{
    best_variant_fig234, figure234_points, figure234_sized, thread_counts,
};
use pdesched_machine::model::{predict_time_with_traffic, prediction_hierarchy, Workload};
use pdesched_machine::{
    measure_box_traffic_reference, store_key, MachineSpec, PrewarmReport, SimPoint, SweepEngine,
    TrafficCache,
};

use crate::layers::{replay_point, same_traffic, Layers, Report};
use crate::util::{ensure, median, nproc, peak_rss_mb, quantile, sorted, timed, Rng, RunDir};
use crate::Args;

/// The `--fast` substitute for the 128^3 box.
const BIG_N: i32 = 64;
/// Distinct simulations one regeneration must run (the workload guard).
const POINTS: u64 = 36;
/// Seeded n=16 points re-measured through the reference simulator.
const ORACLE_POINTS: usize = 2;
/// Set-ups timed per regeneration (the last one is used).
const SETUP_REPS: usize = 31;
const GOLDEN: &str = "e2ebench/golden/fig234_fast.txt";

struct Fig {
    id: &'static str,
    spec: MachineSpec,
    /// Points in seeded submission order.
    points: Vec<SimPoint>,
}

fn figures(rng: &mut Rng) -> Vec<Fig> {
    let nodes = MachineSpec::evaluation_nodes();
    ["fig2", "fig3", "fig4"]
        .into_iter()
        .zip(nodes)
        .map(|(id, spec)| {
            let mut points = figure234_points(&spec, BIG_N);
            rng.shuffle(&mut points);
            Fig { id, spec, points }
        })
        .collect()
}

/// One set-up: an empty store in a fresh directory and a sweep engine.
fn setup(dir: &Path, threads: usize) -> Result<(TrafficCache, SweepEngine, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = dir.join("store.txt");
    let ((cache, engine), secs) = timed(|| {
        let cache = TrafficCache::with_store(&store);
        let engine = SweepEngine::new(threads).with_heartbeat(None);
        (cache, engine)
    });
    ensure(cache.is_empty() && cache.stats().misses == 0 && !cache.store_read_only(), || {
        format!("set-up store {} is not an empty writable store", store.display())
    })?;
    Ok((cache, engine, secs))
}

fn check_prewarm(id: &str, r: &PrewarmReport) -> Result<(), String> {
    ensure(
        r.failed.is_empty()
            && r.timed_out.is_empty()
            && r.skipped.is_empty()
            && r.cancelled.is_none(),
        || {
            format!(
                "{id}: prewarm failed={:?} timed_out={:?} skipped={:?} cancelled={:?}",
                r.failed, r.timed_out, r.skipped, r.cancelled
            )
        },
    )
}

/// Per-figure timings of one regeneration.
struct Regen {
    text: String,
    /// (prewarm, assemble + render) seconds per figure.
    per_fig: Vec<(f64, f64)>,
    reports: Vec<PrewarmReport>,
}

fn regenerate(figs: &[Fig], cache: &TrafficCache, engine: &SweepEngine) -> Result<Regen, String> {
    let mut out = Regen { text: String::new(), per_fig: Vec::new(), reports: Vec::new() };
    for f in figs {
        let (report, t_prewarm) = timed(|| engine.prewarm(cache, &f.points));
        check_prewarm(f.id, &report)?;
        let (text, t_assemble) =
            timed(|| render_figure(&figure234_sized(&f.spec, cache, f.id, BIG_N)));
        out.text.push_str(&text);
        out.per_fig.push((t_prewarm, t_assemble));
        out.reports.push(report);
    }
    Ok(out)
}

/// Correctness gate and workload guard for one regeneration.
fn check_regen(regen: &Regen, cache: &TrafficCache, golden: &str) -> Result<(), String> {
    if regen.text != golden {
        let line = regen.text.lines().zip(golden.lines()).position(|(a, b)| a != b);
        return Err(format!(
            "rendered figures differ from {GOLDEN} (first differing line: {line:?}, \
             {} vs {} bytes)",
            regen.text.len(),
            golden.len()
        ));
    }
    let measured: usize = regen.reports.iter().map(|r| r.measured).sum();
    let stats = cache.stats();
    ensure(
        measured as u64 == POINTS && stats.misses == POINTS && cache.len() as u64 == POINTS,
        || {
            format!(
                "expected exactly {POINTS} simulations from an empty store, got measured={measured} \
                 misses={} entries={}",
                stats.misses,
                cache.len()
            )
        },
    )?;
    ensure(stats.store_errors == 0 && stats.corrupt_lines == 0, || {
        format!("store errors={} corrupt={}", stats.store_errors, stats.corrupt_lines)
    })
}

/// Re-measure a seeded sample of the run's n=16 points through the
/// reference simulator; each must equal the fast value bit for bit.
fn oracle(figs: &[Fig], cache: &TrafficCache, rng: &mut Rng) -> Result<Vec<String>, String> {
    let mut seen = HashSet::new();
    let mut small: Vec<&SimPoint> = figs
        .iter()
        .flat_map(|f| &f.points)
        .filter(|p| p.n == 16 && seen.insert(store_key(p.variant, p.n, &p.configs)))
        .collect();
    small.sort_by_key(|p| store_key(p.variant, p.n, &p.configs));
    rng.shuffle(&mut small);
    let mut notes = Vec::new();
    for p in small.into_iter().take(ORACLE_POINTS) {
        let (reference, secs) = timed(|| measure_box_traffic_reference(p.variant, p.n, &p.configs));
        let fast = cache.get(p.variant, p.n, &p.configs);
        ensure(same_traffic(&reference, &fast), || {
            format!(
                "oracle mismatch for {} n={}: reference {reference:?} vs fast {fast:?}",
                p.variant, p.n
            )
        })?;
        notes.push(format!(
            "oracle: {} n={} {} reference == fast ({secs:.2} s)",
            p.variant,
            p.n,
            store_key(p.variant, p.n, &p.configs)
        ));
    }
    Ok(notes)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let golden = std::fs::read_to_string(GOLDEN).map_err(|e| format!("{GOLDEN}: {e}"))?;
    let mut rng = Rng::new(args.seed);
    let figs = figures(&mut rng);
    let dir = RunDir::new("cold-figs").map_err(|e| format!("scratch dir: {e}"))?;
    if args.trace {
        traced(&figs, &golden, &mut rng, dir.path())
    } else {
        untraced(args, &figs, &golden, &mut rng, dir.path())
    }
}

fn untraced(
    args: &Args,
    figs: &[Fig],
    golden: &str,
    rng: &mut Rng,
    dir: &Path,
) -> Result<Report, String> {
    let threads = nproc();
    let mut report = Report { sweep_threads: threads, client_threads: 1, ..Report::default() };
    let mut setups = Vec::new();
    let mut regens = Vec::new();
    let mut fig_ms = Vec::new();
    let t0 = Instant::now();
    loop {
        let mut kept = None;
        for i in 0..SETUP_REPS {
            let (cache, engine, secs) = setup(&dir.join(format!("setup{i}")), threads)?;
            setups.push(secs);
            kept = Some((cache, engine));
        }
        let (cache, engine) = kept.expect("SETUP_REPS > 0");
        let regen = regenerate(figs, &cache, &engine)?;
        check_regen(&regen, &cache, golden)?;
        report.attempted += POINTS;
        report.failed += regen
            .reports
            .iter()
            .map(|r| (r.failed.len() + r.timed_out.len() + r.skipped.len()) as u64)
            .sum::<u64>();
        let wall: f64 = regen.per_fig.iter().map(|(p, a)| p + a).sum();
        regens.push(wall);
        fig_ms.extend(regen.per_fig.iter().map(|(p, a)| 1e3 * (p + a)));
        if regens.len() == 1 {
            report.notes.extend(oracle(figs, &cache, rng)?);
        }
        // Another regeneration only if it is expected to end in time.
        if t0.elapsed().as_secs_f64() + wall > args.seconds {
            break;
        }
    }
    let fig_sorted = sorted(&fig_ms);
    let regen_total: f64 = regens.iter().sum();
    report.metric("setup_s", median(&setups), "s");
    report.metric("regen_s", median(&regens), "s");
    report.metric("query_p50_ms", quantile(&fig_sorted, 0.5), "ms");
    report.metric("query_p90_ms", quantile(&fig_sorted, 0.9), "ms");
    report.metric("queries_per_s", fig_ms.len() as f64 / regen_total, "1/s");
    let ok = (report.attempted - report.failed) as f64 / report.attempted as f64;
    report.metric("ok_ratio", ok, "ratio");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.samples = vec![
        ("setup_s".into(), setups),
        ("regen_s".into(), regens),
        ("query_ms (one figure)".into(), fig_ms),
    ];
    report.notes.push(format!(
        "cold-figs: {} regeneration(s) of {} figures, {POINTS} simulations each, {threads} sweep \
         threads; rendered text == {GOLDEN}",
        report.samples[1].1.len(),
        figs.len()
    ));
    Ok(report)
}

/// The figure series' (variant, box edge) pairs, as `figure234_sized`
/// plots them.
fn series_points(spec: &MachineSpec) -> Vec<(Variant, i32)> {
    let (_, best) = best_variant_fig234(spec);
    vec![
        (Variant::baseline(), 16),
        (Variant::shift_fuse(), 16),
        (Variant::baseline(), BIG_N),
        (best, BIG_N),
    ]
}

fn traced(figs: &[Fig], golden: &str, rng: &mut Rng, dir: &Path) -> Result<Report, String> {
    let mut layers = Layers::default();
    let mut report = Report { sweep_threads: 1, client_threads: 1, ..Report::default() };

    // Real path, serial: one sweep thread, so each point's layers can be
    // attributed without overlap.
    let t_real = Instant::now();
    let (cache, engine, t_setup) = setup(&dir.join("traced"), 1)?;
    layers.add("store.load_s", t_setup);
    let regen = regenerate(figs, &cache, &engine)?;
    let real_wall = t_real.elapsed().as_secs_f64();
    check_regen(&regen, &cache, golden)?;
    report.attempted = POINTS;
    let mut measured = 0usize;
    let mut measure_s = 0.0;
    for (r, (t_prewarm, t_assemble)) in regen.reports.iter().zip(&regen.per_fig) {
        layers.add("sweep.prewarm_s", *t_prewarm);
        layers.add("figures.assemble_s", *t_assemble);
        measured += r.measured;
        measure_s += r.measure_seconds;
        layers.set(
            "sweep.engine_threads",
            layers.get("sweep.engine_threads").max(r.engine_threads as f64),
        );
    }
    layers.set("sweep.points_per_s", measured as f64 / measure_s);

    // Replay, serial: every measured point through each layer, then
    // every series lookup and prediction the figure generators made.
    let t_replay = Instant::now();
    let mut seen_points = HashSet::new();
    let mut seen_shapes = HashSet::new();
    let empty = Pipeline::empty();
    for f in figs {
        for p in &f.points {
            if !seen_points.insert(store_key(p.variant, p.n, &p.configs)) {
                continue;
            }
            let first = seen_shapes.insert((p.variant, p.n));
            let t = replay_point(&mut layers, p.variant, p.n, &p.configs, &empty, first)?;
            let stored = cache.get(p.variant, p.n, &p.configs);
            ensure(same_traffic(&t, &stored), || {
                format!("replayed {} n={} = {t:?}, stored {stored:?}", p.variant, p.n)
            })?;
        }
    }
    let mut lookup_predict = 0.0;
    for f in figs {
        for (variant, n) in series_points(&f.spec) {
            let wl = Workload::paper(n);
            for t in thread_counts(&f.spec) {
                let h = prediction_hierarchy(&f.spec, t);
                let (traffic, t_lookup) = timed(|| cache.get(variant, n, &h));
                let (_, t_predict) = timed(|| {
                    std::hint::black_box(predict_time_with_traffic(
                        &f.spec,
                        variant,
                        wl,
                        t,
                        traffic.dram_bytes,
                    ))
                });
                layers.add("store.lookup_s", t_lookup);
                layers.add("model.predict_s", t_predict);
                layers.add("model.predict_calls", 1.0);
                lookup_predict += t_lookup + t_predict;
            }
        }
    }
    report.notes.extend(oracle(figs, &cache, rng)?);
    let replay_wall = t_replay.elapsed().as_secs_f64();

    let point_work =
        layers.get("plan.lower_s") + layers.get("interp.exec_s") + layers.get("cachesim.sim_s");
    layers.set("sweep.self_s", layers.get("sweep.prewarm_s") - point_work);
    layers.set("sweep.busy_ratio", point_work / layers.get("sweep.prewarm_s"));
    layers.set("figures.assemble_s", layers.get("figures.assemble_s") - lookup_predict);
    let stats = cache.stats();
    layers.set("store.entries", cache.len() as f64);
    layers.set("store.misses", stats.misses as f64);
    layers.set("store.retried_appends", stats.retried_appends as f64);
    layers.set("store.errors", (stats.store_errors + stats.corrupt_lines) as f64);
    layers.finish_cachesim();

    let (table, accounted) = layers.self_time_table(real_wall);
    let ratio = accounted / real_wall;
    layers.set("trace.wall_s", real_wall + replay_wall);
    layers.set("trace.accounted_ratio", ratio);
    layers.set("trace.overhead_s", replay_wall);
    report.notes.extend(table);
    report.notes.push(format!(
        "trace: real path {real_wall:.3} s (serial), replay {replay_wall:.3} s = tracing overhead; \
         traced wall {:.3} s",
        real_wall + replay_wall
    ));
    ensure(ratio >= 0.95, || {
        format!("accounted self time is {:.1}% of wall, below 95%", 100.0 * ratio)
    })?;
    report.metrics = layers.metrics();
    Ok(report)
}
