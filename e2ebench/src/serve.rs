//! `serve-warm` and `serve-mixed`: an in-process `serve::Server` on a
//! pre-populated store, driven by a closed loop of `CLIENTS`
//! connections, each sending its own seeded query stream and waiting
//! for every answer before sending the next query.
//!
//! The base store (every point the warm queries read) is measured once
//! per checkout into `e2ebench/.state/serve-base.txt` by
//! `SweepEngine::prewarm`; each set-up copies it and starts a server on
//! the copy, so appends of one run never reach the next.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pdesched_core::Pipeline;
use pdesched_machine::model::{
    predict_time_analytic, predict_time_with_traffic, prediction_hierarchy, Workload,
};
use pdesched_machine::sweep::rank_all_at;
use pdesched_machine::{
    store_key_with_passes, MachineSpec, PrewarmReport, ServeConfig, Server, SimPoint, StoreReader,
    SweepEngine, TrafficCache,
};

use crate::layers::{replay_point, Layers, Report};
use crate::util::{ensure, median, nproc, peak_rss_mb, quantile, sorted, timed, Rng, RunDir};
use crate::Args;

/// Client connections of the closed loop (at most `nproc` on the
/// reference host, which has 2 cores).
const CLIENTS: usize = 2;
/// Set-ups timed per run (the last one serves the loop).
const SETUP_REPS: usize = 31;
/// Passes over the answer table per run (`regen_s` is their median).
const TABLE_PASSES: usize = 3;
/// Box edges the warm queries ask about.
const WARM_NS: [i32; 4] = [16, 32, 64, 128];
/// Pass specs a cold query draws from: each applies to every variant
/// (order-preserving passes, and cross-box fusion of the serial
/// measurement plan), so no query fails by construction.
const PASS_SPECS: [&str; 12] = [
    "elide-barriers",
    "fuse-phases",
    "elide-barriers,fuse-phases",
    "cross-box-fuse:4",
    "cross-box-fuse:8",
    "cross-box-fuse:16",
    "elide-barriers,cross-box-fuse:4",
    "elide-barriers,cross-box-fuse:8",
    "elide-barriers,cross-box-fuse:16",
    "elide-barriers,fuse-phases,cross-box-fuse:4",
    "elide-barriers,fuse-phases,cross-box-fuse:8",
    "elide-barriers,fuse-phases,cross-box-fuse:16",
];
/// Blocks of queries generated per client; about ten times what one
/// run sends on the reference host.
const BLOCKS: usize = 100;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Warm,
    Mixed,
}

/// One generated query.
struct Query {
    machine: usize,
    n: i32,
    threads: usize,
    top: usize,
    passes: String,
    /// Cold class: its store keys are in no base store, so the first
    /// query to ask for one has it simulated.
    cold: bool,
    line: String,
}

impl Query {
    fn new(
        machines: &[MachineSpec],
        machine: usize,
        n: i32,
        threads: usize,
        passes: &str,
        cold: bool,
    ) -> Query {
        let top = if n == 128 { 1 } else { 2 };
        let line = format!(
            "{{\"machine\":\"{}\",\"n\":{n},\"threads\":{threads},\"top\":{top},\"passes\":\"{passes}\"}}",
            machines[machine].name
        );
        Query { machine, n, threads, top, passes: passes.to_string(), cold, line }
    }
}

/// The machines the server knows, in its own order.
fn machines() -> Vec<MachineSpec> {
    let mut m = vec![MachineSpec::i5_desktop()];
    m.extend(MachineSpec::evaluation_nodes());
    m
}

/// Query classes of one block, as (box edge, cold). serve-warm weighs
/// n = 16, 32, 64, 128 as 2/2/4/2, so the median falls inside the n=64
/// class and p90 inside the n=128 class. serve-mixed has 12 warm
/// queries at n <= 64 (2/4/6) and 4 cold ones (1 at n=16, 3 at n=32):
/// sorted by latency the classes stack up as warm (75%), cold n=16
/// (81%), cold n=32 (100%), so the median sits inside the warm n=64
/// class and p90 near the middle of the cold n=32 class.
fn block_classes(mix: Mix) -> Vec<(i32, bool)> {
    match mix {
        Mix::Warm => [16, 16, 32, 32, 64, 64, 64, 64, 128, 128].map(|n| (n, false)).to_vec(),
        Mix::Mixed => {
            let warm = [16, 16, 32, 32, 32, 32, 64, 64, 64, 64, 64, 64].map(|n| (n, false));
            let cold = [16, 32, 32, 32].map(|n| (n, true));
            warm.into_iter().chain(cold).collect()
        }
    }
}

/// A cold query's key: (machine index, threads, pass spec).
type ColdKey = (usize, usize, &'static str);

/// Cold keys of one box edge: (machine, threads, pass spec), each
/// simulating store keys no other key of the run reaches. Thread counts
/// that share a cache hierarchy share store keys, so each machine
/// offers one thread count per distinct `prediction_hierarchy`.
/// Machines take turns in a seeded order and each machine cycles
/// through every pass spec, so every run sees the same mix of
/// simulation costs. Past the end of the space the sequence wraps
/// around, so a much faster server sees repeats (answered warm).
fn cold_sequence(machines: &[MachineSpec], rng: &mut Rng) -> Vec<ColdKey> {
    let mut per_machine: Vec<Vec<ColdKey>> = machines
        .iter()
        .enumerate()
        .map(|(m, spec)| {
            let mut groups: Vec<(Vec<pdesched_cachesim::CacheConfig>, Vec<usize>)> = Vec::new();
            for t in 1..=spec.hw_threads() {
                let h = prediction_hierarchy(spec, t);
                match groups.iter_mut().find(|(g, _)| *g == h) {
                    Some((_, ts)) => ts.push(t),
                    None => groups.push((h, vec![t])),
                }
            }
            // Round r offers every spec once (in a seeded order), each
            // with a seeded hierarchy not yet used with that spec.
            let mut specs = PASS_SPECS;
            rng.shuffle(&mut specs);
            let mut hs: Vec<Vec<usize>> = specs
                .iter()
                .map(|_| {
                    let mut h: Vec<usize> = (0..groups.len()).collect();
                    rng.shuffle(&mut h);
                    h
                })
                .collect();
            let mut keys = Vec::new();
            for _ in 0..groups.len() {
                for (spec, h) in specs.iter().zip(&mut hs) {
                    let ts = &groups[h.pop().expect("one per round")].1;
                    keys.push((m, ts[rng.below(ts.len())], *spec));
                }
            }
            keys.reverse();
            keys
        })
        .collect();
    let mut order: Vec<usize> = (0..machines.len()).collect();
    rng.shuffle(&mut order);
    let mut out = Vec::new();
    while per_machine.iter().any(|k| !k.is_empty()) {
        for &m in &order {
            if let Some(k) = per_machine[m].pop() {
                out.push(k);
            }
        }
    }
    out
}

/// The j-th cold query of box edge `n` for `client`: the clients take
/// alternate keys of the sequence, except that one j in four (seeded)
/// is shared, so the two sometimes ask for one key at once.
fn cold_key(seq: &[ColdKey], shared: &[bool], client: usize, j: usize) -> ColdKey {
    let i = if shared[j % shared.len()] { 2 * j } else { 2 * j + client };
    seq[i % seq.len()]
}

/// Every client's query stream for this seed.
fn streams(mix: Mix, machines: &[MachineSpec], seed: u64) -> Vec<Vec<Query>> {
    let mut rng = Rng::new(seed);
    let cold: HashMap<i32, (Vec<ColdKey>, Vec<bool>)> = match mix {
        Mix::Warm => HashMap::new(),
        Mix::Mixed => [16, 32]
            .into_iter()
            .map(|n| {
                let seq = cold_sequence(machines, &mut rng);
                let shared = (0..seq.len()).map(|_| rng.below(4) == 0).collect();
                (n, (seq, shared))
            })
            .collect(),
    };
    (0..CLIENTS)
        .map(|c| {
            // Per warm class, machines cycle in a seeded order, so every
            // run asks each (machine, n) pair equally often.
            let mut cycle: HashMap<i32, (Vec<usize>, usize)> = HashMap::new();
            for n in WARM_NS {
                let mut order: Vec<usize> = (0..machines.len()).collect();
                rng.shuffle(&mut order);
                cycle.insert(n, (order, 0));
            }
            let mut cold_index: HashMap<i32, usize> = HashMap::new();
            let mut out = Vec::new();
            for _ in 0..BLOCKS {
                let mut block = block_classes(mix);
                rng.shuffle(&mut block);
                for (n, is_cold) in block {
                    if is_cold {
                        let (seq, shared) = &cold[&n];
                        let j = cold_index.entry(n).or_insert(0);
                        let (m, t, p) = cold_key(seq, shared, c, *j);
                        *j += 1;
                        out.push(Query::new(machines, m, n, t, p, true));
                    } else {
                        let (order, i) = cycle.get_mut(&n).expect("warm class");
                        let m = order[*i % order.len()];
                        *i += 1;
                        out.push(Query::new(machines, m, n, machines[m].cores(), "", false));
                    }
                }
            }
            out
        })
        .collect()
}

/// The points the warm queries read: the top-ranked variants of every
/// (machine, n) at the machine's core count.
fn base_points(machines: &[MachineSpec]) -> Vec<SimPoint> {
    let mut pts = Vec::new();
    for spec in machines {
        for n in WARM_NS {
            let threads = spec.cores();
            let top = if n == 128 { 1 } else { 2 };
            for r in rank_all_at(spec, n, threads).into_iter().take(top) {
                pts.push(SimPoint::for_prediction(spec, r.variant, n, threads));
            }
        }
    }
    pts
}

/// Make sure the checkout's base store holds every warm point
/// (measuring the missing ones, which only the first run does).
fn prepare_base(machines: &[MachineSpec]) -> Result<(PathBuf, PrewarmReport), String> {
    let path = crate::state_dir().join("serve-base.txt");
    let points = base_points(machines);
    let cache = TrafficCache::with_store(&path);
    ensure(!cache.store_read_only(), || format!("{} is locked by another writer", path.display()))?;
    let engine = SweepEngine::new(nproc()).with_heartbeat(None);
    let report = engine.prewarm(&cache, &points);
    ensure(
        report.failed.is_empty() && report.timed_out.is_empty() && report.cancelled.is_none(),
        || format!("base store prewarm failed: {:?} {:?}", report.failed, report.timed_out),
    )?;
    cache.flush_store();
    Ok((path, report))
}

/// One set-up: a fresh copy of the base store, a server on it, and the
/// clients' connections.
fn setup(base: &Path, store: &Path) -> Result<(Server, Vec<TcpStream>, f64), String> {
    let (started, secs) = timed(|| -> Result<_, String> {
        std::fs::copy(base, store).map_err(|e| format!("copy base store: {e}"))?;
        let cfg = ServeConfig { store: Some(store.to_path_buf()), ..ServeConfig::default() };
        let server = Server::start(cfg).map_err(|e| format!("server start: {e}"))?;
        let conns = (0..CLIENTS)
            .map(|_| {
                let s =
                    TcpStream::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
                s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
                Ok(s)
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok((server, conns))
    });
    let (server, conns) = started?;
    Ok((server, conns, secs))
}

/// One answered query.
struct Done {
    query: usize,
    latency: f64,
    /// Seconds from the loop's start to the full response line.
    finished: f64,
    response: String,
}

/// Send `line` and wait for the full response line.
fn ask(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &str,
) -> Result<(String, f64), String> {
    let t0 = Instant::now();
    writer.write_all(format!("{line}\n").as_bytes()).map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    reader.read_line(&mut response).map_err(|e| format!("receive: {e}"))?;
    let latency = t0.elapsed().as_secs_f64();
    ensure(response.ends_with('\n'), || format!("connection closed answering {line}"))?;
    response.pop();
    Ok((response, latency))
}

/// One client's closed loop: the next query goes out only after the
/// previous answer arrived; no query is sent after `deadline`, except
/// that the first `min_queries` always go out.
fn client_loop(
    conn: &TcpStream,
    queries: &[Query],
    min_queries: usize,
    start: Instant,
    deadline: Instant,
) -> Result<Vec<Done>, String> {
    let mut writer = conn.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut reader = BufReader::new(conn.try_clone().map_err(|e| format!("clone: {e}"))?);
    let mut done = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        if i >= min_queries && Instant::now() >= deadline {
            return Ok(done);
        }
        let (response, latency) = ask(&mut writer, &mut reader, &q.line)?;
        let finished = start.elapsed().as_secs_f64();
        done.push(Done { query: i, latency, finished, response });
    }
    Err("query stream exhausted before the deadline; raise BLOCKS".into())
}

/// The closed loop: every client on its own thread until `seconds`
/// have passed. Returns each client's answers and the loop's wall time.
fn closed_loop(
    mix: Mix,
    conns: &[TcpStream],
    streams: &[Vec<Query>],
    seconds: f64,
) -> Result<(Vec<Vec<Done>>, f64), String> {
    let block = block_classes(mix).len();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let results: Vec<Result<Vec<Done>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter()
            .zip(streams)
            .map(|(conn, qs)| s.spawn(move || client_loop(conn, qs, block, t0, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    Ok((results.into_iter().collect::<Result<Vec<_>, String>>()?, wall))
}

/// The `source` of every row of a response.
fn sources(response: &str) -> Vec<&str> {
    response
        .split("\"source\":\"")
        .skip(1)
        .map(|rest| rest.split('"').next().unwrap_or(""))
        .collect()
}

/// A response with its sources blanked: what must repeat byte for byte
/// whether a key was measured by this request or an earlier one.
fn without_sources(response: &str) -> String {
    let mut out = String::new();
    for (i, part) in response.split("\"source\":\"").enumerate() {
        if i == 0 {
            out.push_str(part);
        } else {
            out.push_str("\"source\":\"");
            out.push_str(part.split_once('"').map_or("", |(_, rest)| rest));
        }
    }
    out
}

/// Correctness gate over every answer of the loop: each is `ok:true`,
/// warm queries are answered from the store, cold ones from the store
/// or a simulation, and repeats of one query are byte-identical.
fn check_answers(
    streams: &[Vec<Query>],
    done: &[Vec<Done>],
) -> Result<HashMap<String, String>, String> {
    let mut seen: HashMap<String, String> = HashMap::new();
    for (qs, answers) in streams.iter().zip(done) {
        for d in answers {
            let q = &qs[d.query];
            ensure(d.response.starts_with("{\"ok\":true,"), || {
                format!("query {} answered {}", q.line, d.response)
            })?;
            let src = sources(&d.response);
            ensure(src.len() == q.top, || format!("query {} got {} rows", q.line, src.len()))?;
            if q.cold {
                ensure(src.iter().all(|s| *s == "sim" || *s == "warm"), || {
                    format!("cold query {} answered from {src:?}", q.line)
                })?;
            } else {
                ensure(src.iter().all(|s| *s == "warm"), || {
                    format!("warm query {} answered from {src:?}", q.line)
                })?;
            }
            let canonical = without_sources(&d.response);
            match seen.get(&q.line) {
                Some(prev) => ensure(*prev == canonical, || {
                    format!("repeats of {} differ:\n{prev}\n{canonical}", q.line)
                })?,
                None => {
                    seen.insert(q.line.clone(), canonical);
                }
            }
        }
    }
    Ok(seen)
}

/// The store keys a set of cold queries must have simulated: the
/// pass-keyed keys of each query's ranked top-k.
fn expected_cold_keys(
    machines: &[MachineSpec],
    queries: &[&Query],
) -> Result<HashSet<String>, String> {
    let mut keys = HashSet::new();
    for q in queries {
        let spec = &machines[q.machine];
        let pipeline = Pipeline::parse(&q.passes)?;
        let h = prediction_hierarchy(spec, q.threads);
        for r in rank_all_at(spec, q.n, q.threads).into_iter().take(q.top) {
            keys.insert(store_key_with_passes(r.variant, q.n, &h, &pipeline));
        }
    }
    Ok(keys)
}

/// Workload guard: serve-warm simulates nothing; serve-mixed simulates
/// exactly the distinct keys its issued cold queries imply.
fn check_simulations(
    mix: Mix,
    machines: &[MachineSpec],
    streams: &[Vec<Query>],
    done: &[Vec<Done>],
    server: &Server,
) -> Result<String, String> {
    let misses = server.cache().stats().misses;
    let cold: Vec<&Query> = streams
        .iter()
        .zip(done)
        .flat_map(|(qs, answers)| answers.iter().map(move |d| &qs[d.query]))
        .filter(|q| q.cold)
        .collect();
    let expected = match mix {
        Mix::Warm => 0,
        Mix::Mixed => expected_cold_keys(machines, &cold)?.len() as u64,
    };
    ensure(misses == expected, || {
        format!("server ran {misses} simulations; the issued queries imply {expected}")
    })?;
    let distinct: HashSet<&str> = cold.iter().map(|q| q.line.as_str()).collect();
    Ok(format!(
        "guard: {} cold queries ({} distinct) -> {misses} simulations, as implied by the seed",
        cold.len(),
        distinct.len()
    ))
}

/// The answer table: every distinct warm query once, serially, on a
/// fresh connection, `TABLE_PASSES` times. The median pass wall time is
/// the workload's `regen_s`; each answer must equal the loop's answer
/// to the same query.
fn answer_table(
    server: &Server,
    streams: &[Vec<Query>],
    seen: &HashMap<String, String>,
) -> Result<(Vec<f64>, u64), String> {
    let mut lines: Vec<&str> =
        streams.iter().flatten().filter(|q| !q.cold).map(|q| q.line.as_str()).collect();
    lines.sort_unstable();
    lines.dedup();
    let conn = TcpStream::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    conn.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    let mut writer = conn.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut reader = BufReader::new(conn);
    let mut walls = Vec::new();
    for _ in 0..TABLE_PASSES {
        let t0 = Instant::now();
        let mut answers = Vec::new();
        for line in &lines {
            answers.push(ask(&mut writer, &mut reader, line)?.0);
        }
        walls.push(t0.elapsed().as_secs_f64());
        for (line, a) in lines.iter().zip(&answers) {
            let warm = sources(a).iter().all(|s| *s == "warm");
            ensure(a.starts_with("{\"ok\":true,") && warm, || {
                format!("table query {line} answered {a}")
            })?;
            if let Some(prev) = seen.get(*line) {
                ensure(*prev == without_sources(a), || {
                    format!("table answer to {line} differs from the loop's")
                })?;
            }
        }
    }
    Ok((walls, (TABLE_PASSES * lines.len()) as u64))
}

pub fn run(args: &Args, mix: Mix) -> Result<Report, String> {
    let machines = machines();
    let streams = streams(mix, &machines, args.seed);
    std::fs::create_dir_all(crate::state_dir()).map_err(|e| format!("state dir: {e}"))?;
    let (base, base_report) = prepare_base(&machines)?;
    let tag = if mix == Mix::Warm { "serve-warm" } else { "serve-mixed" };
    let dir = RunDir::new(tag).map_err(|e| format!("scratch dir: {e}"))?;

    let mut setups = Vec::new();
    let mut kept: Option<(Server, Vec<TcpStream>)> = None;
    for i in 0..SETUP_REPS {
        // The previous server drains before the next one starts.
        drop(kept.take());
        let (server, conns, secs) = setup(&base, &dir.path().join(format!("store{i}.txt")))?;
        setups.push(secs);
        kept = Some((server, conns));
    }
    let (server, conns) = kept.expect("SETUP_REPS > 0");

    let (done, loop_wall) = closed_loop(mix, &conns, &streams, args.seconds)?;
    drop(conns);
    let seen = check_answers(&streams, &done)?;
    let guard = check_simulations(mix, &machines, &streams, &done, &server)?;
    let mut report = Report { sweep_threads: 1, client_threads: CLIENTS, ..Report::default() };
    report.notes.push(format!(
        "base store: {} ({} point(s) measured now, prewarm {:.3} s)",
        base.display(),
        base_report.measured,
        base_report.seconds
    ));
    report.notes.push(guard);
    let latencies: Vec<f64> = whole_blocks(mix, &done).flatten().map(|d| 1e3 * d.latency).collect();
    report.notes.extend(class_table(&streams, &done));
    let stats = server.stats();
    report.notes.push(format!(
        "serve: {} requests, {} coalesced, {} rejected over {loop_wall:.3} s with {CLIENTS} clients",
        stats.requests, stats.coalesced, stats.rejected
    ));
    ensure(stats.rejected == 0, || format!("{} requests rejected", stats.rejected))?;

    if args.trace {
        let mut layers = Layers::default();
        layers.set("sweep.prewarm_s", base_report.seconds);
        layers.set("sweep.points_per_s", base_report.points_per_sec);
        layers.set("sweep.engine_threads", base_report.engine_threads as f64);
        let real = RealPath { setup: setups[SETUP_REPS - 1], loop_wall };
        return traced(report, layers, &machines, &streams, &done, real, server, &base, dir.path());
    }
    let (table_walls, table_queries) = answer_table(&server, &streams, &seen)?;
    let table_wall = median(&table_walls);
    drop(server);

    report.attempted = done.iter().map(Vec::len).sum::<usize>() as u64 + table_queries;
    let lat_sorted = sorted(&latencies);
    report.metric("setup_s", median(&setups), "s");
    report.metric("regen_s", table_wall, "s");
    report.metric("query_p50_ms", quantile(&lat_sorted, 0.5), "ms");
    report.metric("query_p90_ms", quantile(&lat_sorted, 0.9), "ms");
    report.metric("queries_per_s", block_rate(mix, &done), "1/s");
    report.metric(
        "ok_ratio",
        (report.attempted - report.failed) as f64 / report.attempted as f64,
        "ratio",
    );
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.notes.push(format!(
        "answer table: {table_queries} answers in {TABLE_PASSES} passes, median pass {table_wall:.4} s (regen_s)"
    ));
    report.samples = vec![
        ("setup_s".into(), setups),
        ("regen_s (answer table)".into(), table_walls),
        ("query_ms".into(), latencies),
    ];
    Ok(report)
}

/// Wall times of a traced run's real path.
struct RealPath {
    /// The set-up that started the loop's server.
    setup: f64,
    loop_wall: f64,
}

/// Traced run: the loop above was the real path; now replay every
/// answered query by calling the layers directly, serially.
#[allow(clippy::too_many_arguments)]
fn traced(
    mut report: Report,
    mut layers: Layers,
    machines: &[MachineSpec],
    streams: &[Vec<Query>],
    done: &[Vec<Done>],
    real: RealPath,
    server: Server,
    base: &Path,
    dir: &Path,
) -> Result<Report, String> {
    let RealPath { setup: t_setup, loop_wall } = real;
    let stats = server.stats();
    let cache_stats = server.cache().stats();
    layers.set("serve.requests", stats.requests as f64);
    layers.set("serve.coalesced", stats.coalesced as f64);
    layers.set("serve.rejected", stats.rejected as f64);
    layers.set("store.entries", server.cache().len() as f64);
    layers.set("store.misses", cache_stats.misses as f64);
    layers.set("store.retried_appends", cache_stats.retried_appends as f64);
    layers.set("store.errors", (cache_stats.store_errors + cache_stats.corrupt_lines) as f64);
    let ((), t_drain) = timed(|| {
        server.drain();
    });
    drop(server);
    layers.set("store.compact_s", t_drain);
    report.attempted = done.iter().map(Vec::len).sum::<usize>() as u64;

    let t_replay = Instant::now();
    let replay_store = dir.join("replay.txt");
    std::fs::copy(base, &replay_store).map_err(|e| format!("copy base store: {e}"))?;
    let (replay_cache, t_load) = timed(|| TrafficCache::with_store(&replay_store));
    drop(replay_cache);
    let (reader, t_snapshot) = timed(|| StoreReader::open(&replay_store));
    layers.set("store.load_s", t_load);
    layers.set("store.snapshot_s", t_snapshot);
    let view = reader.view();

    let mut overlay: HashMap<String, u64> = HashMap::new();
    let mut shapes = HashSet::new();
    let (mut warm_ms, mut sim_ms) = (Vec::new(), Vec::new());
    let mut latency_total = 0.0;
    let mut replay_total = 0.0;
    for (qs, answers) in streams.iter().zip(done) {
        for d in answers {
            let q = &qs[d.query];
            let spec = &machines[q.machine];
            let pipeline = Pipeline::parse(&q.passes)?;
            let wl = Workload::paper(q.n);
            let before: f64 = layer_time(&layers);
            let (ranked, t_rank) = timed(|| rank_all_at(spec, q.n, q.threads));
            layers.add(rank_metric(q.n), t_rank);
            let h = prediction_hierarchy(spec, q.threads);
            let mut rows = Vec::new();
            for r in ranked.iter().take(q.top) {
                let key = store_key_with_passes(r.variant, q.n, &h, &pipeline);
                let (hit, t_lookup) = timed(|| {
                    view.get(&key).map(|(t, _)| t.dram_bytes).or_else(|| overlay.get(&key).copied())
                });
                layers.add("store.lookup_s", t_lookup);
                let dram = match hit {
                    Some(d) => d,
                    None => {
                        let first = shapes.insert((r.variant, q.n, pipeline.key()));
                        let t = replay_point(&mut layers, r.variant, q.n, &h, &pipeline, first)?;
                        overlay.insert(key, t.dram_bytes);
                        t.dram_bytes
                    }
                };
                let (p, t_predict) =
                    timed(|| predict_time_with_traffic(spec, r.variant, wl, q.threads, dram));
                layers.add("model.predict_s", t_predict);
                layers.add("model.predict_calls", 1.0);
                rows.push((p.seconds, r.variant));
            }
            rows.sort_by(|a, b| a.0.total_cmp(&b.0));
            let best = rows[0].1;
            let (_, t_series) = timed(|| {
                for t in 1..=q.threads {
                    std::hint::black_box(predict_time_analytic(spec, best, wl, t));
                }
            });
            layers.add("model.predict_s", t_series);
            layers.add("model.predict_calls", q.threads as f64);
            // The replay must reproduce the server's ranking and times.
            for (seconds, variant) in &rows {
                let row = format!("{{\"name\":\"{}\",\"seconds\":{seconds:e},", variant.name());
                ensure(d.response.contains(&row), || {
                    format!(
                        "replay of {} predicts {row} but the server answered {}",
                        q.line, d.response
                    )
                })?;
            }
            let replayed = layer_time(&layers) - before;
            latency_total += d.latency;
            replay_total += replayed;
            if sources(&d.response).contains(&"sim") {
                sim_ms.push(1e3 * d.latency);
            } else {
                warm_ms.push(1e3 * d.latency);
            }
        }
    }
    let replay_wall = t_replay.elapsed().as_secs_f64();
    layers.set("serve.overhead_s", latency_total - replay_total);
    layers.set("serve.latency_p50_ms.warm", median(&warm_ms));
    layers.set("serve.latency_p50_ms.sim", median(&sim_ms));
    layers.finish_cachesim();

    // Real path: set-up, the clients' busy time, and the drain.
    let real_wall = t_setup + CLIENTS as f64 * loop_wall + t_drain;
    let (table, accounted) = layers.self_time_table(real_wall);
    let ratio = accounted / real_wall;
    layers.set("trace.wall_s", t_setup + loop_wall + t_drain + replay_wall);
    layers.set("trace.accounted_ratio", ratio);
    layers.set("trace.overhead_s", replay_wall);
    report.notes.extend(table);
    report.notes.push(format!(
        "trace: real path = set-up {t_setup:.3} s + {CLIENTS} clients x loop {loop_wall:.3} s + drain \
         {t_drain:.3} s; replay {replay_wall:.3} s = tracing overhead"
    ));
    ensure((ratio - 1.0).abs() <= 0.05, || {
        format!("accounted self time is {:.1}% of the real-path wall, not within 5%", 100.0 * ratio)
    })?;
    report.metrics = layers.metrics();
    Ok(report)
}

fn rank_metric(n: i32) -> &'static str {
    match n {
        16 => "model.rank_s.n16",
        32 => "model.rank_s.n32",
        64 => "model.rank_s.n64",
        _ => "model.rank_s.n128",
    }
}

/// Sum of the replayed layer times so far (for per-query overhead).
fn layer_time(layers: &Layers) -> f64 {
    [
        "model.rank_s.n16",
        "model.rank_s.n32",
        "model.rank_s.n64",
        "model.rank_s.n128",
        "model.predict_s",
        "store.lookup_s",
        "plan.lower_s",
        "passes.apply_s",
        "interp.exec_s",
        "cachesim.sim_s",
    ]
    .iter()
    .map(|k| layers.get(k))
    .sum()
}

/// Each client's answers cut to whole blocks, so every run's statistics
/// see the exact class mix (a closed loop stops mid-block at the
/// deadline; the answers of that last block are still checked).
fn whole_blocks(mix: Mix, done: &[Vec<Done>]) -> impl Iterator<Item = &[Done]> {
    let block = block_classes(mix).len();
    done.iter().map(move |d| &d[..d.len() / block * block])
}

/// Answered queries per second: per client, its whole blocks over the
/// time its last whole block finished, summed over clients.
fn block_rate(mix: Mix, done: &[Vec<Done>]) -> f64 {
    whole_blocks(mix, done)
        .filter_map(|d| d.last().map(|last| d.len() as f64 / last.finished))
        .sum()
}

/// Latency quartiles per query class (box edge, warm/cold, and for
/// cold queries whether any row was simulated by this very request).
fn class_table(streams: &[Vec<Query>], done: &[Vec<Done>]) -> Vec<String> {
    let mut classes: std::collections::BTreeMap<(bool, i32, &str), Vec<f64>> = Default::default();
    for (qs, answers) in streams.iter().zip(done) {
        for d in answers {
            let q = &qs[d.query];
            let kind = match (q.cold, sources(&d.response).contains(&"sim")) {
                (false, _) => "warm",
                (true, true) => "cold/sim",
                (true, false) => "cold/warm",
            };
            classes.entry((q.cold, q.n, kind)).or_default().push(1e3 * d.latency);
        }
    }
    let mut lines = vec![format!(
        "{:<18} {:>6} {:>10} {:>10} {:>10}",
        "class", "count", "q1 ms", "median ms", "q3 ms"
    )];
    for ((_, n, kind), xs) in classes {
        let s = sorted(&xs);
        lines.push(format!(
            "{:<18} {:>6} {:>10.2} {:>10.2} {:>10.2}",
            format!("n={n} {kind}"),
            s.len(),
            quantile(&s, 0.25),
            quantile(&s, 0.5),
            quantile(&s, 0.75)
        ));
    }
    lines
}
