//! DRAM-traffic measurement: run a schedule for real, replay its access
//! stream through the cache simulator, report bytes moved.
//!
//! The persistent measurement store is built for unattended multi-hour
//! sweeps, so it is crash-safe end to end: every entry line carries a
//! checksum (a torn or bit-rotted line is detected, quarantined, and
//! counted — never silently dropped or, worse, served), every whole-file
//! rewrite goes through tmp-file + atomic rename, append failures are
//! counted instead of swallowed (and optionally retried with bounded
//! exponential backoff, see [`TrafficCache::set_append_retry`]), and an
//! `flock(2)`-held pid lock file guarantees a single writer per store so
//! two concurrent `repro` runs cannot interleave appends (the second run
//! degrades to read-only memoization; the kernel releases a crashed
//! writer's lock atomically, so stale-lock takeover cannot double-grant).

use crate::adapter::TraceMem;
use crate::fault::FaultHook;
use pdesched_cachesim::{CacheConfig, Hierarchy};
use pdesched_core::{plan, plan_for_optimized, run_box_traced, Pipeline, PipelineError, Variant};
use pdesched_kernels::{GHOST, NCOMP};
use pdesched_mesh::{FArrayBox, IBox};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// On-disk store schema version. Bump whenever anything that feeds a
/// measurement changes shape — the key format, the traced kernel, the
/// simulator's replacement policy — and every stale store self-discards
/// instead of serving wrong numbers. (v3: per-line checksums; v4:
/// provenance-tagged entries. v3 stores are *migrated*, not discarded:
/// the symbolic pipeline is bit-identical to the simulator, so v3
/// measurements stay valid and are rewritten with a `sim` tag.)
pub const STORE_VERSION: u32 = 4;

/// The v3 header, still accepted on read (see [`STORE_VERSION`]).
const V3_HEADER: &str = "# pdesched-traffic-store v3";

/// How a traffic number is (or was) produced. For the cache this is
/// *provenance*, not a key: the modes agree bit-for-bit (pinned by the
/// cross-validation suite), so an entry measured under one mode is
/// served under the other.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TrafficMode {
    /// Run the schedule for real and replay every element access
    /// through the simulator.
    #[default]
    Simulate,
    /// Plan-level symbolic summarization ([`crate::symbolic`]), falling
    /// back to the simulator when the analysis leaves phases unclaimed.
    Symbolic,
}

impl TrafficMode {
    /// The store tag recorded with entries measured under this mode.
    pub fn tag(self) -> &'static str {
        match self {
            TrafficMode::Simulate => "sim",
            TrafficMode::Symbolic => "sym",
        }
    }

    /// Parse a store tag. `hyb` is the tag of a retired mode that was
    /// `Symbolic` under another name; stores written by older binaries
    /// still carry it.
    pub fn from_tag(tag: &str) -> Option<TrafficMode> {
        match tag {
            "sim" => Some(TrafficMode::Simulate),
            "sym" | "hyb" => Some(TrafficMode::Symbolic),
            _ => None,
        }
    }
}

/// Measured traffic for one exemplar update of one box.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BoxTraffic {
    /// Total DRAM bytes (line fetches + writebacks, including the final
    /// flush of dirty lines).
    pub dram_bytes: u64,
    /// 8-byte loads issued by the schedule.
    pub reads: u64,
    /// 8-byte stores issued by the schedule.
    pub writes: u64,
    /// L1 hit ratio.
    pub l1_hit: f64,
    /// Last-level hit ratio (of the accesses that reached it).
    pub llc_hit: f64,
}

/// Measure the steady-state DRAM traffic of `variant` updating one
/// `n^3` box through the cache hierarchy `configs` (L1 first, LLC last).
///
/// A thread in the real computation streams through many boxes, so the
/// relevant quantity is the *per-box increment* once the caches are in
/// steady state: a warm-up box runs first (heating the temporary buffers,
/// which the allocator reuses at the same addresses), then a second,
/// distinct box pair runs and its incremental traffic is reported. The
/// increment naturally includes the writeback of the previous box's dirty
/// output lines — exactly the steady-state behavior.
pub fn measure_box_traffic(variant: Variant, n: i32, configs: &[CacheConfig]) -> BoxTraffic {
    measure_impl(variant, n, configs, false)
}

/// [`measure_box_traffic`] through the simulator's per-element reference
/// path ([`Hierarchy::reference`]): no run batching, no front-end
/// filters. Slow; exists so the fast path's bit-identity can be checked
/// forever (see `tests/fastpath_equivalence.rs`) and as the baseline the
/// bench harness reports speedup against.
pub fn measure_box_traffic_reference(
    variant: Variant,
    n: i32,
    configs: &[CacheConfig],
) -> BoxTraffic {
    measure_impl(variant, n, configs, true)
}

/// How many boxes one measurement streams through before dividing the
/// counters: amortizes cold-start (first touch of the reusable
/// temporaries) and the final flush. Cheap small boxes get more
/// repetitions; large boxes stream through the caches anyway, so one
/// pass is already steady state. Shared by every engine — the division
/// must match the allocation pattern exactly.
pub(crate) fn box_reps(n: i32) -> usize {
    if n <= 32 {
        4
    } else if n <= 64 {
        2
    } else {
        1
    }
}

fn measure_impl(variant: Variant, n: i32, configs: &[CacheConfig], reference: bool) -> BoxTraffic {
    // Deterministic trace layout: every buffer below (and every
    // temporary inside the runs) gets its virtual address from this
    // thread's allocation order, so the measurement is a pure function
    // of (variant, n, configs) — identical on any thread of any run.
    pdesched_mesh::trace_addr::reset();
    let k = box_reps(n);
    let cells = IBox::cube(n);
    let mut boxes: Vec<(FArrayBox, FArrayBox)> = (0..k)
        .map(|i| {
            let mut phi0 = FArrayBox::new(cells.grown(GHOST), NCOMP);
            phi0.fill_synthetic(97 + i as u64);
            (phi0, FArrayBox::new(cells, NCOMP))
        })
        .collect();
    let sim = if reference { Hierarchy::reference(configs) } else { Hierarchy::new(configs) };
    let trace = TraceMem::new(sim);
    // Rewind the scratch region between boxes: each run's temporaries
    // occupy the same virtual addresses (a real allocator hands the
    // just-freed blocks back), so the warm-up box really does heat them.
    let scratch = pdesched_mesh::trace_addr::mark();
    for pair in &mut boxes {
        let (phi0, phi1) = pair;
        pdesched_mesh::trace_addr::rewind(scratch);
        run_box_traced(variant, phi0, phi1, cells, &trace);
    }
    let sim = trace.finish();
    let s = sim.stats();
    let nlev = s.levels.len();
    BoxTraffic {
        dram_bytes: s.dram_bytes(sim.line()) / k as u64,
        reads: s.reads / k as u64,
        writes: s.writes / k as u64,
        l1_hit: s.levels[0].hit_ratio(),
        llc_hit: s.levels[nlev - 1].hit_ratio(),
    }
}

/// [`measure_box_traffic`], but executing the plan a pass `pipeline`
/// produced instead of the hand lowering. The trace layout, warm-up
/// repetitions, and counter division mirror `measure_impl` exactly, so
/// the empty pipeline is bit-identical to [`measure_box_traffic`].
/// Fails only if the pipeline itself fails (a pass precondition or the
/// plan verifier); nothing is measured in that case.
pub fn measure_optimized_box_traffic(
    variant: Variant,
    n: i32,
    configs: &[CacheConfig],
    pipeline: &Pipeline,
) -> Result<BoxTraffic, PipelineError> {
    let cells = IBox::cube(n);
    // Lower + transform *before* the trace reset: plan verification may
    // draw trace addresses of its own, and the measurement layout must
    // start from a clean slate either way.
    let plan = plan_for_optimized(variant, cells.size(), 1, pipeline)?;
    pdesched_mesh::trace_addr::reset();
    let k = box_reps(n);
    let mut boxes: Vec<(FArrayBox, FArrayBox)> = (0..k)
        .map(|i| {
            let mut phi0 = FArrayBox::new(cells.grown(GHOST), NCOMP);
            phi0.fill_synthetic(97 + i as u64);
            (phi0, FArrayBox::new(cells, NCOMP))
        })
        .collect();
    let trace = TraceMem::new(Hierarchy::new(configs));
    let scratch = pdesched_mesh::trace_addr::mark();
    for (phi0, phi1) in &mut boxes {
        pdesched_mesh::trace_addr::rewind(scratch);
        plan::execute(&plan, phi0, phi1, cells, &trace);
    }
    let sim = trace.finish();
    let s = sim.stats();
    let nlev = s.levels.len();
    Ok(BoxTraffic {
        dram_bytes: s.dram_bytes(sim.line()) / k as u64,
        reads: s.reads / k as u64,
        writes: s.writes / k as u64,
        l1_hit: s.levels[0].hit_ratio(),
        llc_hit: s.levels[nlev - 1].hit_ratio(),
    })
}

/// Per-box steady-state DRAM traffic of the **pair workload**: two
/// adjacent `n^3` boxes sharing a ghost halo in `x`, updated from one
/// `phi0` covering their union. This is the workload where cross-box
/// phase fusion is visible: sequential execution (the default) fetches
/// the shared halo lines once per box, while an interleaved plan
/// (`interleave > 1`, produced by the `cross-box-fuse` pass) revisits
/// them at chunk distance, short enough to still find them in the LLC.
///
/// Counters are divided by `2 · box_reps(n)` so the numbers are
/// per-box, directly comparable to [`measure_box_traffic`].
pub fn measure_pair_traffic(
    variant: Variant,
    n: i32,
    configs: &[CacheConfig],
    pipeline: &Pipeline,
) -> Result<BoxTraffic, PipelineError> {
    let cells_a = IBox::cube(n);
    let cells_b = cells_a.shifted(pdesched_mesh::IntVect::new(n, 0, 0));
    let union = IBox::new(cells_a.lo(), cells_b.hi());
    let plan = plan_for_optimized(variant, cells_a.size(), 1, pipeline)?;
    pdesched_mesh::trace_addr::reset();
    let k = box_reps(n);
    let mut sets: Vec<(FArrayBox, FArrayBox, FArrayBox)> = (0..k)
        .map(|i| {
            let mut phi0 = FArrayBox::new(union.grown(GHOST), NCOMP);
            phi0.fill_synthetic(97 + i as u64);
            (phi0, FArrayBox::new(cells_a, NCOMP), FArrayBox::new(cells_b, NCOMP))
        })
        .collect();
    let trace = TraceMem::new(Hierarchy::new(configs));
    let scratch = pdesched_mesh::trace_addr::mark();
    for (phi0, phi1a, phi1b) in &mut sets {
        pdesched_mesh::trace_addr::rewind(scratch);
        if plan.interleave > 1 {
            plan::execute_pair(&plan, phi0, phi1a, phi1b, cells_a, cells_b, &trace);
        } else {
            plan::execute(&plan, phi0, phi1a, cells_a, &trace);
            plan::execute(&plan, phi0, phi1b, cells_b, &trace);
        }
    }
    let sim = trace.finish();
    let s = sim.stats();
    let nlev = s.levels.len();
    let div = 2 * k as u64;
    Ok(BoxTraffic {
        dram_bytes: s.dram_bytes(sim.line()) / div,
        reads: s.reads / div,
        writes: s.writes / div,
        l1_hit: s.levels[0].hit_ratio(),
        llc_hit: s.levels[nlev - 1].hit_ratio(),
    })
}

/// Hit/miss and store-health counters of a [`TrafficCache`] at one
/// instant.
///
/// `misses` counts actual cache simulations; a warm store therefore
/// proves itself by keeping `misses` at zero across a whole figure run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from memory (including store-loaded entries).
    pub hits: u64,
    /// Lookups that ran the cache simulator.
    pub misses: u64,
    /// Store lines that failed checksum or shape validation on load
    /// (torn appends, bit rot). They are quarantined next to the store,
    /// never silently dropped.
    pub corrupt_lines: u64,
    /// Store appends that failed (I/O error or injected fault) after
    /// exhausting any configured retries. The measurement stays
    /// available in memory; only persistence is lost.
    pub store_errors: u64,
    /// Append retry attempts made under [`TrafficCache::set_append_retry`]
    /// (an append that succeeds on its first try contributes zero).
    pub retried_appends: u64,
    /// Misses measured under a symbolic-capable mode whose plan the
    /// analysis fully claimed (the symbolic producer ran). Zero under
    /// [`TrafficMode::Simulate`].
    pub claimed_points: u64,
    /// Misses measured under a symbolic-capable mode that fell back to
    /// the exact simulator (unclaimed plan — e.g. wavefront or
    /// overlapped-tile variants). `claimed_points + fallback_points ==
    /// misses` under the Symbolic mode.
    pub fallback_points: u64,
}

/// A memoizing cache of per-box traffic measurements: figure generation
/// asks for the same (variant, box size, hierarchy) many times across
/// thread counts and machines because the scaled LLC shares quantize to
/// a few distinct sizes. With a store path, measurements persist across
/// processes (a 128^3 trace costs ~10 s of simulation; the store makes
/// figure regeneration instant after the first run).
///
/// The store is a line-oriented text file with a `v{STORE_VERSION}`
/// header; a version mismatch discards the stale contents rather than
/// serving measurements taken under a different key schema or simulator.
/// See the module docs for the crash-safety guarantees.
#[derive(Default)]
pub struct TrafficCache {
    map: Mutex<StoreMap>,
    /// Measurement mode for misses (provenance-tags new store entries).
    mode: TrafficMode,
    /// Store file; appends only happen when `owns_lock`.
    store: Option<PathBuf>,
    /// Lock file this cache owns.
    owned_lock: Option<PathBuf>,
    /// Open handle holding the exclusive `flock` on `owned_lock`; kept
    /// alive for the cache's lifetime so the kernel releases the lock
    /// exactly when this writer is gone (drop, exit, or crash).
    lock_file: Option<std::fs::File>,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt_lines: AtomicU64,
    store_errors: AtomicU64,
    retried_appends: AtomicU64,
    claimed_points: AtomicU64,
    fallback_points: AtomicU64,
    /// Shard-worker threads each miss may use ([`TrafficCache::set_engine_threads`]);
    /// 1 = the serial engines.
    engine_threads: AtomicU64,
    appends: AtomicU64,
    /// Transient-append retry budget (see `set_append_retry`): max
    /// retries per append, and the initial backoff in microseconds.
    retry_max: AtomicU32,
    retry_backoff_us: AtomicU64,
    /// The store file's [`store_stamp`] as of the last load/reload —
    /// what [`TrafficCache::refresh_if_compacted`] compares against to
    /// notice another process rewriting the store underneath a
    /// long-lived read-only cache.
    loaded_stamp: Mutex<(u64, u64)>,
    /// Bumped once per external reload ([`TrafficCache::store_generation`]).
    store_generation: AtomicU64,
    fault: Option<Arc<dyn FaultHook>>,
}

/// The memoization key. Everything a measurement depends on is spelled
/// out: the full schedule variant, the box size, the ghost radius (a
/// kernel-wide constant today, but part of the measured working set), and
/// each cache level's geometry — which is how the *machine and thread
/// count* enter, via `MachineSpec::hierarchy_for(threads_on_socket)`.
///
/// Public because callers outside the cache (the benchmark, the
/// snapshot-reader tests) look entries up by key.
pub fn store_key(variant: Variant, n: i32, configs: &[CacheConfig]) -> String {
    use std::fmt::Write;
    let mut k = format!(
        "{:?}/{:?}/{:?}/{:?}/{:?}/n{}/g{}",
        variant.category, variant.gran, variant.comp, variant.intra, variant.tile, n, GHOST
    );
    for c in configs {
        let _ = write!(k, "/{}-{}-{}", c.size, c.assoc, c.line);
    }
    k
}

/// [`store_key`] with the pass pipeline's provenance appended. The empty
/// pipeline produces the **byte-identical** plain key: a warm store
/// written before the pass pipeline existed stays valid, and pass-free
/// lookups share entries with [`TrafficCache::get`]. A non-empty
/// pipeline appends `/p[<pass-key>]` — the comma-joined pass names, the
/// same string [`pdesched_core::plan::Plan::pass_key`] stamps on the
/// transformed plan.
pub fn store_key_with_passes(
    variant: Variant,
    n: i32,
    configs: &[CacheConfig],
    pipeline: &Pipeline,
) -> String {
    let mut k = store_key(variant, n, configs);
    if !pipeline.is_empty() {
        use std::fmt::Write;
        let _ = write!(k, "/p[{}]", pipeline.key());
    }
    k
}

/// The key of a pair-workload measurement ([`measure_pair_traffic`]):
/// the single-box key with a `/pair` component, then the pass suffix.
/// Distinct from every single-box key, so pair and single-box numbers
/// can never be served for one another.
pub fn pair_store_key(
    variant: Variant,
    n: i32,
    configs: &[CacheConfig],
    pipeline: &Pipeline,
) -> String {
    let mut k = store_key(variant, n, configs);
    k.push_str("/pair");
    if !pipeline.is_empty() {
        use std::fmt::Write;
        let _ = write!(k, "/p[{}]", pipeline.key());
    }
    k
}

pub(crate) fn store_header() -> String {
    format!("# pdesched-traffic-store v{STORE_VERSION}")
}

/// In-memory image of the store: measurement plus its provenance tag.
pub(crate) type StoreMap = HashMap<String, (BoxTraffic, TrafficMode)>;

/// FNV-1a 64-bit: the store's line checksum (tiny, dependency-free, and
/// plenty to detect torn appends and bit rot — this is integrity against
/// crashes, not an adversary).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serialize one entry as its store line: key, provenance tag, payload
/// fields, then the payload's checksum as the final field.
pub(crate) fn entry_line(key: &str, t: &BoxTraffic, mode: TrafficMode) -> String {
    let payload = format!(
        "{key} {} {} {} {} {} {}",
        mode.tag(),
        t.dram_bytes,
        t.reads,
        t.writes,
        t.l1_hit,
        t.llc_hit
    );
    let sum = fnv1a64(payload.as_bytes());
    format!("{payload} {sum:016x}")
}

/// Parse and verify one store line; `None` means corrupt (torn, edited,
/// or bit-rotted — the checksum covers the exact payload bytes).
pub(crate) fn parse_entry(line: &str) -> Option<(String, BoxTraffic, TrafficMode)> {
    let (payload, sum_hex) = line.rsplit_once(' ')?;
    let sum = u64::from_str_radix(sum_hex, 16).ok()?;
    if sum != fnv1a64(payload.as_bytes()) {
        return None;
    }
    let mut it = payload.split_whitespace();
    let (key, tag, d, r, w, l1, llc) =
        (it.next()?, it.next()?, it.next()?, it.next()?, it.next()?, it.next()?, it.next()?);
    if it.next().is_some() {
        return None;
    }
    Some((
        key.to_string(),
        BoxTraffic {
            dram_bytes: d.parse().ok()?,
            reads: r.parse().ok()?,
            writes: w.parse().ok()?,
            l1_hit: l1.parse().ok()?,
            llc_hit: llc.parse().ok()?,
        },
        TrafficMode::from_tag(tag)?,
    ))
}

/// Parse one v3 entry line (no provenance tag). v3 measurements were all
/// simulated, so migrated entries carry the `sim` tag.
pub(crate) fn parse_entry_v3(line: &str) -> Option<(String, BoxTraffic, TrafficMode)> {
    let (payload, sum_hex) = line.rsplit_once(' ')?;
    let sum = u64::from_str_radix(sum_hex, 16).ok()?;
    if sum != fnv1a64(payload.as_bytes()) {
        return None;
    }
    let mut it = payload.split_whitespace();
    let (key, d, r, w, l1, llc) =
        (it.next()?, it.next()?, it.next()?, it.next()?, it.next()?, it.next()?);
    if it.next().is_some() {
        return None;
    }
    Some((
        key.to_string(),
        BoxTraffic {
            dram_bytes: d.parse().ok()?,
            reads: r.parse().ok()?,
            writes: w.parse().ok()?,
            l1_hit: l1.parse().ok()?,
            llc_hit: llc.parse().ok()?,
        },
        TrafficMode::Simulate,
    ))
}

/// The single-writer lock file guarding `store`.
fn lock_path_for(store: &Path) -> PathBuf {
    let mut s = store.as_os_str().to_os_string();
    s.push(".lock");
    PathBuf::from(s)
}

/// The quarantine sidecar corrupt lines are preserved in.
fn quarantine_path_for(store: &Path) -> PathBuf {
    let mut s = store.as_os_str().to_os_string();
    s.push(".quarantine");
    PathBuf::from(s)
}

#[cfg(target_os = "linux")]
pub(crate) fn pid_alive(pid: u32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}

#[cfg(not(target_os = "linux"))]
pub(crate) fn pid_alive(_pid: u32) -> bool {
    // No portable liveness probe: assume the holder is alive (the safe
    // direction — we degrade to read-only instead of double-writing).
    true
}

/// Try to become the store's single writer; `Some(file)` holds the lock
/// for as long as it stays open.
///
/// The lock is an exclusive non-blocking `flock(2)` on the pid file.
/// The kernel releases it atomically when the holder's handle closes —
/// clean drop, `process::exit`, or `kill -9` alike — so taking over a
/// crashed writer's lock cannot double-grant: any number of processes
/// may conclude the lock is stale, but only one can win the flock. The
/// recorded pid remains as a content gate for locks written by other
/// protocols: with the flock held, an empty file, our own pid, or a dead
/// pid means the store is free; a live foreign pid or unreadable content
/// is respected (read-only). The file is never unlinked — unlinking
/// would reopen the unlink/flock race where a later writer locks a
/// directory entry that no longer exists.
#[cfg(unix)]
fn try_acquire_lock(lock: &Path) -> Option<std::fs::File> {
    use std::io::{Read, Seek};
    use std::os::unix::io::AsRawFd;
    const LOCK_EX: i32 = 2;
    const LOCK_NB: i32 = 4;
    extern "C" {
        fn flock(fd: i32, operation: i32) -> i32;
    }
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(lock)
        .ok()?;
    if unsafe { flock(f.as_raw_fd(), LOCK_EX | LOCK_NB) } != 0 {
        return None; // a live writer holds the flock
    }
    let mut content = String::new();
    f.read_to_string(&mut content).ok()?;
    let content = content.trim();
    let own = std::process::id();
    let free = content.is_empty()
        || content.parse::<u32>().map(|pid| pid == own || !pid_alive(pid)).unwrap_or(false);
    if !free {
        return None; // live foreign pid or unreadable content: respect it
    }
    f.set_len(0).ok()?;
    f.seek(std::io::SeekFrom::Start(0)).ok()?;
    write!(f, "{own}").ok()?;
    Some(f)
}

/// Fallback single-writer protocol without `flock`: O_EXCL creation of
/// the pid file, dead-holder locks removed and re-raced (the retried
/// `create_new` re-serializes concurrent stealers), lock removed on
/// drop. Compiled on every platform (and public) so the flock-less
/// protocol stays testable from Linux CI even though only non-unix
/// builds route [`TrafficCache`] through it.
///
/// The steal path is where the old protocol raced: two stealers could
/// both observe a dead holder, one `remove_file` + `create_new` pair
/// could delete the *other stealer's* freshly created lock, and both
/// would believe they won. `create_new` alone cannot arbitrate that,
/// because the unlink makes "the file I created" and "the file at the
/// path" different inodes. So after writing our pid we re-read the
/// *path* and keep the lock only if the content is exactly our pid:
/// whoever's create survived at the directory entry wins, every other
/// stealer observes a foreign pid (or an empty not-yet-written file)
/// and concedes. Conceding never removes the file — it is the winner's.
pub fn try_acquire_lock_fallback(lock: &Path) -> Option<std::fs::File> {
    let own = std::process::id();
    for attempt in 0..2 {
        match std::fs::OpenOptions::new().write(true).create_new(true).open(lock) {
            Ok(mut f) => {
                write!(f, "{own}").ok()?;
                f.flush().ok()?;
                // Re-verify through the directory entry, not our fd: if
                // a concurrent stealer unlinked our file and created its
                // own, the path now holds *its* pid and our fd points at
                // an orphaned inode.
                let content = std::fs::read_to_string(lock).ok()?;
                if content.trim().parse::<u32>() == Ok(own) {
                    return Some(f);
                }
                return None;
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists && attempt == 0 => {
                let holder =
                    std::fs::read_to_string(lock).ok().and_then(|s| s.trim().parse::<u32>().ok());
                match holder {
                    Some(pid) if pid == own || !pid_alive(pid) => {
                        let _ = std::fs::remove_file(lock);
                    }
                    _ => return None,
                }
            }
            Err(_) => return None,
        }
    }
    None
}

#[cfg(not(unix))]
fn try_acquire_lock(lock: &Path) -> Option<std::fs::File> {
    try_acquire_lock_fallback(lock)
}

/// Atomically replace `path` with header + `entries` (sorted by key for
/// reproducible bytes): write a tmp file, then rename over the target,
/// so a crash mid-rewrite leaves either the old or the new store —
/// never a half-written one. Because the keys are sorted and the line
/// format is canonical, the bytes are a pure function of the entry set,
/// so a compacted store is byte-stable regardless of append order.
pub(crate) fn write_store_atomic(path: &Path, entries: &StoreMap) -> std::io::Result<()> {
    let mut keys: Vec<&String> = entries.keys().collect();
    keys.sort();
    let mut text = store_header();
    text.push('\n');
    for k in keys {
        let (t, mode) = &entries[k];
        text.push_str(&entry_line(k, t, *mode));
        text.push('\n');
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// The change stamp of a store file: `(mtime nanos, length)`. Two
/// stats returning the same stamp mean the file almost certainly has
/// the same bytes (appends grow the length; compaction rewrites both);
/// a changed stamp is the cue to re-snapshot. A missing file stamps as
/// `(0, 0)`.
pub(crate) fn store_stamp(path: &Path) -> (u64, u64) {
    let Ok(meta) = std::fs::metadata(path) else {
        return (0, 0);
    };
    let mtime = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    (mtime, meta.len())
}

/// Lock-free, read-only snapshot of a store: intact entries plus the
/// count of corrupt lines. Accepts the current and the v3 grammar, never
/// repairs, quarantines, or locks — this is the view of a store that
/// another process may still own (an append can tear mid-line under the
/// reader; the torn tail shows up as one corrupt line and the next
/// snapshot sees it whole). A missing or wrong-version file reads as
/// empty.
pub(crate) fn read_store_snapshot(path: &Path) -> (StoreMap, u64) {
    let mut map = StoreMap::new();
    let mut corrupt = 0u64;
    let Ok(text) = std::fs::read_to_string(path) else {
        return (map, corrupt);
    };
    let mut lines = text.lines();
    let header = lines.next();
    let parse = if header == Some(store_header().as_str()) {
        parse_entry
    } else if header == Some(V3_HEADER) {
        parse_entry_v3
    } else {
        return (map, corrupt);
    };
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        match parse(line) {
            Some((k, t, mode)) => {
                map.insert(k, (t, mode));
            }
            None => corrupt += 1,
        }
    }
    (map, corrupt)
}

/// One immutable, generation-stamped snapshot of a store file, produced
/// by [`StoreReader`]. Holders read it without any lock — file, flock,
/// or mutex — for as long as they keep the `Arc`; a concurrent writer's
/// append or compaction lands in the *next* view, never mutates this
/// one.
#[derive(Debug)]
pub struct StoreView {
    /// Monotonic reload counter: bumped every time the reader observed
    /// a changed store file and re-read it. Two views with the same
    /// generation are the same object; readers comparing generations
    /// can tell "same store state" from "reloaded behind my back".
    pub generation: u64,
    /// The file stamp ([`store_stamp`]) this view was read at.
    stamp: (u64, u64),
    map: StoreMap,
    /// Lines that failed checksum validation in this snapshot — a torn
    /// in-flight append shows up here (and is absent from `map`) until
    /// the next reload sees it whole.
    pub corrupt_lines: u64,
}

impl StoreView {
    /// Look up an entry by its store key.
    pub fn get(&self, key: &str) -> Option<(BoxTraffic, TrafficMode)> {
        self.map.get(key).copied()
    }

    /// Number of intact entries in this snapshot.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the snapshot holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The entries of this snapshot, for callers that need to iterate
    /// (tests comparing whole generations; the serve warm path only
    /// ever calls [`StoreView::get`]).
    pub fn entries(&self) -> impl Iterator<Item = (&str, &(BoxTraffic, TrafficMode))> {
        self.map.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// A lock-free warm-read path over a store file: an immutable in-memory
/// snapshot ([`StoreView`]) behind an `Arc`, atomically swapped for a
/// fresh one when [`StoreReader::refresh`] observes the file's stamp
/// change (another writer appended or compacted). Readers clone the
/// `Arc` and never touch the store's flock — this is how N concurrent
/// servers/readers share one store with exactly one writer.
///
/// Torn reads cannot escape: a snapshot taken mid-append sees the
/// incomplete tail line fail its checksum and drops it (counted in
/// [`StoreView::corrupt_lines`]), and a snapshot racing a compaction
/// sees either the old file or the atomically renamed new one — never a
/// mix. Every view is therefore bit-exact some committed store state.
pub struct StoreReader {
    path: PathBuf,
    state: Mutex<Arc<StoreView>>,
}

impl StoreReader {
    /// Open a reader over `path`, taking the initial snapshot (an
    /// absent or wrong-version file reads as an empty generation-0
    /// view).
    pub fn open(path: impl Into<PathBuf>) -> StoreReader {
        let path = path.into();
        let stamp = store_stamp(&path);
        let (map, corrupt) = read_store_snapshot(&path);
        StoreReader {
            path,
            state: Mutex::new(Arc::new(StoreView {
                generation: 0,
                stamp,
                map,
                corrupt_lines: corrupt,
            })),
        }
    }

    /// The store file this reader snapshots.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The current view (cheap: one mutex-guarded `Arc` clone, no I/O).
    pub fn view(&self) -> Arc<StoreView> {
        Arc::clone(&self.state.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Re-stat the store file and, if its stamp changed since the
    /// current view, read a fresh snapshot and atomically swap it in
    /// (generation + 1). Returns the now-current view either way.
    /// Cheap when nothing changed: one `stat(2)`.
    pub fn refresh(&self) -> Arc<StoreView> {
        let stamp = store_stamp(&self.path);
        {
            let cur = self.state.lock().unwrap_or_else(|e| e.into_inner());
            if cur.stamp == stamp {
                return Arc::clone(&cur);
            }
        }
        // Read outside the lock (snapshots can be slow); last swap wins,
        // which is fine — both candidates are committed states, and the
        // next refresh converges on the newest stamp.
        let (map, corrupt) = read_store_snapshot(&self.path);
        let mut cur = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if cur.stamp != stamp {
            *cur = Arc::new(StoreView {
                generation: cur.generation + 1,
                stamp,
                map,
                corrupt_lines: corrupt,
            });
        }
        Arc::clone(&cur)
    }
}

impl TrafficCache {
    /// Empty in-memory cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache backed by a line-oriented text file; existing entries are
    /// loaded, new measurements appended.
    ///
    /// * A missing, headerless, or wrong-version file is discarded and
    ///   atomically re-initialized with the current [`STORE_VERSION`]
    ///   header. Exception: a v3 store (the pre-provenance format) is
    ///   migrated in place — its entries are loaded, tagged `sim`, and
    ///   the file is rewritten with the v4 header.
    /// * Lines failing their checksum (torn appends from a crash or
    ///   `kill -9`, bit rot) are copied to `<path>.quarantine`, counted
    ///   in [`CacheStats::corrupt_lines`], and the store is compacted to
    ///   the intact entries via tmp-file + rename.
    /// * A `<path>.lock` pid file held under an exclusive `flock(2)`
    ///   makes this cache the store's single writer. If another live
    ///   process holds it, this cache loads the entries but runs
    ///   read-only (no appends, no repair); a dead holder's lock is
    ///   taken over atomically (the kernel releases a crashed writer's
    ///   flock, so two waiting processes can never both steal it).
    pub fn with_store(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let lock = lock_path_for(&path);
        let lock_file = try_acquire_lock(&lock);
        let owns_lock = lock_file.is_some();
        let mut map = StoreMap::new();
        let mut corrupt: Vec<String> = Vec::new();
        let mut valid_header = false;
        let mut migrate = false;
        if let Ok(text) = std::fs::read_to_string(&path) {
            let mut lines = text.lines();
            let header = lines.next();
            valid_header = header == Some(store_header().as_str());
            // v3 is the one accepted legacy version: its measurements
            // are still valid (the simulator is unchanged), only the
            // line format grew a provenance tag. Parse with the v3
            // grammar and rewrite as v4 below.
            let legacy_v3 = !valid_header && header == Some(V3_HEADER);
            if valid_header || legacy_v3 {
                let parse = if legacy_v3 { parse_entry_v3 } else { parse_entry };
                for line in lines {
                    if line.trim().is_empty() {
                        continue;
                    }
                    match parse(line) {
                        Some((k, t, mode)) => {
                            map.insert(k, (t, mode));
                        }
                        None => corrupt.push(line.to_string()),
                    }
                }
                valid_header = true;
                migrate = legacy_v3;
            }
        }
        let mut store_errors = 0;
        if owns_lock {
            if !valid_header {
                if write_store_atomic(&path, &StoreMap::new()).is_err() {
                    store_errors += 1;
                }
            } else if migrate && corrupt.is_empty() {
                if write_store_atomic(&path, &map).is_err() {
                    store_errors += 1;
                }
            } else if !corrupt.is_empty() {
                // Preserve the damaged lines, then compact the store to
                // its intact entries so the next load is clean.
                if let Ok(mut q) = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(quarantine_path_for(&path))
                {
                    for line in &corrupt {
                        let _ = writeln!(q, "{line}");
                    }
                }
                if write_store_atomic(&path, &map).is_err() {
                    store_errors += 1;
                }
            }
        }
        let mut cache = TrafficCache::new();
        cache.map = Mutex::new(map);
        // Stamp *after* any repair/migration rewrite above, so the first
        // refresh_if_compacted() doesn't mistake our own compaction for
        // an external writer's.
        cache.loaded_stamp = Mutex::new(store_stamp(&path));
        cache.store = Some(path);
        cache.owned_lock = owns_lock.then_some(lock);
        cache.lock_file = lock_file;
        cache.corrupt_lines = AtomicU64::new(corrupt.len() as u64);
        cache.store_errors = AtomicU64::new(store_errors);
        cache
    }

    /// Install fault-injection hooks (see [`crate::fault::FaultHook`]).
    pub fn with_fault_hook(mut self, hook: Arc<dyn FaultHook>) -> Self {
        self.fault = Some(hook);
        self
    }

    /// Measure misses under `mode` (default [`TrafficMode::Simulate`]).
    /// Hits are mode-agnostic: all modes produce identical numbers.
    pub fn with_mode(mut self, mode: TrafficMode) -> Self {
        self.mode = mode;
        self
    }

    /// The mode misses are measured under.
    pub fn mode(&self) -> TrafficMode {
        self.mode
    }

    /// Measure misses with up to `threads` shard workers each (default
    /// 1 = the serial engines). All counts produce identical numbers —
    /// the parallel path is bit-identical by construction — so this
    /// only trades point latency for thread occupancy. The sweep
    /// engine raises it when a sweep has fewer ready points than pool
    /// threads ([`crate::SweepEngine::prewarm`]).
    pub fn set_engine_threads(&self, threads: usize) {
        self.engine_threads.store(threads.max(1) as u64, Ordering::Relaxed);
    }

    /// Builder form of [`TrafficCache::set_engine_threads`].
    pub fn with_engine_threads(self, threads: usize) -> Self {
        self.set_engine_threads(threads);
        self
    }

    /// Shard workers each miss may use (1 = serial engines).
    pub fn engine_threads(&self) -> usize {
        (self.engine_threads.load(Ordering::Relaxed).max(1)) as usize
    }

    /// Provenance of a held measurement, if present (`None` = not yet
    /// measured). What the store's tag records: which pipeline produced
    /// the number.
    pub fn provenance(
        &self,
        variant: Variant,
        n: i32,
        configs: &[CacheConfig],
    ) -> Option<TrafficMode> {
        self.map_lock().get(&store_key(variant, n, configs)).map(|(_, m)| *m)
    }

    /// Whether this cache lost the single-writer race for its store: it
    /// serves the loaded entries and memoizes in memory, but appends
    /// nothing.
    pub fn store_read_only(&self) -> bool {
        self.store.is_some() && self.owned_lock.is_none()
    }

    /// Notice an external rewrite of the store: re-stat the file's
    /// mtime/length and, if they changed since this cache last loaded
    /// it, take a fresh lock-free snapshot and swap it in atomically
    /// (in-memory-only measurements this cache made are kept — they are
    /// still valid, just not persisted). Returns `true` iff a reload
    /// happened; each reload bumps [`TrafficCache::store_generation`].
    ///
    /// Only meaningful for a cache that is *not* the store's writer: a
    /// long-lived read-only reader (the second `repro` of a pair, a
    /// degraded server) whose writer compacts underneath it would
    /// otherwise serve its load-time view forever. The writer itself is
    /// the single source of the file's changes, so a writing cache
    /// returns `false` without stat-ing.
    pub fn refresh_if_compacted(&self) -> bool {
        let Some(path) = &self.store else {
            return false;
        };
        if self.owned_lock.is_some() {
            return false;
        }
        let stamp = store_stamp(path);
        {
            let loaded = self.loaded_stamp.lock().unwrap_or_else(|e| e.into_inner());
            if *loaded == stamp {
                return false;
            }
        }
        let (mut fresh, corrupt) = read_store_snapshot(path);
        // Swap under both locks, stamp first: a racing refresh observing
        // the updated stamp must also observe the updated map.
        let mut loaded = self.loaded_stamp.lock().unwrap_or_else(|e| e.into_inner());
        if *loaded == stamp {
            return false; // a racing refresh beat us to this stamp
        }
        *loaded = stamp;
        let mut map = self.map_lock();
        for (k, v) in map.iter() {
            // Keep locally measured entries the external store doesn't
            // have; on conflict the store wins (it is the durable
            // truth, and the numbers are deterministic anyway).
            fresh.entry(k.clone()).or_insert(*v);
        }
        *map = fresh;
        drop(map);
        drop(loaded);
        self.corrupt_lines.fetch_add(corrupt, Ordering::Relaxed);
        self.store_generation.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// How many external reloads [`TrafficCache::refresh_if_compacted`]
    /// has performed (0 = still serving the load-time view).
    pub fn store_generation(&self) -> u64 {
        self.store_generation.load(Ordering::Relaxed)
    }

    /// The backing store path, if any.
    pub fn store_path(&self) -> Option<&Path> {
        self.store.as_deref()
    }

    /// The map lock, surviving poisoning: a panic in some other holder
    /// (e.g. an injected measurement fault caught mid-insert by a test)
    /// must not cascade into every later lookup.
    fn map_lock(&self) -> MutexGuard<'_, StoreMap> {
        self.map.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Measured (or memoized) traffic.
    ///
    /// On a miss this measures under the cache's [`TrafficMode`] (the
    /// modes agree bit-for-bit, so hits are served regardless of the
    /// mode an entry was measured under). A failed store append degrades
    /// to in-memory memoization and bumps [`CacheStats::store_errors`].
    pub fn get(&self, variant: Variant, n: i32, configs: &[CacheConfig]) -> BoxTraffic {
        let key = store_key(variant, n, configs);
        if let Some((t, _)) = self.map_lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return *t;
        }
        let sim_index = self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(hook) = &self.fault {
            hook.before_simulation(sim_index, &key);
        }
        // 0 and 1 both mean the serial engines (the field defaults to 0
        // through `derive(Default)`).
        let threads = self.engine_threads.load(Ordering::Relaxed).max(1) as usize;
        let (t, mode) = match self.mode {
            TrafficMode::Simulate => {
                let t = if threads > 1 {
                    crate::parallel::measure_box_traffic_parallel_sim(variant, n, configs, threads)
                        .0
                } else {
                    measure_box_traffic(variant, n, configs)
                };
                (t, TrafficMode::Simulate)
            }
            // Tag with what actually produced the number: a full
            // fallback is a simulated entry whatever the configured
            // mode.
            TrafficMode::Symbolic => {
                let (t, used_symbolic) = if threads > 1 {
                    let (t, ps) =
                        crate::parallel::measure_box_traffic_parallel(variant, n, configs, threads);
                    (t, ps.used_symbolic)
                } else {
                    crate::symbolic::measure_with_provenance(variant, n, configs)
                };
                if used_symbolic {
                    self.claimed_points.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.fallback_points.fetch_add(1, Ordering::Relaxed);
                }
                (t, if used_symbolic { TrafficMode::Symbolic } else { TrafficMode::Simulate })
            }
        };
        self.record(key, t, mode);
        t
    }

    /// Memoize a fresh measurement and append it to the store (if this
    /// cache owns the writer lock), with the configured retry budget.
    /// Shared by every miss path so the append semantics cannot drift
    /// between the plain, optimized, and pair entry points.
    fn record(&self, key: String, t: BoxTraffic, mode: TrafficMode) {
        self.map_lock().insert(key.clone(), (t, mode));
        if let (Some(path), true) = (&self.store, self.owned_lock.is_some()) {
            let max_retries = self.retry_max.load(Ordering::Relaxed);
            let backoff_us = self.retry_backoff_us.load(Ordering::Relaxed);
            let mut appended = false;
            for attempt in 0..=max_retries {
                if attempt > 0 {
                    self.retried_appends.fetch_add(1, Ordering::Relaxed);
                    // Bounded exponential backoff: backoff · 2^(attempt-1),
                    // with the exponent capped so the sleep can't overflow
                    // into an effectively unbounded stall.
                    let delay = backoff_us.saturating_mul(1u64 << (attempt - 1).min(10));
                    std::thread::sleep(Duration::from_micros(delay));
                }
                let append_index = self.appends.fetch_add(1, Ordering::Relaxed);
                let injected = self.fault.as_ref().is_some_and(|h| h.fail_append(append_index));
                appended = !injected
                    && std::fs::OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(path)
                        .and_then(|mut f| writeln!(f, "{}", entry_line(&key, &t, mode)))
                        .is_ok();
                if appended {
                    break;
                }
            }
            if !appended {
                self.store_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Measured (or memoized) traffic of `variant` transformed by a pass
    /// `pipeline`.
    ///
    /// The empty pipeline delegates to [`TrafficCache::get`] — same key,
    /// same entry, same counters — so pass-free callers share the warm
    /// store. Non-empty pipelines key under
    /// [`store_key_with_passes`]'s `/p[...]`-suffixed key.
    ///
    /// Under a symbolic-capable mode, an **order-preserving** pipeline
    /// (barrier/phase restructuring only — the verifier proves the
    /// serial step stream unchanged) on a fully claimed plan is served
    /// by the symbolic engine: the transformed plan's one-thread trace
    /// is identical to the hand lowering's, so the claim stays sound.
    /// Everything else (rechunk, cross-box fusion) executes the
    /// transformed plan through the exact simulator and counts as a
    /// fallback point. Errors (a pass precondition or verifier
    /// rejection) are returned, never cached.
    pub fn get_optimized(
        &self,
        variant: Variant,
        n: i32,
        configs: &[CacheConfig],
        pipeline: &Pipeline,
    ) -> Result<BoxTraffic, PipelineError> {
        if pipeline.is_empty() {
            return Ok(self.get(variant, n, configs));
        }
        let key = store_key_with_passes(variant, n, configs, pipeline);
        if let Some((t, _)) = self.map_lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(*t);
        }
        let sim_index = self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(hook) = &self.fault {
            hook.before_simulation(sim_index, &key);
        }
        let threads = self.engine_threads.load(Ordering::Relaxed).max(1) as usize;
        let (t, mode) = match self.mode {
            TrafficMode::Simulate => {
                let t = crate::parallel::measure_box_traffic_optimized_sim(
                    variant, n, configs, threads, pipeline,
                )?
                .0;
                (t, TrafficMode::Simulate)
            }
            TrafficMode::Symbolic => {
                // The claim rule lives in the parallel front end: an
                // order-preserving pipeline on a claimed plan keeps the
                // symbolic certificate (the verifier pinned the serial
                // stream to the hand lowering); everything else executes
                // the transformed plan through the exact simulator.
                let (t, ps) = crate::parallel::measure_box_traffic_optimized(
                    variant, n, configs, threads, pipeline,
                )?;
                if ps.used_symbolic {
                    self.claimed_points.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.fallback_points.fetch_add(1, Ordering::Relaxed);
                }
                (t, if ps.used_symbolic { TrafficMode::Symbolic } else { TrafficMode::Simulate })
            }
        };
        self.record(key, t, mode);
        Ok(t)
    }

    /// Measured (or memoized) traffic of the two-box pair workload
    /// ([`measure_pair_traffic`]), keyed under [`pair_store_key`]. The
    /// pair workload is always measured by the exact simulator — the
    /// symbolic engine does not model the interleaved two-box stream —
    /// so under a symbolic-capable mode a pair miss counts as a fallback
    /// point and is tagged `sim`.
    pub fn get_pair(
        &self,
        variant: Variant,
        n: i32,
        configs: &[CacheConfig],
        pipeline: &Pipeline,
    ) -> Result<BoxTraffic, PipelineError> {
        let key = pair_store_key(variant, n, configs, pipeline);
        if let Some((t, _)) = self.map_lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(*t);
        }
        let sim_index = self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(hook) = &self.fault {
            hook.before_simulation(sim_index, &key);
        }
        let t = measure_pair_traffic(variant, n, configs, pipeline)?;
        if self.mode == TrafficMode::Symbolic {
            self.fallback_points.fetch_add(1, Ordering::Relaxed);
        }
        self.record(key, t, TrafficMode::Simulate);
        Ok(t)
    }

    /// Retry transient store-append failures: up to `max_retries` extra
    /// attempts per entry, sleeping `backoff · 2^attempt` (bounded)
    /// between attempts. Off by default (`max_retries == 0`) so fault
    /// accounting stays exact for callers that want one attempt = one
    /// outcome; the sweep supervisor turns it on from its
    /// `SweepBudget`. Attempts that ultimately fail are still counted in
    /// [`CacheStats::store_errors`]; the retries themselves show up in
    /// [`CacheStats::retried_appends`].
    pub fn set_append_retry(&self, max_retries: u32, backoff: Duration) {
        self.retry_max.store(max_retries, Ordering::Relaxed);
        self.retry_backoff_us
            .store(backoff.as_micros().min(u128::from(u64::MAX)) as u64, Ordering::Relaxed);
    }

    /// Best-effort `fsync` of the backing store, if this cache is its
    /// writer. Called on signal-triggered shutdown so every appended
    /// measurement is durable before the process exits.
    pub fn flush_store(&self) {
        if let (Some(path), true) = (&self.store, self.owned_lock.is_some()) {
            if let Ok(f) = std::fs::File::open(path) {
                let _ = f.sync_all();
            }
        }
    }

    /// Rewrite the backing store to its canonical compacted form
    /// (sorted keys, atomic tmp+rename), if this cache is its writer.
    /// The canonical bytes are a pure function of the entry set —
    /// `repro serve` compacts on drain so two stores holding the same
    /// measurements compare bit-identical (`serve_storm.sh` relies on
    /// this). Returns whether a rewrite happened; read-only and
    /// in-memory caches no-op. Callers must quiesce concurrent
    /// `get`/`get_optimized` calls first (the server drains inflight
    /// requests before compacting): an append racing the rename could
    /// land on the doomed pre-rename inode and be lost from disk until
    /// the next compaction.
    pub fn compact_store(&self) -> bool {
        if self.store.is_none() || self.owned_lock.is_none() {
            return false;
        }
        let path = self.store.as_ref().unwrap();
        let map = self.map_lock();
        if write_store_atomic(path, &map).is_err() {
            self.store_errors.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        drop(map);
        let mut loaded = self.loaded_stamp.lock().unwrap_or_else(|e| e.into_inner());
        *loaded = store_stamp(path);
        true
    }

    /// Whether a measurement for this point is already held (no
    /// simulation, no counter update) — the sweep engine uses this to
    /// schedule only the genuinely missing points.
    pub fn contains(&self, variant: Variant, n: i32, configs: &[CacheConfig]) -> bool {
        self.map_lock().contains_key(&store_key(variant, n, configs))
    }

    /// Hit/miss and store-health counters since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt_lines: self.corrupt_lines.load(Ordering::Relaxed),
            store_errors: self.store_errors.load(Ordering::Relaxed),
            retried_appends: self.retried_appends.load(Ordering::Relaxed),
            claimed_points: self.claimed_points.load(Ordering::Relaxed),
            fallback_points: self.fallback_points.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct measurements held.
    pub fn len(&self) -> usize {
        self.map_lock().len()
    }

    /// True when nothing has been measured yet.
    pub fn is_empty(&self) -> bool {
        self.map_lock().is_empty()
    }
}

impl Drop for TrafficCache {
    fn drop(&mut self) {
        // Unix: closing `lock_file` releases the exclusive flock (the
        // kernel also does this on crash or `process::exit`); the lock
        // file itself is deliberately never unlinked — see
        // `try_acquire_lock`. The fallback protocol has no flock, so its
        // lock must be removed here and staleness pid-checked on
        // acquisition.
        drop(self.lock_file.take());
        #[cfg(not(unix))]
        if let Some(lock) = &self.owned_lock {
            let _ = std::fs::remove_file(lock);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdesched_core::{CompLoop, Granularity, IntraTile};
    use pdesched_kernels::ops::compulsory_bytes;
    use pdesched_testkit::TempDir;

    fn small_hierarchy() -> Vec<CacheConfig> {
        // Deliberately tiny so a 16^3 box does not fit: 8 KiB L1,
        // 64 KiB L2.
        vec![CacheConfig::new(8 * 1024, 4), CacheConfig::new(64 * 1024, 8)]
    }

    fn big_hierarchy() -> Vec<CacheConfig> {
        // Everything fits: 16 MiB LLC.
        vec![CacheConfig::new(32 * 1024, 8), CacheConfig::new(16 * 1024 * 1024, 16)]
    }

    #[test]
    fn resident_box_moves_only_compulsory_traffic() {
        // When the whole working set fits in cache, every schedule moves
        // exactly the compulsory bytes (phi0 in, phi1 in+out) — modulo
        // line-granularity rounding at box edges.
        let n = 12;
        let lower = compulsory_bytes(n, GHOST);
        for variant in [Variant::baseline(), Variant::shift_fuse()] {
            let t = measure_box_traffic(variant, n, &big_hierarchy());
            assert!(t.dram_bytes >= lower, "{variant}: {} < compulsory {lower}", t.dram_bytes);
            // Amortized cold-start of the temporaries and line-granule
            // rounding leave a modest residual above compulsory. The
            // deterministic trace layout keeps each temporary in its own
            // line-aligned region (a real allocator lets consecutive
            // reallocations alias), so the residual includes each
            // region's cold fill and final flush once.
            assert!(
                (t.dram_bytes as f64) < lower as f64 * 1.5,
                "{variant}: {} >> compulsory {lower}",
                t.dram_bytes
            );
        }
    }

    #[test]
    fn fused_moves_less_than_series_when_tight() {
        let n = 16;
        let base = measure_box_traffic(Variant::baseline(), n, &small_hierarchy());
        let fused = measure_box_traffic(Variant::shift_fuse(), n, &small_hierarchy());
        assert!(
            fused.dram_bytes < base.dram_bytes,
            "fused {} !< series {}",
            fused.dram_bytes,
            base.dram_bytes
        );
    }

    #[test]
    fn overlapped_tiles_moves_less_than_series_when_tight() {
        let n = 16;
        let base = measure_box_traffic(Variant::baseline(), n, &small_hierarchy());
        let ot = measure_box_traffic(
            Variant::overlapped(IntraTile::ShiftFuse, 4, Granularity::WithinBox),
            n,
            &small_hierarchy(),
        );
        assert!(ot.dram_bytes < base.dram_bytes);
    }

    #[test]
    fn traffic_cache_persists_to_store() {
        let dir = TempDir::new("store");
        let path = dir.file("traffic.txt");
        let cfg = big_hierarchy();
        let a = {
            let cache = TrafficCache::with_store(&path);
            assert!(!cache.store_read_only(), "sole writer must own the lock");
            cache.get(Variant::baseline(), 8, &cfg)
        };
        // A fresh cache reads the stored value without re-measuring.
        let cache2 = TrafficCache::with_store(&path);
        assert_eq!(cache2.len(), 1);
        let b = cache2.get(Variant::baseline(), 8, &cfg);
        assert_eq!(a, b);
        assert_eq!(cache2.stats().corrupt_lines, 0);
    }

    #[test]
    fn stale_store_version_is_discarded() {
        let dir = TempDir::new("stale");
        let path = dir.file("traffic.txt");
        let cfg = big_hierarchy();
        // Simulate a store written by an older schema: wrong header, plus
        // an entry whose key matches the *current* format. It must not be
        // trusted.
        let key = store_key(Variant::baseline(), 8, &cfg);
        std::fs::write(&path, format!("# pdesched-traffic-store v1\n{key} 1 1 1 0.5 0.5\n"))
            .unwrap();
        let cache = TrafficCache::with_store(&path);
        assert!(cache.is_empty(), "stale-version entries must be dropped");
        let t = cache.get(Variant::baseline(), 8, &cfg);
        assert_ne!(t.dram_bytes, 1, "must re-measure, not echo the stale line");
        // The file is re-initialized with the current header and the
        // fresh measurement.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(&store_header()), "store must carry the current version header");
        drop(cache);
        let reload = TrafficCache::with_store(&path);
        assert_eq!(reload.len(), 1);
        assert_eq!(reload.get(Variant::baseline(), 8, &cfg), t);
    }

    #[test]
    fn checksummed_lines_roundtrip() {
        let t = BoxTraffic { dram_bytes: 123, reads: 45, writes: 6, l1_hit: 0.875, llc_hit: 0.5 };
        let line = entry_line("some/key/n8/g2", &t, TrafficMode::Symbolic);
        let (k, back, mode) = parse_entry(&line).expect("own line must verify");
        assert_eq!(k, "some/key/n8/g2");
        assert_eq!(back, t);
        assert_eq!(mode, TrafficMode::Symbolic);
        // Any single-byte mutation must fail verification.
        for i in 0..line.len() {
            let mut bytes = line.clone().into_bytes();
            bytes[i] ^= 0x01;
            if let Ok(s) = String::from_utf8(bytes) {
                assert!(parse_entry(&s).is_none(), "flip at {i} must be caught");
            }
        }
        // Truncations (torn appends) must fail verification too.
        for cut in 0..line.len() {
            assert!(parse_entry(&line[..cut]).is_none(), "truncation at {cut} must be caught");
        }
    }

    #[test]
    fn v3_store_migrates_to_v4_with_sim_provenance() {
        let dir = TempDir::new("migrate");
        let path = dir.file("traffic.txt");
        let cfg = big_hierarchy();
        // A genuine v3 store: v3 header, entry lines in the tagless v3
        // grammar with valid checksums. Its measurements are still
        // correct, so migration must preserve them — no re-measuring.
        let key = store_key(Variant::baseline(), 8, &cfg);
        let t = BoxTraffic { dram_bytes: 77, reads: 5, writes: 3, l1_hit: 0.5, llc_hit: 0.25 };
        let payload =
            format!("{key} {} {} {} {} {}", t.dram_bytes, t.reads, t.writes, t.l1_hit, t.llc_hit);
        let sum = fnv1a64(payload.as_bytes());
        std::fs::write(&path, format!("{V3_HEADER}\n{payload} {sum:016x}\n")).unwrap();
        let cache = TrafficCache::with_store(&path);
        assert_eq!(cache.len(), 1, "v3 entries must be migrated, not discarded");
        assert_eq!(cache.get(Variant::baseline(), 8, &cfg), t);
        assert_eq!(cache.stats().misses, 0, "migration must not re-measure");
        assert_eq!(cache.provenance(Variant::baseline(), 8, &cfg), Some(TrafficMode::Simulate));
        // The file itself was rewritten in the v4 format.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(&store_header()), "{text}");
        assert!(text.contains(" sim "), "migrated entries carry the sim tag: {text}");
        drop(cache);
        let reload = TrafficCache::with_store(&path);
        assert_eq!((reload.len(), reload.stats().corrupt_lines), (1, 0));
    }

    #[test]
    fn symbolic_mode_tags_entries_and_matches_simulate() {
        let dir = TempDir::new("mode");
        let path = dir.file("traffic.txt");
        let cfg = small_hierarchy();
        let sym = {
            let cache = TrafficCache::with_store(&path).with_mode(TrafficMode::Symbolic);
            let t = cache.get(Variant::baseline(), 8, &cfg);
            assert_eq!(cache.provenance(Variant::baseline(), 8, &cfg), Some(TrafficMode::Symbolic));
            // An unclaimed plan under symbolic mode is honest about its
            // provenance: the simulator produced the number.
            let wf = Variant::blocked_wavefront(CompLoop::Outside, 4);
            cache.get(wf, 8, &cfg);
            assert_eq!(cache.provenance(wf, 8, &cfg), Some(TrafficMode::Simulate));
            t
        };
        assert_eq!(sym, measure_box_traffic(Variant::baseline(), 8, &cfg));
        // The tags round-trip through the store, and a simulate-mode
        // reader serves symbolic entries (bit-identical by contract).
        let reload = TrafficCache::with_store(&path);
        assert_eq!(reload.len(), 2);
        assert_eq!(reload.provenance(Variant::baseline(), 8, &cfg), Some(TrafficMode::Symbolic));
        assert_eq!(reload.get(Variant::baseline(), 8, &cfg), sym);
        assert_eq!(reload.stats().hits, 1);
    }

    #[test]
    fn symbolic_mode_picks_the_claimed_pipeline() {
        let cache = TrafficCache::new().with_mode(TrafficMode::Symbolic);
        let cfg = small_hierarchy();
        cache.get(Variant::shift_fuse(), 8, &cfg);
        assert_eq!(cache.provenance(Variant::shift_fuse(), 8, &cfg), Some(TrafficMode::Symbolic));
        let wf = Variant::blocked_wavefront(CompLoop::Outside, 4);
        cache.get(wf, 8, &cfg);
        assert_eq!(cache.provenance(wf, 8, &cfg), Some(TrafficMode::Simulate));
    }

    #[test]
    fn legacy_hyb_tag_loads_as_symbolic() {
        // Older binaries had a `Hybrid` mode that tagged its entries
        // `hyb`; those stores must keep loading and serving.
        let dir = TempDir::new("hyb");
        let path = dir.file("traffic.txt");
        let cfg = small_hierarchy();
        let t = measure_box_traffic(Variant::shift_fuse(), 8, &cfg);
        let payload = format!(
            "{} hyb {} {} {} {} {}",
            store_key(Variant::shift_fuse(), 8, &cfg),
            t.dram_bytes,
            t.reads,
            t.writes,
            t.l1_hit,
            t.llc_hit
        );
        let line = format!("{payload} {:016x}", fnv1a64(payload.as_bytes()));
        std::fs::write(&path, format!("{}\n{line}\n", store_header())).unwrap();
        let cache = TrafficCache::with_store(&path);
        assert_eq!((cache.len(), cache.stats().corrupt_lines), (1, 0));
        assert_eq!(cache.get(Variant::shift_fuse(), 8, &cfg), t);
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 0));
        assert_eq!(cache.provenance(Variant::shift_fuse(), 8, &cfg), Some(TrafficMode::Symbolic));
    }

    #[test]
    fn corrupt_lines_are_quarantined_and_counted() {
        let dir = TempDir::new("corrupt");
        let path = dir.file("traffic.txt");
        let cfg = big_hierarchy();
        {
            let cache = TrafficCache::with_store(&path);
            cache.get(Variant::baseline(), 8, &cfg);
        }
        // Damage the store: one garbage line, plus a torn copy of a
        // valid line (a crash mid-append).
        let good = std::fs::read_to_string(&path).unwrap();
        let torn = good.lines().nth(1).unwrap();
        let torn = &torn[..torn.len() / 2];
        std::fs::write(&path, format!("{good}not a valid entry line\n{torn}")).unwrap();
        let cache = TrafficCache::with_store(&path);
        assert_eq!(cache.len(), 1, "the intact entry must survive");
        assert_eq!(cache.stats().corrupt_lines, 2);
        // Quarantine holds the damage; the store itself is compacted.
        let q = std::fs::read_to_string(quarantine_path_for(&path)).unwrap();
        assert!(q.contains("not a valid entry line") && q.contains(torn));
        drop(cache);
        let reload = TrafficCache::with_store(&path);
        assert_eq!((reload.len(), reload.stats().corrupt_lines), (1, 0));
    }

    #[test]
    fn hit_miss_counters_track_lookups() {
        let cache = TrafficCache::new();
        let cfg = big_hierarchy();
        assert_eq!(cache.stats(), CacheStats::default());
        cache.get(Variant::baseline(), 8, &cfg);
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 1, ..Default::default() });
        cache.get(Variant::baseline(), 8, &cfg);
        cache.get(Variant::baseline(), 8, &cfg);
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 1, ..Default::default() });
        // `contains` probes without perturbing the counters.
        assert!(cache.contains(Variant::baseline(), 8, &cfg));
        assert!(!cache.contains(Variant::shift_fuse(), 8, &cfg));
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 1, ..Default::default() });
    }

    #[test]
    fn key_distinguishes_hierarchies() {
        let cache = TrafficCache::new();
        cache.get(Variant::baseline(), 8, &big_hierarchy());
        cache.get(Variant::baseline(), 8, &small_hierarchy());
        assert_eq!(cache.len(), 2, "different hierarchies are different points");
    }

    #[test]
    fn traffic_cache_memoizes() {
        let cache = TrafficCache::new();
        let cfg = big_hierarchy();
        let a = cache.get(Variant::baseline(), 8, &cfg);
        let b = cache.get(Variant::baseline(), 8, &cfg);
        assert_eq!(a, b);
        assert_eq!(cache.len(), 1);
        let _ = cache.get(Variant::shift_fuse(), 8, &cfg);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn wavefront_traffic_close_to_fused() {
        // Blocked wavefront = fused + co-dimension caches, but cube
        // tiles cut spatial locality (Section IV-C: "using cube tiles
        // simultaneously reduces the spatial locality"): 4^3 tiles are
        // half a cache line wide, so boundary lines are fetched by both
        // neighbors. Expect more traffic than plain fused, bounded by
        // ~3x.
        let n = 16;
        let fused = measure_box_traffic(Variant::shift_fuse(), n, &small_hierarchy());
        let wf = measure_box_traffic(
            Variant::blocked_wavefront(CompLoop::Outside, 4),
            n,
            &small_hierarchy(),
        );
        assert!(wf.dram_bytes > fused.dram_bytes, "tiling should cost spatial locality here");
        assert!(wf.dram_bytes < fused.dram_bytes * 3);
    }

    #[test]
    fn pass_free_store_keys_are_byte_identical() {
        // The compatibility contract: an empty pipeline must produce the
        // exact pre-pipeline key (existing stores stay valid), and any
        // non-empty pipeline gets its own suffix.
        let cfg = small_hierarchy();
        let v = Variant::shift_fuse();
        assert_eq!(store_key_with_passes(v, 8, &cfg, &Pipeline::empty()), store_key(v, 8, &cfg));
        let pipe = Pipeline::parse("cross-box-fuse:2").unwrap();
        let k = store_key_with_passes(v, 8, &cfg, &pipe);
        assert!(k.ends_with("/p[cross-box-fuse:2]"), "{k}");
        assert!(k.starts_with(&store_key(v, 8, &cfg)), "{k}");
        // Pair keys never collide with single-box keys.
        let pk = pair_store_key(v, 8, &cfg, &Pipeline::empty());
        assert_ne!(pk, store_key(v, 8, &cfg));
        assert!(pk.contains("/pair"), "{pk}");
    }

    #[test]
    fn optimized_measurement_matches_plain_for_stream_preserving_pipelines() {
        // Empty pipeline: same producer, identical numbers. An
        // order-preserving pipeline keeps the serial access stream, so
        // the simulated traffic is identical too (barriers are free at
        // one thread).
        let n = 8;
        let cfg = small_hierarchy();
        let plain = measure_box_traffic(Variant::baseline(), n, &cfg);
        let empty = measure_optimized_box_traffic(Variant::baseline(), n, &cfg, &Pipeline::empty())
            .unwrap();
        assert_eq!(plain, empty);
        let pipe = Pipeline::parse("elide-barriers,fuse-phases").unwrap();
        let opt = measure_optimized_box_traffic(Variant::baseline(), n, &cfg, &pipe).unwrap();
        assert_eq!(plain, opt);
        // A pass that refuses the plan surfaces as an error, not a panic.
        let bad = Pipeline::parse("rechunk:4").unwrap();
        assert!(measure_optimized_box_traffic(Variant::baseline(), n, &cfg, &bad).is_err());
    }

    #[test]
    fn cross_box_fusion_saves_shared_halo_traffic() {
        // The headline mechanism at unit scale: two x-adjacent boxes
        // share a 2-ghost halo slab of phi0. Sequential execution
        // refetches it (the LLC is smaller than one box's stream);
        // chunk-interleaved execution revisits it at chunk distance.
        let n = 12;
        let cfg = vec![CacheConfig::new(8 * 1024, 4), CacheConfig::new(256 * 1024, 16)];
        let v = Variant { comp: CompLoop::Inside, ..Variant::shift_fuse() };
        let seq = measure_pair_traffic(v, n, &cfg, &Pipeline::empty()).unwrap();
        let pipe = Pipeline::parse("cross-box-fuse:2").unwrap();
        let fused = measure_pair_traffic(v, n, &cfg, &pipe).unwrap();
        assert!(
            fused.dram_bytes < seq.dram_bytes,
            "interleaved {} !< sequential {}",
            fused.dram_bytes,
            seq.dram_bytes
        );
    }

    #[test]
    fn get_optimized_tags_producers_and_memoizes() {
        let cache = TrafficCache::new().with_mode(TrafficMode::Symbolic);
        let cfg = small_hierarchy();
        // Empty pipeline delegates to the plain entry point (same key).
        let plain = cache.get_optimized(Variant::baseline(), 8, &cfg, &Pipeline::empty()).unwrap();
        assert_eq!(plain, cache.get(Variant::baseline(), 8, &cfg));
        assert_eq!(cache.len(), 1);
        // Order-preserving pipeline on a fully claimed variant: the
        // symbolic producer answers, under a pass-suffixed key.
        let ep = Pipeline::parse("elide-barriers,fuse-phases").unwrap();
        let claimed_before = cache.stats().claimed_points;
        let a = cache.get_optimized(Variant::baseline(), 8, &cfg, &ep).unwrap();
        assert_eq!(a, plain, "stream-preserving pipeline must not change traffic");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().claimed_points, claimed_before + 1);
        // Stream-reordering pipeline: simulator fallback.
        let xb = Pipeline::parse("cross-box-fuse:2").unwrap();
        let fallback_before = cache.stats().fallback_points;
        let _ = cache.get_optimized(Variant::shift_fuse(), 8, &cfg, &xb).unwrap();
        assert_eq!(cache.stats().fallback_points, fallback_before + 1);
        // Second lookups hit.
        let h = cache.stats().hits;
        let _ = cache.get_optimized(Variant::baseline(), 8, &cfg, &ep).unwrap();
        let _ = cache.get_optimized(Variant::shift_fuse(), 8, &cfg, &xb).unwrap();
        assert_eq!(cache.stats().hits, h + 2);
    }

    #[test]
    fn get_pair_persists_under_pair_keys() {
        let dir = TempDir::new("pair-store");
        let path = dir.file("traffic.txt");
        let cfg = big_hierarchy();
        let v = Variant::shift_fuse();
        let pipe = Pipeline::parse("cross-box-fuse:2").unwrap();
        let a = {
            let cache = TrafficCache::with_store(&path);
            let seq = cache.get_pair(v, 8, &cfg, &Pipeline::empty()).unwrap();
            let il = cache.get_pair(v, 8, &cfg, &pipe).unwrap();
            assert_ne!(cache.get(v, 8, &cfg), seq, "pair and single-box entries must not collide");
            assert_eq!(cache.len(), 3);
            (seq, il)
        };
        // A fresh cache reloads all three entries from the store.
        let cache2 = TrafficCache::with_store(&path);
        assert_eq!(cache2.len(), 3);
        assert_eq!(cache2.get_pair(v, 8, &cfg, &Pipeline::empty()).unwrap(), a.0);
        assert_eq!(cache2.get_pair(v, 8, &cfg, &pipe).unwrap(), a.1);
        assert_eq!(cache2.stats().misses, 0);
    }
}
