//! Deterministic fault injection against the measurement pipeline and
//! the persistent traffic store: every crash-safety and
//! graceful-degradation claim in DESIGN.md's failure model is exercised
//! here, driven by `pdesched_testkit::FaultPlan`.
//!
//! Expected "injected fault" panic messages in this test's stderr are
//! the injections themselves, not failures.

use pdesched_cachesim::CacheConfig;
use pdesched_core::Variant;
use pdesched_machine::{journal, traffic};
use pdesched_machine::{FaultHook, SimPoint, SweepEngine, TrafficCache};
use pdesched_testkit::{FaultPlan, TempDir};
use std::sync::Arc;

/// Adapt a deterministic [`FaultPlan`] to the store/measurement hooks.
struct PlanHook(Arc<FaultPlan>);

impl FaultHook for PlanHook {
    fn before_simulation(&self, _sim_index: u64, _key: &str) {
        self.0.on_sim();
    }
    fn fail_append(&self, _append_index: u64) -> bool {
        self.0.on_append()
    }
}

/// Cheapest hierarchy to simulate: everything is cache-resident.
fn roomy() -> Vec<CacheConfig> {
    vec![CacheConfig::new(32 * 1024, 8), CacheConfig::new(16 * 1024 * 1024, 16)]
}

/// Cheap distinct measurement points (8^3 boxes, resident hierarchy).
fn cheap_points(count: usize) -> Vec<SimPoint> {
    let variants = [
        Variant::baseline(),
        Variant::shift_fuse(),
        Variant::overlapped(
            pdesched_core::IntraTile::ShiftFuse,
            4,
            pdesched_core::Granularity::WithinBox,
        ),
        Variant::blocked_wavefront(pdesched_core::CompLoop::Outside, 4),
    ];
    assert!(count <= variants.len());
    variants[..count].iter().map(|&v| SimPoint { variant: v, n: 8, configs: roomy() }).collect()
}

/// Kill-at-arbitrary-byte: truncate a two-entry store at *every* byte
/// offset and assert the loader recovers exactly the fully-written
/// entries, counts the torn remainder as corrupt, and compacts the file
/// so the next load is clean.
#[test]
fn store_truncated_at_every_byte_recovers_intact_entries() {
    let dir = TempDir::new("truncate");
    let full_path = dir.file("full.txt");
    {
        let cache = TrafficCache::with_store(&full_path);
        for p in cheap_points(2) {
            cache.get(p.variant, p.n, &p.configs);
        }
    }
    let full = std::fs::read_to_string(&full_path).unwrap();
    let bytes = full.as_bytes();
    // Byte ranges [start, content_end) of each line (newline excluded).
    let mut lines: Vec<(usize, usize)> = Vec::new();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            lines.push((start, i));
            start = i + 1;
        }
    }
    assert_eq!(lines.len(), 3, "header + two entries");
    let (header, entries) = (lines[0], &lines[1..]);
    for b in 0..=bytes.len() {
        let path = dir.file("cut.txt");
        std::fs::write(&path, &bytes[..b]).unwrap();
        let _ = std::fs::remove_file(dir.file("cut.txt.quarantine"));
        let cache = TrafficCache::with_store(&path);
        if b < header.1 {
            // Header itself torn: the whole store is discarded and
            // re-initialized (empty but valid).
            assert_eq!(cache.len(), 0, "cut at {b}");
        } else {
            let recovered = entries.iter().filter(|&&(_, end)| end <= b).count();
            let torn = entries.iter().any(|&(s, end)| s < b && b < end);
            assert_eq!(cache.len(), recovered, "cut at {b}");
            assert_eq!(cache.stats().corrupt_lines, torn as u64, "cut at {b}");
            assert_eq!(
                std::fs::metadata(dir.file("cut.txt.quarantine")).is_ok(),
                torn,
                "cut at {b}: torn lines must be quarantined"
            );
        }
        drop(cache);
        // The repaired store must load clean.
        let reload = TrafficCache::with_store(&path);
        assert_eq!(reload.stats().corrupt_lines, 0, "cut at {b}: compaction must leave no damage");
    }
}

#[test]
fn recovered_entries_match_original_measurements() {
    // Truncating mid-final-entry keeps the first entry bit-identical.
    let dir = TempDir::new("roundtrip");
    let path = dir.file("t.txt");
    let pts = cheap_points(2);
    let originals: Vec<_> = {
        let cache = TrafficCache::with_store(&path);
        pts.iter().map(|p| cache.get(p.variant, p.n, &p.configs)).collect()
    };
    let full = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &full[..full.len() - 10]).unwrap();
    let cache = TrafficCache::with_store(&path);
    assert_eq!(cache.len(), 1);
    assert_eq!(cache.stats().corrupt_lines, 1);
    // Whichever entry survived, its value must equal the original
    // measurement (served as a hit, not re-simulated).
    let miss_before = cache.stats().misses;
    for (p, orig) in pts.iter().zip(&originals) {
        if cache.contains(p.variant, p.n, &p.configs) {
            assert_eq!(cache.get(p.variant, p.n, &p.configs), *orig);
        }
    }
    assert_eq!(cache.stats().misses, miss_before, "recovered entries must be hits");
}

#[test]
fn failed_appends_are_counted_not_swallowed() {
    let dir = TempDir::new("appendfail");
    let path = dir.file("t.txt");
    let plan = Arc::new(FaultPlan::new().fail_every_nth_append(2));
    let pts = cheap_points(4);
    {
        let cache =
            TrafficCache::with_store(&path).with_fault_hook(Arc::new(PlanHook(Arc::clone(&plan))));
        for p in &pts {
            cache.get(p.variant, p.n, &p.configs);
        }
        // Appends 1 and 3 (0-based) failed; the measurements stay
        // available in memory.
        assert_eq!(cache.stats().store_errors, 2);
        assert_eq!(cache.len(), 4);
        assert_eq!(plan.appends_seen(), 4);
    }
    // Only the successful appends persisted — and they persisted intact.
    let reload = TrafficCache::with_store(&path);
    assert_eq!(reload.len(), 2);
    assert_eq!(reload.stats().corrupt_lines, 0);
}

#[test]
fn sweep_engine_degrades_on_injected_measurement_panic() {
    let plan = Arc::new(FaultPlan::new().panic_on_sim(1));
    let cache = TrafficCache::new().with_fault_hook(Arc::new(PlanHook(Arc::clone(&plan))));
    let engine = SweepEngine::new(2);
    let pts = cheap_points(3);
    let report = engine.prewarm(&cache, &pts);
    // One point failed; the other two completed and are served from
    // memory.
    assert_eq!(report.failed.len(), 1, "exactly the planned simulation fails");
    assert_eq!(report.measured, 2);
    assert_eq!(cache.len(), 2);
    assert!(report.failed[0].error.contains("injected fault"), "{:?}", report.failed);
    assert_eq!(report.failed[0].n, 8);
    // The engine (and its pool) survive: a retry completes the sweep.
    let retry = engine.prewarm(&cache, &pts);
    assert!(retry.failed.is_empty());
    assert_eq!(retry.measured, 1);
    assert_eq!(cache.len(), 3);
}

#[test]
fn single_writer_second_cache_is_read_only() {
    let dir = TempDir::new("lock");
    let path = dir.file("t.txt");
    let pts = cheap_points(2);
    let a = TrafficCache::with_store(&path);
    assert!(!a.store_read_only());
    a.get(pts[0].variant, pts[0].n, &pts[0].configs);
    // Second cache on the same store while the first is alive: loads the
    // entries but must not append.
    let b = TrafficCache::with_store(&path);
    assert!(b.store_read_only());
    assert_eq!(b.len(), 1, "read-only cache still serves stored entries");
    b.get(pts[1].variant, pts[1].n, &pts[1].configs);
    assert_eq!(b.len(), 2, "in-memory memoization still works");
    drop(b);
    drop(a);
    // Neither b's measurement nor its drop touched the store.
    let c = TrafficCache::with_store(&path);
    assert!(!c.store_read_only(), "lock must be released on drop");
    assert_eq!(c.len(), 1, "read-only cache must not have appended");
}

#[test]
fn single_writer_stale_lock_from_dead_process_is_stolen() {
    let dir = TempDir::new("stalelock");
    let path = dir.file("t.txt");
    // A lock left behind by a crashed writer: pid that cannot be alive.
    std::fs::write(dir.file("t.txt.lock"), "4294967295").unwrap();
    let cache = TrafficCache::with_store(&path);
    assert!(!cache.store_read_only(), "dead holder's lock must be stolen");
    let p = &cheap_points(1)[0];
    cache.get(p.variant, p.n, &p.configs);
    drop(cache);
    let reload = TrafficCache::with_store(&path);
    assert_eq!(reload.len(), 1, "stolen lock must allow appends");
}

#[test]
fn single_writer_unreadable_lock_is_respected() {
    let dir = TempDir::new("oddlock");
    let path = dir.file("t.txt");
    // An unparseable lock could be a writer mid-acquisition: stay safe,
    // degrade to read-only rather than double-write.
    std::fs::write(dir.file("t.txt.lock"), "not-a-pid").unwrap();
    let cache = TrafficCache::with_store(&path);
    assert!(cache.store_read_only());
}

#[test]
fn stale_lock_takeover_grants_exactly_one_writer_under_contention() {
    // Many concurrent openers all see the same stale (dead-pid) lock.
    // The old read-check-rewrite protocol let several of them conclude
    // "stale" and all steal it; the flock-based one must grant exactly
    // one writer per round, no matter the interleaving.
    for round in 0..10 {
        let dir = TempDir::new("stealrace");
        let path = dir.file("t.txt");
        std::fs::write(dir.file("t.txt.lock"), "4294967295").unwrap();
        let caches: std::sync::Mutex<Vec<TrafficCache>> = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let c = TrafficCache::with_store(&path);
                    // Keep every cache alive until all have acquired, so
                    // a second steal can't ride on the first's release.
                    caches.lock().unwrap().push(c);
                });
            }
        });
        let caches = caches.into_inner().unwrap();
        let owners = caches.iter().filter(|c| !c.store_read_only()).count();
        assert_eq!(owners, 1, "round {round}: stale lock stolen by {owners} writers");
    }
}

/// Kill-at-every-byte for the journal sidecar: truncating a journal at
/// any offset must leave `load` well-defined, and it must only ever err
/// in the safe direction — a torn `complete` reads as an interrupted
/// sweep (resumed; completed points are in the *store* and resuming
/// skips them), never as a phantom completion.
#[test]
fn journal_truncated_at_every_byte_stays_probeable_and_safe() {
    let dir = TempDir::new("journalcut");
    let full_path = dir.file("t.txt.journal");
    {
        let j = journal::SweepJournal::start(&full_path, 3).unwrap();
        j.complete();
    }
    let full = std::fs::read_to_string(&full_path).unwrap();
    // A cut that keeps the full record text but drops the trailing
    // newline still parses (the record is whole); only a cut *inside*
    // the text makes it torn.
    let begin_total_end = full.find("begin\t3").unwrap() + "begin\t3".len();
    let complete_at = full.find("complete").unwrap() + "complete".len();
    for b in 0..=full.len() {
        let path = dir.file("cut.journal");
        std::fs::write(&path, &full.as_bytes()[..b]).unwrap();
        // `load` may not panic, whatever the cut.
        let prior = journal::load(&path);
        assert_eq!(
            prior.is_some(),
            (begin_total_end..complete_at).contains(&b),
            "cut at {b}: resumable exactly while the begin is whole and the complete is not"
        );
        if let Some(p) = &prior {
            assert_eq!(p.total, 3, "cut at {b}: the begin record is either whole or ignored");
        }
    }
}

/// The same kill-at-every-byte sweep, but every cut is followed by a
/// lone 0xE2 byte — the first byte of a torn multi-byte UTF-8 sequence,
/// exactly what a writer killed mid-write of non-ASCII text leaves
/// behind. Before the lossy-decode fix, `load()` hard-errored on the
/// invalid byte and condemned the whole journal; now it stays
/// well-defined and the torn tail is counted.
#[test]
fn journal_cut_with_non_utf8_tail_stays_probeable_and_counted() {
    let dir = TempDir::new("journalutf8");
    let full_path = dir.file("t.txt.journal");
    {
        let j = journal::SweepJournal::start(&full_path, 3).unwrap();
        j.fail("sf", 16, "boom");
        j.complete();
    }
    let full = std::fs::read_to_string(&full_path).unwrap();
    // `load` yields Some only once the begin record's total is whole —
    // and the junk byte glues onto the total when the cut lands right
    // after it ("begin\t3" + 0xE2 parses as total "3�").
    let begin_total_end = full.find("begin\t3").unwrap() + "begin\t3".len();
    for b in 0..=full.len() {
        let path = dir.file("cut.journal");
        let mut bytes = full.as_bytes()[..b].to_vec();
        bytes.push(0xE2);
        std::fs::write(&path, &bytes).unwrap();
        let prior = journal::load(&path);
        // A whole begin record means the journal loads despite the junk.
        assert_eq!(prior.is_some(), b > begin_total_end, "cut at {b}");
        if let Some(p) = &prior {
            assert_eq!(p.total, 3, "cut at {b}");
        }
        if b == full.len() {
            // The junk forms its own torn trailing line and is counted.
            assert_eq!(prior.as_ref().unwrap().torn_records, 1, "cut at {b}");
            assert_eq!(prior.as_ref().unwrap().failed, 1, "cut at {b}");
        }
    }
}

/// Helper for the two-process steal test below: a child process re-runs
/// this test binary filtered to this "test", which races one fallback
/// (O_EXCL, flock-less) lock acquisition and reports the verdict on
/// stdout. A plain run (no env var) is a no-op pass.
#[test]
fn fallback_lock_contender_helper() {
    let Some(lock) = std::env::var_os("PDESCHED_FALLBACK_LOCK") else {
        return;
    };
    let lock = std::path::PathBuf::from(lock);
    match traffic::try_acquire_lock_fallback(&lock) {
        Some(_held) => {
            println!("VERDICT=ACQUIRED");
            // Hold the lock long enough that the loser's attempt fully
            // overlaps; the file outlives us (conceders never unlink).
            std::thread::sleep(std::time::Duration::from_millis(200));
        }
        None => println!("VERDICT=CONCEDED"),
    }
}

/// Regression for the fallback-lock steal race (two *processes*, the
/// deployment the fallback path actually serves): both contenders see
/// the same dead holder's lock file, both enter the steal path, and the
/// re-verify-after-write step must let exactly one keep the lock —
/// never zero, never both.
#[test]
fn fallback_lock_steal_race_grants_exactly_one_process() {
    let exe = std::env::current_exe().unwrap();
    for round in 0..5 {
        let dir = TempDir::new("fallback2p");
        let lock = dir.file("t.txt.lock");
        std::fs::write(&lock, "4294967295").unwrap(); // dead holder
        let children: Vec<std::process::Child> = (0..2)
            .map(|_| {
                std::process::Command::new(&exe)
                    .args(["--exact", "fallback_lock_contender_helper", "--nocapture"])
                    .env("PDESCHED_FALLBACK_LOCK", &lock)
                    .stdout(std::process::Stdio::piped())
                    .spawn()
                    .unwrap()
            })
            .collect();
        let verdicts: Vec<String> = children
            .into_iter()
            .map(|c| String::from_utf8(c.wait_with_output().unwrap().stdout).unwrap())
            .collect();
        let acquired = verdicts.iter().filter(|v| v.contains("VERDICT=ACQUIRED")).count();
        let conceded = verdicts.iter().filter(|v| v.contains("VERDICT=CONCEDED")).count();
        assert_eq!(acquired + conceded, 2, "round {round}: {verdicts:?}");
        assert_eq!(acquired, 1, "round {round}: exactly one steal may win: {verdicts:?}");
        // The winner's pid is what the lock file records.
        let content = std::fs::read_to_string(&lock).unwrap();
        assert!(content.trim().parse::<u32>().is_ok(), "round {round}: {content:?}");
    }
}

#[test]
fn transient_append_failures_are_retried_with_backoff() {
    // Every other append attempt fails; with two retries per entry each
    // point still persists, and the retries are visible in the stats.
    let dir = TempDir::new("appendretry");
    let path = dir.file("t.txt");
    let plan = Arc::new(FaultPlan::new().fail_every_nth_append(2));
    let pts = cheap_points(4);
    {
        let cache =
            TrafficCache::with_store(&path).with_fault_hook(Arc::new(PlanHook(Arc::clone(&plan))));
        cache.set_append_retry(2, std::time::Duration::from_millis(1));
        for p in &pts {
            cache.get(p.variant, p.n, &p.configs);
        }
        // Attempt sequence (0-based, odd attempts fail): point A ok at 0;
        // B fails at 1, retries ok at 2; C fails at 3, retries ok at 4;
        // D fails at 5, retries ok at 6.
        assert_eq!(cache.stats().store_errors, 0, "retries must absorb transient failures");
        assert_eq!(cache.stats().retried_appends, 3);
        assert_eq!(plan.appends_seen(), 7);
    }
    let reload = TrafficCache::with_store(&path);
    assert_eq!(reload.len(), 4, "every point must have persisted");
    assert_eq!(reload.stats().corrupt_lines, 0);
}

#[test]
fn prewarm_budget_forwards_append_retries() {
    // The same transient-append fault, driven through the sweep engine's
    // SweepBudget instead of a direct cache call.
    let dir = TempDir::new("budgetretry");
    let path = dir.file("t.txt");
    let plan = Arc::new(FaultPlan::new().fail_every_nth_append(2));
    let pts = cheap_points(4);
    {
        let cache =
            TrafficCache::with_store(&path).with_fault_hook(Arc::new(PlanHook(Arc::clone(&plan))));
        // One thread: the append-attempt sequence is deterministic (with
        // more, an unlucky interleaving could land one point's initial
        // try and both retries on the failing odd attempt indices).
        let engine = SweepEngine::new(1).with_budget(pdesched_machine::SweepBudget {
            max_retries: 2,
            backoff: std::time::Duration::from_millis(1),
            ..Default::default()
        });
        let report = engine.prewarm(&cache, &pts);
        assert_eq!(report.measured, 4);
        assert!(report.failed.is_empty(), "{:?}", report.failed);
        assert_eq!(cache.stats().store_errors, 0);
        assert!(cache.stats().retried_appends >= 3);
    }
    let reload = TrafficCache::with_store(&path);
    assert_eq!(reload.len(), 4);
}
