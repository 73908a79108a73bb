//! The sweep journal: a small sidecar file next to the traffic store
//! recording how the last prewarm sweep over that store went.
//!
//! The store itself is the source of truth for *completed* points (a
//! measurement is either durably appended or it isn't), so the journal
//! only needs the rest of the story: that a sweep started, which points
//! failed or timed out, and whether the sweep finished or was
//! cancelled. A journal whose `begin` record has no matching `complete`
//! marks an interrupted sweep — as does a completed one that recorded
//! failures or timeouts, since those points are still missing from the
//! store. Either way the next prewarm over the same store reports it in
//! `PrewarmReport::resumed_from` and picks up exactly the missing
//! points.
//!
//! Format (`<store>.journal`, line-oriented, tab-separated fields):
//!
//! ```text
//! # pdesched-sweep-journal v1
//! begin\t<total-points-to-measure>
//! fail\t<variant>\t<n>\t<error>
//! timeout\t<variant>\t<n>\t<error>
//! cancelled\t<reason>
//! complete
//! ```
//!
//! A sweep writes one `begin` (first record) and at most one terminal
//! record (`cancelled` or `complete`); the file is truncated at the
//! start of each sweep, after the previous contents were read. Older
//! binaries also wrote `begin\t<total>\t<pid>\t<unix-millis>`,
//! `heartbeat\t<pid>\t<unix-millis>` records, and journals with
//! several interleaved `begin`s; [`load`] still reads all of them. It is
//! deliberately tolerant: duplicate `begin`s are last-writer-wins, extra
//! fields are ignored, a record with unparseable fields is skipped
//! rather than condemning the whole journal, and unknown record kinds
//! are ignored (they are how this format grows). Records are appended
//! and flushed one at a time so the journal survives the same crashes
//! the store does; a torn trailing record — even one cut
//! mid-UTF-8-sequence, which is why the file is read with a lossy
//! byte-level decode — is ignored and counted
//! ([`PriorSweep::torn_records`]), mirroring how the traffic store
//! quarantines torn lines. Error texts have tabs/newlines flattened to
//! spaces so one record is always one line.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const HEADER: &str = "# pdesched-sweep-journal v1";

/// What the journal says about the previous sweep over this store.
/// Only produced when that sweep left points behind: it was interrupted
/// (`begin` without a `complete` record), or it completed but recorded
/// failures/timeouts — those points are still missing from the store,
/// so the next sweep re-attempts them. A cleanly completed sweep leaves
/// nothing to resume.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PriorSweep {
    /// Points the interrupted sweep still had to measure when it began.
    pub total: usize,
    /// Points it recorded as failed before stopping.
    pub failed: usize,
    /// Points it recorded as killed by the per-point deadline.
    pub timed_out: usize,
    /// The cancellation reason, when the sweep recorded an orderly
    /// cancel (signal, deadline). `None` means it died without a
    /// terminal record — a crash or `kill -9`.
    pub cancelled: Option<String>,
    /// Torn records ignored while loading: a trailing record a crash
    /// cut mid-append (possibly mid-UTF-8-sequence), counted the same
    /// way [`crate::TrafficCache`] counts quarantined store lines
    /// instead of condemning the whole file. Interior unknown record
    /// kinds are *not* counted — they are how this format grows.
    pub torn_records: usize,
}

/// The journal file sidecar path for `store`.
pub fn journal_path_for(store: &Path) -> PathBuf {
    let mut s = store.as_os_str().to_os_string();
    s.push(".journal");
    PathBuf::from(s)
}

/// Flatten an error/reason text so it fits one tab-separated field.
fn sanitize(s: &str) -> String {
    s.replace(['\t', '\n', '\r'], " ")
}

/// Read the journal at `path`; `Some` iff it records a sweep with
/// something left to resume (interrupted, or completed with recorded
/// failures/timeouts). A missing, headerless, or cleanly completed
/// journal yields `None`.
///
/// Tolerant by design (see the module docs): duplicate `begin`s are
/// last-writer-wins, records with unparseable fields are skipped, and
/// unknown record kinds are ignored — a crashed sweep's journal must
/// stay resumable, not become "corrupt".
pub fn load(path: &Path) -> Option<PriorSweep> {
    // Lossy byte-level read: a crash can tear an append mid-UTF-8
    // sequence, and `read_to_string`'s hard UTF-8 failure would condemn
    // the whole journal (every intact record lost) for one torn tail.
    // The replacement characters the lossy decode leaves land in the
    // torn record, which the per-record parser skips and counts — the
    // journal-side analogue of the store's quarantine path.
    let bytes = std::fs::read(path).ok()?;
    let text = String::from_utf8_lossy(&bytes);
    let mut lines = text.lines();
    if lines.next() != Some(HEADER) {
        return None;
    }
    let mut prior = PriorSweep::default();
    let mut begun = false;
    let mut completed = false;
    let rest: Vec<&str> = lines.collect();
    for (i, line) in rest.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let mut it = line.split('\t');
        let parsed = match it.next() {
            Some("begin") => {
                // A later writer's begin supersedes an earlier one; a
                // begin whose total doesn't parse is a torn/foreign
                // record and is skipped, not fatal. Any pid/timestamp
                // fields an older binary appended are ignored.
                match it.next().and_then(|t| t.parse().ok()) {
                    None => false,
                    Some(total) => {
                        prior.total = total;
                        begun = true;
                        true
                    }
                }
            }
            // Liveness beats written by older binaries: nothing to
            // report, but a well-formed record, never a torn one.
            Some("heartbeat") => true,
            Some("fail") => {
                prior.failed += 1;
                true
            }
            Some("timeout") => {
                prior.timed_out += 1;
                true
            }
            Some("cancelled") => {
                prior.cancelled = Some(it.next().unwrap_or("").to_string());
                true
            }
            Some("complete") => {
                completed = true;
                true
            }
            _ => false, // torn or unknown record
        };
        // Count the crash signature — an unparseable *final* record
        // (where a torn append lands) or one carrying lossy-decode
        // replacement characters (torn mid-UTF-8). Interior unknown
        // kinds stay silently ignored: they are future record types.
        if !parsed && (i + 1 == rest.len() || line.contains('\u{FFFD}')) {
            prior.torn_records += 1;
        }
    }
    if completed && prior.failed == 0 && prior.timed_out == 0 {
        return None;
    }
    begun.then_some(prior)
}

/// An open journal for the sweep in progress. Dropping it without
/// [`SweepJournal::complete`] leaves the interrupted-sweep marker in
/// place — exactly what a crash does.
pub struct SweepJournal {
    file: Mutex<std::fs::File>,
}

impl SweepJournal {
    /// Truncate `path` and open a fresh journal recording a sweep of
    /// `total` points. Returns `None` if the file cannot be written (the
    /// sweep proceeds unjournaled).
    pub fn start(path: &Path, total: usize) -> Option<SweepJournal> {
        let mut f =
            std::fs::OpenOptions::new().create(true).write(true).truncate(true).open(path).ok()?;
        writeln!(f, "{HEADER}\nbegin\t{total}").ok()?;
        f.flush().ok()?;
        Some(SweepJournal { file: Mutex::new(f) })
    }

    fn append(&self, record: &str) {
        let mut f = self.file.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writeln!(f, "{record}");
        let _ = f.flush();
    }

    /// Record one point whose measurement panicked.
    pub fn fail(&self, variant: &str, n: i32, error: &str) {
        self.append(&format!("fail\t{}\t{n}\t{}", sanitize(variant), sanitize(error)));
    }

    /// Record one point killed by the per-point deadline.
    pub fn timeout(&self, variant: &str, n: i32, error: &str) {
        self.append(&format!("timeout\t{}\t{n}\t{}", sanitize(variant), sanitize(error)));
    }

    /// Record an orderly cancellation (terminal).
    pub fn cancelled(&self, reason: &str) {
        self.append(&format!("cancelled\t{}", sanitize(reason)));
    }

    /// Record sweep completion (terminal): the next load sees nothing
    /// to resume.
    pub fn complete(&self) {
        self.append("complete");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdesched_testkit::TempDir;

    #[test]
    fn cleanly_completed_sweep_leaves_nothing_to_resume() {
        let dir = TempDir::new("journal");
        let path = dir.file("traffic.txt.journal");
        let j = SweepJournal::start(&path, 7).unwrap();
        j.complete();
        assert_eq!(load(&path), None);
    }

    #[test]
    fn completed_sweep_with_failures_is_still_resumable() {
        // A failed or timed-out point is missing from the store even
        // though the sweep itself ran to the end; the next sweep must
        // see it and re-attempt.
        let dir = TempDir::new("journal");
        let path = dir.file("traffic.txt.journal");
        let j = SweepJournal::start(&path, 7).unwrap();
        j.fail("sf", 16, "boom");
        j.complete();
        assert_eq!(load(&path), Some(PriorSweep { total: 7, failed: 1, ..Default::default() }));
    }

    #[test]
    fn interrupted_sweep_is_reported_with_counts() {
        let dir = TempDir::new("journal");
        let path = dir.file("traffic.txt.journal");
        let j = SweepJournal::start(&path, 9).unwrap();
        j.fail("sf", 16, "boom\twith\ttabs");
        j.timeout("clo-4", 32, "point deadline");
        j.timeout("clo-4", 64, "point deadline");
        drop(j); // crash: no terminal record
        assert_eq!(
            load(&path),
            Some(PriorSweep { total: 9, failed: 1, timed_out: 2, ..Default::default() })
        );
        // A cancelled sweep carries its reason.
        let j = SweepJournal::start(&path, 3).unwrap();
        j.cancelled("signal SIGINT");
        assert_eq!(
            load(&path),
            Some(PriorSweep {
                total: 3,
                cancelled: Some("signal SIGINT".into()),
                ..Default::default()
            })
        );
    }

    #[test]
    fn start_truncates_previous_journal() {
        let dir = TempDir::new("journal");
        let path = dir.file("traffic.txt.journal");
        let j = SweepJournal::start(&path, 5).unwrap();
        j.fail("sf", 8, "x");
        drop(j);
        let j = SweepJournal::start(&path, 2).unwrap();
        j.complete();
        drop(j);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.contains("fail"), "old records must be gone: {text}");
        assert_eq!(load(&path), None);
    }

    #[test]
    fn missing_or_foreign_file_yields_none() {
        let dir = TempDir::new("journal");
        assert_eq!(load(&dir.file("absent")), None);
        let p = dir.file("foreign");
        std::fs::write(&p, "not a journal\nbegin\t4\n").unwrap();
        assert_eq!(load(&p), None);
    }

    #[test]
    fn torn_trailing_record_is_ignored_and_counted() {
        let dir = TempDir::new("journal");
        let path = dir.file("traffic.txt.journal");
        let j = SweepJournal::start(&path, 4).unwrap();
        j.fail("sf", 8, "x");
        drop(j);
        // Simulate a crash mid-append of a further record.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("timeo");
        std::fs::write(&path, text).unwrap();
        assert_eq!(
            load(&path),
            Some(PriorSweep { total: 4, failed: 1, torn_records: 1, ..Default::default() })
        );
    }

    #[test]
    fn non_utf8_torn_tail_does_not_condemn_the_journal() {
        // A crash can cut an append mid-UTF-8 sequence (error texts are
        // arbitrary strings); the invalid bytes must cost exactly the
        // torn record, not the whole journal. This was a real bug:
        // `read_to_string` returned Err and `load` reported "nothing to
        // resume" for a journal full of intact records.
        let dir = TempDir::new("journal");
        let path = dir.file("traffic.txt.journal");
        let j = SweepJournal::start(&path, 6).unwrap();
        j.fail("sf", 16, "boom");
        j.timeout("clo-4", 32, "point deadline");
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        // "fail\tsf\t8\tcafé" torn after the é's first byte.
        bytes.extend_from_slice("fail\tsf\t8\tcaf".as_bytes());
        bytes.push(0xC3);
        std::fs::write(&path, &bytes).unwrap();
        let prior = load(&path).expect("intact records must survive a torn tail");
        assert_eq!(prior.total, 6);
        assert_eq!(prior.timed_out, 1);
        // The torn fail record still begins with a well-formed "fail"
        // kind, so it parses (its error text carries the replacement
        // char) — the intact fail plus the torn one.
        assert_eq!(prior.failed, 2);
        // A tail torn *inside the record kind* is unparseable and is
        // counted instead of silently vanishing.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 14); // back to intact records
        bytes.extend_from_slice(b"time");
        bytes.push(0xE2); // first byte of a 3-byte sequence
        std::fs::write(&path, &bytes).unwrap();
        let prior = load(&path).expect("must load");
        assert_eq!((prior.failed, prior.timed_out, prior.torn_records), (1, 1, 1));
    }

    #[test]
    fn legacy_begin_without_pid_or_timestamp_still_loads() {
        // The oldest journals carried a bare `begin\t<total>`, the
        // format new sweeps write again; it must stay readable.
        let dir = TempDir::new("journal");
        let path = dir.file("traffic.txt.journal");
        std::fs::write(&path, format!("{HEADER}\nbegin\t6\nfail\tsf\t16\tboom\n")).unwrap();
        assert_eq!(load(&path), Some(PriorSweep { total: 6, failed: 1, ..Default::default() }));
    }

    #[test]
    fn interleaved_writers_and_duplicate_begins_are_last_writer_wins() {
        // A journal an older binary left behind when several writers
        // appended to it: writer 111 began with a pid and timestamp,
        // beat, failed a point, was SIGKILL'd mid-record; writer 222
        // began over the same file and beat again. The journal must
        // stay loadable, totals from the newest begin, failure counts
        // accumulated, and a trailing heartbeat is a well-formed
        // record, not a torn one.
        let dir = TempDir::new("journal");
        let path = dir.file("traffic.txt.journal");
        std::fs::write(
            &path,
            format!(
                "{HEADER}\n\
                 begin\t9\t111\t1000\n\
                 heartbeat\t111\t2000\n\
                 fail\tsf\t16\tboom\n\
                 hear\u{0}tbeat garbage not a record\n\
                 begin\tnot-a-number\t111\t2500\n\
                 begin\t5\t222\t3000\n\
                 heartbeat\t222\t4000\n"
            ),
        )
        .unwrap();
        let prior = load(&path).expect("interleaved journal must load");
        assert_eq!(prior.total, 5, "newest begin wins");
        assert_eq!(prior.failed, 1, "failures accumulate across writers");
        assert_eq!(prior.torn_records, 0, "heartbeat records are not torn");
    }
}
