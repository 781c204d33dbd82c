//! One append-only JSONL file with crash-safe rewrites and a degraded mode.
//!
//! Both durable files of the daemon — the result cache's `results.jsonl`
//! ([`crate::cache`]) and the job journal's `journal.jsonl`
//! ([`crate::journal`]) — are an [`AppendLog`]. The owner keeps its
//! in-memory index (the cache's LRU map, the journal's pending set) and
//! hands the log records to append or a full retained set to rewrite; the
//! log owns everything about the file:
//!
//! - **Load.** [`AppendLog::open`] feeds every readable line to the owner.
//!   Torn or corrupt lines (a crash mid-append) are the owner's to skip; an
//!   *unreadable* line (I/O error, broken encoding) stops the load and
//!   counts as one dead line, so the owner's usual startup test — "does the
//!   file hold more lines than I retained?" — rewrites the damage away.
//! - **Append.** One `write` per record, then a flush; with `sync` also
//!   `sync_data`. Only the journal's `accepted` records ask for the fsync.
//! - **Rewrite.** The retained set goes to a temp file that is fsync'd and
//!   renamed over the log, and the append handle is reopened on the new
//!   file. A crash mid-rewrite leaves the previous file intact.
//! - **Degraded mode.** An I/O error never reaches the serving path: the
//!   log counts it, detaches, and skips appends while the owner keeps
//!   serving from memory. Every [`REATTACH_EVERY`]th skipped append asks
//!   the owner to rewrite from its retained set; the first success
//!   re-attaches the file with nothing lost.
//! - **Fault injection.** With a [`FaultKind`] hook (the cache uses
//!   `cache_io`), every append and rewrite first consults the seeded fault
//!   schedule.

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use chipmunk_trace::json::Json;

use crate::faults::{self, FaultKind};

/// While degraded, every this-many-th skipped append asks the owner to
/// retry re-attaching the file with a full rewrite.
pub const REATTACH_EVERY: u64 = 16;

/// An append-only JSONL file plus its health counters.
pub struct AppendLog {
    path: PathBuf,
    file: Mutex<File>,
    /// Fault kind consulted before every disk operation, if any.
    fault: Option<FaultKind>,
    /// Lines currently in the file, live or dead.
    lines: AtomicU64,
    /// Detached after an I/O error: appends are skipped until a rewrite
    /// succeeds.
    degraded: AtomicBool,
    /// Appends skipped while degraded, for the re-attach cadence.
    skipped: AtomicU64,
    /// I/O errors absorbed (appends and rewrites).
    errors: AtomicU64,
    /// Successful rewrites.
    compactions: AtomicU64,
}

impl AppendLog {
    /// Open (or create) the log at `path`, creating its directory, and pass
    /// every readable line to `on_line` in file order. Loading stops at the
    /// first unreadable line, which counts as a dead line in
    /// [`lines`](AppendLog::lines); the file still opens for append.
    pub fn open(
        path: &Path,
        fault: Option<FaultKind>,
        mut on_line: impl FnMut(&str),
    ) -> std::io::Result<AppendLog> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut lines = 0u64;
        if let Ok(f) = File::open(path) {
            for line in BufReader::new(f).lines() {
                lines += 1;
                match line {
                    Ok(line) => on_line(&line),
                    // The reader's position is no longer trustworthy:
                    // stop, and let the owner's rewrite drop the rest.
                    Err(_) => break,
                }
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(AppendLog {
            path: path.to_path_buf(),
            file: Mutex::new(file),
            fault,
            lines: AtomicU64::new(lines),
            degraded: AtomicBool::new(false),
            skipped: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
        })
    }

    fn injected_fault(&self) -> std::io::Result<()> {
        match self.fault {
            Some(kind) if faults::armed() && faults::fired(kind) => {
                Err(std::io::Error::other(format!("injected {kind:?} fault")))
            }
            _ => Ok(()),
        }
    }

    fn note_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
        if !self.degraded.swap(true, Ordering::Relaxed) {
            chipmunk_trace::counter_add!("serve.log.degraded", 1);
        }
    }

    /// Append one record (flushed; also `sync_data`'d when `sync`).
    ///
    /// Returns whether the owner should [`rewrite`](AppendLog::rewrite)
    /// now: either the file has grown past `compact_above` lines, or the
    /// log is degraded and this skipped append is a re-attach probe.
    pub fn append(&self, record: &Json, sync: bool, compact_above: u64) -> bool {
        if self.degraded.load(Ordering::Relaxed) {
            let skipped = self.skipped.fetch_add(1, Ordering::Relaxed) + 1;
            return skipped.is_multiple_of(REATTACH_EVERY);
        }
        let mut line = record.to_compact();
        line.push('\n');
        let written = (|| -> std::io::Result<u64> {
            self.injected_fault()?;
            let mut f = self.file.lock().unwrap_or_else(|p| p.into_inner());
            f.write_all(line.as_bytes())?;
            f.flush()?;
            if sync {
                f.sync_data()?;
            }
            // Counted under the file lock, so a concurrent rewrite cannot
            // reset the count between the write and the increment.
            Ok(self.lines.fetch_add(1, Ordering::Relaxed) + 1)
        })();
        match written {
            Ok(lines) => lines > compact_above,
            Err(_) => {
                self.note_error();
                false
            }
        }
    }

    /// Replace the file with exactly `records` (temp file, fsync, rename,
    /// reopen the append handle). Success also re-attaches a degraded log;
    /// failure counts an error and degrades it, and is returned so an
    /// on-demand caller can report it. Returns `(lines_before,
    /// lines_after)`.
    pub fn rewrite(&self, records: impl IntoIterator<Item = Json>) -> std::io::Result<(u64, u64)> {
        let mut file = self.file.lock().unwrap_or_else(|p| p.into_inner());
        let before = self.lines.load(Ordering::Relaxed);
        let rewritten = (|| -> std::io::Result<u64> {
            self.injected_fault()?;
            let tmp_path = self.path.with_extension("jsonl.tmp");
            let mut w = BufWriter::new(File::create(&tmp_path)?);
            let mut after = 0u64;
            for record in records {
                writeln!(w, "{}", record.to_compact())?;
                after += 1;
            }
            w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
            std::fs::rename(&tmp_path, &self.path)?;
            // The old handle points at the unlinked file.
            *file = OpenOptions::new().append(true).open(&self.path)?;
            Ok(after)
        })();
        match rewritten {
            Ok(after) => {
                self.lines.store(after, Ordering::Relaxed);
                self.degraded.store(false, Ordering::Relaxed);
                self.skipped.store(0, Ordering::Relaxed);
                self.compactions.fetch_add(1, Ordering::Relaxed);
                chipmunk_trace::counter_add!("serve.log.compacted", 1);
                Ok((before, after))
            }
            Err(e) => {
                self.note_error();
                Err(e)
            }
        }
    }

    /// Lines currently in the file, live or dead.
    pub fn lines(&self) -> u64 {
        self.lines.load(Ordering::Relaxed)
    }

    /// Whether the file is detached after an I/O error.
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// I/O errors absorbed so far (failed appends and rewrites).
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Completed rewrites.
    pub fn compactions(&self) -> u64 {
        self.compactions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("chipmunk-serve-log-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn rec(v: u64) -> Json {
        Json::obj([("v", Json::from(v))])
    }

    fn load(path: &Path) -> (AppendLog, Vec<String>) {
        let mut seen = Vec::new();
        let log = AppendLog::open(path, None, |l| seen.push(l.to_string())).unwrap();
        (log, seen)
    }

    #[test]
    fn appends_survive_reopen_and_rewrite_replaces_the_file() {
        let dir = tmpdir("basic");
        let path = dir.join("x.jsonl");
        {
            let (log, seen) = load(&path);
            assert!(seen.is_empty());
            assert!(!log.append(&rec(1), false, u64::MAX));
            assert!(!log.append(&rec(2), true, u64::MAX));
            assert!(
                log.append(&rec(3), false, 2),
                "past the bound asks for a rewrite"
            );
            assert_eq!(log.lines(), 3);
            assert_eq!(log.rewrite([rec(3)]).unwrap(), (3, 1));
            // The reopened handle appends to the new file.
            log.append(&rec(4), false, u64::MAX);
        }
        let (log, seen) = load(&path);
        assert_eq!(seen, ["{\"v\":3}", "{\"v\":4}"]);
        assert_eq!((log.lines(), log.compactions()), (2, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unreadable_line_stops_the_load_and_counts_as_dead() {
        let dir = tmpdir("unreadable");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.jsonl");
        std::fs::write(&path, b"{\"v\":1}\n\xff\xfe broken\n{\"v\":2}\n").unwrap();
        let (log, seen) = load(&path);
        assert_eq!(seen, ["{\"v\":1}"]);
        assert_eq!(log.lines(), 2, "the unreadable line is a dead line");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A failed rewrite degrades the log; once the disk is healthy, the
    /// re-attach cadence asks for a rewrite and its success re-attaches.
    #[test]
    fn a_failed_rewrite_degrades_until_a_reattach_probe_succeeds() {
        let dir = tmpdir("reattach");
        let path = dir.join("x.jsonl");
        let (log, _) = load(&path);
        // A directory squatting on the temp path makes the rewrite fail.
        let tmp = path.with_extension("jsonl.tmp");
        std::fs::create_dir_all(&tmp).unwrap();
        assert!(log.rewrite([rec(1)]).is_err());
        assert!(log.degraded());
        assert_eq!(log.errors(), 1);
        std::fs::remove_dir(&tmp).unwrap();
        let probes = (0..2 * REATTACH_EVERY)
            .filter(|_| log.append(&rec(0), false, u64::MAX))
            .count();
        assert_eq!(probes, 2, "one probe per {REATTACH_EVERY} skipped appends");
        assert_eq!(log.lines(), 0, "degraded appends are skipped");
        log.rewrite([rec(7)]).unwrap();
        assert!(!log.degraded());
        log.append(&rec(8), false, u64::MAX);
        assert_eq!(log.lines(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
