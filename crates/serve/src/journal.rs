//! A write-ahead job journal: accepted work survives a daemon crash.
//!
//! Every compile job the server accepts is appended here **before** it
//! enters the queue (`accepted` record, fsync'd — write-ahead), and again
//! when it has been answered (`completed` record). A killed daemon
//! restarts, replays the journal, and re-enqueues every job that was
//! accepted but never completed; the recompiled results land in the
//! result cache, where the original submitter collects them with the
//! `poll` protocol op.
//!
//! Format: `journal.jsonl` in the journal directory, one record per line:
//!
//! ```text
//! {"rec":"accepted","key":"<16 hex>","program":<string>,"options":{…},
//!  "trace":<string>?,"priority":<int>?,"plan":"<16 hex>"?}
//! {"rec":"step","key":"<16 hex>","plan":"<16 hex>","step":<int>}
//! {"rec":"completed","key":"<16 hex>","trace":<string>?}
//! ```
//!
//! The `trace` field is the job's trace id (client-supplied or
//! server-assigned). It rides both records so a job can be correlated
//! with its telemetry across a crash: the replayed job keeps the original
//! trace id, and the `completed` record written by the *next* daemon
//! still names it. `priority` rides the accepted record so a replayed
//! job keeps its queue position class.
//!
//! **Plan progress.** `plan` on the accepted record is the fingerprint of
//! the job's [`CompilePlan`](chipmunk::plan::CompilePlan); each `step`
//! record marks one plan step that finished *without producing the
//! answer* (the winning step writes `completed` instead). On replay, the
//! contiguous prefix of journaled steps becomes
//! [`PendingJob::resume_from`], so a kill-restart resumes a half-executed
//! plan at its first unfinished step instead of redoing solved depths —
//! but only when the replaying daemon re-derives the *same* fingerprint
//! (the server checks; a planner change restarts the plan from step 0).
//! Step records are flushed but not fsync'd: losing one merely repeats a
//! step, the same at-least-once discipline as `completed`.
//!
//! Records are keyed by the job's content-addressed cache key, so twin
//! submissions collapse into one pending entry and one replay. A
//! `completed` record is written for *every* terminal answer — success,
//! typed failure, even a drain at shutdown — because "pending" means "a
//! client was promised an answer that was never produced", not "the
//! compile succeeded". Jobs that die with a worker write no `completed`
//! record and replay on the next start, which is exactly the at-least-once
//! retry the client was told is safe.
//!
//! The file is an `AppendLog` (`append_log.rs`), like the cache's disk
//! tier; the journal owns only its pending set and step index. Only
//! `accepted` records are fsync'd: losing a `step` or `completed` line
//! merely repeats a step or one recompile. Compaction (dropping completed
//! pairs) is a log rewrite, run at startup when the file holds more than
//! the pending records and whenever completed pairs dominate the file. On
//! an I/O error the journal keeps tracking pending jobs in memory and
//! reports `journal_degraded` in stats until the log re-attaches.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};

use chipmunk_trace::json::Json;

use crate::append_log::AppendLog;
use crate::protocol::JobOptions;

/// A journaled job that was accepted but never answered: replay it.
pub struct PendingJob {
    /// Content-addressed cache key of the job.
    pub key: String,
    /// The submitted program source.
    pub program: String,
    /// The submitted compile options.
    pub options: JobOptions,
    /// Trace id of the original submission, if one was journaled.
    pub trace: Option<String>,
    /// Queue priority of the original submission (0 when not journaled).
    pub priority: u8,
    /// Fingerprint of the plan the previous daemon was executing.
    pub plan: Option<String>,
    /// First plan step not journaled as finished — where to resume,
    /// *provided* the replaying daemon re-derives the same `plan`
    /// fingerprint.
    pub resume_from: usize,
}

impl PendingJob {
    /// Where the replay starts: [`PendingJob::resume_from`] when the
    /// replaying daemon derives the same plan fingerprint the previous one
    /// journaled, else step 0 — a planner (or options) change restarts
    /// the plan.
    pub fn resume_offset(&self, derived_plan: Option<&str>) -> usize {
        match (derived_plan, self.plan.as_deref()) {
            (Some(derived), Some(journaled)) if derived == journaled => self.resume_from,
            _ => 0,
        }
    }
}

/// Journaled per-plan progress of one pending job.
#[derive(Default)]
struct StepProgress {
    /// Completed (non-winning) step indices, deduplicated.
    done: std::collections::BTreeSet<usize>,
}

impl StepProgress {
    /// Length of the contiguous completed prefix `0..n` — the safe
    /// resume offset (a hole means that step never finished; everything
    /// after it must re-run because groups execute in order).
    fn resume_from(&self) -> usize {
        let mut n = 0;
        while self.done.contains(&n) {
            n += 1;
        }
        n
    }
}

/// One `step` record.
fn step_record(key: &str, plan: &str, step: usize) -> Json {
    Json::obj([
        ("rec", Json::from("step")),
        ("key", Json::from(key)),
        ("plan", Json::from(plan)),
        ("step", Json::from(step as u64)),
    ])
}

#[derive(Default)]
struct Inner {
    /// Pending `accepted` records by key (the full record document).
    pending: HashMap<String, Json>,
    /// Per-key plan progress (only meaningful while the key is pending;
    /// keyed by (job key → plan fingerprint, finished steps)).
    steps: HashMap<String, (String, StepProgress)>,
    /// Keys in first-accepted order, possibly holding completed stragglers
    /// (filtered against `pending` when used).
    order: Vec<String>,
}

impl Inner {
    /// Fold one journal line into the pending set and step index.
    fn load(&mut self, line: &str) {
        let Ok(doc) = Json::parse(line) else {
            return; // torn line from a crash mid-append
        };
        let (Some(rec), Some(key)) = (
            doc.get("rec").and_then(Json::as_str),
            doc.get("key").and_then(Json::as_str),
        ) else {
            return;
        };
        match rec {
            "accepted" => {
                if !self.pending.contains_key(key) {
                    self.order.push(key.to_string());
                }
                self.pending.entry(key.to_string()).or_insert(doc);
            }
            "step" => {
                let (Some(plan), Some(step)) = (
                    doc.get("plan").and_then(Json::as_str),
                    doc.get("step")
                        .and_then(Json::as_u64)
                        .and_then(|v| usize::try_from(v).ok()),
                ) else {
                    return;
                };
                // Progress only counts against the plan it was made
                // under; a fingerprint change voids it.
                let entry = self
                    .steps
                    .entry(key.to_string())
                    .or_insert_with(|| (plan.to_string(), StepProgress::default()));
                if entry.0 == plan {
                    entry.1.done.insert(step);
                }
            }
            "completed" => {
                self.pending.remove(key);
                self.steps.remove(key);
            }
            _ => {}
        }
    }

    /// The job journaled under `key`, if it is pending and replayable.
    fn pending_job(&self, key: &str) -> Option<PendingJob> {
        let doc = self.pending.get(key)?;
        let program = doc.get("program").and_then(Json::as_str)?.to_string();
        let options = match doc.get("options") {
            None | Some(Json::Null) => JobOptions::default(),
            Some(o) => JobOptions::from_json(o).ok()?,
        };
        let journaled_plan = doc.get("plan").and_then(Json::as_str);
        let (plan, resume_from) = match (journaled_plan, self.steps.get(key)) {
            // Progress is only trusted when the step records' fingerprint
            // matches the accepted record's.
            (Some(p), Some((sp, prog))) if p == sp => (Some(p.to_string()), prog.resume_from()),
            (p, _) => (p.map(str::to_string), 0),
        };
        Some(PendingJob {
            key: key.to_string(),
            program,
            options,
            trace: doc.get("trace").and_then(Json::as_str).map(str::to_string),
            priority: doc
                .get("priority")
                .and_then(Json::as_u64)
                .and_then(|v| u8::try_from(v).ok())
                .unwrap_or(0),
            plan,
            resume_from,
        })
    }

    /// The live records — pending accepts, each followed by its surviving
    /// step records — in first-accepted order.
    fn live_records(&self) -> impl Iterator<Item = Json> + '_ {
        self.order
            .iter()
            .filter_map(|key| {
                let accepted = self.pending.get(key)?.clone();
                let steps = self
                    .steps
                    .get(key)
                    .into_iter()
                    .flat_map(move |(plan, prog)| {
                        prog.done
                            .iter()
                            .map(move |&step| step_record(key, plan, step))
                    });
                Some(std::iter::once(accepted).chain(steps))
            })
            .flatten()
    }
}

/// The write-ahead journal. All operations are crash-tolerant and
/// serving-path-safe: an I/O error degrades the journal instead of
/// failing the request that touched it.
pub struct Journal {
    inner: Mutex<Inner>,
    log: AppendLog,
}

fn lock(m: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

impl Journal {
    /// Open (or create) `dir/journal.jsonl`, returning the journal plus
    /// every job accepted by a previous process but never completed, in
    /// first-accepted order. The file is compacted down to those pending
    /// records so completed history does not accumulate across restarts.
    pub fn open(dir: &Path) -> std::io::Result<(Journal, Vec<PendingJob>)> {
        let mut inner = Inner::default();
        let log = AppendLog::open(&dir.join("journal.jsonl"), None, |line| inner.load(line))?;
        let Inner {
            pending,
            steps,
            order,
        } = &mut inner;
        steps.retain(|k, _| pending.contains_key(k));
        // A completed-then-reaccepted key appears in `order` once per
        // accept; replay must see it once.
        let mut seen = std::collections::HashSet::new();
        order.retain(|k| seen.insert(k.clone()));
        let replay = inner
            .order
            .iter()
            .filter_map(|key| inner.pending_job(key))
            .collect();
        // Startup compaction: completed history (and anything corrupt) is
        // dead weight the next start would re-parse.
        let live = inner.live_records().count() as u64;
        let journal = Journal {
            inner: Mutex::new(inner),
            log,
        };
        if journal.log.lines() > live {
            let _ = journal.compact();
        }
        Ok((journal, replay))
    }

    /// Write-ahead record: `key` was accepted and owes an answer. Fsync'd
    /// — after this returns, a killed daemon will replay the job. The
    /// trace id (when given) rides the record so the replayed job keeps
    /// its correlation across the restart; for twin submissions sharing a
    /// key, the first accept's trace id wins. `priority` keeps the job's
    /// queue class across a restart; `plan` is the compile-plan
    /// fingerprint later `step` records will be checked against.
    pub fn accepted(
        &self,
        key: &str,
        program: &str,
        options: &JobOptions,
        trace: Option<&str>,
        priority: u8,
        plan: Option<&str>,
    ) {
        let mut pairs = vec![
            ("rec".to_string(), Json::from("accepted")),
            ("key".to_string(), Json::from(key)),
            ("program".to_string(), Json::from(program)),
            ("options".to_string(), options.to_json()),
        ];
        if let Some(t) = trace {
            pairs.push(("trace".to_string(), Json::from(t)));
        }
        if priority > 0 {
            pairs.push(("priority".to_string(), Json::from(u64::from(priority))));
        }
        if let Some(p) = plan {
            pairs.push(("plan".to_string(), Json::from(p)));
        }
        let doc = Json::Obj(pairs);
        let mut inner = lock(&self.inner);
        if !inner.pending.contains_key(key) {
            let key = key.to_string();
            inner.order.push(key.clone());
            inner.pending.insert(key, doc.clone());
        }
        self.append(inner, &doc, true, u64::MAX);
    }

    /// Progress record: plan step `step` of the plan fingerprinted `plan`
    /// finished without producing the answer. Flushed but not fsync'd —
    /// losing one repeats a step, which is safe. Ignored for keys that are
    /// not pending or whose journaled fingerprint disagrees (a replan
    /// voids old progress).
    pub fn step(&self, key: &str, plan: &str, step: usize) {
        let mut inner = lock(&self.inner);
        if !inner.pending.contains_key(key) {
            return;
        }
        let entry = inner
            .steps
            .entry(key.to_string())
            .or_insert_with(|| (plan.to_string(), StepProgress::default()));
        if entry.0 != plan {
            // New plan for the same key: previous progress is void.
            *entry = (plan.to_string(), StepProgress::default());
        }
        if !entry.1.done.insert(step) {
            return; // already journaled
        }
        self.append(inner, &step_record(key, plan, step), false, u64::MAX);
    }

    /// Terminal record: `key` has been answered (by any outcome). The
    /// record echoes the trace id journaled by the matching `accepted`.
    pub fn completed(&self, key: &str) {
        let mut inner = lock(&self.inner);
        let Some(accepted) = inner.pending.remove(key) else {
            return; // unknown or already-completed key: nothing owed
        };
        inner.steps.remove(key);
        let mut pairs = vec![
            ("rec".to_string(), Json::from("completed")),
            ("key".to_string(), Json::from(key)),
        ];
        if let Some(t) = accepted.get("trace").and_then(Json::as_str) {
            pairs.push(("trace".to_string(), Json::from(t)));
        }
        // Once completed pairs dominate the file, fold them away.
        let compact_above = 2 * inner.pending.len() as u64 + 16;
        self.append(inner, &Json::Obj(pairs), false, compact_above);
    }

    /// Append under the journal lock (so file order matches the in-memory
    /// order), then compact if the log asks for it.
    fn append(&self, inner: MutexGuard<'_, Inner>, doc: &Json, sync: bool, compact_above: u64) {
        if self.log.append(doc, sync, compact_above) {
            drop(inner);
            let _ = self.compact();
        }
    }

    /// Rewrite the journal down to its pending records and their step
    /// progress (crash-safe, see `AppendLog::rewrite`). Also the
    /// degraded-mode recovery path: a successful rewrite re-attaches the
    /// file.
    pub fn compact(&self) -> std::io::Result<()> {
        let mut inner = lock(&self.inner);
        let Inner { pending, order, .. } = &mut *inner;
        order.retain(|k| pending.contains_key(k));
        self.log.rewrite(inner.live_records())?;
        Ok(())
    }

    /// Jobs currently owed an answer.
    pub fn pending_len(&self) -> usize {
        lock(&self.inner).pending.len()
    }

    /// I/O errors absorbed so far.
    pub fn errors(&self) -> u64 {
        self.log.errors()
    }

    /// Whether writes are currently disabled after an I/O error.
    pub fn degraded(&self) -> bool {
        self.log.degraded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "chipmunk-serve-journal-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn opts_with_width(w: u8) -> JobOptions {
        JobOptions {
            width: Some(w),
            ..JobOptions::default()
        }
    }

    #[test]
    fn unfinished_jobs_replay_in_accept_order() {
        let dir = tmpdir("replay");
        {
            let (j, replay) = Journal::open(&dir).unwrap();
            assert!(replay.is_empty());
            j.accepted(
                "k1",
                "pkt.a = pkt.b;",
                &opts_with_width(6),
                Some("t-abc"),
                0,
                None,
            );
            j.accepted("k2", "pkt.c = pkt.d;", &opts_with_width(7), None, 0, None);
            j.accepted(
                "k3",
                "pkt.e = pkt.f;",
                &JobOptions::default(),
                None,
                0,
                None,
            );
            j.completed("k2");
        }
        let (j, replay) = Journal::open(&dir).unwrap();
        let keys: Vec<&str> = replay.iter().map(|p| p.key.as_str()).collect();
        assert_eq!(keys, ["k1", "k3"]);
        assert_eq!(replay[0].program, "pkt.a = pkt.b;");
        assert_eq!(replay[0].options.width, Some(6));
        assert_eq!(replay[0].trace.as_deref(), Some("t-abc"));
        assert_eq!(replay[1].options.width, None);
        assert_eq!(replay[1].trace, None);
        // Startup compaction dropped the completed pair.
        assert_eq!(j.log.lines(), 2);
        assert_eq!(j.pending_len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_accepts_replay_once() {
        let dir = tmpdir("dup");
        {
            let (j, _) = Journal::open(&dir).unwrap();
            j.accepted("k", "pkt.a = pkt.b;", &JobOptions::default(), None, 0, None);
            j.accepted("k", "pkt.a = pkt.b;", &JobOptions::default(), None, 0, None);
        }
        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_lines_and_stray_completions_are_tolerated() {
        let dir = tmpdir("torn");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("journal.jsonl"),
            concat!(
                "{\"rec\":\"completed\",\"key\":\"ghost\"}\n",
                "{\"rec\":\"accepted\",\"key\":\"k1\",\"program\":\"pkt.a = pkt.b;\"}\n",
                "{\"rec\":\"accepted\",\"key\":\"k2\",\"prog", // torn mid-append
            ),
        )
        .unwrap();
        let (j, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].key, "k1");
        // Journal still accepts new records after the damage.
        j.accepted(
            "k3",
            "pkt.x = pkt.y;",
            &JobOptions::default(),
            None,
            0,
            None,
        );
        assert_eq!(j.pending_len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn completion_heavy_journals_self_compact() {
        let dir = tmpdir("selfcompact");
        let (j, _) = Journal::open(&dir).unwrap();
        for i in 0..40 {
            let key = format!("k{i}");
            j.accepted(
                &key,
                "pkt.a = pkt.b;",
                &JobOptions::default(),
                None,
                0,
                None,
            );
            j.completed(&key);
        }
        assert!(j.log.compactions() >= 1);
        let lines = j.log.lines();
        assert!(lines <= 18, "journal unbounded: {lines} lines");
        assert_eq!(j.pending_len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn completed_records_echo_the_accepted_trace_id() {
        let dir = tmpdir("traceecho");
        {
            let (j, _) = Journal::open(&dir).unwrap();
            j.accepted(
                "k1",
                "pkt.a = pkt.b;",
                &JobOptions::default(),
                Some("t-1"),
                3,
                None,
            );
            // Twin submission: the first accept's trace id wins.
            j.accepted(
                "k1",
                "pkt.a = pkt.b;",
                &JobOptions::default(),
                Some("t-2"),
                0,
                None,
            );
            j.completed("k1");
        }
        let text = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap();
        let completed: Vec<Json> = text
            .lines()
            .filter_map(|l| Json::parse(l).ok())
            .filter(|d| d.get("rec").and_then(Json::as_str) == Some("completed"))
            .collect();
        assert_eq!(completed.len(), 1);
        assert_eq!(
            completed[0].get("trace").and_then(Json::as_str),
            Some("t-1")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn options_round_trip_through_the_journal() {
        let dir = tmpdir("opts");
        let opts = JobOptions {
            template: Some("raw".into()),
            imm: Some(3),
            width: Some(8),
            max_stages: Some(2),
            timeout_ms: Some(5000),
            portfolio: Some(true),
            budget_conflicts: Some(1000),
            budget_propagations: Some(2000),
            budget_bytes: Some(1 << 20),
            ..JobOptions::default()
        };
        {
            let (j, _) = Journal::open(&dir).unwrap();
            j.accepted("k", "pkt.a = pkt.b;", &opts, None, 0, None);
        }
        let (_, replay) = Journal::open(&dir).unwrap();
        let got = &replay[0].options;
        assert_eq!(got.template, opts.template);
        assert_eq!(got.imm, opts.imm);
        assert_eq!(got.width, opts.width);
        assert_eq!(got.max_stages, opts.max_stages);
        assert_eq!(got.timeout_ms, opts.timeout_ms);
        assert_eq!(got.portfolio, opts.portfolio);
        assert_eq!(got.budget_conflicts, opts.budget_conflicts);
        assert_eq!(got.budget_propagations, opts.budget_propagations);
        assert_eq!(got.budget_bytes, opts.budget_bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn priority_and_plan_ride_the_accepted_record() {
        let dir = tmpdir("prio");
        {
            let (j, _) = Journal::open(&dir).unwrap();
            j.accepted(
                "k",
                "pkt.a = pkt.b;",
                &JobOptions::default(),
                Some("t-p"),
                7,
                Some("deadbeefdeadbeef"),
            );
        }
        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].priority, 7);
        assert_eq!(replay[0].plan.as_deref(), Some("deadbeefdeadbeef"));
        assert_eq!(replay[0].resume_from, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journaled_steps_become_the_resume_offset() {
        let dir = tmpdir("resume");
        let fp = "0123456789abcdef";
        {
            let (j, _) = Journal::open(&dir).unwrap();
            j.accepted(
                "k",
                "pkt.a = pkt.b;",
                &JobOptions::default(),
                None,
                0,
                Some(fp),
            );
            j.step("k", fp, 0);
            j.step("k", fp, 1);
            j.step("k", fp, 1); // duplicate: journaled once
        }
        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay[0].resume_from, 2, "contiguous prefix 0..2 done");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_hole_in_the_step_sequence_stops_the_resume_prefix() {
        let dir = tmpdir("hole");
        let fp = "0123456789abcdef";
        {
            let (j, _) = Journal::open(&dir).unwrap();
            j.accepted(
                "k",
                "pkt.a = pkt.b;",
                &JobOptions::default(),
                None,
                0,
                Some(fp),
            );
            j.step("k", fp, 0);
            j.step("k", fp, 2); // step 1 never finished
        }
        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay[0].resume_from, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_plan_fingerprint_voids_journaled_progress() {
        let dir = tmpdir("fpmismatch");
        {
            let (j, _) = Journal::open(&dir).unwrap();
            j.accepted(
                "k",
                "pkt.a = pkt.b;",
                &JobOptions::default(),
                None,
                0,
                Some("aaaaaaaaaaaaaaaa"),
            );
            // Step records from some other plan (e.g. a planner change
            // between accept and crash): must not be trusted.
            j.step("k", "bbbbbbbbbbbbbbbb", 0);
            j.step("k", "bbbbbbbbbbbbbbbb", 1);
        }
        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay[0].resume_from, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An older daemon journaled this job with `"parallel":true`, under
    /// the fingerprint of its depth-race plan (both depths in one racing
    /// group, for this program and these options). The removed option is ignored
    /// and the job still replays; today's planner derives the solo
    /// escalation plan instead, so the fingerprint check restarts it at
    /// step 0 rather than trusting the old plan's progress.
    #[test]
    fn a_depth_race_record_from_an_older_daemon_replays_from_step_zero() {
        let dir = tmpdir("depthrace");
        std::fs::create_dir_all(&dir).unwrap();
        let race_fp = "cefe5a762016af3f";
        let accepted = r#"{"rec":"accepted","key":"k","program":"pkt.a = pkt.b;","options":{"imm":4,"width":6,"max_stages":2,"timeout_ms":300000,"template":"if_else_raw","parallel":true,"portfolio":false},"plan":"cefe5a762016af3f"}"#;
        let step = r#"{"rec":"step","key":"k","plan":"cefe5a762016af3f","step":0}"#;
        std::fs::write(dir.join("journal.jsonl"), format!("{accepted}\n{step}\n")).unwrap();
        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.len(), 1);
        let job = &replay[0];
        assert_eq!(job.plan.as_deref(), Some(race_fp));
        assert_eq!(job.resume_from, 1, "progress matches the journaled plan");
        let opts = job.options.to_compiler_options().unwrap();
        assert!(!opts.parallel);
        let prog = chipmunk_lang::parse(&job.program).unwrap();
        let derived = chipmunk::plan_compilation(&prog, &opts)
            .unwrap()
            .fingerprint();
        assert_ne!(derived, race_fp);
        assert_eq!(job.resume_offset(Some(&derived)), 0);
        assert_eq!(job.resume_offset(Some(race_fp)), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn step_progress_survives_compaction() {
        let dir = tmpdir("stepcompact");
        let fp = "0123456789abcdef";
        {
            let (j, _) = Journal::open(&dir).unwrap();
            j.accepted(
                "k",
                "pkt.a = pkt.b;",
                &JobOptions::default(),
                None,
                0,
                Some(fp),
            );
            j.step("k", fp, 0);
            // Force churn so a compaction definitely runs.
            for i in 0..40 {
                let key = format!("churn{i}");
                j.accepted(
                    &key,
                    "pkt.c = pkt.d;",
                    &JobOptions::default(),
                    None,
                    0,
                    None,
                );
                j.completed(&key);
            }
            assert!(j.log.compactions() >= 1);
        }
        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].resume_from, 1, "step lost in compaction");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn completion_clears_step_progress() {
        let dir = tmpdir("stepclear");
        let fp = "0123456789abcdef";
        {
            let (j, _) = Journal::open(&dir).unwrap();
            j.accepted(
                "k",
                "pkt.a = pkt.b;",
                &JobOptions::default(),
                None,
                0,
                Some(fp),
            );
            j.step("k", fp, 0);
            j.completed("k");
            // Re-accept the same key: old progress must not leak into the
            // fresh job.
            j.accepted(
                "k",
                "pkt.a = pkt.b;",
                &JobOptions::default(),
                None,
                0,
                Some(fp),
            );
        }
        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].resume_from, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression: a journal whose startup compaction failed once stayed
    /// degraded forever — its re-attach hung on a line count that stops
    /// growing while degraded — so jobs accepted after the disk healed
    /// were never replayed. Now the log's re-attach cadence applies.
    #[test]
    fn a_failed_startup_compaction_reattaches_once_the_disk_heals() {
        let dir = tmpdir("reattach");
        {
            let (j, _) = Journal::open(&dir).unwrap();
            j.accepted(
                "done",
                "pkt.a = pkt.b;",
                &JobOptions::default(),
                None,
                0,
                None,
            );
            j.completed("done");
        }
        // A directory squatting on the temp path fails the rewrite.
        let tmp = dir.join("journal.jsonl.tmp");
        std::fs::create_dir_all(&tmp).unwrap();
        let (j, _) = Journal::open(&dir).unwrap();
        assert!(j.degraded(), "the failed startup compaction must degrade");
        assert_eq!(j.errors(), 1);
        std::fs::remove_dir(&tmp).unwrap();
        for i in 0..40 {
            let key = format!("k{i}");
            j.accepted(
                &key,
                "pkt.a = pkt.b;",
                &JobOptions::default(),
                None,
                0,
                None,
            );
            j.completed(&key);
        }
        assert!(!j.degraded(), "a healthy disk must re-attach the journal");
        assert!(j.log.compactions() >= 1);
        j.accepted(
            "late",
            "pkt.c = pkt.d;",
            &JobOptions::default(),
            None,
            0,
            None,
        );
        drop(j);
        let (_, replay) = Journal::open(&dir).unwrap();
        let keys: Vec<&str> = replay.iter().map(|p| p.key.as_str()).collect();
        assert_eq!(keys, ["late"], "a job accepted after re-attach must replay");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
