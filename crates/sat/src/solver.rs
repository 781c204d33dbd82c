//! The CDCL search engine.
//!
//! The architecture follows the MiniSat lineage: a single trail of assigned
//! literals with per-literal reason clauses, two-watched-literal propagation,
//! first-UIP conflict analysis, VSIDS decision ordering, phase saving, Luby
//! restarts, and LBD-driven learnt-clause database reduction.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::drat::{Certificate, ProofStep};
use crate::heap::ActivityHeap;
use crate::luby::luby;
use crate::{LBool, Lit, Var};

/// Outcome of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found; query it with [`Solver::value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The search gave up because a conflict budget or deadline was hit.
    Unknown,
}

/// Hard resource ceilings for the solver (`None` = unlimited).
///
/// `conflicts` and `propagations` bound the work of a single `solve`
/// call — or, when a shared [`BudgetAccount`] is installed with
/// [`Solver::set_budget_account`], the *cumulative* work of every solve
/// charged to that account, so a job that spreads its search over many
/// solvers still answers to one ledger. `clause_bytes` bounds the live
/// bytes held by clause literal arrays (original + learnt) across the
/// solver's whole lifetime.
/// Tripping any ceiling makes `solve` return [`SolveResult::Unknown`]
/// instead of growing past it: an original clause that would overflow
/// the byte ceiling is *dropped* (which only weakens the formula, so a
/// later `Unsat` stays sound, while `Sat` is downgraded to `Unknown`),
/// and a learnt clause that would overflow first triggers a database
/// reduction and, if still over, ends the solve.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct ResourceBudget {
    /// Max conflicts per `solve` call (cumulative across solves when a
    /// [`BudgetAccount`] is installed). Checked after every conflict, so
    /// the spend never exceeds the ceiling.
    pub conflicts: Option<u64>,
    /// Max unit propagations per `solve` call (cumulative across solves
    /// when a [`BudgetAccount`] is installed). Checked before every trail
    /// pop, so the spend never exceeds the ceiling.
    pub propagations: Option<u64>,
    /// Max live bytes of clause literal storage (original + learnt).
    pub clause_bytes: Option<u64>,
}

impl ResourceBudget {
    /// No ceilings at all.
    pub const UNLIMITED: ResourceBudget = ResourceBudget {
        conflicts: None,
        propagations: None,
        clause_bytes: None,
    };

    /// Does this budget impose any ceiling?
    pub fn is_limited(&self) -> bool {
        self.conflicts.is_some() || self.propagations.is_some() || self.clause_bytes.is_some()
    }
}

/// A shared, job-wide ledger of solver work.
///
/// Every [`Solver`] that has the account installed (see
/// [`Solver::set_budget_account`]) snapshots the ledger when a `solve`
/// starts, counts its own spend on top of that snapshot against the
/// [`ResourceBudget`] work ceilings, and charges its spend back when the
/// solve returns. A job that runs many solves — the CEGIS loop runs one
/// synthesis solve plus up to two verification solves per iteration —
/// therefore debits one cumulative budget instead of re-arming a fresh
/// ceiling per solver.
///
/// Charging uses relaxed atomics: exact for sequential jobs; concurrent
/// racing siblings sharing an account each see the ledger as of their own
/// solve start, so overshoot is bounded by the in-flight solves' remaining
/// allowances rather than unbounded re-arming.
#[derive(Debug, Default)]
pub struct BudgetAccount {
    conflicts: AtomicU64,
    propagations: AtomicU64,
    /// Job-wide wall-clock deadline. Every solver with this account
    /// installed folds it into its own deadline polling at solve start,
    /// so a caller can bound a whole job's wall time with one store even
    /// when the job spreads its search over many solvers that never see
    /// [`Solver::set_deadline`] individually.
    deadline: Mutex<Option<Instant>>,
}

impl BudgetAccount {
    /// A fresh, empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total conflicts charged so far.
    pub fn conflicts(&self) -> u64 {
        self.conflicts.load(Ordering::Relaxed)
    }

    /// Total unit propagations charged so far.
    pub fn propagations(&self) -> u64 {
        self.propagations.load(Ordering::Relaxed)
    }

    /// Debit one solve's work.
    pub fn charge(&self, conflicts: u64, propagations: u64) {
        self.conflicts.fetch_add(conflicts, Ordering::Relaxed);
        self.propagations.fetch_add(propagations, Ordering::Relaxed);
    }

    /// Install (or clear) the job-wide wall-clock deadline shared by every
    /// solver on this account.
    pub fn set_deadline(&self, deadline: Option<Instant>) {
        *self.deadline.lock().unwrap_or_else(|p| p.into_inner()) = deadline;
    }

    /// The job-wide wall-clock deadline, if one is installed.
    pub fn deadline(&self) -> Option<Instant> {
        *self.deadline.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Counters describing the work a solver has performed.
#[derive(Clone, Copy, Default, Debug)]
pub struct SolverStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database.
    pub learnts: u64,
    /// Number of learnt clauses deleted by database reduction.
    pub deleted: u64,
    /// Number of times a [`ResourceBudget`] ceiling ended or weakened a
    /// solve (conflict/propagation ceilings hit, or a clause dropped or
    /// refused by the byte ceiling).
    pub budget_trips: u64,
}

const REASON_NONE: u32 = u32::MAX;

/// Bounded in-memory DRAT proof log: the original clauses exactly as the
/// caller added them (pre level-0 simplification) plus every learnt clause
/// and deletion in derivation order. A hard byte budget keeps a pathological
/// solve from turning the log into a memory bomb — overflowing marks the
/// log `truncated` and frees it, which downstream layers surface as an
/// explicitly unchecked verdict (never a panic, never silent).
#[derive(Debug)]
struct ProofLog {
    originals: Vec<Vec<Lit>>,
    steps: Vec<ProofStep>,
    bytes: u64,
    limit: u64,
    truncated: bool,
}

/// Approximate heap overhead of one logged clause beyond its literals.
const PROOF_CLAUSE_OVERHEAD: u64 = 24;

impl ProofLog {
    fn new(limit: u64) -> ProofLog {
        ProofLog {
            originals: Vec::new(),
            steps: Vec::new(),
            bytes: 0,
            limit,
            truncated: false,
        }
    }

    /// Reserve space for a clause of `lits`; on overflow the log degrades
    /// to the truncated state and drops what it held.
    fn charge(&mut self, lits: &[Lit]) -> bool {
        if self.truncated {
            return false;
        }
        let b = std::mem::size_of_val(lits) as u64 + PROOF_CLAUSE_OVERHEAD;
        if self.bytes + b > self.limit {
            self.truncated = true;
            // A partial log proves nothing; return the memory now.
            self.originals = Vec::new();
            self.steps = Vec::new();
            return false;
        }
        self.bytes += b;
        true
    }

    fn log_original(&mut self, lits: &[Lit]) {
        if self.charge(lits) {
            self.originals.push(lits.to_vec());
        }
    }

    fn log_add(&mut self, lits: &[Lit]) {
        if self.charge(lits) {
            self.steps.push(ProofStep::Add(lits.to_vec()));
        }
    }

    fn log_delete(&mut self, lits: Vec<Lit>) {
        if self.charge(&lits) {
            self.steps.push(ProofStep::Delete(lits));
        }
    }
}

#[derive(Debug)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    deleted: bool,
    activity: f32,
    lbd: u32,
}

#[derive(Clone, Copy)]
struct Watcher {
    clause: u32,
    blocker: Lit,
}

/// A CDCL SAT solver over clauses of [`Lit`]s.
///
/// Clauses may be added at any time between `solve` calls (incremental
/// strengthening, as used by the CEGIS synthesis loop), and `solve` accepts
/// a slice of assumption literals that are treated as temporary top-level
/// decisions.
pub struct Solver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<Watcher>>,

    assign: Vec<LBool>,
    reason: Vec<u32>,
    level: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,

    activity: Vec<f64>,
    var_inc: f64,
    heap: ActivityHeap,
    saved_phase: Vec<bool>,

    cla_inc: f32,
    num_learnts: usize,
    max_learnts: f64,

    seen: Vec<bool>,
    analyze_stack: Vec<Lit>,
    analyze_clear: Vec<Lit>,

    ok: bool,
    model: Vec<LBool>,

    budget: ResourceBudget,
    clause_bytes: u64,
    budget_exceeded: bool,
    deadline: Option<Instant>,
    // The deadline actually polled during a solve: `deadline` min-merged
    // with the account's job-wide deadline, snapshotted at solve start so
    // the polling sites stay a single comparison.
    eff_deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,

    account: Option<Arc<BudgetAccount>>,
    // Ledger snapshot taken when the current solve started: work ceilings
    // compare against `snapshot + this solve's own spend`.
    acct_conf_base: u64,
    acct_prop_base: u64,
    // Absolute `stats.propagations` value at which propagation must stop
    // (u64::MAX outside a solve or when unlimited) — makes the
    // propagation ceiling exact instead of per-round approximate.
    prop_limit: u64,

    // DRAT proof log; `None` until `enable_proof` installs one.
    proof: Option<ProofLog>,
    // Failed-assumption core of the most recent UNSAT-under-assumptions
    // solve (empty when the UNSAT needed no assumptions).
    conflict_core: Vec<Lit>,

    stats: SolverStats,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Create an empty solver.
    pub fn new() -> Self {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            reason: Vec::new(),
            level: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: ActivityHeap::new(),
            saved_phase: Vec::new(),
            cla_inc: 1.0,
            num_learnts: 0,
            max_learnts: 0.0,
            seen: Vec::new(),
            analyze_stack: Vec::new(),
            analyze_clear: Vec::new(),
            ok: true,
            model: Vec::new(),
            budget: ResourceBudget::UNLIMITED,
            clause_bytes: 0,
            budget_exceeded: false,
            deadline: None,
            eff_deadline: None,
            cancel: None,
            account: None,
            acct_conf_base: 0,
            acct_prop_base: 0,
            prop_limit: u64::MAX,
            proof: None,
            conflict_core: Vec::new(),
            stats: SolverStats::default(),
        }
    }

    /// Start logging a DRAT proof, bounded by `limit_bytes` of clause
    /// storage. Call before adding clauses for a faithful original-CNF
    /// section; if the database is non-empty the current level-0 facts and
    /// live clauses are snapshotted as the originals (sound — every learnt
    /// clause is implied). Overflowing the byte budget degrades the log to
    /// a flagged truncated state (see [`Solver::proof_truncated`]) instead
    /// of panicking or growing without bound.
    pub fn enable_proof(&mut self, limit_bytes: u64) {
        let mut log = ProofLog::new(limit_bytes);
        for &l in &self.trail {
            log.log_original(std::slice::from_ref(&l));
        }
        for c in self.clauses.iter().filter(|c| !c.deleted) {
            log.log_original(&c.lits);
        }
        self.proof = Some(log);
    }

    /// Is a DRAT proof log installed?
    pub fn proof_enabled(&self) -> bool {
        self.proof.is_some()
    }

    /// Did the proof log overflow its byte budget? A truncated log yields
    /// no certificate — the verdict must be reported as unchecked.
    pub fn proof_truncated(&self) -> bool {
        self.proof.as_ref().is_some_and(|p| p.truncated)
    }

    /// Bytes currently held by the proof log.
    pub fn proof_bytes(&self) -> u64 {
        self.proof.as_ref().map_or(0, |p| p.bytes)
    }

    /// The failed-assumption core of the most recent UNSAT result: a
    /// subset of the assumptions passed to [`Solver::solve`] sufficient
    /// for unsatisfiability (empty when the formula is UNSAT outright).
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.conflict_core
    }

    /// Build the unsatisfiability certificate for the most recent UNSAT
    /// result: the logged original CNF, the failed-assumption core as unit
    /// hypotheses, and the learnt-clause derivation. `None` when proof
    /// logging is disabled or the log overflowed its byte budget.
    pub fn certificate(&self) -> Option<Certificate> {
        let p = self.proof.as_ref()?;
        if p.truncated {
            return None;
        }
        Some(Certificate {
            num_vars: self.num_vars() as u32,
            clauses: p.originals.clone(),
            hypotheses: self.conflict_core.clone(),
            steps: p.steps.clone(),
        })
    }

    /// Allocate a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(LBool::Undef);
        self.reason.push(REASON_NONE);
        self.level.push(0);
        self.activity.push(0.0);
        self.saved_phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.grow();
        self.heap.insert(v, &self.activity);
        v
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of clauses currently alive (original + learnt).
    pub fn num_clauses(&self) -> usize {
        self.clauses.iter().filter(|c| !c.deleted).count()
    }

    /// Work counters.
    pub fn stats(&self) -> SolverStats {
        SolverStats {
            learnts: self.num_learnts as u64,
            ..self.stats
        }
    }

    /// Limit the number of conflicts a single `solve` call may spend
    /// (`None` = unlimited). When exhausted, `solve` returns
    /// [`SolveResult::Unknown`]. Shorthand for setting
    /// [`ResourceBudget::conflicts`] via [`Solver::set_budget`].
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.budget.conflicts = budget;
    }

    /// Install hard resource ceilings (see [`ResourceBudget`]). Tripping
    /// any of them makes `solve` return [`SolveResult::Unknown`].
    pub fn set_budget(&mut self, budget: ResourceBudget) {
        self.budget = budget;
    }

    /// Install a shared job-wide [`BudgetAccount`]. Every subsequent
    /// `solve` compares the [`ResourceBudget`] work ceilings against the
    /// account's cumulative spend plus its own, and charges its spend back
    /// to the account when it returns — so several solvers (or repeated
    /// solves) answer to one cumulative budget instead of each re-arming
    /// the full ceiling.
    pub fn set_budget_account(&mut self, account: Option<Arc<BudgetAccount>>) {
        self.account = account;
    }

    /// Live bytes of clause literal storage (original + learnt), the
    /// quantity bounded by [`ResourceBudget::clause_bytes`].
    pub fn clause_bytes(&self) -> u64 {
        self.clause_bytes
    }

    /// Has any resource ceiling been tripped? Sticky once a clause has
    /// been dropped by the byte ceiling, because the clause database is
    /// permanently weakened from then on (`Sat` can no longer be
    /// trusted; `Unsat` still can).
    pub fn budget_exceeded(&self) -> bool {
        self.budget_exceeded
    }

    /// Give `solve` a wall-clock deadline (`None` = unlimited). The deadline
    /// is checked at every restart boundary and every 1024 conflicts.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Install a cooperative cancellation flag, polled at the same points
    /// as the deadline. When another thread sets it, `solve` returns
    /// [`SolveResult::Unknown`] — the mechanism behind the portfolio
    /// race, where a certified win cancels the sibling strategies, and
    /// behind external aborts.
    pub fn set_cancel_flag(&mut self, cancel: Option<Arc<AtomicBool>>) {
        self.cancel = cancel;
    }

    fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }

    /// Add a clause (a disjunction of literals).
    ///
    /// Returns `false` if the solver is already known to be unsatisfiable at
    /// the top level (either before this call or because of it).
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        if !self.ok {
            return false;
        }
        debug_assert_eq!(self.decision_level(), 0, "clauses are added at level 0");
        let mut lits: Vec<Lit> = lits.into_iter().collect();
        lits.sort_unstable();
        lits.dedup();
        // The proof logs the clause exactly as asserted, *before* the
        // level-0 simplification below: the checker re-derives every
        // simplification by its own unit propagation, so the certificate
        // stays honest about the formula the caller actually gave us.
        if let Some(p) = self.proof.as_mut() {
            p.log_original(&lits);
        }
        // Tautology / level-0 simplification.
        let mut simplified = Vec::with_capacity(lits.len());
        for (i, &l) in lits.iter().enumerate() {
            debug_assert!(
                l.var().index() < self.num_vars(),
                "literal {l:?} references an unallocated variable"
            );
            if i + 1 < lits.len() && lits[i + 1] == !l {
                return true; // p | !p: trivially satisfied
            }
            match self.lit_value(l) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => {}          // drop falsified literal
                LBool::Undef => simplified.push(l),
            }
        }
        match simplified.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(simplified[0], REASON_NONE);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                if self.bytes_over_budget(Self::bytes_of(&simplified)) {
                    // Dropping the clause only weakens the formula, so
                    // `Unsat` stays sound; `solve` reports `Unknown`
                    // instead of `Sat` from now on.
                    self.budget_exceeded = true;
                    self.stats.budget_trips += 1;
                    return true;
                }
                self.attach_clause(simplified, false, 0);
                true
            }
        }
    }

    #[inline]
    fn bytes_of(lits: &[Lit]) -> u64 {
        std::mem::size_of_val(lits) as u64
    }

    #[inline]
    fn bytes_over_budget(&self, extra: u64) -> bool {
        self.budget
            .clause_bytes
            .is_some_and(|cap| self.clause_bytes + extra > cap)
    }

    /// Solve under the given assumption literals.
    ///
    /// On [`SolveResult::Sat`] the model can be read with [`Solver::value`].
    /// The internal trail is reset, so the solver can be reused (with more
    /// clauses or different assumptions) afterwards.
    pub fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        let mut sp = chipmunk_trace::span!(
            "sat.solve",
            vars = self.num_vars(),
            clauses = self.clause_count_hint(),
            assumptions = assumptions.len(),
        );
        let before = self.stats;
        let res = self.solve_impl(assumptions);
        // The limit is only meaningful inside a solve; clause additions
        // between solves must propagate unhindered.
        self.prop_limit = u64::MAX;
        if let Some(acct) = &self.account {
            acct.charge(
                self.stats.conflicts - before.conflicts,
                self.stats.propagations - before.propagations,
            );
        }
        if chipmunk_trace::enabled() {
            let d = |a: u64, b: u64| a.saturating_sub(b);
            sp.record(
                "result",
                match res {
                    SolveResult::Sat => "sat",
                    SolveResult::Unsat => "unsat",
                    SolveResult::Unknown => "unknown",
                },
            );
            sp.record("conflicts", d(self.stats.conflicts, before.conflicts));
            sp.record("decisions", d(self.stats.decisions, before.decisions));
            sp.record(
                "propagations",
                d(self.stats.propagations, before.propagations),
            );
            sp.record("restarts", d(self.stats.restarts, before.restarts));
            chipmunk_trace::counter_add!(
                "sat.conflicts",
                d(self.stats.conflicts, before.conflicts)
            );
            chipmunk_trace::counter_add!(
                "sat.propagations",
                d(self.stats.propagations, before.propagations)
            );
            chipmunk_trace::counter_add!("sat.solves", 1);
            chipmunk_trace::counter_add!(
                "sat.budget_trips",
                d(self.stats.budget_trips, before.budget_trips)
            );
        }
        res
    }

    fn solve_impl(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.conflict_core.clear();
        if !self.ok {
            return SolveResult::Unsat;
        }
        if self.budget_exceeded {
            // The byte ceiling already forced a clause to be dropped, so
            // any model found now would only satisfy the weakened formula.
            return SolveResult::Unknown;
        }
        self.model.clear();
        self.max_learnts = (self.clause_count_hint() as f64 * 0.3).max(2000.0);
        let budget_start = self.stats.conflicts;
        let prop_start = self.stats.propagations;
        (self.acct_conf_base, self.acct_prop_base) = match &self.account {
            Some(a) => (a.conflicts(), a.propagations()),
            None => (0, 0),
        };
        // The account's job-wide wall clock binds this solve exactly like a
        // locally-installed deadline; whichever is sooner wins.
        self.eff_deadline = match (
            self.deadline,
            self.account.as_ref().and_then(|a| a.deadline()),
        ) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.prop_limit = match self.budget.propagations {
            Some(b) => prop_start.saturating_add(b.saturating_sub(self.acct_prop_base)),
            None => u64::MAX,
        };
        if self.work_over_budget(budget_start, prop_start) {
            // The job-wide ledger is already exhausted: spend nothing.
            self.stats.budget_trips += 1;
            return SolveResult::Unknown;
        }

        let mut restart_idx: u64 = 1;
        loop {
            if self.cancelled() {
                self.cancel_until(0);
                return SolveResult::Unknown;
            }
            if let Some(deadline) = self.eff_deadline {
                if Instant::now() >= deadline {
                    self.cancel_until(0);
                    return SolveResult::Unknown;
                }
            }
            let conflict_limit = 64 * luby(restart_idx);
            match self.search(conflict_limit, assumptions, budget_start, prop_start) {
                Some(res) => {
                    self.cancel_until(0);
                    return res;
                }
                None => {
                    // Restart.
                    self.stats.restarts += 1;
                    restart_idx += 1;
                    self.cancel_until(0);
                }
            }
        }
    }

    /// The value of `v` in the most recent satisfying model.
    ///
    /// Returns `None` if the last solve was not SAT or `v` was irrelevant
    /// (never constrained nor decided — the solver assigns every variable,
    /// so in practice this is `Some` for all variables after a SAT result).
    pub fn value(&self, v: Var) -> Option<bool> {
        self.model.get(v.index()).and_then(|l| l.to_option())
    }

    /// The value of a literal in the most recent model.
    pub fn lit_model_value(&self, l: Lit) -> Option<bool> {
        self.value(l.var()).map(|b| b ^ l.is_neg())
    }

    // ----- internals -------------------------------------------------------

    fn clause_count_hint(&self) -> usize {
        self.clauses.len() - self.num_learnts
    }

    #[inline]
    fn lit_value(&self, l: Lit) -> LBool {
        let v = self.assign[l.var().index()];
        if l.is_neg() {
            v.negate()
        } else {
            v
        }
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn attach_clause(&mut self, lits: Vec<Lit>, learnt: bool, lbd: u32) -> u32 {
        debug_assert!(lits.len() >= 2);
        self.clause_bytes += Self::bytes_of(&lits);
        let idx = self.clauses.len() as u32;
        let w0 = Watcher {
            clause: idx,
            blocker: lits[1],
        };
        let w1 = Watcher {
            clause: idx,
            blocker: lits[0],
        };
        self.watches[(!lits[0]).code()].push(w0);
        self.watches[(!lits[1]).code()].push(w1);
        if learnt {
            self.num_learnts += 1;
        }
        self.clauses.push(Clause {
            lits,
            learnt,
            deleted: false,
            activity: 0.0,
            lbd,
        });
        idx
    }

    #[inline]
    fn unchecked_enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert_eq!(self.lit_value(l), LBool::Undef);
        let vi = l.var().index();
        self.assign[vi] = LBool::from_bool(!l.is_neg());
        self.reason[vi] = reason;
        self.level[vi] = self.decision_level();
        self.trail.push(l);
    }

    /// Unit propagation. Returns the index of a conflicting clause, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            if self.stats.propagations >= self.prop_limit {
                // Propagation ceiling reached mid-round: stop without
                // advancing `qhead` (the queue stays intact for a later,
                // roomier solve). `search` re-checks the budget before
                // deciding, so this can never leak a spurious model.
                return None;
            }
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;

            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut i = 0;
            let mut conflict = None;
            'watchers: while i < ws.len() {
                let w = ws[i];
                // Blocker shortcut: clause already satisfied.
                if self.lit_value(w.blocker) == LBool::True {
                    i += 1;
                    continue;
                }
                let cidx = w.clause as usize;
                if self.clauses[cidx].deleted {
                    ws.swap_remove(i);
                    continue;
                }
                // Normalize: make sure lits[1] is the false watched literal !p.
                {
                    let c = &mut self.clauses[cidx];
                    if c.lits[0] == !p {
                        c.lits.swap(0, 1);
                    }
                    debug_assert_eq!(c.lits[1], !p);
                }
                let first = self.clauses[cidx].lits[0];
                if first != w.blocker && self.lit_value(first) == LBool::True {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.clauses[cidx].lits.len();
                for k in 2..len {
                    let lk = self.clauses[cidx].lits[k];
                    if self.lit_value(lk) != LBool::False {
                        self.clauses[cidx].lits.swap(1, k);
                        self.watches[(!lk).code()].push(Watcher {
                            clause: w.clause,
                            blocker: first,
                        });
                        ws.swap_remove(i);
                        continue 'watchers;
                    }
                }
                // No new watch: clause is unit or conflicting.
                ws[i].blocker = first;
                if self.lit_value(first) == LBool::False {
                    conflict = Some(w.clause);
                    self.qhead = self.trail.len();
                    // Keep the remaining watchers; abort propagation.
                    break;
                } else {
                    self.unchecked_enqueue(first, w.clause);
                    i += 1;
                }
            }
            // Put back the (possibly shrunk) watcher list, preserving any
            // watchers appended for p while we were iterating (none are,
            // because new watches always go to other literals' lists — but a
            // learnt unit enqueue above may watch !p again via attach; be
            // safe and merge).
            let appended = std::mem::replace(&mut self.watches[p.code()], ws);
            self.watches[p.code()].extend(appended);
            if let Some(c) = conflict {
                return Some(c);
            }
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in self.activity.iter_mut() {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.update(v, &self.activity);
    }

    fn decay_var_activity(&mut self) {
        self.var_inc /= 0.95;
    }

    fn bump_clause(&mut self, cidx: usize) {
        let c = &mut self.clauses[cidx];
        if !c.learnt {
            return;
        }
        c.activity += self.cla_inc;
        if c.activity > 1e20 {
            for cl in self.clauses.iter_mut().filter(|cl| cl.learnt) {
                cl.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn decay_clause_activity(&mut self) {
        self.cla_inc /= 0.999;
    }

    /// First-UIP conflict analysis.
    ///
    /// Returns the learnt clause (with the asserting literal first) and the
    /// backtrack level.
    fn analyze(&mut self, mut conflict: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::from_code(0)]; // placeholder for UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut trail_idx = self.trail.len();

        loop {
            self.bump_clause(conflict as usize);
            let start = usize::from(p.is_some());
            // Collect literals from the reason/conflict clause.
            let lits: Vec<Lit> = self.clauses[conflict as usize].lits[start..].to_vec();
            for q in lits {
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk the trail backwards to the next seen literal.
            loop {
                trail_idx -= 1;
                if self.seen[self.trail[trail_idx].var().index()] {
                    break;
                }
            }
            let pl = self.trail[trail_idx];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !pl;
                break;
            }
            p = Some(pl);
            conflict = self.reason[pl.var().index()];
            debug_assert_ne!(conflict, REASON_NONE);
        }

        // Recursive clause minimization: drop literals implied by the rest.
        self.analyze_clear.clear();
        for &l in &learnt {
            self.seen[l.var().index()] = true;
            self.analyze_clear.push(l);
        }
        let mut j = 1;
        for i in 1..learnt.len() {
            let l = learnt[i];
            if self.reason[l.var().index()] == REASON_NONE || !self.lit_redundant(l) {
                learnt[j] = l;
                j += 1;
            }
        }
        learnt.truncate(j);
        for &l in &self.analyze_clear.clone() {
            self.seen[l.var().index()] = false;
        }

        // Find backtrack level = second-highest level in the clause.
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        (learnt, bt_level)
    }

    /// Is `l` implied by the other (seen) literals of the learnt clause?
    fn lit_redundant(&mut self, l: Lit) -> bool {
        self.analyze_stack.clear();
        self.analyze_stack.push(l);
        let top = self.analyze_clear.len();
        while let Some(p) = self.analyze_stack.pop() {
            let r = self.reason[p.var().index()];
            debug_assert_ne!(r, REASON_NONE);
            let lits: Vec<Lit> = self.clauses[r as usize].lits[1..].to_vec();
            for q in lits {
                let vi = q.var().index();
                if !self.seen[vi] && self.level[vi] > 0 {
                    if self.reason[vi] != REASON_NONE {
                        self.seen[vi] = true;
                        self.analyze_stack.push(q);
                        self.analyze_clear.push(q);
                    } else {
                        // Hit a decision: l is not redundant. Undo marks made
                        // during this check.
                        for &cl in &self.analyze_clear[top..] {
                            self.seen[cl.var().index()] = false;
                        }
                        self.analyze_clear.truncate(top);
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Compute the failed-assumption core for the falsified assumption
    /// `a` (MiniSat's `analyzeFinal`): walk the trail top-down from the
    /// literals in `¬a`'s reason cone; every decision encountered is an
    /// assumption (the assumption loop precedes branching, so when an
    /// assumption is found false all decisions on the trail are earlier
    /// assumptions) and joins the core. The returned subset of the
    /// assumptions — `a` included — is sufficient for unsatisfiability,
    /// and by construction the formula plus the core refutes itself by
    /// unit propagation alone, which is exactly the hypothesis rule the
    /// DRAT checker applies.
    fn analyze_final(&mut self, a: Lit, assumptions: &[Lit]) -> Vec<Lit> {
        let mut core = vec![a];
        if self.decision_level() == 0 {
            // `¬a` is a level-0 fact: the formula alone refutes `a`.
            return core;
        }
        self.seen[a.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let x = self.trail[i];
            let xi = x.var().index();
            if !self.seen[xi] {
                continue;
            }
            let r = self.reason[xi];
            if r == REASON_NONE {
                debug_assert!(
                    assumptions.contains(&x),
                    "decision {x:?} in the final conflict cone is not an assumption"
                );
                core.push(x);
            } else {
                for k in 1..self.clauses[r as usize].lits.len() {
                    let q = self.clauses[r as usize].lits[k];
                    if self.level[q.var().index()] > 0 {
                        self.seen[q.var().index()] = true;
                    }
                }
            }
            self.seen[xi] = false;
        }
        self.seen[a.var().index()] = false;
        core
    }

    fn compute_lbd(&self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits.iter().map(|l| self.level[l.var().index()]).collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for i in (lim..self.trail.len()).rev() {
            let l = self.trail[i];
            let vi = l.var().index();
            self.saved_phase[vi] = !l.is_neg();
            self.assign[vi] = LBool::Undef;
            self.reason[vi] = REASON_NONE;
            self.heap.insert(l.var(), &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.heap.pop_max(&self.activity) {
            if self.assign[v.index()] == LBool::Undef {
                return Some(v);
            }
        }
        None
    }

    fn reduce_db(&mut self) {
        // Collect candidate learnt clauses (not locked as reasons, lbd > 2).
        let locked: Vec<u32> = self
            .trail
            .iter()
            .map(|l| self.reason[l.var().index()])
            .filter(|&r| r != REASON_NONE)
            .collect();
        let mut cand: Vec<usize> = (0..self.clauses.len())
            .filter(|&i| {
                let c = &self.clauses[i];
                c.learnt
                    && !c.deleted
                    && c.lbd > 2
                    && c.lits.len() > 2
                    && !locked.contains(&(i as u32))
            })
            .collect();
        cand.sort_by(|&a, &b| {
            let ca = &self.clauses[a];
            let cb = &self.clauses[b];
            cb.lbd
                .cmp(&ca.lbd)
                .then(ca.activity.partial_cmp(&cb.activity).unwrap())
        });
        let to_delete = cand.len() / 2;
        for &i in cand.iter().take(to_delete) {
            self.clauses[i].deleted = true;
            // Free the literal storage so the byte ceiling tracks real
            // allocation; propagation checks `deleted` before touching
            // `lits`, and deleted clauses are never reasons. The proof
            // logs the deletion first, while the literals still exist.
            let lits = std::mem::take(&mut self.clauses[i].lits);
            self.clause_bytes -= Self::bytes_of(&lits);
            if let Some(p) = self.proof.as_mut() {
                p.log_delete(lits);
            }
            self.num_learnts -= 1;
            self.stats.deleted += 1;
        }
        self.max_learnts *= 1.1;
        chipmunk_trace::event!(
            "sat.reduce_db",
            deleted = to_delete,
            learnts = self.num_learnts,
        );
    }

    /// Search for up to `conflict_limit` conflicts.
    ///
    /// `Some(result)` ends the solve; `None` requests a restart.
    /// Is a work ceiling (conflicts or propagations) exhausted? Counts
    /// this solve's own spend on top of the job-wide account snapshot, so
    /// a fresh solver cannot re-arm a ceiling its job already spent.
    fn work_over_budget(&self, budget_start: u64, prop_start: u64) -> bool {
        self.budget
            .conflicts
            .is_some_and(|b| self.acct_conf_base + (self.stats.conflicts - budget_start) >= b)
            || self
                .budget
                .propagations
                .is_some_and(|b| self.acct_prop_base + (self.stats.propagations - prop_start) >= b)
    }

    fn search(
        &mut self,
        conflict_limit: u64,
        assumptions: &[Lit],
        budget_start: u64,
        prop_start: u64,
    ) -> Option<SolveResult> {
        let mut conflicts_here: u64 = 0;
        loop {
            if let Some(cidx) = self.propagate() {
                // Conflict.
                self.stats.conflicts += 1;
                conflicts_here += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Some(SolveResult::Unsat);
                }
                let (learnt, bt) = self.analyze(cidx);
                // Never backtrack past the assumptions: if the asserting
                // level would strip an assumption, re-deciding will restore
                // it, so plain backtracking is still sound; we simply cancel.
                self.cancel_until(bt);
                if learnt.len() == 1 {
                    if let Some(p) = self.proof.as_mut() {
                        p.log_add(&learnt);
                    }
                    self.unchecked_enqueue(learnt[0], REASON_NONE);
                } else {
                    let bytes = Self::bytes_of(&learnt);
                    if self.bytes_over_budget(bytes) {
                        // Try to make room before giving up; a learnt
                        // clause cannot be silently dropped (it is about
                        // to drive the backjump), so still-over is fatal.
                        self.reduce_db();
                        if self.bytes_over_budget(bytes) {
                            // Not sticky: a learnt clause is implied, so
                            // skipping it leaves the formula intact and a
                            // roomier budget can retry later.
                            self.stats.budget_trips += 1;
                            return Some(SolveResult::Unknown);
                        }
                    }
                    let lbd = self.compute_lbd(&learnt);
                    let l0 = learnt[0];
                    if let Some(p) = self.proof.as_mut() {
                        p.log_add(&learnt);
                    }
                    let idx = self.attach_clause(learnt, true, lbd);
                    self.bump_clause(idx as usize);
                    self.unchecked_enqueue(l0, idx);
                }
                self.decay_var_activity();
                self.decay_clause_activity();

                if self.work_over_budget(budget_start, prop_start) {
                    self.stats.budget_trips += 1;
                    return Some(SolveResult::Unknown);
                }
                if conflicts_here.is_multiple_of(1024) {
                    if self.cancelled() {
                        return Some(SolveResult::Unknown);
                    }
                    if let Some(deadline) = self.eff_deadline {
                        if Instant::now() >= deadline {
                            return Some(SolveResult::Unknown);
                        }
                    }
                }
                if conflicts_here >= conflict_limit {
                    return None; // restart
                }
            } else {
                // No conflict. The propagation ceiling must be polled here
                // too: a conflict-free solve would otherwise never see it.
                if self.work_over_budget(budget_start, prop_start) {
                    self.stats.budget_trips += 1;
                    return Some(SolveResult::Unknown);
                }
                if self.num_learnts as f64 > self.max_learnts {
                    self.reduce_db();
                }
                // Apply assumptions in order, then branch.
                let mut next_decision: Option<Lit> = None;
                for &a in assumptions {
                    match self.lit_value(a) {
                        LBool::True => continue,
                        LBool::False => {
                            self.conflict_core = self.analyze_final(a, assumptions);
                            return Some(SolveResult::Unsat);
                        }
                        LBool::Undef => {
                            next_decision = Some(a);
                            break;
                        }
                    }
                }
                let decision = match next_decision {
                    Some(a) => a,
                    None => match self.pick_branch_var() {
                        Some(v) => {
                            self.stats.decisions += 1;
                            Lit::new(v, self.saved_phase[v.index()])
                        }
                        None => {
                            // All variables assigned: model found.
                            self.model = self.assign.clone();
                            return Some(SolveResult::Sat);
                        }
                    },
                };
                self.trail_lim.push(self.trail.len());
                self.unchecked_enqueue(decision, REASON_NONE);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(i: i32) -> Lit {
        // DIMACS-style: positive i => Lit::pos(Var(i-1))
        let v = Var(i.unsigned_abs() - 1);
        if i > 0 {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    fn solver_with_vars(n: usize) -> Solver {
        let mut s = Solver::new();
        for _ in 0..n {
            s.new_var();
        }
        s
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn unit_clause_forces_value() {
        let mut s = solver_with_vars(1);
        s.add_clause([lit(1)]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.value(Var(0)), Some(true));
    }

    #[test]
    fn contradictory_units_are_unsat() {
        let mut s = solver_with_vars(1);
        s.add_clause([lit(1)]);
        assert!(!s.add_clause([lit(-1)]));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn tautological_clause_is_ignored() {
        let mut s = solver_with_vars(2);
        assert!(s.add_clause([lit(1), lit(-1), lit(2)]));
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn simple_implication_chain() {
        // x1 & (x1 -> x2) & (x2 -> x3)
        let mut s = solver_with_vars(3);
        s.add_clause([lit(1)]);
        s.add_clause([lit(-1), lit(2)]);
        s.add_clause([lit(-2), lit(3)]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.value(Var(2)), Some(true));
    }

    #[test]
    fn xor_chain_unsat() {
        // Odd cycle of XORs is unsatisfiable: encode x1^x2, x2^x3, x3^x1 all true.
        let mut s = solver_with_vars(3);
        for (a, b) in [(1, 2), (2, 3), (3, 1)] {
            s.add_clause([lit(a), lit(b)]);
            s.add_clause([lit(-a), lit(-b)]);
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_flip_result() {
        // (a | b) is SAT, but unsat under assumptions !a, !b.
        let mut s = solver_with_vars(2);
        s.add_clause([lit(1), lit(2)]);
        assert_eq!(s.solve(&[lit(-1), lit(-2)]), SolveResult::Unsat);
        // Solver stays usable.
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.solve(&[lit(-1)]), SolveResult::Sat);
        assert_eq!(s.value(Var(1)), Some(true));
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = solver_with_vars(3);
        s.add_clause([lit(1), lit(2)]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        s.add_clause([lit(-1)]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.value(Var(1)), Some(true));
        s.add_clause([lit(-2)]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // p(i,j): pigeon i in hole j. 3 pigeons, 2 holes.
        let mut s = solver_with_vars(6);
        let p = |i: usize, j: usize| lit((i * 2 + j + 1) as i32);
        for i in 0..3 {
            s.add_clause([p(i, 0), p(i, 1)]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause([!p(i1, j), !p(i2, j)]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_5_into_4_unsat() {
        let n = 5usize;
        let m = 4usize;
        let mut s = solver_with_vars(n * m);
        let p = |i: usize, j: usize| Lit::pos(Var((i * m + j) as u32));
        for i in 0..n {
            s.add_clause((0..m).map(|j| p(i, j)));
        }
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause([!p(i1, j), !p(i2, j)]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn php_4_into_4_sat_is_permutation() {
        let n = 4usize;
        let mut s = solver_with_vars(n * n);
        let p = |i: usize, j: usize| Lit::pos(Var((i * n + j) as u32));
        for i in 0..n {
            s.add_clause((0..n).map(|j| p(i, j)));
        }
        for j in 0..n {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause([!p(i1, j), !p(i2, j)]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        // Each pigeon sits in at least one hole, each hole holds at most one.
        for i in 0..n {
            let holes: Vec<usize> = (0..n)
                .filter(|&j| s.lit_model_value(p(i, j)) == Some(true))
                .collect();
            assert!(!holes.is_empty(), "pigeon {i} unplaced");
        }
    }

    #[test]
    fn conflict_budget_returns_unknown() {
        // A hard instance with a tiny budget should give Unknown.
        let n = 8usize;
        let m = 7usize;
        let mut s = solver_with_vars(n * m);
        let p = |i: usize, j: usize| Lit::pos(Var((i * m + j) as u32));
        for i in 0..n {
            s.add_clause((0..m).map(|j| p(i, j)));
        }
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause([!p(i1, j), !p(i2, j)]);
                }
            }
        }
        s.set_conflict_budget(Some(5));
        assert_eq!(s.solve(&[]), SolveResult::Unknown);
        s.set_conflict_budget(None);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    fn php(s: &mut Solver, pigeons: usize, holes: usize) {
        let p = |i: usize, j: usize| Lit::pos(Var((i * holes + j) as u32));
        for i in 0..pigeons {
            s.add_clause((0..holes).map(|j| p(i, j)));
        }
        for j in 0..holes {
            for i1 in 0..pigeons {
                for i2 in (i1 + 1)..pigeons {
                    s.add_clause([!p(i1, j), !p(i2, j)]);
                }
            }
        }
    }

    #[test]
    fn propagation_budget_returns_unknown() {
        // An unrooted implication chain: nothing propagates at add time
        // (every clause stays binary), so the first in-solve decision's
        // own trail pop is what exhausts a budget of 1.
        let mut s = solver_with_vars(64);
        for i in 1..64 {
            s.add_clause([lit(-i), lit(i + 1)]);
        }
        s.set_budget(ResourceBudget {
            propagations: Some(1),
            ..ResourceBudget::UNLIMITED
        });
        assert_eq!(s.solve(&[]), SolveResult::Unknown);
        s.set_budget(ResourceBudget::UNLIMITED);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn clause_byte_budget_caps_learnts() {
        // A hard instance under a byte ceiling big enough for the original
        // clauses but too small for the learnt database it wants to grow.
        let mut s = solver_with_vars(8 * 7);
        php(&mut s, 8, 7);
        let original = s.clause_bytes();
        assert!(original > 0);
        let cap = original + 64;
        s.set_budget(ResourceBudget {
            clause_bytes: Some(cap),
            ..ResourceBudget::UNLIMITED
        });
        assert_eq!(s.solve(&[]), SolveResult::Unknown);
        // The ceiling was never observably crossed.
        assert!(s.clause_bytes() <= cap, "{} > {cap}", s.clause_bytes());
        // Learnt overflow is not sticky: with the ceiling lifted the same
        // solver finishes the proof.
        s.set_budget(ResourceBudget::UNLIMITED);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn clause_byte_budget_drops_original_clauses_soundly() {
        let mut s = solver_with_vars(8);
        s.set_budget(ResourceBudget {
            clause_bytes: Some(16),
            ..ResourceBudget::UNLIMITED
        });
        for i in 0..4i32 {
            // Ternary clauses, 12 bytes each: the second overflows.
            let b = i * 2 % 8;
            s.add_clause([lit(b / 2 + 1), lit(b / 2 + 2), lit(-(b / 2 + 3))]);
        }
        assert!(s.budget_exceeded());
        assert!(s.clause_bytes() <= 16);
        // A weakened database can prove Unsat but never report Sat.
        assert_eq!(s.solve(&[]), SolveResult::Unknown);
        s.add_clause([lit(1)]);
        assert!(!s.add_clause([lit(-1)]));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn budget_results_are_deterministic() {
        let run = || {
            let mut s = solver_with_vars(8 * 7);
            php(&mut s, 8, 7);
            s.set_budget(ResourceBudget {
                conflicts: Some(7),
                ..ResourceBudget::UNLIMITED
            });
            let r = s.solve(&[]);
            (r, s.stats().conflicts)
        };
        let (r1, c1) = run();
        let (r2, c2) = run();
        assert_eq!(r1, SolveResult::Unknown);
        assert_eq!((r1, c1), (r2, c2));
    }

    #[test]
    fn budget_account_is_cumulative_across_solvers() {
        // Job-wide accounting: two fresh solvers on the same hard instance
        // share one ledger under a 20-conflict ceiling. Without the
        // account each solve would re-arm the full ceiling (the historic
        // per-solver bug); with it, the pair's total spend stays within
        // the single ceiling — the second solve finds the ledger exhausted
        // and spends nothing.
        let account = Arc::new(BudgetAccount::new());
        let budget = ResourceBudget {
            conflicts: Some(20),
            ..ResourceBudget::UNLIMITED
        };
        for _ in 0..2 {
            let mut s = solver_with_vars(8 * 7);
            php(&mut s, 8, 7);
            s.set_budget(budget);
            s.set_budget_account(Some(account.clone()));
            assert_eq!(s.solve(&[]), SolveResult::Unknown);
        }
        assert!(account.conflicts() > 0);
        assert!(
            account.conflicts() <= 20,
            "job spent {} conflicts against a 20-conflict ceiling",
            account.conflicts()
        );
    }

    #[test]
    fn propagation_spend_is_exact_under_account() {
        // The ceiling stops *before* the pop that would cross it, so even
        // trail-heavy propagation rounds cannot overshoot the ledger.
        let account = Arc::new(BudgetAccount::new());
        let budget = ResourceBudget {
            propagations: Some(100),
            ..ResourceBudget::UNLIMITED
        };
        for _ in 0..3 {
            // A 128-variable implication chain needs ~128 pops to finish,
            // so the first solve must hit the 100-pop ceiling mid-chain.
            let mut s = solver_with_vars(128);
            for i in 1..128 {
                s.add_clause([lit(-i), lit(i + 1)]);
            }
            s.set_budget(budget);
            s.set_budget_account(Some(account.clone()));
            assert_eq!(s.solve(&[]), SolveResult::Unknown);
        }
        assert!(account.propagations() > 0);
        assert!(
            account.propagations() <= 100,
            "job spent {} propagations against a 100-pop ceiling",
            account.propagations()
        );
    }

    #[test]
    fn account_without_ceiling_only_keeps_score() {
        // An account with an unlimited budget never blocks; it just
        // accumulates totals across solvers.
        let account = Arc::new(BudgetAccount::new());
        let mut total = 0u64;
        for _ in 0..2 {
            let mut s = solver_with_vars(6 * 5);
            php(&mut s, 6, 5);
            s.set_budget_account(Some(account.clone()));
            assert_eq!(s.solve(&[]), SolveResult::Unsat);
            total += s.stats().conflicts;
        }
        assert_eq!(account.conflicts(), total);
        assert!(account.propagations() > 0);
    }

    #[test]
    fn deadline_in_past_returns_unknown() {
        let mut s = solver_with_vars(2);
        s.add_clause([lit(1), lit(2)]);
        s.set_deadline(Some(Instant::now() - std::time::Duration::from_secs(1)));
        assert_eq!(s.solve(&[]), SolveResult::Unknown);
        s.set_deadline(None);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn account_deadline_binds_solvers_that_never_saw_set_deadline() {
        // The job-wide wall clock travels with the BudgetAccount: a solver
        // that only installed the account is bound by it, and clearing the
        // account deadline restores the solve.
        let account = Arc::new(BudgetAccount::new());
        let mut s = solver_with_vars(2);
        s.add_clause([lit(1), lit(2)]);
        s.set_budget_account(Some(account.clone()));
        account.set_deadline(Some(Instant::now() - std::time::Duration::from_secs(1)));
        assert_eq!(s.solve(&[]), SolveResult::Unknown);
        account.set_deadline(None);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        // A locally-sooner deadline still wins over a distant account one.
        account.set_deadline(Some(Instant::now() + std::time::Duration::from_secs(3600)));
        s.set_deadline(Some(Instant::now() - std::time::Duration::from_secs(1)));
        assert_eq!(s.solve(&[]), SolveResult::Unknown);
    }

    #[test]
    fn model_satisfies_all_clauses() {
        // Random-ish structured instance; verify the returned model.
        let mut s = solver_with_vars(10);
        let clauses: Vec<Vec<i32>> = vec![
            vec![1, 2, -3],
            vec![-1, 4],
            vec![3, -4, 5],
            vec![-5, 6, 7],
            vec![-6, -7],
            vec![8, 9],
            vec![-8, 10],
            vec![-9, -10, 1],
            vec![2, 5, 9],
        ];
        for c in &clauses {
            s.add_clause(c.iter().map(|&i| lit(i)));
        }
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        for c in &clauses {
            assert!(
                c.iter().any(|&i| s.lit_model_value(lit(i)) == Some(true)),
                "clause {c:?} not satisfied"
            );
        }
    }

    #[test]
    fn failed_assumption_core_excludes_irrelevant_assumptions() {
        // (a | b) under assumptions [!c, !a, !b]: !c plays no part.
        let mut s = solver_with_vars(3);
        s.add_clause([lit(1), lit(2)]);
        assert_eq!(s.solve(&[lit(-3), lit(-1), lit(-2)]), SolveResult::Unsat);
        let core: Vec<Lit> = s.failed_assumptions().to_vec();
        assert!(
            !core.contains(&lit(-3)),
            "irrelevant assumption in core: {core:?}"
        );
        assert!(
            core.contains(&lit(-1)) && core.contains(&lit(-2)),
            "{core:?}"
        );
        // The core alone is already unsatisfiable.
        assert_eq!(s.solve(&core), SolveResult::Unsat);
        // And the solver stays reusable without assumptions.
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn contradictory_assumptions_core_is_the_pair() {
        let mut s = solver_with_vars(2);
        s.add_clause([lit(1), lit(2)]);
        assert_eq!(s.solve(&[lit(1), lit(-1)]), SolveResult::Unsat);
        let core = s.failed_assumptions();
        assert!(
            core.contains(&lit(1)) && core.contains(&lit(-1)),
            "{core:?}"
        );
    }

    #[test]
    fn unconditional_unsat_has_empty_core() {
        let mut s = solver_with_vars(3);
        for (a, b) in [(1, 2), (2, 3), (3, 1)] {
            s.add_clause([lit(a), lit(b)]);
            s.add_clause([lit(-a), lit(-b)]);
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(s.failed_assumptions().is_empty());
    }

    #[test]
    fn php_certificate_validates_and_roundtrips() {
        use crate::drat::{Certificate, CheckBudget, CheckOutcome};
        let mut s = solver_with_vars(6 * 5);
        s.enable_proof(1 << 20);
        php(&mut s, 6, 5);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        let cert = s.certificate().expect("proof fits its budget");
        assert!(cert.num_lemmas() > 0);
        assert!(cert.hypotheses.is_empty());
        assert_eq!(cert.check(&CheckBudget::default()), CheckOutcome::Valid);
        let parsed = Certificate::parse(&cert.to_text()).expect("roundtrip parses");
        assert_eq!(parsed, cert);
    }

    #[test]
    fn assumption_certificate_carries_the_core_as_hypotheses() {
        use crate::drat::{CheckBudget, CheckOutcome};
        let mut s = solver_with_vars(3);
        s.enable_proof(1 << 20);
        s.add_clause([lit(1), lit(2)]);
        assert_eq!(s.solve(&[lit(-3), lit(-1), lit(-2)]), SolveResult::Unsat);
        let cert = s.certificate().expect("proof fits");
        assert_eq!(cert.hypotheses, s.failed_assumptions().to_vec());
        assert!(!cert.hypotheses.contains(&lit(-3)));
        assert_eq!(cert.check(&CheckBudget::default()), CheckOutcome::Valid);
    }

    #[test]
    fn certificate_covers_incremental_solves() {
        use crate::drat::{CheckBudget, CheckOutcome};
        // SAT solve first (learnt clauses from it join the log), then the
        // formula is strengthened to UNSAT: the certificate must cover the
        // clause database accumulated across both solves.
        let mut s = solver_with_vars(6 * 5);
        s.enable_proof(1 << 20);
        php(&mut s, 5, 5);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        let p = |i: usize, j: usize| Lit::pos(Var((i * 5 + j) as u32));
        s.add_clause((0..5).map(|j| p(5, j)));
        for j in 0..5 {
            for i in 0..5 {
                s.add_clause([!p(i, j), !p(5, j)]);
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        let cert = s.certificate().expect("proof fits");
        assert_eq!(cert.check(&CheckBudget::default()), CheckOutcome::Valid);
    }

    #[test]
    fn proof_byte_budget_degrades_to_truncated() {
        let mut s = solver_with_vars(6 * 5);
        s.enable_proof(128);
        php(&mut s, 6, 5);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(s.proof_truncated());
        assert!(s.certificate().is_none());
        // The verdict itself is unaffected — only the certificate is lost.
        assert!(s.proof_enabled());
    }

    #[test]
    fn budget_tripped_solve_is_unknown_never_unsat() {
        use crate::drat::{CheckBudget, CheckOutcome};
        // The satellite invariant at the sat level: a budget trip must
        // surface as Unknown, not as a (certificate-less) Unsat — and
        // once the ceiling is lifted the same solver still proves UNSAT
        // with a checkable certificate.
        let mut s = solver_with_vars(8 * 7);
        s.enable_proof(1 << 22);
        php(&mut s, 8, 7);
        s.set_budget(ResourceBudget {
            conflicts: Some(5),
            ..ResourceBudget::UNLIMITED
        });
        assert_eq!(s.solve(&[]), SolveResult::Unknown);
        s.set_budget(ResourceBudget::UNLIMITED);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        let cert = s.certificate().expect("proof fits");
        assert_eq!(cert.check(&CheckBudget::default()), CheckOutcome::Valid);
    }

    #[test]
    fn enable_proof_snapshots_existing_database() {
        use crate::drat::{CheckBudget, CheckOutcome};
        let mut s = solver_with_vars(2);
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(-1), lit(2)]);
        s.enable_proof(1 << 16);
        s.add_clause([lit(-2)]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        let cert = s.certificate().expect("proof fits");
        assert_eq!(cert.clauses.len(), 3);
        assert_eq!(cert.check(&CheckBudget::default()), CheckOutcome::Valid);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = solver_with_vars(6);
        let p = |i: usize, j: usize| Lit::pos(Var((i * 2 + j) as u32));
        for i in 0..3 {
            s.add_clause([p(i, 0), p(i, 1)]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause([!p(i1, j), !p(i2, j)]);
                }
            }
        }
        s.solve(&[]);
        let st = s.stats();
        assert!(st.propagations > 0);
        assert!(st.conflicts > 0);
    }
}
