//! Deterministic fault injection for the serve stack.
//!
//! Production code never fails on demand, which makes fault-handling
//! paths the least-tested code in the tree. This module lets tests (and
//! brave operators) inject faults at precise, reproducible points:
//!
//! * **compile panics** — a worker's compile call panics mid-job,
//! * **worker deaths** — a worker thread dies *outside* its panic
//!   isolation, exercising the supervisor/respawn path,
//! * **cache I/O errors** — the disk tier's writes fail as if the disk
//!   were full, exercising degraded mode,
//! * **solver stalls** — an artificial delay before a compile, for
//!   building up queue depth under test,
//! * **connection resets** — a connection's socket is torn down just
//!   before a response write, exercising client retry,
//! * **cache corruption** — a cached result document is bit-flipped just
//!   before it would be served, exercising result certification and
//!   cache quarantine,
//! * **metrics I/O errors** — the telemetry HTTP listener drops a scrape
//!   connection, proving a broken metrics socket degrades to stats-only
//!   without touching compile traffic,
//! * **proof I/O errors** — the materialization of an infeasibility
//!   proof fails as it is attached to a result document, proving a lost
//!   proof degrades to an explicitly-unchecked verdict instead of a
//!   crash or a silently-trusted one,
//! * **clock stalls** — a compile freezes *ignoring* its cooperative
//!   cancel flag, simulating a solver stuck inside one monster
//!   propagation; proves the watchdog escalates past cancellation to
//!   worker respawn and still answers the client with a typed error.
//!
//! # Plan syntax
//!
//! A plan is a `;`-separated list of clauses:
//!
//! ```text
//! seed=42;panic@0,3;cache_io@1;reset%0.05;stall@2;stall_ms=20
//! ```
//!
//! * `<kind>@i,j,...` — fire at those 0-based *occurrence indices* of the
//!   kind's injection site (the 0th, 3rd, ... time the site is reached).
//! * `<kind>%p` — additionally fire each occurrence with probability `p`,
//!   drawn from a [`Xoshiro256`] stream seeded by `seed` (default 0).
//! * `stall_ms=N` — duration of an injected stall (default 50 ms).
//! * Kinds: `panic`, `worker_death`, `cache_io`, `stall`, `reset`,
//!   `corrupt`, `metrics_io`, `proof_io`, `clock_stall`.
//!
//! Plans are installed from the `CHIPMUNK_FAULTS` environment variable at
//! server start ([`init_from_env`], which prints the active plan and seed
//! to stderr so any failure is reproducible), or programmatically with
//! [`install`]. With no plan installed the only cost at each injection
//! site is one load of an atomic bool ([`armed`]); release builds with
//! the env var unset pay a single predictable branch.
//!
//! The plan is process-global: occurrence counters are shared across
//! threads, so concurrent tests that install plans must serialize.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use chipmunk_trace::rng::Xoshiro256;

/// The kinds of fault that can be injected. Each kind has one injection
/// site in the serve stack and its own occurrence counter.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Panic inside a worker's (isolated) compile call.
    CompilePanic,
    /// Kill a worker thread outside its panic isolation.
    WorkerDeath,
    /// Fail a disk write/rename in the result cache.
    CacheIo,
    /// Sleep for `stall_ms` before starting a compile.
    SolverStall,
    /// Tear down a connection's socket before a response write.
    ConnReset,
    /// Bit-flip a cached result document before it is served.
    CacheCorrupt,
    /// Drop a metrics-endpoint scrape connection before the response.
    MetricsIo,
    /// Fail the materialization of an infeasibility proof as it is
    /// attached to a result document, exercising the degrade to an
    /// explicitly-unchecked verdict.
    ProofIo,
    /// Freeze a compile for `stall_ms` *ignoring* the cooperative cancel
    /// flag — a solver stuck inside one monster propagation. Unlike
    /// [`FaultKind::SolverStall`] (which delays before the compile and
    /// yields to cancellation), this exercises the watchdog's escalation
    /// path: cancel doesn't bite, so the worker must be abandoned and
    /// respawned.
    ClockStall,
}

const NUM_KINDS: usize = 9;

impl FaultKind {
    fn index(self) -> usize {
        match self {
            FaultKind::CompilePanic => 0,
            FaultKind::WorkerDeath => 1,
            FaultKind::CacheIo => 2,
            FaultKind::SolverStall => 3,
            FaultKind::ConnReset => 4,
            FaultKind::CacheCorrupt => 5,
            FaultKind::MetricsIo => 6,
            FaultKind::ProofIo => 7,
            FaultKind::ClockStall => 8,
        }
    }

    fn from_name(s: &str) -> Option<FaultKind> {
        Some(match s {
            "panic" => FaultKind::CompilePanic,
            "worker_death" => FaultKind::WorkerDeath,
            "cache_io" => FaultKind::CacheIo,
            "stall" => FaultKind::SolverStall,
            "reset" => FaultKind::ConnReset,
            "corrupt" => FaultKind::CacheCorrupt,
            "metrics_io" => FaultKind::MetricsIo,
            "proof_io" => FaultKind::ProofIo,
            "clock_stall" => FaultKind::ClockStall,
            _ => return None,
        })
    }
}

struct Plan {
    seed: u64,
    /// Sorted explicit occurrence indices, per kind.
    explicit: [Vec<u64>; NUM_KINDS],
    /// Per-occurrence firing probability, per kind (0.0 = never).
    prob: [f64; NUM_KINDS],
    stall: Duration,
    rng: Xoshiro256,
}

struct State {
    plan: Option<Plan>,
}

/// Fast-path switch: false means no plan is installed and every
/// injection site reduces to this single load.
static ARMED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<State> = Mutex::new(State { plan: None });
/// Occurrence counters live outside the mutex so `fired` can bump them
/// without blocking when the probability path is unused.
static COUNTERS: [AtomicU64; NUM_KINDS] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];
static ENV_INIT: AtomicBool = AtomicBool::new(false);

/// Returns true if a fault plan is installed. This is the only cost paid
/// at injection sites when fault injection is off.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Record one occurrence of `kind`'s injection site and report whether
/// the installed plan says this occurrence should fault. Always false
/// when no plan is installed ([`armed`] is the cheap pre-check).
pub fn fired(kind: FaultKind) -> bool {
    if !armed() {
        return false;
    }
    let k = kind.index();
    let occurrence = COUNTERS[k].fetch_add(1, Ordering::Relaxed);
    let mut st = match STATE.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    let Some(plan) = st.plan.as_mut() else {
        return false;
    };
    if plan.explicit[k].binary_search(&occurrence).is_ok() {
        return true;
    }
    let p = plan.prob[k];
    p > 0.0 && plan.rng.gen_bool(p)
}

/// Duration of an injected solver stall under the current plan.
pub fn stall_duration() -> Duration {
    let st = match STATE.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    st.plan
        .as_ref()
        .map_or(Duration::from_millis(50), |p| p.stall)
}

/// Deterministically bit-flip one value of a cached result document — the
/// payload of a fired [`FaultKind::CacheCorrupt`]. Prefers a
/// `field_to_container` entry (XOR 1 mis-wires a field into a different
/// PHV container, the nastiest silent corruption) and falls back to the
/// first integer found anywhere; a document with no integers comes back
/// unchanged. Never panics: it runs on the serving path.
pub fn corrupt_doc(doc: &chipmunk_trace::json::Json) -> chipmunk_trace::json::Json {
    use chipmunk_trace::json::Json;
    fn flip_first_int(doc: &Json) -> (Json, bool) {
        match doc {
            Json::U64(v) => (Json::U64(v ^ 1), true),
            Json::I64(v) => (Json::I64(v ^ 1), true),
            Json::Arr(items) => {
                let mut out = Vec::with_capacity(items.len());
                let mut flipped = false;
                for it in items {
                    if flipped {
                        out.push(it.clone());
                    } else {
                        let (v, f) = flip_first_int(it);
                        out.push(v);
                        flipped = f;
                    }
                }
                (Json::Arr(out), flipped)
            }
            Json::Obj(pairs) => {
                let mut out = Vec::with_capacity(pairs.len());
                let mut flipped = false;
                for (k, v) in pairs {
                    if flipped {
                        out.push((k.clone(), v.clone()));
                    } else {
                        let (v, f) = flip_first_int(v);
                        out.push((k.clone(), v));
                        flipped = f;
                    }
                }
                (Json::Obj(out), flipped)
            }
            other => (other.clone(), false),
        }
    }
    if let (Some(f2c), Json::Obj(pairs)) = (doc.get("field_to_container"), doc) {
        let (flipped, did) = flip_first_int(f2c);
        if did {
            return Json::Obj(
                pairs
                    .iter()
                    .map(|(k, v)| {
                        if k == "field_to_container" {
                            (k.clone(), flipped.clone())
                        } else {
                            (k.clone(), v.clone())
                        }
                    })
                    .collect(),
            );
        }
    }
    flip_first_int(doc).0
}

/// Parse `spec` and install it as the process-wide fault plan, resetting
/// all occurrence counters. See the module docs for the syntax.
pub fn install(spec: &str) -> Result<(), String> {
    let plan = parse_plan(spec)?;
    let mut st = match STATE.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    st.plan = Some(plan);
    ARMED.store(true, Ordering::Relaxed);
    Ok(())
}

/// Remove any installed fault plan and reset occurrence counters. After
/// this, every injection site is a single never-taken branch again.
pub fn disarm() {
    let mut st = match STATE.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    ARMED.store(false, Ordering::Relaxed);
    st.plan = None;
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
}

/// Install a plan from the `CHIPMUNK_FAULTS` environment variable, if
/// set. Called once at server start; later calls are no-ops. Prints the
/// active plan (including the seed) to stderr so a failure observed
/// under an injected schedule can be reproduced exactly.
///
/// The environment is a *fallback*, not an override: if a plan was
/// already installed programmatically (a test harness arms its own
/// schedule before starting an in-process server), that plan stands.
/// Harnesses that want the environment to influence their schedule fold
/// it in themselves (the chaos suite appends the env's `seed=` clause).
pub fn init_from_env() {
    if ENV_INIT.swap(true, Ordering::SeqCst) {
        return;
    }
    if armed() {
        return;
    }
    let Ok(spec) = std::env::var("CHIPMUNK_FAULTS") else {
        return;
    };
    if spec.trim().is_empty() {
        return;
    }
    match install(&spec) {
        Ok(()) => {
            let seed = STATE
                .lock()
                .map(|st| st.plan.as_ref().map_or(0, |p| p.seed))
                .unwrap_or(0);
            eprintln!(
                "chipmunk-serve: fault injection armed: CHIPMUNK_FAULTS={spec} (seed={seed})"
            );
        }
        Err(e) => {
            eprintln!("chipmunk-serve: ignoring invalid CHIPMUNK_FAULTS={spec}: {e}");
        }
    }
}

fn parse_plan(spec: &str) -> Result<Plan, String> {
    let mut seed = 0u64;
    let mut explicit: [Vec<u64>; NUM_KINDS] = Default::default();
    let mut prob = [0.0f64; NUM_KINDS];
    let mut stall = Duration::from_millis(50);
    for clause in spec.split(';') {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        if let Some(v) = clause.strip_prefix("seed=") {
            seed = v
                .parse()
                .map_err(|_| format!("bad seed in clause `{clause}`"))?;
        } else if let Some(v) = clause.strip_prefix("stall_ms=") {
            let ms: u64 = v
                .parse()
                .map_err(|_| format!("bad stall_ms in clause `{clause}`"))?;
            stall = Duration::from_millis(ms);
        } else if let Some((name, idxs)) = clause.split_once('@') {
            let kind = FaultKind::from_name(name)
                .ok_or_else(|| format!("unknown fault kind `{name}` in clause `{clause}`"))?;
            for part in idxs.split(',') {
                let i: u64 = part
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad occurrence index `{part}` in clause `{clause}`"))?;
                explicit[kind.index()].push(i);
            }
        } else if let Some((name, p)) = clause.split_once('%') {
            let kind = FaultKind::from_name(name)
                .ok_or_else(|| format!("unknown fault kind `{name}` in clause `{clause}`"))?;
            let p: f64 = p
                .parse()
                .map_err(|_| format!("bad probability in clause `{clause}`"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("probability out of [0,1] in clause `{clause}`"));
            }
            prob[kind.index()] = p;
        } else {
            return Err(format!("unrecognized clause `{clause}`"));
        }
    }
    for idxs in &mut explicit {
        idxs.sort_unstable();
        idxs.dedup();
    }
    Ok(Plan {
        seed,
        explicit,
        prob,
        stall,
        rng: Xoshiro256::seed_from_u64(seed),
    })
}

/// Extract a short human-readable message from a panic payload, as
/// returned by `catch_unwind`, truncated to a bounded length so a huge
/// formatted panic cannot bloat an error response.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    const MAX: usize = 200;
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    if msg.len() > MAX {
        let mut cut = MAX;
        while !msg.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{}…", &msg[..cut])
    } else {
        msg
    }
}

/// Fault state is process-global: unit tests that install a plan, or that
/// reach an injection site such as the cache's `cache_io` hook, hold this
/// lock, so one test's armed plan never consumes another's draws.
/// Integration tests use their own copy per binary.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static TEST_LOCK: Mutex<()> = Mutex::new(());
    TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_fires_nothing() {
        let _g = test_lock();
        disarm();
        assert!(!armed());
        assert!(!fired(FaultKind::CompilePanic));
        assert!(!fired(FaultKind::CacheIo));
    }

    #[test]
    fn explicit_indices_fire_exactly_once_each() {
        let _g = test_lock();
        install("panic@0,2").unwrap();
        assert!(fired(FaultKind::CompilePanic)); // occurrence 0
        assert!(!fired(FaultKind::CompilePanic)); // 1
        assert!(fired(FaultKind::CompilePanic)); // 2
        assert!(!fired(FaultKind::CompilePanic)); // 3
                                                  // Other kinds are untouched by the panic clause.
        assert!(!fired(FaultKind::ConnReset));
        disarm();
    }

    #[test]
    fn probability_schedule_is_reproducible_from_seed() {
        let _g = test_lock();
        let run = || {
            install("seed=99;cache_io%0.5").unwrap();
            let v: Vec<bool> = (0..32).map(|_| fired(FaultKind::CacheIo)).collect();
            disarm();
            v
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x), "p=0.5 over 32 draws should fire");
        assert!(a.iter().any(|&x| !x));
    }

    #[test]
    fn stall_duration_comes_from_plan() {
        let _g = test_lock();
        install("stall@0;stall_ms=7").unwrap();
        assert_eq!(stall_duration(), Duration::from_millis(7));
        disarm();
    }

    #[test]
    fn corrupt_kind_parses_and_fires() {
        let _g = test_lock();
        install("corrupt@0").unwrap();
        assert!(fired(FaultKind::CacheCorrupt));
        assert!(!fired(FaultKind::CacheCorrupt));
        disarm();
    }

    #[test]
    fn metrics_io_kind_parses_and_fires() {
        let _g = test_lock();
        install("metrics_io@0").unwrap();
        assert!(fired(FaultKind::MetricsIo));
        assert!(!fired(FaultKind::MetricsIo));
        // Independent of the compile-path kinds.
        assert!(!fired(FaultKind::CompilePanic));
        disarm();
    }

    #[test]
    fn proof_io_kind_parses_and_fires() {
        let _g = test_lock();
        install("proof_io@0").unwrap();
        assert!(fired(FaultKind::ProofIo));
        assert!(!fired(FaultKind::ProofIo));
        // Independent of the compile-path kinds.
        assert!(!fired(FaultKind::CompilePanic));
        disarm();
    }

    #[test]
    fn clock_stall_kind_parses_and_fires() {
        let _g = test_lock();
        install("clock_stall@0;stall_ms=5").unwrap();
        assert!(fired(FaultKind::ClockStall));
        assert!(!fired(FaultKind::ClockStall));
        assert_eq!(stall_duration(), Duration::from_millis(5));
        // Independent of the cancellable pre-compile stall.
        assert!(!fired(FaultKind::SolverStall));
        disarm();
    }

    #[test]
    fn corrupt_doc_flips_a_field_container_bit() {
        use chipmunk_trace::json::Json;
        let doc = Json::obj([
            ("grid", Json::obj([("stages", Json::from(2u64))])),
            (
                "field_to_container",
                Json::Arr(vec![Json::from(0u64), Json::from(1u64)]),
            ),
        ]);
        let bad = corrupt_doc(&doc);
        assert_ne!(bad, doc);
        // The flip lands in the field map, not the untouched sections.
        assert_eq!(bad.get("grid"), doc.get("grid"));
        let f2c = bad.get("field_to_container").unwrap().as_arr().unwrap();
        assert_eq!(f2c[0].as_u64(), Some(1));
        assert_eq!(f2c[1].as_u64(), Some(1));
        // Deterministic: the same document corrupts the same way.
        assert_eq!(corrupt_doc(&doc), bad);
        // No integers anywhere: unchanged, no panic.
        let empty = Json::obj([("name", Json::from("x"))]);
        assert_eq!(corrupt_doc(&empty), empty);
    }

    #[test]
    fn bad_specs_are_rejected() {
        let _g = test_lock();
        for bad in [
            "frobnicate@1",
            "panic@x",
            "seed=no",
            "panic%1.5",
            "stall_ms=ten",
            "justnoise",
        ] {
            assert!(parse_plan(bad).is_err(), "spec `{bad}` should be rejected");
        }
    }

    #[test]
    fn panic_message_truncates_and_handles_payload_types() {
        let long = "x".repeat(500);
        let payload: Box<dyn std::any::Any + Send> = Box::new(long);
        let msg = panic_message(payload.as_ref());
        assert!(msg.len() < 250);
        assert!(msg.ends_with('…'));
        let payload: Box<dyn std::any::Any + Send> = Box::new("short");
        assert_eq!(panic_message(payload.as_ref()), "short");
        let payload: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(payload.as_ref()), "non-string panic payload");
    }
}
