//! End-to-end robustness tests for the infeasibility-certification
//! degrade ladder, driven through the real environment knobs:
//!
//! * `CHIPMUNK_CORRUPT_INFEASIBLE_PROOF=1` — test hook that corrupts the
//!   incremental solver's proof before the check, forcing the
//!   quarantine → fresh-re-solve path a real proof-logging bug would take;
//! * `CHIPMUNK_PROOF_BYTES` — proof log byte budget (`0` disables
//!   logging; a tiny budget forces truncation), whose degradations must
//!   be explicit, never silent, and never a panic.
//!
//! The hooks are process-global environment variables, so this file is
//! its own test binary and every test serializes on a local mutex.

use std::sync::Mutex;

use chipmunk::{compile, Certificate, CheckBudget, CodegenError, CompilerOptions, InfeasibleCert};
use chipmunk_lang::parse;

static ENV_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    ENV_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Compile a program the small test grid can never fit (multiplication
/// has no ALU support there) and return the certification record that
/// travelled with the Infeasible verdict.
fn infeasible_compile() -> InfeasibleCert {
    let prog = parse("pkt.z = pkt.x * pkt.y;").unwrap();
    match compile(&prog, &CompilerOptions::small_for_tests()).unwrap_err() {
        CodegenError::Infeasible(cert) => cert,
        other => panic!("expected an infeasible verdict, got: {other}"),
    }
}

/// Tentpole acceptance: a corrupted incremental proof is *rejected* by
/// the checker, the verdict is quarantined, and one fresh re-solve
/// re-derives the infeasibility with a proof that does validate — the
/// caller still ends up with a certified verdict, and the record shows
/// the whole journey.
#[test]
fn corrupted_incremental_proof_is_quarantined_and_fresh_resolved() {
    let _g = lock();
    std::env::set_var("CHIPMUNK_CORRUPT_INFEASIBLE_PROOF", "1");
    let cert = infeasible_compile();
    std::env::remove_var("CHIPMUNK_CORRUPT_INFEASIBLE_PROOF");
    assert!(
        cert.quarantined,
        "a corrupted incremental proof must quarantine the verdict: {cert:?}"
    );
    assert!(
        cert.fresh_resolve,
        "quarantine must trigger a fresh re-solve: {cert:?}"
    );
    assert!(
        cert.certified,
        "the fresh re-solve must re-certify the verdict: {cert:?}"
    );
    let proof = cert
        .proof
        .as_deref()
        .expect("the re-certified verdict ships its (fresh) proof");
    assert!(
        Certificate::parse(proof)
            .unwrap()
            .check(&CheckBudget::default())
            .is_valid(),
        "shipped proof must re-validate independently"
    );
}

/// Proof logging off: the verdict still arrives (solving is unaffected)
/// but it is explicitly unchecked, with a reason — never silent.
#[test]
fn disabled_proof_logging_degrades_to_an_explicit_unchecked_verdict() {
    let _g = lock();
    std::env::set_var("CHIPMUNK_PROOF_BYTES", "0");
    let cert = infeasible_compile();
    std::env::remove_var("CHIPMUNK_PROOF_BYTES");
    assert!(!cert.certified, "{cert:?}");
    assert!(cert.proof.is_none(), "{cert:?}");
    let reason = cert.reason.as_deref().expect("unchecked verdict says why");
    assert!(reason.contains("disabled"), "reason: {reason}");
}

/// A starved proof byte budget truncates the log mid-solve; the verdict
/// degrades to explicitly-unchecked with the overflow named, and the
/// compile neither panics nor loses the infeasibility itself.
#[test]
fn truncated_proof_log_degrades_to_an_explicit_unchecked_verdict() {
    let _g = lock();
    std::env::set_var("CHIPMUNK_PROOF_BYTES", "512");
    let cert = infeasible_compile();
    std::env::remove_var("CHIPMUNK_PROOF_BYTES");
    assert!(!cert.certified, "{cert:?}");
    assert!(cert.truncated, "{cert:?}");
    let reason = cert.reason.as_deref().expect("unchecked verdict says why");
    assert!(reason.contains("overflow"), "reason: {reason}");
}
