//! End-to-end robustness tests for the infeasibility-certification
//! degrade ladder, driven through the real environment knob
//! `CHIPMUNK_PROOF_BYTES` — the proof log byte budget (`0` disables
//! logging; a tiny budget forces truncation), whose degradations must be
//! explicit, never silent, and never a panic. (The quarantine → fresh
//! re-solve path is driven by a test-only hook in `cegis.rs`'s unit
//! tests.)
//!
//! The knob is a process-global environment variable, so this file is
//! its own test binary and every test serializes on a local mutex.

use std::sync::Mutex;

use chipmunk::{compile, CodegenError, CompilerOptions, InfeasibleCert};
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
