//! The in-process workloads: `corpus-fresh` and `infeasible-certified`.
//!
//! Both are closed loops on one thread. An op starts from source text
//! and goes through the compiler's public functions: `parse`, then
//! `chipmunk::compile_with_control` (the plan executor behind `compile`,
//! with a step observer), then `certify_success` for a config or the
//! client-side DRAT re-check (`Certificate::parse` + `check`) for an
//! infeasibility verdict. Every op runs once per round; rounds repeat the
//! whole op list, so each op's repeats are spread over the run. Answer
//! checks and the work fingerprint are computed outside the timed region.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;
use std::time::Instant;

use chipmunk::plan::StepReport;
use chipmunk::{
    certify_success, compile_with_control, Certificate, CertifyReport, CheckBudget, CodegenError,
    CompilerOptions, PlanControl, Sketch,
};
use chipmunk_bench::corpus::TemplateKind;
use chipmunk_lang::parse;
use chipmunk_trace::rng::Xoshiro256;

use crate::calib::{calibrated, Calibrator};
use crate::inputs::{self, compiler_options, minimal_stages, Source};
use crate::spans::{attribute, set_layer_times, set_solver_work, MemorySink};
use crate::stats::{describe_cluster, geomean, median, tail};
use crate::{check_fingerprint_ledger, peak_rss_mb, Args, Report};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    CorpusFresh,
    InfeasibleCertified,
}

/// Ops per program: (program, include the original, seeded mutants).
/// The counts are fixed per workload so that every seed runs the same
/// mix, and chosen so that `op_p50_ms` and `op_tail_ms` fall inside one
/// program's cluster of times (see `NOTES.md`).
fn mix(kind: Kind) -> &'static [(&'static str, bool, usize)] {
    match kind {
        Kind::CorpusFresh => &[
            ("sampling", true, 5),
            ("detect-new-flows", true, 5),
            ("stateful-firewall", true, 15),
            ("rcp", true, 7),
            ("detect-reordering", true, 1),
            ("blue-increase", true, 0),
            ("blue-decrease", true, 0),
        ],
        Kind::InfeasibleCertified => &[
            ("sampling", true, 2),
            ("detect-new-flows", true, 2),
            ("stateful-firewall", true, 2),
            ("rcp", true, 2),
            ("detect-reordering", true, 2),
            ("flowlet-switching", true, 2),
            ("blue-increase", true, 2),
            ("blue-decrease", true, 2),
        ],
    }
}

/// Nominal seconds one round takes; the run repeats the op list
/// `seconds / ROUND_S` times (at least 3). The round count is fixed by
/// the time budget, not measured, so the number of samples — and with it
/// the rank the tail percentile reads — is the same on every run.
fn round_seconds(kind: Kind) -> f64 {
    match kind {
        Kind::CorpusFresh => 8.0,
        Kind::InfeasibleCertified => 2.7,
    }
}

/// Set-up samples per run: the set-up before the first op, then one
/// repeat after every `attempts / SETUP_SAMPLES` ops of the untraced pass,
/// so that the samples see the same machine as the ops. `setup_s` is
/// their calibrated median.
const SETUP_SAMPLES: usize = 24;

/// What an op must produce.
#[derive(Clone, Copy)]
enum Expect {
    /// A certified config at the program's Figure 5 depth.
    Fits(usize),
    /// A certified `Infeasible` whose proof re-checks.
    Infeasible,
}

struct Op {
    source: Source,
    opts: CompilerOptions,
    expect: Expect,
}

fn build_ops(kind: Kind, seed: u64) -> Vec<Op> {
    let mut ops = Vec::new();
    for &(program, original, mutants) in mix(kind) {
        for source in inputs::variants(seed, program, original, mutants) {
            let k = minimal_stages(program);
            let mut opts = compiler_options(source.template);
            let expect = match kind {
                Kind::CorpusFresh => Expect::Fits(k),
                // The CI gate's recipe: cap at k−1 stages, or use the
                // inexpressive `raw` template at 1 stage when k = 1.
                Kind::InfeasibleCertified => {
                    if k >= 2 {
                        opts.max_stages = k - 1;
                    } else {
                        opts.stateful = TemplateKind::Raw.spec(inputs::IMM_BITS);
                        opts.max_stages = 1;
                    }
                    Expect::Infeasible
                }
            };
            ops.push(Op {
                source,
                opts,
                expect,
            });
        }
    }
    ops
}

/// Per-op result of one timed execution.
struct Outcome {
    raw_ms: f64,
    /// Work fingerprint, or why the answer was wrong.
    work: Result<u64, String>,
    steps: usize,
    certify_inputs: u64,
    proof_lemmas: u64,
    proof_bytes: u64,
}

fn hash_of(h: impl Hash) -> u64 {
    let mut s = DefaultHasher::new();
    h.hash(&mut s);
    s.finish()
}

fn execute(index: usize, op: &Op) -> Outcome {
    let steps: Mutex<Vec<(usize, &'static str, &'static str)>> = Mutex::new(Vec::new());
    let observer = |r: &StepReport| {
        steps.lock().unwrap_or_else(|e| e.into_inner()).push((
            r.stages,
            r.strategy.name(),
            r.outcome.name(),
        ));
    };
    let t0 = Instant::now();
    let op_span = chipmunk_trace::span!("bench.op", op = index as u64);
    let parsed = {
        let _sp = chipmunk_trace::span!("bench.parse");
        parse(&op.source.text)
    };
    let prog = match parsed {
        Ok(p) => p,
        Err(e) => return failed(t0, format!("parse: {e}")),
    };
    let result = {
        let _sp = chipmunk_trace::span!("bench.compile");
        compile_with_control(
            &prog,
            &op.opts,
            PlanControl {
                observer: Some(&observer),
                ..PlanControl::default()
            },
        )
    };
    // Finish the op's public calls, then stop the clock.
    enum Answer {
        Fits(Box<chipmunk::CodegenSuccess>, Result<CertifyReport, String>),
        Infeasible(chipmunk::InfeasibleCert, Result<bool, String>),
        Wrong(String),
    }
    let answer = match (op.expect, result) {
        (Expect::Fits(_), Ok(out)) => {
            let report = {
                let _sp = chipmunk_trace::span!("bench.certify_success");
                certify_success(&prog, &op.opts, &out)
            };
            Answer::Fits(Box::new(out), report)
        }
        (Expect::Infeasible, Err(CodegenError::Infeasible(cert))) => {
            let checked = {
                let _sp = chipmunk_trace::span!("bench.proof_check");
                match cert.proof.as_deref() {
                    Some(text) => Certificate::parse(text)
                        .map(|c| c.check(&CheckBudget::default()).is_valid())
                        .map_err(|e| format!("shipped proof does not parse: {e}")),
                    None => Err("certified verdict shipped no proof".to_string()),
                }
            };
            Answer::Infeasible(cert, checked)
        }
        (Expect::Fits(_), Err(e)) => Answer::Wrong(format!("expected a config, got: {e}")),
        (Expect::Infeasible, Ok(out)) => Answer::Wrong(format!(
            "expected infeasible, compiled in {} stage(s)",
            out.resources.stages_used
        )),
        (Expect::Infeasible, Err(e)) => Answer::Wrong(format!("expected infeasible, got: {e}")),
    };
    drop(op_span);
    let raw_ms = t0.elapsed().as_secs_f64() * 1e3;

    let steps = steps.into_inner().unwrap_or_else(|e| e.into_inner());
    let mut outcome = Outcome {
        raw_ms,
        work: Err(String::new()),
        steps: steps.len(),
        certify_inputs: 0,
        proof_lemmas: 0,
        proof_bytes: 0,
    };
    outcome.work = match answer {
        Answer::Wrong(why) => Err(why),
        Answer::Fits(out, report) => {
            let Expect::Fits(k) = op.expect else {
                unreachable!()
            };
            check_config(&prog, op, &out, report, k).map(|inputs| {
                outcome.certify_inputs = inputs as u64;
                let s = &out.stats;
                hash_of((
                    &steps,
                    out.resources.stages_used,
                    &out.hole_values,
                    s.iterations,
                    s.counterexamples,
                    s.synth_conflicts,
                    s.synth_propagations,
                    s.verify_conflicts,
                    s.verify_propagations,
                ))
            })
        }
        Answer::Infeasible(cert, checked) => match checked {
            Ok(true) if cert.certified => {
                outcome.proof_lemmas = cert.lemmas;
                outcome.proof_bytes = cert.proof_bytes;
                Ok(hash_of((
                    &steps,
                    cert.lemmas,
                    cert.proof_bytes,
                    &cert.proof,
                )))
            }
            Ok(true) => Err(format!("verdict not certified: {:?}", cert.reason)),
            Ok(false) => Err("shipped proof fails the independent re-check".to_string()),
            Err(why) => Err(why),
        },
    };
    outcome
}

fn failed(t0: Instant, why: String) -> Outcome {
    Outcome {
        raw_ms: t0.elapsed().as_secs_f64() * 1e3,
        work: Err(why),
        steps: 0,
        certify_inputs: 0,
        proof_lemmas: 0,
        proof_bytes: 0,
    }
}

/// The answer checks for a config: certified, differentially validated
/// against the interpreter, and at the Figure 5 depth.
fn check_config(
    prog: &chipmunk_lang::Program,
    op: &Op,
    out: &chipmunk::CodegenSuccess,
    report: Result<CertifyReport, String>,
    k: usize,
) -> Result<usize, String> {
    let report = report.map_err(|e| format!("certify_success: {e}"))?;
    if out.resources.stages_used != k {
        return Err(format!(
            "{} stage(s), Figure 5 says {k}",
            out.resources.stages_used
        ));
    }
    let sketch = Sketch::new(
        out.grid.clone(),
        prog.field_names().len(),
        prog.state_names().len(),
        op.opts.sketch,
    )
    .map_err(|e| format!("winning sketch does not rebuild: {e:?}"))?;
    if let Some(inp) = chipmunk::cegis::validate_decoded(
        prog,
        &sketch,
        &out.decoded,
        op.opts.cegis.verify_width,
        200,
        inputs::CEGIS_SEED,
    ) {
        return Err(format!("validate_decoded: mismatch on {inp:?}"));
    }
    Ok(report.inputs_checked)
}

/// What one pass measured.
struct Pass {
    /// Per op: (raw ms, calibration ms) of each correct repeat.
    samples: Vec<Vec<(f64, f64)>>,
    /// Per op: the first repeat's fingerprint.
    fingerprints: Vec<Option<u64>>,
    attempted: u64,
    failed: u64,
    /// Work changed between repeats of one op.
    unsteady: bool,
    steps: u64,
    certify_inputs: u64,
    proof_lemmas: u64,
    proof_bytes: u64,
}

/// One pass: `rounds` repeats of the op list, each round in its own
/// seeded order so that a burst of machine noise lands on a mix of
/// programs rather than on consecutive variants of one; a calibration
/// sample before every op. `between` runs before each op with the number
/// of ops attempted so far.
fn pass(
    ops: &[Op],
    rounds: usize,
    seed: u64,
    cal: &mut Calibrator,
    mut between: impl FnMut(u64),
) -> Pass {
    let mut p = Pass {
        samples: vec![Vec::new(); ops.len()],
        fingerprints: vec![None; ops.len()],
        attempted: 0,
        failed: 0,
        unsteady: false,
        steps: 0,
        certify_inputs: 0,
        proof_lemmas: 0,
        proof_bytes: 0,
    };
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..ops.len()).collect();
    for _ in 0..rounds {
        for k in (1..order.len()).rev() {
            order.swap(k, rng.gen_usize(k + 1));
        }
        for &i in &order {
            let op = &ops[i];
            between(p.attempted);
            let c = cal.sample();
            let o = execute(i, op);
            p.attempted += 1;
            p.steps += o.steps as u64;
            p.certify_inputs += o.certify_inputs;
            p.proof_lemmas += o.proof_lemmas;
            p.proof_bytes += o.proof_bytes;
            match o.work {
                Ok(fp) => {
                    match p.fingerprints[i] {
                        None => p.fingerprints[i] = Some(fp),
                        Some(prev) if prev != fp => {
                            eprintln!("{}: work changed between repeats", op.source.label());
                            p.unsteady = true;
                        }
                        Some(_) => {}
                    }
                    p.samples[i].push((o.raw_ms, c));
                }
                Err(why) => {
                    eprintln!("{}: FAILED: {why}", op.source.label());
                    p.failed += 1;
                }
            }
        }
    }
    p
}

/// A pass's times, scaled by the median of its calibration samples.
struct Summary {
    /// Per program: median calibrated time over all its op samples.
    program_medians: Vec<f64>,
    /// Per program: median raw time.
    raw_medians: Vec<f64>,
    /// Per op: its program's median in seconds (the cost goodput charges).
    op_cost_s: Vec<f64>,
    /// Every calibrated sample.
    all: Vec<f64>,
    /// Every calibrated sample with its program.
    labelled: Vec<(&'static str, f64)>,
    calib_ms: f64,
}

fn summarize(ops: &[Op], p: &Pass) -> Summary {
    let calib: Vec<f64> = p.samples.iter().flatten().map(|&(_, c)| c).collect();
    let calib_ms = median(&calib);
    let mut programs: Vec<&str> = ops.iter().map(|o| o.source.program).collect();
    programs.dedup();
    let mut s = Summary {
        program_medians: Vec::new(),
        raw_medians: Vec::new(),
        op_cost_s: vec![0.0; ops.len()],
        all: Vec::new(),
        labelled: Vec::new(),
        calib_ms,
    };
    for program in programs {
        let idx: Vec<usize> = (0..ops.len())
            .filter(|&i| ops[i].source.program == program)
            .collect();
        let raw: Vec<f64> = idx
            .iter()
            .flat_map(|&i| p.samples[i].iter().map(|&(r, _)| r))
            .collect();
        if raw.is_empty() {
            continue;
        }
        let cal: Vec<f64> = raw.iter().map(|&r| calibrated(r, calib_ms)).collect();
        let m = median(&cal);
        for &i in &idx {
            s.op_cost_s[i] = m / 1e3;
        }
        s.program_medians.push(m);
        s.raw_medians.push(median(&raw));
        s.labelled.extend(cal.iter().map(|&v| (program, v)));
        s.all.extend(cal);
    }
    s
}

fn fingerprint(ops: &[Op], p: &Pass) -> String {
    let h = hash_of(
        ops.iter()
            .zip(&p.fingerprints)
            .map(|(op, fp)| (op.source.label(), *fp))
            .collect::<Vec<_>>(),
    );
    format!("{h:016x}")
}

fn counter(name: &str) -> u64 {
    chipmunk_trace::metrics::counter_snapshot()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, v)| v)
}

/// Set-up: the calibration table, input generation and one warm-up op.
/// Returns the calibrator, the ops and how long it took, in seconds.
fn set_up(kind: Kind, seed: u64) -> Result<(Calibrator, Vec<Op>, f64), String> {
    let t0 = Instant::now();
    let cal = Calibrator::new();
    let ops = build_ops(kind, seed);
    let warm = execute(0, &ops[0]);
    warm.work.map_err(|e| format!("warm-up op failed: {e}"))?;
    Ok((cal, ops, t0.elapsed().as_secs_f64()))
}

pub fn run(kind: Kind, args: &Args) -> Result<Report, String> {
    let (mut cal, ops, first) = set_up(kind, args.seed)?;
    let rounds = ((args.seconds / round_seconds(kind)).round() as usize).max(3);
    let untraced_rounds = if args.trace {
        rounds.div_ceil(2)
    } else {
        rounds
    };
    let mut setup = vec![first];
    let mut setup_err = None;
    let every = (ops.len() * untraced_rounds / SETUP_SAMPLES).max(1) as u64;
    let p = pass(&ops, untraced_rounds, args.seed, &mut cal, |done| {
        if done > 0 && done % every == 0 {
            match set_up(kind, args.seed) {
                Ok((_, _, s)) => setup.push(s),
                Err(e) => setup_err = Some(e),
            }
        }
    });
    if let Some(e) = setup_err {
        return Err(e);
    }
    let rss = peak_rss_mb("self");
    let sum = summarize(&ops, &p);
    let fp = fingerprint(&ops, &p);
    let mut correct = p.failed == 0 && !p.unsteady;
    correct &= check_fingerprint_ledger(args, &fp);

    let t = tail(&sum.all);
    let p50 = median(&sum.all);
    let mid = (sum.all.len().max(1) - 1) / 2;
    println!("{}", describe_cluster("op_p50_ms", &sum.labelled, mid));
    println!("{}", describe_cluster("op_tail_ms", &sum.labelled, t.rank));
    let good: f64 = p
        .samples
        .iter()
        .map(|s| s.len() as f64 / untraced_rounds as f64)
        .sum();
    let busy_s: f64 = sum.op_cost_s.iter().sum();
    println!(
        "{}: {} ops x {untraced_rounds} rounds; op_tail_ms is p{:.1} of {} samples ({} beyond)",
        args.workload,
        ops.len(),
        t.percentile,
        t.samples,
        crate::stats::TAIL_BEYOND
    );
    let mut report = Report {
        attempted: p.attempted,
        failed: p.failed,
        correct,
        e2e: vec![
            ("op_p50_ms", p50, "ms"),
            ("op_tail_ms", t.value, "ms"),
            ("op_geomean_ms", geomean(&sum.program_medians), "ms"),
            ("goodput_per_s", good / busy_s, "1/s"),
            ("peak_rss_mb", rss, "MB"),
            ("setup_s", calibrated(median(&setup), sum.calib_ms), "s"),
        ],
        layer: Vec::new(),
    };
    let raw_all: Vec<f64> = p.samples.iter().flatten().map(|&(r, _)| r).collect();
    eprintln!(
        "  raw: op_p50_ms {:.4}, op_tail_ms {:.4}, op_geomean_ms {:.4}, setup_s {:.4} ({} samples), calibration median {:.4} ms",
        median(&raw_all),
        tail(&raw_all).value,
        geomean(&sum.raw_medians),
        median(&setup),
        setup.len(),
        sum.calib_ms
    );
    report.set_layer("machine.calib_ms", sum.calib_ms);
    report.set_layer("op_raw_geomean_ms", geomean(&sum.raw_medians));

    if args.trace {
        let sink = MemorySink::install();
        let clauses0 = counter("bv.blast.clauses");
        let gates0 = counter("bv.blast.gates");
        let tp = pass(&ops, untraced_rounds, args.seed, &mut cal, |_| {});
        let clauses = counter("bv.blast.clauses") - clauses0;
        let gates = counter("bv.blast.gates") - gates0;
        let records = sink.drain();
        drop(sink);
        report.attempted += tp.attempted;
        report.failed += tp.failed;
        report.correct &= tp.failed == 0 && !tp.unsteady && fingerprint(&ops, &tp) == fp;
        let traced = summarize(&ops, &tp);
        let ratios: Vec<f64> = traced
            .program_medians
            .iter()
            .zip(&sum.program_medians)
            .map(|(t, u)| t / u)
            .collect();
        report.set_layer("trace.overhead_share", geomean(&ratios) - 1.0);
        layer_metrics(&mut report, &records, &tp, clauses, gates);
    }
    Ok(report)
}

/// Per-layer metrics of a traced pass, each a mean per op sample.
fn layer_metrics(
    report: &mut Report,
    records: &[chipmunk_trace::json::Json],
    tp: &Pass,
    clauses: u64,
    gates: u64,
) {
    let roots: Vec<_> = attribute(records)
        .into_iter()
        .filter(|w| w.name == "bench.op")
        .collect();
    let n = roots.len().max(1) as f64;
    set_layer_times(report, &roots, n);
    set_solver_work(report, &roots, n);
    report.set_layer("blast.clauses", clauses as f64 / n);
    report.set_layer("blast.gates", gates as f64 / n);
    let ops = tp.attempted.max(1) as f64;
    report.set_layer("plan.steps_run", tp.steps as f64 / ops);
    report.set_layer("certify.inputs", tp.certify_inputs as f64 / ops);
    report.set_layer("proof.lemmas", tp.proof_lemmas as f64 / ops);
    report.set_layer("proof.bytes", tp.proof_bytes as f64 / ops);
    let op_ms: f64 = roots.iter().map(|w| w.dur_ms).sum();
    let unattributed: f64 = roots.iter().map(|w| w.unattributed_ms).sum();
    report.set_layer(
        "unattributed_share",
        if op_ms > 0.0 {
            unattributed / op_ms
        } else {
            0.0
        },
    );
}
