//! `perfbench` — end-to-end and per-layer performance benchmark.
//!
//! ```text
//! perfbench --workload corpus-fresh|infeasible-certified|serve-mutants
//!           --seed N --seconds S --trace 0|1
//!           [--chipmunkc PATH] [--workdir DIR]
//! ```
//!
//! `--trace 0` measures with tracing off and prints the end-to-end
//! metrics; `--trace 1` runs an untraced and a traced pass of the same
//! workload and prints the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `NOTES.md`.

mod calib;
mod inproc;
mod inputs;
mod serve;
mod spans;
mod stats;

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;

use chipmunk_trace::json::Json;

/// Every per-layer metric and its unit. A traced run prints all of them
/// for every workload; a layer a workload does not use reads 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("lang.parse_ms", "ms"),
    ("lang.cache_key_ms", "ms"),
    ("plan.ms", "ms"),
    ("plan.steps_run", "count"),
    ("synth.solve_ms", "ms"),
    ("synth.solves", "count"),
    ("synth.conflicts", "count"),
    ("synth.propagations", "count"),
    ("verify.solve_ms", "ms"),
    ("verify.conflicts", "count"),
    ("cegis.iterations", "count"),
    ("cegis.counterexamples", "count"),
    ("cegis.screen_cex_share", "share"),
    ("blast.clauses", "count"),
    ("blast.gates", "count"),
    ("cegis.other_ms", "ms"),
    ("proof.lemmas", "count"),
    ("proof.bytes", "bytes"),
    ("proof.recheck_ms", "ms"),
    ("certify.ms", "ms"),
    ("certify.inputs", "count"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.compile_ms", "ms"),
    ("serve.certify_ms", "ms"),
    ("serve.remap_ms", "ms"),
    ("serve.e2e_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.hit_ratio", "share"),
    ("serve.hit_rtt_p50_ms", "ms"),
    ("serve.miss_rtt_p50_ms", "ms"),
    ("serve.refused", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("machine.calib_ms", "ms"),
    ("op_raw_geomean_ms", "ms"),
    ("trace.overhead_share", "share"),
    ("unattributed_share", "share"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub chipmunkc: PathBuf,
    pub workdir: PathBuf,
}

/// What one run measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// False when any answer check or the work-fingerprint check failed.
    pub correct: bool,
    /// End-to-end metrics: name, value, unit.
    pub e2e: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics by name (units from [`PER_LAYER`]).
    pub layer: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn set_layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        match self.layer.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.layer.push((name, value)),
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut chipmunkc = PathBuf::from("target/release/chipmunkc");
    let mut workdir = PathBuf::from(".bench_work");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--chipmunkc" => chipmunkc = PathBuf::from(value()?),
            "--workdir" => workdir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        chipmunkc,
        workdir,
    })
}

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Identity of the code under test: a hash of this executable, which
/// links the compiler crates the in-process workloads call, and of the
/// `chipmunkc` daemon binary.
fn build_id(args: &Args) -> u64 {
    let mut h = DefaultHasher::new();
    for path in [std::env::current_exe().ok(), Some(args.chipmunkc.clone())]
        .into_iter()
        .flatten()
    {
        std::fs::read(path).unwrap_or_default().hash(&mut h);
    }
    h.finish()
}

/// Compare a run's work fingerprint with the one recorded by an earlier
/// run of the same build, workload, seed, `--seconds` and `--trace` in
/// this directory (those fix every op and request the run makes), then
/// record it. Returns false on a mismatch.
pub fn check_fingerprint_ledger(args: &Args, fingerprint: &str) -> bool {
    let dir = args.workdir.join("fingerprints");
    let path = dir.join(format!(
        "{}-seed{}-s{}-trace{}-build{:016x}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        build_id(args)
    ));
    println!(
        "fingerprint {} seed {} {fingerprint}",
        args.workload, args.seed
    );
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev.trim() != fingerprint => {
            eprintln!(
                "work fingerprint {fingerprint} differs from {} recorded in {}",
                prev.trim(),
                path.display()
            );
            false
        }
        Ok(_) => true,
        Err(_) => {
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(&path, fingerprint);
            true
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "corpus-fresh" => inproc::run(inproc::Kind::CorpusFresh, &args),
        "infeasible-certified" => inproc::run(inproc::Kind::InfeasibleCertified, &args),
        "serve-mutants" => serve::run(&args),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for (name, value, unit) in &report.e2e {
        eprintln!("  {name:<24} {value:>12.4} {unit}");
    }
    let metrics: Vec<(String, Json)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = report
                    .layer
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v);
                eprintln!("  {name:<24} {v:>12.4} {unit}");
                (name, v, unit)
            })
            .map(|(n, v, u)| {
                (
                    n.to_string(),
                    Json::obj([("value", Json::F64(v)), ("unit", Json::from(u))]),
                )
            })
            .collect()
    } else {
        report
            .e2e
            .iter()
            .map(|&(n, v, u)| {
                (
                    n.to_string(),
                    Json::obj([("value", Json::F64(v)), ("unit", Json::from(u))]),
                )
            })
            .collect()
    };
    let out = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(report.correct)),
        ("attempted".to_string(), Json::U64(report.attempted)),
        ("failed".to_string(), Json::U64(report.failed)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ]);
    println!("{}", out.to_compact());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares the per-layer metrics a traced run prints.
    #[test]
    fn per_layer_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let declared: Vec<(&str, &str)> = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
                (field("name"), field("unit"))
            })
            .collect();
        assert_eq!(declared, PER_LAYER);
    }
}
