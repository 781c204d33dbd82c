//! The `serve-mutants` workload: open-loop traffic against a
//! `chipmunkc serve --workers 1` child process.
//!
//! One client process sends on one pipelined connection from a sender
//! thread, on a fixed schedule, while the main thread reads replies
//! (matched by `id`). The schedule is built from 8-second segments at 40
//! requests per second, due in bursts of 8. Each segment opens with one
//! expensive miss (a two-stage program), leaves the worker a quiet window
//! to finish it, then sends eight cheap misses half a second apart; every
//! other request is a hit on a pool of keys compiled during set-up.
//! Latency is measured from each request's due time, so a stall also
//! charges the requests it delays.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::linux::net::TcpStreamExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use chipmunk::{cache_key, certify_config, CertifyRequest, CompilerOptions};
use chipmunk_lang::{parse, Program};
use chipmunk_pisa::GridSpec;
use chipmunk_serve::protocol::decode_result;
use chipmunk_serve::{Client, JobOptions};
use chipmunk_trace::json::Json;
use chipmunk_trace::rng::Xoshiro256;

use crate::calib::{calibrated, Calibrator};
use crate::inputs::{self, minimal_stages, Source};
use crate::spans::{attribute, set_layer_times, set_solver_work, MemorySink, RootWork};
use crate::stats::{describe_cluster, geomean, median, percentile, tail};
use crate::{check_fingerprint_ledger, peak_rss_mb, Args, Report};

const SEGMENT_S: f64 = 8.0;
const RATE_PER_S: f64 = 40.0;
/// Requests are due in back-to-back bursts of this many (every 0.2 s at
/// 40 requests/s). Only a burst's first request finds the daemon idle;
/// the rest queue behind their predecessors on the connection, so the
/// median request measures the daemon's hit path more than the wake-up
/// latency of an idle virtual CPU, which swings several-fold with the
/// load of other tenants.
const BURST: usize = 8;
/// Quiet window after a segment's expensive miss before the cheap ones.
const QUIET_S: f64 = 3.5;
const CHEAP_MISSES_PER_SEGMENT: usize = 8;
/// Replies slower than this do not count toward goodput.
const LATENCY_LIMIT_MS: f64 = 5000.0;
/// Set-ups before the timed load (the last one's daemon serves it) and
/// after it. `setup_s` is their median, scaled by the median of
/// calibration samples taken just before each set-up: the machine's speed
/// moves within a run, and the load's own samples come from another
/// part of it.
const SETUPS_BEFORE: usize = 2;
const SETUPS_AFTER: usize = 7;
/// The sender takes a calibration sample this long before each burst.
const CALIB_LEAD_MS: u64 = 20;

/// Programs whose keys make up the hit pool (two keys each) and the
/// cheap misses; `rcp` supplies half of the cheap misses.
const CHEAP: [&str; 3] = ["sampling", "detect-new-flows", "stateful-firewall"];
const EXPENSIVE: [&str; 3] = ["blue-increase", "blue-decrease", "detect-reordering"];
/// Option variants (`max_stages` × `max_iters`): they change the cache
/// key but not the work, since the sequential plan stops at the minimal
/// depth and CEGIS converges well inside the iteration cap.
const MAX_STAGES: [u64; 4] = [2, 3, 4, 5];
const MAX_ITERS: [u64; 5] = [256, 320, 384, 448, 512];

/// One distinct compile query: a cache key and every generated text
/// (the original and its mutants) that canonicalizes to it.
#[derive(Clone)]
struct Query {
    sources: Vec<Source>,
    options: Json,
    opts: CompilerOptions,
    key: String,
}

#[derive(Clone)]
struct Request {
    query: usize,
    /// Which of the query's texts is sent.
    text: usize,
    /// A hit on the set-up pool (else a first request for its key).
    hit: bool,
    due_s: f64,
}

fn query(source: &Source, max_stages: u64, max_iters: u64) -> Result<Query, String> {
    let options = Json::obj([
        (
            "template",
            Json::from(source.template.spec(inputs::IMM_BITS).name),
        ),
        ("imm", Json::from(u64::from(inputs::IMM_BITS))),
        ("width", Json::from(u64::from(inputs::VERIFY_WIDTH))),
        ("screen_width", Json::from(5u64)),
        ("synth_input_bits", Json::from(5u64)),
        ("num_initial_inputs", Json::from(4u64)),
        ("max_iters", Json::from(max_iters)),
        ("seed", Json::from(inputs::CEGIS_SEED)),
        ("max_stages", Json::from(max_stages)),
        ("timeout_ms", Json::from(60_000u64)),
    ]);
    let opts = JobOptions::from_json(&options)?.to_compiler_options()?;
    let prog = parse(&source.text).map_err(|e| e.to_string())?;
    let key = cache_key(&prog, &opts);
    Ok(Query {
        sources: vec![source.clone()],
        options,
        opts,
        key,
    })
}

/// Queries of `program` (its original and `mutants` seeded mutants under
/// every option variant), grouped by cache key, in a seeded order.
fn candidates(
    seed: u64,
    program: &str,
    mutants: usize,
    rng: &mut Xoshiro256,
) -> Result<Vec<Query>, String> {
    let sources = inputs::variants(seed, program, true, mutants);
    let mut out: Vec<Query> = Vec::new();
    for &iters in &MAX_ITERS {
        for &stages in &MAX_STAGES {
            for source in &sources {
                let q = query(source, stages, iters)?;
                match out.iter_mut().find(|o| o.key == q.key) {
                    Some(o) => o.sources.push(source.clone()),
                    None => out.push(q),
                }
            }
        }
    }
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_usize(i + 1));
    }
    Ok(out)
}

/// The queries and the timed schedule for `segments` segments.
fn workload(seed: u64, segments: usize) -> Result<(Vec<Query>, usize, Vec<Request>), String> {
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x5e7e);
    let mut pool: Vec<Query> = Vec::new();
    let mut cheap: Vec<Vec<Query>> = Vec::new();
    for program in CHEAP.iter().chain(["rcp"].iter()) {
        let mut c = candidates(seed, program, 3, &mut rng)?;
        pool.extend(c.drain(..2));
        cheap.push(c);
    }
    let mut expensive: Vec<Vec<Query>> = EXPENSIVE
        .iter()
        .map(|p| candidates(seed, p, 1, &mut rng))
        .collect::<Result<_, _>>()?;
    let pool_len = pool.len();
    let mut queries = pool;
    let first = rng.gen_usize(EXPENSIVE.len());
    let slot = 1.0 / RATE_PER_S;
    let per_segment = (SEGMENT_S * RATE_PER_S) as usize;
    let mut schedule = Vec::new();
    for s in 0..segments {
        let base = s as f64 * SEGMENT_S;
        let mut misses: HashMap<usize, usize> = HashMap::new();
        let e = (first + s) % EXPENSIVE.len();
        misses.insert(0, take(&mut queries, &mut expensive[e])?);
        for j in 0..CHEAP_MISSES_PER_SEGMENT {
            // Alternate rcp with the three one-stage programs.
            let c = if j % 2 == 0 { 3 } else { (j / 2 + s) % 3 };
            let at = ((QUIET_S + 0.5 * j as f64) / slot).round() as usize;
            misses.insert(at, take(&mut queries, &mut cheap[c])?);
        }
        for i in 0..per_segment {
            let (query, hit) = match misses.get(&i) {
                Some(&m) => (m, false),
                None => (rng.gen_usize(pool_len), true),
            };
            let text = rng.gen_usize(queries[query].sources.len());
            schedule.push(Request {
                query,
                text,
                hit,
                due_s: base + (i / BURST * BURST) as f64 * slot,
            });
        }
    }
    Ok((queries, pool_len, schedule))
}

/// Move the next unused query of `from` into `queries`; its index.
fn take(queries: &mut Vec<Query>, from: &mut Vec<Query>) -> Result<usize, String> {
    let q = from.pop().ok_or("ran out of distinct cache keys")?;
    queries.push(q);
    Ok(queries.len() - 1)
}

/// A running daemon and its stderr drain.
struct Daemon {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    fn start(chipmunkc: &Path, dir: &Path, trace: Option<&Path>) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut cmd = Command::new(chipmunkc);
        cmd.args(["serve", "--workers", "1", "--addr", "127.0.0.1:0"])
            .arg("--cache-dir")
            .arg(dir.join("cache"))
            .arg("--journal-dir")
            .arg(dir.join("journal"));
        if let Some(t) = trace {
            cmd.arg("--trace").arg(t);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", chipmunkc.display()))?;
        let stderr = child.stderr.take().expect("piped stderr");
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(rest) = line.split("listening on ").nth(1) {
                    let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                    let _ = tx.send(addr);
                }
            }
        });
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(addr) => Ok(Daemon {
                child,
                addr,
                drain: Some(drain),
            }),
            Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                Err("daemon did not report its address".to_string())
            }
        }
    }

    fn client(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Drain-mode shutdown; waits for the process to exit.
    fn stop(mut self) {
        if let Ok(mut c) = self.client() {
            let _ = c.shutdown(false);
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn compile_doc(id: u64, trace: &str, q: &Query, text: usize) -> Json {
    Json::obj([
        ("op", Json::from("compile")),
        ("id", Json::from(id)),
        ("trace", Json::from(trace)),
        ("program", Json::from(q.sources[text].text.as_str())),
        ("options", q.options.clone()),
    ])
}

/// Compile the hit pool (pipelined) and wait for every reply.
fn warm(d: &Daemon, queries: &[Query], pool: usize) -> Result<(), String> {
    let mut c = d.client()?;
    for (i, q) in queries[..pool].iter().enumerate() {
        c.send(&compile_doc(i as u64, &format!("warm-{i}"), q, 0))
            .map_err(|e| e.to_string())?;
    }
    for _ in 0..pool {
        let r = c.recv().map_err(|e| e.to_string())?;
        if r.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("warm-up compile failed: {}", r.to_compact()));
        }
    }
    Ok(())
}

/// One reply as the client saw it.
struct Seen {
    /// Send time minus due time.
    lag_ms: f64,
    /// Reply time minus due time (what the open loop charges).
    latency_ms: f64,
    /// Reply time minus send time.
    rtt_ms: f64,
    reply: Json,
}

/// Drive the schedule over one connection. The sender thread also takes
/// a calibration sample in the idle gap before each burst, so machine
/// speed is sampled throughout the load, as in the in-process workloads.
fn load(
    d: &Daemon,
    queries: &[Query],
    schedule: &[Request],
    traced: bool,
    mut cal: Calibrator,
) -> Result<(Vec<Option<Seen>>, Calibrator), String> {
    let stream = TcpStream::connect(&d.addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let docs: Vec<String> = schedule
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut line =
                compile_doc(i as u64, &format!("pb-{i}"), &queries[r.query], r.text).to_compact();
            line.push('\n');
            line
        })
        .collect();
    let dues: Vec<f64> = schedule.iter().map(|r| r.due_s).collect();
    let texts: Vec<String> = schedule
        .iter()
        .map(|r| queries[r.query].sources[r.text].text.clone())
        .collect();
    let opts: Vec<CompilerOptions> = schedule
        .iter()
        .map(|r| queries[r.query].opts.clone())
        .collect();
    let start = Instant::now() + Duration::from_millis(50);
    let sender = std::thread::spawn(move || -> (Vec<f64>, Calibrator) {
        let mut sent = Vec::with_capacity(docs.len());
        for (i, line) in docs.iter().enumerate() {
            let due = start + Duration::from_secs_f64(dues[i]);
            let lead = Duration::from_millis(CALIB_LEAD_MS);
            if i % BURST == 0 && due.checked_duration_since(Instant::now()) > Some(lead) {
                std::thread::sleep(due - lead - Instant::now());
                cal.sample();
            }
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let at = start.elapsed().as_secs_f64();
            if writer.write_all(line.as_bytes()).is_err() {
                break;
            }
            sent.push(at);
            if traced {
                // What the daemon does for every request before its cache
                // lookup, timed from outside.
                let parsed = {
                    let _sp = chipmunk_trace::span!("bench.parse");
                    parse(&texts[i])
                };
                if let Ok(p) = parsed {
                    let _sp = chipmunk_trace::span!("bench.cache_key");
                    std::hint::black_box(cache_key(&p, &opts[i]));
                }
            }
        }
        (sent, cal)
    });
    let last_due = schedule.last().map_or(0.0, |r| r.due_s);
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut got: Vec<Option<(f64, Json)>> = (0..schedule.len()).map(|_| None).collect();
    let mut remaining = schedule.len();
    let give_up = last_due + 60.0;
    let mut line = String::new();
    while remaining > 0 && start.elapsed().as_secs_f64() < give_up {
        line.clear();
        // Acknowledge every reply at once. The daemon's sockets keep
        // Nagle's algorithm on, so against a delayed-ACK client one reply
        // that crosses a request in flight holds every later pipelined
        // reply back until the next request carries the ACK — a stall of
        // one inter-arrival gap per reply that would hide the daemon's
        // own work (see NOTES.md).
        let _ = reader.get_ref().set_quickack(true);
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                let at = start.elapsed().as_secs_f64();
                let doc = Json::parse(line.trim_end()).map_err(|e| format!("bad reply: {e}"))?;
                if let Some(i) = doc.get("id").and_then(Json::as_u64).map(|i| i as usize) {
                    if i < got.len() && got[i].is_none() {
                        got[i] = Some((at, doc));
                        remaining -= 1;
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(format!("read: {e}")),
        }
    }
    let (sent, cal) = sender.join().map_err(|_| "sender thread panicked")?;
    let seen = got
        .into_iter()
        .enumerate()
        .map(|(i, g)| {
            let (at, reply) = g?;
            let send = *sent.get(i)?;
            let due = schedule[i].due_s;
            Some(Seen {
                lag_ms: (send - due) * 1e3,
                latency_ms: (at - due) * 1e3,
                rtt_ms: (at - send) * 1e3,
                reply,
            })
        })
        .collect();
    Ok((seen, cal))
}

/// Re-certify a served document client-side and check its depth.
fn check_reply(q: &Query, source: &Source, reply: &Json) -> Result<(), String> {
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("not ok: {}", reply.to_compact()));
    }
    let result = reply.get("result").ok_or("reply has no result")?;
    let wire = decode_result(result)?;
    let k = minimal_stages(source.program);
    if wire.stages != k {
        return Err(format!("{} stage(s), Figure 5 says {k}", wire.stages));
    }
    let prog: Program = parse(&source.text).map_err(|e| e.to_string())?;
    let grid = GridSpec {
        stages: wire.stages,
        slots: wire.slots,
        stateless: q.opts.stateless.clone(),
        stateful: q.opts.stateful.clone(),
    };
    certify_config(
        &prog,
        &CertifyRequest {
            grid: &grid,
            pipeline: &wire.pipeline,
            field_to_container: &wire.field_to_container,
            counterexamples: &wire.counterexamples,
            width: q.opts.cegis.verify_width,
            domain_width: q.opts.cegis.domain_width,
            samples: chipmunk::certify::DEFAULT_SAMPLES,
            seed: inputs::CEGIS_SEED,
        },
    )
    .map(|_| ())
    .map_err(|e| format!("certify_config: {e}"))
}

const REFUSALS: [&str; 4] = ["busy", "shed", "expired", "queue_full"];

fn u64_at(doc: &Json, path: &[&str]) -> u64 {
    let mut cur = doc;
    for k in path {
        match cur.get(k) {
            Some(v) => cur = v,
            None => return 0,
        }
    }
    cur.as_u64().unwrap_or(0)
}

/// The daemon's conservation law: every submitted job is accounted for.
fn conserved(stats: &Json) -> bool {
    let g = |k: &str| u64_at(stats, &[k]);
    g("submitted")
        == g("completed") + g("failed") + g("drained") + g("panicked") + g("expired") + g("shed")
}

/// Stage (sum µs, count) pairs of a `telemetry` reply.
fn stage_sums(telemetry: &Json) -> HashMap<&'static str, (u64, u64)> {
    ["queue_wait", "compile", "certify", "remap", "e2e"]
        .into_iter()
        .map(|s| {
            (
                s,
                (
                    u64_at(telemetry, &["stages", s, "sum_us"]),
                    u64_at(telemetry, &["stages", s, "count"]),
                ),
            )
        })
        .collect()
}

/// Everything one daemon pass produced.
struct PassResult {
    seen: Vec<Option<Seen>>,
    /// Why each failed request failed.
    failures: Vec<String>,
    /// Requests that failed an answer check, each counted once.
    failed: u64,
    /// The daemon's stats satisfied the conservation law at the end.
    conserved: bool,
    fingerprint: u64,
    rss_mb: f64,
    calib_ms: f64,
    /// Telemetry stage sums over the timed load only.
    stages: HashMap<&'static str, (u64, u64)>,
}

/// A set-up daemon, its inputs, and the calibration table.
struct Ready {
    daemon: Daemon,
    queries: Vec<Query>,
    schedule: Vec<Request>,
    cal: Calibrator,
}

/// Inputs, calibration table, daemon start and hit-pool warm-up; returns
/// how long it took.
fn set_up(
    args: &Args,
    segments: usize,
    tag: &str,
    trace: Option<&Path>,
) -> Result<(Ready, f64), String> {
    let t0 = Instant::now();
    let cal = Calibrator::new();
    let (queries, pool, schedule) = workload(args.seed, segments)?;
    let dir = args.workdir.join(format!("serve-{tag}"));
    let daemon = Daemon::start(&args.chipmunkc, &dir, trace)?;
    warm(&daemon, &queries, pool)?;
    let ready = Ready {
        daemon,
        queries,
        schedule,
        cal,
    };
    Ok((ready, t0.elapsed().as_secs_f64()))
}

fn one_pass(ready: Ready, traced: bool) -> Result<PassResult, String> {
    let Ready {
        daemon: d,
        queries,
        schedule,
        cal,
    } = ready;
    let (queries, schedule) = (&queries[..], &schedule[..]);
    let before = stage_sums(&d.client()?.telemetry().map_err(|e| e.to_string())?);
    let (seen, cal) = load(&d, queries, schedule, traced, cal)?;
    let mut c = d.client()?;
    let stats = c.stats().map_err(|e| e.to_string())?;
    let after = stage_sums(&c.telemetry().map_err(|e| e.to_string())?);
    let rss_mb = peak_rss_mb(&d.child.id().to_string());
    drop(c);
    d.stop();

    let mut failures = Vec::new();
    let mut failed = 0;
    let mut fp = Vec::new();
    for (i, (r, s)) in schedule.iter().zip(&seen).enumerate() {
        let q = &queries[r.query];
        let source = &q.sources[r.text];
        let checked = match s {
            None => Err("no reply".to_string()),
            Some(s) => {
                let cached = s.reply.get("cached").and_then(Json::as_bool);
                fp.push((
                    q.key.clone(),
                    cached,
                    s.reply
                        .get("result")
                        .and_then(|r| r.get("stats"))
                        .map(Json::to_compact),
                ));
                check_reply(q, source, &s.reply).and_then(|()| match cached {
                    Some(c) if c == r.hit => Ok(()),
                    _ => Err(format!("expected cached={}, daemon says {cached:?}", r.hit)),
                })
            }
        };
        if let Err(why) = checked {
            failures.push(format!("request {i} ({}): {why}", source.label()));
            failed += 1;
        }
    }
    let conserved = conserved(&stats);
    if !conserved {
        eprintln!("stats conservation law violated: {}", stats.to_compact());
    }
    let stages = after
        .iter()
        .map(|(k, &(s, n))| {
            let (s0, n0) = before.get(k).copied().unwrap_or((0, 0));
            (*k, (s.saturating_sub(s0), n.saturating_sub(n0)))
        })
        .collect();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::hash::Hash::hash(&fp, &mut h);
    Ok(PassResult {
        seen,
        failures,
        failed,
        conserved,
        fingerprint: std::hash::Hasher::finish(&h),
        rss_mb,
        calib_ms: median(cal.samples()),
        stages,
    })
}

/// Per request: its label for the cluster check (`hit`, or the missed
/// program) and its calibrated latency.
fn labelled_latencies<'a>(
    p: &PassResult,
    queries: &'a [Query],
    schedule: &[Request],
) -> Vec<(&'a str, f64)> {
    schedule
        .iter()
        .zip(&p.seen)
        .filter_map(|(r, s)| {
            let label = if r.hit {
                "hit"
            } else {
                queries[r.query].sources[r.text].program
            };
            s.as_ref()
                .map(|s| (label, calibrated(s.latency_ms, p.calib_ms)))
        })
        .collect()
}

/// Geometric mean over distinct cache keys of each key's median latency.
fn key_geomean(p: &PassResult, schedule: &[Request], scale: f64) -> f64 {
    let mut per_key: HashMap<usize, Vec<f64>> = HashMap::new();
    for (r, s) in schedule.iter().zip(&p.seen) {
        if let Some(s) = s {
            per_key
                .entry(r.query)
                .or_default()
                .push(s.latency_ms * scale);
        }
    }
    geomean(&per_key.values().map(|v| median(v)).collect::<Vec<_>>())
}

pub fn run(args: &Args) -> Result<Report, String> {
    let segments = ((args.seconds / SEGMENT_S).floor() as usize).max(1);
    let timed_segments = if args.trace {
        segments.div_ceil(2)
    } else {
        segments
    };
    let mut setup = Vec::new();
    let mut setup_cal = Calibrator::new();
    let mut kept: Option<Ready> = None;
    for n in 0..SETUPS_BEFORE {
        setup_cal.sample();
        let (ready, s) = set_up(args, timed_segments, &format!("setup{n}"), None)?;
        setup.push(s);
        if let Some(old) = kept.replace(ready) {
            old.daemon.stop();
        }
    }
    let ready = kept.expect("at least one set-up");
    let queries = ready.queries.clone();
    let schedule = ready.schedule.clone();
    let schedule_len = schedule.len();
    let p = one_pass(ready, false)?;
    for n in 0..SETUPS_AFTER {
        setup_cal.sample();
        let (ready, s) = set_up(args, timed_segments, &format!("setup-after{n}"), None)?;
        setup.push(s);
        ready.daemon.stop();
    }
    for f in &p.failures {
        eprintln!("FAILED: {f}");
    }
    let refused = p
        .seen
        .iter()
        .flatten()
        .filter(|s| {
            s.reply
                .get("error")
                .and_then(Json::as_str)
                .is_some_and(|e| REFUSALS.contains(&e))
        })
        .count();
    let labelled = labelled_latencies(&p, &queries, &schedule);
    let all: Vec<f64> = labelled.iter().map(|&(_, v)| v).collect();
    let raw_all: Vec<f64> = p.seen.iter().flatten().map(|s| s.latency_ms).collect();
    let t = tail(&all);
    let p50 = median(&all);
    let mid = (all.len().max(1) - 1) / 2;
    println!("{}", describe_cluster("op_p50_ms", &labelled, mid));
    println!("{}", describe_cluster("op_tail_ms", &labelled, t.rank));
    let good = p
        .seen
        .iter()
        .flatten()
        .filter(|s| {
            s.reply.get("ok").and_then(Json::as_bool) == Some(true)
                && s.latency_ms <= LATENCY_LIMIT_MS
        })
        .count();
    // Goodput over the span from the first due time to the last reply.
    let span_s = schedule
        .iter()
        .zip(&p.seen)
        .filter_map(|(r, s)| s.as_ref().map(|s| r.due_s + s.latency_ms / 1e3))
        .fold(0.0, f64::max);
    let fp = format!("{:016x}", p.fingerprint);
    let mut correct = p.failed == 0 && p.conserved;
    correct &= check_fingerprint_ledger(args, &fp);
    println!(
        "{}: {schedule_len} requests over {timed_segments} segment(s); op_tail_ms is p{:.1} of {} samples ({} beyond)",
        args.workload,
        t.percentile,
        t.samples,
        crate::stats::TAIL_BEYOND
    );
    let raw_geomean = key_geomean(&p, &schedule, 1.0);
    eprintln!(
        "  raw: op_p50_ms {:.4}, op_tail_ms {:.4}, op_geomean_ms {:.4}, setup_s {:.4} ({} samples, calibration median {:.4} ms), calibration median {:.4} ms",
        median(&raw_all),
        tail(&raw_all).value,
        raw_geomean,
        median(&setup),
        setup.len(),
        median(setup_cal.samples()),
        p.calib_ms
    );
    let mut report = Report {
        attempted: schedule_len as u64,
        failed: p.failed,
        correct,
        e2e: vec![
            ("op_p50_ms", p50, "ms"),
            ("op_tail_ms", t.value, "ms"),
            (
                "op_geomean_ms",
                key_geomean(&p, &schedule, calibrated(1.0, p.calib_ms)),
                "ms",
            ),
            ("goodput_per_s", good as f64 / span_s.max(1e-9), "1/s"),
            ("peak_rss_mb", p.rss_mb, "MB"),
            (
                "setup_s",
                calibrated(median(&setup), median(setup_cal.samples())),
                "s",
            ),
        ],
        layer: Vec::new(),
    };
    report.set_layer("serve.refused", refused as f64);
    report.set_layer("machine.calib_ms", p.calib_ms);
    report.set_layer("op_raw_geomean_ms", raw_geomean);

    if args.trace {
        let trace_path = args.workdir.join("serve-traced.jsonl");
        let (ready, _) = set_up(args, timed_segments, "traced", Some(&trace_path))?;
        let sink = MemorySink::install();
        let tp = one_pass(ready, true)?;
        let client_records = sink.drain();
        drop(sink);
        for f in &tp.failures {
            eprintln!("FAILED (traced): {f}");
        }
        report.attempted += schedule_len as u64;
        report.failed += tp.failed;
        report.correct &= tp.failed == 0 && tp.conserved && tp.fingerprint == p.fingerprint;
        let traced: Vec<f64> = labelled_latencies(&tp, &queries, &schedule)
            .iter()
            .map(|&(_, v)| v)
            .collect();
        report.set_layer("trace.overhead_share", median(&traced) / p50 - 1.0);
        let daemon_records = read_jsonl(&trace_path);
        layer_metrics(
            &mut report,
            &tp,
            &schedule,
            &client_records,
            &daemon_records,
        );
    }
    Ok(report)
}

fn read_jsonl(path: &PathBuf) -> Vec<Json> {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| Json::parse(l).ok())
        .collect()
}

/// Per-layer metrics of the traced pass, each a mean per request unless
/// named as a ratio or percentile.
fn layer_metrics(
    report: &mut Report,
    tp: &PassResult,
    schedule: &[Request],
    client: &[Json],
    daemon: &[Json],
) {
    let n = schedule.len().max(1) as f64;
    set_layer_times(report, &attribute(client), n);
    // Daemon-side work of the timed requests (set-up warm-up jobs carry
    // `warm-` trace ids and are left out).
    let roots: Vec<RootWork> = attribute(daemon)
        .into_iter()
        .filter(|w| {
            !w.fields
                .as_ref()
                .and_then(|f| f.get("trace"))
                .and_then(Json::as_str)
                .is_some_and(|t| t.starts_with("warm-"))
        })
        .collect();
    set_layer_times(report, &roots, n);
    set_solver_work(report, &roots, n);
    let sum = |f: fn(&RootWork) -> u64| roots.iter().map(f).sum::<u64>() as f64;
    report.set_layer("plan.steps_run", sum(|w| w.steps) / n);
    report.set_layer("certify.inputs", sum(|w| w.certify_inputs) / n);
    // Blast counters are daemon-wide totals, flushed at exit; they include
    // the set-up warm-up compiles.
    for (counter, metric) in [
        ("bv.blast.clauses", "blast.clauses"),
        ("bv.blast.gates", "blast.gates"),
    ] {
        let total = daemon
            .iter()
            .rev()
            .filter(|r| r.get("kind").and_then(Json::as_str) == Some("counter"))
            .filter(|r| r.get("span").and_then(Json::as_str) == Some(counter))
            .filter_map(|r| {
                r.get("fields")
                    .and_then(|f| f.get("value"))
                    .and_then(Json::as_u64)
            })
            .next()
            .unwrap_or(0);
        report.set_layer(metric, total as f64 / n);
    }
    let mean = |stage: &str| {
        let (sum, count) = tp.stages.get(stage).copied().unwrap_or((0, 0));
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64 / 1e3
        }
    };
    for (stage, metric) in [
        ("queue_wait", "serve.queue_wait_ms"),
        ("compile", "serve.compile_ms"),
        ("certify", "serve.certify_ms"),
        ("remap", "serve.remap_ms"),
        ("e2e", "serve.e2e_ms"),
    ] {
        report.set_layer(metric, mean(stage));
    }
    let seen: Vec<&Seen> = tp.seen.iter().flatten().collect();
    let rtt_sum: f64 = seen.iter().map(|s| s.rtt_ms).sum();
    let e2e_ms = |stage: &str| tp.stages.get(stage).map_or(0.0, |&(s, _)| s as f64 / 1e3);
    report.set_layer("serve.transport_ms", (rtt_sum - e2e_ms("e2e")) / n);
    let inside = e2e_ms("queue_wait") + e2e_ms("compile") + e2e_ms("certify") + e2e_ms("remap");
    report.set_layer(
        "unattributed_share",
        if rtt_sum > 0.0 {
            (e2e_ms("e2e") - inside) / rtt_sum
        } else {
            0.0
        },
    );
    let rtt = |hit: bool| -> Vec<f64> {
        schedule
            .iter()
            .zip(&tp.seen)
            .filter(|(r, _)| r.hit == hit)
            .filter_map(|(_, s)| s.as_ref().map(|s| s.rtt_ms))
            .collect()
    };
    let (hits, misses) = (rtt(true), rtt(false));
    let cached = seen
        .iter()
        .filter(|s| s.reply.get("cached").and_then(Json::as_bool) == Some(true))
        .count();
    report.set_layer("serve.hit_ratio", cached as f64 / n);
    report.set_layer("serve.hit_rtt_p50_ms", median(&hits));
    report.set_layer("serve.miss_rtt_p50_ms", median(&misses));
    let lags: Vec<f64> = seen.iter().map(|s| s.lag_ms).collect();
    report.set_layer("loadgen.lag_p99_ms", percentile(&lags, 99.0));
}
