//! The traced run: an in-memory span sink and self-time attribution.
//!
//! Records arrive through a `chipmunk_trace` tee (or, for the daemon, from
//! its `serve --trace` JSONL file) and are kept in memory until the run
//! ends. Each span's self time — its duration minus the time its child
//! spans cover — is charged to the layer of its nearest ancestor-or-self
//! that names one; self time with no such ancestor is unattributed. Work
//! counts ride on the `sat.solve` close records and `cegis.cex` events.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use chipmunk_trace::json::Json;

use crate::Report;

/// Records collected by a tee while it is installed.
pub struct MemorySink {
    records: Arc<Mutex<Vec<Json>>>,
    tee: u64,
}

impl MemorySink {
    pub fn install() -> MemorySink {
        let records: Arc<Mutex<Vec<Json>>> = Arc::new(Mutex::new(Vec::new()));
        let store = Arc::clone(&records);
        let tee = chipmunk_trace::add_tee(Arc::new(move |doc: &Json| {
            store
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(doc.clone());
        }));
        MemorySink { records, tee }
    }

    /// Take every record collected so far.
    pub fn drain(&self) -> Vec<Json> {
        std::mem::take(&mut *self.records.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl Drop for MemorySink {
    fn drop(&mut self) {
        chipmunk_trace::remove_tee(self.tee);
    }
}

/// The per-layer metric a span's self time is charged to, if the span
/// names a layer.
fn layer_of(span: &str) -> Option<&'static str> {
    Some(match span {
        "bench.parse" => "lang.parse_ms",
        "bench.cache_key" => "lang.cache_key_ms",
        "search.compile" | "search.grid" => "plan.ms",
        "cegis.synth" => "synth.solve_ms",
        "cegis.verify" => "verify.solve_ms",
        "cegis.run" => "cegis.other_ms",
        "bench.proof_check" => "proof.recheck_ms",
        "certify.run" => "certify.ms",
        _ => return None,
    })
}

/// Time and work under one root span (an op, a daemon job, ...).
#[derive(Clone, Debug, Default)]
pub struct RootWork {
    pub name: String,
    /// Fields of the root's open record (the benchmark's `op` index).
    pub fields: Option<Json>,
    pub dur_ms: f64,
    /// Self time per layer metric.
    pub layer_ms: BTreeMap<&'static str, f64>,
    pub unattributed_ms: f64,
    pub synth_solves: u64,
    pub synth_conflicts: u64,
    pub synth_propagations: u64,
    pub verify_conflicts: u64,
    pub iterations: u64,
    pub counterexamples: u64,
    pub screen_counterexamples: u64,
    /// Plan steps (`search.grid` spans) run.
    pub steps: u64,
    /// Inputs checked by `certify.run` spans.
    pub certify_inputs: u64,
}

#[derive(Default)]
struct Node {
    name: String,
    parent: Option<u64>,
    open_fields: Option<Json>,
    close_fields: Option<Json>,
    dur_us: Option<u64>,
    child_us: u64,
}

fn field_u64(fields: &Option<Json>, key: &str) -> u64 {
    fields
        .as_ref()
        .and_then(|f| f.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Attribute every closed span's self time to a layer of its root, in
/// the order roots were opened.
pub fn attribute(records: &[Json]) -> Vec<RootWork> {
    let mut nodes: HashMap<u64, Node> = HashMap::new();
    let mut order: Vec<u64> = Vec::new();
    let mut events: Vec<(u64, &str, Option<&Json>)> = Vec::new();
    for r in records {
        let kind = r.get("kind").and_then(Json::as_str).unwrap_or("");
        let name = r.get("span").and_then(Json::as_str).unwrap_or("");
        match kind {
            "open" => {
                let Some(id) = r.get("id").and_then(Json::as_u64) else {
                    continue;
                };
                order.push(id);
                let n = nodes.entry(id).or_default();
                n.name = name.to_string();
                n.parent = r.get("parent").and_then(Json::as_u64);
                n.open_fields = r.get("fields").cloned();
            }
            "close" => {
                let Some(id) = r.get("id").and_then(Json::as_u64) else {
                    continue;
                };
                if let Some(n) = nodes.get_mut(&id) {
                    n.dur_us = r.get("dur_us").and_then(Json::as_u64);
                    n.close_fields = r.get("fields").cloned();
                }
            }
            "event" => {
                if let Some(p) = r.get("parent").and_then(Json::as_u64) {
                    events.push((p, name, r.get("fields")));
                }
            }
            _ => {}
        }
    }
    let closed: Vec<(u64, Option<u64>, u64)> = nodes
        .iter()
        .filter_map(|(&id, n)| n.dur_us.map(|d| (id, n.parent, d)))
        .collect();
    for (_, parent, d) in &closed {
        if let Some(p) = parent.and_then(|p| nodes.get_mut(&p)) {
            p.child_us += d;
        }
    }
    // Walk up to the root, noting the nearest layer and the nearest CEGIS
    // phase on the way.
    let ancestry = |id: u64| -> (u64, Option<&'static str>, Option<&str>) {
        let (mut cur, mut layer, mut phase) = (id, None, None);
        loop {
            let n = &nodes[&cur];
            if layer.is_none() {
                layer = layer_of(&n.name);
            }
            if phase.is_none() && (n.name == "cegis.synth" || n.name == "cegis.verify") {
                phase = Some(n.name.as_str());
            }
            match n.parent.filter(|p| nodes.contains_key(p)) {
                Some(p) => cur = p,
                None => return (cur, layer, phase),
            }
        }
    };
    let mut roots: HashMap<u64, RootWork> = HashMap::new();
    for &id in &order {
        let n = &nodes[&id];
        let Some(dur) = n.dur_us else { continue };
        let (root, layer, phase) = ancestry(id);
        let w = roots.entry(root).or_default();
        let self_ms = dur.saturating_sub(n.child_us) as f64 / 1e3;
        match layer {
            Some(l) => *w.layer_ms.entry(l).or_default() += self_ms,
            None => w.unattributed_ms += self_ms,
        }
        if root == id {
            w.name = n.name.clone();
            w.fields = n.open_fields.clone();
            w.dur_ms = dur as f64 / 1e3;
        }
        match n.name.as_str() {
            "cegis.synth" => w.iterations += 1,
            "search.grid" => w.steps += 1,
            "certify.run" => w.certify_inputs += field_u64(&n.close_fields, "inputs"),
            _ => {}
        }
        if n.name == "sat.solve" {
            let c = field_u64(&n.close_fields, "conflicts");
            match phase {
                Some("cegis.synth") => {
                    w.synth_solves += 1;
                    w.synth_conflicts += c;
                    w.synth_propagations += field_u64(&n.close_fields, "propagations");
                }
                Some(_) => w.verify_conflicts += c,
                None => {}
            }
        }
    }
    for (parent, name, fields) in events {
        if name != "cegis.cex" || !nodes.contains_key(&parent) {
            continue;
        }
        let (root, _, _) = ancestry(parent);
        let w = roots.entry(root).or_default();
        w.counterexamples += 1;
        if fields
            .and_then(|f| f.get("provenance"))
            .and_then(Json::as_str)
            == Some("screen")
        {
            w.screen_counterexamples += 1;
        }
    }
    let mut out: Vec<RootWork> = Vec::new();
    for id in order {
        if let Some(w) = roots.remove(&id) {
            out.push(w);
        }
    }
    out
}

/// Set each layer's self time under `roots` as a mean over `n` ops. Only
/// the layers the roots reach are set.
pub fn set_layer_times(report: &mut Report, roots: &[RootWork], n: f64) {
    let mut total: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (&layer, &ms) in roots.iter().flat_map(|w| &w.layer_ms) {
        *total.entry(layer).or_default() += ms;
    }
    for (layer, ms) in total {
        report.set_layer(layer, ms / n);
    }
}

/// Set the SAT and CEGIS work under `roots`, each a mean over `n` ops
/// except the screen's share of counterexamples.
pub fn set_solver_work(report: &mut Report, roots: &[RootWork], n: f64) {
    let sum = |f: fn(&RootWork) -> u64| roots.iter().map(f).sum::<u64>() as f64;
    report.set_layer("synth.solves", sum(|w| w.synth_solves) / n);
    report.set_layer("synth.conflicts", sum(|w| w.synth_conflicts) / n);
    report.set_layer("synth.propagations", sum(|w| w.synth_propagations) / n);
    report.set_layer("verify.conflicts", sum(|w| w.verify_conflicts) / n);
    report.set_layer("cegis.iterations", sum(|w| w.iterations) / n);
    let cex = sum(|w| w.counterexamples);
    report.set_layer("cegis.counterexamples", cex / n);
    let screen = sum(|w| w.screen_counterexamples);
    report.set_layer(
        "cegis.screen_cex_share",
        if cex > 0.0 { screen / cex } else { 0.0 },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: &str, span: &str, id: Option<u64>, parent: Option<u64>, dur: Option<u64>) -> Json {
        let mut pairs = vec![
            ("kind".to_string(), Json::from(kind)),
            ("span".to_string(), Json::from(span)),
        ];
        if let Some(id) = id {
            pairs.push(("id".to_string(), Json::U64(id)));
        }
        if let Some(p) = parent {
            pairs.push(("parent".to_string(), Json::U64(p)));
        }
        if let Some(d) = dur {
            pairs.push(("dur_us".to_string(), Json::U64(d)));
        }
        Json::Obj(pairs)
    }

    #[test]
    fn every_layer_is_a_per_layer_metric_in_ms() {
        for span in [
            "bench.parse",
            "bench.cache_key",
            "search.compile",
            "search.grid",
            "cegis.synth",
            "cegis.verify",
            "cegis.run",
            "bench.proof_check",
            "certify.run",
        ] {
            let layer = layer_of(span).expect("a layer span");
            assert!(crate::PER_LAYER.contains(&(layer, "ms")), "{layer}");
        }
    }

    #[test]
    fn self_time_goes_to_the_nearest_layer() {
        let records = vec![
            rec("open", "bench.op", Some(1), None, None),
            rec("open", "cegis.run", Some(2), Some(1), None),
            rec("open", "cegis.synth", Some(3), Some(2), None),
            rec("open", "sat.solve", Some(4), Some(3), None),
            rec("close", "sat.solve", Some(4), None, Some(300)),
            rec("close", "cegis.synth", Some(3), None, Some(400)),
            rec("event", "cegis.cex", None, Some(2), None),
            rec("close", "cegis.run", Some(2), None, Some(700)),
            rec("close", "bench.op", Some(1), None, Some(1000)),
        ];
        let w = attribute(&records);
        assert_eq!(w.len(), 1);
        let w = &w[0];
        assert_eq!(w.name, "bench.op");
        assert!((w.layer_ms["synth.solve_ms"] - 0.4).abs() < 1e-9);
        assert!((w.layer_ms["cegis.other_ms"] - 0.3).abs() < 1e-9);
        assert!((w.unattributed_ms - 0.3).abs() < 1e-9);
        let total: f64 = w.layer_ms.values().sum::<f64>() + w.unattributed_ms;
        assert!((total - w.dur_ms).abs() < 1e-9);
        assert_eq!((w.synth_solves, w.iterations, w.counterexamples), (1, 1, 1));
    }
}
