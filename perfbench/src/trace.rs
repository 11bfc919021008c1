//! Per-layer accounting for traced runs.
//!
//! Layers are timed from outside the program: the benchmark re-runs an
//! operation through the public functions its top-level call is built
//! from, times each call, and reads the qc-obs counters and stage
//! histograms the program already records at those calls. Nothing is
//! added inside the program.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use qc_containment::{cq_contained_in_ucq, minimize, minimize_union, ucq_contained};
use qc_datalog::{Program, Symbol, Ucq, UnfoldError};
use qc_mediator::expansion::{expand_cq, expand_ucq};
use qc_mediator::fn_elim::eliminate_function_terms;
use qc_mediator::inverse_rules::max_contained_plan;
use qc_mediator::minicon::semi_interval_plan;
use qc_mediator::schema::LavSetting;
use qc_obs::{Counter, Counters, Hist, Histograms, Recorder};

/// Named per-layer totals. Names ending in `.ms` are times.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_default() += v;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.keys().copied()
    }

    pub fn merge(&mut self, other: Layers) {
        for (k, v) in other.0 {
            self.add(k, v);
        }
    }

    /// Sum of the pipeline layer times (the `*.ms` names).
    pub fn attributed_ms(&self) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| k.ends_with(".ms"))
            .map(|(_, v)| v)
            .sum()
    }
}

/// A qc-obs sink keeping counter totals and stage histograms. Unlike
/// `PipelineRecorder` it keeps no span tree, so it does not grow with the
/// number of operations.
#[derive(Default)]
struct Sink {
    counters: Counters,
    hists: Histograms,
    open: Mutex<Vec<(&'static str, Instant)>>,
}

impl Recorder for Sink {
    fn count(&self, c: Counter, n: u64) {
        self.counters.add(c, n);
    }

    fn record_hist(&self, h: Hist, ns: u64) {
        self.hists.record(h, ns);
    }

    fn span_enter(&self, name: &'static str) {
        self.open
            .lock()
            .expect("sink lock")
            .push((name, Instant::now()));
    }

    fn span_exit(&self, _name: &'static str) {
        let Some((name, started)) = self.open.lock().expect("sink lock").pop() else {
            return;
        };
        if let Some(h) = Hist::from_stage(name) {
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.hists.record(h, ns);
        }
    }
}

/// Times calls into the program with a qc-obs sink installed and
/// accumulates the results into [`Layers`].
pub struct Tracer {
    sink: Arc<Sink>,
    pub layers: Layers,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            sink: Arc::new(Sink::default()),
            layers: Layers::default(),
        }
    }
}

impl Tracer {
    /// Runs `f` with the sink installed; returns its result and its wall
    /// time in ms.
    pub fn observe<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        let _installed = qc_obs::install(Arc::clone(&self.sink) as Arc<dyn Recorder>);
        let t = Instant::now();
        let out = f();
        (out, t.elapsed().as_secs_f64() * 1e3)
    }

    /// Runs `f` with the sink installed and adds its wall time to `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, ms) = self.observe(f);
        self.layers.add(layer, ms);
        out
    }

    pub fn counter(&self, c: Counter) -> u64 {
        self.sink.counters.get(c)
    }

    pub fn hist_ms(&self, h: Hist) -> f64 {
        self.sink.hists.get(h).sum() as f64 / 1e6
    }

    pub fn add(&mut self, name: &'static str, v: f64) {
        self.layers.add(name, v);
    }
}

/// How the decomposed decision checks the expanded plan against `Q2`.
#[derive(Clone, Copy)]
pub enum Check {
    /// `expand_ucq` then one `ucq_contained`, as `relatively_contained`.
    WholeUnion,
    /// `expand_cq` and `cq_contained_in_ucq` per disjunct, stopping at
    /// the first one not contained, as the anytime verdict the service
    /// runs.
    PerDisjunct,
}

/// Builds `Q1`'s maximally-contained plan through the public sub-calls of
/// the nonrecursive route: `max_contained_plan` → `eliminate_function_terms`
/// → `Program::unfold` plus the source-only filter → `minimize` per
/// disjunct → `minimize_union`; or `semi_interval_plan` per disjunct when
/// `Q1` carries comparisons.
fn plan(tr: &mut Tracer, q1: &Program, ans1: &Symbol, views: &LavSetting) -> Result<Ucq, String> {
    let unfolded = tr
        .time("unfold.ms", || q1.unfold(ans1))
        .map_err(|e| e.to_string())?;
    if !unfolded.is_comparison_free() {
        let closure0 = tr.counter(Counter::ConstraintClosureOps);
        let disjuncts: Vec<_> = tr.time("semi_interval_plan.ms", || {
            unfolded
                .disjuncts
                .iter()
                .flat_map(|d| semi_interval_plan(d, views).disjuncts)
                .collect()
        });
        let closure = tr.counter(Counter::ConstraintClosureOps) - closure0;
        tr.add("constraints.closure_ops", closure as f64);
        tr.add("semi_interval_plan.disjuncts", disjuncts.len() as f64);
        return Ok(if disjuncts.is_empty() {
            Ucq::empty(unfolded.pred.as_str(), unfolded.arity)
        } else {
            Ucq::new(disjuncts).map_err(|e| e.to_string())?
        });
    }
    let inverse = tr.time("inverse_rules.ms", || max_contained_plan(q1, views));
    let eliminated = tr
        .time("fn_elim.ms", || eliminate_function_terms(&inverse))
        .map_err(|e| e.to_string())?;
    let mut ucq = match tr.time("unfold.ms", || eliminated.unfold(ans1)) {
        Ok(u) => u,
        Err(UnfoldError::UndefinedAnswer(_)) => {
            return Ok(Ucq::empty(unfolded.pred.as_str(), unfolded.arity))
        }
        Err(e) => return Err(e.to_string()),
    };
    tr.time("unfold.ms", || {
        ucq.disjuncts.retain(|d| {
            d.subgoals
                .iter()
                .all(|a| views.source(a.pred.as_str()).is_some())
        })
    });
    let nodes0 = tr.counter(Counter::HomSearchNodes);
    tr.add("tidy.disjuncts_in", ucq.disjuncts.len() as f64);
    let tidied = tr.time("tidy.ms", || {
        for d in &mut ucq.disjuncts {
            *d = minimize(d);
        }
        if ucq.disjuncts.is_empty() {
            ucq
        } else {
            minimize_union(&ucq)
        }
    });
    tr.add("tidy.disjuncts_out", tidied.disjuncts.len() as f64);
    let nodes = tr.counter(Counter::HomSearchNodes) - nodes0;
    tr.add("hom.search_nodes", nodes as f64);
    Ok(tidied)
}

/// Decides `Q1 ⊑_V Q2` for nonrecursive queries through the public
/// sub-calls, timing each layer.
pub fn decide(
    tr: &mut Tracer,
    q1: &Program,
    ans1: &Symbol,
    q2: &Program,
    ans2: &Symbol,
    views: &LavSetting,
    check: Check,
) -> Result<bool, String> {
    let p1 = plan(tr, q1, ans1, views)?;
    let u2 = tr
        .time("unfold.ms", || q2.unfold(ans2))
        .map_err(|e| e.to_string())?;
    match check {
        Check::WholeUnion => {
            let exp = tr.time("expansion.ms", || expand_ucq(&p1, views));
            tr.add("expansion.disjuncts", exp.disjuncts.len() as f64);
            tr.add("containment_check.calls", 1.0);
            Ok(tr.time("containment_check.ms", || ucq_contained(&exp, &u2)))
        }
        Check::PerDisjunct => {
            for d in &p1.disjuncts {
                let exp = tr
                    .time("expansion.ms", || expand_cq(d, views))
                    .ok_or("plan disjunct does not expand")?;
                tr.add("expansion.disjuncts", 1.0);
                tr.add("containment_check.calls", 1.0);
                if !tr.time("containment_check.ms", || cq_contained_in_ucq(&exp, &u2)) {
                    return Ok(false);
                }
            }
            Ok(true)
        }
    }
}
