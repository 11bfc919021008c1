//! `certain_eval`: datalog evaluation and the type fixpoint, with trivial
//! plan construction and no plan tidying. Four operation kinds per pass:
//!
//! * `certain_answers` of a length-3 chain query over chain views of
//!   length 1–4, on random source instances of growing size. Reference:
//!   view facts composed so that their chain lengths sum to 3, computed
//!   here without the program.
//! * `reachable_certain_answers` over citation chains (binding pattern
//!   `bf`), with disconnected distractor citations. Reference: the closed
//!   form, every chain paper after the seed paper.
//! * recursive Theorem 3.2 decisions (transitive closure on the contained
//!   side) and Theorem 4.2 `relatively_contained_bp` decisions, against
//!   hand-checked verdicts.
//!
//! A pass runs 50 operations in seeded order, each kind as often as
//! `INSTANCE_SIZES`, `CHAIN_LENGTHS` and `decisions` say. The weights put
//! every reported percentile in the middle of one operation's runs rather
//! than on the edge between two: the median among the 100-tuple certain
//! answers, the 90th percentile among the 300-tuple certain answers (the
//! four-edge-path decision, the binding-pattern decision with two authors
//! and the 4 096-paper reachability run lie above it, once per pass) and
//! the 99th on the 4 096-paper run, the one operation per pass that costs
//! well over 1.5x any other. A percentile on an edge jumps between two
//! operations' costs when the host slows down for a while. The decisions
//! slow down as the process ages (they intern fresh symbols that are never
//! freed), so their places in the order drift during a run. When the host
//! slows down, the type-fixpoint decisions slow down most: over six runs
//! of one seed the four-edge-path decision's median varied 1.76x, the
//! 300-tuple certain answers' 1.49x, which is why the 90th percentile
//! lies on the latter.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use qc_datalog::eval::{answers, EvalOptions};
use qc_datalog::{parse_program, Database, Program, Relation, Symbol, Term};
use qc_mediator::binding::{executable_plan, reachable_certain_answers};
use qc_mediator::certain::certain_answers;
use qc_mediator::fn_elim::eliminate_function_terms;
use qc_mediator::inverse_rules::max_contained_plan;
use qc_mediator::relative::{relatively_contained, relatively_contained_bp};
use qc_mediator::schema::LavSetting;
use qc_mediator::workloads::random_instance;
use qc_obs::{Counter, Hist};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::trace::Tracer;
use crate::{finish_op, work_units, Args, Outcome, Setup};

/// (tuples per source, runs per pass) of the certain-answer instances.
const INSTANCE_SIZES: [(usize, usize); 3] = [(100, 2), (200, 3), (300, 9)];
/// (length, runs per pass) of the citation chains.
const CHAIN_LENGTHS: [(usize, usize); 4] = [(256, 3), (512, 3), (1024, 3), (4096, 1)];
/// Set-ups per timed round; the rounds are spread over the run.
const SETUP_PER_ROUND: usize = 4;
/// Seed of the citation chords, which are part of the workload.
const CHORD_SEED: u64 = 30_000;
/// Nominal passes per second on a 2-core VM.
const PASSES_PER_S: f64 = 2.5;

type Answers = BTreeSet<Vec<String>>;

/// What an operation returns.
enum Returned {
    Answers(Answers),
    Verdict(bool),
}

enum Op {
    Certain { db: usize, expected: Answers },
    Reachable { db: usize, expected: Answers },
    Decide { case: Decision, expected: bool },
}

struct Decision {
    q1: Program,
    a1: Symbol,
    q2: Program,
    a2: Symbol,
    views: LavSetting,
    /// Theorem 4.2 (binding patterns) rather than Theorem 3.2.
    bp: bool,
}

fn chain_views() -> LavSetting {
    LavSetting::parse(&[
        "V1(A, B) :- p(A, B).",
        "V2(A, C) :- p(A, B), p(B, C).",
        "V3(A, D) :- p(A, B), p(B, C), p(C, D).",
        "V4(A, E) :- p(A, B), p(B, C), p(C, D), p(D, E).",
    ])
    .expect("chain views parse")
}

fn cites_views() -> LavSetting {
    let mut v = LavSetting::parse(&["Cites(P1, P2) :- cites(P1, P2)."]).expect("view parses");
    v.sources[0] = v.sources[0].clone().with_adornment("bf");
    v
}

fn prog(src: &str) -> Program {
    parse_program(src).expect("program parses")
}

fn strings(rel: &Relation) -> Answers {
    rel.tuples()
        .iter()
        .map(|t| t.iter().map(Term::to_string).collect())
        .collect()
}

/// Pairs `(a, b)` joined by view facts whose chain lengths sum to 3: the
/// certain answers of `q(X, W) :- p(X, Y), p(Y, Z), p(Z, W)` over the
/// chain views (every view tuple is a fresh `p`-path of its length).
fn composed_answers(db: &Database) -> Answers {
    let edges = |k: usize| -> Vec<(String, String)> {
        db.relation(&Symbol::new(format!("V{k}")))
            .map(|r| {
                r.tuples()
                    .iter()
                    .map(|t| (t[0].to_string(), t[1].to_string()))
                    .collect()
            })
            .unwrap_or_default()
    };
    let compose = |a: &[(String, String)], b: &[(String, String)]| -> Vec<(String, String)> {
        let mut out = BTreeSet::new();
        for (x, y) in a {
            for (y2, z) in b {
                if y == y2 {
                    out.insert((x.clone(), z.clone()));
                }
            }
        }
        out.into_iter().collect()
    };
    let (e1, e2, e3) = (edges(1), edges(2), edges(3));
    let e11 = compose(&e1, &e1);
    let mut all: Vec<(String, String)> = e3;
    all.extend(compose(&e1, &e2));
    all.extend(compose(&e2, &e1));
    all.extend(compose(&e11, &e1));
    all.into_iter().map(|(a, b)| vec![a, b]).collect()
}

/// A citation chain `p0 → … → p{len}` over shuffled paper names, plus
/// forward chords inside the chain and citations among `len` distractor
/// papers the chain never reaches. Returns the facts and the reachable
/// set. The chords come from `shape`, which does not depend on the seed:
/// they set how many rounds the fixpoint takes to reach every paper, and
/// one draw of them changed the 4 096-paper run's time by a third.
fn citation_facts(
    len: usize,
    shape: &mut StdRng,
    rng: &mut StdRng,
) -> (Vec<(String, String)>, Answers) {
    let mut names: Vec<usize> = (1..=len).collect();
    names.shuffle(rng);
    let chain: Vec<String> = std::iter::once("p0".to_string())
        .chain(names.iter().map(|n| format!("p{n}")))
        .collect();
    let mut facts: Vec<(String, String)> = chain
        .windows(2)
        .map(|w| (w[0].clone(), w[1].clone()))
        .collect();
    for _ in 0..len / 4 {
        let i = shape.gen_range(1..len);
        let j = shape.gen_range(i + 1..=len);
        facts.push((chain[i].clone(), chain[j].clone()));
    }
    for _ in 0..len {
        let a = rng.gen_range(0..len);
        let b = rng.gen_range(0..len);
        facts.push((format!("d{a}"), format!("d{b}")));
    }
    let expected = chain[1..].iter().map(|p| vec![p.clone()]).collect();
    (facts, expected)
}

/// The recursive and binding-pattern decisions with their hand-checked
/// verdicts (mostly the ones the repository's tests assert) and their runs
/// per pass. They do not depend on the seed.
fn decisions() -> Vec<(Decision, bool, usize)> {
    let s = |name: &str| Symbol::new(name);
    let edge = LavSetting::parse(&["V(X, Y) :- edge(X, Y)."]).expect("view parses");
    let edge_src = LavSetting::parse(&["V(X) :- edge(X, Y)."]).expect("view parses");
    let tc = "t(X, Y) :- edge(X, Y). t(X, Z) :- t(X, Y), edge(Y, Z).";
    // The closure is never contained in a path of exactly four edges, nor
    // in the reversed edge relation.
    let path = "w(Y0, Y4) :- edge(Y0, Y1), edge(Y1, Y2), edge(Y2, Y3), edge(Y3, Y4).";
    let rec = |q2: &str, a2: &str, views: &LavSetting, expected, runs| {
        let case = Decision {
            q1: prog(tc),
            a1: s("t"),
            q2: prog(q2),
            a2: s(a2),
            views: views.clone(),
            bp: false,
        };
        (case, expected, runs)
    };
    let mut books = LavSetting::parse(&[
        "Catalog(Author, Isbn) :- authored(Isbn, Author).",
        "PriceOf(Isbn, Price) :- price(Isbn, Price).",
    ])
    .expect("views parse");
    for src in &mut books.sources {
        *src = src.clone().with_adornment("bf");
    }
    let q_eco = "qe(P) :- authored(I, eco), price(I, P).";
    let q_eco_red = "qf(P) :- authored(I, eco), price(I, P), authored(I, A).";
    let q_two = "qt(P) :- authored(I, eco), price(I, P), authored(I2, kafka), price(I2, P).";
    let q_all = "qa(P) :- price(I, P).";
    let bp = |q1: &str, a1: &str, q2: &str, a2: &str, expected, runs| {
        let case = Decision {
            q1: prog(q1),
            a1: s(a1),
            q2: prog(q2),
            a2: s(a2),
            views: books.clone(),
            bp: true,
        };
        (case, expected, runs)
    };
    vec![
        rec("s(X, Y) :- edge(X, A), edge(B, Y).", "s", &edge, true, 3),
        rec("d(X, Y) :- edge(X, Y).", "d", &edge, false, 3),
        rec(path, "w", &edge, false, 1),
        rec("r(X, Y) :- edge(Y, X).", "r", &edge, false, 3),
        rec("d(X, Y) :- edge(X, Y).", "d", &edge_src, true, 3),
        bp(q_eco, "qe", q_eco_red, "qf", true, 3),
        bp(q_eco_red, "qf", q_eco, "qe", true, 3),
        bp(q_eco, "qe", q_two, "qt", false, 1),
        bp(q_all, "qa", q_eco, "qe", true, 3),
        bp(q_eco, "qe", q_eco, "qe", true, 3),
    ]
}

fn decide(c: &Decision) -> Result<bool, String> {
    let f = if c.bp {
        relatively_contained_bp
    } else {
        relatively_contained
    };
    f(&c.q1, &c.a1, &c.q2, &c.a2, &c.views).map_err(|e| e.to_string())
}

/// Null-free answers of `plan`, as the certain-answer entry points return
/// them.
fn plan_answers(tr: &mut Tracer, plan: &Program, db: &Database, ans: &Symbol) -> Answers {
    let derived0 = tr.counter(Counter::EvalDerivedFacts);
    let rel = tr.time("eval.ms", || {
        answers(plan, db, ans, &EvalOptions::default())
    });
    let derived = tr.counter(Counter::EvalDerivedFacts) - derived0;
    tr.add("eval.derived_facts", derived as f64);
    let out: Answers = rel
        .expect("plan evaluates")
        .tuples()
        .iter()
        .filter(|t| t.iter().all(|v| !v.has_function()))
        .map(|t| t.iter().map(Term::to_string).collect())
        .collect();
    tr.add("eval.answers", out.len() as f64);
    out
}

pub fn run(args: &Args) -> Outcome {
    let mut rng = StdRng::seed_from_u64(args.seed);
    let chain = chain_views();
    let cites = cites_views();
    let q_chain = prog("q(X, W) :- p(X, Y), p(Y, Z), p(Z, W).");
    let q_reach = prog("q(P) :- cites(p0, P). q(P) :- q(Q), cites(Q, P).");
    let q = Symbol::new("q");

    let instance_seed = rng.gen::<u64>();
    let mut shape = StdRng::seed_from_u64(CHORD_SEED);
    let citations: Vec<_> = CHAIN_LENGTHS
        .iter()
        .map(|&(len, _)| citation_facts(len, &mut shape, &mut rng))
        .collect();
    // Set-up is loading the source instances into databases.
    let load = || {
        let mut irng = StdRng::seed_from_u64(instance_seed);
        let mut dbs: Vec<Database> = INSTANCE_SIZES
            .iter()
            .map(|&(n, _)| random_instance(&chain, n, n, &mut irng))
            .collect();
        for (facts, _) in &citations {
            let mut db = Database::new();
            for (a, b) in facts {
                db.insert("Cites", vec![Term::sym(a), Term::sym(b)]);
            }
            dbs.push(db);
        }
        dbs
    };
    let mut setup = Setup::new(SETUP_PER_ROUND);
    let dbs = setup.round(load);

    // Every operation once, and a pass as indices into `ops`.
    let mut ops: Vec<Op> = Vec::new();
    let mut pass: Vec<usize> = Vec::new();
    let mut push = |ops: &mut Vec<Op>, op, runs| {
        pass.extend(std::iter::repeat_n(ops.len(), runs));
        ops.push(op);
    };
    for (db, &(_, runs)) in INSTANCE_SIZES.iter().enumerate() {
        let expected = composed_answers(&dbs[db]);
        push(&mut ops, Op::Certain { db, expected }, runs);
    }
    for (i, (_, reachable)) in citations.iter().enumerate() {
        let db = INSTANCE_SIZES.len() + i;
        let expected = reachable.clone();
        push(&mut ops, Op::Reachable { db, expected }, CHAIN_LENGTHS[i].1);
    }
    for (case, expected, runs) in decisions() {
        push(&mut ops, Op::Decide { case, expected }, runs);
    }
    pass.shuffle(&mut rng);
    if args.flip_reference {
        if let Op::Certain { expected, .. } = &mut ops[0] {
            expected.insert(vec!["c0".into(), "not-an-answer".into()]);
        }
    }

    let opts = EvalOptions::default();
    let run_op = |op: &Op| -> Result<Returned, String> {
        match op {
            Op::Certain { db, .. } => certain_answers(&q_chain, &q, &chain, &dbs[*db], &opts)
                .map(|r| Returned::Answers(strings(&r)))
                .map_err(|e| e.to_string()),
            Op::Reachable { db, .. } => {
                reachable_certain_answers(&q_reach, &q, &cites, &dbs[*db], &opts)
                    .map(|r| Returned::Answers(strings(&r)))
                    .map_err(|e| e.to_string())
            }
            Op::Decide { case, .. } => decide(case).map(Returned::Verdict),
        }
    };

    let mut out = Outcome::default();
    let mut tr = Tracer::default();
    let (mut traced_ms, mut trace_ms) = (0.0, 0.0);
    let t0 = Instant::now();
    let mut paused = Duration::ZERO;
    let total = work_units(args, PASSES_PER_S, 3.0) * pass.len();
    for _ in 0..total / pass.len() {
        for op in pass.iter().map(|&ix| &ops[ix]) {
            paused += setup.between(out.attempted as usize, total, load);
            out.attempted += 1;
            let started = Instant::now();
            let (fix0, types0) = (
                tr.hist_ms(Hist::FixpointNs),
                tr.counter(Counter::FixpointTypesRecorded),
            );
            let got = if args.trace {
                let (got, ms) = tr.observe(|| run_op(op));
                traced_ms += ms;
                got
            } else {
                run_op(op)
            };
            let ms = finish_op(started, args.slowdown);
            let got = match got {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("operation failed: {e}");
                    out.failed += 1;
                    continue;
                }
            };
            out.latencies_ms.push(ms);
            let ok = match (op, &got) {
                (
                    Op::Certain { expected, .. } | Op::Reachable { expected, .. },
                    Returned::Answers(a),
                ) => a == expected,
                (Op::Decide { expected, .. }, Returned::Verdict(v)) => v == expected,
                _ => false,
            };
            out.wrong += u64::from(!ok);
            if !args.trace {
                continue;
            }
            let t = Instant::now();
            // The fixpoint runs behind a private plan-sanitising step, so
            // its time comes from the stage histogram of the traced call.
            tr.add("fixpoint.ms", tr.hist_ms(Hist::FixpointNs) - fix0);
            let types = tr.counter(Counter::FixpointTypesRecorded) - types0;
            tr.add("fixpoint.types_recorded", types as f64);
            let parts = match op {
                Op::Certain { db, .. } => {
                    let plan = tr.time("inverse_rules.ms", || max_contained_plan(&q_chain, &chain));
                    Some(plan_answers(&mut tr, &plan, &dbs[*db], &q))
                }
                Op::Reachable { db, .. } => {
                    let plan = tr.time("inverse_rules.ms", || executable_plan(&q_reach, &cites));
                    let plan = tr
                        .time("fn_elim.ms", || eliminate_function_terms(&plan))
                        .expect("fn-elim succeeds");
                    Some(plan_answers(&mut tr, &plan, &dbs[*db], &q))
                }
                Op::Decide { case, .. } => {
                    // Plan construction is public; sanitising, expansion
                    // and the fixpoint behind it are reported through the
                    // fixpoint histogram and `unattributed_ms`.
                    let plan = if case.bp {
                        tr.time("inverse_rules.ms", || {
                            executable_plan(&case.q1, &case.views)
                        })
                    } else {
                        tr.time("inverse_rules.ms", || {
                            max_contained_plan(&case.q1, &case.views)
                        })
                    };
                    let _ = tr.time("fn_elim.ms", || eliminate_function_terms(&plan));
                    None
                }
            };
            if let (Some(parts), Returned::Answers(top)) = (parts, &got) {
                out.decomposition_mismatches += u64::from(&parts != top);
            }
            trace_ms += t.elapsed().as_secs_f64() * 1e3;
        }
    }
    paused += setup.between(total, total, load);
    out.elapsed_s = (t0.elapsed() - paused).as_secs_f64();
    out.setup_s = setup.seconds();
    out.peak_rss_mb = crate::peak_rss_mb();
    if args.trace {
        let attributed = tr.layers.attributed_ms();
        tr.add("unattributed_ms", traced_ms - attributed);
        tr.add("trace_overhead_ms", trace_ms);
        out.layers = tr.layers;
    }
    out
}
