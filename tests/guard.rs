//! Guard integration tests: every budget-exhaustion path reports
//! `ResourceError { stage, .. }` provenance, anytime verdicts degrade to
//! `Unknown { partial }` soundly, and an unlimited guard changes nothing.

use std::sync::Arc;

use relcont::containment::cq_contained;
use relcont::containment::datalog_ucq::{
    datalog_contained_in_ucq, DatalogUcqError, FixpointBudget,
};
use relcont::containment::witness::{find_counterexample_expansion, WitnessBudget};
use relcont::datalog::eval::{answers, EvalError, EvalOptions};
use relcont::datalog::{parse_program, parse_query, Database, Symbol, Ucq};
use relcont::guard::{self, FaultKind, FaultPlan, Guard, ResourceKind};
use relcont::mediator::enumerate::{enumerated_plan, EnumerationLimits};
use relcont::mediator::fn_elim::{eliminate_function_terms, FnElimError};
use relcont::mediator::minicon::minicon_rewritings;
use relcont::mediator::relative::{relatively_contained, relatively_contained_verdict, Verdict};
use relcont::mediator::schema::{example1_sources, LavSetting};

fn sym(s: &str) -> Symbol {
    Symbol::new(s)
}

fn q1_prog() -> relcont::datalog::Program {
    parse_program(
        "q1(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, Rating).",
    )
    .unwrap()
}

fn q2_prog() -> relcont::datalog::Program {
    parse_program("q2(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10).")
        .unwrap()
}

fn q3_prog() -> relcont::datalog::Program {
    parse_program(
        "q3(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10), Y < 1970.",
    )
    .unwrap()
}

/// Evaluation: a budget measured in rule firings trips with `stage: eval`.
#[test]
fn eval_budget_provenance() {
    let p = parse_program("p(X, Z) :- e(X, Y), e(Y, Z).").unwrap();
    let db = Database::parse("e(1, 2). e(2, 3). e(3, 4).").unwrap();
    let g = Guard::unlimited().with_budget(1);
    let err =
        guard::with_guard(&g, || answers(&p, &db, &sym("p"), &EvalOptions::default())).unwrap_err();
    match err {
        EvalError::Resource(e) => {
            assert_eq!(e.stage, guard::stage::EVAL);
            assert_eq!(e.kind, ResourceKind::Budget);
            assert_eq!(e.limit, 1);
            assert!(e.consumed > e.limit);
        }
        other => panic!("expected resource error, got {other:?}"),
    }
    // Unlimited: identical to unguarded.
    let unguarded = answers(&p, &db, &sym("p"), &EvalOptions::default()).unwrap();
    let guarded = guard::with_guard(&Guard::unlimited(), || {
        answers(&p, &db, &sym("p"), &EvalOptions::default())
    })
    .unwrap();
    assert_eq!(unguarded.len(), guarded.len());
}

/// Homomorphism search: trips unwind to the `guarded` boundary with
/// `stage: hom_search`.
#[test]
fn hom_search_budget_provenance() {
    let qa = parse_query("q(X) :- r(X, Y), r(Y, Z).").unwrap();
    let qb = parse_query("q(A) :- r(A, B).").unwrap();
    let g = Guard::unlimited().with_budget(0);
    let e = guard::with_guard(&g, || guard::guarded(|| cq_contained(&qa, &qb))).unwrap_err();
    assert_eq!(e.stage, guard::stage::HOM_SEARCH);
    assert_eq!(e.kind, ResourceKind::Budget);
    // With room to finish, the guarded verdict equals the unguarded one.
    let big = Guard::unlimited().with_budget(1_000_000);
    let v = guard::with_guard(&big, || guard::guarded(|| cq_contained(&qa, &qb))).unwrap();
    assert_eq!(v, cq_contained(&qa, &qb));
}

/// The type fixpoint propagates guard errors through its own plumbing
/// with `stage: fixpoint`.
#[test]
fn fixpoint_guard_provenance() {
    let tc = parse_program("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).").unwrap();
    let loose = Ucq::single(parse_query("u(X, Y) :- e(X, A), e(B, Y).").unwrap());
    let g = Guard::unlimited().with_fault(FaultPlan {
        stage: guard::stage::FIXPOINT,
        at_tick: 1,
        kind: FaultKind::Budget,
    });
    let err = guard::with_guard(&g, || {
        guard::guarded(|| {
            datalog_contained_in_ucq(&tc, &sym("t"), &loose, &FixpointBudget::default())
        })
    })
    .unwrap()
    .unwrap_err();
    match err {
        DatalogUcqError::Resource(e) => {
            assert_eq!(e.stage, guard::stage::FIXPOINT);
            assert_eq!(e.kind, ResourceKind::Budget);
        }
        other => panic!("expected resource error, got {other:?}"),
    }
}

/// Theorem 3.1 enumeration trips with `stage: enumeration`.
#[test]
fn enumeration_guard_provenance() {
    let q = parse_query("q(X) :- p(X, Y).").unwrap();
    let views = LavSetting::parse(&["v(A, B) :- p(A, B)."]).unwrap();
    let g = Guard::unlimited().with_fault(FaultPlan {
        stage: guard::stage::ENUMERATION,
        at_tick: 1,
        kind: FaultKind::Budget,
    });
    let e = guard::with_guard(&g, || {
        guard::guarded(|| enumerated_plan(&q, &views, &EnumerationLimits::default()))
    })
    .unwrap_err();
    assert_eq!(e.stage, guard::stage::ENUMERATION);
    assert_eq!(e.kind, ResourceKind::Budget);
}

/// Function-term elimination reports `stage: fn_elim` through its error
/// type.
#[test]
fn fn_elim_guard_provenance() {
    let plan = parse_program("p(X, f(X)) :- v(X). q(A) :- p(A, B).").unwrap();
    let g = Guard::unlimited().with_fault(FaultPlan {
        stage: guard::stage::FN_ELIM,
        at_tick: 1,
        kind: FaultKind::Budget,
    });
    let err = guard::with_guard(&g, || eliminate_function_terms(&plan)).unwrap_err();
    match err {
        FnElimError::Resource(e) => {
            assert_eq!(e.stage, guard::stage::FN_ELIM);
            assert_eq!(e.kind, ResourceKind::Budget);
        }
        other => panic!("expected resource error, got {other:?}"),
    }
}

/// MiniCon trips with `stage: minicon`.
#[test]
fn minicon_guard_provenance() {
    let q = parse_query("q(X, Z) :- p(X, Y), r(Y, Z).").unwrap();
    let views = LavSetting::parse(&["V(A, C) :- p(A, B), r(B, C)."]).unwrap();
    let g = Guard::unlimited().with_fault(FaultPlan {
        stage: guard::stage::MINICON,
        at_tick: 1,
        kind: FaultKind::Budget,
    });
    let e =
        guard::with_guard(&g, || guard::guarded(|| minicon_rewritings(&q, &views))).unwrap_err();
    assert_eq!(e.stage, guard::stage::MINICON);
    assert_eq!(e.kind, ResourceKind::Budget);
}

/// The counterexample-expansion search trips with `stage: witness`.
#[test]
fn witness_guard_provenance() {
    let p = parse_program("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).").unwrap();
    let q = Ucq::single(parse_query("t(A, B) :- e(A, B).").unwrap());
    let g = Guard::unlimited().with_fault(FaultPlan {
        stage: guard::stage::WITNESS,
        at_tick: 1,
        kind: FaultKind::Budget,
    });
    let e = guard::with_guard(&g, || {
        guard::guarded(|| {
            find_counterexample_expansion(&p, &sym("t"), &q, &WitnessBudget::default())
        })
    })
    .unwrap_err();
    assert_eq!(e.stage, guard::stage::WITNESS);
    assert_eq!(e.kind, ResourceKind::Budget);
}

/// The anytime verdict agrees with the boolean decision when no limit is
/// in play (with and without an unlimited guard installed).
#[test]
fn verdict_agrees_with_decision_when_unlimited() {
    let views = example1_sources();
    let cases = [
        (q1_prog(), "q1", q2_prog(), "q2"),
        (q2_prog(), "q2", q1_prog(), "q1"),
        (q1_prog(), "q1", q3_prog(), "q3"),
        (q3_prog(), "q3", q1_prog(), "q1"),
    ];
    for (a, an, b, bn) in cases {
        let expect = relatively_contained(&a, &sym(an), &b, &sym(bn), &views).unwrap();
        let bare = relatively_contained_verdict(&a, &sym(an), &b, &sym(bn), &views).unwrap();
        let under = guard::with_guard(&Guard::unlimited(), || {
            relatively_contained_verdict(&a, &sym(an), &b, &sym(bn), &views)
        })
        .unwrap();
        let want = if expect {
            Verdict::Contained
        } else {
            Verdict::NotContained
        };
        assert_eq!(bare, want, "{an} vs {bn}");
        assert_eq!(under, want, "{an} vs {bn} (unlimited guard)");
    }
}

/// Sweeping the budget upward walks the verdict from `Unknown` (nothing
/// proven) through partial progress to the definite answer, and every
/// partial result is a sound under-approximation.
#[test]
fn verdict_budget_sweep_is_anytime_and_sound() {
    let views = example1_sources();
    let (a, b) = (q1_prog(), q2_prog());
    // Oracle: contained, via a 2-disjunct maximally-contained plan.
    assert!(relatively_contained(&a, &sym("q1"), &b, &sym("q2"), &views).unwrap());

    let mut saw_unknown = false;
    let mut saw_partial_progress = false;
    let mut reached_contained = false;
    let mut best_partial = 0usize;
    for budget in 0..5_000 {
        let g = Guard::unlimited().with_budget(budget);
        let v = guard::with_guard(&g, || {
            relatively_contained_verdict(&a, &sym("q1"), &b, &sym("q2"), &views)
        })
        .unwrap();
        match v {
            Verdict::Contained => {
                reached_contained = true;
                break;
            }
            Verdict::NotContained => panic!("sound procedure cannot refute a true containment"),
            Verdict::Unknown(p) => {
                saw_unknown = true;
                assert_eq!(p.resource.kind, ResourceKind::Budget);
                assert!(
                    p.disjuncts_contained() >= best_partial,
                    "more budget cannot prove less: {} < {best_partial}",
                    p.disjuncts_contained()
                );
                best_partial = p.disjuncts_contained();
                assert!(
                    p.disjuncts_proven.windows(2).all(|w| w[0] < w[1]),
                    "proven indices must be strictly ascending: {:?}",
                    p.disjuncts_proven
                );
                assert!(p.disjuncts_proven.iter().all(|&i| i < p.disjuncts_total));
                if p.disjuncts_contained() > 0 {
                    saw_partial_progress = true;
                    assert!(p.disjuncts_total >= p.disjuncts_contained());
                    let plan = p
                        .partial_plan
                        .as_ref()
                        .expect("proven disjuncts form a plan");
                    assert_eq!(plan.disjuncts.len(), p.disjuncts_contained());
                }
            }
        }
    }
    assert!(saw_unknown, "small budgets must yield Unknown");
    assert!(
        saw_partial_progress,
        "some budget must land between the disjunct checks"
    );
    assert!(reached_contained, "a large budget must finish the proof");
}

/// Cancellation surfaces as `Unknown` with `ResourceKind::Cancelled`.
#[test]
fn cancellation_yields_unknown() {
    let views = example1_sources();
    let g = Guard::unlimited();
    g.cancel_token().cancel();
    let v = guard::with_guard(&g, || {
        relatively_contained_verdict(&q1_prog(), &sym("q1"), &q2_prog(), &sym("q2"), &views)
    })
    .unwrap();
    match v {
        Verdict::Unknown(p) => assert_eq!(p.resource.kind, ResourceKind::Cancelled),
        other => panic!("expected Unknown, got {other:?}"),
    }
}

/// A guarded run with no limits reproduces the unguarded engine's
/// counters bit-for-bit (zero overhead when idle).
#[test]
fn unlimited_guard_reproduces_counters() {
    let views = example1_sources();
    let run = |guarded: bool| {
        let rec = Arc::new(qc_obs::PipelineRecorder::new());
        {
            let _g = qc_obs::install(rec.clone());
            let body = || {
                assert!(relatively_contained(
                    &q1_prog(),
                    &sym("q1"),
                    &q2_prog(),
                    &sym("q2"),
                    &views
                )
                .unwrap());
            };
            if guarded {
                guard::with_guard(&Guard::unlimited(), body);
            } else {
                body();
            }
        }
        rec.counters().snapshot()
    };
    assert_eq!(run(false), run(true));
}
