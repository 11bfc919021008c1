//! Containment mappings (Chandra–Merlin homomorphisms).
//!
//! A *containment mapping* from `Q2` to `Q1` maps every variable of `Q2`
//! to a term of `Q1` such that the head of `Q2` maps to the head of `Q1`
//! positionally and every relational subgoal of `Q2` maps to some
//! relational subgoal of `Q1`. `Q1 ⊆ Q2` (comparison-free case) iff such a
//! mapping exists [Chandra–Merlin 1977].
//!
//! The search is a backtracking walk over `Q2`'s subgoals, seeded with the
//! head constraint (which usually pins the distinguished variables
//! immediately). Goals are ordered most-constrained-first — fewest
//! same-predicate targets first — and each goal scans `Q1`'s subgoals
//! linearly for pred/arity-compatible candidates. Bindings live in one
//! [`Mapping`] and are trailed on a shared rewind stack, so backtracking
//! allocates nothing per node. Every decision procedure in the crate
//! reduces to this one search.

use std::collections::HashMap;
use std::ops::ControlFlow;

use qc_datalog::{Atom, ConjunctiveQuery, Term, Var};

/// A variable-to-term mapping (the hom restricted to variables; constants
/// always map to themselves).
pub type Mapping = HashMap<Var, Term>;

/// Applies a mapping to a term (unmapped variables stay).
pub fn apply_mapping(m: &Mapping, t: &Term) -> Term {
    match t {
        Term::Var(v) => m.get(v).cloned().unwrap_or_else(|| t.clone()),
        Term::Const(_) => t.clone(),
        Term::App(f, args) => Term::App(*f, args.iter().map(|a| apply_mapping(m, a)).collect()),
    }
}

/// Extends `m` so that `apply(m, from) == to`; `to` is fixed. Newly bound
/// variables are pushed onto `added` for rollback. Returns `false` on
/// conflict (the caller rolls back whatever was added).
fn extend(m: &mut Mapping, from: &Term, to: &Term, added: &mut Vec<Var>) -> bool {
    match from {
        Term::Var(v) => match m.get(v) {
            Some(bound) => bound == to,
            None => {
                m.insert(*v, to.clone());
                added.push(*v);
                true
            }
        },
        Term::Const(_) => from == to,
        Term::App(f, fargs) => match to {
            Term::App(g, gargs) => {
                f == g
                    && fargs.len() == gargs.len()
                    && fargs.iter().zip(gargs).all(|(a, b)| extend(m, a, b, added))
            }
            _ => false,
        },
    }
}

/// Visits every containment mapping from `from` onto `to` (head-preserving,
/// relational subgoals only — comparisons are the caller's concern).
/// Returns `true` when the enumeration completed without the visitor
/// breaking.
///
/// Head predicates are *not* required to match (a maximally-contained plan
/// `p1` is compared against a query `q1`), but arities must.
pub fn for_each_containment_mapping(
    from: &ConjunctiveQuery,
    to: &ConjunctiveQuery,
    mut visit: impl FnMut(&Mapping) -> ControlFlow<()>,
) -> bool {
    let _t = qc_obs::time(qc_obs::Hist::HomSearchNs);
    if from.head.arity() != to.head.arity() {
        return true; // no mappings possible
    }
    let mut m = Mapping::new();
    let mut trail = Vec::new();
    for (f, t) in from.head.args.iter().zip(&to.head.args) {
        if !extend(&mut m, f, t, &mut trail) {
            return true;
        }
    }
    // Most-constrained-first: fewer same-predicate targets first, counted
    // once per goal. The stable sort keeps textual order among equal
    // counts. Single-goal searches (the bulk of MiniCon's MCD checks) skip
    // both the counting pass and the sort — there is nothing to order.
    let mut order: Vec<(usize, &Atom)> = if from.subgoals.len() <= 1 {
        from.subgoals.iter().map(|g| (0, g)).collect()
    } else {
        from.subgoals
            .iter()
            .map(|g| (to.subgoals.iter().filter(|t| t.pred == g.pred).count(), g))
            .collect()
    };
    if order.len() > 1 {
        order.sort_by_key(|&(count, _)| count);
    }
    trail.clear();
    search(&order, 0, to, &mut m, &mut trail, &mut visit).is_continue()
}

fn search(
    goals: &[(usize, &Atom)],
    k: usize,
    to: &ConjunctiveQuery,
    m: &mut Mapping,
    trail: &mut Vec<Var>,
    visit: &mut impl FnMut(&Mapping) -> ControlFlow<()>,
) -> ControlFlow<()> {
    // One work unit per search node, at the `HomSearchNodes` counter site;
    // `trip` unwinds to the nearest `qc_guard::guarded` boundary because
    // the search has no fallible plumbing of its own.
    qc_guard::trip(qc_guard::stage::HOM_SEARCH, 1);
    qc_obs::count(qc_obs::Counter::HomSearchNodes, 1);
    if k == goals.len() {
        qc_obs::count(qc_obs::Counter::HomMappingsFound, 1);
        return visit(m);
    }
    let goal = goals[k].1;
    for target in &to.subgoals {
        if target.pred != goal.pred || target.args.len() != goal.args.len() {
            continue;
        }
        let mark = trail.len();
        let ok = goal
            .args
            .iter()
            .zip(&target.args)
            .all(|(f, t)| extend(m, f, t, trail));
        if ok {
            search(goals, k + 1, to, m, trail, visit)?;
        } else {
            qc_obs::count(qc_obs::Counter::HomCandidatesPruned, 1);
        }
        for v in trail.drain(mark..) {
            m.remove(&v);
        }
    }
    ControlFlow::Continue(())
}

/// The first containment mapping from `from` onto `to`, if any.
pub fn containment_mapping(from: &ConjunctiveQuery, to: &ConjunctiveQuery) -> Option<Mapping> {
    let mut found = None;
    for_each_containment_mapping(from, to, |m| {
        found = Some(m.clone());
        ControlFlow::Break(())
    });
    found
}

/// All containment mappings (use for tests / small queries only).
pub fn all_containment_mappings(from: &ConjunctiveQuery, to: &ConjunctiveQuery) -> Vec<Mapping> {
    let mut out = Vec::new();
    for_each_containment_mapping(from, to, |m| {
        out.push(m.clone());
        ControlFlow::Continue(())
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_datalog::parse_query;

    fn q(s: &str) -> ConjunctiveQuery {
        parse_query(s).unwrap()
    }

    #[test]
    fn identity_mapping_exists() {
        let a = q("q(X) :- r(X, Y).");
        assert!(containment_mapping(&a, &a).is_some());
    }

    #[test]
    fn classic_chain_example() {
        // q2 has a stronger condition; mapping from q1 into q2 exists.
        let q1 = q("q(X, Y) :- e(X, Z), e(Z, Y).");
        let q2 = q("q(X, Y) :- e(X, Z), e(Z, W), e(W, Y), e(X, Y).");
        // Mapping q1 -> q2? needs e(X,?), e(?,Y): X->X, Z->... e(X,Z),e(Z,Y):
        // no 2-chain from X to Y other than via... e(X,Y) direct + ... no.
        assert!(containment_mapping(&q1, &q2).is_none());
        // But the 1-step q(X, Y) :- e(X, Y) maps into q2.
        let q3 = q("q(X, Y) :- e(X, Y).");
        assert!(containment_mapping(&q3, &q2).is_some());
    }

    #[test]
    fn head_must_be_preserved() {
        let from = q("q(X) :- r(X, Y).");
        let to = q("q(A) :- r(B, A).");
        // X must map to A; r(X, Y) needs a target r(A, _): only r(B, A),
        // which would force X -> B != A.
        assert!(containment_mapping(&from, &to).is_none());
        let to2 = q("q(A) :- r(A, B).");
        assert!(containment_mapping(&from, &to2).is_some());
    }

    #[test]
    fn constants_map_to_themselves() {
        let from = q("q(X) :- r(X, 10).");
        let to_match = q("q(A) :- r(A, 10).");
        let to_mismatch = q("q(A) :- r(A, 9).");
        let to_var = q("q(A) :- r(A, B).");
        assert!(containment_mapping(&from, &to_match).is_some());
        assert!(containment_mapping(&from, &to_mismatch).is_none());
        // A constant cannot map to a variable.
        assert!(containment_mapping(&from, &to_var).is_none());
        // But a variable can map to a constant.
        let from_var = q("q(A) :- r(A, B).");
        assert!(containment_mapping(&from_var, &to_match).is_some());
    }

    #[test]
    fn repeated_variables_constrain() {
        let from = q("q() :- r(X, X).");
        let to_diag = q("q() :- r(A, A).");
        let to_offdiag = q("q() :- r(A, B).");
        assert!(containment_mapping(&from, &to_diag).is_some());
        assert!(containment_mapping(&from, &to_offdiag).is_none());
        // Other direction: r(A, B) maps onto r(X, X) by A, B -> X.
        assert!(containment_mapping(&to_offdiag, &from).is_some());
    }

    #[test]
    fn arity_mismatch_no_mapping() {
        let from = q("q(X, Y) :- r(X, Y).");
        let to = q("q(X) :- r(X, X).");
        assert!(containment_mapping(&from, &to).is_none());
    }

    #[test]
    fn head_predicate_names_ignored() {
        let from = q("p1(X) :- r(X).");
        let to = q("q1(A) :- r(A).");
        assert!(containment_mapping(&from, &to).is_some());
    }

    #[test]
    fn all_mappings_counted() {
        let from = q("q() :- r(X).");
        let to = q("q() :- r(A), r(B), s(A).");
        // X can map to A or B.
        assert_eq!(all_containment_mappings(&from, &to).len(), 2);
    }

    #[test]
    fn function_terms_match_structurally() {
        let from = q("q(X) :- r(X, f(X)).");
        let to = q("q(A) :- r(A, f(A)).");
        let to_bad = q("q(A) :- r(A, g(A)).");
        assert!(containment_mapping(&from, &to).is_some());
        assert!(containment_mapping(&from, &to_bad).is_none());
        // Variable maps onto a whole function term.
        let from_var = q("q(X) :- r(X, Y).");
        assert!(containment_mapping(&from_var, &to).is_some());
    }

    #[test]
    fn zero_ary_heads() {
        let from = q("q() :- r(X, Y).");
        let to = q("q() :- r(A, B), s(A).");
        assert!(containment_mapping(&from, &to).is_some());
    }
}
