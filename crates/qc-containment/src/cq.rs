//! Containment and equivalence of (unions of) conjunctive queries.
//!
//! The comparison-free procedures live here (Chandra–Merlin and
//! Sagiv–Yannakakis); queries with comparison literals are dispatched to
//! the complete test in [`crate::comparisons`].

use qc_datalog::{ConjunctiveQuery, Ucq};

use crate::comparisons;
use crate::homomorphism::containment_mapping;

/// Decides `q1 ⊆ q2`.
///
/// Dispatches on comparison presence: comparison-free pairs use the
/// Chandra–Merlin containment-mapping test (NP); pairs with comparisons
/// use the complete dense-order test of [`crate::comparisons`] (Π₂ᵖ).
pub fn cq_contained(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    if q1.is_comparison_free() && q2.is_comparison_free() {
        containment_mapping(q2, q1).is_some()
    } else {
        comparisons::cq_contained_in_ucq(q1, &Ucq::single(q2.clone()))
    }
}

/// Decides `q1 ≡ q2`.
pub fn cq_equivalent(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    cq_contained(q1, q2) && cq_contained(q2, q1)
}

/// Decides `u1 ⊆ u2` for unions of conjunctive queries.
///
/// `u1 ⊆ u2` iff every disjunct of `u1` is contained in `u2`; for a
/// comparison-free disjunct this reduces to containment in *some* disjunct
/// of `u2` (Sagiv–Yannakakis \[35\]); with comparisons the whole union on
/// the right must be considered per linearization, which
/// [`comparisons::cq_contained_in_ucq`] does. The first disjunct that is
/// not contained decides the answer.
pub fn ucq_contained(u1: &Ucq, u2: &Ucq) -> bool {
    u1.disjuncts
        .iter()
        .all(|d| comparisons::cq_contained_in_ucq(d, u2))
}

/// Decides `u1 ≡ u2`.
pub fn ucq_equivalent(u1: &Ucq, u2: &Ucq) -> bool {
    ucq_contained(u1, u2) && ucq_contained(u2, u1)
}

/// Removes redundant disjuncts from a union: a disjunct contained in the
/// rest of the union contributes nothing. Among equivalent disjuncts the
/// first is kept. The result is equivalent to the input (and is how the
/// paper presents its plans, e.g. Example 4's `P3`).
pub fn minimize_union(u: &Ucq) -> Ucq {
    let mut kept: Vec<ConjunctiveQuery> = Vec::new();
    for (i, d) in u.disjuncts.iter().enumerate() {
        // Is d contained in the union of all *other* disjuncts that will
        // survive / come later? Conservative pairwise check: contained in
        // a single other disjunct (with tie-breaking on equivalence).
        let subsumed = u.disjuncts.iter().enumerate().any(|(j, other)| {
            i != j
                && comparisons::cq_contained_in_ucq(d, &Ucq::single(other.clone()))
                && !(comparisons::cq_contained_in_ucq(other, &Ucq::single(d.clone())) && j > i)
        });
        if !subsumed {
            kept.push(d.clone());
        }
    }
    if kept.is_empty() {
        Ucq::empty(u.pred.as_str(), u.arity)
    } else {
        Ucq::new(kept).expect("disjuncts share the union head")
    }
}

/// Minimizes a comparison-free conjunctive query to its core: repeatedly
/// drops a subgoal when the query with that subgoal removed still maps
/// back onto the original (the classic Chandra–Merlin minimization; the
/// result is unique up to isomorphism).
///
/// Queries with comparisons are returned unchanged (minimization in the
/// presence of comparisons would require entailment-aware equivalence and
/// is not needed by the paper's constructions).
pub fn minimize(q: &ConjunctiveQuery) -> ConjunctiveQuery {
    if !q.is_comparison_free() {
        return q.clone();
    }
    let mut current = q.clone();
    loop {
        let mut reduced = None;
        for i in 0..current.subgoals.len() {
            let mut candidate = current.clone();
            candidate.subgoals.remove(i);
            // The candidate must stay safe (head vars still covered) and
            // equivalent: candidate ⊆ current always (more constraints on
            // current? no: candidate has FEWER subgoals so current ⊆
            // candidate trivially via identity); we need candidate ⊆
            // current, i.e. a mapping from current into candidate.
            let head_ok = candidate
                .head_vars()
                .iter()
                .all(|v| candidate.subgoals.iter().any(|a| a.vars().contains(v)));
            if !head_ok {
                continue;
            }
            if containment_mapping(&current, &candidate).is_some() {
                reduced = Some(candidate);
                break;
            }
        }
        match reduced {
            Some(c) => current = c,
            None => return current,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_datalog::parse_query;

    fn q(s: &str) -> ConjunctiveQuery {
        parse_query(s).unwrap()
    }

    fn ucq(srcs: &[&str]) -> Ucq {
        Ucq::new(srcs.iter().map(|s| q(s)).collect()).unwrap()
    }

    #[test]
    fn paper_example1_classical_claims() {
        // "Q2 is contained in Q1 because Q2 applies a stronger condition
        //  (Rating = 10) than Q1, but Q1 is not contained in Q2."
        let q1 =
            q("q1(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, Rating).");
        let q2 = q("q2(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10).");
        assert!(cq_contained(&q2, &q1));
        assert!(!cq_contained(&q1, &q2));
        // "Likewise, Q3 is contained in Q2, but not vice versa."
        let q3 = q(
            "q3(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10), Y < 1970.",
        );
        assert!(cq_contained(&q3, &q2));
        assert!(!cq_contained(&q2, &q3));
    }

    #[test]
    fn containment_is_reflexive_and_transitive_on_samples() {
        let samples = [
            q("q(X) :- r(X, Y)."),
            q("q(X) :- r(X, X)."),
            q("q(X) :- r(X, Y), r(Y, X)."),
        ];
        for s in &samples {
            assert!(cq_contained(s, s));
        }
        // r(X,X) ⊆ r(X,Y) ⊆ ... chain.
        assert!(cq_contained(&samples[1], &samples[0]));
        assert!(cq_contained(&samples[1], &samples[2]));
    }

    #[test]
    fn ucq_containment() {
        let u1 = ucq(&["q(X) :- a(X).", "q(X) :- b(X)."]);
        let u2 = ucq(&["q(X) :- a(X).", "q(X) :- b(X).", "q(X) :- c(X)."]);
        assert!(ucq_contained(&u1, &u2));
        assert!(!ucq_contained(&u2, &u1));
        assert!(!ucq_equivalent(&u1, &u2));
        assert!(ucq_equivalent(&u1, &u1));
    }

    #[test]
    fn empty_union_is_bottom() {
        let empty = Ucq::empty("q", 1);
        let u = ucq(&["q(X) :- a(X)."]);
        assert!(ucq_contained(&empty, &u));
        assert!(!ucq_contained(&u, &empty));
    }

    #[test]
    fn ucq_disjunct_contained_in_union_not_single() {
        // q(X) :- r(X) with r split... a disjunct contained in the union
        // only via one particular disjunct.
        let u1 = ucq(&["q(X) :- a(X), b(X)."]);
        let u2 = ucq(&["q(X) :- a(X).", "q(X) :- c(X)."]);
        assert!(ucq_contained(&u1, &u2));
    }

    #[test]
    fn minimize_removes_redundant_subgoals() {
        // r(X, Y), r(X, Z) minimizes to r(X, Y).
        let big = q("q(X) :- r(X, Y), r(X, Z).");
        let min = minimize(&big);
        assert_eq!(min.subgoals.len(), 1);
        assert!(cq_equivalent(&big, &min));
        // A core stays put.
        let core = q("q(X, Y) :- e(X, Z), e(Z, Y).");
        assert_eq!(minimize(&core).subgoals.len(), 2);
    }

    #[test]
    fn minimize_respects_constants() {
        let big = q("q(X) :- r(X, 10), r(X, Y).");
        // r(X, Y) maps onto r(X, 10), so the core is r(X, 10).
        let min = minimize(&big);
        assert_eq!(min.subgoals.len(), 1);
        assert_eq!(min.subgoals[0].args[1], qc_datalog::Term::int(10));
    }

    #[test]
    fn minimize_keeps_comparison_queries_intact() {
        let c = q("q(X) :- r(X, Y), r(X, Z), Y < 10.");
        assert_eq!(minimize(&c).subgoals.len(), 2);
    }

    #[test]
    fn minimize_union_drops_subsumed_disjuncts() {
        let u = ucq(&[
            "q(X) :- a(X).",
            "q(X) :- a(X), b(X).", // subsumed by the first
            "q(X) :- c(X).",
        ]);
        let m = minimize_union(&u);
        assert_eq!(m.disjuncts.len(), 2);
        assert!(ucq_equivalent(&m, &u));
        // Equivalent duplicates collapse to one.
        let dup = ucq(&["q(X) :- a(X).", "q(Z) :- a(Z)."]);
        assert_eq!(minimize_union(&dup).disjuncts.len(), 1);
        // With comparisons: the weaker window subsumes the stronger.
        let cmpu = ucq(&["q(X) :- a(X, Y), Y < 1950.", "q(X) :- a(X, Y), Y < 1970."]);
        let m2 = minimize_union(&cmpu);
        assert_eq!(m2.disjuncts.len(), 1);
        assert_eq!(
            m2.disjuncts[0].comparisons[0].rhs,
            qc_datalog::Term::int(1970)
        );
    }

    #[test]
    fn boolean_queries() {
        let a = q("q() :- r(X, Y).");
        let b = q("q() :- r(X, X).");
        assert!(cq_contained(&b, &a));
        assert!(!cq_contained(&a, &b));
    }
}
