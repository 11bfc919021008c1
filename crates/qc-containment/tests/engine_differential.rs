//! Differential test for the evaluator's join reordering: greedy
//! most-bound-first rule-body reordering (`EvalOptions::reorder`, the
//! default) must derive the same answer sets as textual join order on
//! random nonrecursive programs.

use proptest::prelude::*;
use qc_datalog::eval::{answers, EvalOptions};
use qc_datalog::{parse_program, Database, Program, Symbol, Term};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random nonrecursive layered program with answer predicate `q`
/// (mirrors the generator in `properties.rs`).
fn random_layered_program(rng: &mut StdRng) -> Program {
    let mut src = String::new();
    let q_atoms = rng.gen_range(1..=2);
    let mut body = Vec::new();
    for _ in 0..q_atoms {
        let h = rng.gen_range(0..2);
        body.push(format!(
            "h{h}(V{}, V{})",
            rng.gen_range(0..3),
            rng.gen_range(0..3)
        ));
    }
    src.push_str(&format!("q(V0) :- {}.\n", body.join(", ")));
    for h in 0..2 {
        for _ in 0..rng.gen_range(1..=2) {
            let p = rng.gen_range(0..2);
            match rng.gen_range(0..3) {
                0 => src.push_str(&format!("h{h}(A, B) :- p{p}(A, B).\n")),
                1 => src.push_str(&format!("h{h}(A, B) :- p{p}(B, A).\n")),
                _ => src.push_str(&format!("h{h}(A, A) :- p{p}(A, C).\n")),
            }
        }
    }
    parse_program(&src).expect("generated program parses")
}

/// A random database over the binary EDB predicates `p0`/`p1`.
fn random_db(rng: &mut StdRng) -> Database {
    let mut db = Database::new();
    for p in 0..2 {
        for _ in 0..rng.gen_range(0..8) {
            db.insert(
                format!("p{p}"),
                vec![
                    Term::int(rng.gen_range(0..3)),
                    Term::int(rng.gen_range(0..3)),
                ],
            );
        }
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn reordered_evaluation_agrees_with_textual_order(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = random_layered_program(&mut rng);
        let db = random_db(&mut rng);
        let ans = Symbol::new("q");
        let textual = EvalOptions {
            reorder: false,
            ..EvalOptions::default()
        };
        // The generator can emit unsafe rules (head variable not bound in
        // the body); both engines must agree on rejecting those too.
        let a_textual = match answers(&p, &db, &ans, &textual) {
            Ok(r) => r,
            Err(e) => {
                let e2 = answers(&p, &db, &ans, &EvalOptions::default()).unwrap_err();
                prop_assert_eq!(format!("{e:?}"), format!("{e2:?}"), "program:\n{}", p);
                return Ok(());
            }
        };
        let a_ordered = answers(&p, &db, &ans, &EvalOptions::default()).unwrap();
        // Reordering may change derivation (hence insertion) order; the
        // answer *sets* must match.
        let mut t_textual = a_textual.tuples().to_vec();
        let mut t_ordered = a_ordered.tuples().to_vec();
        t_textual.sort();
        t_ordered.sort();
        prop_assert_eq!(t_textual, t_ordered, "program:\n{}", p);
    }
}
