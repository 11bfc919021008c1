//! Engine-wide tuning knobs for datalog evaluation inside the containment
//! procedures.
//!
//! The containment procedures ([`crate::cq`], [`crate::homomorphism`],
//! [`crate::datalog_ucq`]) keep their small, paper-shaped signatures; the
//! fixpoint engine that canonical-database evaluation, certain answers and
//! datalog containment run on is configured out-of-band through a scoped,
//! thread-local [`EngineOptions`], mirroring the `qc-obs` recorder pattern.
//!
//! The containment-mapping search itself has a single kernel and no knobs.
//! [`EngineOptions::naive`] pins evaluation to the order-naïve reference:
//! the tuple-at-a-time kernel in textual join order, without magic sets.

use std::cell::Cell;

pub use qc_datalog::eval::EvalEngine;
use qc_datalog::eval::EvalOptions;

/// Default [`EngineOptions::tier_ra_min_tuples`]: non-recursive fixpoints
/// over fewer EDB tuples than this stay on the tuple-at-a-time kernel —
/// compiling RA plans costs more than evaluating such instances directly.
/// Recursive programs always amortize compilation over their rounds and
/// route to RA regardless of size.
pub const DEFAULT_TIER_RA_MIN_TUPLES: usize = 256;

/// Tuning knobs for the datalog evaluation the containment engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Datalog fixpoint engine for canonical-database evaluation, certain
    /// answers, and datalog containment: the compiled relational-algebra
    /// tier, the tuple-at-a-time kernel, or adaptive routing between them
    /// (see [`EngineOptions::tier_ra_min_tuples`]).
    pub eval_engine: EvalEngine,
    /// Apply the magic-sets rewrite before goal-directed RA fixpoints, so
    /// only tuples reachable from the query's binding pattern are derived.
    pub eval_magic_sets: bool,
    /// Adaptive threshold: non-recursive fixpoints over fewer EDB tuples
    /// than this stay on the tuple-at-a-time kernel.
    pub tier_ra_min_tuples: usize,
    /// Greedy most-bound-first reordering of rule bodies in the
    /// tuple-at-a-time evaluator (`EvalOptions::reorder`). `false` joins in
    /// textual order.
    pub eval_reorder: bool,
}

impl Default for EngineOptions {
    fn default() -> EngineOptions {
        EngineOptions {
            eval_engine: EvalEngine::Adaptive,
            eval_magic_sets: true,
            tier_ra_min_tuples: DEFAULT_TIER_RA_MIN_TUPLES,
            eval_reorder: true,
        }
    }
}

impl EngineOptions {
    /// The order-naïve evaluation reference: tuple-at-a-time fixpoints in
    /// textual join order, no magic sets.
    pub fn naive() -> EngineOptions {
        EngineOptions {
            eval_engine: EvalEngine::Tuple,
            eval_magic_sets: false,
            tier_ra_min_tuples: 0,
            eval_reorder: false,
        }
    }

    /// This configuration with the given datalog fixpoint engine.
    pub fn with_eval_engine(self, eval_engine: EvalEngine) -> EngineOptions {
        EngineOptions {
            eval_engine,
            ..self
        }
    }

    /// The [`EvalOptions`] this engine configuration implies: the fixpoint
    /// tier, magic sets, the RA routing threshold and join reordering come
    /// from the engine knobs; everything else keeps the evaluator defaults.
    pub fn eval_options(&self) -> EvalOptions {
        EvalOptions {
            engine: self.eval_engine,
            magic_sets: self.eval_magic_sets,
            tier_ra_min_tuples: self.tier_ra_min_tuples,
            reorder: self.eval_reorder,
            ..EvalOptions::default()
        }
    }
}

thread_local! {
    static CURRENT: Cell<EngineOptions> = Cell::new(EngineOptions::default());
}

/// The options in effect on this thread.
pub fn current() -> EngineOptions {
    CURRENT.with(Cell::get)
}

/// Runs `f` with `opts` in effect on this thread; the previous options are
/// restored afterwards (also on unwind).
pub fn with_options<R>(opts: EngineOptions, f: impl FnOnce() -> R) -> R {
    struct Restore(EngineOptions);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| c.set(self.0));
        }
    }
    let _restore = CURRENT.with(|c| {
        let prev = c.get();
        c.set(opts);
        Restore(prev)
    });
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_naive_reference() {
        let d = EngineOptions::default();
        assert_eq!(d.eval_engine, EvalEngine::Adaptive);
        assert!(d.eval_magic_sets);
        assert_eq!(d.tier_ra_min_tuples, DEFAULT_TIER_RA_MIN_TUPLES);
        assert!(d.eval_options().reorder);
        let n = EngineOptions::naive();
        assert_eq!(n.eval_engine, EvalEngine::Tuple);
        assert!(!n.eval_options().reorder);
        assert!(!n.eval_options().magic_sets);
        assert_eq!(
            EngineOptions::default()
                .with_eval_engine(EvalEngine::Ra)
                .eval_options()
                .engine,
            EvalEngine::Ra
        );
    }

    #[test]
    fn with_options_is_scoped_and_restores() {
        let base = current();
        let ra = EngineOptions::default().with_eval_engine(EvalEngine::Ra);
        let inner = with_options(EngineOptions::naive(), || {
            let nested = with_options(ra, current);
            assert_eq!(nested, ra);
            current()
        });
        assert_eq!(inner, EngineOptions::naive());
        assert_eq!(current(), base);
    }
}
