//! `thm33_scaling`: Theorem 3.3 reduction instances, decided one at a time
//! by `relatively_contained` with one client.
//!
//! Each universal variable doubles the maximally-contained plan (2^m
//! disjuncts), so m = 4…8 spans two orders of magnitude of decision
//! time; plan tidying dominates from m = 6 on. m = 10 (about 19 s a
//! decision) is left out. The reference is the brute-force ∀∃-3CNF
//! solver, which shares no code with the decision procedure.
//!
//! A sweep decides 500 fresh formulas, weighted by size
//! so that each reported percentile falls in the middle of one size's
//! decisions rather than on the edge between two sizes: the median among
//! the m = 5 decisions, the 90th percentile among m = 6 and the 99th
//! among the eight m = 7 decisions; the one m = 8 decision is above them
//! all. A percentile on a class edge jumps by the ratio of the two sizes'
//! costs (about 3x) when a single decision moves, and a percentile taken
//! from fewer than about eight decisions moves with every slow second of
//! the host.

use std::time::{Duration, Instant};

use qc_mediator::reductions::{random_cnf3, thm33_reduction, Thm33Instance};
use qc_mediator::relative::relatively_contained;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::{self, Check, Tracer};
use crate::{finish_op, work_units, Args, Outcome, Setup};

/// (universal variables m, decisions per sweep): 91 + 318 + 82 + 8 + 1 =
/// 500.
const SWEEP: [(usize, usize); 5] = [(4, 91), (5, 318), (6, 82), (7, 8), (8, 1)];
/// Sweeps prepared in set-up (a longer run starts over).
const SWEEPS: usize = 2;
/// Nominal sweeps per second on a 2-core VM.
const SWEEPS_PER_S: f64 = 0.05;
/// Set-ups per timed round; the rounds are spread over the run.
const SETUP_PER_ROUND: usize = 1;

fn decide(inst: &Thm33Instance) -> Result<bool, String> {
    relatively_contained(
        &inst.contained,
        &inst.contained_ans,
        &inst.container,
        &inst.container_ans,
        &inst.views,
    )
    .map_err(|e| e.to_string())
}

pub fn run(args: &Args) -> Outcome {
    let mut rng = StdRng::seed_from_u64(args.seed);
    // Each size's decisions evenly spaced over the sweep, so that a slow
    // stretch of the host lands on every size alike.
    let mut sweep: Vec<(f64, usize)> = SWEEP
        .iter()
        .flat_map(|&(m, n)| (0..n).map(move |j| ((j as f64 + 0.5) / n as f64, m)))
        .collect();
    sweep.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut formulas = Vec::with_capacity(SWEEPS * sweep.len());
    for _ in 0..SWEEPS {
        formulas.extend(sweep.iter().map(|&(_, m)| random_cnf3(2, m, 3, &mut rng)));
    }
    let mut reference: Vec<bool> = formulas
        .iter()
        .map(|f| f.is_forall_exists_satisfiable())
        .collect();
    if args.flip_reference {
        reference[0] = !reference[0];
    }
    let reduce = || formulas.iter().map(thm33_reduction).collect::<Vec<_>>();
    let mut setup = Setup::new(SETUP_PER_ROUND);
    let instances = setup.round(reduce);

    let mut out = Outcome::default();
    let mut tr = Tracer::default();
    let (mut traced_ms, mut trace_ms) = (0.0, 0.0);
    let t0 = Instant::now();
    let mut paused = Duration::ZERO;
    // Whole sweeps, so every run has the same mix of sizes.
    let sweep = sweep.len();
    let total = work_units(args, SWEEPS_PER_S, 3.0) * sweep;
    let mut next = 0;
    for _ in 0..total / sweep {
        for ix in next..next + sweep {
            paused += setup.between(out.attempted as usize, total, reduce);
            let (inst, expected) = (&instances[ix], reference[ix]);
            out.attempted += 1;
            let started = Instant::now();
            let got = if args.trace {
                let (got, ms) = tr.observe(|| decide(inst));
                traced_ms += ms;
                got
            } else {
                decide(inst)
            };
            let ms = finish_op(started, args.slowdown);
            let got = match got {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("decision failed: {e}");
                    out.failed += 1;
                    continue;
                }
            };
            out.latencies_ms.push(ms);
            out.wrong += u64::from(got != expected);
            if args.trace {
                // The same decision through its sub-calls.
                let t = Instant::now();
                let parts = trace::decide(
                    &mut tr,
                    &inst.contained,
                    &inst.contained_ans,
                    &inst.container,
                    &inst.container_ans,
                    &inst.views,
                    Check::WholeUnion,
                );
                out.decomposition_mismatches += u64::from(parts != Ok(got));
                trace_ms += t.elapsed().as_secs_f64() * 1e3;
            }
        }
        next = (next + sweep) % instances.len();
    }
    paused += setup.between(total, total, reduce);
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
