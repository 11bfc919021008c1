//! `serve_churn`: a `Service` with the default `ServeConfig` (2 workers)
//! over a `FileJournal` with the default journal config (fsync after every
//! append), driven by 2 synchronous clients in a closed loop.
//!
//! The catalog is 8 random chain views plus semi-interval dealer views
//! over `forsale`/`model`. The seeded request stream, which the two
//! clients take from in order: random chain or star CQ pairs (length 2–4),
//! 10% semi-interval requests, 30% repeats from a hot set (verdict cache
//! and coalescing), 5% budget-starved requests (hot requests with a budget
//! of their own, which the verdict cache does not answer) retried with
//! their checkpoint and a climbing budget, and a catalog `Replace` of one
//! chain view every 40 requests. The shares are exact in every run, and
//! the random pairs, which cycle through every (shape, length, length)
//! combination, are drawn with the catalog, not from the seed: the seed
//! orders the stream and draws the semi-interval requests. Drawing the
//! kinds and the pairs from the seed moved throughput by a fifth and p99
//! by a tenth between seeds.
//!
//! Set-up is a restart: the journal open replays the journal an earlier
//! life of the service left (`HISTORY` requests that each saved their
//! progress three times and were then retired), then the service starts,
//! compiling the catalog. The benchmark writes that journal, untimed,
//! through the journal's own API; its content is part of the workload.
//!
//! A budget-starved request starts at a budget of 4 work units and climbs
//! by a quarter per retry until it is handed a checkpoint, then 8x per
//! retry, as `durability_chaos` climbs gently before its first checkpoint
//! and fast after it: a tiny budget dies before the plan exists and
//! journals nothing, and a coarse climb jumps over the narrow window in
//! which a run stops between disjunct checks and journals a checkpoint.
//! Every `Unknown` counts as a resource trip for the service's degradation
//! ladder, so these retries also push the other client's requests onto
//! degraded tiers.
//!
//! The reference is the one-shot unlimited `relatively_contained` against
//! the views of the epoch the verdict reports, computed untimed after the
//! timed loop. It is the chaos suites' reference and runs the same
//! decision procedure the service does, so it is not independent: it
//! catches serving-layer faults (stale epochs, bad resumes, cache
//! mix-ups), not faults of the procedure itself.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qc_datalog::{parse_program, Program, Symbol, Term};
use qc_mediator::relative::{relatively_contained, Verdict};
use qc_mediator::schema::{LavSetting, SourceDescription};
use qc_mediator::workloads::{query_program, random_query, random_views, Shape};
use qc_obs::{Counter, Hist};
use qc_serve::{
    CatalogDelta, CatalogOp, Checkpoint, CheckpointStore, FileJournal, FsyncPolicy, JournalConfig,
    Request, ServeConfig, Service, Ticket,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::trace::{self, Check, Layers, Tracer};
use crate::{finish_op, work_units, Args, Outcome, Setup, SETUP_ROUNDS};

const NPREDS: usize = 4;
const CHAIN_VIEWS: usize = 8;
const HOT: usize = 8;
const HOT_PCT: u32 = 30;
const SEMI_PCT: u32 = 10;
const STARVED_PCT: u32 = 5;
const DELTA_EVERY: usize = 40;
/// First budget of a budget-starved request.
const STARVED_BUDGET: u64 = 4;
/// First explicit budget of a request that ran on the service's grant and
/// came back `Unknown`; it grows 8x per retry.
const RETRY_BUDGET: u64 = 1 << 16;
/// Attempts per request: enough for the gentle climb alone to take
/// `STARVED_BUDGET` past 10^9 work units.
const MAX_ATTEMPTS: usize = 96;
const CLIENTS: usize = 2;
/// Set-ups per timed round.
const SETUP_PER_ROUND: usize = 4;
/// Requests in the journal's earlier life, and the checkpoints each saved
/// before its definite verdict retired it: 1 600 records, about half a
/// megabyte, below the journal's compaction size.
const HISTORY: usize = 400;
const HISTORY_SAVES: usize = 3;
/// Nominal requests per second on a 2-core VM.
const REQUESTS_PER_S: f64 = 300.0;
const FIXED_SEED: u64 = 20_000;
const HISTORY_SEED: u64 = 20_001;

const DEALER_VIEWS: [&str; 4] = [
    "Sixties(Car, Year) :- forsale(Car, Year), Year >= 1960, Year < 1970.",
    "PreWar(Car, Year) :- forsale(Car, Year), Year < 1939.",
    "PostWar(Car, Year) :- forsale(Car, Year), Year >= 1946.",
    "Models(Car, M) :- model(Car, M).",
];
const YEARS: [i64; 6] = [1930, 1939, 1950, 1960, 1970, 1980];
const OPS: [&str; 4] = ["<", "<=", ">", ">="];

/// One containment question.
struct Spec {
    id: usize,
    q1: Program,
    a1: Symbol,
    q2: Program,
    a2: Symbol,
    semi: bool,
}

/// A random chain or star pair. `combo` (taken modulo 18) fixes the
/// shape and the two lengths (2–4); `None` draws them, as the hot set was
/// drawn: another draw of the hot set cut throughput tenfold.
fn chain_spec(id: usize, combo: Option<usize>, rng: &mut StdRng) -> Spec {
    let chain = combo.map_or_else(|| rng.gen_bool(0.5), |c| c % 2 == 0);
    let shape = if chain { Shape::Chain } else { Shape::Star };
    let len = |rng: &mut StdRng, step: usize| {
        combo.map_or_else(|| rng.gen_range(2..=4), |c| 2 + c / step % 3)
    };
    let a = random_query(shape, len(rng, 2), NPREDS, rng);
    let b = random_query(shape, len(rng, 6), NPREDS, rng);
    let q = Symbol::new("q");
    Spec {
        id,
        q1: query_program(&a),
        a1: q,
        q2: query_program(&b),
        a2: q,
        semi: false,
    }
}

fn semi_spec(id: usize, rng: &mut StdRng) -> Spec {
    let (head, extra) = if rng.gen_bool(0.5) {
        ("C, M", ", model(C, M)")
    } else {
        ("C", "")
    };
    let mut cmp = || {
        format!(
            "Y {} {}",
            OPS[rng.gen_range(0..OPS.len())],
            YEARS[rng.gen_range(0..YEARS.len())]
        )
    };
    let q1 = format!("qs({head}) :- forsale(C, Y){extra}, {}.", cmp());
    let q2 = format!("qt({head}) :- forsale(C, Y){extra}, {}.", cmp());
    Spec {
        id,
        q1: parse_program(&q1).expect("generated query parses"),
        a1: Symbol::new("qs"),
        q2: parse_program(&q2).expect("generated query parses"),
        a2: Symbol::new("qt"),
        semi: true,
    }
}

/// The other definition a delta swaps a chain view to: the middle join
/// variable exported if it was hidden, hidden if it was exported. Plan
/// sizes stay close, so every epoch costs about the same, while the
/// certain answers (and some verdicts) change. A one-atom view has no
/// middle variable (its `Z1` is the endpoint) and is replaced by itself.
fn variant(view: &SourceDescription) -> SourceDescription {
    let mut v = view.clone();
    if v.view.subgoals.len() < 2 {
        return v;
    }
    let z1 = Term::var("Z1");
    let args = &mut v.view.head.args;
    if let Some(ix) = args.iter().position(|t| *t == z1) {
        args.remove(ix);
    } else {
        args.push(z1);
    }
    v
}

/// The catalog as the clients changed it: views per epoch, in order.
struct Catalog {
    /// The other definition of each chain view: delta `k` swaps view
    /// `k % 8` between its original and this.
    alternatives: Vec<SourceDescription>,
    epochs: Vec<Arc<LavSetting>>,
    apply_ms: f64,
    views_recompiled: usize,
    errors: u64,
}

/// The kinds of request in the stream.
#[derive(Clone, Copy)]
enum Kind {
    Hot,
    Starved,
    Semi,
    Random,
}

/// One request of the stream: the question and, for a budget-starved
/// request, its first budget.
struct Job {
    spec: Arc<Spec>,
    budget: Option<u64>,
}

struct Ctx {
    svc: Service,
    /// Index of the next job to take.
    next: AtomicUsize,
    stream: Vec<Job>,
    catalog: Mutex<Catalog>,
    trace: bool,
    slowdown: f64,
}

impl Ctx {
    fn views_at(&self, epoch: u64) -> Arc<LavSetting> {
        let cat = self.catalog.lock().expect("catalog lock");
        Arc::clone(&cat.epochs[epoch as usize])
    }

    /// Swaps the next chain view (round robin) to its other definition.
    fn apply_next_delta(&self) {
        let mut cat = self.catalog.lock().expect("catalog lock");
        let deltas = cat.epochs.len() - 1;
        let ix = deltas % CHAIN_VIEWS;
        let view = if (deltas / CHAIN_VIEWS).is_multiple_of(2) {
            cat.alternatives[ix].clone()
        } else {
            cat.epochs[0].sources[ix].clone()
        };
        let t = Instant::now();
        let applied = self
            .svc
            .apply_delta(&CatalogDelta::one(CatalogOp::Replace(view.clone())));
        cat.apply_ms += t.elapsed().as_secs_f64() * 1e3;
        match applied {
            Ok(report) => {
                cat.views_recompiled += report.views_recompiled;
                let mut next = (**cat.epochs.last().expect("epoch 0")).clone();
                next.sources[ix] = view;
                cat.epochs.push(Arc::new(next));
            }
            Err(e) => {
                eprintln!("catalog delta failed: {e}");
                cat.errors += 1;
            }
        }
    }
}

/// A definite answer, for checking against the reference.
struct Record {
    spec: Arc<Spec>,
    epoch: u64,
    verdict: bool,
}

#[derive(Default)]
struct ClientLog {
    records: Vec<Record>,
    latencies_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    hot: u64,
    semi: u64,
    resumed: u64,
    /// Budget-starved requests and their attempts.
    starved: u64,
    starved_attempts: u64,
    queue_wait_ns: u64,
    mismatches: u64,
    /// Execute time of the computed (not cached) answers that were
    /// decomposed, for `unattributed_ms`.
    decomposed_exec_ms: f64,
    /// Client time spent on tracing (flight lookups and decompositions).
    trace_ms: f64,
    layers: Layers,
}

/// Sends requests from the stream until the next one to take is `end`.
fn client(ctx: &Ctx, end: usize) -> ClientLog {
    let mut log = ClientLog::default();
    let mut tr = Tracer::default();
    loop {
        let taken = ctx
            .next
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < end).then_some(n + 1)
            });
        let Ok(n) = taken else {
            break;
        };
        let job = &ctx.stream[n];
        if n > 0 && n.is_multiple_of(DELTA_EVERY) {
            ctx.apply_next_delta();
        }
        let spec = &job.spec;
        log.hot += u64::from(spec.id < HOT);
        log.semi += u64::from(spec.semi);
        let mut req = Request::new(spec.q1.clone(), spec.a1, spec.q2.clone(), spec.a2);
        req.budget = job.budget;

        log.attempted += 1;
        let started = Instant::now();
        let mut answer = None;
        let (mut resumed, mut checkpointed) = (false, false);
        let starved = job.budget.is_some();
        for _ in 0..MAX_ATTEMPTS {
            log.starved_attempts += u64::from(starved);
            let resp = match ctx.svc.submit_wait(req.clone()).and_then(Ticket::wait) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("request failed: {e:?}");
                    break;
                }
            };
            log.queue_wait_ns += resp.queue_wait_ns;
            resumed |= resp.resumed;
            match resp.verdict {
                Verdict::Contained => answer = Some((true, resp)),
                Verdict::NotContained => answer = Some((false, resp)),
                Verdict::Unknown(_) => {
                    if resp.checkpoint.is_some() {
                        checkpointed = true;
                        req.checkpoint = resp.checkpoint;
                    }
                    // A starved request climbs gently until it holds a
                    // checkpoint, then as fast as any other retry.
                    req.budget = Some(match req.budget {
                        None => RETRY_BUDGET,
                        Some(b) if starved && !checkpointed => {
                            b.saturating_add(b / 4).saturating_add(1)
                        }
                        Some(b) => b.saturating_mul(8),
                    });
                    continue;
                }
            }
            break;
        }
        let ms = finish_op(started, ctx.slowdown);
        log.resumed += u64::from(resumed);
        log.starved += u64::from(starved);
        let Some((verdict, resp)) = answer else {
            log.failed += 1;
            continue;
        };
        log.latencies_ms.push(ms);
        log.records.push(Record {
            spec: Arc::clone(spec),
            epoch: resp.epoch,
            verdict,
        });
        if ctx.trace {
            let t = Instant::now();
            let computed = ctx
                .svc
                .core()
                .flight()
                .find(resp.trace)
                .filter(|tl| tl.outcome == "contained" || tl.outcome == "not_contained");
            if let Some(tl) = computed {
                let views = ctx.views_at(resp.epoch);
                let parts = trace::decide(
                    &mut tr,
                    &spec.q1,
                    &spec.a1,
                    &spec.q2,
                    &spec.a2,
                    &views,
                    Check::PerDisjunct,
                );
                log.mismatches += u64::from(parts != Ok(verdict));
                log.decomposed_exec_ms += tl.execute_ns as f64 / 1e6;
            }
            log.trace_ms += t.elapsed().as_secs_f64() * 1e3;
        }
    }
    log.layers = tr.layers;
    log
}

fn work_dir() -> PathBuf {
    PathBuf::from(".bench_build").join("perfbench-work")
}

/// Writes the journal of the service's earlier life to `path`: `HISTORY`
/// requests over plans of 16–256 disjuncts, each saving a growing proven
/// prefix `HISTORY_SAVES` times and then retired by its definite verdict.
/// Written without fsync: only its content matters.
fn write_history(path: &Path) {
    let cfg = JournalConfig {
        fsync: FsyncPolicy::Never,
        ..JournalConfig::default()
    };
    let journal = FileJournal::open_with(path, cfg).expect("open history journal");
    let mut rng = StdRng::seed_from_u64(HISTORY_SEED);
    for _ in 0..HISTORY {
        let fingerprint = rng.gen::<u64>();
        let total = rng.gen_range(16..=256usize);
        for save in 1..=HISTORY_SAVES {
            let proven: Vec<usize> = (0..total * save / (HISTORY_SAVES + 1)).collect();
            journal.save(&Checkpoint {
                fingerprint,
                disjuncts_total: total,
                memo_resident: proven.len(),
                proven,
                epoch: Some(0),
                preds: Some(vec!["p0".into(), "p1".into()]),
            });
        }
        journal.retire(fingerprint);
    }
    journal.sync();
}

pub fn run(args: &Args) -> Outcome {
    // The catalog, the hot set and the random pairs are part of the
    // workload's definition, not of its seed: one draw of 8 views or 8 hot
    // requests sets the cost of a large share of the traffic, and the
    // slowest 1% of the requests are a few dozen random pairs, so a fresh
    // draw of the pairs moved p99 by a tenth from seed to seed. Budget-
    // starved requests are hot requests with a budget: starved random
    // requests set the run's peak memory anywhere between 159 and 196 MB,
    // depending on which ones the seed starved. The seed sets the order of
    // the stream and draws the semi-interval requests.
    let mut fixed = StdRng::seed_from_u64(FIXED_SEED);
    let mut views = random_views(CHAIN_VIEWS, NPREDS, &mut fixed);
    let alternatives = views.sources.iter().map(variant).collect();
    for v in DEALER_VIEWS {
        views
            .sources
            .push(SourceDescription::parse(v).expect("dealer view parses"));
    }
    let mut hot: Vec<Arc<Spec>> = (0..HOT - 1)
        .map(|id| Arc::new(chain_spec(id, None, &mut fixed)))
        .collect();
    hot.push(Arc::new(semi_spec(HOT - 1, &mut fixed)));
    let mut rng = StdRng::seed_from_u64(args.seed);
    let requests = work_units(args, REQUESTS_PER_S, 2.0);
    let quota = |pct: u32| requests * pct as usize / 100;
    let mut kinds: Vec<Kind> = [
        (Kind::Hot, quota(HOT_PCT)),
        (Kind::Starved, quota(STARVED_PCT)),
        (Kind::Semi, quota(SEMI_PCT)),
    ]
    .into_iter()
    .flat_map(|(kind, n)| std::iter::repeat_n(kind, n))
    .collect();
    let mut pairs: Vec<Spec> = (kinds.len()..requests)
        .map(|k| chain_spec(0, Some(k), &mut fixed))
        .collect();
    pairs.shuffle(&mut rng);
    kinds.resize(requests, Kind::Random);
    kinds.shuffle(&mut rng);
    let mut seen = [0usize; 4];
    let stream: Vec<Job> = kinds
        .into_iter()
        .enumerate()
        .map(|(n, kind)| {
            let k = seen[kind as usize];
            seen[kind as usize] += 1;
            let (spec, budget) = match kind {
                Kind::Hot => (Arc::clone(&hot[k % HOT]), None),
                Kind::Starved => (Arc::clone(&hot[k % HOT]), Some(STARVED_BUDGET)),
                Kind::Semi => (Arc::new(semi_spec(HOT + n, &mut rng)), None),
                Kind::Random => {
                    let mut spec = pairs.pop().expect("a pair per random request");
                    spec.id = HOT + n;
                    (Arc::new(spec), None)
                }
            };
            Job { spec, budget }
        })
        .collect();

    // Set-up: journal open (replaying the earlier life) plus service
    // start, which compiles the catalog. The timed set-ups restart on the
    // history journal, one service at a time; the service the clients use
    // makes the same restart, untimed, on its own copy of that journal.
    // Set-up rounds run between chunks of the traffic, while the service
    // is idle, so that a slow stretch of the host weighs on set-up time
    // as it does on the requests.
    let dir = work_dir();
    std::fs::create_dir_all(&dir).expect("create work directory");
    let pid = std::process::id();
    let history = dir.join(format!("history-{pid}.log"));
    let journal_path = dir.join(format!("journal-{pid}.log"));
    write_history(&history);
    std::fs::copy(&history, &journal_path).expect("copy history journal");
    let restart = |path: &Path| {
        let journal = FileJournal::open(path).expect("open journal");
        Service::start_with_store(views.clone(), ServeConfig::default(), Arc::new(journal))
    };
    let mut setup = Setup::new(SETUP_PER_ROUND);
    drop(setup.round(|| restart(&history)));
    let svc = restart(&journal_path);
    let replayed = svc.core().store().replay_report();

    let ctx = Ctx {
        svc,
        next: AtomicUsize::new(0),
        stream,
        catalog: Mutex::new(Catalog {
            alternatives,
            epochs: vec![Arc::new(views.clone())],
            apply_ms: 0.0,
            views_recompiled: 0,
            errors: 0,
        }),
        trace: args.trace,
        slowdown: args.slowdown,
    };
    let t0 = Instant::now();
    let mut paused = Duration::ZERO;
    let mut logs: Vec<ClientLog> = Vec::new();
    for chunk in 1..=SETUP_ROUNDS {
        let end = requests * chunk / SETUP_ROUNDS;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| s.spawn(|| client(&ctx, end)))
                .collect();
            logs.extend(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread")),
            );
        });
        paused += setup.between(end, requests, || restart(&history));
    }
    let elapsed_s = (t0.elapsed() - paused).as_secs_f64();
    let peak_rss_mb = crate::peak_rss_mb();

    let mut out = Outcome {
        setup_s: setup.seconds(),
        elapsed_s,
        peak_rss_mb,
        ..Outcome::default()
    };
    let mut tr = Tracer::default();
    let (mut decomposed_exec_ms, mut trace_ms) = (0.0, 0.0);
    let (mut hot_ops, mut semi_ops, mut resumed_ops, mut queue_wait_ns) = (0, 0, 0, 0);
    let (mut starved, mut starved_attempts) = (0, 0);
    let mut records = Vec::new();
    for log in logs {
        out.latencies_ms.extend(log.latencies_ms);
        out.attempted += log.attempted;
        out.failed += log.failed;
        out.decomposition_mismatches += log.mismatches;
        hot_ops += log.hot;
        semi_ops += log.semi;
        resumed_ops += log.resumed;
        starved += log.starved;
        starved_attempts += log.starved_attempts;
        queue_wait_ns += log.queue_wait_ns;
        decomposed_exec_ms += log.decomposed_exec_ms;
        trace_ms += log.trace_ms;
        tr.layers.merge(log.layers);
        records.extend(log.records);
    }

    // References, untimed: one-shot unlimited decisions per (request,
    // epoch) actually answered, on as many threads as there were clients.
    let cat = ctx.catalog.lock().expect("catalog lock");
    out.attempted += cat.errors;
    out.failed += cat.errors;
    let checked = Instant::now();
    let mut keys: Vec<(usize, u64, &Spec)> = records
        .iter()
        .map(|r| (r.spec.id, r.epoch, &*r.spec))
        .collect();
    keys.sort_by_key(|k| (k.0, k.1));
    keys.dedup_by_key(|k| (k.0, k.1));
    let reference: HashMap<(usize, u64), bool> = std::thread::scope(|s| {
        let handles: Vec<_> = keys
            .chunks(keys.len().div_ceil(CLIENTS).max(1))
            .map(|chunk| {
                let epochs = &cat.epochs;
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|&(id, epoch, spec)| {
                            let views = &epochs[epoch as usize];
                            let v =
                                relatively_contained(&spec.q1, &spec.a1, &spec.q2, &spec.a2, views)
                                    .expect("reference decision");
                            ((id, epoch), v)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread"))
            .collect()
    });
    for (i, r) in records.iter().enumerate() {
        let expected = reference[&(r.spec.id, r.epoch)] ^ (args.flip_reference && i == 0);
        out.wrong += u64::from(r.verdict != expected);
    }
    println!(
        "reference: {} decisions for {} answers in {:.1} s (untimed)",
        reference.len(),
        records.len(),
        checked.elapsed().as_secs_f64()
    );

    let core = ctx.svc.core();
    let counter = |c: Counter| core.counters().get(c) as f64;
    let hist_ms = |h: Hist| core.histograms().get(h).sum() as f64 / 1e6;
    let admitted = counter(Counter::ServeAdmitted).max(1.0);
    let ops = out.attempted.max(1) as f64;
    let deltas = (cat.epochs.len() - 1) as f64;
    let share = |n: u64| format!("{:.4} ({n} of {})", n as f64 / ops, out.attempted);
    out.shares = vec![
        ("repeat_share", share(hot_ops)),
        (
            "verdict_cache_hit_share",
            format!(
                "{:.4} ({} of {} admitted)",
                counter(Counter::ServeVerdictCacheHits) / admitted,
                counter(Counter::ServeVerdictCacheHits),
                admitted
            ),
        ),
        ("checkpoint_resumed_share", share(resumed_ops)),
        (
            "budget_starved",
            format!("{starved} requests, {starved_attempts} attempts"),
        ),
        ("semi_interval_share", share(semi_ops)),
        ("deltas_applied", format!("{deltas}")),
        (
            "restart_replay",
            format!(
                "{} records, {} live",
                replayed.records_replayed, replayed.live
            ),
        ),
        (
            "budget_pool_left",
            format!("{} units", core.stats().pool_remaining),
        ),
        (
            "degraded_runs",
            format!(
                "{} ({} steps down, {} up)",
                counter(Counter::ServeDegradedRuns),
                counter(Counter::ServeTierDowngrades),
                counter(Counter::ServeTierUpgrades)
            ),
        ),
    ];
    if args.trace {
        let l = &mut tr.layers;
        l.add("serve.queue_wait_ms", queue_wait_ns as f64 / 1e6);
        l.add(
            "serve.execute_ms",
            hist_ms(Hist::ServeExecuteFullNs)
                + hist_ms(Hist::ServeExecuteBoundedNs)
                + hist_ms(Hist::ServeExecuteMiniconNs),
        );
        l.add(
            "serve.verdict_cache_hit_share",
            counter(Counter::ServeVerdictCacheHits) / admitted,
        );
        l.add(
            "serve.coalesced_share",
            counter(Counter::ServeCoalescedHits) / admitted,
        );
        l.add("serve.resumed", counter(Counter::ServeResumed));
        l.add(
            "serve.checkpoint_rejected",
            counter(Counter::ServeCheckpointRejected),
        );
        l.add("serve.degraded_runs", counter(Counter::ServeDegradedRuns));
        l.add("serve.shed", counter(Counter::ServeShed));
        l.add("journal.appends", counter(Counter::JournalAppends));
        l.add("journal.append_ms", hist_ms(Hist::JournalAppendNs));
        l.add("catalog.apply_ms", cat.apply_ms);
        l.add("catalog.views_recompiled", cat.views_recompiled as f64);
        l.add("catalog.deltas_applied", deltas);
        l.add("share.repeat", hot_ops as f64 / ops);
        l.add("share.semi_interval", semi_ops as f64 / ops);
        l.add("share.checkpoint_resumed", resumed_ops as f64 / ops);
        let attributed = l.attributed_ms();
        l.add("unattributed_ms", decomposed_exec_ms - attributed);
        l.add("trace_overhead_ms", trace_ms);
        out.layers = tr.layers;
    }
    drop(cat);
    ctx.svc.shutdown();
    let _ = std::fs::remove_file(journal_path);
    let _ = std::fs::remove_file(history);
    out
}
