//! The in-process workload, `cold-tune`: ROBOTune sessions at the
//! paper's protocol (§5.1: default options, 100 evaluations), each on a
//! fresh memo store and beside a RandomSearch session with the same
//! budget and seed.
//!
//! A *plain* session is one `RoboTune::tune_workload` call. A *stepped*
//! session drives the same pipeline through its public steps
//! (`ParameterSelector::{collect_samples, select_from_data}`,
//! `MemoizedSampler::initial_design`,
//! `RoboTuneEngine::{refit, suggest, evaluate_point}`) and times each
//! one from outside. The traced run runs every session both ways and
//! requires them to agree bit for bit.
//!
//! Every timing is reported at reference speed (see `speed.rs`): each
//! session's times are divided by the host slowness the reference
//! kernel measured inside that session, raised to [`SESSION_EXPONENT`]
//! (its model-chosen asks: to [`ASK_EXPONENT`]).

use std::sync::Arc;
use std::time::Instant;

use robotune::{
    resolve_selection, InMemoryMemoStore, ParameterSelector, RoboTune, RoboTuneEngine,
    RoboTuneOptions, SharedMemoStore,
};
use robotune_space::spark::spark_space;
use robotune_space::{ConfigSpace, Configuration};
use robotune_sparksim::{Dataset, SparkJob, Workload, ALL_WORKLOADS};
use robotune_stats::rng_from_seed;
use robotune_tuners::{Evaluation, Objective, RandomSearch, Tuner, TuningSession};

use crate::probes::{ms, Layers, StoreCounts, TimedObjective, TimedStore};
use crate::report::{Metric, Outcome};
use crate::speed::{Speed, ASK_EXPONENT, SESSION_EXPONENT};
use crate::stats::{
    derive_seed, first_model_chosen, geomean, mean, peak_rss_mb, percentile, Pct,
};

/// The paper's evaluation budget (§5.1).
const BUDGET: usize = 100;
/// Timed rounds (5 sessions each) at the least. 25 sessions give 2000
/// model-chosen asks (20 samples beyond the p99 time-to-next-config)
/// and average the run over 25 selection draws.
const MIN_ROUNDS: usize = 5;
/// Set-ups timed together before each timed session. One set-up
/// (building the space, opening a store) takes under 10 microseconds;
/// a batch of 20 is long enough to time, short enough to sit beside the
/// reference kernel that follows it in one state of the host.
const SETUP_BATCH: usize = 20;
/// Reference-kernel samples after each set-up batch; their median gives
/// the batch's slowness.
const SETUP_SPEED_SAMPLES: usize = 5;
/// Budget of the untimed warm-up session that opens a run.
const WARMUP_BUDGET: usize = 25;
/// Start-up probes per timed session (see [`ttfc_probes`]).
const TTFC_PROBES: usize = 10;

/// One tuning cell: which job, which seeds.
#[derive(Debug, Clone, Copy)]
struct Cell {
    workload: Workload,
    dataset: Dataset,
    tune_seed: u64,
    job_seed: u64,
    budget: usize,
}

impl Cell {
    fn new(seed: u64, tag: u64, workload: Workload, dataset: Dataset, budget: usize) -> Self {
        Cell {
            workload,
            dataset,
            tune_seed: derive_seed(seed, 2 * tag),
            job_seed: derive_seed(seed, 2 * tag + 1),
            budget,
        }
    }

    fn job(&self, space: &Arc<ConfigSpace>) -> SparkJob {
        SparkJob::new(
            space.as_ref().clone(),
            self.workload,
            self.dataset,
            self.job_seed,
        )
    }

    /// The memo-store key: selections and memoized configurations are
    /// shared across the datasets of one workload (§5.4).
    fn key(&self) -> &'static str {
        self.workload.short_name()
    }
}

/// How a session is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// One `tune_workload` call.
    Plain,
    /// The pipeline's public steps, each timed.
    Stepped,
}

/// What one ROBOTune session produced and how long it took.
struct SessionRun {
    /// Wall seconds of the session, less the speed samples taken in it.
    wall_s: f64,
    /// Reference-kernel samples taken inside the session.
    speed: Speed,
    /// Time-to-next-config of each model-chosen ask, milliseconds.
    ttnc_ms: Vec<f64>,
    /// The budgeted evaluations.
    session: TuningSession,
    /// Selected parameter indices.
    selected: Vec<usize>,
    /// Whether the selection came from the cache.
    cache_hit: bool,
    /// `evaluate` calls the objective received.
    calls: usize,
    /// Calls a fault-free session must make: selection samples (on a
    /// miss) plus the budget.
    expected_calls: usize,
}

impl SessionRun {
    fn new(
        opts: &RoboTuneOptions,
        start: Instant,
        end: Instant,
        obj: &TimedObjective<SparkJob>,
        session: TuningSession,
        selected: Vec<usize>,
        cache_hit: bool,
    ) -> Self {
        let selection = opts.selector.generic_samples;
        let first = first_model_chosen(cache_hit, selection, opts.sampler.tuning_samples);
        let calls = &obj.calls;
        let ttnc_ms = (first.max(1)..calls.len())
            .map(|i| ms(calls[i - 1].resumed, calls[i].start))
            .collect();
        let budget = session.len();
        SessionRun {
            wall_s: end.duration_since(start).as_secs_f64() - obj.sampling_ms() / 1e3,
            speed: obj.speed.clone(),
            ttnc_ms,
            session,
            selected,
            cache_hit,
            calls: calls.len(),
            expected_calls: if cache_hit {
                budget
            } else {
                selection + budget
            },
        }
    }

    /// What divides the session's times to put them at reference speed.
    fn factor(&self) -> f64 {
        self.speed
            .slowness()
            .map_or(f64::NAN, |s| s.powf(SESSION_EXPONENT))
    }

    /// Session seconds at reference speed.
    fn session_s(&self) -> f64 {
        self.wall_s / self.factor()
    }

    /// Times-to-next-config at reference speed.
    fn ttnc_ms(&self) -> impl Iterator<Item = f64> + '_ {
        let factor = self
            .speed
            .slowness()
            .map_or(f64::NAN, |s| s.powf(ASK_EXPONENT));
        self.ttnc_ms.iter().map(move |t| t / factor)
    }
}

/// Whether two sessions evaluated the same configurations and measured
/// the same times, bit for bit.
fn same_trajectory(a: &SessionRun, b: &SessionRun) -> bool {
    a.selected == b.selected
        && a.cache_hit == b.cache_hit
        && a.session.records.len() == b.session.records.len()
        && a.session
            .records
            .iter()
            .zip(&b.session.records)
            .all(|(x, y)| {
                x.config == y.config
                    && x.point.len() == y.point.len()
                    && x.point
                        .iter()
                        .zip(&y.point)
                        .all(|(p, q)| p.to_bits() == q.to_bits())
                    && x.eval.time_s.to_bits() == y.eval.time_s.to_bits()
                    && x.eval.completed == y.eval.completed
                    && x.cap_s.to_bits() == y.cap_s.to_bits()
            })
}

fn plain_session(
    opts: &RoboTuneOptions,
    store: &SharedMemoStore,
    space: &Arc<ConfigSpace>,
    cell: &Cell,
) -> SessionRun {
    let mut tuner = RoboTune::with_store(opts.clone(), Arc::clone(store));
    let mut obj = TimedObjective::new(cell.job(space));
    let mut rng = rng_from_seed(cell.tune_seed);
    let start = Instant::now();
    let out = tuner.tune_workload(space, cell.key(), &mut obj, cell.budget, &mut rng);
    let end = Instant::now();
    let cache_hit = out.selection.is_none();
    SessionRun::new(
        opts,
        start,
        end,
        &obj,
        out.session,
        out.selected,
        cache_hit,
    )
}

/// `RoboTune::tune_workload`, step by step through public calls, with
/// each step timed and added to `total` at reference speed. Consumes
/// the RNG in the same order, so it reproduces the plain session
/// exactly.
fn stepped_session(
    opts: &RoboTuneOptions,
    store: &SharedMemoStore,
    space: &Arc<ConfigSpace>,
    cell: &Cell,
    total: &mut Layers,
) -> SessionRun {
    let mut layers = Layers::default();
    let mut obj = TimedObjective::new(cell.job(space));
    let mut rng = rng_from_seed(cell.tune_seed);
    let key = cell.key();
    let start = Instant::now();

    let cached = store
        .selection(key)
        .and_then(|names| resolve_selection(&names, space));
    let cache_hit = cached.is_some();
    let selected = match cached {
        Some(selected) => selected,
        None => {
            let selector = ParameterSelector::new(opts.selector.clone());
            let t = Instant::now();
            let (x, y, _cost) = selector.collect_samples(space, &mut obj, &mut rng);
            layers.select_sample_ms += ms(t, Instant::now()) - obj.inside_ms_since(0);
            let t = Instant::now();
            let result = selector.select_from_data(space, &x, &y, &mut rng);
            layers.select_rf_mda_ms += ms(t, Instant::now());
            layers.select_runs += 1;
            let mut selected = result.selected;
            if selected.is_empty() {
                // The pipeline's fallback for a surface where no group
                // clears the threshold: the top three groups.
                selected = result
                    .importances
                    .iter()
                    .take(3)
                    .flat_map(|g| g.members.iter().copied())
                    .collect();
                selected.sort_unstable();
                selected.dedup();
            }
            let names = selected
                .iter()
                .map(|&i| space.params()[i].name.clone())
                .collect();
            store.put_selection(key, names);
            selected
        }
    };

    let sub = space.subspace(&selected, space.default_configuration());
    let mut recent = store.best_recent(key, opts.sampler.memo_configs);
    recent.retain(|(c, _)| c.len() == space.len());
    let t = Instant::now();
    let design = opts.sampler.initial_design(&sub, &recent, &mut rng);
    layers.initial_design_ms += ms(t, Instant::now());

    let mut engine = RoboTuneEngine::new(sub, opts.engine.clone());
    let mut observe = |engine: &mut RoboTuneEngine, point, obj: &mut TimedObjective<SparkJob>| {
        let before = obj.calls.len();
        let t = Instant::now();
        engine.evaluate_point(point, obj);
        layers.observe_ms += ms(t, Instant::now()) - obj.inside_ms_since(before);
    };
    for point in design.points.into_iter().take(cell.budget) {
        observe(&mut engine, point, &mut obj);
    }
    let mut refit_ms = Vec::new();
    let mut suggest_ms = Vec::new();
    while engine.session().len() < cell.budget {
        let t = Instant::now();
        engine.refit(&mut rng);
        let t2 = Instant::now();
        let point = engine.suggest(&mut rng);
        let t3 = Instant::now();
        refit_ms.push(ms(t, t2));
        suggest_ms.push(ms(t2, t3));
        observe(&mut engine, point, &mut obj);
    }
    layers.refit_ms.extend(refit_ms);
    layers.suggest_ms.extend(suggest_ms);

    let session = engine.session().clone();
    let mut completed: Vec<_> = session
        .records
        .iter()
        .filter(|r| r.eval.completed)
        .collect();
    completed.sort_by(|a, b| a.eval.time_s.total_cmp(&b.eval.time_s));
    for r in completed.into_iter().take(opts.sampler.memo_configs) {
        store.record_config(key, r.config.clone(), r.eval.time_s);
    }
    let end = Instant::now();

    layers.sim_evals += obj.calls.len() as u64;
    layers.sim_busy_ms += obj.busy_ms_since(0);
    let run = SessionRun::new(opts, start, end, &obj, session, selected, cache_hit);
    total.add_scaled(&layers, 1.0 / run.factor());
    run
}

/// An objective that notes when it is first called; every run
/// completes at once.
#[derive(Default)]
struct FirstCall {
    at: Option<Instant>,
}

impl Objective for FirstCall {
    fn evaluate(&mut self, _config: &Configuration, _cap_s: f64) -> Evaluation {
        self.at.get_or_insert_with(Instant::now);
        Evaluation::completed(1.0)
    }
}

/// Time-to-first-config on `cell`'s store, sampled [`TTFC_PROBES`]
/// times with seeds of their own: the start-up path of a session — the
/// selection lookup, then the selection design on a miss, or the memo
/// read, initial design and first `evaluate_point` on a hit — through
/// the same public calls, up to the first `evaluate` call. Each probe is
/// the start-up of a distinct session; a run has too few whole sessions
/// to support a p90 of one sample each. A probe reads the store and
/// writes nothing, so it runs just before the timed session, against
/// the state that session will see.
fn ttfc_probes(
    opts: &RoboTuneOptions,
    store: &SharedMemoStore,
    space: &Arc<ConfigSpace>,
    cell: &Cell,
) -> Vec<f64> {
    (0..TTFC_PROBES as u64)
        .filter_map(|probe| {
            let mut rng = rng_from_seed(derive_seed(cell.tune_seed, probe));
            let mut first = FirstCall::default();
            let start = Instant::now();
            match store
                .selection(cell.key())
                .and_then(|names| resolve_selection(&names, space))
            {
                None => {
                    let selector = ParameterSelector::new(opts.selector.clone());
                    selector.collect_samples(space, &mut first, &mut rng);
                }
                Some(selected) => {
                    let sub = space.subspace(&selected, space.default_configuration());
                    let mut recent = store.best_recent(cell.key(), opts.sampler.memo_configs);
                    recent.retain(|(c, _)| c.len() == space.len());
                    let design = opts.sampler.initial_design(&sub, &recent, &mut rng);
                    let mut engine = RoboTuneEngine::new(sub, opts.engine.clone());
                    if let Some(point) = design.points.into_iter().next() {
                        engine.evaluate_point(point, &mut first);
                    }
                }
            }
            first.at.map(|at| ms(start, at))
        })
        .collect()
}

/// Everything one pass over the workload produced.
#[derive(Default)]
struct Pass {
    /// Seconds of one set-up at reference speed, per batch.
    setup_s: Vec<f64>,
    /// The timed ROBOTune sessions, in order: the material of the
    /// metrics and of the bit-identity gate.
    sessions: Vec<SessionRun>,
    /// RandomSearch best per session, same order.
    rs_best: Vec<Option<f64>>,
    /// Start-up probes at reference speed (plain passes only).
    ttfc_ms: Vec<f64>,
    sessions_attempted: u64,
    /// Sessions that broke a check below: failed operations.
    sessions_failed: u64,
    /// Sessions that spent their budget without one completed run: a
    /// tuning outcome, not a failed operation.
    sessions_empty: u64,
    /// Sessions that did not spend exactly their budget, retried an
    /// evaluation, or measured a non-finite time.
    violations: Vec<String>,
    layers: Layers,
    store: StoreCounts,
    store_open_ms: Vec<f64>,
}

impl Pass {
    /// Counts a finished session. One that did not spend exactly its
    /// budget, retried an evaluation (`calls_ok` false) or measured a
    /// non-finite time failed, and is a correctness violation; one that
    /// spent its budget without completing a run is counted as empty.
    fn account(&mut self, session: &TuningSession, budget: usize, calls_ok: bool) {
        self.sessions_attempted += 1;
        let spent = session.len() == budget
            && calls_ok
            && session
                .records
                .iter()
                .all(|r| r.eval.time_s.is_finite() && r.eval.time_s >= 0.0);
        if !spent {
            self.sessions_failed += 1;
            self.violations.push(format!(
                "{} session spent {} of {budget} evaluations{}",
                session.tuner,
                session.len(),
                if calls_ok { "" } else { " with retries" }
            ));
        } else if session.best_time().is_none() {
            self.sessions_empty += 1;
        }
    }

    /// Runs one timed ROBOTune session in `mode`, and its RandomSearch
    /// comparator.
    fn session(
        &mut self,
        mode: Mode,
        opts: &RoboTuneOptions,
        store: &SharedMemoStore,
        space: &Arc<ConfigSpace>,
        cell: &Cell,
    ) {
        let probes = match mode {
            Mode::Plain => ttfc_probes(opts, store, space, cell),
            Mode::Stepped => Vec::new(),
        };
        let run = match mode {
            Mode::Plain => plain_session(opts, store, space, cell),
            Mode::Stepped => stepped_session(opts, store, space, cell, &mut self.layers),
        };
        // The probes ran just before the session, at the speed it saw.
        let factor = run.factor();
        self.ttfc_ms.extend(probes.into_iter().map(|t| t / factor));
        self.account(&run.session, cell.budget, run.calls == run.expected_calls);
        let (rs, rs_ms) = random_search(space, cell);
        self.layers.rs_session_ms += rs_ms / factor;
        self.account(&rs, cell.budget, true);
        self.rs_best.push(rs.best_time());
        self.sessions.push(run);
    }

    /// Host slowness over the pass, from the samples its sessions took
    /// in order; NaN without sessions.
    fn slowness(&self) -> f64 {
        let mut all = Speed::default();
        for r in &self.sessions {
            all.extend(&r.speed);
        }
        all.slowness().unwrap_or(f64::NAN)
    }

    /// What divides times taken outside the sessions (set-up, store).
    fn factor(&self) -> f64 {
        self.slowness().powf(SESSION_EXPONENT)
    }

    /// Time-to-next-config of every model-chosen ask, at reference speed.
    fn ttnc_ms(&self) -> Vec<f64> {
        self.sessions.iter().flat_map(SessionRun::ttnc_ms).collect()
    }

    /// Median session seconds at reference speed.
    fn session_p50(&self) -> Option<f64> {
        let s: Vec<f64> = self.sessions.iter().map(SessionRun::session_s).collect();
        percentile(&s, 50.0).map(|p| p.value)
    }
}

/// The comparator: RandomSearch with the cell's budget and seed on an
/// identically seeded job. Returns the session and its wall time (ms).
fn random_search(space: &Arc<ConfigSpace>, cell: &Cell) -> (TuningSession, f64) {
    let mut job = cell.job(space);
    let mut rng = rng_from_seed(cell.tune_seed);
    let t = Instant::now();
    let session = RandomSearch::default().tune(space.as_ref(), &mut job, cell.budget, &mut rng);
    (session, ms(t, Instant::now()))
}

/// A fresh store: the default in-memory one, wrapped in the timing
/// decorator when stepping.
fn fresh_store(mode: Mode, pass: &mut Pass) -> (SharedMemoStore, Option<Arc<TimedStore>>) {
    let t = Instant::now();
    let plain = InMemoryMemoStore::new().into_shared();
    let out = match mode {
        Mode::Plain => (plain, None),
        Mode::Stepped => {
            let timed = Arc::new(TimedStore::new(plain));
            (Arc::clone(&timed) as SharedMemoStore, Some(timed))
        }
    };
    pass.store_open_ms.push(ms(t, Instant::now()));
    out
}

fn pass(mode: Mode, seed: u64, seconds: f64) -> Pass {
    let mut pass = Pass::default();
    let opts = RoboTuneOptions::default();
    // One short session on a scratch store, before anything is timed,
    // so allocator growth and first-touch page faults land here, not in
    // the set-up or the first timed session. It is not counted.
    let mut space = Arc::new(spark_space());
    let warmup = Cell::new(
        seed,
        900_000,
        Workload::PageRank,
        Dataset::D1,
        WARMUP_BUDGET,
    );
    let scratch = InMemoryMemoStore::new().into_shared();
    plain_session(&opts, &scratch, &space, &warmup);
    let t0 = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || t0.elapsed().as_secs_f64() < seconds {
        for (w, &workload) in ALL_WORKLOADS.iter().enumerate() {
            let t = Instant::now();
            for _ in 0..SETUP_BATCH {
                space = Arc::new(spark_space());
                std::hint::black_box(InMemoryMemoStore::new().into_shared());
            }
            let took = t.elapsed().as_secs_f64() / SETUP_BATCH as f64;
            pass.setup_s.push(took / setup_slowness());
            let cell = Cell::new(seed, (round * 5 + w) as u64, workload, Dataset::D1, BUDGET);
            let (store, timed) = fresh_store(mode, &mut pass);
            pass.session(mode, &opts, &store, &space, &cell);
            if let Some(t) = timed {
                pass.store.add(t.counts());
            }
        }
        round += 1;
    }
    pass
}

/// Slowness of the host just after a set-up batch. Set-up is
/// allocation, not floating point, yet over 12 processes on a 2-vCPU
/// Xeon VM whose speed moved by a factor 1.6 (batch medians 5.7–9.3
/// microseconds), batch ÷ slowness stayed within 6.7–7.4: the host's
/// state moves both alike, so the exponent here is 1.
fn setup_slowness() -> f64 {
    let mut speed = Speed::default();
    for _ in 0..SETUP_SPEED_SAMPLES {
        speed.sample();
    }
    speed.slowness().unwrap_or(f64::NAN)
}

/// Runs the in-process workload and returns its metrics.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let plain = pass(Mode::Plain, seed, seconds);
    let mut out = Outcome::new(plain.sessions_attempted, plain.sessions_failed);
    for v in &plain.violations {
        out.fail(v.clone());
    }
    if !trace {
        end_to_end(&plain, &mut out);
        return out;
    }
    let stepped = pass(Mode::Stepped, seed, seconds);
    out.attempted += stepped.sessions_attempted;
    out.failed += stepped.sessions_failed;
    for v in &stepped.violations {
        out.fail(v.clone());
    }
    if stepped.sessions.len() != plain.sessions.len() {
        out.fail(format!(
            "stepped pass ran {} sessions, plain pass {}",
            stepped.sessions.len(),
            plain.sessions.len()
        ));
    }
    let diverged = plain
        .sessions
        .iter()
        .zip(&stepped.sessions)
        .filter(|(a, b)| !same_trajectory(a, b))
        .count();
    if diverged > 0 {
        out.fail(format!(
            "{diverged} stepped sessions diverged from tune_workload"
        ));
    }
    out.note(format!(
        "bit-identity gate: {} of {} stepped sessions reproduce tune_workload",
        plain.sessions.len().min(stepped.sessions.len()) - diverged,
        plain.sessions.len()
    ));
    per_layer(&plain, &stepped, &mut out);
    out
}

fn end_to_end(p: &Pass, out: &mut Outcome) {
    out.push(Metric::pct("setup_s", "s", percentile(&p.setup_s, 50.0)));
    let walls: Vec<f64> = p.sessions.iter().map(SessionRun::session_s).collect();
    out.push(Metric::pct("session_s_p50", "s", percentile(&walls, 50.0)));
    let ttnc = p.ttnc_ms();
    out.push(Metric::pct("ttnc_ms_p50", "ms", percentile(&ttnc, 50.0)));
    out.push(Metric::pct(
        "ttfc_ms_p50",
        "ms",
        percentile(&p.ttfc_ms, 50.0),
    ));
    out.push(Metric::pct(
        "ttfc_ms_p90",
        "ms",
        percentile(&p.ttfc_ms, 90.0),
    ));
    let ratios: Vec<f64> = p
        .sessions
        .iter()
        .zip(&p.rs_best)
        .filter_map(|(r, rs)| Some(r.session.best_time()? / (*rs)?))
        .collect();
    out.push(Metric::value(
        "quality_vs_rs",
        "ratio",
        geomean(&ratios),
        ratios.len(),
    ));
    let not_ok = p.sessions_failed + p.sessions_empty;
    let ok = 1.0 - not_ok as f64 / p.sessions_attempted.max(1) as f64;
    out.push(Metric::value(
        "ok_frac",
        "ratio",
        Some(ok),
        p.sessions_attempted as usize,
    ));
    out.push(Metric::value("peak_rss_mb", "MiB", peak_rss_mb(), 1));
    if p.sessions_empty > 0 {
        out.note(format!(
            "{} sessions spent their budget without a completed run (counted in ok_frac)",
            p.sessions_empty
        ));
    }
    let raw_walls: Vec<f64> = p.sessions.iter().map(|r| r.wall_s).collect();
    let raw_ttnc: Vec<f64> = p
        .sessions
        .iter()
        .flat_map(|r| r.ttnc_ms.iter().copied())
        .collect();
    let value = |v: Option<Pct>| v.map_or(f64::NAN, |p| p.value);
    out.note(format!("host slowness: {:.3}", p.slowness()));
    out.note(format!(
        "raw wall times: session_s_p50 {:.4} s, ttnc_ms_p50 {:.4} ms, ttnc_ms_p99 {:.4} ms",
        value(percentile(&raw_walls, 50.0)),
        value(percentile(&raw_ttnc, 50.0)),
        value(percentile(&raw_ttnc, 99.0)),
    ));
}

fn per_layer(plain: &Pass, stepped: &Pass, out: &mut Outcome) {
    let l = &stepped.layers;
    let factor = stepped.factor();
    let n = stepped.sessions.len();
    let iters: Vec<f64> = plain
        .sessions
        .iter()
        .filter_map(|r| r.session.iterations_to_within(0.05))
        .map(|i| i as f64)
        .collect();
    out.push(Metric::value(
        "iters_to_5pct",
        "evals",
        mean(&iters),
        iters.len(),
    ));
    // The tail of the untimed pass, ungated: see the README.
    out.push(Metric::pct("ttnc_ms_p99", "ms", percentile(&plain.ttnc_ms(), 99.0)));
    out.push(Metric::value(
        "sparksim.evals",
        "count",
        Some(l.sim_evals as f64),
        n,
    ));
    out.push(Metric::value(
        "sparksim.busy_ms",
        "ms",
        Some(l.sim_busy_ms),
        n,
    ));
    out.push(Metric::value(
        "select.runs",
        "count",
        Some(l.select_runs as f64),
        n,
    ));
    out.push(Metric::value(
        "select.sample_ms",
        "ms",
        Some(l.select_sample_ms),
        n,
    ));
    out.push(Metric::value(
        "select.rf_mda_ms",
        "ms",
        Some(l.select_rf_mda_ms),
        n,
    ));
    out.push(Metric::value(
        "sampling.initial_design_ms",
        "ms",
        Some(l.initial_design_ms),
        n,
    ));
    out.push(Metric::value(
        "gp.refits",
        "count",
        Some(l.refit_ms.len() as f64),
        n,
    ));
    out.push(Metric::value(
        "gp.refit_ms",
        "ms",
        Some(l.refit_ms.iter().sum()),
        n,
    ));
    out.push(Metric::pct(
        "gp.refit_ms_p50",
        "ms",
        percentile(&l.refit_ms, 50.0),
    ));
    out.push(Metric::pct(
        "gp.refit_ms_p99",
        "ms",
        percentile(&l.refit_ms, 99.0),
    ));
    out.push(Metric::value(
        "bo.suggests",
        "count",
        Some(l.suggest_ms.len() as f64),
        n,
    ));
    out.push(Metric::value(
        "bo.suggest_ms",
        "ms",
        Some(l.suggest_ms.iter().sum()),
        n,
    ));
    out.push(Metric::pct(
        "bo.suggest_ms_p50",
        "ms",
        percentile(&l.suggest_ms, 50.0),
    ));
    out.push(Metric::pct(
        "bo.suggest_ms_p99",
        "ms",
        percentile(&l.suggest_ms, 99.0),
    ));
    out.push(Metric::value(
        "core.observe_ms",
        "ms",
        Some(l.observe_ms),
        n,
    ));
    let s = &stepped.store;
    out.push(Metric::value(
        "memo.reads",
        "count",
        Some(s.reads as f64),
        n,
    ));
    out.push(Metric::value(
        "memo.writes",
        "count",
        Some(s.writes as f64),
        n,
    ));
    out.push(Metric::value(
        "memo.busy_ms",
        "ms",
        Some(s.busy_ms / factor),
        n,
    ));
    out.push(Metric::value(
        "memo.selection_hit_ratio",
        "ratio",
        Some(s.selection_hit_ratio()),
        s.selection_lookups as usize,
    ));
    out.push(Metric::pct(
        "memo.open_ms",
        "ms",
        percentile(&stepped.store_open_ms, 50.0).map(|p| Pct {
            value: p.value / factor,
            ..p
        }),
    ));
    out.push(Metric::value(
        "tuners.rs_session_ms",
        "ms",
        Some(l.rs_session_ms),
        n,
    ));
    crate::report::absent_service_layers(out);
    out.push(Metric::value(
        "bench.host_slowness",
        "ratio",
        Some(stepped.slowness()),
        n,
    ));
    for (name, p) in [("plain", plain), ("traced", stepped)] {
        let raw: Vec<f64> = p.sessions.iter().map(|r| r.wall_s).collect();
        out.note(format!(
            "{name} pass: session_s_p50 {:.4} s at reference speed, {:.4} s raw; slowness {:.3}",
            p.session_p50().unwrap_or(f64::NAN),
            percentile(&raw, 50.0).map_or(f64::NAN, |p| p.value),
            p.slowness(),
        ));
    }
    let overhead = match (stepped.session_p50(), plain.session_p50()) {
        (Some(t), Some(u)) => Some(t / u - 1.0),
        _ => None,
    };
    out.push(Metric::value(
        "bench.trace_overhead_frac",
        "ratio",
        overhead,
        n,
    ));
}
