//! Outside-in layer probes: timing decorators over the public trait
//! objects (`Objective`, `ConcurrentMemoStore`) and a per-layer ledger.
//!
//! Nothing here reaches inside the program: every number is the wall
//! time of a public call, taken around it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use robotune::{ConcurrentMemoStore, SharedMemoStore, StoreStatus};
use robotune_space::Configuration;
use robotune_tuners::{Evaluation, Fidelity, Objective};

use crate::speed::Speed;

/// Milliseconds between two instants.
pub fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// One `evaluate` call as a [`TimedObjective`] saw it.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// When the call came in.
    pub start: Instant,
    /// When the simulator returned.
    pub end: Instant,
    /// When control went back to the caller, after the speed sample.
    pub resumed: Instant,
}

/// An [`Objective`] decorator that records when each `evaluate` call
/// started and returned, and times the reference kernel once per call
/// (after the simulator, before returning), so the host's speed is
/// sampled all through a session. The end-to-end time-to-next-config is
/// the gap between one call returning and the next one starting; the
/// sum of the simulator's durations is the simulator layer's busy time.
pub struct TimedObjective<O> {
    inner: O,
    /// Every `evaluate` call, in order.
    pub calls: Vec<Call>,
    /// The reference-kernel samples, one per call.
    pub speed: Speed,
}

impl<O: Objective> TimedObjective<O> {
    /// Wraps `inner`.
    pub fn new(inner: O) -> Self {
        TimedObjective {
            inner,
            calls: Vec::new(),
            speed: Speed::default(),
        }
    }

    /// Milliseconds inside the simulator since call `from`.
    pub fn busy_ms_since(&self, from: usize) -> f64 {
        self.calls[from.min(self.calls.len())..]
            .iter()
            .map(|c| ms(c.start, c.end))
            .sum()
    }

    /// Milliseconds inside `evaluate` (simulator and speed sample) since
    /// call `from`: what to subtract from a step that made those calls.
    pub fn inside_ms_since(&self, from: usize) -> f64 {
        self.calls[from.min(self.calls.len())..]
            .iter()
            .map(|c| ms(c.start, c.resumed))
            .sum()
    }

    /// Milliseconds the speed samples took.
    pub fn sampling_ms(&self) -> f64 {
        self.calls.iter().map(|c| ms(c.end, c.resumed)).sum()
    }
}

impl<O: Objective> Objective for TimedObjective<O> {
    fn evaluate(&mut self, config: &Configuration, cap_s: f64) -> Evaluation {
        let start = Instant::now();
        let eval = self.inner.evaluate(config, cap_s);
        let end = Instant::now();
        self.speed.sample();
        self.calls.push(Call {
            start,
            end,
            resumed: Instant::now(),
        });
        eval
    }

    fn set_fidelity(&mut self, fidelity: Fidelity) -> bool {
        self.inner.set_fidelity(fidelity)
    }

    fn fidelity(&self) -> Fidelity {
        self.inner.fidelity()
    }
}

/// A [`ConcurrentMemoStore`] decorator counting reads, writes, the time
/// spent in them, and how often a selection lookup hit.
pub struct TimedStore {
    inner: SharedMemoStore,
    reads: AtomicU64,
    writes: AtomicU64,
    busy_ns: AtomicU64,
    selection_lookups: AtomicU64,
    selection_hits: AtomicU64,
}

/// What a [`TimedStore`] saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreCounts {
    /// Read calls.
    pub reads: u64,
    /// Write calls (selections, configurations, checkpoints).
    pub writes: u64,
    /// Milliseconds spent inside the store.
    pub busy_ms: f64,
    /// `selection` lookups.
    pub selection_lookups: u64,
    /// `selection` lookups that found a cached selection.
    pub selection_hits: u64,
}

impl StoreCounts {
    /// Adds another store's counts.
    pub fn add(&mut self, other: StoreCounts) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.busy_ms += other.busy_ms;
        self.selection_lookups += other.selection_lookups;
        self.selection_hits += other.selection_hits;
    }

    /// Selection hits per lookup (0 with no lookups).
    pub fn selection_hit_ratio(&self) -> f64 {
        if self.selection_lookups == 0 {
            0.0
        } else {
            self.selection_hits as f64 / self.selection_lookups as f64
        }
    }
}

impl TimedStore {
    /// Wraps `inner`.
    pub fn new(inner: SharedMemoStore) -> Self {
        TimedStore {
            inner,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            selection_lookups: AtomicU64::new(0),
            selection_hits: AtomicU64::new(0),
        }
    }

    /// The counts so far.
    pub fn counts(&self) -> StoreCounts {
        StoreCounts {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            busy_ms: self.busy_ns.load(Ordering::Relaxed) as f64 / 1e6,
            selection_lookups: self.selection_lookups.load(Ordering::Relaxed),
            selection_hits: self.selection_hits.load(Ordering::Relaxed),
        }
    }

    fn timed<T>(&self, counter: &AtomicU64, call: impl FnOnce(&dyn ConcurrentMemoStore) -> T) -> T {
        let start = Instant::now();
        let out = call(self.inner.as_ref());
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        counter.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl ConcurrentMemoStore for TimedStore {
    fn selection(&self, workload: &str) -> Option<Vec<String>> {
        let out = self.timed(&self.reads, |s| s.selection(workload));
        self.selection_lookups.fetch_add(1, Ordering::Relaxed);
        if out.is_some() {
            self.selection_hits.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    fn put_selection(&self, workload: &str, names: Vec<String>) {
        self.timed(&self.writes, |s| s.put_selection(workload, names));
    }

    fn record_config(&self, workload: &str, config: Configuration, time_s: f64) {
        self.timed(&self.writes, |s| s.record_config(workload, config, time_s));
    }

    fn best_recent(&self, workload: &str, n: usize) -> Vec<(Configuration, f64)> {
        self.timed(&self.reads, |s| s.best_recent(workload, n))
    }

    fn has_selection(&self, workload: &str) -> bool {
        self.timed(&self.reads, |s| s.has_selection(workload))
    }

    fn has_configs(&self, workload: &str) -> bool {
        self.timed(&self.reads, |s| s.has_configs(workload))
    }

    fn workloads(&self) -> Vec<String> {
        self.timed(&self.reads, |s| s.workloads())
    }

    fn checkpoint(&self) -> Result<(), String> {
        self.timed(&self.writes, |s| s.checkpoint())
    }

    fn wal_lag(&self) -> u64 {
        self.timed(&self.reads, |s| s.wal_lag())
    }

    fn status(&self) -> StoreStatus {
        self.timed(&self.reads, |s| s.status())
    }
}

/// Per-layer time and work of the in-process pipeline, summed over the
/// stepped sessions of one run; times at reference speed.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Simulator `evaluate` calls.
    pub sim_evals: u64,
    /// Milliseconds inside the simulator.
    pub sim_busy_ms: f64,
    /// Parameter-selection runs (selection-cache misses).
    pub select_runs: u64,
    /// `collect_samples` time minus the simulator time inside it.
    pub select_sample_ms: f64,
    /// `select_from_data` time: random forests + grouped MDA.
    pub select_rf_mda_ms: f64,
    /// `MemoizedSampler::initial_design` time.
    pub initial_design_ms: f64,
    /// One entry per `RoboTuneEngine::refit` call, milliseconds.
    pub refit_ms: Vec<f64>,
    /// One entry per `RoboTuneEngine::suggest` call, milliseconds.
    pub suggest_ms: Vec<f64>,
    /// `evaluate_point` time minus the simulator time inside it.
    pub observe_ms: f64,
    /// Wall time of the RandomSearch comparator sessions.
    pub rs_session_ms: f64,
}

impl Layers {
    /// Adds `other`, its times multiplied by `scale`.
    pub fn add_scaled(&mut self, other: &Layers, scale: f64) {
        self.sim_evals += other.sim_evals;
        self.sim_busy_ms += other.sim_busy_ms * scale;
        self.select_runs += other.select_runs;
        self.select_sample_ms += other.select_sample_ms * scale;
        self.select_rf_mda_ms += other.select_rf_mda_ms * scale;
        self.initial_design_ms += other.initial_design_ms * scale;
        self.refit_ms
            .extend(other.refit_ms.iter().map(|t| t * scale));
        self.suggest_ms
            .extend(other.suggest_ms.iter().map(|t| t * scale));
        self.observe_ms += other.observe_ms * scale;
        self.rs_session_ms += other.rs_session_ms * scale;
    }
}
