//! The `served-queued` workload: the tuning daemon (`serve` +
//! `SessionManager`, default `ServiceOptions`, a `PersistentMemoStore`
//! in a scratch directory) hosted in this process on loopback, driven by
//! a one-thread open-loop load generator over two connections.
//!
//! Tenants arrive in waves on a seeded schedule. Each wave brings more
//! sessions than the daemon has workers, so some wait in the admission
//! queue and poll `suggest` until a worker takes them; the waves are far
//! enough apart that the queue drains between them. Each tenant runs
//! closed-loop: a `config` reply is evaluated on the tenant's own
//! simulated Spark job, and the result is reported after a think time of
//! the simulated seconds times [`THINK_SCALE`], with the next `suggest`
//! pipelined behind the `observe`.
//!
//! The daemon's work — time-to-next-config, the set-up, the request
//! round trips — is reported at reference speed (see `speed.rs`); the
//! client times the reference kernel every [`PING_MS`]. Session times
//! and time-to-first-config are set by the arrival schedule and the
//! think times, and are reported as measured.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mio::{Events, Interest, Poll, Token};
use rand::rngs::StdRng;
use rand::Rng;
use robotune::{RoboTune, RoboTuneOptions, SharedMemoStore};
use robotune_service::framing::{DecodedFrame, FrameDecoder};
use robotune_service::protocol::config_from_wire;
use robotune_service::{
    serve, ObservedStatus, PersistentMemoStore, Profile, ServiceOptions, SessionManager,
    TuningClient,
};
use robotune_space::spark::spark_space;
use robotune_space::{ConfigSpace, Configuration};
use robotune_sparksim::workload::ALL_DATASETS;
use robotune_sparksim::{Dataset, SparkJob, Workload, ALL_WORKLOADS};
use robotune_stats::rng_from_seed;
use robotune_tuners::{Evaluation, Objective, RandomSearch, Tuner, TuningSession};
use serde_json::{Map, Value};

use crate::probes::{ms, StoreCounts, TimedObjective, TimedStore};
use crate::report::{Metric, Outcome};
use crate::speed::{Speed, SESSION_EXPONENT};
use crate::stats::{
    derive_seed, first_model_chosen, geomean, mean, peak_rss_mb, percentile, Pct, ReplyKind,
    Tally,
};

/// Evaluation budget of every served session.
const BUDGET: usize = 40;
/// Arrival waves at the least: 16 waves of 10 give 160 sessions (16
/// samples beyond the p90 time-to-first-config) and 3200 model-chosen
/// asks. The tail of time-to-next-config moves with bursts of host
/// contention lasting seconds; a hold of 53 s averages over more of
/// them than the 101 sessions the p90 needs would.
const MIN_WAVES: usize = 16;
/// Sessions per wave, for the daemon's 4 workers: 4 start at once, 4
/// wait for the first round to finish and 2 for the second. Both the
/// p50 and the p90 time-to-first-config then lie inside the queued
/// sessions, well away from the boundary with those that start at once,
/// and measure the admission queue: session lengths, which are mostly
/// think time, rather than a few milliseconds of round trips.
const WAVE_SIZE: usize = 10;
/// Seconds between wave starts. The last sessions of a wave get a worker
/// about 1.2 s in and hold it for under a second, so a wave drains with
/// time to spare and a slower host does not carry a backlog into the
/// next wave.
const WAVE_PERIOD_S: f64 = 3.3;
/// Arrivals of one wave are spread uniformly over this many seconds.
const WAVE_SPREAD_S: f64 = 0.3;
/// Think time per evaluation = simulated seconds × this. A session then
/// holds a worker for under a second, nearly 90% of it thinking; see the
/// README for why it is not longer.
const THINK_SCALE: f64 = 1.0 / 8_000.0;
/// Mean re-poll interval of a queued session (jittered ±50%).
const POLL_MS: f64 = 20.0;
/// Interval of the `status` pings and of the client's speed samples.
const PING_MS: f64 = 20.0;
/// How long after the last arrival every session must have finished.
const DRAIN_S: f64 = 30.0;
/// Daemon boots per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Client connections.
const CONNS: usize = 2;
/// Memo-store keys per workload and dataset, each seeded by a cold
/// session of its own: a run averages over this many parameter
/// selections of every pair, since the selected dimension sets the GP
/// cost of each model-chosen ask.
const KEY_REPLICAS: usize = 3;
/// Seed of the warm store's seeding sessions, the same in every run: the
/// store is a fixture, and `--seed` drives the traffic (arrivals, tenant
/// and job seeds). Much of the tail of time-to-next-config comes from
/// the two or three keys of 45 whose selection kept the most parameters
/// (their asks take 2–3 ms against 1.2 ms); seeded from `--seed`, which
/// keys those were changed with every run, and the p99 followed the
/// seed rather than the program (see the README).
const FIXTURE_SEED: u64 = 0x5eed_f1c5;

/// A daemon hosted on a thread of this process.
struct Daemon {
    addr: SocketAddr,
    thread: JoinHandle<io::Result<()>>,
    dir: PathBuf,
    timed: Option<Arc<TimedStore>>,
    open_ms: f64,
    /// Seconds of the boot, less the speed samples taken in it.
    setup_s: f64,
    /// Host slowness during the boot's seeding sessions.
    slowness: f64,
}

fn scratch_root() -> PathBuf {
    PathBuf::from(".perfbench-tmp")
}

/// A memo-store key: a workload, a dataset, and which of the
/// [`KEY_REPLICAS`] keys of that pair.
#[derive(Debug, Clone, Copy)]
struct Key {
    workload: Workload,
    dataset: Dataset,
    replica: usize,
}

impl Key {
    /// Every key, in the order tenants rotate over them.
    fn all() -> impl Iterator<Item = Key> {
        (0..KEY_REPLICAS).flat_map(|replica| {
            ALL_DATASETS.iter().flat_map(move |&dataset| {
                ALL_WORKLOADS.iter().map(move |&workload| Key {
                    workload,
                    dataset,
                    replica,
                })
            })
        })
    }

    fn name(&self) -> String {
        format!(
            "{}-D{}-{}",
            self.workload.short_name(),
            self.dataset.index() + 1,
            self.replica
        )
    }
}

/// Opens a fresh store, seeds it with one cold session per key (so the
/// timed sessions hit the selection cache, as on a daemon that has been
/// up for a while), boots the daemon and waits until it answers.
fn boot(space: &Arc<ConfigSpace>, tag: usize, timed: bool) -> Result<Daemon, String> {
    let t0 = Instant::now();
    let dir = scratch_root().join(format!("store-{}-{tag}", std::process::id()));
    // A previous run killed mid-way may have left the directory behind.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let t = Instant::now();
    let store = PersistentMemoStore::open(&dir)?.into_shared();
    let open_ms = ms(t, Instant::now());
    let mut speed = Speed::default();
    let mut sampling_ms = 0.0;
    for (k, key) in Key::all().enumerate() {
        let tag = 2 * (800 + k as u64);
        let mut tuner = RoboTune::with_store(Profile::Fast.options(), Arc::clone(&store));
        let mut job = TimedObjective::new(SparkJob::new(
            space.as_ref().clone(),
            key.workload,
            key.dataset,
            derive_seed(FIXTURE_SEED, tag + 1),
        ));
        let mut rng = rng_from_seed(derive_seed(FIXTURE_SEED, tag));
        let name = key.name();
        let out = tuner.tune_workload(space, &name, &mut job, BUDGET, &mut rng);
        speed.extend(&job.speed);
        sampling_ms += job.sampling_ms();
        if out.session.len() != BUDGET {
            return Err(format!(
                "seeding session for {name} spent {}",
                out.session.len()
            ));
        }
    }
    let (shared, timed) = if timed {
        let t = Arc::new(TimedStore::new(store));
        (Arc::clone(&t) as SharedMemoStore, Some(t))
    } else {
        (store, None)
    };
    let manager = SessionManager::new(ServiceOptions::default(), shared);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let thread = std::thread::spawn(move || serve(listener, &manager));
    let ready = TuningClient::connect(addr).and_then(|mut c| c.status());
    let daemon = Daemon {
        addr,
        thread,
        dir,
        timed,
        open_ms,
        setup_s: t0.elapsed().as_secs_f64() - sampling_ms / 1e3,
        slowness: speed.slowness().unwrap_or(f64::NAN),
    };
    match ready {
        Ok(_) => Ok(daemon),
        Err(e) => {
            let _ = daemon.shutdown();
            Err(format!("daemon did not answer: {e}"))
        }
    }
}

impl Daemon {
    /// Drains the daemon, joins its thread and removes its store.
    fn shutdown(self) -> Result<(), String> {
        let asked = TuningClient::connect(self.addr)
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("shutdown: {e}"));
        let joined = self.thread.join();
        let _ = std::fs::remove_dir_all(&self.dir);
        let _ = std::fs::remove_dir(scratch_root());
        asked?;
        match joined {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon: {e}")),
            Err(_) => Err("daemon thread panicked".to_string()),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Action {
    Arrive(usize),
    Observe(usize),
    Poll(usize),
    Ping,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verb {
    Create,
    Suggest,
    Observe,
    Ping,
}

struct Inflight {
    id: u64,
    tenant: Option<usize>,
    verb: Verb,
    sent: Instant,
}

struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
    inflight: VecDeque<Inflight>,
    want_write: bool,
    dead: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Waiting,
    Open,
    Done,
    Failed,
}

struct Finished {
    at: Instant,
    evals: u64,
    best_time_s: Option<f64>,
    cache_hit: bool,
}

struct Tenant {
    key: Key,
    tune_seed: u64,
    job_seed: u64,
    job: SparkJob,
    due: Instant,
    phase: Phase,
    session: Option<String>,
    first_config: Option<Instant>,
    /// When the latest `observe` was sent.
    last_observe_sent: Option<Instant>,
    /// `(ask index, time-to-next-config ms)`; the first ask has none.
    asks: Vec<(u64, Option<f64>)>,
    /// Every evaluation the tenant ran: `(ask index, config, eval, cap)`.
    evals: Vec<(u64, Configuration, Evaluation, f64)>,
    pending: Option<(u64, Evaluation)>,
    /// Seconds of think time the tenant spent.
    think_s: f64,
    finished: Option<Finished>,
}

/// The open-loop load generator and everything it measured.
struct LoadGen {
    space: Arc<ConfigSpace>,
    conns: Vec<Conn>,
    tenants: Vec<Tenant>,
    timers: BinaryHeap<Reverse<(Instant, u64, Action)>>,
    seq: u64,
    next_id: u64,
    jitter: StdRng,
    tally: Tally,
    create_rtt: Vec<f64>,
    suggest_rtt: Vec<f64>,
    observe_rtt: Vec<f64>,
    ping_rtt: Vec<f64>,
    late_ms: Vec<f64>,
    suggests: u64,
    useful: u64,
    queued_polls: u64,
    timeouts: u64,
    dropped: u64,
    open: usize,
    open_max: usize,
    settled: usize,
    newest_session: Option<String>,
    sim_evals: u64,
    sim_busy_ms: f64,
    /// Reference-kernel samples of the client thread.
    speed: Speed,
    errors: Vec<String>,
}

impl LoadGen {
    fn new(
        space: Arc<ConfigSpace>,
        addr: SocketAddr,
        seed: u64,
        seconds: f64,
        poll: &Poll,
    ) -> io::Result<Self> {
        let mut conns = Vec::with_capacity(CONNS);
        for c in 0..CONNS {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            poll.register(&stream, Token(c), Interest::READABLE)?;
            conns.push(Conn {
                stream,
                decoder: FrameDecoder::new(),
                out: Vec::new(),
                inflight: VecDeque::new(),
                want_write: false,
                dead: false,
            });
        }
        let waves = MIN_WAVES.max((seconds / WAVE_PERIOD_S).ceil() as usize);
        let mut schedule = rng_from_seed(derive_seed(seed, 77));
        let start = Instant::now() + Duration::from_millis(50);
        let mut gen = LoadGen {
            space,
            conns,
            tenants: Vec::with_capacity(waves * WAVE_SIZE),
            timers: BinaryHeap::new(),
            seq: 0,
            next_id: 1,
            jitter: rng_from_seed(derive_seed(seed, 78)),
            tally: Tally::default(),
            create_rtt: Vec::new(),
            suggest_rtt: Vec::new(),
            observe_rtt: Vec::new(),
            ping_rtt: Vec::new(),
            late_ms: Vec::new(),
            suggests: 0,
            useful: 0,
            queued_polls: 0,
            timeouts: 0,
            dropped: 0,
            open: 0,
            open_max: 0,
            settled: 0,
            newest_session: None,
            sim_evals: 0,
            sim_busy_ms: 0.0,
            speed: Speed::default(),
            errors: Vec::new(),
        };
        let keys: Vec<Key> = Key::all().collect();
        for i in 0..waves * WAVE_SIZE {
            let wave = (i / WAVE_SIZE) as f64;
            let offset = wave * WAVE_PERIOD_S + schedule.gen::<f64>() * WAVE_SPREAD_S;
            let key = keys[i % keys.len()];
            let (tune_seed, job_seed) = (
                derive_seed(seed, 2 * i as u64),
                derive_seed(seed, 2 * i as u64 + 1),
            );
            let due = start + Duration::from_secs_f64(offset);
            gen.tenants.push(Tenant {
                key,
                tune_seed,
                job_seed,
                job: SparkJob::new(
                    gen.space.as_ref().clone(),
                    key.workload,
                    key.dataset,
                    job_seed,
                ),
                due,
                phase: Phase::Waiting,
                session: None,
                first_config: None,
                last_observe_sent: None,
                asks: Vec::new(),
                evals: Vec::new(),
                pending: None,
                think_s: 0.0,
                finished: None,
            });
            gen.schedule(due, Action::Arrive(i));
        }
        gen.schedule(start, Action::Ping);
        Ok(gen)
    }

    fn schedule(&mut self, due: Instant, action: Action) {
        self.seq += 1;
        self.timers.push(Reverse((due, self.seq, action)));
    }

    fn last_arrival(&self) -> Instant {
        self.tenants
            .iter()
            .map(|t| t.due)
            .max()
            .unwrap_or_else(Instant::now)
    }

    fn send(&mut self, conn: usize, tenant: Option<usize>, verb: Verb, mut frame: Map) {
        let id = self.next_id;
        self.next_id += 1;
        frame.insert("id".into(), Value::from(id));
        let c = &mut self.conns[conn];
        if c.dead {
            self.tally.record(ReplyKind::Dropped);
            return;
        }
        match serde_json::to_string(&Value::Object(frame)) {
            Ok(line) => {
                c.out.extend_from_slice(line.as_bytes());
                c.out.push(b'\n');
                c.inflight.push_back(Inflight {
                    id,
                    tenant,
                    verb,
                    sent: Instant::now(),
                });
            }
            Err(e) => self.errors.push(format!("encode request: {e}")),
        }
    }

    fn session_frame(verb: &str, session: &str) -> Map {
        let mut m = Map::new();
        m.insert("verb".into(), Value::from(verb));
        m.insert("session".into(), Value::from(session));
        m
    }

    /// The live connection with the fewest requests outstanding. The
    /// daemon answers each connection's requests in order, so a request
    /// queued behind a `suggest` that waits for its session's next ask
    /// waits too; sending on the shorter queue keeps that wait small.
    fn pick_conn(&self) -> usize {
        (0..CONNS)
            .filter(|&c| !self.conns[c].dead)
            .min_by_key(|&c| self.conns[c].inflight.len())
            .unwrap_or(0)
    }

    fn send_suggest(&mut self, t: usize, conn: usize) {
        let Some(sid) = self.tenants[t].session.clone() else {
            return;
        };
        self.send(
            conn,
            Some(t),
            Verb::Suggest,
            Self::session_frame("suggest", &sid),
        );
    }

    fn perform(&mut self, action: Action, due: Instant) {
        match action {
            Action::Arrive(t) => {
                let tenant = &mut self.tenants[t];
                tenant.phase = Phase::Open;
                self.open += 1;
                self.open_max = self.open_max.max(self.open);
                let mut m = Map::new();
                m.insert("verb".into(), Value::from("create_session"));
                m.insert("workload".into(), Value::from(tenant.key.name()));
                m.insert("space".into(), Value::from("spark"));
                m.insert("seed".into(), Value::from(tenant.tune_seed));
                m.insert("budget".into(), Value::from(BUDGET as u64));
                m.insert("profile".into(), Value::from(Profile::Fast.as_str()));
                let conn = self.pick_conn();
                self.send(conn, Some(t), Verb::Create, m);
            }
            Action::Observe(t) => {
                let tenant = &mut self.tenants[t];
                let (Some((index, eval)), Some(sid)) =
                    (tenant.pending.take(), tenant.session.clone())
                else {
                    return;
                };
                tenant.last_observe_sent = Some(Instant::now());
                let mut m = Self::session_frame("observe", &sid);
                m.insert("index".into(), Value::from(index));
                m.insert("time_s".into(), Value::from(eval.time_s));
                m.insert(
                    "status".into(),
                    Value::from(ObservedStatus::of(&eval).as_str()),
                );
                // The suggest follows the observe on the same connection,
                // so the daemon sees the measurement first.
                let conn = self.pick_conn();
                self.send(conn, Some(t), Verb::Observe, m);
                self.send_suggest(t, conn);
            }
            Action::Poll(t) => {
                if self.tenants[t].phase == Phase::Open {
                    self.send_suggest(t, self.pick_conn());
                }
            }
            Action::Ping => {
                // `status` of the newest session: a round trip through
                // the reactor and the dispatch pool with no session
                // compute, of constant size.
                self.speed.sample();
                if let Some(sid) = self.newest_session.clone() {
                    let conn = self.pick_conn();
                    self.send(conn, None, Verb::Ping, Self::session_frame("status", &sid));
                }
                if self.settled < self.tenants.len() {
                    self.schedule(due + Duration::from_secs_f64(PING_MS / 1e3), Action::Ping);
                }
            }
        }
    }

    fn settle(&mut self, t: usize, phase: Phase) {
        let tenant = &mut self.tenants[t];
        if matches!(tenant.phase, Phase::Done | Phase::Failed) {
            return;
        }
        if tenant.phase == Phase::Open {
            self.open -= 1;
        }
        tenant.phase = phase;
        self.settled += 1;
    }

    fn fail_tenant(&mut self, t: usize, why: String) {
        self.errors.push(format!("tenant {t}: {why}"));
        self.settle(t, Phase::Failed);
    }

    fn on_reply(&mut self, conn: usize, line: &[u8], at: Instant) {
        let Some(req) = self.conns[conn].inflight.pop_front() else {
            self.errors
                .push("reply with no request outstanding".to_string());
            return;
        };
        let parsed = std::str::from_utf8(line)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::from_str(s).map_err(|e| e.to_string()));
        let v: Value = match parsed {
            Ok(v) => v,
            Err(e) => {
                self.tally.record(ReplyKind::Error);
                self.errors.push(format!("unparseable reply: {e}"));
                return;
            }
        };
        if v.get("id").and_then(Value::as_u64) != Some(req.id) {
            self.tally.record(ReplyKind::Error);
            self.errors
                .push(format!("reply out of order: expected id {}", req.id));
            return;
        }
        let rtt = ms(req.sent, at);
        let ok = v.get("ok").and_then(Value::as_bool) == Some(true);
        let code = v
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str)
            .unwrap_or("");
        let t = req.tenant.unwrap_or(usize::MAX);
        match req.verb {
            Verb::Ping => {
                self.ping_rtt.push(rtt);
                self.tally
                    .record(if ok { ReplyKind::Ok } else { ReplyKind::Error });
                if !ok {
                    self.errors.push(format!("status: {code}"));
                }
            }
            Verb::Create => {
                self.create_rtt.push(rtt);
                match v.get("session").and_then(Value::as_str) {
                    Some(sid) if ok => {
                        self.tally.record(ReplyKind::Ok);
                        self.tenants[t].session = Some(sid.to_string());
                        self.newest_session = Some(sid.to_string());
                        self.send_suggest(t, self.pick_conn());
                    }
                    _ => {
                        let kind = if code == "overloaded" {
                            ReplyKind::Overloaded
                        } else {
                            ReplyKind::Error
                        };
                        self.tally.record(kind);
                        self.fail_tenant(t, format!("create_session: {code}"));
                    }
                }
            }
            Verb::Observe => {
                self.observe_rtt.push(rtt);
                if ok {
                    self.tally.record(ReplyKind::Ok);
                } else {
                    self.tally.record(ReplyKind::Error);
                    self.fail_tenant(t, format!("observe: {code}"));
                }
            }
            Verb::Suggest => {
                self.suggest_rtt.push(rtt);
                self.suggests += 1;
                if !ok {
                    if code == "timeout" {
                        self.tally.record(ReplyKind::Timeout);
                        self.timeouts += 1;
                        self.send_suggest(t, self.pick_conn());
                    } else {
                        self.tally.record(ReplyKind::Error);
                        self.fail_tenant(t, format!("suggest: {code}"));
                    }
                    return;
                }
                match v.get("type").and_then(Value::as_str) {
                    Some("queued") => {
                        self.tally.record(ReplyKind::Queued);
                        self.queued_polls += 1;
                        let wait = POLL_MS * (0.5 + self.jitter.gen::<f64>());
                        self.schedule(at + Duration::from_secs_f64(wait / 1e3), Action::Poll(t));
                    }
                    Some("config") => {
                        self.tally.record(ReplyKind::Ok);
                        self.useful += 1;
                        if let Err(e) = self.on_config(t, &v, at) {
                            self.fail_tenant(t, e);
                        }
                    }
                    Some("finished") => {
                        self.tally.record(ReplyKind::Ok);
                        self.useful += 1;
                        self.tenants[t].finished = Some(Finished {
                            at,
                            evals: v.get("evals").and_then(Value::as_u64).unwrap_or(0),
                            best_time_s: v.get("best_time_s").and_then(Value::as_f64),
                            cache_hit: v.get("cache_hit").and_then(Value::as_bool).unwrap_or(false),
                        });
                        self.settle(t, Phase::Done);
                    }
                    other => {
                        self.tally.record(ReplyKind::Error);
                        self.fail_tenant(t, format!("suggest: unexpected type {other:?}"));
                    }
                }
            }
        }
    }

    fn on_config(&mut self, t: usize, v: &Value, at: Instant) -> Result<(), String> {
        let index = v
            .get("index")
            .and_then(Value::as_u64)
            .ok_or("config without index")?;
        let cap_s = v
            .get("cap_s")
            .and_then(Value::as_f64)
            .ok_or("config without cap_s")?;
        let wire = v.get("config").ok_or("config reply without config")?;
        let config = config_from_wire(&self.space, wire).map_err(|e| e.to_string())?;
        let tenant = &mut self.tenants[t];
        tenant.first_config.get_or_insert(at);
        let ttnc = tenant.last_observe_sent.map(|d| ms(d, at));
        tenant.asks.push((index, ttnc));
        let t0 = Instant::now();
        let eval = tenant.job.evaluate(&config, cap_s);
        self.sim_busy_ms += ms(t0, Instant::now());
        self.sim_evals += 1;
        tenant.evals.push((index, config, eval, cap_s));
        tenant.pending = Some((index, eval));
        let think = (eval.time_s * THINK_SCALE).max(0.0);
        tenant.think_s += think;
        self.schedule(at + Duration::from_secs_f64(think), Action::Observe(t));
        Ok(())
    }

    fn drop_conn(&mut self, conn: usize, poll: &Poll) {
        let c = &mut self.conns[conn];
        if c.dead {
            return;
        }
        c.dead = true;
        let _ = poll.deregister(&c.stream);
        let lost: Vec<Inflight> = c.inflight.drain(..).collect();
        self.dropped += 1;
        for req in lost {
            self.tally.record(ReplyKind::Dropped);
            if let Some(t) = req.tenant {
                self.fail_tenant(t, "connection dropped".to_string());
            }
        }
    }

    fn read(&mut self, conn: usize, buf: &mut [u8], poll: &Poll) {
        let mut frames = Vec::new();
        loop {
            let c = &mut self.conns[conn];
            if c.dead {
                return;
            }
            match c.stream.read(buf) {
                Ok(0) => {
                    self.drop_conn(conn, poll);
                    return;
                }
                Ok(n) => {
                    let at = Instant::now();
                    frames.clear();
                    c.decoder.push(&buf[..n], &mut frames);
                    for frame in frames.drain(..) {
                        match frame {
                            DecodedFrame::Line(line) => self.on_reply(conn, &line, at),
                            DecodedFrame::TooLong => {
                                self.conns[conn].inflight.pop_front();
                                self.tally.record(ReplyKind::Error);
                                self.errors.push("oversized reply".to_string());
                            }
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.drop_conn(conn, poll);
                    return;
                }
            }
        }
    }

    fn flush(&mut self, poll: &Poll) {
        for conn in 0..CONNS {
            let c = &mut self.conns[conn];
            if c.dead {
                continue;
            }
            let mut failed = false;
            while !c.out.is_empty() {
                match c.stream.write(&c.out) {
                    Ok(0) => {
                        failed = true;
                        break;
                    }
                    Ok(n) => {
                        c.out.drain(..n);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
            if failed {
                self.drop_conn(conn, poll);
                continue;
            }
            let want = !c.out.is_empty();
            if want != c.want_write {
                let interest = if want {
                    Interest::READABLE.add(Interest::WRITABLE)
                } else {
                    Interest::READABLE
                };
                if poll.reregister(&c.stream, Token(conn), interest).is_ok() {
                    c.want_write = want;
                }
            }
        }
    }

    /// Drives the schedule until every tenant settled or `deadline`.
    fn drive(&mut self, poll: &mut Poll, deadline: Instant) -> io::Result<()> {
        let mut events = Events::with_capacity(64);
        let mut buf = vec![0u8; 64 * 1024];
        loop {
            while let Some(&Reverse((due, _, action))) = self.timers.peek() {
                let now = Instant::now();
                if due > now {
                    break;
                }
                self.timers.pop();
                self.late_ms.push(ms(due, now));
                self.perform(action, due);
            }
            self.flush(poll);
            let now = Instant::now();
            if self.settled == self.tenants.len() || now >= deadline {
                return Ok(());
            }
            let timeout = self
                .timers
                .peek()
                .map(|Reverse((due, _, _))| due.saturating_duration_since(now))
                .unwrap_or(Duration::from_millis(50))
                .min(Duration::from_millis(50));
            poll.poll(&mut events, Some(timeout))?;
            for ev in events.iter() {
                let conn = ev.token().0;
                if conn < CONNS && (ev.is_readable() || ev.is_error()) {
                    self.read(conn, &mut buf, poll);
                }
            }
        }
    }
}

/// What one hold produced.
struct Hold {
    gen: LoadGen,
    unfinished: usize,
    rs_best: Vec<Option<f64>>,
    rs_ms: f64,
    store: StoreCounts,
}

fn hold(
    daemon: &Daemon,
    space: &Arc<ConfigSpace>,
    seed: u64,
    seconds: f64,
) -> Result<Hold, String> {
    let mut poll = Poll::new().map_err(|e| format!("poll: {e}"))?;
    let mut gen = LoadGen::new(Arc::clone(space), daemon.addr, seed, seconds, &poll)
        .map_err(|e| format!("connect: {e}"))?;
    let deadline = gen.last_arrival() + Duration::from_secs_f64(DRAIN_S);
    gen.drive(&mut poll, deadline)
        .map_err(|e| format!("poll: {e}"))?;
    let mut unfinished = 0;
    for t in 0..gen.tenants.len() {
        let tenant = &gen.tenants[t];
        let completed = tenant
            .finished
            .as_ref()
            .is_some_and(|f| f.best_time_s.is_some());
        gen.tally.session(tenant.phase == Phase::Done, completed);
        if !matches!(tenant.phase, Phase::Done | Phase::Failed) {
            unfinished += 1;
        }
    }
    // Close the load connections before the daemon drains.
    for c in &gen.conns {
        let _ = poll.deregister(&c.stream);
    }
    gen.conns.clear();
    let store = daemon
        .timed
        .as_ref()
        .map(|t| t.counts())
        .unwrap_or_default();
    // The comparator: RandomSearch with each tenant's budget and seed on
    // an identically seeded job.
    let t0 = Instant::now();
    let rs_best = gen
        .tenants
        .iter()
        .map(|t| {
            let mut job = SparkJob::new(
                space.as_ref().clone(),
                t.key.workload,
                t.key.dataset,
                t.job_seed,
            );
            let mut rng = rng_from_seed(t.tune_seed);
            RandomSearch::default()
                .tune(space.as_ref(), &mut job, BUDGET, &mut rng)
                .best_time()
        })
        .collect();
    let rs_ms = ms(t0, Instant::now());
    Ok(Hold {
        gen,
        unfinished,
        rs_best,
        rs_ms,
        store,
    })
}

/// Per-session figures of a finished tenant.
struct SessionFigures {
    session_s: f64,
    /// From the first `config` reply to `finished`: the time the session
    /// held a worker.
    running_s: f64,
    think_s: f64,
    ttfc_ms: Option<f64>,
    ttnc_ms: Vec<f64>,
    iters_to_5pct: Option<usize>,
}

fn figures(t: &Tenant, opts: &RoboTuneOptions) -> Option<SessionFigures> {
    let f = t.finished.as_ref()?;
    let selection = opts.selector.generic_samples;
    let first = first_model_chosen(f.cache_hit, selection, opts.sampler.tuning_samples) as u64;
    let budgeted = if f.cache_hit { 0 } else { selection as u64 };
    let mut session = TuningSession::new("ROBOTune");
    for (index, config, eval, cap) in &t.evals {
        if *index >= budgeted {
            session.push(Vec::new(), config.clone(), *eval, *cap);
        }
    }
    Some(SessionFigures {
        session_s: f.at.duration_since(t.due).as_secs_f64(),
        running_s: t
            .first_config
            .map_or(0.0, |c| f.at.duration_since(c).as_secs_f64()),
        think_s: t.think_s,
        ttfc_ms: t.first_config.map(|c| ms(t.due, c)),
        ttnc_ms: t
            .asks
            .iter()
            .filter(|(i, _)| *i >= first)
            .filter_map(|(_, d)| *d)
            .collect(),
        iters_to_5pct: session.iterations_to_within(0.05),
    })
}

fn check(h: &Hold, out: &mut Outcome) {
    let g = &h.gen;
    if g.dropped > 0 {
        out.fail(format!("{} connections dropped", g.dropped));
    }
    if h.unfinished > 0 {
        out.fail(format!(
            "{} sessions still queued or running at the end of the hold",
            h.unfinished
        ));
    }
    // The workload exists to show admission queueing.
    let workers = ServiceOptions::default().workers;
    if g.queued_polls == 0 || g.open_max <= workers {
        out.fail(format!(
            "no admission queueing: {} queued polls, at most {} sessions open for {workers} workers",
            g.queued_polls, g.open_max
        ));
    }
    for e in g.errors.iter().take(5) {
        out.fail(e.clone());
    }
    if g.errors.len() > 5 {
        out.fail(format!("... and {} more errors", g.errors.len() - 5));
    }
    let selection = Profile::Fast.options().selector.generic_samples;
    for (i, t) in g.tenants.iter().enumerate() {
        if let Some(f) = &t.finished {
            let budgeted = if f.cache_hit {
                t.evals.len()
            } else {
                t.evals.len().saturating_sub(selection)
            };
            if f.evals != BUDGET as u64 || budgeted != BUDGET {
                out.fail(format!(
                    "tenant {i} finished with {} evals ({budgeted} observed, budget {BUDGET})",
                    f.evals
                ));
            }
        }
    }
}

impl Hold {
    /// Host slowness during the hold, from the client's samples. The
    /// daemon's times are divided by it with exponent 1: the client
    /// samples just after waking from `poll`, as the daemon's threads
    /// run each request, and over four quiet holds on a 2-vCPU Xeon VM
    /// the raw median time-to-next-config (1.49–1.89 ms) moved with the
    /// slowness (1.20–1.44) while the adjusted one stayed in 1.22–1.31 ms.
    fn slowness(&self) -> f64 {
        self.gen.speed.slowness().unwrap_or(f64::NAN)
    }
}

impl Hold {
    /// Time-to-next-config of every model-chosen ask of the finished
    /// sessions, raw milliseconds.
    fn raw_ttnc(&self, opts: &RoboTuneOptions) -> Vec<f64> {
        self.gen
            .tenants
            .iter()
            .filter_map(|t| figures(t, opts))
            .flat_map(|f| f.ttnc_ms)
            .collect()
    }
}

/// Milliseconds at reference speed.
fn scaled(xs: &[f64], slowness: f64) -> Vec<f64> {
    xs.iter().map(|x| x / slowness).collect()
}

fn session_p50(h: &Hold, opts: &RoboTuneOptions) -> Option<f64> {
    let s: Vec<f64> = h
        .gen
        .tenants
        .iter()
        .filter_map(|t| figures(t, opts))
        .map(|f| f.session_s)
        .collect();
    percentile(&s, 50.0).map(|p| p.value)
}

/// Runs the served workload and returns its metrics.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let space = Arc::new(spark_space());
    let opts = Profile::Fast.options();
    let mut out = Outcome::default();
    let passes: &[bool] = if trace { &[false, true] } else { &[false] };
    let mut holds = Vec::new();
    let mut setup_s = Vec::new();
    let mut open_ms = Vec::new();
    for &timed in passes {
        let boots = if trace { 1 } else { SETUPS };
        let mut daemon = None;
        for b in 0..boots {
            if let Some(d) = daemon.take() {
                if let Err(e) = Daemon::shutdown(d) {
                    out.fail(e);
                }
            }
            match boot(&space, b, timed) {
                Ok(d) => {
                    // The boot is mostly its seeding sessions, timed like
                    // the in-process ones.
                    let factor = d.slowness.powf(SESSION_EXPONENT);
                    setup_s.push(d.setup_s / factor);
                    open_ms.push(d.open_ms / factor);
                    daemon = Some(d);
                }
                Err(e) => {
                    out.fail(format!("boot: {e}"));
                    return out;
                }
            }
        }
        let Some(daemon) = daemon else { return out };
        let result = hold(&daemon, &space, seed, seconds);
        if let Err(e) = daemon.shutdown() {
            out.fail(e);
        }
        match result {
            Ok(h) => {
                out.attempted += h.gen.tally.attempted;
                out.failed += h.gen.tally.failed;
                check(&h, &mut out);
                holds.push(h);
            }
            Err(e) => {
                out.fail(format!("hold: {e}"));
                return out;
            }
        }
    }
    let plain = &holds[0];
    if !trace {
        end_to_end(plain, &opts, &setup_s, &mut out);
        return out;
    }
    let traced = &holds[1];
    per_layer(plain, traced, &opts, &open_ms, &mut out);
    out
}

fn end_to_end(h: &Hold, opts: &RoboTuneOptions, setup_s: &[f64], out: &mut Outcome) {
    let figs: Vec<SessionFigures> = h
        .gen
        .tenants
        .iter()
        .filter_map(|t| figures(t, opts))
        .collect();
    out.push(Metric::pct("setup_s", "s", percentile(setup_s, 50.0)));
    let walls: Vec<f64> = figs.iter().map(|f| f.session_s).collect();
    out.push(Metric::pct("session_s_p50", "s", percentile(&walls, 50.0)));
    let raw_ttnc = h.raw_ttnc(opts);
    let ttnc = scaled(&raw_ttnc, h.slowness());
    out.push(Metric::pct("ttnc_ms_p50", "ms", percentile(&ttnc, 50.0)));
    let ttfc: Vec<f64> = figs.iter().filter_map(|f| f.ttfc_ms).collect();
    out.push(Metric::pct("ttfc_ms_p50", "ms", percentile(&ttfc, 50.0)));
    out.push(Metric::pct("ttfc_ms_p90", "ms", percentile(&ttfc, 90.0)));
    let ratios: Vec<f64> = h
        .gen
        .tenants
        .iter()
        .zip(&h.rs_best)
        .filter_map(|(t, rs)| Some(t.finished.as_ref()?.best_time_s? / (*rs)?))
        .collect();
    out.push(Metric::value(
        "quality_vs_rs",
        "ratio",
        geomean(&ratios),
        ratios.len(),
    ));
    let tally = h.gen.tally;
    out.push(Metric::value(
        "ok_frac",
        "ratio",
        Some(tally.ok_frac()),
        tally.attempted as usize,
    ));
    out.push(Metric::value("peak_rss_mb", "MiB", peak_rss_mb(), 1));
    if tally.empty > 0 {
        out.note(format!(
            "{} sessions spent their budget without a completed run (counted in ok_frac)",
            tally.empty
        ));
    }
    let value = |v: Option<Pct>| v.map_or(f64::NAN, |p| p.value);
    out.note(format!(
        "host slowness: hold {:.3}; raw wall times: ttnc_ms_p50 {:.4} ms, ttnc_ms_p99 {:.4} ms",
        h.slowness(),
        value(percentile(&raw_ttnc, 50.0)),
        value(percentile(&raw_ttnc, 99.0)),
    ));
}

fn per_layer(
    plain: &Hold,
    traced: &Hold,
    opts: &RoboTuneOptions,
    open_ms: &[f64],
    out: &mut Outcome,
) {
    let g = &traced.gen;
    let n = g.tenants.len();
    let slowness = traced.slowness();
    let iters: Vec<f64> = plain
        .gen
        .tenants
        .iter()
        .filter_map(|t| figures(t, opts)?.iters_to_5pct)
        .map(|i| i as f64)
        .collect();
    out.push(Metric::value(
        "iters_to_5pct",
        "evals",
        mean(&iters),
        iters.len(),
    ));
    // The tail of the untimed pass, ungated: see the README.
    let ttnc = scaled(&plain.raw_ttnc(opts), plain.slowness());
    out.push(Metric::pct("ttnc_ms_p99", "ms", percentile(&ttnc, 99.0)));
    out.push(Metric::value(
        "sparksim.evals",
        "count",
        Some(g.sim_evals as f64),
        n,
    ));
    out.push(Metric::value(
        "sparksim.busy_ms",
        "ms",
        Some(g.sim_busy_ms / slowness),
        n,
    ));
    for (name, unit) in [
        ("select.runs", "count"),
        ("select.sample_ms", "ms"),
        ("select.rf_mda_ms", "ms"),
        ("sampling.initial_design_ms", "ms"),
        ("gp.refits", "count"),
        ("gp.refit_ms", "ms"),
        ("gp.refit_ms_p50", "ms"),
        ("gp.refit_ms_p99", "ms"),
        ("bo.suggests", "count"),
        ("bo.suggest_ms", "ms"),
        ("bo.suggest_ms_p50", "ms"),
        ("bo.suggest_ms_p99", "ms"),
        ("core.observe_ms", "ms"),
    ] {
        out.push(Metric::absent(name, unit));
    }
    let s = &traced.store;
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
        Some(s.busy_ms / slowness),
        n,
    ));
    out.push(Metric::value(
        "memo.selection_hit_ratio",
        "ratio",
        Some(s.selection_hit_ratio()),
        s.selection_lookups as usize,
    ));
    out.push(Metric::pct("memo.open_ms", "ms", percentile(open_ms, 50.0)));
    out.push(Metric::value(
        "tuners.rs_session_ms",
        "ms",
        Some(traced.rs_ms / slowness),
        n,
    ));
    out.push(Metric::pct(
        "service.create_rtt_ms_p50",
        "ms",
        percentile(&scaled(&g.create_rtt, slowness), 50.0),
    ));
    out.push(Metric::pct(
        "service.suggest_rtt_ms_p50",
        "ms",
        percentile(&scaled(&g.suggest_rtt, slowness), 50.0),
    ));
    out.push(Metric::pct(
        "service.suggest_rtt_ms_p99",
        "ms",
        percentile(&scaled(&g.suggest_rtt, slowness), 99.0),
    ));
    out.push(Metric::pct(
        "service.observe_rtt_ms_p50",
        "ms",
        percentile(&scaled(&g.observe_rtt, slowness), 50.0),
    ));
    out.push(Metric::pct(
        "service.observe_rtt_ms_p99",
        "ms",
        percentile(&scaled(&g.observe_rtt, slowness), 99.0),
    ));
    out.push(Metric::pct(
        "service.ping_rtt_ms_p50",
        "ms",
        percentile(&scaled(&g.ping_rtt, slowness), 50.0),
    ));
    out.push(Metric::pct(
        "service.ping_rtt_ms_p99",
        "ms",
        percentile(&scaled(&g.ping_rtt, slowness), 99.0),
    ));
    out.push(Metric::value(
        "service.queued_polls",
        "count",
        Some(g.queued_polls as f64),
        g.suggests as usize,
    ));
    let useful = g.useful as f64 / g.suggests.max(1) as f64;
    out.push(Metric::value(
        "service.suggest_useful_ratio",
        "ratio",
        Some(useful),
        g.suggests as usize,
    ));
    out.push(Metric::value(
        "service.timeouts",
        "count",
        Some(g.timeouts as f64),
        g.suggests as usize,
    ));
    out.push(Metric::pct(
        "loadgen.late_ms_p99",
        "ms",
        percentile(&g.late_ms, 99.0),
    ));
    out.push(Metric::value(
        "loadgen.open_sessions_max",
        "count",
        Some(g.open_max as f64),
        n,
    ));
    // Think time against the time a session held a worker: the rest is
    // the daemon's compute and the round trips.
    let figs: Vec<SessionFigures> = plain
        .gen
        .tenants
        .iter()
        .filter_map(|t| figures(t, opts))
        .collect();
    let think: f64 = figs.iter().map(|f| f.think_s).sum();
    let wall: f64 = figs.iter().map(|f| f.running_s).sum();
    out.push(Metric::value(
        "loadgen.think_frac",
        "ratio",
        (wall > 0.0).then(|| think / wall),
        figs.len(),
    ));
    out.push(Metric::value(
        "bench.host_slowness",
        "ratio",
        Some(slowness),
        g.speed.samples_ms.len(),
    ));
    let overhead = match (session_p50(traced, opts), session_p50(plain, opts)) {
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
