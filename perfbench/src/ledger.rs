//! The traced layer ledger: a workload's generated requests replayed
//! in-process through each layer's public functions, timed from outside.
//!
//! Serving layers: client encode → `protocol`/`frame` decode → WAL append →
//! `Engine` → online estimators → coupling PELT → snapshot → recovery.
//! Offline layers: model fit → `EvalBatch` build → `BatchEstimator` folds
//! → scalar `Estimator` → `ExperimentRunner` busy share.

use crate::machine::nproc;
use crate::Outcome;
use ddn_estimators::{
    ActionEmbedding, AdaptiveIps, AdaptiveWeights, BatchEstimator, DirectMethod, DoublyRobust,
    Estimate, EstimatorError, EvalBatch, ExperimentRunner, Ips, MarginalizedDr, MatchingEstimator,
    OnlineDm, OnlineDr, OnlineEstimator, OnlineIps, OnlineSnips, SelfNormalizedIps, SeqDr,
};
use ddn_loadgen::SessionWork;
use ddn_models::{ConstantModel, KnnConfig, KnnRegressor};
use ddn_policy::{LookupPolicy, Policy, UniformRandomPolicy};
use ddn_serve::engine::{COUPLING_MIN_SEGMENT, COUPLING_WINDOW};
use ddn_serve::protocol::{ingest_request_json, Request};
use ddn_serve::snapshot::{snapshot_path, wal_path};
use ddn_serve::{
    frame, read_snapshot, read_wal, write_snapshot, CouplingMonitor, Engine, ServeConfig,
    ShardDurability, WalWriter,
};
use ddn_stats::Json;
use ddn_trace::Trace;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::time::Instant;

/// The band the ratio of the replay's in-process sum for a verb to the
/// server's mean `handle_ns` for that verb must fall in, per workload.
/// The served figure carries what an isolated replay does not: a shard
/// thread woken from `recv` onto cold caches, and the allocator state of
/// a long-lived multi-threaded process. On bulk work (`stream` and
/// `offline` ingest and estimate, measured 0.64-1.05) that is small, and
/// the band is 0.4-2.5. On `fleet`'s tiny requests it dominates (ingest
/// measured 0.11-0.15, init 0.31-0.37, estimate 0.38-0.50), so its bands
/// sit lower and are as wide. A ratio outside its band means the replay
/// has lost or gained a layer that carries a large share of the verb's
/// cost; a layer worth a tenth of it moves the ratio within the band.
pub fn reconcile_band(workload: &str, verb: &str) -> (f64, f64) {
    match (workload, verb) {
        ("fleet", "ingest") => (0.04, 0.4),
        ("fleet", _) => (0.12, 1.25),
        _ => (0.4, 2.5),
    }
}

/// Verbs the server answered fewer times than this are reported but not
/// gated: a handful of requests (a `stream` run's re-inits) gives a mean
/// dominated by one-off costs.
pub const RECONCILE_MIN_REQUESTS: u64 = 100;

/// Nanosecond accumulator: total and count.
#[derive(Default, Clone, Copy)]
struct Acc {
    ns: f64,
    n: u64,
}

impl Acc {
    fn add(&mut self, t: Instant) {
        self.ns += t.elapsed().as_nanos() as f64;
        self.n += 1;
    }
    fn mean(&self) -> f64 {
        self.ns / self.n.max(1) as f64
    }
}

/// Per-verb in-process means the served figures are reconciled against.
#[derive(Default)]
pub struct ServingTimes {
    encode: [Acc; 3],
    decode: [Acc; 3],
    wal: [Acc; 3],
    engine: [Acc; 3],
    reply: [Acc; 3],
}

fn verb_index(verb: &str) -> usize {
    match verb {
        "init" => 0,
        "ingest" => 1,
        _ => 2,
    }
}

impl ServingTimes {
    /// Mean of what the shard worker times as `handle_ns` for an init:
    /// the WAL append (durable servers only) and `Engine::handle_init`.
    pub fn init_ns(&self, durable: bool) -> f64 {
        self.engine[0].mean() + if durable { self.wal[0].mean() } else { 0.0 }
    }
    pub fn ingest_ns(&self, durable: bool) -> f64 {
        self.engine[1].mean() + if durable { self.wal[1].mean() } else { 0.0 }
    }
    pub fn estimate_ns(&self) -> f64 {
        self.engine[2].mean()
    }
    /// In-process work outside the shard worker: client encode, server
    /// parse or frame decode, reply encode.
    pub fn client_side_ns(&self, verb: &str) -> f64 {
        let i = verb_index(verb);
        self.encode[i].mean() + self.decode[i].mean() + self.reply[i].mean()
    }
}

/// Checks one verb's replay against the server and records the ratio.
pub fn reconcile(
    out: &mut Outcome,
    workload: &str,
    verb: &str,
    in_process_ns: f64,
    served_handle_ns: f64,
    served: u64,
) {
    let ratio = in_process_ns / served_handle_ns.max(1.0);
    out.put(&format!("reconcile.{verb}_ratio"), ratio, "ratio");
    let (lo, hi) = reconcile_band(workload, verb);
    if served >= RECONCILE_MIN_REQUESTS && !(lo..=hi).contains(&ratio) {
        out.fail(format!(
            "reconciliation: in-process {workload} {verb} {in_process_ns:.0} ns vs served \
             handle_ns {served_handle_ns:.0} ns (ratio {ratio:.2}, allowed {lo}..{hi}); \
             the replay no longer represents the served path"
        ));
    }
}

fn shard_of(session: &str, shards: usize) -> usize {
    // The server's routing: std's default hasher over the session id.
    let mut h = DefaultHasher::new();
    session.hash(&mut h);
    (h.finish() % shards as u64) as usize
}

fn init_line(w: &SessionWork, bank: &[&str], id: u64) -> String {
    Json::object(vec![
        ("verb", Json::str("init")),
        ("session", Json::str(w.name.clone())),
        ("schema", w.trace.schema().to_json()),
        ("space", w.trace.space().to_json()),
        (
            "estimators",
            Json::Array(bank.iter().map(|e| Json::str(*e)).collect()),
        ),
        (
            "policy",
            Json::object(vec![
                ("kind", Json::str("constant")),
                ("decision", Json::str(w.decision_name.clone())),
            ]),
        ),
        ("model_value", Json::Num(0.0)),
        (
            "max_weight",
            Json::Num(ddn_serve::protocol::DEFAULT_MAX_WEIGHT),
        ),
        ("id", Json::Int(id as i64)),
    ])
    .to_string()
}

/// One shard of the replayed server: its engine, WAL and snapshot cadence.
struct ReplayShard {
    engine: Engine,
    wal: WalWriter,
    since_snapshot: u64,
    snapshots: u64,
}

/// Replays `works` the way the workload drove them (`passes` passes per
/// session, each an init, `frame` records per ingest, an estimate every
/// `estimate_every` ingests when non-zero and one at the end) and puts the
/// serving-layer ledger entries.
pub fn replay_serving(
    out: &mut Outcome,
    works: &[SessionWork],
    bank: &[&str],
    passes: usize,
    frame_records: usize,
    estimate_every: usize,
    dir: &Path,
) -> Result<ServingTimes, String> {
    let cfg = ServeConfig::default();
    let data = dir.join("replay");
    let _ = std::fs::remove_dir_all(&data);
    std::fs::create_dir_all(&data).map_err(|e| e.to_string())?;
    let io = |e: std::io::Error| e.to_string();
    let mut shards: Vec<ReplayShard> = (0..cfg.shards)
        .map(|s| {
            Ok(ReplayShard {
                engine: Engine::new(),
                wal: WalWriter::create(&wal_path(&data, s), 1).map_err(io)?,
                since_snapshot: 0,
                snapshots: 0,
            })
        })
        .collect::<Result<_, String>>()?;
    let mut t = ServingTimes::default();
    let (mut parse, mut decode, mut wal) = (Acc::default(), Acc::default(), Acc::default());
    let (mut save, mut write) = (Acc::default(), Acc::default());
    let (mut snap_bytes, mut wire_bytes, mut wal_bytes, mut records) = (0u64, 0u64, 0u64, 0u64);
    let mut id = 0u64;

    let mut log = |sh: &mut ReplayShard,
                   verb: usize,
                   payload: &dyn Fn() -> Vec<u8>,
                   t: &mut ServingTimes|
     -> Result<(), String> {
        let s = Instant::now();
        let bytes = payload();
        let before = sh.wal.bytes_written();
        sh.wal.append(&bytes).map_err(io)?;
        t.wal[verb].add(s);
        wal.add(s);
        wal_bytes += sh.wal.bytes_written() - before;
        sh.since_snapshot += 1;
        Ok(())
    };
    let mut maybe_snapshot =
        |sh: &mut ReplayShard, shard: usize, force: bool| -> Result<(), String> {
            if sh.since_snapshot < cfg.snapshot_every && !force {
                return Ok(());
            }
            let s = Instant::now();
            let sessions = sh.engine.state_save();
            save.add(s);
            let last = sh.wal.next_id() - 1;
            let payload = Json::object(vec![
                ("version", Json::Int(1)),
                ("last_frame_id", Json::Int(last as i64)),
                ("poisoned", Json::Array(Vec::new())),
                ("sessions", sessions),
            ]);
            let s = Instant::now();
            let path = snapshot_path(&data, shard);
            write_snapshot(&path, &payload).map_err(io)?;
            write.add(s);
            snap_bytes += std::fs::metadata(&path).map_err(io)?.len();
            sh.wal = WalWriter::create(&wal_path(&data, shard), last + 1).map_err(io)?;
            sh.since_snapshot = 0;
            sh.snapshots += 1;
            Ok(())
        };

    for w in works.iter().flat_map(|w| std::iter::repeat_n(w, passes)) {
        let shard = shard_of(&w.name, cfg.shards);
        let sh = &mut shards[shard];
        // init: client encode, server parse, WAL, engine, reply encode.
        let s = Instant::now();
        let line = init_line(w, bank, id);
        id += 1;
        t.encode[0].add(s);
        let s = Instant::now();
        let spec = match Request::parse(&line) {
            Ok(Request::Init(spec)) => spec,
            other => return Err(format!("replayed init did not parse: {other:?}")),
        };
        t.decode[0].add(s);
        parse.add(s);
        log(sh, 0, &|| spec.to_json().to_string().into_bytes(), &mut t)?;
        let s = Instant::now();
        let resp = sh.engine.handle_init(spec);
        t.engine[0].add(s);
        let s = Instant::now();
        std::hint::black_box(resp.to_string());
        t.reply[0].add(s);
        maybe_snapshot(sh, shard, false)?;

        let recs = w.trace.records();
        for (k, lo) in (0..recs.len()).step_by(frame_records).enumerate() {
            let chunk = &recs[lo..(lo + frame_records).min(recs.len())];
            let seq = k as u64;
            let s = Instant::now();
            let wire: Vec<u8> = if w.binary {
                frame::encode(&w.name, chunk, Some(seq), Some(id)).map_err(|e| e.to_string())?
            } else {
                let mut line = Json::object(vec![
                    ("verb", Json::str("ingest")),
                    ("session", Json::str(w.name.clone())),
                    (
                        "records",
                        Json::Array(chunk.iter().map(|r| r.to_json()).collect()),
                    ),
                    ("seq", Json::Int(seq as i64)),
                    ("id", Json::Int(id as i64)),
                ])
                .to_string();
                line.push('\n');
                line.into_bytes()
            };
            id += 1;
            t.encode[1].add(s);
            wire_bytes += wire.len() as u64;
            let s = Instant::now();
            let batch = if w.binary {
                let b = frame::decode(&wire).map_err(|e| format!("replayed frame: {e}"))?;
                decode.add(s);
                b.records
            } else {
                let text = std::str::from_utf8(&wire).map_err(|e| e.to_string())?;
                match Request::parse(text.trim()) {
                    Ok(Request::Ingest { records, .. }) => {
                        parse.add(s);
                        records
                    }
                    other => return Err(format!("replayed ingest did not parse: {other:?}")),
                }
            };
            t.decode[1].add(s);
            if w.binary {
                log(sh, 1, &|| wire.clone(), &mut t)?;
            } else {
                log(
                    sh,
                    1,
                    &|| {
                        ingest_request_json(&w.name, &batch, Some(seq))
                            .to_string()
                            .into_bytes()
                    },
                    &mut t,
                )?;
            }
            let s = Instant::now();
            let resp = sh.engine.handle_ingest(&w.name, &batch, Some(seq));
            t.engine[1].add(s);
            if resp.get("ok") != Some(&Json::Bool(true)) {
                return Err(format!("replayed ingest refused: {resp}"));
            }
            records += batch.len() as u64;
            let s = Instant::now();
            std::hint::black_box(resp.to_string());
            t.reply[1].add(s);
            maybe_snapshot(sh, shard, false)?;
            if estimate_every > 0 && (k + 1) % estimate_every == 0 {
                estimate(sh, &w.name, &mut t);
            }
        }
        estimate(sh, &w.name, &mut t);
    }
    // A shard the cadence never rotated still snapshots once, as its
    // next startup would, so every workload times the snapshot layer.
    for (shard, sh) in shards.iter_mut().enumerate() {
        if sh.snapshots == 0 && sh.engine.sessions() > 0 {
            maybe_snapshot(sh, shard, true)?;
        }
        sh.wal.sync().map_err(io)?;
    }

    out.put(
        "client.encode_ns",
        (t.encode[0].ns + t.encode[1].ns) / (t.encode[0].n + t.encode[1].n).max(1) as f64,
        "ns",
    );
    out.put(
        "client.wire_bytes_per_record",
        wire_bytes as f64 / records.max(1) as f64,
        "B",
    );
    out.put("protocol.parse_ns", parse.mean(), "ns");
    out.put("frame.decode_ns", decode.mean(), "ns");
    out.put("engine.init_ns", t.engine[0].mean(), "ns");
    out.put(
        "engine.ingest_ns_per_record",
        t.engine[1].ns / records.max(1) as f64,
        "ns",
    );
    out.put("engine.estimate_ns", t.engine[2].mean(), "ns");
    out.put("wal.append_ns", wal.mean(), "ns");
    out.put(
        "wal.bytes_per_record",
        wal_bytes as f64 / records.max(1) as f64,
        "B",
    );
    out.put("snapshot.state_save_ns", save.mean(), "ns");
    out.put("snapshot.write_ns", write.mean(), "ns");
    out.put(
        "snapshot.bytes",
        snap_bytes as f64 / write.n.max(1) as f64,
        "B",
    );
    out.put("snapshot.count", write.n as f64, "count");
    drop(shards);
    recovery_layers(out, &data, cfg.shards, cfg.snapshot_every)?;
    online_layers(out, works);
    coupling_layer(out, works);
    Ok(t)
}

fn estimate(sh: &mut ReplayShard, session: &str, t: &mut ServingTimes) {
    let s = Instant::now();
    let resp = sh.engine.handle_estimate(session);
    t.engine[2].add(s);
    let s = Instant::now();
    std::hint::black_box(resp.to_string());
    t.reply[2].add(s);
}

/// Reads back what the replay left on disk: the snapshot and WAL read, and
/// a full `ShardDurability::open` (restore, replay, self-heal).
fn recovery_layers(
    out: &mut Outcome,
    data: &Path,
    shards: usize,
    every: u64,
) -> Result<(), String> {
    let mut read = 0.0;
    let mut frames = 0u64;
    let mut open = 0.0;
    for s in 0..shards {
        let t = Instant::now();
        let snap = read_snapshot(&snapshot_path(data, s));
        let wal = read_wal(&wal_path(data, s)).map_err(|e| e.to_string())?;
        read += t.elapsed().as_nanos() as f64;
        std::hint::black_box(snap);
        frames += wal.frames.len() as u64;
        let t = Instant::now();
        let mut engine = Engine::new();
        let mut poisoned = HashSet::new();
        let (_, report) = ShardDurability::open(data, s, every, None, &mut engine, &mut poisoned)
            .map_err(|e| format!("recovering replay shard {s}: {e}"))?;
        open += t.elapsed().as_nanos() as f64;
        if report.truncated_frames > 0 {
            return Err(format!(
                "replay shard {s} recovered {} torn frames",
                report.truncated_frames
            ));
        }
    }
    out.put("recover.read_ns", read, "ns");
    out.put("recover.open_ns", open, "ns");
    out.put("recover.replay_frames", frames as f64, "count");
    Ok(())
}

type Online = Box<dyn OnlineEstimator + Send>;

fn online_estimator(name: &str, w: &SessionWork) -> Result<Online, EstimatorError> {
    let space = w.trace.space().clone();
    let policy = Box::new(LookupPolicy::constant(space.clone(), w.decision));
    let zero = Box::new(ConstantModel::new(0.0));
    Ok(match name {
        "ips" => Box::new(OnlineIps::new(space, policy)?),
        "snips" => Box::new(OnlineSnips::new(space, policy)?),
        "dm" => Box::new(OnlineDm::new(space, policy, zero)?),
        _ => Box::new(OnlineDr::new(space, policy, zero)?),
    })
}

/// Push and estimate cost of each default-bank online estimator over the
/// workload's records (at most 4096 sessions).
fn online_layers(out: &mut Outcome, works: &[SessionWork]) {
    let works = &works[..works.len().min(4096)];
    for name in ["ips", "snips", "dm", "dr"] {
        let mut ests: Vec<Online> = works
            .iter()
            .filter_map(|w| online_estimator(name, w).ok())
            .collect();
        let mut n = 0u64;
        let t = Instant::now();
        for (e, w) in ests.iter_mut().zip(works) {
            for r in w.trace.records() {
                let _ = e.push(r);
            }
            n += w.trace.len() as u64;
        }
        let push = t.elapsed().as_nanos() as f64 / n.max(1) as f64;
        let t = Instant::now();
        for e in &ests {
            std::hint::black_box(e.estimate().ok());
        }
        let est = t.elapsed().as_nanos() as f64 / ests.len().max(1) as f64;
        out.put(&format!("online.{name}.push_ns"), push, "ns");
        out.put(&format!("online.{name}.estimate_ns"), est, "ns");
    }
}

/// `CouplingMonitor::changepoints` over each session's final window (at
/// most 256 sessions; the full 2048-reward window when the session is that
/// long).
fn coupling_layer(out: &mut Outcome, works: &[SessionWork]) {
    let mut acc = Acc::default();
    for w in works.iter().take(256) {
        let mut m = CouplingMonitor::new(COUPLING_WINDOW, COUPLING_MIN_SEGMENT);
        let recs = w.trace.records();
        for r in &recs[recs.len().saturating_sub(COUPLING_WINDOW)..] {
            m.push(r.reward);
        }
        let s = Instant::now();
        std::hint::black_box(m.changepoints());
        acc.add(s);
    }
    out.put("coupling.changepoints_ns", acc.mean(), "ns");
}

/// One logged trace and the target policy it is evaluated under.
pub struct EvalCase {
    pub trace: Trace,
    pub policy: Box<dyn Policy + Send + Sync>,
}

impl EvalCase {
    pub fn of_work(w: &SessionWork) -> EvalCase {
        EvalCase {
            trace: w.trace.clone(),
            policy: Box::new(LookupPolicy::constant(w.trace.space().clone(), w.decision)),
        }
    }

    /// The first `n` records of a session (long sessions would make the
    /// k-NN scoring quadratic).
    pub fn prefix_of_work(w: &SessionWork, n: usize) -> EvalCase {
        let recs = w.trace.records();
        let trace = Trace::from_records(
            w.trace.schema().clone(),
            w.trace.space().clone(),
            recs[..n.min(recs.len())].to_vec(),
        )
        .expect("a prefix of a valid trace is valid");
        EvalCase {
            trace,
            policy: Box::new(LookupPolicy::constant(w.trace.space().clone(), w.decision)),
        }
    }
}

/// Trajectory length the `seqdr` fold reads consecutive records as.
const SEQ_HORIZON: usize = 4;

const FOLDS: [&str; 8] = [
    "ips", "snips", "dm", "dr", "matching", "adaptive", "mdr", "seqdr",
];

/// Runs fold `name` columnar (over `batch`) and scalar.
fn fold(
    name: &str,
    case: &EvalCase,
    knn: &KnnRegressor,
    batch: &EvalBatch,
    columnar: bool,
) -> Result<Estimate, EstimatorError> {
    let (tr, p) = (&case.trace, case.policy.as_ref());
    macro_rules! run {
        ($e:expr) => {{
            let e = $e;
            if columnar {
                e.estimate_batch(tr, batch)
            } else {
                ddn_estimators::Estimator::estimate(&e, tr, p)
            }
        }};
    }
    match name {
        "ips" => run!(Ips::new()),
        "snips" => run!(SelfNormalizedIps::new()),
        "dm" => run!(DirectMethod::new(knn)),
        "dr" => run!(DoublyRobust::new(knn)),
        "matching" => run!(MatchingEstimator::new()),
        "adaptive" => run!(AdaptiveIps::new(AdaptiveWeights::Stabilized)),
        // The menu panel's forms, not their plain-DR reductions: arms
        // grouped in threes, and multi-step trajectories.
        "mdr" => run!(MarginalizedDr::new(
            knn,
            ActionEmbedding::from_groups((0..tr.space().len()).map(|a| a / 3).collect()),
            Box::new(UniformRandomPolicy::new(tr.space().clone())),
        )),
        _ => run!(SeqDr::new(knn, SEQ_HORIZON)),
    }
}

fn same(a: &Result<Estimate, EstimatorError>, b: &Result<Estimate, EstimatorError>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => x.value.to_bits() == y.value.to_bits(),
        (Err(x), Err(y)) => format!("{x:?}") == format!("{y:?}"),
        _ => false,
    }
}

/// The offline-path ledger over `cases`: k-NN fit, `EvalBatch` build,
/// every fold columnar (checked bit-identical to scalar), scalar DR, and
/// the runner's busy share (`busy_share` when the caller measured it from
/// the panels' own spans, otherwise a runner pass over `cases`).
pub fn offline_layers(
    out: &mut Outcome,
    cases: &[EvalCase],
    sim_ns_per_record: f64,
    busy_share: Option<f64>,
) -> Result<(), String> {
    let knn_cfg = KnnConfig::default();
    let (mut fit, mut build) = (Acc::default(), 0.0);
    let mut fold_ns = [0.0f64; FOLDS.len()];
    let mut scalar_dr = 0.0;
    let mut n = 0u64;
    for case in cases {
        let s = Instant::now();
        let knn = KnnRegressor::fit(&case.trace, knn_cfg);
        fit.add(s);
        let s = Instant::now();
        let batch = EvalBatch::with_model(&case.trace, case.policy.as_ref(), &knn)
            .map_err(|e| format!("EvalBatch: {e}"))?;
        build += s.elapsed().as_nanos() as f64;
        for (i, name) in FOLDS.iter().enumerate() {
            let s = Instant::now();
            let col = fold(name, case, &knn, &batch, true);
            fold_ns[i] += s.elapsed().as_nanos() as f64;
            let s = Instant::now();
            let sca = fold(name, case, &knn, &batch, false);
            if *name == "dr" {
                scalar_dr += s.elapsed().as_nanos() as f64;
            }
            if !same(&col, &sca) {
                out.fail(format!("{name}: columnar {col:?} != scalar {sca:?}"));
            }
        }
        n += case.trace.len() as u64;
    }
    let per = |ns: f64| ns / n.max(1) as f64;
    out.put("sim.ns_per_record", sim_ns_per_record, "ns");
    out.put("models.fit_ns", fit.mean(), "ns");
    out.put("batch.build_ns_per_record", per(build), "ns");
    for (name, ns) in FOLDS.iter().zip(fold_ns) {
        out.put(&format!("fold.{name}_ns_per_record"), per(ns), "ns");
    }
    out.put("scalar.dr_ns_per_record", per(scalar_dr), "ns");
    let share = match busy_share {
        Some(s) => s,
        None => runner_busy_share(cases)?,
    };
    out.put("runner.busy_share", share, "ratio");
    Ok(())
}

/// Σ run time / (wall × threads) of an `ExperimentRunner` pass scoring
/// every case with scalar DR.
fn runner_busy_share(cases: &[EvalCase]) -> Result<f64, String> {
    let threads = nproc();
    let runner = ExperimentRunner::new(cases.len().max(1), 0);
    let (_, snap) = runner.run_parallel_instrumented(threads, |seed| {
        let case = &cases[seed as usize];
        let knn = KnnRegressor::fit(&case.trace, KnnConfig::default());
        let v = ddn_estimators::Estimator::estimate(
            &DoublyRobust::new(&knn),
            &case.trace,
            case.policy.as_ref(),
        )
        .map(|e| e.value)
        .unwrap_or(0.0);
        (
            1.0,
            vec![("DR".to_string(), if v.is_finite() { v } else { 0.0 })],
        )
    });
    let j = snap.to_json();
    let total = |path: &str| {
        j.get("timings")
            .and_then(|t| t.get(path))
            .and_then(|t| t.get("total_ns"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let wall = total("experiment");
    if wall <= 0.0 {
        return Err("runner pass recorded no wall time".into());
    }
    Ok(total("run") / (wall * threads as f64))
}
