//! The serving workloads: `ddn serve` as a child process, driven closed
//! loop with one connection per core through `ServeClient`.
//!
//! - `fleet`: many short mixed sessions (IPS-only bank, in-memory server).
//! - `stream`: one long session per connection (default bank, durable
//!   server), then `kill -9`, restart and re-read.

use crate::ledger;
use crate::machine::{nproc, StealMonitor, Tally, Windows, DRIVE_STRETCH, MIN_SAMPLES};
use crate::{put_latency, put_setup, put_throughput, Args, Outcome, Sample};
use ddn_estimators::{DirectMethod, DoublyRobust, Estimator, Ips, SelfNormalizedIps};
use ddn_loadgen::{Fleet, Framing, ScenarioKind, Schedule, SessionWork};
use ddn_models::ConstantModel;
use ddn_netsim::RateProfile;
use ddn_policy::LookupPolicy;
use ddn_serve::ServeClient;
use ddn_stats::Json;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The IPS-only bank `fleet` sessions run.
pub const FLEET_BANK: &[&str] = &["ips"];
/// The full default bank `stream` sessions run.
pub const STREAM_BANK: &[&str] = &["ips", "snips", "dm", "dr"];
/// Records per `fleet` session, sent in batches of [`FLEET_BATCH`].
const FLEET_RECORDS: usize = 3;
pub const FLEET_BATCH: usize = 2;
/// Sessions a `fleet` connection drives wave by wave before checking the
/// clock.
const FLEET_CHUNK: usize = 64;
/// Distinct `fleet` session ids; far more than the sessions in flight.
const FLEET_POOL: usize = 16_384;
/// Records per `stream` session and per binary frame.
const STREAM_RECORDS: usize = 200_000;
pub const STREAM_FRAME: usize = 256;
/// A `stream` connection reads its session's estimate every this many
/// frames.
pub const STREAM_ESTIMATE_EVERY: usize = 64;
/// Launches the set-up phase's kept windows hold at least.
const SETUP_LAUNCHES: u32 = 30;

static LAUNCHES: AtomicUsize = AtomicUsize::new(0);

/// A `ddn serve` child process.
pub struct Server {
    child: Option<Child>,
    pub addr: String,
}

impl Server {
    /// Starts `ddn serve` with its shipped defaults plus a port file (and a
    /// data directory when durable). Returns the server and the seconds
    /// from spawn until its first reply.
    pub fn launch(
        ddn: &Path,
        dir: &Path,
        data_dir: Option<&Path>,
    ) -> Result<(Server, f64), String> {
        let n = LAUNCHES.fetch_add(1, Ordering::Relaxed);
        let port_file = dir.join(format!("port-{n}"));
        let _ = std::fs::remove_file(&port_file);
        let started = Instant::now();
        let mut cmd = Command::new(ddn);
        cmd.arg("serve").arg("--port-file").arg(&port_file);
        if let Some(d) = data_dir {
            cmd.arg("--data-dir").arg(d);
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", ddn.display()))?;
        let mut server = Server {
            child: Some(child),
            addr: String::new(),
        };
        let deadline = started + Duration::from_secs(60);
        loop {
            if let Ok(s) = std::fs::read_to_string(&port_file) {
                if s.ends_with('\n') {
                    server.addr = s.trim().to_string();
                    break;
                }
            }
            if let Some(status) = server
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten())
            {
                return Err(format!("ddn serve exited early: {status}"));
            }
            if Instant::now() > deadline {
                return Err("ddn serve never wrote its port file".into());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        let mut client = ServeClient::connect(&server.addr).map_err(|e| e.to_string())?;
        client.server_stats(false).map_err(|e| e.to_string())?;
        Ok((server, started.elapsed().as_secs_f64()))
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_mb(&format!("/proc/{}/status", self.pid()))
    }

    /// `kill -9`, then reap.
    pub fn kill9(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }

    /// Graceful stop through the `shutdown` verb; falls back to a kill.
    pub fn stop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let asked = ServeClient::connect(&self.addr).and_then(|mut cl| cl.shutdown());
            if asked.is_ok() {
                let deadline = Instant::now() + Duration::from_secs(10);
                while Instant::now() < deadline {
                    if let Ok(Some(_)) = c.try_wait() {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill9();
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB.
pub fn vm_hwm_mb(status_path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{status_path} has no VmHWM"))
}

/// Launches the server again and again for a set-up phase (each durable
/// launch on a fresh data directory), puts `setup_s`, and keeps the last
/// launch running. Returns it and its data directory.
fn launch_measured(
    args: &Args,
    dir: &Path,
    durable: bool,
    out: &mut Outcome,
) -> Result<(Server, PathBuf), String> {
    let mut last: Option<(Server, PathBuf)> = None;
    let mut i = 0;
    put_setup(out, SETUP_LAUNCHES, || {
        if let Some((mut server, data)) = last.take() {
            server.stop();
            let _ = std::fs::remove_dir_all(&data);
        }
        let data = dir.join(format!("data-{i}"));
        i += 1;
        let (server, secs) = Server::launch(&args.ddn, dir, durable.then_some(data.as_path()))?;
        last = Some((server, data));
        Ok(secs)
    })?;
    Ok(last.expect("a set-up phase runs at least one step"))
}

/// The request kinds a drive times.
#[derive(Clone, Copy, PartialEq)]
enum Verb {
    Init,
    Ingest,
    Estimate,
}

/// One connection's (or the merged) drive record.
pub struct Drive {
    /// When the drive began; sample times count from here.
    t0: Instant,
    /// How long the merged drive took.
    pub secs: f64,
    pub init_ns: Vec<Sample>,
    pub ingest_ns: Vec<Sample>,
    pub estimate_ns: Vec<Sample>,
    /// Records acknowledged, in total and per acknowledging request.
    pub records: u64,
    pub acked: Vec<Sample>,
    /// Requests attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    pub retries: u64,
    /// `(work index, estimate response)` for every completed session pass.
    pub estimates: Vec<(usize, Json)>,
    pub errors: Vec<String>,
    /// Where a connection's latency samples are counted while it drives.
    tally: Option<Tally>,
}

impl Drive {
    pub fn new(t0: Instant) -> Drive {
        Drive {
            t0,
            tally: None,
            secs: 0.0,
            init_ns: Vec::new(),
            ingest_ns: Vec::new(),
            estimate_ns: Vec::new(),
            records: 0,
            acked: Vec::new(),
            attempted: 0,
            failed: 0,
            retries: 0,
            estimates: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// A connection's drive, its samples counted by `gate`.
    fn on(gate: &StealMonitor) -> Drive {
        Drive {
            tally: Some(gate.tally()),
            ..Drive::new(gate.t0())
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Counts `n` records acknowledged just now.
    fn ack(&mut self, n: usize) {
        self.records += n as u64;
        let end = self.now();
        self.acked.push(Sample {
            end,
            value: n as u64,
        });
    }

    fn merge(&mut self, o: Drive) {
        self.init_ns.extend(o.init_ns);
        self.ingest_ns.extend(o.ingest_ns);
        self.estimate_ns.extend(o.estimate_ns);
        self.records += o.records;
        self.acked.extend(o.acked);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.retries += o.retries;
        self.estimates.extend(o.estimates);
        self.errors.extend(o.errors);
    }

    /// Times one request of kind `verb`, counting it and any failure.
    fn timed(
        &mut self,
        verb: Verb,
        call: impl FnOnce() -> Result<Json, ddn_serve::ClientError>,
    ) -> Option<Json> {
        self.attempted += 1;
        let t = Instant::now();
        let r = call();
        let ns = t.elapsed().as_nanos() as u64;
        match r {
            Ok(resp) => {
                let end = self.now();
                let bucket = match verb {
                    Verb::Init => &mut self.init_ns,
                    Verb::Ingest => &mut self.ingest_ns,
                    Verb::Estimate => &mut self.estimate_ns,
                };
                bucket.push(Sample { end, value: ns });
                if let Some(t) = &self.tally {
                    t.count((verb == Verb::Estimate) as usize, end);
                }
                Some(resp)
            }
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 4 {
                    self.errors.push(e.to_string());
                }
                None
            }
        }
    }
}

fn init(
    c: &mut ServeClient,
    w: &SessionWork,
    bank: &[&str],
) -> Result<Json, ddn_serve::ClientError> {
    c.init(
        &w.name,
        w.trace.schema(),
        w.trace.space(),
        bank,
        &w.decision_name,
        0.0,
        None,
    )
}

fn ingest(
    c: &mut ServeClient,
    w: &SessionWork,
    lo: usize,
    hi: usize,
) -> Result<Json, ddn_serve::ClientError> {
    let chunk = &w.trace.records()[lo..hi];
    if w.binary {
        c.ingest_binary(&w.name, chunk)
    } else {
        c.ingest(&w.name, chunk)
    }
}

/// Closed-loop `fleet` drive on one connection: chunks of sessions, each
/// chunk an init wave, the ingest waves, then an estimate wave.
fn fleet_conn(addr: &str, works: &[(usize, &SessionWork)], gate: &StealMonitor) -> Drive {
    let mut d = Drive::on(gate);
    let mut c = match ServeClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            d.attempted = 1;
            d.failed = 1;
            d.errors.push(e.to_string());
            return d;
        }
    };
    let waves = FLEET_RECORDS.div_ceil(FLEET_BATCH);
    for chunk in works.chunks(FLEET_CHUNK) {
        for (_, w) in chunk {
            d.timed(Verb::Init, || init(&mut c, w, FLEET_BANK));
        }
        for wave in 0..waves {
            for (_, w) in chunk {
                let lo = wave * FLEET_BATCH;
                let hi = (lo + FLEET_BATCH).min(w.trace.len());
                if lo >= hi {
                    continue;
                }
                if d.timed(Verb::Ingest, || ingest(&mut c, w, lo, hi))
                    .is_some()
                {
                    d.ack(hi - lo);
                }
            }
        }
        for (i, w) in chunk {
            if let Some(resp) = d.timed(Verb::Estimate, || c.estimate(&w.name)) {
                d.estimates.push((*i, resp));
            }
        }
        if gate.done() || d.failed > 0 {
            break;
        }
    }
    d.retries = c.stats().retry_attempts();
    d
}

/// Closed-loop `stream` drive on one connection: its session is
/// initialized, fed in binary frames with an estimate read every
/// [`STREAM_ESTIMATE_EVERY`] frames, read once more at the end, and
/// re-initialized for another pass until the drive may stop (at least
/// one pass).
fn stream_conn(addr: &str, index: usize, w: &SessionWork, gate: &StealMonitor) -> Drive {
    let mut d = Drive::on(gate);
    let mut c = match ServeClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            d.attempted = 1;
            d.failed = 1;
            d.errors.push(e.to_string());
            return d;
        }
    };
    loop {
        d.timed(Verb::Init, || init(&mut c, w, STREAM_BANK));
        let n = w.trace.len();
        for (k, lo) in (0..n).step_by(STREAM_FRAME).enumerate() {
            let hi = (lo + STREAM_FRAME).min(n);
            if d.timed(Verb::Ingest, || ingest(&mut c, w, lo, hi))
                .is_some()
            {
                d.ack(hi - lo);
            }
            if (k + 1) % STREAM_ESTIMATE_EVERY == 0 {
                d.timed(Verb::Estimate, || c.estimate(&w.name));
            }
        }
        if let Some(resp) = d.timed(Verb::Estimate, || c.estimate(&w.name)) {
            d.estimates.push((index, resp));
        }
        if gate.done() || d.failed > 0 {
            break;
        }
    }
    d.retries = c.stats().retry_attempts();
    d
}

/// Runs one closure per connection on its own thread, each driving until
/// the steal monitor `gate` says the drive may stop, and merges the
/// drives; returns the merged drive and its windows.
fn run_conns<F>(conns: usize, t0: Instant, gate: StealMonitor, f: F) -> (Drive, Windows)
where
    F: Fn(usize, &StealMonitor) -> Drive + Sync,
{
    let drives: Vec<Drive> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|i| {
                let (f, gate) = (&f, &gate);
                s.spawn(move || f(i, gate))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection threads do not panic"))
            .collect()
    });
    let secs = t0.elapsed().as_secs_f64();
    let mut all = Drive::new(t0);
    for d in drives {
        all.merge(d);
    }
    all.secs = secs;
    (all, gate.stop(secs))
}

/// The `stats` verb's registry snapshot.
pub fn server_stats(addr: &str) -> Result<Json, String> {
    let mut c = ServeClient::connect(addr).map_err(|e| e.to_string())?;
    let resp = c.server_stats(false).map_err(|e| e.to_string())?;
    resp.get("stats")
        .cloned()
        .ok_or_else(|| format!("stats reply lacks \"stats\": {resp}"))
}

pub fn counter(stats: &Json, name: &str) -> u64 {
    stats
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// `(sum, count)` over every per-shard histogram named
/// `serve.req.<verb>.<kind>_ns.s<shard>`.
pub fn hist_sum_count(stats: &Json, verb: &str, kind: &str) -> (f64, u64) {
    let prefix = format!("serve.req.{verb}.{kind}_ns.s");
    let mut sum = 0.0;
    let mut count = 0;
    if let Some(hs) = stats.get("histograms").and_then(Json::as_object) {
        for (name, h) in hs {
            if name.starts_with(&prefix) {
                sum += h.get("sum").and_then(Json::as_f64).unwrap_or(0.0);
                count += h.get("count").and_then(Json::as_u64).unwrap_or(0);
            }
        }
    }
    (sum, count)
}

/// The scalar offline estimate of `name` on a session's whole trace.
fn offline_value(w: &SessionWork, name: &str) -> Result<f64, String> {
    let policy = LookupPolicy::constant(w.trace.space().clone(), w.decision);
    let zero = ConstantModel::new(0.0);
    let est = match name {
        "ips" => Ips::new().estimate(&w.trace, &policy),
        "snips" => SelfNormalizedIps::new().estimate(&w.trace, &policy),
        "dm" => DirectMethod::new(zero).estimate(&w.trace, &policy),
        "dr" => DoublyRobust::new(zero).estimate(&w.trace, &policy),
        other => return Err(format!("no offline estimator for {other:?}")),
    };
    est.map(|e| e.value)
        .map_err(|e| format!("offline {name} on {}: {e}", w.name))
}

/// Every estimator in the bank must equal the scalar offline estimator on
/// the session's records, to the last bit.
fn check_estimates(
    out: &mut Outcome,
    works: &[SessionWork],
    bank: &[&str],
    estimates: &[(usize, Json)],
) {
    let mut want: Vec<Option<Vec<u64>>> = vec![None; works.len()];
    for (i, resp) in estimates {
        let w = &works[*i];
        if resp.get("n").and_then(Json::as_u64) != Some(w.trace.len() as u64) {
            out.fail(format!(
                "{}: estimate reply counts {:?} records, sent {}",
                w.name,
                resp.get("n"),
                w.trace.len()
            ));
            return;
        }
        if want[*i].is_none() {
            let mut bits = Vec::with_capacity(bank.len());
            for name in bank {
                match offline_value(w, name) {
                    Ok(v) => bits.push(v.to_bits()),
                    Err(e) => {
                        out.fail(e);
                        return;
                    }
                }
            }
            want[*i] = Some(bits);
        }
        let bits = want[*i].as_ref().expect("filled above");
        for (name, want_bits) in bank.iter().zip(bits) {
            let got = resp
                .get("estimates")
                .and_then(|e| e.get(name))
                .and_then(|e| e.get("value"))
                .and_then(Json::as_f64);
            if got.map(f64::to_bits) != Some(*want_bits) {
                out.fail(format!(
                    "{}: served {name} {got:?} != offline {}",
                    w.name,
                    f64::from_bits(*want_bits)
                ));
                return;
            }
        }
    }
}

/// Realizes `plans` into session work, in parallel over contiguous chunks
/// (each plan's records are a pure function of its seed). Returns the
/// work and the realization's nanoseconds per record.
fn realize(
    fleet: &Fleet,
    plans: &[ddn_loadgen::SessionPlan],
    records: usize,
) -> (Vec<SessionWork>, f64) {
    let t = Instant::now();
    let threads = nproc().min(plans.len()).max(1);
    let chunk = plans.len().div_ceil(threads);
    let works: Vec<SessionWork> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .chunks(chunk)
            .map(|ps| {
                s.spawn(move || {
                    ps.iter()
                        .map(|p| fleet.realize(p, records))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("realizer threads do not panic"))
            .collect()
    });
    let n: usize = works.iter().map(|w| w.trace.len()).sum();
    // Wall time × threads approximates the per-record cost of one core.
    let ns = t.elapsed().as_nanos() as f64 * threads as f64 / n.max(1) as f64;
    (works, ns)
}

/// Shared end-to-end metrics of a served drive.
fn put_drive_metrics(out: &mut Outcome, d: &Drive, w: &Windows, rss: f64) {
    out.attempted += d.attempted;
    out.failed += d.failed;
    put_throughput(out, &d.acked, w);
    let mut write = d.ingest_ns.clone();
    write.extend(&d.init_ns);
    put_latency(out, "write", &write, w);
    put_latency(out, "read", &d.estimate_ns, w);
    w.note(out, "");
    let secs = d.secs;
    out.put("peak_rss_mb", rss, "MiB");
    out.note("drive_seconds", Json::Num(secs));
    out.note("records", Json::Int(d.records as i64));
    if !d.errors.is_empty() {
        out.fail(format!(
            "{} failed requests, first: {}",
            d.failed, d.errors[0]
        ));
    }
}

/// Server-side and residual ledger entries from one `stats` snapshot.
pub fn put_server_layers(
    out: &mut Outcome,
    workload: &str,
    stats: &Json,
    d: &Drive,
    local: &ledger::ServingTimes,
    durable: bool,
) {
    let mean_client =
        |v: &[Sample]| v.iter().map(|s| s.value).sum::<u64>() as f64 / v.len().max(1) as f64;
    for (verb, samples, in_process) in [
        ("init", &d.init_ns, local.init_ns(durable)),
        ("ingest", &d.ingest_ns, local.ingest_ns(durable)),
        ("estimate", &d.estimate_ns, local.estimate_ns()),
    ] {
        let (qs, qn) = hist_sum_count(stats, verb, "queue");
        let (hs, hn) = hist_sum_count(stats, verb, "handle");
        let queue = qs / qn.max(1) as f64;
        let handle = hs / hn.max(1) as f64;
        out.put(&format!("server.{verb}.queue_ns"), queue, "ns");
        out.put(&format!("server.{verb}.handle_ns"), handle, "ns");
        // The client-observed mean minus the in-process layers below it:
        // transport, event loop, dispatcher hop and shard queue.
        let below = local.client_side_ns(verb) + in_process;
        out.put(
            &format!("residual.{verb}_ns"),
            mean_client(samples) - below,
            "ns",
        );
        ledger::reconcile(out, workload, verb, in_process, handle, hn);
    }
    out.put(
        "server.backpressure_stalls",
        counter(stats, "serve.backpressure.stalls") as f64,
        "count",
    );
    out.put(
        "server.dedup_replays",
        counter(stats, "serve.dedup.replays") as f64,
        "count",
    );
    out.put("client.retries", d.retries as f64, "count");
}

/// Time from `kill -9` until a restarted server gives `correct` replies.
fn restart_ms(
    args: &Args,
    dir: &Path,
    server: &mut Server,
    data: Option<&Path>,
    correct: impl Fn(&str) -> bool,
) -> Result<(Server, f64), String> {
    let t = Instant::now();
    server.kill9();
    let (restarted, _) = Server::launch(&args.ddn, dir, data)?;
    let deadline = Instant::now() + Duration::from_secs(60);
    while !correct(&restarted.addr) {
        if Instant::now() > deadline {
            return Err("restarted server never answered correctly".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok((restarted, t.elapsed().as_secs_f64() * 1e3))
}

pub fn fleet(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let conns = nproc();
    // Enough sessions for 30k records/s, about twice the fastest fleet
    // throughput seen when the benchmark was defined; a server that runs
    // out early is measured over the time it took.
    let sessions = (args.seconds * 10_000.0).ceil() as usize;
    let schedule = Schedule::generate(
        sessions,
        &RateProfile::Constant(1e6),
        args.seed,
        Framing::Mixed,
    )?;
    let fleet = Fleet::new(args.seed);
    let (mut works, sim_ns) = realize(&fleet, &schedule.plans, FLEET_RECORDS);
    // Session ids recycle through a fixed pool, as a long-lived fleet's
    // do: a re-init replaces the pool slot's finished session, so server
    // memory tracks the pool, not how many sessions the run reached.
    for (i, w) in works.iter_mut().enumerate() {
        w.name = format!("fl-{}-{:05}", w.kind.name(), i % FLEET_POOL);
    }

    let mut out = Outcome::default();
    let (mut server, _) = launch_measured(args, dir, false, &mut out)?;
    let before = counter(&server_stats(&server.addr)?, "serve.ingest.records");
    let t0 = Instant::now();
    let gate = StealMonitor::start(t0, args.seconds, DRIVE_STRETCH, [MIN_SAMPLES; 2]);
    let mine = |c: usize| -> Vec<(usize, &SessionWork)> {
        works.iter().enumerate().skip(c).step_by(conns).collect()
    };
    let (d, windows) = run_conns(conns, t0, gate, |c, gate| {
        fleet_conn(&server.addr, &mine(c), gate)
    });
    let stats = server_stats(&server.addr)?;
    let rss = server.peak_rss_mb()?;
    put_drive_metrics(&mut out, &d, &windows, rss);
    let served = counter(&stats, "serve.ingest.records") - before;
    if served != d.records {
        out.fail(format!(
            "exactly-once violated: sent {} records, server counted {served}",
            d.records
        ));
    }
    check_estimates(&mut out, &works, FLEET_BANK, &d.estimates);
    out.note("sessions_driven", Json::Int(d.estimates.len() as i64));

    if args.trace {
        out.metrics.clear();
        let driven: Vec<SessionWork> = {
            let mut idx: Vec<usize> = d.estimates.iter().map(|(i, _)| *i).collect();
            idx.sort_unstable();
            idx.truncate(8192);
            idx.into_iter().map(|i| clone_work(&works[i])).collect()
        };
        let local = ledger::replay_serving(&mut out, &driven, FLEET_BANK, 1, FLEET_BATCH, 0, dir)?;
        put_server_layers(&mut out, "fleet", &stats, &d, &local, false);
        let (mut restarted, ms) = restart_ms(args, dir, &mut server, None, |addr| {
            server_stats(addr).is_ok_and(|s| counter(&s, "serve.ingest.records") == 0)
        })?;
        restarted.stop();
        out.put("recover.restart_ms", ms, "ms");
        let cases: Vec<ledger::EvalCase> = driven
            .iter()
            .take(512)
            .map(ledger::EvalCase::of_work)
            .collect();
        ledger::offline_layers(&mut out, &cases, sim_ns, None)?;
    } else {
        server.stop();
    }
    Ok(out)
}

fn clone_work(w: &SessionWork) -> SessionWork {
    SessionWork {
        name: w.name.clone(),
        kind: w.kind,
        at: w.at,
        binary: w.binary,
        decision: w.decision,
        decision_name: w.decision_name.clone(),
        trace: w.trace.clone(),
    }
}

/// The `stream` sessions: one per connection, alternating CDN and relay
/// worlds, binary framing.
fn stream_works(seed: u64, conns: usize) -> Result<(Vec<SessionWork>, f64), String> {
    let schedule = Schedule::generate(64, &RateProfile::Constant(1e3), seed, Framing::Binary)?;
    let kinds = [ScenarioKind::Cdn, ScenarioKind::Relay];
    let mut plans = Vec::with_capacity(conns);
    for c in 0..conns {
        let kind = kinds[c % kinds.len()];
        let plan = schedule
            .plans
            .iter()
            .filter(|p| p.kind == kind)
            .nth(c / kinds.len())
            .ok_or("schedule too small for the stream sessions")?;
        plans.push(plan.clone());
    }
    let fleet = Fleet::new(seed);
    let (mut works, sim_ns) = realize(&fleet, &plans, STREAM_RECORDS);
    for (c, w) in works.iter_mut().enumerate() {
        w.name = format!("st-{}-{c}", w.kind.name());
    }
    Ok((works, sim_ns))
}

/// Drives `works` as stream sessions against a running server and checks
/// exactly-once and estimate parity. Shared by `stream` and the traced run
/// of `offline`.
pub fn stream_drive(
    addr: &str,
    works: &[SessionWork],
    seconds: f64,
    out: &mut Outcome,
) -> Result<(Drive, Windows), String> {
    let before = counter(&server_stats(addr)?, "serve.ingest.records");
    let t0 = Instant::now();
    let gate = StealMonitor::start(t0, seconds, DRIVE_STRETCH, [MIN_SAMPLES; 2]);
    let conns = works.len().min(nproc()).max(1);
    let (d, windows) = run_conns(conns, t0, gate, |c, gate| {
        let mut all = Drive::new(t0);
        for (i, w) in works.iter().enumerate().skip(c).step_by(conns) {
            all.merge(stream_conn(addr, i, w, gate));
        }
        all
    });
    let served = counter(&server_stats(addr)?, "serve.ingest.records") - before;
    if served != d.records {
        out.fail(format!(
            "exactly-once violated: sent {} records, server counted {served}",
            d.records
        ));
    }
    check_estimates(out, works, STREAM_BANK, &d.estimates);
    Ok((d, windows))
}

/// Every session's current estimate, minus the per-request id.
pub fn read_all(addr: &str, works: &[SessionWork]) -> Result<Vec<String>, String> {
    let mut c = ServeClient::connect(addr).map_err(|e| e.to_string())?;
    works
        .iter()
        .map(|w| {
            let r = c.estimate(&w.name).map_err(|e| e.to_string())?;
            Ok(format!(
                "{:?}|{:?}",
                r.get("n"),
                r.get("estimates").map(Json::to_string)
            ))
        })
        .collect()
}

/// Kills the durable server, restarts it on the same data directory and
/// checks every session's recovered estimate against the pre-kill one.
/// Returns the restarted server and the recovery time in milliseconds.
pub fn kill_and_recover(
    args: &Args,
    dir: &Path,
    server: &mut Server,
    data: &Path,
    works: &[SessionWork],
    out: &mut Outcome,
) -> Result<(Server, f64), String> {
    let before = read_all(&server.addr, works)?;
    let first = works.first().ok_or("no sessions to recover")?;
    let want = before[0].clone();
    let (restarted, ms) = restart_ms(args, dir, server, Some(data), |addr| {
        read_all(addr, std::slice::from_ref(first)).is_ok_and(|v| v[0] == want)
    })?;
    let after = read_all(&restarted.addr, works)?;
    if after != before {
        out.fail("recovered estimates differ from the pre-kill ones".into());
    }
    Ok((restarted, ms))
}

pub fn stream(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let conns = nproc();
    let (works, sim_ns) = stream_works(args.seed, conns)?;
    let mut out = Outcome::default();
    let (mut server, data) = launch_measured(args, dir, true, &mut out)?;
    let (d, windows) = stream_drive(&server.addr, &works, args.seconds, &mut out)?;
    let stats = server_stats(&server.addr)?;
    let rss = server.peak_rss_mb()?;
    put_drive_metrics(&mut out, &d, &windows, rss);
    let (mut restarted, recover_ms) =
        kill_and_recover(args, dir, &mut server, &data, &works, &mut out)?;
    restarted.stop();
    out.note("recover_ms", Json::Num(recover_ms));
    out.note("passes", Json::Int(d.estimates.len() as i64));

    if args.trace {
        out.metrics.clear();
        let local = // Two passes per session: re-inits replace a full session, as in the
        // drive.
        ledger::replay_serving(&mut out, &works, STREAM_BANK, 2, STREAM_FRAME, STREAM_ESTIMATE_EVERY, dir)?;
        put_server_layers(&mut out, "stream", &stats, &d, &local, true);
        out.put("recover.restart_ms", recover_ms, "ms");
        let cases: Vec<ledger::EvalCase> = works
            .iter()
            .map(|w| ledger::EvalCase::prefix_of_work(w, 2000))
            .collect();
        ledger::offline_layers(&mut out, &cases, sim_ns, None)?;
    }
    Ok(out)
}
