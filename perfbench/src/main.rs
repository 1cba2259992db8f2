//! The repository benchmark: three workloads, end-to-end metrics with
//! tracing off, and a traced run that times every layer from outside.
//!
//! ```text
//! perfbench --workload fleet|stream|offline --seed N --seconds S --trace 0|1 --ddn PATH
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A run whose outputs fail
//! the correctness gate prints `"correct": false` with no metrics and exits
//! with code 1. The full report (machine fingerprint, reference loop, sample
//! counts) is written to `.perfbench/<workload>-s<seed>-t<trace>.json`.
//! See `perfbench/README.md` for what each workload loads.

mod ledger;
mod machine;
mod offline;
mod serving;

use ddn_stats::Json;
use machine::{StealMonitor, Windows};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Metrics keyed by name: `(value, unit)`.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// What one workload run produced.
pub struct Outcome {
    /// Operations attempted (requests or panel calls).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// `Err` names the first correctness violation; no numbers are
    /// reported then.
    pub verdict: Result<(), String>,
    pub metrics: Metrics,
    /// Extra report fields (sample counts, reconciliation inputs).
    pub notes: Vec<(String, Json)>,
}

impl Default for Outcome {
    fn default() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            verdict: Ok(()),
            metrics: Metrics::new(),
            notes: Vec::new(),
        }
    }
}

impl Outcome {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Records the first correctness violation (later ones are dropped).
    pub fn fail(&mut self, why: String) {
        if self.verdict.is_ok() {
            eprintln!("perfbench: correctness gate failed: {why}");
            self.verdict = Err(why);
        }
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.notes.push((key.to_string(), value));
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub ddn: PathBuf,
}

/// Where server data directories and run reports go, under the checkout.
const WORK_DIR: &str = ".perfbench";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let workload = get("--workload").ok_or("--workload is required")?;
    if !["fleet", "stream", "offline"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (fleet|stream|offline)"
        ));
    }
    let seed = get("--seed")
        .ok_or("--seed is required")?
        .parse()
        .map_err(|_| "--seed must be a non-negative integer")?;
    let seconds: f64 = get("--seconds")
        .unwrap_or_else(|| "10".into())
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let ddn = PathBuf::from(get("--ddn").ok_or("--ddn <path to the ddn binary> is required")?);
    if !ddn.is_file() {
        return Err(format!("ddn binary {} not found", ddn.display()));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        ddn,
    })
}

/// Nearest-rank percentile of raw samples (`q` in (0, 1]).
pub fn percentile(samples: &[u64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

/// Median of floats (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One timed operation: when it completed (nanoseconds since the drive
/// began) and what it measured (its latency, or the records it carried).
#[derive(Clone, Copy)]
pub struct Sample {
    pub end: u64,
    pub value: u64,
}

/// `records_per_s`: records acknowledged (or scored) in the kept windows
/// per second of kept window.
pub fn put_throughput(out: &mut Outcome, acked: &[Sample], w: &Windows) {
    let groups = w.split(acked);
    let records: u64 = groups.iter().flatten().map(|s| s.value).sum();
    out.put(
        "records_per_s",
        records as f64 / (groups.len() as f64 * w.seconds()),
        "1/s",
    );
    let mut all = vec![0.0; w.count()];
    for s in acked {
        if let Some(i) = w.index(s) {
            all[i] += s.value as f64 / w.seconds();
        }
    }
    out.note(
        "records_per_s_windows",
        Json::Array(all.into_iter().map(Json::Num).collect()),
    );
}

/// Puts `<prefix>_p50_us` and `<prefix>_p90_us`, the percentiles of the
/// raw latency samples that fell in kept windows, and notes their count.
/// p90 is the highest percentile every workload's sample supports with at
/// least ten samples beyond it; fewer than [`machine::MIN_SAMPLES`] fail
/// the run.
pub fn put_latency(out: &mut Outcome, prefix: &str, samples: &[Sample], w: &Windows) {
    let kept: Vec<u64> = w.split(samples).concat().iter().map(|s| s.value).collect();
    out.note(&format!("{prefix}_samples"), Json::Int(kept.len() as i64));
    if kept.len() < machine::MIN_SAMPLES as usize {
        out.fail(format!(
            "{prefix}: {} samples in kept windows, p90 needs at least {}",
            kept.len(),
            machine::MIN_SAMPLES
        ));
        return;
    }
    for (q, name) in [(0.5, "p50"), (0.9, "p90")] {
        out.put(
            &format!("{prefix}_{name}_us"),
            percentile(&kept, q) / 1e3,
            "us",
        );
    }
}

/// Nominal length of a set-up phase.
const SETUP_SECONDS: f64 = 2.0;

/// Puts `setup_s`: `step` (which returns its own seconds) repeated for a
/// set-up phase gated like a drive, until the phase's kept windows hold
/// `need` steps; `setup_s` is the median step in them.
pub fn put_setup(
    out: &mut Outcome,
    need: u32,
    mut step: impl FnMut() -> Result<f64, String>,
) -> Result<(), String> {
    let t0 = Instant::now();
    let gate = StealMonitor::start(t0, SETUP_SECONDS, machine::SETUP_STRETCH, [need, 0]);
    let tally = gate.tally();
    let mut steps = Vec::new();
    while steps.is_empty() || !gate.done() {
        let secs = step()?;
        let end = t0.elapsed().as_nanos() as u64;
        steps.push(Sample {
            end,
            value: (secs * 1e9) as u64,
        });
        tally.count(0, end);
    }
    let w = gate.stop(t0.elapsed().as_secs_f64());
    let kept: Vec<f64> = w
        .split(&steps)
        .concat()
        .iter()
        .map(|s| s.value as f64 / 1e9)
        .collect();
    if kept.len() < need as usize {
        return Err(format!(
            "{} set-up steps in the phase's kept windows, setup_s needs {need}",
            kept.len()
        ));
    }
    out.put("setup_s", median(&kept), "s");
    out.note("setup_steps", Json::Int(kept.len() as i64));
    w.note(out, "setup_");
    Ok(())
}

fn write_report(args: &Args, out: &Outcome, machine: &Json) {
    let metrics = Json::Object(
        out.metrics
            .iter()
            .map(|(k, (v, u))| {
                (
                    k.clone(),
                    Json::object(vec![("value", Json::Num(*v)), ("unit", Json::str(*u))]),
                )
            })
            .collect(),
    );
    let report = Json::object(vec![
        ("workload", Json::str(args.workload.clone())),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("machine", machine.clone()),
        ("correct", Json::Bool(out.verdict.is_ok())),
        (
            "verdict",
            Json::str(out.verdict.clone().err().unwrap_or_else(|| "ok".into())),
        ),
        ("attempted", Json::Int(out.attempted as i64)),
        ("failed", Json::Int(out.failed as i64)),
        ("metrics", metrics),
        ("notes", Json::Object(out.notes.clone())),
    ]);
    let path = Path::new(WORK_DIR).join(format!(
        "{}-s{}-t{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    if let Err(e) = std::fs::write(&path, format!("{report}\n")) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
fn result_line(out: &Outcome) -> String {
    let metrics = if out.verdict.is_ok() {
        Json::Object(
            out.metrics
                .iter()
                .map(|(k, (v, u))| {
                    (
                        k.clone(),
                        Json::object(vec![("value", Json::Num(*v)), ("unit", Json::str(*u))]),
                    )
                })
                .collect(),
        )
    } else {
        Json::Object(Vec::new())
    };
    Json::object(vec![
        ("correct", Json::Bool(out.verdict.is_ok())),
        ("attempted", Json::Int(out.attempted.max(1) as i64)),
        ("failed", Json::Int(out.failed as i64)),
        ("metrics", metrics),
    ])
    .to_string()
}

/// A per-run scratch directory, removed when the run ends.
pub struct RunDir(pub PathBuf);

impl RunDir {
    fn create(base: &Path) -> std::io::Result<RunDir> {
        let dir = base.join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(WORK_DIR) {
        eprintln!("perfbench: cannot create {WORK_DIR}: {e}");
        std::process::exit(1);
    }
    let run_dir = match RunDir::create(Path::new(WORK_DIR)) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: cannot create run directory: {e}");
            std::process::exit(1);
        }
    };
    let machine = machine::fingerprint();
    let result = match args.workload.as_str() {
        "fleet" => serving::fleet(&args, &run_dir.0),
        "stream" => serving::stream(&args, &run_dir.0),
        _ => offline::offline(&args, &run_dir.0),
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            drop(run_dir);
            std::process::exit(1);
        }
    };
    write_report(&args, &out, &machine);
    println!("{}", result_line(&out));
    drop(run_dir);
    if out.verdict.is_err() {
        std::process::exit(1);
    }
}
