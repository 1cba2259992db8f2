//! The machine under the benchmark: a fingerprint and an in-process
//! reference loop, stored with every result so numbers from different
//! machines can be read relative to the machine that produced them; and
//! the drive gate, which watches the machine's CPU steal and picks the
//! time windows a drive's metrics use.

use crate::{Outcome, Sample};
use ddn_stats::Json;
use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// CPU model, core count, toolchain, source revision and the reference
/// loop's rates.
pub fn fingerprint() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let git_rev = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into());
    let (memcpy_gb_s, fma_gflop_s) = reference_loop();
    Json::object(vec![
        ("cpu_model", Json::str(cpu)),
        ("nproc", Json::Int(nproc() as i64)),
        ("rustc", Json::str(rustc)),
        ("git_rev", Json::str(git_rev)),
        (
            "source_digest",
            Json::str(format!("{:016x}", source_digest())),
        ),
        ("memcpy_gb_per_s", Json::Num(memcpy_gb_s)),
        ("fma_gflop_per_s", Json::Num(fma_gflop_s)),
    ])
}

/// Cores the benchmark may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

/// FNV-1a over every source file under `crates/` plus `Cargo.lock`, so a
/// checkout without git metadata still names the code it measured.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = vec![std::path::PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Memory-copy bandwidth (GB/s over a 32 MiB buffer) and scalar fused
/// multiply-add rate (Gflop/s, two flops per FMA), each timed for ~150 ms.
fn reference_loop() -> (f64, f64) {
    const BYTES: usize = 32 << 20;
    let src = vec![1u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    let budget = Duration::from_millis(150);
    let started = Instant::now();
    let mut copies = 0u64;
    while started.elapsed() < budget {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        copies += 1;
    }
    let memcpy = copies as f64 * BYTES as f64 / started.elapsed().as_secs_f64() / 1e9;

    // Four independent chains keep the FMA unit busy without vectorizing.
    let (a, b) = (black_box(0.999_999_9f64), black_box(1e-9f64));
    let mut acc = [1.0f64, 2.0, 3.0, 4.0];
    let started = Instant::now();
    let mut fmas = 0u64;
    while started.elapsed() < budget {
        for _ in 0..100_000 {
            for x in &mut acc {
                *x = x.mul_add(a, b);
            }
        }
        fmas += 400_000;
        black_box(&acc);
    }
    let fma = 2.0 * fmas as f64 / started.elapsed().as_secs_f64() / 1e9;
    (memcpy, fma)
}

/// `(steal, total)` jiffies summed over all CPUs, from `/proc/stat`.
fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// One `/proc/stat` reading: nanoseconds since the drive began, steal and
/// total jiffies.
#[derive(Clone, Copy)]
pub struct CpuReading {
    pub at: u64,
    pub steal: u64,
    pub total: u64,
}

/// Windows a drive is cut into over its nominal length.
pub const WINDOWS: usize = 20;
/// Windows the metrics use at least.
pub const KEPT: usize = 10;
/// Latency samples of each class the kept windows must hold, so that p90
/// has at least ten samples beyond it.
pub const MIN_SAMPLES: u32 = 100;
/// Sample classes a drive counts: writes (0) and reads (1).
pub const CLASSES: usize = 2;
/// A window is clean when the hypervisor took less than this share of the
/// machine's CPU time during it.
const CLEAN_STEAL: f64 = 0.05;
/// A drive runs on past its nominal length, up to this multiple of it,
/// until [`KEPT`] of its windows were clean.
pub const DRIVE_STRETCH: f64 = 1.75;
/// A set-up phase may run on longer: it is short, and the fsyncs of
/// durable launches draw steal of their own while the host's disk is
/// busy, for seconds at a time.
pub const SETUP_STRETCH: f64 = 4.0;
/// A drive whose kept windows still lack samples stops at this multiple
/// of its nominal length; its metrics then fail the run.
const HARD_STRETCH: f64 = 4.0;

/// The share of CPU time stolen during window `w` (of `len_ns`
/// nanoseconds), from the readings nearest its edges.
fn window_steal(readings: &[CpuReading], len_ns: f64, w: usize) -> f64 {
    let at = |t: f64| {
        readings
            .iter()
            .min_by(|a, b| (a.at as f64 - t).abs().total_cmp(&(b.at as f64 - t).abs()))
            .copied()
    };
    match (at(w as f64 * len_ns), at((w + 1) as f64 * len_ns)) {
        (Some(a), Some(b)) if b.total > a.total => {
            (b.steal - a.steal) as f64 / (b.total - a.total) as f64
        }
        _ => 0.0,
    }
}

/// Samples counted per window and class.
type Counts = Vec<[u32; CLASSES]>;

/// Whether windows `kept` hold `need` samples of every class.
fn holds(kept: &[usize], counts: &Counts, need: [u32; CLASSES]) -> bool {
    (0..CLASSES).all(|k| {
        kept.iter()
            .map(|&w| counts.get(w).map_or(0, |c| c[k]))
            .sum::<u32>()
            >= need[k]
    })
}

/// The windows the metrics use. Clean windows rank equal, later ones
/// first, since a drive's first seconds are its ramp-up; stolen windows
/// follow, least stolen first. The first [`KEPT`] are kept, then more in
/// the same order until the kept windows hold `need` samples of every
/// class.
fn select(steal: &[f64], counts: &Counts, need: [u32; CLASSES]) -> Vec<usize> {
    let rank = |w: usize| {
        if steal[w] < CLEAN_STEAL {
            0.0
        } else {
            steal[w]
        }
    };
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| rank(a).total_cmp(&rank(b)).then(b.cmp(&a)));
    let mut kept = Vec::new();
    for w in order {
        if kept.len() >= KEPT && holds(&kept, counts, need) {
            break;
        }
        kept.push(w);
    }
    kept.sort_unstable();
    kept
}

/// Counts a drive's samples by window and class while it runs, so the
/// monitor can hold the drive until its kept windows hold enough.
#[derive(Clone)]
pub struct Tally {
    len_ns: f64,
    counts: Arc<Mutex<Counts>>,
}

impl Tally {
    /// Counts one sample of `class` that completed `end` nanoseconds into
    /// the drive.
    pub fn count(&self, class: usize, end: u64) {
        let w = (end as f64 / self.len_ns) as usize;
        let mut counts = self.counts.lock().expect("tally lock");
        if counts.len() <= w {
            counts.resize(w + 1, [0; CLASSES]);
        }
        counts[w][class] += 1;
    }
}

/// Samples the machine's CPU steal (time the hypervisor gave this
/// machine's CPUs to someone else) while a drive runs, and says when the
/// drive may stop: after its nominal length, once [`KEPT`] windows were
/// clean (or the stretch ran out) and the kept windows hold the samples
/// the drive needs.
pub struct StealMonitor {
    t0: Instant,
    stop: Arc<AtomicBool>,
    done: Arc<AtomicBool>,
    need: [u32; CLASSES],
    tally: Tally,
    handle: JoinHandle<Vec<CpuReading>>,
}

impl StealMonitor {
    /// Starts sampling for a drive that began at `t0`, of nominal length
    /// `seconds` (0 for a drive that stops after its first pass), that
    /// runs on up to `stretch` times that for clean windows, and whose
    /// kept windows must hold `need` samples of each class.
    pub fn start(t0: Instant, seconds: f64, stretch: f64, need: [u32; CLASSES]) -> StealMonitor {
        let stop = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicBool::new(seconds <= 0.0));
        let len_ns = (seconds * 1e9 / WINDOWS as f64).max(1e6);
        let tally = Tally {
            len_ns,
            counts: Arc::new(Mutex::new(Vec::new())),
        };
        let nominal = seconds * 1e9;
        // A few readings per window, so each edge is read near its time.
        let every = Duration::from_nanos((len_ns / 4.0).clamp(5e6, 5e7) as u64);
        let (flag, finished, counts) = (stop.clone(), done.clone(), tally.counts.clone());
        let handle = std::thread::spawn(move || {
            let mut readings = Vec::new();
            loop {
                let (steal, total) = cpu_jiffies();
                let at = t0.elapsed().as_nanos() as u64;
                readings.push(CpuReading { at, steal, total });
                let elapsed = at as f64;
                if !finished.load(Ordering::Relaxed) && elapsed >= nominal {
                    let steal: Vec<f64> = (0..(elapsed / len_ns) as usize)
                        .map(|w| window_steal(&readings, len_ns, w))
                        .collect();
                    let clean = steal.iter().filter(|&&s| s < CLEAN_STEAL).count();
                    let counts = counts.lock().expect("tally lock").clone();
                    let enough = holds(&select(&steal, &counts, need), &counts, need);
                    if (enough && (clean >= KEPT || elapsed >= nominal * stretch))
                        || elapsed >= nominal * HARD_STRETCH
                    {
                        finished.store(true, Ordering::Relaxed);
                    }
                }
                if flag.load(Ordering::Relaxed) {
                    return readings;
                }
                std::thread::sleep(every);
            }
        });
        StealMonitor {
            t0,
            stop,
            done,
            need,
            tally,
            handle,
        }
    }

    /// When the drive began.
    pub fn t0(&self) -> Instant {
        self.t0
    }

    /// The counter the drive's samples go to.
    pub fn tally(&self) -> Tally {
        self.tally.clone()
    }

    /// Whether the drive may stop.
    pub fn done(&self) -> bool {
        self.done.load(Ordering::Relaxed)
    }

    /// Stops sampling at the end of a drive that took `secs` seconds and
    /// picks its windows.
    pub fn stop(self, secs: f64) -> Windows {
        self.stop.store(true, Ordering::Relaxed);
        let readings = self
            .handle
            .join()
            .expect("the steal monitor does not panic");
        let len_ns = self.tally.len_ns;
        // Only whole windows count: a sliver at the end would read as a
        // stall.
        let count = ((secs * 1e9 / len_ns) as usize).max(1);
        let steal: Vec<f64> = (0..count)
            .map(|w| window_steal(&readings, len_ns, w))
            .collect();
        let counts = self.tally.counts.lock().expect("tally lock").clone();
        let kept = select(&steal, &counts, self.need);
        Windows {
            len_ns,
            count,
            kept,
            steal,
        }
    }
}

/// A drive's time windows and which of them the metrics use.
///
/// On a shared host the hypervisor can take CPU from this machine for
/// seconds at a time (steal), and a latency-bound serving drive loses
/// throughput out of proportion. The metrics therefore use the windows
/// [`StealMonitor`] picks: clean ones, the latest first.
pub struct Windows {
    len_ns: f64,
    count: usize,
    kept: Vec<usize>,
    steal: Vec<f64>,
}

impl Windows {
    /// Window length in seconds.
    pub fn seconds(&self) -> f64 {
        self.len_ns / 1e9
    }

    /// The whole window a sample fell in, if any.
    pub fn index(&self, s: &Sample) -> Option<usize> {
        Some((s.end as f64 / self.len_ns) as usize).filter(|&w| w < self.count)
    }

    /// Number of whole windows.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The kept windows' samples, one group per kept window.
    pub fn split(&self, samples: &[Sample]) -> Vec<Vec<Sample>> {
        let mut all = vec![Vec::new(); self.count];
        for s in samples {
            if let Some(w) = self.index(s) {
                all[w].push(*s);
            }
        }
        self.kept
            .iter()
            .map(|&w| std::mem::take(&mut all[w]))
            .collect()
    }

    pub fn note(&self, out: &mut Outcome, prefix: &str) {
        let kept = self.kept.iter().map(|&w| Json::Int(w as i64)).collect();
        out.note(&format!("{prefix}windows_kept"), Json::Array(kept));
        out.note(
            &format!("{prefix}window_seconds"),
            Json::Num(self.seconds()),
        );
        out.note(
            &format!("{prefix}window_steal"),
            Json::Array(self.steal.iter().map(|&s| Json::Num(s)).collect()),
        );
    }
}
