//! The `offline` workload: what a researcher runs. Figure 7 panels 7a/7b/7c
//! and the estimator-menu panel, called through `ddn_scenarios` entry
//! points with `ExperimentRunner` at one thread per core.

use crate::ledger::{self, EvalCase};
use crate::machine::{nproc, StealMonitor, DRIVE_STRETCH, MIN_SAMPLES};
use crate::serving::{self, Server};
use crate::{put_latency, put_setup, put_throughput, Args, Outcome, Sample};
use ddn_cdn::cfa::CfaWorld;
use ddn_estimators::ErrorTable;
use ddn_loadgen::{ScenarioKind, SessionWork};
use ddn_policy::UniformRandomPolicy;
use ddn_scenarios::ablations::menu::{ablation_menu, ablation_menu_instrumented, MenuConfig};
use ddn_scenarios::figure7a::{figure7a_instrumented, figure7a_with, Figure7aConfig};
use ddn_scenarios::figure7b::{figure7b_instrumented, figure7b_with, Figure7bConfig};
use ddn_scenarios::figure7c::{figure7c_instrumented, figure7c_with, Figure7cConfig};
use ddn_stats::rng::Xoshiro256;
use ddn_stats::Json;
use ddn_telemetry::TelemetrySnapshot;
use std::path::Path;
use std::time::Instant;

/// Warm-up cycles the set-up phase's kept windows hold at least;
/// `setup_s` is their median.
const WARMUPS: u32 = 8;
/// 7c runs whose traces the traced pass replays through the layers.
const TRACED_7C_RUNS: usize = 32;

/// The panel configurations of one cycle, every panel at one run per core
/// and its own base seed.
struct Cycle {
    a: Figure7aConfig,
    b: Figure7bConfig,
    c: Figure7cConfig,
    menu: MenuConfig,
}

impl Cycle {
    fn new(seed: u64, k: u64, runs: usize) -> Cycle {
        let base = seed.wrapping_mul(1_000_003).wrapping_add(k * runs as u64);
        Cycle {
            a: Figure7aConfig {
                runs,
                base_seed: base,
                ..Default::default()
            },
            b: Figure7bConfig {
                runs,
                base_seed: base,
                ..Default::default()
            },
            c: Figure7cConfig {
                runs,
                base_seed: base,
                ..Default::default()
            },
            menu: MenuConfig {
                runs,
                base_seed: base,
                scales: vec![0.25],
            },
        }
    }
}

fn wise_records(cfg: &Figure7aConfig) -> u64 {
    ddn_cdn::wise::WiseWorld::new(cfg.world.clone())
        .population()
        .len() as u64
}

fn finite(t: &ErrorTable) -> bool {
    t.rows().iter().all(|(_, r)| r.mean.is_finite())
}

fn same_table(a: &ErrorTable, b: &ErrorTable) -> bool {
    a.rows().len() == b.rows().len()
        && a.rows().iter().zip(b.rows()).all(|((na, x), (nb, y))| {
            na == nb
                && x.mean.to_bits() == y.mean.to_bits()
                && x.min.to_bits() == y.min.to_bits()
                && x.max.to_bits() == y.max.to_bits()
        })
}

/// One warm-up pass over every panel, outside the drive; returns its
/// seconds.
fn warm_up(cycle: &Cycle) -> f64 {
    let t = Instant::now();
    std::hint::black_box(figure7a_with(&cycle.a));
    std::hint::black_box(figure7b_with(&cycle.b));
    std::hint::black_box(figure7c_with(&cycle.c));
    std::hint::black_box(ablation_menu(&cycle.menu));
    t.elapsed().as_secs_f64()
}

/// The 7c traces of a configuration's first runs, generated exactly as
/// the panel generates them, plus the generation cost per record.
fn traces_7c(cfg: &Figure7cConfig, runs: usize) -> (Vec<EvalCase>, f64) {
    let world = CfaWorld::new(cfg.world.clone(), cfg.world_seed);
    let old = UniformRandomPolicy::new(world.space().clone());
    let t = Instant::now();
    let mut traces = Vec::with_capacity(runs);
    for i in 0..runs as u64 {
        let seed = cfg.base_seed + i;
        let mut rng = Xoshiro256::seed_from(seed);
        let clients = world.sample_clients(cfg.clients, &mut rng);
        std::hint::black_box(world.true_value(&clients, &world.greedy_policy()));
        traces.push(world.log_trace(&clients, &old, seed.wrapping_mul(31).wrapping_add(7)));
    }
    let n: usize = traces.iter().map(|t| t.len()).sum();
    let sim = t.elapsed().as_nanos() as f64 / n.max(1) as f64;
    let cases = traces
        .into_iter()
        .map(|trace| EvalCase {
            trace,
            policy: Box::new(world.greedy_policy()),
        })
        .collect();
    (cases, sim)
}

/// Σ span totals under `path` in an instrumented panel's snapshot.
fn timing(snap: &TelemetrySnapshot, path: &str) -> f64 {
    snap.to_json()
        .get("timings")
        .and_then(|t| t.get(path))
        .and_then(|t| t.get("total_ns"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Runs every panel instrumented and reconciles its phase spans with its
/// run spans, and its run spans with wall time × threads. Returns the
/// runner's busy share over all panels.
fn instrumented_panels(out: &mut Outcome, cycle: &Cycle) -> f64 {
    let threads = nproc() as f64;
    let snaps = [
        (
            "7a",
            figure7a_instrumented(&cycle.a).1,
            &["simulate", "fit", "estimate"][..],
        ),
        (
            "7b",
            figure7b_instrumented(&cycle.b).1,
            &["simulate", "estimate"][..],
        ),
        (
            "7c",
            figure7c_instrumented(&cycle.c).1,
            &["simulate", "fit", "estimate"][..],
        ),
        (
            "menu",
            ablation_menu_instrumented(&cycle.menu).1,
            &["log", "estimate"][..],
        ),
    ];
    let (mut run_all, mut wall_all) = (0.0, 0.0);
    for (panel, snap, phases) in &snaps {
        let run = timing(snap, "run");
        let wall = timing(snap, "experiment") * threads;
        let phase: f64 = phases
            .iter()
            .map(|p| timing(snap, &format!("run/{p}")))
            .sum();
        let share = phase / run.max(1.0);
        // Phases nest inside the run span: they may not exceed it, and
        // what they leave uncovered must stay small or a phase is missing.
        if !(0.9..=1.0 + 1e-9).contains(&share) {
            out.fail(format!(
                "reconciliation: {panel} phase spans cover {share:.3} of run time"
            ));
        }
        if run > wall * 1.05 {
            out.fail(format!(
                "reconciliation: {panel} run time {run:.0} ns exceeds wall × threads {wall:.0} ns"
            ));
        }
        out.note(&format!("{panel}_phase_share"), Json::Num(share));
        run_all += run;
        wall_all += wall;
    }
    let busy = run_all / wall_all.max(1.0);
    out.note("busy_share", Json::Num(busy));
    busy
}

pub fn offline(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let runs = nproc();
    // Every panel runs at one thread per core, whatever the environment.
    std::env::set_var("DDN_THREADS", runs.to_string());
    let mut out = Outcome::default();
    let first = Cycle::new(args.seed, 0, runs);

    // Correctness, outside the timed region: the columnar panels equal
    // their scalar arms, 7b (no columnar arm) repeats bit for bit, and the
    // menu's folds equal their scalar estimators on the first 7c trace.
    let a = figure7a_with(&first.a);
    if !same_table(
        &a,
        &figure7a_with(&Figure7aConfig {
            use_batch: false,
            ..first.a.clone()
        }),
    ) {
        out.fail("7a: columnar table differs from scalar".into());
    }
    if !same_table(&figure7b_with(&first.b), &figure7b_with(&first.b)) {
        out.fail("7b: repeated run differs".into());
    }
    let c = figure7c_with(&first.c);
    if !same_table(
        &c,
        &figure7c_with(&Figure7cConfig {
            use_batch: false,
            ..first.c.clone()
        }),
    ) {
        out.fail("7c: columnar table differs from scalar".into());
    }
    let (first_trace, _) = traces_7c(&first.c, 1);
    let mut gate = Outcome::default();
    ledger::offline_layers(&mut gate, &first_trace, 0.0, Some(0.0))?;
    if let Err(e) = gate.verdict {
        out.fail(e);
    }

    let mut i = 0;
    put_setup(&mut out, WARMUPS, || {
        i += 1;
        Ok(warm_up(&Cycle::new(args.seed ^ 0x5EED, i, runs)))
    })?;

    let a_records = wise_records(&first.a) as usize;
    let (mut write, mut read, mut scored) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    // The gate holds the drive until its kept windows hold enough calls
    // of each kind: a slower machine runs longer instead of failing.
    let gate = StealMonitor::start(t0, args.seconds, DRIVE_STRETCH, [MIN_SAMPLES; 2]);
    let tally = gate.tally();
    let mut k = 0u64;
    while !gate.done() {
        let cy = Cycle::new(args.seed, k, runs);
        k += 1;
        let mut timed = |f: &dyn Fn() -> u64, bucket: &mut Vec<Sample>, class: usize| {
            let t = Instant::now();
            let n = f();
            let end = t0.elapsed().as_nanos() as u64;
            bucket.push(Sample {
                end,
                value: t.elapsed().as_nanos() as u64,
            });
            tally.count(class, end);
            out.attempted += 1;
            if n > 0 {
                scored.push(Sample { end, value: n });
            } else {
                out.failed += 1;
            }
        };
        // Each call yields the records it scored, or 0 when its error
        // table is not finite.
        let scored_if = |ok: bool, n: usize| if ok { (n * runs) as u64 } else { 0 };
        // One Figure 7 panel per cycle, in turn, beside one menu call, so
        // both latency classes collect samples at the same rate.
        let figure = || match k % 3 {
            1 => scored_if(finite(&figure7a_with(&cy.a)), a_records),
            2 => scored_if(finite(&figure7b_with(&cy.b)), cy.b.chunks),
            _ => scored_if(finite(&figure7c_with(&cy.c)), cy.c.clients),
        };
        timed(&figure, &mut write, 0);
        timed(
            &|| {
                let sc = ablation_menu(&cy.menu);
                let rows = || sc.iter().flat_map(|s| &s.rows);
                scored_if(
                    rows().all(|r| finite(&r.table)),
                    rows().map(|r| r.trace_len).sum(),
                )
            },
            &mut read,
            1,
        );
    }
    let secs = t0.elapsed().as_secs_f64();
    let windows = gate.stop(secs);
    if out.failed > 0 {
        out.fail(format!(
            "{} panel calls produced non-finite errors",
            out.failed
        ));
    }
    put_throughput(&mut out, &scored, &windows);
    put_latency(&mut out, "write", &write, &windows);
    put_latency(&mut out, "read", &read, &windows);
    windows.note(&mut out, "");
    out.put(
        "peak_rss_mb",
        serving::vm_hwm_mb("/proc/self/status")?,
        "MiB",
    );
    out.note("cycles", Json::Int(k as i64));
    out.note("drive_seconds", Json::Num(secs));

    if args.trace {
        out.metrics.clear();
        let busy = instrumented_panels(&mut out, &first);
        let (cases, sim_ns) = traces_7c(&first.c, TRACED_7C_RUNS);
        ledger::offline_layers(&mut out, &cases, sim_ns, Some(busy))?;
        served_layers(args, dir, &cases, &mut out)?;
    }
    Ok(out)
}

/// The serving ledger over the offline workload's own traces: each 7c
/// trace streamed as a default-bank session to a durable `ddn serve`,
/// then replayed in-process.
fn served_layers(
    args: &Args,
    dir: &Path,
    cases: &[EvalCase],
    out: &mut Outcome,
) -> Result<(), String> {
    let works: Vec<SessionWork> = cases
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let space = c.trace.space();
            let decision = i % space.len();
            SessionWork {
                name: format!("off-{i}"),
                kind: ScenarioKind::Cdn,
                at: 0.0,
                binary: true,
                decision,
                decision_name: space.names()[decision].clone(),
                trace: c.trace.clone(),
            }
        })
        .collect();
    let data = dir.join("offline-data");
    let (mut server, _) = Server::launch(&args.ddn, dir, Some(&data))?;
    let (d, _) = serving::stream_drive(&server.addr, &works, 0.0, out)?;
    let stats = serving::server_stats(&server.addr)?;
    let (mut restarted, ms) =
        serving::kill_and_recover(args, dir, &mut server, &data, &works, out)?;
    restarted.stop();
    let local = ledger::replay_serving(
        out,
        &works,
        serving::STREAM_BANK,
        1,
        serving::STREAM_FRAME,
        serving::STREAM_ESTIMATE_EVERY,
        dir,
    )?;
    serving::put_server_layers(out, "offline", &stats, &d, &local, true);
    out.put("recover.restart_ms", ms, "ms");
    Ok(())
}
