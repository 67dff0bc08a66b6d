//! The solver workloads: one process runs `setup-reps` set-ups of a
//! paper deck and steps the last one, timing each public call it makes.
//!
//! Set-up is world spawn (thread launch plus transport links) +
//! `RigConfig::build_mesh` + `Solver::new`, from before the spawn until
//! the slowest rank holds its solver. Every `Solver::step` is timed on
//! every rank; the step time is the max over ranks.
//!
//! Each is timed twice: in wall-clock time, and in CPU time (the whole
//! process's for set-up and per step, each rank thread's own per step).
//! CPU time leaves out time a thread was ready but off the CPU, so it
//! stays put when a shared host's speed drifts.

use crate::layers::{self, Counters};
use crate::{floats, obj, peak_rss_kib, process_cpu_s, thread_cpu_s, Args};
use beatnik_comm::{CommConfig, Communicator, TransportKind, World};
use beatnik_core::diagnostics::ownership_fractions;
use beatnik_core::{Diagnostics, Solver};
use beatnik_json::Value;
use beatnik_rocketrig::{BenchCase, RigConfig};
use std::time::Instant;

/// What one rank hands back from the measured world.
struct RankOut {
    setup_done: Instant,
    /// Process CPU time when this rank held its solver.
    setup_done_cpu: f64,
    step_s: Vec<f64>,
    /// This rank's thread CPU time per step.
    step_cpu_s: Vec<f64>,
    /// Whole-process CPU time across this rank's steps.
    step_proc_cpu_s: Vec<f64>,
    diag: Diagnostics,
    diag_s: f64,
    /// Stepping window on the span clock (traced runs only).
    window_ns: (u64, u64),
    counters: Counters,
    ownership: Vec<f64>,
    link: (u64, u64),
}

fn build_solver(comm: &Communicator, cfg: &RigConfig) -> Solver {
    Solver::new(
        cfg.build_mesh(comm),
        cfg.boundary_condition(),
        cfg.solver_config(),
    )
}

fn segment(comm: &Communicator, cfg: &RigConfig, traced: bool) -> RankOut {
    let mut solver = build_solver(comm, cfg);
    let setup_done = Instant::now();
    let setup_done_cpu = process_cpu_s();
    let before = Counters::read(comm);
    let start_ns = comm.telemetry().now_ns();
    let mut step_s = Vec::with_capacity(cfg.steps);
    let mut step_cpu_s = Vec::with_capacity(cfg.steps);
    let mut step_proc_cpu_s = Vec::with_capacity(cfg.steps);
    for _ in 0..cfg.steps {
        let (c, p) = (thread_cpu_s(), process_cpu_s());
        let t = Instant::now();
        solver.step();
        step_s.push(t.elapsed().as_secs_f64());
        step_proc_cpu_s.push(process_cpu_s() - p);
        step_cpu_s.push(thread_cpu_s() - c);
    }
    let end_ns = comm.telemetry().now_ns();
    let counters = Counters::read(comm).since(&before);
    let t = Instant::now();
    let diag = Diagnostics::compute(solver.problem());
    let diag_s = t.elapsed().as_secs_f64();
    let ownership = if traced {
        ownership_fractions(solver.problem(), &cfg.spatial_mesh(comm.size()))
    } else {
        Vec::new()
    };
    let link = if traced && comm.rank() == 0 {
        layers::link_gauges(comm)
    } else {
        (0, 0)
    };
    RankOut {
        setup_done,
        setup_done_cpu,
        step_s,
        step_cpu_s,
        step_proc_cpu_s,
        diag,
        diag_s,
        window_ns: (start_ns, end_ns),
        counters,
        ownership,
        link,
    }
}

fn diag_json(d: &Diagnostics) -> Value {
    let bits = |x: f64| Value::Str(format!("{:016x}", x.to_bits()));
    obj(vec![
        ("amplitude", Value::Float(d.amplitude)),
        ("enstrophy", Value::Float(d.enstrophy)),
        ("z_min", Value::Float(d.z_min)),
        ("z_max", Value::Float(d.z_max)),
        ("points", Value::UInt(d.points as u64)),
        (
            "bits",
            obj(vec![
                ("amplitude", bits(d.amplitude)),
                ("enstrophy", bits(d.enstrophy)),
                ("z_min", bits(d.z_min)),
                ("z_max", bits(d.z_max)),
            ]),
        ),
    ])
}

pub fn run(args: &Args) -> Result<Value, String> {
    let case = match args.str("case")? {
        "low" => BenchCase::LowOrderWeak,
        "cutoff" => BenchCase::CutoffStrong,
        other => return Err(format!("unknown case {other:?} (low|cutoff)")),
    };
    let n = args.usize("n")?;
    let ranks = args.usize("ranks")?;
    let reps = args.usize("setup-reps")?.max(1);
    let traced = args.flag("trace")?;
    let transport: TransportKind = args.str("transport")?.parse()?;
    let cfg = case.config(n, args.usize("steps")?);
    // Pinned, not read from BEATNIK_* variables: the workload alone
    // decides the configuration.
    let comm_cfg = CommConfig {
        transport,
        ..CommConfig::default()
    };

    let mut setup_s = Vec::with_capacity(reps);
    let mut setup_cpu_s = Vec::with_capacity(reps);
    for _ in 1..reps {
        let (t0, c0) = (Instant::now(), process_cpu_s());
        let done = World::builder(ranks).config(comm_cfg.clone()).run(|comm| {
            let solver = build_solver(&comm, &cfg);
            let done = (Instant::now(), process_cpu_s());
            drop(solver);
            done
        });
        setup_s.push(slowest(done.iter().map(|d| d.0), t0));
        setup_cpu_s.push(done.iter().map(|d| d.1 - c0).fold(0.0, f64::max));
    }

    let (t0, c0) = (Instant::now(), process_cpu_s());
    let body = |comm: Communicator| segment(&comm, &cfg, traced);
    let builder = World::builder(ranks).config(comm_cfg);
    let (outs, timeline) = if traced {
        let (outs, _trace, timeline) = builder.run_profiled(body);
        (outs, Some(timeline))
    } else {
        (builder.run(body), None)
    };
    setup_s.push(slowest(outs.iter().map(|o| o.setup_done), t0));
    setup_cpu_s.push(
        outs.iter()
            .map(|o| o.setup_done_cpu - c0)
            .fold(0.0, f64::max),
    );

    let steps = cfg.steps;
    let step_s: Vec<f64> = (0..steps)
        .map(|i| outs.iter().map(|o| o.step_s[i]).fold(0.0, f64::max))
        .collect();
    let busiest_cpu_s: Vec<f64> = (0..steps)
        .map(|i| outs.iter().map(|o| o.step_cpu_s[i]).fold(0.0, f64::max))
        .collect();
    let diag_s = outs.iter().map(|o| o.diag_s).fold(0.0, f64::max);
    let mut fields = vec![
        ("setup_s", floats(&setup_s)),
        ("setup_cpu_s", floats(&setup_cpu_s)),
        ("step_s", floats(&step_s)),
        ("busiest_cpu_s", floats(&busiest_cpu_s)),
        ("proc_cpu_s", floats(&outs[0].step_proc_cpu_s)),
        ("nodes", Value::UInt((n * n) as u64)),
        ("diag", diag_json(&outs[0].diag)),
        ("peak_rss_kib", Value::UInt(peak_rss_kib())),
    ];
    if let Some(timeline) = timeline {
        let windows: Vec<(u64, u64)> = outs.iter().map(|o| o.window_ns).collect();
        let counters: Vec<Counters> = outs.iter().map(|o| o.counters).collect();
        let rank_step_s: f64 = outs.iter().flat_map(|o| o.step_s.iter()).sum();
        let input = layers::TracedSegment {
            timeline: &timeline,
            windows: &windows,
            counters: &counters,
            steps,
            n,
            rank_step_s,
            diag_s,
            ownership: &outs[0].ownership,
            link: outs[0].link,
        };
        fields.push(("layers", layers::per_layer(&input)));
    }
    Ok(obj(fields))
}

/// Seconds from `t0` until the last of `done`.
fn slowest(done: impl Iterator<Item = Instant>, t0: Instant) -> f64 {
    done.map(|t| t.duration_since(t0).as_secs_f64())
        .fold(0.0, f64::max)
}
