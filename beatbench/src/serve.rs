//! The `serve-open` workload: an in-process `beatnik-serve` on a small
//! rank pool, fed over loopback HTTP by an open-loop generator.
//!
//! The schedule (due time + job spec per line) arrives on standard
//! input; the seed that made it stays in `run.py`, so the service sees
//! only job specs. Two submitter threads (so at most two connections)
//! post each job when it falls due, whether or not earlier jobs have
//! finished. The physics runs in the production `RigRunner`, wrapped by
//! a runner that only stamps when each dispatch epoch starts and ends.

use crate::{floats, obj, peak_rss_kib, process_cpu_s, Args};
use beatnik_comm::telemetry::metrics::MetricsRegistry;
use beatnik_json::Value;
use beatnik_rocketrig::RigRunner;
use beatnik_serve::http::request;
use beatnik_serve::scheduler::{JobContext, JobOutcome, JobRunner, Scheduler, SchedulerConfig};
use beatnik_serve::{serve, ServerHandle};
use std::collections::HashMap;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Submitter threads, so at most this many connections at once.
const LANES: usize = 2;
/// How long to wait, after the last submission, for queued jobs to end.
/// A job still unfinished then is reported in its current state.
const DRAIN: Duration = Duration::from_secs(60);

/// One dispatch epoch as seen from outside the runner.
#[derive(Clone, Copy)]
struct Epoch {
    start: Instant,
    end: Instant,
    completed: bool,
}

type EpochLog = Arc<Mutex<HashMap<u64, Vec<Epoch>>>>;

/// Delegates to `RigRunner` and records each epoch's wall-clock span.
struct TimedRunner {
    epochs: EpochLog,
}

impl JobRunner for TimedRunner {
    fn run(&self, ctx: &JobContext) -> Result<JobOutcome, String> {
        let start = Instant::now();
        let out = RigRunner::new().run(ctx);
        let end = Instant::now();
        let completed = matches!(out, Ok(JobOutcome::Completed { .. }));
        self.epochs
            .lock()
            .expect("epoch log lock poisoned by a panicking runner")
            .entry(ctx.id)
            .or_default()
            .push(Epoch {
                start,
                end,
                completed,
            });
        out
    }
}

/// What the generator saw for one scheduled job.
struct Submission {
    due: Instant,
    sent: Instant,
    answered: Instant,
    status: u16,
    id: Option<u64>,
}

fn boot(pool_ranks: usize, work_dir: &Path) -> Result<(ServerHandle, EpochLog), String> {
    let epochs = EpochLog::default();
    let cfg = SchedulerConfig {
        pool_ranks,
        ckpt_dir: work_dir.to_path_buf(),
        ..SchedulerConfig::default()
    };
    let scheduler = Arc::new(Scheduler::new(
        cfg,
        Arc::new(MetricsRegistry::new()),
        Arc::new(TimedRunner {
            epochs: Arc::clone(&epochs),
        }),
    ));
    let handle = serve("127.0.0.1:0", scheduler).map_err(|e| format!("bind: {e}"))?;
    let (code, _) = request(handle.addr(), "GET", "/healthz", None).map_err(|e| e.to_string())?;
    if code != 200 {
        return Err(format!("/healthz answered {code}"));
    }
    Ok((handle, epochs))
}

fn read_schedule() -> Result<Vec<(f64, String)>, String> {
    let mut out = Vec::new();
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        if line.trim().is_empty() {
            continue;
        }
        let v: Value = beatnik_json::from_str(&line).map_err(|e| e.to_string())?;
        let due = v
            .get("due_s")
            .and_then(Value::as_f64)
            .ok_or("schedule line without due_s")?;
        let spec = v.get("spec").ok_or("schedule line without spec")?;
        out.push((due, beatnik_json::to_string(spec)));
    }
    Ok(out)
}

/// Post every job at its due time from [`LANES`] threads (job `i` goes
/// to lane `i % LANES`).
fn generate(addr: std::net::SocketAddr, schedule: &[(f64, String)]) -> Vec<Submission> {
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut slots: Vec<Option<Submission>> = (0..schedule.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..LANES)
            .map(|lane| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    for (i, (due_s, spec)) in schedule.iter().enumerate().skip(lane).step_by(LANES)
                    {
                        let due = t0 + Duration::from_secs_f64(*due_s);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let (status, id) = match request(addr, "POST", "/jobs", Some(spec)) {
                            Ok((code, body)) => {
                                let id = beatnik_json::from_str::<Value>(&body)
                                    .ok()
                                    .and_then(|v| v.get("id").and_then(Value::as_u64));
                                (code, id)
                            }
                            Err(_) => (0, None),
                        };
                        mine.push((
                            i,
                            Submission {
                                due,
                                sent,
                                answered: Instant::now(),
                                status,
                                id,
                            },
                        ));
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            for (i, s) in h.join().expect("generator lane panicked") {
                slots[i] = Some(s);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every scheduled job has a submission"))
        .collect()
}

pub fn run(args: &Args) -> Result<Value, String> {
    let pool_ranks = args.usize("pool-ranks")?;
    let reps = args.usize("setup-reps")?.max(1);
    let work_dir = PathBuf::from(args.str("work-dir")?);
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let schedule = read_schedule()?;

    // Set-up: scheduler + rank pool + listener, up to the first healthy
    // answer. Earlier boots are shut down; the last one serves the run.
    let mut setup_s = Vec::with_capacity(reps);
    let mut setup_cpu_s = Vec::with_capacity(reps);
    let mut booted = None;
    for rep in 0..reps {
        let (t0, c0) = (Instant::now(), process_cpu_s());
        let (handle, runner) = boot(pool_ranks, &work_dir)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        setup_cpu_s.push(process_cpu_s() - c0);
        if rep + 1 == reps {
            booted = Some((handle, runner));
        } else {
            handle.shutdown();
            // Let detached connection threads of this boot exit before
            // the next boot is timed, so their CPU time is not its own.
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    let (handle, runner) = booted.expect("at least one boot");
    let scheduler = Arc::clone(handle.scheduler());

    // CPU time of the whole process (service, runner, generator) from
    // the first submission until the queue drains.
    let c0 = process_cpu_s();
    let subs = generate(handle.addr(), &schedule);
    scheduler.wait_idle(DRAIN);
    let cpu_s = process_cpu_s() - c0;
    let epochs = runner
        .lock()
        .expect("epoch log lock poisoned by a panicking runner")
        .clone();
    let origin = subs.first().map(|s| s.due).unwrap_or_else(Instant::now);
    let secs = |t: Instant| t.saturating_duration_since(origin).as_secs_f64();

    let mut jobs = Vec::with_capacity(subs.len());
    for s in &subs {
        let mut fields = vec![
            ("status", Value::UInt(s.status as u64)),
            (
                "late_s",
                Value::Float(s.sent.saturating_duration_since(s.due).as_secs_f64()),
            ),
            (
                "submit_rtt_s",
                Value::Float(s.answered.duration_since(s.sent).as_secs_f64()),
            ),
        ];
        let record = s.id.and_then(|id| scheduler.job(id));
        if let (Some(id), Some(rec)) = (s.id, record) {
            let eps = epochs.get(&id).cloned().unwrap_or_default();
            // Waiting: submission to first dispatch, then every gap
            // between a preempted epoch and its resume.
            let mut queue_wait = 0.0;
            let mut ready = s.sent;
            for e in &eps {
                queue_wait += e.start.saturating_duration_since(ready).as_secs_f64();
                ready = e.end;
            }
            let run_s: f64 = eps.iter().map(|e| (e.end - e.start).as_secs_f64()).sum();
            let done = eps.iter().find(|e| e.completed).map(|e| e.end);
            let step_s: Vec<f64> = scheduler
                .events(id)
                .map(|ev| ev.wait_from(0, Duration::ZERO).0)
                .unwrap_or_default()
                .iter()
                .filter_map(|l| beatnik_json::from_str::<Value>(l).ok())
                .filter(|v| v.get("event").and_then(Value::as_str) == Some("step"))
                .filter_map(|v| v.get("step_ms").and_then(Value::as_f64))
                .map(|ms| ms * 1e-3)
                .collect();
            fields.extend([
                ("state", Value::Str(rec.state.name().to_string())),
                (
                    "latency_s",
                    done.map_or(Value::Null, |t| {
                        Value::Float(t.saturating_duration_since(s.due).as_secs_f64())
                    }),
                ),
                (
                    "done_s",
                    done.map_or(Value::Null, |t| Value::Float(secs(t))),
                ),
                ("queue_wait_s", Value::Float(queue_wait)),
                ("run_s", Value::Float(run_s)),
                ("preemptions", Value::UInt(rec.preemptions)),
                (
                    "nodes",
                    Value::UInt((rec.spec.mesh_n * rec.spec.mesh_n) as u64),
                ),
                ("steps", Value::UInt(rec.spec.steps as u64)),
                ("step_s", floats(&step_s)),
            ]);
            if let Some(r) = rec.result {
                fields.push((
                    "result",
                    obj(vec![
                        ("amplitude", Value::Float(r.amplitude)),
                        ("enstrophy", Value::Float(r.enstrophy)),
                    ]),
                ));
            }
            if let Some(e) = rec.error {
                fields.push(("error", Value::Str(e)));
            }
        }
        jobs.push(obj(fields));
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&work_dir);
    Ok(obj(vec![
        ("setup_s", floats(&setup_s)),
        ("setup_cpu_s", floats(&setup_cpu_s)),
        ("cpu_s", Value::Float(cpu_s)),
        ("jobs", Value::Array(jobs)),
        ("peak_rss_kib", Value::UInt(peak_rss_kib())),
    ]))
}
