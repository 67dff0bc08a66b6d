//! Per-layer figures from one traced segment: the span recorder's phase
//! attribution and critical path over the stepping window, the comm
//! counters the ranks keep anyway, and the world's metrics plane.
//!
//! Times and counts `*_per_step` are summed over ranks and divided by
//! the steps taken (rank-seconds per step), so a layer's share of
//! `core.step` reads straight off the table.

use crate::obj;
use beatnik_comm::telemetry::metrics::MetricValue;
use beatnik_comm::telemetry::RankTimeline;
use beatnik_comm::{Communicator, OpKind, OpStats, WorldTimeline};
use beatnik_json::Value;

/// The irregular migration cycle of the cutoff solver: points out to
/// their spatial owners, ghost points to neighbours, results home.
const MIGRATE_PHASES: [&str; 3] = ["migrate-to-spatial", "halo-points", "migrate-home"];

/// Counters one rank keeps regardless of tracing, read before and after
/// the stepping loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    alltoallv: OpStats,
    send: OpStats,
    copied: u64,
    handoff: u64,
    pool_hits: u64,
    pool_misses: u64,
    migrate_bytes: u64,
}

impl Counters {
    pub fn read(comm: &Communicator) -> Counters {
        let t = comm.trace();
        Counters {
            alltoallv: t.get(OpKind::Alltoallv),
            send: t.get(OpKind::Send),
            copied: t.copied_bytes(),
            handoff: t.handoff_bytes(),
            pool_hits: t.pool_hits(),
            pool_misses: t.pool_misses(),
            migrate_bytes: t
                .matrix_cells()
                .iter()
                .filter(|c| MIGRATE_PHASES.contains(&c.phase))
                .map(|c| c.bytes)
                .sum(),
        }
    }

    pub fn since(&self, before: &Counters) -> Counters {
        let op = |a: OpStats, b: OpStats| OpStats {
            calls: a.calls - b.calls,
            messages: a.messages - b.messages,
            bytes: a.bytes - b.bytes,
        };
        Counters {
            alltoallv: op(self.alltoallv, before.alltoallv),
            send: op(self.send, before.send),
            copied: self.copied - before.copied,
            handoff: self.handoff - before.handoff,
            pool_hits: self.pool_hits - before.pool_hits,
            pool_misses: self.pool_misses - before.pool_misses,
            migrate_bytes: self.migrate_bytes - before.migrate_bytes,
        }
    }
}

/// `(replayed_frames, reconnects)` from the world's metrics plane.
pub fn link_gauges(comm: &Communicator) -> (u64, u64) {
    let Some(snap) = comm.metrics_snapshot() else {
        return (0, 0);
    };
    let gauge = |name: &str| -> u64 {
        snap.families
            .iter()
            .filter(|f| f.name == name)
            .flat_map(|f| f.samples.iter())
            .map(|s| match s.value {
                MetricValue::Gauge(v) | MetricValue::Counter(v) => v,
                _ => 0,
            })
            .sum()
    };
    (
        gauge("beatnik_link_replayed_frames"),
        gauge("beatnik_link_reconnects"),
    )
}

/// Everything [`per_layer`] reads from one traced segment.
pub struct TracedSegment<'a> {
    pub timeline: &'a WorldTimeline,
    /// Per-rank stepping window on the span clock.
    pub windows: &'a [(u64, u64)],
    /// Per-rank counter deltas over the stepping window.
    pub counters: &'a [Counters],
    pub steps: usize,
    /// Surface mesh nodes per axis.
    pub n: usize,
    /// Step durations timed by the benchmark, summed over ranks.
    pub rank_step_s: f64,
    pub diag_s: f64,
    pub ownership: &'a [f64],
    pub link: (u64, u64),
}

pub fn per_layer(seg: &TracedSegment) -> Value {
    // Keep only spans inside the stepping loop: set-up and the final
    // diagnostics are not part of a step.
    let window = WorldTimeline::new(
        seg.timeline
            .ranks
            .iter()
            .zip(seg.windows)
            .map(|(rt, &(a, b))| RankTimeline {
                rank: rt.rank,
                spans: rt
                    .spans
                    .iter()
                    .filter(|s| s.start_ns >= a && s.end_ns <= b)
                    .copied()
                    .collect(),
                dropped: rt.dropped,
            })
            .collect(),
    );
    let rows = window.phase_attribution();
    let row = |name: &str| rows.iter().find(|r| r.name == name);
    let steps = seg.steps.max(1) as f64;
    let ranks = window.num_ranks().max(1) as f64;
    let calls = |name: &str| row(name).map_or(0.0, |r| r.calls as f64) / steps;
    let self_s = |name: &str| row(name).map_or(0.0, |r| r.self_s) / steps;
    let wait_s = |name: &str| row(name).map_or(0.0, |r| r.wait_s) / steps;
    let sum = |f: &dyn Fn(&Counters) -> u64| -> f64 {
        seg.counters.iter().map(f).sum::<u64>() as f64 / steps
    };

    // A distributed transform is one call on every rank; 5 N log2 N
    // flops per complex transform of N points (computed, not counted).
    let points = (seg.n * seg.n) as f64;
    let transforms = (calls("dfft-forward") + calls("dfft-inverse")) / ranks;
    let flops = 5.0 * points * points.log2() * transforms;

    let hits: u64 = seg.counters.iter().map(|c| c.pool_hits).sum();
    let misses: u64 = seg.counters.iter().map(|c| c.pool_misses).sum();
    // 0 when nothing drew on the pool (see `comm.pool.acquires_per_step`).
    let hit_ratio = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };

    let cp = window.critical_path("step");
    let cp_wait: f64 = cp
        .steps
        .iter()
        .flat_map(|s| s.segments.iter())
        .map(|s| s.wait_s)
        .sum();
    let critical_wait_frac = if cp.total_s > 0.0 {
        cp_wait / cp.total_s
    } else {
        0.0
    };

    let own = seg.ownership;
    let max_over_mean = if own.is_empty() {
        0.0
    } else {
        let mean = own.iter().sum::<f64>() / own.len() as f64;
        own.iter().cloned().fold(0.0, f64::max) / mean
    };

    let f = Value::Float;
    let metrics = obj(vec![
        (
            "dfft.redistribute.calls_per_step",
            f(calls("dfft-redistribute")),
        ),
        (
            "dfft.redistribute.self_s_per_step",
            f(self_s("dfft-redistribute")),
        ),
        (
            "dfft.redistribute.wait_s_per_step",
            f(wait_s("dfft-redistribute")),
        ),
        ("dfft.forward.self_s_per_step", f(self_s("dfft-forward"))),
        ("dfft.inverse.self_s_per_step", f(self_s("dfft-inverse"))),
        ("fft.flops_per_step", f(flops)),
        (
            "comm.alltoallv.msgs_per_step",
            f(sum(&|c| c.alltoallv.messages)),
        ),
        (
            "comm.alltoallv.bytes_per_step",
            f(sum(&|c| c.alltoallv.bytes)),
        ),
        ("comm.send.msgs_per_step", f(sum(&|c| c.send.messages))),
        ("comm.send.bytes_per_step", f(sum(&|c| c.send.bytes))),
        ("comm.bytes_copied_per_step", f(sum(&|c| c.copied))),
        ("comm.bytes_handoff_per_step", f(sum(&|c| c.handoff))),
        (
            "comm.pool.acquires_per_step",
            f((hits + misses) as f64 / steps),
        ),
        ("comm.pool.hit_ratio", f(hit_ratio)),
        (
            "comm.wait_s_per_step",
            f(rows.iter().map(|r| r.wait_s).sum::<f64>() / steps),
        ),
        ("comm.link.replayed_frames", Value::UInt(seg.link.0)),
        ("comm.link.reconnects", Value::UInt(seg.link.1)),
        ("mesh.halo.calls_per_step", f(calls("halo"))),
        ("mesh.halo.self_s_per_step", f(self_s("halo"))),
        ("mesh.halo.wait_s_per_step", f(wait_s("halo"))),
        (
            "mesh.migrate_to_spatial.self_s_per_step",
            f(self_s("migrate-to-spatial")),
        ),
        (
            "mesh.migrate_to_spatial.wait_s_per_step",
            f(wait_s("migrate-to-spatial")),
        ),
        ("mesh.halo_points.self_s_per_step", f(self_s("halo-points"))),
        ("mesh.halo_points.wait_s_per_step", f(wait_s("halo-points"))),
        (
            "mesh.migrate_home.self_s_per_step",
            f(self_s("migrate-home")),
        ),
        (
            "mesh.migrate_home.wait_s_per_step",
            f(wait_s("migrate-home")),
        ),
        ("mesh.migrate.bytes_per_step", f(sum(&|c| c.migrate_bytes))),
        ("mesh.ownership.max_over_mean", f(max_over_mean)),
        ("core.step.self_s_per_step", f(self_s("step"))),
        ("core.br_cutoff.calls_per_step", f(calls("br-cutoff"))),
        ("core.br_cutoff.self_s_per_step", f(self_s("br-cutoff"))),
        ("core.step.critical_wait_frac", f(critical_wait_frac)),
        ("core.diagnostics_s", f(seg.diag_s)),
        (
            "telemetry.dropped_spans",
            Value::UInt(seg.timeline.total_dropped()),
        ),
    ]);
    // Self-test input: every span in the window sits inside a step, so
    // the phases' self times must add up to the benchmark's own step
    // timings (both summed over ranks).
    let phase_self_s: f64 = rows.iter().map(|r| r.self_s).sum();
    obj(vec![
        ("metrics", metrics),
        ("phase_self_s", f(phase_self_s)),
        ("rank_step_s", f(seg.rank_step_s)),
    ])
}
