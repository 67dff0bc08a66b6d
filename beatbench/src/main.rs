//! Worker process for the repository benchmark.
//!
//! `run.py` owns the workloads, the seeds, the statistics and the
//! correctness checks; this binary runs one measured piece of work in a
//! process of its own (so an abort costs one attempt, not the whole
//! benchmark) and prints its raw measurements as one JSON object on
//! standard output.
//!
//! ```text
//! beatbench solve --case low|cutoff --n N --transport thread|tcp \
//!                 --ranks R --steps S --setup-reps K --trace 0|1
//! beatbench serve --pool-ranks R --setup-reps K --work-dir DIR < schedule.jsonl
//! ```

mod layers;
mod serve;
mod solve;

use beatnik_json::Value;
use std::collections::BTreeMap;

/// `--key value` pairs after the mode word.
pub struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(words: &[String]) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut it = words.iter();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --key, got {key:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Args(map))
    }

    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    pub fn usize(&self, key: &str) -> Result<usize, String> {
        self.str(key)?.parse().map_err(|e| format!("--{key}: {e}"))
    }

    pub fn flag(&self, key: &str) -> Result<bool, String> {
        Ok(self.usize(key)? != 0)
    }
}

/// Peak resident set size of this process in KiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// CPU time, in seconds, this thread has run (`CLOCK_THREAD_CPUTIME_ID`).
///
/// Time spent runnable but off the CPU, whether behind other threads or
/// stolen by the hypervisor, is not counted: on a shared host this is
/// what keeps CPU time steady while wall-clock time drifts.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(3)
}

/// CPU time, in seconds, all threads of this process have run
/// (`CLOCK_PROCESS_CPUTIME_ID`): ranks, transport progress threads and
/// service threads alike.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(2)
}

fn cpu_clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn floats(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&x| Value::Float(x)).collect())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.split_first() {
        Some((mode, rest)) => Args::parse(rest).and_then(|args| match mode.as_str() {
            "solve" => solve::run(&args),
            "serve" => serve::run(&args),
            other => Err(format!("unknown mode {other:?} (solve|serve)")),
        }),
        None => Err("usage: beatbench solve|serve --key value ...".to_string()),
    };
    match result {
        Ok(v) => println!("{}", beatnik_json::to_string(&v)),
        Err(e) => {
            eprintln!("beatbench: {e}");
            std::process::exit(2);
        }
    }
}
