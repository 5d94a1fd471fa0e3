//! The three `/proc` readers the benchmark measures with: process CPU,
//! peak resident set, and a per-thread CPU sampler keyed by thread name.
//! Copied in (not imported from `themis-bench`) so the benchmark depends
//! on product crates only.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// `/proc` CPU fields are exported in fixed 100 Hz ticks (`USER_HZ`).
const CLK_TCK: f64 = 100.0;

/// Parses a `/proc/.../stat` line into `(comm, fields after comm)`. The
/// comm field may itself contain spaces, so fields are taken after the
/// *last* closing paren; `fields[0]` is overall field 3 (state).
fn stat_fields(stat: &str) -> Option<(&str, Vec<&str>)> {
    let open = stat.find('(')?;
    let close = stat.rfind(')')?;
    let name = stat.get(open + 1..close)?;
    Some((name, stat.get(close + 1..)?.split_whitespace().collect()))
}

/// Sum of two adjacent tick fields (1-indexed overall field `first` and
/// the one after it), in seconds.
fn tick_pair(fields: &[&str], first: usize) -> Option<f64> {
    let a: u64 = fields.get(first - 3)?.parse().ok()?;
    let b: u64 = fields.get(first - 2)?.parse().ok()?;
    Some((a + b) as f64 / CLK_TCK)
}

fn self_stat_pair(first: usize) -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| stat_fields(&s).and_then(|(_, f)| tick_pair(&f, first)))
        .unwrap_or(0.0)
}

/// Cumulative CPU seconds of this process (`utime + stime`, every thread,
/// children excluded).
pub fn cpu_seconds() -> f64 {
    self_stat_pair(14)
}

/// Cumulative CPU seconds of reaped children (`cutime + cstime`): the
/// forked generator's cost once it has been waited for.
pub fn children_cpu_seconds() -> f64 {
    self_stat_pair(16)
}

/// Peak resident set in MB (`VmHWM` from `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// First- and last-seen cumulative CPU of one thread.
struct TaskSample {
    name: String,
    first: f64,
    last: f64,
}

fn sample_tasks(acc: &mut HashMap<u32, TaskSample>) {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    for entry in tasks.flatten() {
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<u32>() else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else {
            continue;
        };
        let Some((name, fields)) = stat_fields(&stat) else {
            continue;
        };
        let Some(cpu) = tick_pair(&fields, 14) else {
            continue;
        };
        // The main thread carries the process name; the coordinator loop
        // runs on it.
        let name = if tid == std::process::id() {
            "main"
        } else {
            name
        };
        acc.entry(tid)
            .or_insert_with(|| TaskSample {
                name: name.to_string(),
                first: cpu,
                last: cpu,
            })
            .last = cpu;
    }
}

/// A 25 ms `/proc/self/task/*/stat` sampler running on its own thread.
/// Threads are grouped by name with trailing `-<digits>` stripped, so
/// `shard-0` and `shard-1` fold into `shard`; the main thread is `main`.
pub struct TaskSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<HashMap<u32, TaskSample>>,
}

impl TaskSampler {
    /// Starts sampling now; the first sweep is each thread's baseline.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let sampler_stop = stop.clone();
        let handle = std::thread::Builder::new()
            .name("bench-sampler".into())
            .spawn(move || {
                let mut acc = HashMap::new();
                sample_tasks(&mut acc);
                while !sampler_stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(25));
                    sample_tasks(&mut acc);
                }
                acc
            })
            .expect("spawn sampler thread");
        TaskSampler { stop, handle }
    }

    /// Stops the sampler and returns CPU seconds consumed per thread-name
    /// group since [`TaskSampler::start`]. Call before the sampled
    /// threads exit: a thread's cumulative CPU is unreadable once it is
    /// gone, and only what the last sweep saw is counted.
    pub fn finish(self) -> BTreeMap<String, f64> {
        self.stop.store(true, Ordering::Relaxed);
        let acc = self.handle.join().expect("sampler thread panicked");
        let mut by_group = BTreeMap::new();
        for t in acc.into_values() {
            let group = t
                .name
                .trim_end_matches(|c: char| c.is_ascii_digit())
                .trim_end_matches('-');
            *by_group.entry(group.to_string()).or_insert(0.0) += t.last - t.first;
        }
        by_group
    }
}
