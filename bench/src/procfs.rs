//! CPU and memory accounting of this process, read from `/proc` — the outside
//! view of what the reactor shards, the driver thread and the kernel cost.
//!
//! Thread CPU comes from `/proc/self/task/<tid>/stat` (`utime`/`stime`, in
//! `USER_HZ` ticks of 10 ms), so a window needs to be seconds long for the
//! shares to mean anything; the traced windows are.

use arrow_cluster::procstat::{self, CLOCK_TICKS_PER_SEC};
use std::collections::BTreeMap;
use std::fs;

/// One thread's (or process's) cumulative CPU, from a `stat` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskCpu {
    /// The thread name (`comm`, truncated by the kernel to 15 bytes).
    pub comm: String,
    pub utime_ticks: u64,
    pub stime_ticks: u64,
}

/// Parse one `/proc/<pid>/stat` or `/proc/<pid>/task/<tid>/stat` line. The
/// `comm` field may itself contain spaces and parentheses, so fields are
/// counted from after the *last* `)`: `utime` and `stime` are fields 14 and 15
/// of the line, i.e. the 12th and 13th after the name.
pub fn parse_stat(line: &str) -> Option<TaskCpu> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    if close < open {
        return None;
    }
    let mut rest = line[close + 1..].split_ascii_whitespace();
    let utime_ticks = rest.nth(11)?.parse().ok()?;
    let stime_ticks = rest.next()?.parse().ok()?;
    Some(TaskCpu {
        comm: line[open + 1..close].to_string(),
        utime_ticks,
        stime_ticks,
    })
}

/// Peak resident set of this process so far, in MB (0 if `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    procstat::scrape(std::process::id()).map_or(0.0, |u| u.peak_rss_kb as f64 / 1024.0)
}

/// The calling thread's kernel id.
pub fn current_tid() -> Option<u32> {
    let link = fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// Cumulative CPU of every live thread of this process, by thread id.
#[derive(Debug, Clone, Default)]
pub struct CpuSnapshot {
    tasks: BTreeMap<u32, TaskCpu>,
}

impl CpuSnapshot {
    /// Read `/proc/self/task/*/stat` (empty when `/proc` is unavailable).
    pub fn take() -> CpuSnapshot {
        let mut tasks = BTreeMap::new();
        if let Ok(dir) = fs::read_dir("/proc/self/task") {
            for entry in dir.flatten() {
                let tid = entry.file_name().to_str().and_then(|s| s.parse().ok());
                let stat = fs::read_to_string(entry.path().join("stat")).ok();
                if let (Some(tid), Some(cpu)) = (tid, stat.as_deref().and_then(parse_stat)) {
                    tasks.insert(tid, cpu);
                }
            }
        }
        CpuSnapshot { tasks }
    }

    /// CPU spent between `earlier` and `self`, split the way the attribution
    /// needs it. A thread that started in between counts from zero; one that
    /// exited in between is lost (none do inside a measured window).
    pub fn since(&self, earlier: &CpuSnapshot, driver_tid: Option<u32>) -> CpuDelta {
        let mut d = CpuDelta::default();
        for (tid, now) in &self.tasks {
            let (u0, s0) = earlier
                .tasks
                .get(tid)
                .map_or((0, 0), |t| (t.utime_ticks, t.stime_ticks));
            let user = now.utime_ticks.saturating_sub(u0) as f64 / CLOCK_TICKS_PER_SEC as f64;
            let sys = now.stime_ticks.saturating_sub(s0) as f64 / CLOCK_TICKS_PER_SEC as f64;
            d.user_s += user;
            d.sys_s += sys;
            if now.comm.starts_with(SHARD_THREAD_PREFIX) {
                d.shard_user_s += user;
                d.shard_sys_s += sys;
            }
            if Some(*tid) == driver_tid {
                d.driver_user_s += user;
                d.driver_sys_s += sys;
            }
        }
        d
    }
}

/// How `arrow-net` names its reactor shard threads (`arrow-net-shard-<i>`).
pub const SHARD_THREAD_PREFIX: &str = "arrow-net-shard";

/// CPU seconds spent in a window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuDelta {
    /// All threads, user mode.
    pub user_s: f64,
    /// All threads, kernel mode.
    pub sys_s: f64,
    /// Reactor shard threads, user mode.
    pub shard_user_s: f64,
    /// Reactor shard threads, kernel mode.
    pub shard_sys_s: f64,
    /// The load-driver thread, user mode.
    pub driver_user_s: f64,
    /// The load-driver thread, kernel mode.
    pub driver_sys_s: f64,
}

impl CpuDelta {
    /// User plus kernel CPU of all threads.
    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLAIN: &str = "4242 (arrow-net-shard) S 1 4242 4242 0 -1 4194368 120 0 0 0 \
                         37 11 0 0 20 0 3 0 123456 1000000 250 18446744073709551615 0 0 0";
    const TRICKY: &str = "77 (a (b) c d) R 1 77 77 0 -1 64 1 0 0 0 5 9 0 0 20 0 1 0 1 1 1 1";

    #[test]
    fn parses_stat_fixtures() {
        let t = parse_stat(PLAIN).unwrap();
        assert_eq!(t.comm, "arrow-net-shard");
        assert_eq!((t.utime_ticks, t.stime_ticks), (37, 11));
        let t = parse_stat(TRICKY).unwrap();
        assert_eq!(t.comm, "a (b) c d");
        assert_eq!((t.utime_ticks, t.stime_ticks), (5, 9));
    }

    #[test]
    fn rejects_short_or_malformed_stat_lines() {
        for bad in [
            "",
            "12 (x) S 1 2 3",
            ") 1 (",
            "12 x S 1 2 3 4 5 6 7 8 9 10 11 12 13 14",
        ] {
            assert!(parse_stat(bad).is_none(), "{bad:?}");
        }
        assert!(parse_stat("1 (x) S 1 1 1 0 -1 0 0 0 0 0 u 1 0 0").is_none());
    }

    #[test]
    fn delta_attributes_shards_and_driver() {
        let task = |comm: &str, u, s| TaskCpu {
            comm: comm.to_string(),
            utime_ticks: u,
            stime_ticks: s,
        };
        let before = CpuSnapshot {
            tasks: BTreeMap::from([
                (1, task("bench", 10, 10)),
                (2, task("arrow-net-shard", 100, 50)),
            ]),
        };
        let after = CpuSnapshot {
            tasks: BTreeMap::from([
                (1, task("bench", 40, 30)),
                (2, task("arrow-net-shard", 300, 150)),
                (3, task("arrow-net-shard", 20, 10)),
            ]),
        };
        let d = after.since(&before, Some(1));
        assert_eq!(d.driver_user_s, 0.30);
        assert_eq!(d.driver_sys_s, 0.20);
        assert_eq!(d.shard_user_s, 2.20);
        assert_eq!(d.shard_sys_s, 1.10);
        assert_eq!(d.user_s, 2.50);
        assert!((d.total_s() - 3.80).abs() < 1e-12);
    }

    #[test]
    fn live_snapshot_sees_this_thread() {
        let snap = CpuSnapshot::take();
        let tid = current_tid().expect("/proc/thread-self resolves on Linux");
        assert!(snap.tasks.contains_key(&tid));
        assert!(peak_rss_mb() > 0.0);
    }
}
