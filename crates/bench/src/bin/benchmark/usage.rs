//! The per-layer metrics every workload reports: CPU time split between
//! user and kernel mode, busy cores, minor page faults and read/write
//! system calls of the process doing the work, read from `/proc/<pid>/stat`
//! and `/proc/<pid>/io` before and after the timed operations. Both files
//! include the children the process has reaped, so a `serve-worker` shard
//! counts towards the server that spawned it.

use std::fs;
use std::time::Instant;

use crate::metrics::WorkloadResult;

/// Milliseconds per clock tick: `/proc` counts CPU time in `USER_HZ`
/// ticks, which Linux fixes at 100 a second for user space.
const MS_PER_TICK: f64 = 10.0;

/// Cumulative counters of one process and its reaped children.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Usage {
    at: Instant,
    user_ticks: u64,
    sys_ticks: u64,
    minflt: u64,
    /// Read-class plus write-class system calls (`syscr` + `syscw`).
    syscalls: u64,
    /// Bytes those calls moved (`rchar` + `wchar`), sockets and pipes
    /// included.
    io_bytes: u64,
}

impl Usage {
    /// The counters of process `pid`, or of this process for `None`.
    pub fn read(pid: Option<u32>) -> Option<Self> {
        let dir = pid.map_or_else(|| "/proc/self".to_owned(), |p| format!("/proc/{p}"));
        let stat = fs::read_to_string(format!("{dir}/stat")).ok()?;
        let io = fs::read_to_string(format!("{dir}/io")).ok()?;
        parse(&stat, &io, Instant::now())
    }
}

/// The counters in a `/proc/<pid>/stat` line (fields as proc(5) numbers
/// them: 10 minflt, 11 cminflt, 14 utime, 15 stime, 16 cutime, 17 cstime)
/// and a `/proc/<pid>/io` file.
fn parse(stat: &str, io: &str, at: Instant) -> Option<Usage> {
    // The command name may hold spaces; the fields after it start at 3.
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let n = |field: usize| fields.get(field - 3)?.parse::<u64>().ok();
    let io_field = |key: &str| {
        let line = io.lines().find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?;
        line.trim().parse::<u64>().ok()
    };
    Some(Usage {
        at,
        user_ticks: n(14)? + n(16)?,
        sys_ticks: n(15)? + n(17)?,
        minflt: n(10)? + n(11)?,
        syscalls: io_field("syscr")? + io_field("syscw")?,
        io_bytes: io_field("rchar")? + io_field("wchar")?,
    })
}

/// Records the per-layer metrics of the `ops` operations run between
/// `before` and `after`; counters that could not be read fail the run.
pub fn record(res: &mut WorkloadResult, before: Option<Usage>, after: Option<Usage>, ops: usize) {
    let (Some(b), Some(a)) = (before, after) else {
        res.check(Some("cannot read the working process's /proc/<pid>/{stat,io}".to_owned()));
        return;
    };
    let ops = ops.max(1) as f64;
    let user_ms = (a.user_ticks - b.user_ticks) as f64 * MS_PER_TICK;
    let sys_ms = (a.sys_ticks - b.sys_ticks) as f64 * MS_PER_TICK;
    let cpu_ms = user_ms + sys_ms;
    let wall_ms = a.at.duration_since(b.at).as_secs_f64() * 1e3;
    res.layer("cpu.user_ms_per_op", user_ms / ops);
    res.layer("cpu.sys_pct", if cpu_ms > 0.0 { 100.0 * sys_ms / cpu_ms } else { 0.0 });
    res.layer("cpu.busy_cores", cpu_ms / wall_ms.max(f64::MIN_POSITIVE));
    res.layer("mem.minflt_per_op", (a.minflt - b.minflt) as f64 / ops);
    res.layer("io.syscalls_per_op", (a.syscalls - b.syscalls) as f64 / ops);
    res.layer("io.kb_per_op", (a.io_bytes - b.io_bytes) as f64 / 1024.0 / ops);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const IO: &str = "rchar: 3000\nwchar: 1096\nsyscr: 9\nsyscw: 3\nread_bytes: 0\n";

    #[test]
    fn parse_reads_own_and_reaped_children_counters() {
        // pid (comm) state ppid pgrp session tty tpgid flags minflt
        // cminflt majflt cmajflt utime stime cutime cstime ...
        let line = "42 (a b) c) S 1 42 42 0 -1 4194560 100 20 0 0 7 3 2 1 20 0 1 0";
        let at = Instant::now();
        let u = parse(line, IO, at).expect("parses");
        assert_eq!((u.minflt, u.user_ticks, u.sys_ticks), (120, 9, 4));
        assert_eq!((u.syscalls, u.io_bytes), (12, 4096));
        assert!(parse("42 (x) S 1", IO, at).is_none());
        assert!(parse(line, "rchar: 1\n", at).is_none());
        assert!(Usage::read(None).is_some());
    }

    #[test]
    fn record_reports_per_operation_deltas() {
        let at = Instant::now();
        let b = Usage { at, user_ticks: 10, sys_ticks: 2, minflt: 50, syscalls: 7, io_bytes: 0 };
        let a = Usage {
            at: at + Duration::from_millis(400),
            user_ticks: 46,
            sys_ticks: 6,
            minflt: 250,
            syscalls: 47,
            io_bytes: 8192,
        };
        let mut res = WorkloadResult::new("sim-ring", 1, true);
        record(&mut res, Some(b), Some(a), 4);
        let v = |name: &str| res.per_layer[name].value;
        assert_eq!(v("cpu.user_ms_per_op"), 90.0);
        assert_eq!(v("cpu.sys_pct"), 10.0);
        assert!((v("cpu.busy_cores") - 1.0).abs() < 1e-9);
        assert_eq!(v("mem.minflt_per_op"), 50.0);
        assert_eq!(v("io.syscalls_per_op"), 10.0);
        assert_eq!(v("io.kb_per_op"), 2.0);
        assert_eq!(res.failed, 0);
        record(&mut res, None, Some(a), 4);
        assert_eq!(res.failed, 1);
    }
}
