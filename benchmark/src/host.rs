//! What the host did while the benchmark ran: CPU time and run-queue
//! wait of the simulating thread, and the process's peak memory.

/// Scheduler accounting of the calling thread.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sched {
    /// Seconds spent running on a CPU.
    pub cpu_s: f64,
    /// Seconds spent runnable but waiting for a CPU.
    pub wait_s: f64,
}

impl Sched {
    /// The calling thread's totals so far, from
    /// `/proc/thread-self/schedstat`; `None` where the kernel does not
    /// provide it.
    pub fn now() -> Option<Sched> {
        let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
        let mut fields = text.split_whitespace().map(str::parse::<u64>);
        let cpu = fields.next()?.ok()?;
        let wait = fields.next()?.ok()?;
        Some(Sched {
            cpu_s: cpu as f64 * 1e-9,
            wait_s: wait as f64 * 1e-9,
        })
    }

    /// Accounting accrued between `earlier` and `self`.
    pub fn since(self, earlier: Sched) -> Sched {
        Sched {
            cpu_s: self.cpu_s - earlier.cpu_s,
            wait_s: self.wait_s - earlier.wait_s,
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), if the kernel
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
