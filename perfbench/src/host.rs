//! Host-time measurement on a shared host.
//!
//! On the virtual machines this benchmark runs on, the hypervisor steals
//! the CPU for other guests: steal varied from under 1% to over 60% between
//! runs on the 2-vCPU host the benchmark was sized on, and wall time spread
//! with it. [`HostClock`] reads the benchmark thread's on-CPU time instead,
//! which leaves steal out.

use std::time::Instant;

/// A reading of the benchmark thread's on-CPU time, from the scheduler's
/// accounting in `/proc/thread-self/schedstat` (updated at least every
/// scheduler tick). Falls back to wall time where the file is missing.
#[derive(Debug, Clone, Copy)]
pub struct HostClock {
    wall: Instant,
    cpu_ns: Option<u64>,
}

impl HostClock {
    pub fn now() -> Self {
        let cpu_ns = std::fs::read_to_string("/proc/thread-self/schedstat")
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok());
        HostClock {
            wall: Instant::now(),
            cpu_ns,
        }
    }

    /// Host seconds from `earlier` to `self`.
    pub fn secs_since(self, earlier: HostClock) -> f64 {
        match (self.cpu_ns, earlier.cpu_ns) {
            (Some(b), Some(a)) => b.saturating_sub(a) as f64 / 1e9,
            _ => (self.wall - earlier.wall).as_secs_f64(),
        }
    }
}
