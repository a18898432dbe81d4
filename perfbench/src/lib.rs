//! Benchmark of the E-Ant Hadoop simulator: the workloads, the cell runner
//! and the timing wrappers behind `perfbench`. See `README.md` beside this
//! crate for the workloads, the metrics and how to run them.

pub mod cell;
pub mod probe;
pub mod workloads;

/// Readings from `/proc/self/status`.
pub mod proc_status {
    /// The value of a `kB` line such as `VmRSS` or `VmHWM`, in KiB; 0 when
    /// the file or the line is missing.
    #[must_use]
    pub fn kib(key: &str) -> u64 {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|status| {
                status.lines().find_map(|line| {
                    let rest = line.strip_prefix(key)?.strip_prefix(':')?;
                    rest.trim().trim_end_matches("kB").trim().parse().ok()
                })
            })
            .unwrap_or(0)
    }
}
