//! Host fingerprint: without it no int8 or thread-scaling figure can be
//! compared across machines.

use em_nn::threadpool;

/// The machine a run measured on, and the kernel path compiled for it.
#[derive(Debug, Clone)]
pub struct Host {
    /// Processors listed in `/proc/cpuinfo` (what `nproc --all` counts).
    pub nproc: usize,
    /// `std::thread::available_parallelism` (affinity and quota aware).
    pub available_parallelism: usize,
    /// The workspace's effective worker budget
    /// (`threadpool::budget_snapshot().effective`).
    pub thread_budget: usize,
    /// The CPU reports `avx512f`.
    pub cpu_avx512f: bool,
    /// The CPU reports `avx512_vnni`.
    pub cpu_avx512vnni: bool,
    /// The build compiled the AVX-512F kernels in (`target-cpu=native`).
    pub kernel_avx512f: bool,
    /// The build compiled the AVX-512 VNNI int8 kernel in.
    pub kernel_avx512vnni: bool,
}

/// Reads the fingerprint of the running host.
pub fn fingerprint() -> Host {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags: Vec<&str> = cpuinfo
        .lines()
        .find(|l| l.starts_with("flags"))
        .map(|l| l.split_whitespace().collect())
        .unwrap_or_default();
    let budget = threadpool::budget_snapshot();
    Host {
        nproc: cpuinfo
            .lines()
            .filter(|l| l.starts_with("processor"))
            .count()
            .max(1),
        available_parallelism: budget.available_parallelism,
        thread_budget: budget.effective,
        cpu_avx512f: flags.contains(&"avx512f"),
        cpu_avx512vnni: flags.contains(&"avx512_vnni"),
        kernel_avx512f: cfg!(target_feature = "avx512f"),
        kernel_avx512vnni: cfg!(target_feature = "avx512vnni"),
    }
}

impl Host {
    /// The fingerprint as per-layer metrics (flags read 1 or 0).
    pub fn metrics(&self) -> [(&'static str, f64); 7] {
        let flag = |b: bool| if b { 1.0 } else { 0.0 };
        [
            ("host.nproc", self.nproc as f64),
            (
                "host.available_parallelism",
                self.available_parallelism as f64,
            ),
            ("host.thread_budget", self.thread_budget as f64),
            ("host.cpu_avx512f", flag(self.cpu_avx512f)),
            ("host.cpu_avx512vnni", flag(self.cpu_avx512vnni)),
            ("host.kernel_avx512f", flag(self.kernel_avx512f)),
            ("host.kernel_avx512vnni", flag(self.kernel_avx512vnni)),
        ]
    }

    /// One human-readable line.
    pub fn summary(&self) -> String {
        let kernel = match (self.kernel_avx512f, self.kernel_avx512vnni) {
            (true, true) => "avx512f+avx512vnni",
            (true, false) => "avx512f",
            _ => "portable",
        };
        format!(
            "host: nproc {} available_parallelism {} thread_budget {} cpu avx512f={} avx512vnni={} kernel path {kernel}",
            self.nproc,
            self.available_parallelism,
            self.thread_budget,
            self.cpu_avx512f,
            self.cpu_avx512vnni,
        )
    }
}
