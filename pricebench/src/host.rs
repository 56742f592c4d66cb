//! Process and host readings: resident memory, CPU time, stolen CPU
//! time, and a fixed reference kernel that tells host drift from program
//! change.

use std::hint::black_box;
use std::time::Instant;

/// Clock ticks per second of `/proc/self/stat` CPU times (Linux
/// `USER_HZ`).
const TICKS_PER_SECOND: f64 = 100.0;

/// A `kB` field of `/proc/self/status`, in MB.
fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("/proc/self/status has no {field}"))
}

/// Current resident set, MB.
pub fn rss_mb() -> Result<f64, String> {
    status_mb("VmRSS")
}

/// Peak resident set since the last [`reset_peak_rss`], MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    status_mb("VmHWM")
}

/// Reset the kernel's peak-RSS mark to the current RSS, so the peak
/// excludes input generation.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("clear_refs: {e}"))
}

/// Process CPU time so far: `(user, system)` seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    /// User-mode seconds.
    pub user: f64,
    /// Kernel-mode seconds.
    pub sys: f64,
}

impl Cpu {
    /// Read `/proc/self/stat`.
    pub fn now() -> Result<Cpu, String> {
        let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> Result<f64, String> {
            let value: f64 = fields
                .get(i)
                .and_then(|f| f.parse().ok())
                .ok_or("malformed /proc/self/stat")?;
            Ok(value / TICKS_PER_SECOND)
        };
        Ok(Cpu {
            user: tick(11)?,
            sys: tick(12)?,
        })
    }

    /// CPU time spent since `earlier`.
    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            user: self.user - earlier.user,
            sys: self.sys - earlier.sys,
        }
    }

    /// Accumulate another interval.
    pub fn add(&mut self, other: Cpu) {
        self.user += other.user;
        self.sys += other.sys;
    }
}

/// Host-wide CPU ticks from the first line of `/proc/stat`. The share the
/// hypervisor stole from this machine's vCPUs is the clearest sign of
/// other tenants' load; it stalls most what hands work between threads,
/// such as a loopback round trip.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ticks {
    /// Ticks stolen by the hypervisor.
    pub steal: u64,
    /// User, nice, system, idle, iowait, irq, softirq and steal ticks.
    pub total: u64,
}

impl Ticks {
    /// Read `/proc/stat`.
    pub fn now() -> Result<Ticks, String> {
        let stat = std::fs::read_to_string("/proc/stat").map_err(|e| e.to_string())?;
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .and_then(|line| line.strip_prefix("cpu "))
            .ok_or("malformed /proc/stat")?
            .split_whitespace()
            .take(8)
            .map(|f| f.parse().map_err(|_| "malformed /proc/stat"))
            .collect::<Result<_, _>>()?;
        if fields.len() < 8 {
            return Err("malformed /proc/stat".into());
        }
        Ok(Ticks {
            steal: fields[7],
            total: fields.iter().sum(),
        })
    }

    /// Ticks since `earlier`.
    pub fn since(self, earlier: Ticks) -> Ticks {
        Ticks {
            steal: self.steal - earlier.steal,
            total: self.total - earlier.total,
        }
    }

    /// Accumulate another interval.
    pub fn add(&mut self, other: Ticks) {
        self.steal += other.steal;
        self.total += other.total;
    }

    /// Stolen share of all ticks.
    pub fn steal_frac(self) -> f64 {
        self.steal as f64 / self.total.max(1) as f64
    }
}

/// `u64` words of the memory-bound part's buffer: 64 MB, 32 times a
/// core's L2. A shared last-level cache holds it only while other tenants
/// leave room, so its time follows their cache and memory load.
const BUFFER_WORDS: usize = 1 << 23;

/// Scattered accesses of one memory-bound pass.
const SCATTERED_ACCESSES: usize = 1 << 20;

/// Odd stride of the scattered pass, so it visits the buffer's words in
/// an order no prefetcher follows.
const STRIDE: usize = 1_048_573;

/// A fixed kernel, independent of every crate under test, that tells host
/// drift from program change. One sample is a cache-resident part (sort
/// 2^18 pseudo-random integers, 2 MB) plus a memory-bound part (a
/// scattered read-modify-write pass over a 64 MB buffer), because the
/// workloads are both compute- and memory-bound. A run samples it before
/// its phases and between segments, untimed, so the median covers the
/// whole run rather than one moment of it.
pub struct Reference {
    buffer: Vec<u64>,
    times_ms: Vec<f64>,
}

impl Reference {
    /// Allocate and touch the buffer.
    pub fn new() -> Reference {
        Reference {
            buffer: (0..BUFFER_WORDS as u64).collect(),
            times_ms: Vec::new(),
        }
    }

    /// Time the kernel `repeats` times.
    pub fn sample(&mut self, repeats: usize) {
        for _ in 0..repeats {
            let started = Instant::now();
            black_box(sort_part());
            black_box(scattered_part(&mut self.buffer));
            self.times_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
    }

    /// Median kernel time so far, ms, and the number of samples.
    pub fn median_ms(&self) -> (f64, usize) {
        (crate::stats::median(&self.times_ms), self.times_ms.len())
    }
}

fn sort_part() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut data: Vec<u64> = (0..1 << 18)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    black_box(&mut data).sort_unstable();
    data.iter().fold(0u64, |acc, &v| acc.rotate_left(5) ^ v)
}

fn scattered_part(buffer: &mut [u64]) -> u64 {
    let mut acc = 0u64;
    let mut i = 0;
    for _ in 0..SCATTERED_ACCESSES {
        i = (i + STRIDE) % buffer.len();
        acc = acc.wrapping_add(buffer[i]);
        buffer[i] = acc;
    }
    acc
}
