//! The host's speed at the moment, read from fixed reference kernels.
//!
//! On a shared host the same run of the same video can take 20-40% longer
//! in one stretch of seconds than in the next, and those stretches last
//! from seconds to minutes. Part of it is the host taking the CPU away
//! (steal), which a multi-threaded run pays more than once when a thread
//! waits on another that is not running; part is the CPU itself running
//! slower; a log's syncs can slow even more. Hence CPU time, which leaves
//! steal out, and two kernels: the CPU kernel does the kind of work the
//! pipeline does (hash-map inserts, allocation, sorting, formatting) and
//! the disk kernel the kind of I/O the file-backed log does (appends,
//! `sync_data`, a rewrite-and-rename checkpoint), both on inputs that never
//! change, so their times move with the host and not with the program.
//! Timing them next to every run and counting the run's time in the
//! reference seconds they give cancels the host's slow stretches.

use std::collections::HashMap;
use std::fs::File;
use std::hint::black_box;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One CPU reference second is the CPU time of this many kernel runs on
/// the same host at the same moment (about one second on a 2-core VM).
pub const KERNEL_RUNS_PER_REF_S: f64 = 50.0;

/// The reference kernel; returns a checksum that depends on all its work.
pub fn reference_kernel() -> u64 {
    let mut sum = 0u64;
    for pass in 1..=3u64 {
        let mut groups: HashMap<u64, Vec<u32>> = HashMap::new();
        let mut x = pass.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        for i in 0..60_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            groups.entry(x % 20_000).or_default().push(i);
        }
        let mut sizes: Vec<(u64, usize)> = groups.iter().map(|(k, v)| (*k, v.len())).collect();
        sizes.sort_unstable();
        for (k, n) in &sizes {
            sum = sum.wrapping_mul(31).wrapping_add(k ^ *n as u64);
        }
        let text: String = sizes
            .iter()
            .take(5_000)
            .map(|(k, _)| format!("{k:x}"))
            .collect();
        sum ^= text.len() as u64;
    }
    sum
}

/// CPU time of one kernel run, seconds.
pub fn time_kernel() -> f64 {
    let started = thread_cpu_s();
    black_box(reference_kernel());
    thread_cpu_s() - started
}

/// One disk reference second is the time of this many disk-kernel runs on
/// the same host at the same moment (about one second on a 2-core VM).
pub const DISK_KERNEL_RUNS_PER_REF_S: f64 = 250.0;

/// Appends, each followed by a sync, in one disk-kernel run: about an
/// eighth of the syncs of a `street-msia-durable` video.
const DISK_SYNCS: usize = 16;
/// Bytes per append: the log's mean bytes per group-64 sync.
const DISK_APPEND_BYTES: usize = 9_000;
/// Bytes of the one checkpoint rewrite: the log's mean checkpoint image.
const DISK_RESET_BYTES: usize = 160_000;

/// Wall time of one disk-kernel run in the empty directory `dir`, seconds:
/// the file-backed log's create, append-and-sync and checkpoint pattern.
pub fn time_disk_kernel(dir: &Path) -> io::Result<f64> {
    let sync_dir = || File::open(dir)?.sync_all();
    let log = dir.join("kernel.wal");
    let tmp = dir.join("kernel.wal.tmp");
    let started = Instant::now();
    let mut file = File::create(&log)?;
    sync_dir()?;
    for _ in 0..DISK_SYNCS {
        file.write_all(&[0x5a; DISK_APPEND_BYTES])?;
        file.sync_data()?;
    }
    let mut image = File::create(&tmp)?;
    image.write_all(&[0xa5; DISK_RESET_BYTES])?;
    image.sync_data()?;
    std::fs::rename(&tmp, &log)?;
    sync_dir()?;
    let took = started.elapsed().as_secs_f64();
    std::fs::remove_file(&log)?;
    Ok(took)
}

/// CPU time of the calling thread, seconds.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(3) // CLOCK_THREAD_CPUTIME_ID
}

/// CPU time of all of this process's threads, seconds.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(2) // CLOCK_PROCESS_CPUTIME_ID
}

/// Read a CPU-time clock (Linux, 64-bit). The host's steal is left out:
/// the kernel accounts it apart from task time.
fn cpu_clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}
