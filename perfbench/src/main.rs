//! Command-line driver: `--workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`. Prints a context line, then as the last
//! line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use croesus_perfbench::host::{
    process_cpu_s, time_disk_kernel, time_kernel, DISK_KERNEL_RUNS_PER_REF_S, KERNEL_RUNS_PER_REF_S,
};
use croesus_perfbench::traced::traced_run;
use croesus_perfbench::workload::{video_seed, LogDir, Outputs, Workload, DEFAULT_SEED, VIDEOS};
use croesus_perfbench::LAYER_MAP;

/// Rounds timed even when the time is up sooner.
const MIN_ROUNDS: usize = 2;
/// Failure messages kept for the context line.
const MAX_ERRORS: usize = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A run's outcome, printed as the last line.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Figures for the context line only.
    context: Vec<(&'static str, f64)>,
}

impl Report {
    /// Account for one run of `frames` frames; a failed run fails them all.
    fn count(&mut self, frames: u64, outcome: Result<(), String>) -> bool {
        self.attempted += frames;
        match outcome {
            Ok(()) => true,
            Err(e) => {
                eprintln!("run failed: {e}");
                self.failed += frames;
                if self.errors.len() < MAX_ERRORS {
                    self.errors.push(e);
                }
                false
            }
        }
    }
}

/// Run `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "unknown panic".into());
        Err(format!("panicked: {msg}"))
    })
}

fn check(got: &Outputs, want: &Outputs) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "outputs differ from the reference run: got {got:?}, want {want:?}"
        ))
    }
}

fn log_dir(w: Workload) -> Result<Option<LogDir>, String> {
    if w.is_durable() {
        LogDir::fresh(w)
            .map(Some)
            .map_err(|e| format!("create log directory: {e}"))
    } else {
        Ok(None)
    }
}

/// One `Deployment::run` of `frames` frames in a fresh log directory.
struct Timed {
    wall_s: f64,
    /// CPU time of all threads during the run.
    cpu_s: f64,
    metrics: croesus::core::RunMetrics,
}

fn timed_run(w: Workload, seed: u64, frames: u64) -> Result<Timed, String> {
    guarded(|| {
        let dir = log_dir(w)?;
        let (started, cpu) = (Instant::now(), process_cpu_s());
        let metrics = w
            .deployment(seed, frames, dir.as_ref().map(LogDir::path))
            .run();
        Ok(Timed {
            wall_s: started.elapsed().as_secs_f64(),
            cpu_s: process_cpu_s() - cpu,
            metrics,
        })
    })
}

/// Reset the kernel's peak-RSS mark for this process (Linux 4.0+).
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set since the last reset, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The end-to-end metrics. Closed-loop rounds run every video once, each
/// round preceded by a one-frame run of every video for `setup_s`, until the
/// time is up. Each run follows a run of the CPU reference kernel
/// ([`croesus_perfbench::host`]), and its CPU time, all threads together,
/// is counted in the CPU reference seconds that kernel run gives. Where the
/// one thread waits on the log's syncs itself, a disk-kernel run follows
/// too, and the run's wall time beyond its CPU time is added in disk
/// reference seconds. Throughput divides a round's frames by the sum over
/// videos of each video's median of those. `setup_s` (wall time) and
/// `peak_rss_mb` are means over videos of each video's median. The sums
/// average over content. Commit latencies are medians over all runs. The
/// wall-clock throughput goes to the context line.
fn end_to_end(a: &Args, frames: u64, refs: &[Outputs], report: &mut Report) -> usize {
    let w = a.workload;
    let per_video = || vec![Vec::new(); refs.len()];
    let (mut walls, mut ref_walls) = (per_video(), per_video());
    let (mut setup, mut rss) = (per_video(), per_video());
    let (mut kernels, mut disk_kernels, mut waits) = (Vec::new(), Vec::new(), Vec::new());
    let (mut ip50, mut ip99, mut fp50, mut fp99) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || started.elapsed().as_secs_f64() < a.seconds {
        rounds += 1;
        for (k, setup) in (0..).zip(&mut setup) {
            let outcome = timed_run(w, video_seed(a.seed, k), 1);
            if let Ok(t) = &outcome {
                setup.push(t.wall_s);
            }
            report.count(1, outcome.map(|_| ()));
        }
        for (k, reference) in (0..).zip(refs) {
            let kernel = time_kernel();
            kernels.push(kernel);
            let disk_kernel = if w.syncs_inline() {
                let disk = guarded(|| {
                    let dir = LogDir::fresh(w).map_err(|e| format!("create log directory: {e}"))?;
                    time_disk_kernel(dir.path()).map_err(|e| format!("disk kernel: {e}"))
                });
                match disk {
                    Ok(d) => Some(d),
                    Err(e) => {
                        report.count(frames, Err(e));
                        continue;
                    }
                }
            } else {
                None
            };
            reset_peak_rss();
            let outcome = timed_run(w, video_seed(a.seed, k), frames)
                .and_then(|t| check(&Outputs::of(&t.metrics), reference).map(|()| t));
            let peak = peak_rss_mb();
            if let Ok(t) = &outcome {
                let (m, wait) = (&t.metrics, (t.wall_s - t.cpu_s).max(0.0));
                waits.push(wait / t.wall_s);
                walls[k as usize].push(t.wall_s);
                let cpu_ref_s = t.cpu_s / (kernel * KERNEL_RUNS_PER_REF_S);
                ref_walls[k as usize].push(match disk_kernel {
                    Some(disk) => {
                        disk_kernels.push(disk);
                        cpu_ref_s + wait / (disk * DISK_KERNEL_RUNS_PER_REF_S)
                    }
                    None => cpu_ref_s,
                });
                rss[k as usize].push(peak);
                ip50.push(m.initial_commit_quantiles.p50);
                ip99.push(m.initial_commit_quantiles.p99);
                fp50.push(m.final_commit_quantiles.p50);
                fp99.push(m.final_commit_quantiles.p99);
            }
            report.count(frames, outcome.map(|_| ()));
        }
    }
    let videos = refs.len() as f64;
    let sum_of_medians = |runs: &[Vec<f64>]| runs.iter().map(|r| median(r)).sum::<f64>();
    let (wall, ref_s) = (sum_of_medians(&walls), sum_of_medians(&ref_walls));
    let (frames, txns) = (
        frames as f64 * videos,
        refs.iter().map(|o| o.transactions_committed).sum::<u64>() as f64,
    );
    let mean = |f: fn(&Outputs) -> f64| refs.iter().map(f).sum::<f64>() / videos;
    report.context = vec![
        ("wall_frames_per_s", frames / wall),
        ("wall_txn_per_s", txns / wall),
        ("kernel_ms", median(&kernels) * 1e3),
        ("disk_kernel_ms", median(&disk_kernels) * 1e3),
        ("wait_share", median(&waits)),
    ];
    report.metrics = vec![
        ("frames_per_ref_s", frames / ref_s, "1/s"),
        ("txn_per_ref_s", txns / ref_s, "1/s"),
        ("initial_commit_p50_ms", median(&ip50), "ms"),
        ("initial_commit_p99_ms", median(&ip99), "ms"),
        ("final_commit_p50_ms", median(&fp50), "ms"),
        ("final_commit_p99_ms", median(&fp99), "ms"),
        ("f_score", mean(|o| o.f_score), "ratio"),
        (
            "bandwidth_utilization",
            mean(|o| o.bandwidth_utilization),
            "ratio",
        ),
        ("peak_rss_mb", sum_of_medians(&rss) / videos, "MiB"),
        ("setup_s", sum_of_medians(&setup) / videos, "s"),
    ];
    rounds
}

/// The per-layer metrics, on the first video: untimed and traced runs
/// alternate, in turn going first, until the time is up; the layers of the
/// traced run with the median wall time are reported.
fn per_layer(a: &Args, frames: u64, reference: &Outputs, report: &mut Report) -> usize {
    let w = a.workload;
    let seed = video_seed(a.seed, 0);
    let (mut untimed, mut traces) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut pairs = 0;
    while pairs < 1 || started.elapsed().as_secs_f64() < a.seconds {
        for traced_turn in [pairs % 2 == 1, pairs % 2 == 0] {
            if traced_turn {
                let outcome = guarded(|| {
                    let dir = log_dir(w)?;
                    let trace =
                        traced_run(&w.deployment(seed, frames, dir.as_ref().map(LogDir::path)))?;
                    check(&Outputs::of(&trace.metrics), reference)?;
                    Ok(trace)
                });
                match outcome {
                    Ok(trace) => {
                        report.count(frames, Ok(()));
                        traces.push(trace);
                    }
                    Err(e) => {
                        report.count(frames, Err(e));
                    }
                }
            } else {
                let outcome = timed_run(w, seed, frames)
                    .and_then(|t| check(&Outputs::of(&t.metrics), reference).map(|()| t.wall_s));
                if let Ok(took) = &outcome {
                    untimed.push(*took);
                }
                report.count(frames, outcome.map(|_| ()));
            }
        }
        pairs += 1;
    }
    traces.sort_by(|x, y| x.wall_s.total_cmp(&y.wall_s));
    let walls: Vec<f64> = traces.iter().map(|t| t.wall_s).collect();
    if let Some(mid) = traces.get(traces.len() / 2) {
        report.metrics = mid.layers.clone();
        report.metrics.push((
            "trace.overhead",
            median(&walls) / median(&untimed) - 1.0,
            "ratio",
        ));
    }
    pairs
}

/// The commit the checkout came from, when it is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".into()
    }
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = a.workload;
    let frames = w.frames();
    let mut report = Report::default();
    let refs = guarded(|| {
        let videos = if a.trace { 1 } else { VIDEOS };
        Ok((0..videos)
            .map(|k| Outputs::of(&w.reference(video_seed(a.seed, k), frames).run()))
            .collect::<Vec<_>>())
    });
    let rounds = match refs {
        Ok(refs) if a.trace => per_layer(&a, frames, &refs[0], &mut report),
        Ok(refs) => end_to_end(&a, frames, &refs, &mut report),
        Err(e) => {
            report.count(frames, Err(format!("reference run: {e}")));
            0
        }
    };

    let map = LAYER_MAP
        .iter()
        .map(|(layer, moves)| format!("{}:{}", json_str(layer), json_str(moves)))
        .collect::<Vec<_>>()
        .join(",");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let context: String = report
        .context
        .iter()
        .map(|(name, value)| format!("{}:{},", json_str(name), json_num(*value)))
        .collect();
    println!(
        "{{\"workload\":{},\"why\":{},\"seed\":{},\"videos\":{VIDEOS},\"frames\":{frames},\"seconds\":{},\"rounds\":{rounds},\"nproc\":{nproc},\"commit\":{},\"trace\":{},{context}\"errors\":[{}],\"layer_map\":{{{map}}}}}",
        json_str(w.name()),
        json_str(w.why()),
        a.seed,
        json_num(a.seconds),
        json_str(&commit()),
        a.trace,
        report.errors.iter().map(|e| json_str(e)).collect::<Vec<_>>().join(","),
    );
    let metrics = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
    );
    ExitCode::SUCCESS
}
