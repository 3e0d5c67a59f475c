//! The three benchmark workloads, the deterministic outputs every run is
//! checked against, and the per-run log directory.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use croesus::core::{
    CorrectionCounts, Croesus, Deployment, DurabilityMode, ProtocolKind, RunMetrics, ThresholdPair,
};
use croesus::video::VideoPreset;

/// The seed a run uses when none is given: the configuration default.
pub const DEFAULT_SEED: u64 = 42;

/// Videos per round of timed runs. Scenes differ by seed in object density,
/// hence in transactions per frame; timing a round over several videos keeps
/// that content variance out of the run-to-run spread.
pub const VIDEOS: u64 = 32;

/// The seed of video `k` of a round, for the benchmark seed `seed`.
pub fn video_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(VIDEOS).wrapping_add(k)
}

/// One set of inputs the benchmark runs. Nothing sleeps: the sim clock
/// models links and inference. The durable workloads also wait on their
/// logs' syncs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's default configuration with durability off.
    StreetMsiaMem,
    /// The same inputs with group-64 durability to a file-backed log.
    StreetMsiaDurable,
    /// Four MS-SR edges with worker pools and the pipelined, coalesced WAL.
    /// Its group is 64, as in the durable workload: with the default group
    /// of 8, a commit waits on a flusher hand-off and a device sync every
    /// eight commit points, and the run times the host's scheduler and disk.
    MallMssrFleet,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::StreetMsiaMem,
        Workload::StreetMsiaDurable,
        Workload::MallMssrFleet,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StreetMsiaMem => "street-msia-mem",
            Workload::StreetMsiaDurable => "street-msia-durable",
            Workload::MallMssrFleet => "mall-mssr-fleet",
        }
    }

    /// Why the workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::StreetMsiaMem => {
                "paper default (v2, 0.3/0.6, MS-IA, 1 edge, 1 worker), durability off: pure CPU pipeline, the control on which WAL and pool changes must read no change"
            }
            Workload::StreetMsiaDurable => {
                "same txn work plus a group-64 file WAL with default checkpoints: shows checkpoint, encode and sync cost and its growth with run length"
            }
            Workload::MallMssrFleet => {
                "v4 MS-SR on 4 edges, 2 workers, pipelined coalesced group-64 WAL: ~90% of frames go to the cloud, wait-die aborts, the only pool and flusher threads"
            }
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Frames per video, so that one run takes a few tenths of a second:
    /// many short runs let a median reject the machine's slow moments. The
    /// durable workload's cost per frame grows with run length, and the
    /// fleet's frames nearly all take the cloud path.
    pub fn frames(self) -> u64 {
        match self {
            Workload::StreetMsiaMem => 1000,
            Workload::StreetMsiaDurable => 500,
            Workload::MallMssrFleet => 250,
        }
    }

    /// Whether one thread does all of a run's work and waits on the log's
    /// syncs itself (one edge, one worker, group commit), so that the run's
    /// wall time beyond its CPU time is time waiting for the disk.
    pub fn syncs_inline(self) -> bool {
        self == Workload::StreetMsiaDurable
    }

    /// Whether the workload logs to disk.
    pub fn is_durable(self) -> bool {
        self != Workload::StreetMsiaMem
    }

    fn preset(self) -> VideoPreset {
        match self {
            Workload::StreetMsiaMem | Workload::StreetMsiaDurable => VideoPreset::StreetTraffic,
            Workload::MallMssrFleet => VideoPreset::MallSurveillance,
        }
    }

    fn protocol(self) -> ProtocolKind {
        match self {
            Workload::MallMssrFleet => ProtocolKind::MsSr,
            _ => ProtocolKind::MsIa,
        }
    }

    fn edges(self) -> usize {
        match self {
            Workload::MallMssrFleet => 4,
            _ => 1,
        }
    }

    fn workers(self) -> usize {
        match self {
            Workload::MallMssrFleet => 2,
            _ => 1,
        }
    }

    /// The workload's deployment over `frames` frames. A durable workload
    /// logs under `log_dir`, which must be given for it.
    pub fn deployment(self, seed: u64, frames: u64, log_dir: Option<&Path>) -> Deployment {
        let durability = match self {
            Workload::StreetMsiaMem => DurabilityMode::Disabled,
            Workload::StreetMsiaDurable => DurabilityMode::GroupCommit {
                dir: log_dir
                    .expect("the durable workload needs a log directory")
                    .into(),
                group: 64,
            },
            Workload::MallMssrFleet => DurabilityMode::Pipelined {
                dir: log_dir
                    .expect("the fleet workload needs a log directory")
                    .into(),
                group: 64,
                coalesce: true,
            },
        };
        self.builder(seed, frames)
            .workers(self.workers())
            .durability(durability)
            .build()
    }

    /// The reference the output check compares against: the same preset,
    /// protocol, edges and seed with durability off and one worker.
    pub fn reference(self, seed: u64, frames: u64) -> Deployment {
        self.builder(seed, frames)
            .workers(1)
            .durability(DurabilityMode::Disabled)
            .build()
    }

    fn builder(self, seed: u64, frames: u64) -> croesus::core::CroesusBuilder {
        Croesus::builder()
            .preset(self.preset())
            .thresholds(ThresholdPair::new(0.3, 0.6))
            .protocol(self.protocol())
            .edges(self.edges())
            .frames(frames)
            .seed(seed)
    }
}

/// The `RunMetrics` fields that depend only on the inputs: equal across
/// durability modes and worker counts (the byte-identity and
/// worker-determinism contracts).
#[derive(Clone, Debug, PartialEq)]
pub struct Outputs {
    pub transactions_committed: u64,
    pub corrections: CorrectionCounts,
    pub bytes_sent: u64,
    pub cloud_timeouts: u64,
    pub f_score: f64,
    pub bandwidth_utilization: f64,
}

impl Outputs {
    /// The deterministic part of a run's metrics.
    pub fn of(m: &RunMetrics) -> Outputs {
        Outputs {
            transactions_committed: m.transactions_committed,
            corrections: m.corrections,
            bytes_sent: m.bytes_sent,
            cloud_timeouts: m.cloud_timeouts,
            f_score: m.f_score,
            bandwidth_utilization: m.bandwidth_utilization,
        }
    }
}

/// A fresh log directory under `.bench_logs/` in the working directory,
/// removed when dropped.
pub struct LogDir(PathBuf);

impl LogDir {
    /// Create a new, empty directory for one run of `workload`.
    pub fn fresh(workload: Workload) -> std::io::Result<LogDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = PathBuf::from(".bench_logs").join(format!(
            "{}-{}-{n}",
            workload.name(),
            std::process::id()
        ));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(LogDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for LogDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind; fails harmlessly while another
        // run's directory still lives there.
        let _ = std::fs::remove_dir(".bench_logs");
    }
}
