//! End-to-end benchmark of Croesus `Deployment::run`.
//!
//! A timed run is a closed loop: one driver thread builds the workload's
//! deployment and calls `run()` on each of [`workload::VIDEOS`]
//! fixed-length videos made from the seed, round after round until the time
//! is up, with tracing off. Every run's deterministic outputs are checked
//! against a durability-off, one-worker reference run of the same video.
//! Throughput is counted in reference seconds, read from fixed kernels
//! timed beside every run ([`host`]), so that the host's slow stretches
//! cancel out; the wall-clock figures go to the context line. A traced run
//! drives the same deployment frame by frame through the layers' public
//! functions ([`traced::traced_run`]) and times each call from outside,
//! for the per-layer shares.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload street-msia-mem --seed 1 --seconds 10 --trace 0
//! ```

pub mod host;
pub mod traced;
pub mod workload;

/// Which end-to-end metric each per-layer metric should move, on which
/// workload. Later changes cite these rows by layer name.
pub const LAYER_MAP: [(&str, &str); 12] = [
    (
        "edge.initial.*",
        "frames_per_ref_s, txn_per_ref_s on street-msia-mem; frames_per_ref_s on mall-mssr-fleet (workers 2)",
    ),
    (
        "edge.final.*",
        "frames_per_ref_s on mall-mssr-fleet, less so on street-msia-mem",
    ),
    (
        "edge.local.*, edge.settle.*",
        "frames_per_ref_s and peak_rss_mb on the street workloads",
    ),
    (
        "detect.edge.busy_s, detect.cloud.busy_s, threshold.busy_s, eval.busy_s, video.generate_s",
        "guards: each under 5% of wall, a change saves at most its share",
    ),
    (
        "txn.*",
        "txn_per_ref_s on mall-mssr-fleet; txn.aborts stays 0 on MS-IA",
    ),
    (
        "wal.records, wal.commit_points, wal.syncs, wal.checkpoints, wal.bytes_appended",
        "frames_per_ref_s on street-msia-durable; all 0 on street-msia-mem",
    ),
    (
        "wal.storage.reset.*, wal.write_amp",
        "frames_per_ref_s on street-msia-durable",
    ),
    (
        "wal.storage.append.busy_s, wal.storage.sync.*, wal.flush.busy_s",
        "frames_per_ref_s on mall-mssr-fleet",
    ),
    ("wal.coalesce.*", "frames_per_ref_s on mall-mssr-fleet"),
    (
        "frame.p50_us, frame.p99_us",
        "frames_per_ref_s on every workload",
    ),
    (
        "frame.growth",
        "frames_per_ref_s on street-msia-durable (super-linear terms), and street-msia-mem",
    ),
    (
        "trace.coverage, trace.overhead",
        "validity of the traced run itself",
    ),
];
