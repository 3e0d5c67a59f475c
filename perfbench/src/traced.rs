//! The traced run: the same deployment driven frame by frame through the
//! layers' public functions, each call timed from outside.
//!
//! The frame loop mirrors `Deployment::run`'s multi-stage loop step for
//! step — the same calls in the same order with the same random draws — so
//! it reproduces the run's deterministic outputs exactly (the benchmark's
//! tests pin this). The WAL's storage is a timing pass-through around
//! `FileStorage`, which writes byte-identical logs.

use std::io;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use croesus::core::{
    evaluation_bank, CloudNode, Deployment, EdgeNode, MetricsCollector, RunMetrics,
    ValidationPolicy,
};
use croesus::detect::{score_against, Detection, ModelProfile, SimulatedModel};
use croesus::net::BandwidthMeter;
use croesus::sim::{DetRng, SimDuration};
use croesus::store::{KvStore, LockManager};
use croesus::txn::recovery::recover_edge_file;
use croesus::txn::{ExecutorCore, WorkerPool};
use croesus::wal::{FileStorage, Storage, SyncCoalescer, Wal};

/// One layer's calls: a wall-time sample per call.
#[derive(Clone, Debug, Default)]
struct Span {
    samples: Vec<Duration>,
}

impl Span {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.samples.push(started.elapsed());
        out
    }

    /// Total time spent in the layer, seconds.
    fn busy_s(&self) -> f64 {
        self.samples.iter().sum::<Duration>().as_secs_f64()
    }

    /// Calls made.
    fn calls(&self) -> u64 {
        self.samples.len() as u64
    }

    /// The `q`-quantile of the call times (nearest rank), microseconds.
    fn quantile_us(&self, q: f64) -> f64 {
        quantile(&self.samples, q).as_secs_f64() * 1e6
    }
}

/// Nearest-rank quantile; zero for no samples.
fn quantile(samples: &[Duration], q: f64) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// What the timing storage saw, summed over every edge's log.
#[derive(Debug, Default)]
struct StorageTimes {
    append: Span,
    sync: Span,
    reset: Span,
    reset_bytes: u64,
}

/// A pass-through `Storage` that times each call into `FileStorage`.
struct TimedStorage {
    inner: FileStorage,
    times: Arc<Mutex<StorageTimes>>,
}

impl TimedStorage {
    /// Wrap `inner`, adding its calls to `times`.
    fn new(inner: FileStorage, times: Arc<Mutex<StorageTimes>>) -> Self {
        TimedStorage { inner, times }
    }

    fn times(&self) -> std::sync::MutexGuard<'_, StorageTimes> {
        self.times.lock().expect("storage times lock")
    }
}

impl Storage for TimedStorage {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let started = Instant::now();
        let out = self.inner.append(bytes);
        let took = started.elapsed();
        self.times().append.samples.push(took);
        out
    }

    fn sync(&mut self) -> io::Result<()> {
        let started = Instant::now();
        let out = self.inner.sync();
        let took = started.elapsed();
        self.times().sync.samples.push(took);
        out
    }

    fn reset(&mut self, bytes: &[u8]) -> io::Result<()> {
        let started = Instant::now();
        let out = self.inner.reset(bytes);
        let took = started.elapsed();
        let mut times = self.times();
        times.reset.samples.push(took);
        times.reset_bytes += bytes.len() as u64;
        out
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

/// The driver thread's layer calls.
#[derive(Clone, Debug, Default)]
struct Spans {
    video_generate: Span,
    detect_edge: Span,
    threshold: Span,
    edge_initial: Span,
    detect_cloud: Span,
    edge_final: Span,
    edge_local: Span,
    eval: Span,
    edge_settle: Span,
    wal_flush: Span,
}

impl Spans {
    /// Every top-level span; they never nest, so their sum is the traced
    /// wall time the layers account for.
    fn all(&self) -> [&Span; 10] {
        [
            &self.video_generate,
            &self.detect_edge,
            &self.threshold,
            &self.edge_initial,
            &self.detect_cloud,
            &self.edge_final,
            &self.edge_local,
            &self.eval,
            &self.edge_settle,
            &self.wal_flush,
        ]
    }
}

/// One traced run's results.
pub struct Trace {
    /// The run's metrics, as `Deployment::run` would return them.
    pub metrics: RunMetrics,
    /// Wall time from video generation to the shutdown flush, seconds.
    pub wall_s: f64,
    /// Per-layer metrics: name, value, unit.
    pub layers: Vec<(&'static str, f64, &'static str)>,
}

/// Build the edge fleet exactly as the deployment does, with every log's
/// storage wrapped in [`TimedStorage`].
fn build_edges(
    dep: &Deployment,
    coalescer: &Option<Arc<SyncCoalescer>>,
    times: &Arc<Mutex<StorageTimes>>,
) -> io::Result<Vec<EdgeNode>> {
    let cfg = dep.config();
    let bank = evaluation_bank();
    let durability = dep.durability();
    (0..dep.num_edges())
        .map(|i| {
            let salt = (i as u64) << 48;
            let model = SimulatedModel::new(ModelProfile::tiny_yolov3(), cfg.seed ^ 0xE)
                .with_hardware_factor(cfg.setup.edge.hardware_factor());
            let mut core = ExecutorCore::new(
                Arc::new(KvStore::new()),
                Arc::new(LockManager::new(dep.protocol().default_lock_policy())),
            );
            if let Some(path) = durability.edge_log_path(i) {
                let storage = Box::new(TimedStorage::new(
                    FileStorage::create(path)?,
                    Arc::clone(times),
                ));
                let wal = match durability.pipeline_config(coalescer.clone()) {
                    None => Wal::with_storage(storage, durability.wal_config()),
                    Some(pipe) => {
                        Wal::with_storage_pipelined(storage, durability.wal_config(), pipe)
                    }
                };
                core = core.with_wal(Arc::new(wal));
            }
            Ok(EdgeNode::with_protocol(
                model,
                Arc::clone(&bank),
                cfg.overlap_threshold,
                cfg.seed ^ salt,
                dep.protocol().build(core),
            )
            .with_worker_pool(WorkerPool::new(dep.num_workers())))
        })
        .collect()
}

/// Drive `dep` (a multi-stage, thresholds-policy deployment) frame by frame
/// with every layer call timed. `Err` describes a failed run: an I/O error
/// or a log that does not recover to the live edge state.
pub fn traced_run(dep: &Deployment) -> Result<Trace, String> {
    let cfg = dep.config();
    let ValidationPolicy::Thresholds(pair) = cfg.validation else {
        return Err("the traced driver supports the thresholds policy only".into());
    };
    let mut spans = Spans::default();
    let mut frame_times = Vec::new();
    let times = Arc::new(Mutex::new(StorageTimes::default()));
    let coalescer = dep.durability().device_coalescer();

    let started = Instant::now();
    let video = spans
        .video_generate
        .time(|| cfg.preset.generate(cfg.num_frames, cfg.seed));
    let query = video.query_class().clone();
    let cloud = CloudNode::new(cfg.cloud_model, cfg.seed ^ 0xC);
    let edges = build_edges(dep, &coalescer, &times).map_err(|e| format!("open logs: {e}"))?;
    let topology = cfg.setup.topology();
    let mut link_rng = DetRng::new(cfg.seed).fork_named("links");
    let mut meter = BandwidthMeter::new();
    let mut collector = MetricsCollector::new();
    let mut missed_labels = 0u64;
    let mut settled = 0u64;

    for frame in video.frames() {
        let frame_started = Instant::now();
        let edge = &edges[(frame.index as usize) % edges.len()];
        meter.record_processed();
        let edge_link = topology
            .client_edge
            .transfer_latency(frame.bytes, &mut link_rng);
        let (detections, edge_detect) = spans.detect_edge.time(|| edge.detect(frame));
        let (send, surviving, kept_query) = spans.threshold.time(|| {
            let d = pair.decide_frame(&detections, &query);
            let kept_query: Vec<Detection> = d
                .kept
                .iter()
                .filter(|l| l.is_class(&query))
                .cloned()
                .collect();
            (d.send, d.surviving(), kept_query)
        });
        let initial = spans
            .edge_initial
            .time(|| edge.run_initial_stage(frame.index, &surviving));
        collector.record_transactions(initial.committed);
        let (cloud_labels, cloud_detect) = spans.detect_cloud.time(|| cloud.process(frame));
        let cloud_query: Vec<Detection> = cloud_labels
            .iter()
            .filter(|l| l.is_class(&query))
            .cloned()
            .collect();
        let lost = send && link_rng.bernoulli(cfg.cloud_loss_rate);

        let final_labels = if send && !lost {
            let encoded = cfg
                .codec
                .encode(frame.bytes, frame.index.is_multiple_of(30));
            let up = topology
                .edge_cloud
                .transfer_latency(encoded.bytes, &mut link_rng)
                + encoded.encode_latency;
            let down = topology.edge_cloud.transfer_latency(2_048, &mut link_rng);
            let fin = spans
                .edge_final
                .time(|| edge.deliver_cloud_labels(frame.index, &cloud_labels));
            meter.record_sent(
                encoded.bytes,
                topology.edge_cloud.transfer_cost(encoded.bytes),
            );
            collector.record_validated_frame(
                edge_link,
                edge_detect,
                initial.txn_latency,
                up + down,
                cloud_detect,
                fin.txn_latency,
            );
            let (correct, corrected, erroneous, missed) = fin.counts;
            collector.record_corrections(correct, corrected, erroneous, missed);
            missed_labels += missed;
            cloud_query.clone()
        } else if lost {
            let encoded = cfg
                .codec
                .encode(frame.bytes, frame.index.is_multiple_of(30));
            meter.record_sent(
                encoded.bytes,
                topology.edge_cloud.transfer_cost(encoded.bytes),
            );
            let fin = spans.edge_local.time(|| edge.finalize_local(frame.index));
            collector.record_validated_frame(
                edge_link,
                edge_detect,
                initial.txn_latency,
                SimDuration::from_millis_f64(cfg.cloud_timeout_ms),
                SimDuration::ZERO,
                fin.txn_latency,
            );
            collector.record_cloud_timeout();
            let (correct, corrected, erroneous, missed) = fin.counts;
            collector.record_corrections(correct, corrected, erroneous, missed);
            surviving
                .iter()
                .filter(|l| l.is_class(&query))
                .cloned()
                .collect()
        } else {
            let fin = spans.edge_local.time(|| edge.finalize_local(frame.index));
            collector.record_edge_frame(
                edge_link,
                edge_detect,
                initial.txn_latency,
                fin.txn_latency,
            );
            let (correct, corrected, erroneous, missed) = fin.counts;
            collector.record_corrections(correct, corrected, erroneous, missed);
            kept_query
        };

        let pr = spans
            .eval
            .time(|| score_against(&final_labels, &cloud_query, &query, cfg.overlap_threshold));
        collector.record_accuracy(pr);
        settled += spans.edge_settle.time(|| edge.settle()) as u64;
        frame_times.push(frame_started.elapsed());
    }
    for edge in &edges {
        if let Some(wal) = edge.protocol().core().wal() {
            spans
                .wal_flush
                .time(|| wal.flush())
                .map_err(|e| format!("WAL flush: {e}"))?;
        }
    }
    let wall_s = started.elapsed().as_secs_f64();

    check_recovery(dep, &edges)?;

    let metrics = collector.finish("traced".into(), &meter);
    let storage = times.lock().expect("storage times lock");
    let layers = layer_metrics(LayerInputs {
        spans: &spans,
        storage: &storage,
        edges: &edges,
        coalescer: coalescer.as_deref(),
        frame_times: &frame_times,
        missed_labels,
        settled,
        wall_s,
    });
    Ok(Trace {
        metrics,
        wall_s,
        layers,
    })
}

/// Every edge's log must replay with no torn tail and no unfinalized
/// transaction, to exactly the values the live edge store holds.
fn check_recovery(dep: &Deployment, edges: &[EdgeNode]) -> Result<(), String> {
    for (i, edge) in edges.iter().enumerate() {
        let Some(path) = dep.durability().edge_log_path(i) else {
            continue;
        };
        let rec = recover_edge_file(&path).map_err(|e| format!("recover edge {i}: {e}"))?;
        if rec.torn_tail {
            return Err(format!("edge {i}: the log ends in a torn tail"));
        }
        if !rec.unfinalized.is_empty() {
            return Err(format!(
                "edge {i}: {} transactions unfinalized after a clean shutdown",
                rec.unfinalized.len()
            ));
        }
        let values = |store: &KvStore| -> Vec<_> {
            store
                .snapshot()
                .into_iter()
                .map(|(k, v)| (k, v.value))
                .collect()
        };
        if values(&rec.store) != values(edge.store()) {
            return Err(format!(
                "edge {i}: the recovered store differs from the live store"
            ));
        }
    }
    Ok(())
}

struct LayerInputs<'a> {
    spans: &'a Spans,
    storage: &'a StorageTimes,
    edges: &'a [EdgeNode],
    coalescer: Option<&'a SyncCoalescer>,
    frame_times: &'a [Duration],
    missed_labels: u64,
    settled: u64,
    wall_s: f64,
}

fn layer_metrics(t: LayerInputs<'_>) -> Vec<(&'static str, f64, &'static str)> {
    let s = t.spans;
    let (mut begun, mut commits, mut aborts, mut apologies) = (0u64, 0u64, 0u64, 0u64);
    let mut lock_hold_weighted = 0.0;
    let mut wal = croesus::wal::WalStats::default();
    for edge in t.edges {
        let core = edge.protocol().core();
        let snap = core.stats().snapshot();
        begun += snap.begun;
        commits += snap.commits;
        aborts += snap.aborts;
        lock_hold_weighted += snap.avg_lock_hold_ms * snap.begun as f64;
        apologies += core.apologies().apologies().len() as u64;
        if let Some(w) = core.wal() {
            let st = w.stats();
            wal.records += st.records;
            wal.commit_points += st.commit_points;
            wal.syncs += st.syncs;
            wal.checkpoints += st.checkpoints;
            wal.bytes_appended += st.bytes_appended;
        }
    }
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let coalesce = t.coalescer.map(SyncCoalescer::stats).unwrap_or_default();
    let covered: f64 = s.all().iter().map(|sp| sp.busy_s()).sum();
    let quarter = t.frame_times.len() / 4;
    let mean_s = |d: &[Duration]| ratio(d.iter().sum::<Duration>().as_secs_f64(), d.len() as f64);
    let growth = ratio(
        mean_s(&t.frame_times[t.frame_times.len() - quarter..]),
        mean_s(&t.frame_times[..quarter]),
    );
    let st = t.storage;
    vec![
        ("edge.initial.busy_s", s.edge_initial.busy_s(), "s"),
        ("edge.initial.calls", s.edge_initial.calls() as f64, "count"),
        (
            "edge.initial.p50_us",
            s.edge_initial.quantile_us(0.50),
            "us",
        ),
        (
            "edge.initial.p99_us",
            s.edge_initial.quantile_us(0.99),
            "us",
        ),
        ("edge.final.busy_s", s.edge_final.busy_s(), "s"),
        ("edge.final.calls", s.edge_final.calls() as f64, "count"),
        ("edge.final.p50_us", s.edge_final.quantile_us(0.50), "us"),
        ("edge.final.p99_us", s.edge_final.quantile_us(0.99), "us"),
        ("edge.final.missed", t.missed_labels as f64, "count"),
        ("edge.local.busy_s", s.edge_local.busy_s(), "s"),
        ("edge.local.calls", s.edge_local.calls() as f64, "count"),
        ("edge.settle.busy_s", s.edge_settle.busy_s(), "s"),
        ("edge.settle.dropped", t.settled as f64, "count"),
        ("detect.edge.busy_s", s.detect_edge.busy_s(), "s"),
        ("detect.cloud.busy_s", s.detect_cloud.busy_s(), "s"),
        ("threshold.busy_s", s.threshold.busy_s(), "s"),
        ("eval.busy_s", s.eval.busy_s(), "s"),
        ("video.generate_s", s.video_generate.busy_s(), "s"),
        ("txn.begun", begun as f64, "count"),
        ("txn.commits", commits as f64, "count"),
        ("txn.aborts", aborts as f64, "count"),
        (
            "txn.abort_ratio",
            ratio(aborts as f64, (commits + aborts) as f64),
            "ratio",
        ),
        (
            "txn.lock_hold_avg_ms",
            ratio(lock_hold_weighted, begun as f64),
            "ms",
        ),
        ("txn.apologies", apologies as f64, "count"),
        ("wal.records", wal.records as f64, "count"),
        ("wal.commit_points", wal.commit_points as f64, "count"),
        ("wal.syncs", wal.syncs as f64, "count"),
        ("wal.checkpoints", wal.checkpoints as f64, "count"),
        ("wal.bytes_appended", wal.bytes_appended as f64, "bytes"),
        ("wal.storage.reset.busy_s", st.reset.busy_s(), "s"),
        ("wal.storage.reset.bytes", st.reset_bytes as f64, "bytes"),
        (
            "wal.write_amp",
            ratio(
                (wal.bytes_appended + st.reset_bytes) as f64,
                wal.bytes_appended as f64,
            ),
            "ratio",
        ),
        ("wal.storage.append.busy_s", st.append.busy_s(), "s"),
        ("wal.storage.sync.busy_s", st.sync.busy_s(), "s"),
        ("wal.storage.sync.p99_us", st.sync.quantile_us(0.99), "us"),
        ("wal.flush.busy_s", s.wal_flush.busy_s(), "s"),
        ("wal.coalesce.requests", coalesce.requests as f64, "count"),
        ("wal.coalesce.windows", coalesce.windows as f64, "count"),
        (
            "frame.p50_us",
            quantile(t.frame_times, 0.50).as_secs_f64() * 1e6,
            "us",
        ),
        (
            "frame.p99_us",
            quantile(t.frame_times, 0.99).as_secs_f64() * 1e6,
            "us",
        ),
        ("frame.growth", growth, "ratio"),
        ("trace.coverage", ratio(covered, t.wall_s), "ratio"),
    ]
}
