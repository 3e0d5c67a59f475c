//! Crash-at-every-record-boundary property tests for the durability
//! subsystem.
//!
//! Strategy: drive a randomized interleaved multi-stage workload through a
//! real protocol executor with an in-memory WAL, take the full log byte
//! stream, then *crash at every frame boundary* — truncate the log there,
//! recover, and check the rebuilt store against an independent oracle that
//! interprets the same record prefix naively. Mid-frame cuts (torn writes)
//! must recover exactly like the last whole-frame boundary before them.
//!
//! The oracle is deliberately dumb: a `BTreeMap` fed record-by-record,
//! sharing no code with `croesus_wal::recover`'s state machine.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use croesus::obs::{EdgeObs, EventKind};
use croesus::store::{KvStore, LockManager, TxnId, Value};
use croesus::txn::{
    recovery::recover_edge, ExecutorCore, MultiStageProtocol, MultiStageProtocolExt, ProtocolKind,
    RwSet,
};
use croesus::wal::{
    recover, FrameReader, MemStorage, PipelineConfig, Storage, Wal, WalConfig, WalRecord,
};

/// SplitMix64 — the test's own deterministic stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// The prefix-interpreting oracle: applies decoded records to a plain map.
#[derive(Default, Clone)]
struct Oracle {
    store: BTreeMap<String, Value>,
    pending: BTreeMap<u64, Vec<(String, Option<Value>)>>, // txn → buffered (key, post)
    initial: BTreeSet<u64>,
    finalized: BTreeSet<u64>,
    live_entries: BTreeMap<u64, usize>, // txn → registered, unretracted entries
}

impl Oracle {
    fn apply(&mut self, record: &WalRecord) {
        match record {
            WalRecord::Stage(s) => {
                let pending = self.pending.entry(s.txn.0).or_default();
                for w in &s.images {
                    pending.push((w.key.as_str().to_string(), w.post.as_deref().cloned()));
                }
                if s.flags.commit_point() {
                    for (key, post) in std::mem::take(pending) {
                        match post {
                            Some(v) => {
                                self.store.insert(key, v);
                            }
                            None => {
                                self.store.remove(&key);
                            }
                        }
                    }
                    self.initial.insert(s.txn.0);
                    if s.flags.register() {
                        *self.live_entries.entry(s.txn.0).or_default() += 1;
                    }
                    if s.flags.is_final() {
                        self.finalized.insert(s.txn.0);
                    }
                }
            }
            WalRecord::Retract(r) => {
                for (key, value) in &r.restores {
                    match value {
                        Some(v) => {
                            self.store.insert(key.as_str().to_string(), (**v).clone());
                        }
                        None => {
                            self.store.remove(key.as_str());
                        }
                    }
                }
                self.live_entries.remove(&r.txn.0);
            }
            WalRecord::TpcDecision { .. }
            | WalRecord::TpcEnd { .. }
            | WalRecord::Checkpoint(_)
            | WalRecord::Settle => {
                unreachable!("this workload emits none of these")
            }
        }
    }

    fn expected_unfinalized(&self) -> BTreeSet<u64> {
        self.initial
            .iter()
            .filter(|t| {
                !self.finalized.contains(t) && self.live_entries.get(t).copied().unwrap_or(0) > 0
            })
            .copied()
            .collect()
    }
}

fn snapshot_of(store: &KvStore) -> BTreeMap<String, Value> {
    store
        .snapshot()
        .into_iter()
        .map(|(k, v)| (k.as_str().to_string(), (*v.value).clone()))
        .collect()
}

/// Drive a seeded interleaved workload; return the full log bytes.
fn run_workload(seed: u64, kind: ProtocolKind) -> Vec<u8> {
    let mut rng = Rng(seed);
    let group = match rng.below(3) {
        0 => WalConfig::strict(),
        1 => WalConfig::group(3),
        _ => WalConfig::group(64),
    };
    let (wal, probe): (Wal, MemStorage) = Wal::in_memory(group);
    let core = ExecutorCore::new(
        Arc::new(KvStore::new()),
        Arc::new(LockManager::new(kind.default_lock_policy())),
    )
    .with_wal(Arc::new(wal));
    let protocol = kind.build(core);
    drive_workload(&mut rng, kind, protocol.as_ref(), 6, |_| {});
    // No flush: `all_bytes` is the every-byte-made-it view; the boundary
    // sweep below is the crash simulation.
    probe.all_bytes()
}

/// Run `min_txns + 0..6` seeded two-stage transactions through
/// `protocol`, interleaving initial and final stages, and call `after_op`
/// after every stage. The record stream depends only on the seed state,
/// `kind` and `min_txns` — never on the writer configuration.
fn drive_workload(
    rng: &mut Rng,
    kind: ProtocolKind,
    protocol: &dyn MultiStageProtocol,
    min_txns: u64,
    mut after_op: impl FnMut(&mut Rng),
) {
    let n_txns = min_txns + rng.below(6);
    // MS-SR holds every declared lock across its pending window, so give
    // it disjoint per-txn keys (the paper's hot-spot aborts are measured
    // elsewhere); the releasing protocols share a small pool → cascades.
    let key_for = |rng: &mut Rng, txn: u64| -> String {
        if kind == ProtocolKind::MsSr {
            format!("t{txn}/{}", rng.below(2))
        } else {
            format!("k/{}", rng.below(5))
        }
    };

    struct Active {
        handle: croesus::txn::TxnHandle,
        final_rw: RwSet,
        retract: bool,
    }
    let mut active: Vec<Active> = Vec::new();
    let mut started = 0u64;
    while started < n_txns || !active.is_empty() {
        let start_new = started < n_txns && (active.is_empty() || rng.chance(55));
        if start_new {
            let txn = TxnId(started);
            let k0 = key_for(rng, started);
            let k1 = key_for(rng, started);
            let initial_rw = RwSet::new().write(k0.as_str()).write(k1.as_str());
            let kf = key_for(rng, started);
            let final_rw = if rng.chance(70) {
                RwSet::new().write(kf.as_str())
            } else {
                RwSet::new()
            };
            let v = rng.below(1000) as i64;
            let handle = protocol.begin(txn, &[initial_rw.clone(), final_rw.clone()]);
            let (_, next) = protocol
                .stage(handle, &initial_rw, |ctx| {
                    ctx.write(k0.as_str(), v)?;
                    ctx.write(k1.as_str(), v + 1)?;
                    Ok(())
                })
                .expect("sequential initial stages cannot conflict");
            let retract = kind != ProtocolKind::MsSr && rng.chance(25);
            active.push(Active {
                handle: next.expect("two stages declared"),
                final_rw,
                retract,
            });
            started += 1;
        } else {
            let idx = rng.below(active.len() as u64) as usize;
            let a = active.remove(idx);
            let v = rng.below(1000) as i64;
            protocol
                .stage(a.handle, &a.final_rw, |ctx| {
                    if a.retract {
                        ctx.retract_self("guessed wrong");
                    }
                    if let Some(k) = a.final_rw.writes.first().cloned() {
                        ctx.write(k, v)?;
                    }
                    Ok(())
                })
                .expect("final stages cannot abort");
        }
        after_op(rng);
    }
}

/// Every frame boundary of `log`, starting with 0.
fn frame_boundaries(log: &[u8]) -> Vec<usize> {
    let mut boundaries = vec![0usize];
    let mut reader = FrameReader::new(log);
    while reader.next().is_some() {
        boundaries.push(reader.offset());
    }
    boundaries
}

/// The oracle after each frame of a checkpoint-free record stream.
fn oracle_per_frame(log: &[u8]) -> Vec<Oracle> {
    let mut oracle = Oracle::default();
    let mut oracle_at: Vec<Oracle> = vec![oracle.clone()];
    for payload in FrameReader::new(log) {
        oracle.apply(&WalRecord::decode(payload).expect("valid payload"));
        oracle_at.push(oracle.clone());
    }
    oracle_at
}

fn check_every_boundary(log: &[u8]) {
    let boundaries = frame_boundaries(log);
    assert_eq!(
        *boundaries.last().unwrap(),
        log.len(),
        "the workload's own log must parse completely"
    );
    let oracle_at = oracle_per_frame(log);
    for (frames, &cut) in boundaries.iter().enumerate() {
        check_crash_at(&log[..cut], frames, &oracle_at[frames]);
    }
}

/// Crash with exactly `prefix` on the device (`frames` whole frames):
/// recovery must rebuild the oracle's store and unfinalized set, and
/// apology-aware recovery must retract and apologize for every
/// unfinalized transaction.
fn check_crash_at(prefix: &[u8], frames: usize, expected: &Oracle) {
    let cut = prefix.len();
    let report = recover(prefix);
    assert_eq!(report.frames, frames, "cut at byte {cut}");
    assert!(!report.torn_tail, "boundary cuts are clean");
    assert_eq!(
        snapshot_of(&report.store),
        expected.store,
        "store mismatch after {frames} frames (cut at byte {cut})"
    );
    let unfinalized: BTreeSet<u64> = report.unfinalized.iter().map(|t| t.0).collect();
    assert_eq!(
        unfinalized,
        expected.expected_unfinalized(),
        "unfinalized mismatch after {frames} frames"
    );

    // Apology-aware recovery on the same prefix: every unfinalized
    // transaction ends up retracted (not live) and apologized for.
    let rec = recover_edge(prefix);
    for txn in &report.unfinalized {
        assert!(
            !rec.apologies.is_live(*txn),
            "unfinalized {txn} must be retracted during recovery"
        );
    }
    let apologized: BTreeSet<u64> = rec.apologies_owed().iter().map(|a| a.txn.0).collect();
    for txn in &unfinalized {
        assert!(
            apologized.contains(txn),
            "txn {txn} owes its users an apology"
        );
    }
}

/// A device that keeps every checkpoint epoch's byte stream on top of a
/// [`MemStorage`]: `reset` opens a new epoch holding the image, and
/// appends extend the current one, synced or not — every frame prefix
/// of an epoch is a state a crash could leave behind.
#[derive(Clone)]
struct EpochTap {
    mem: MemStorage,
    epochs: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl EpochTap {
    fn new() -> Self {
        EpochTap {
            mem: MemStorage::new(),
            epochs: Arc::new(Mutex::new(vec![Vec::new()])),
        }
    }

    fn epochs(&self) -> Vec<Vec<u8>> {
        self.epochs.lock().unwrap().clone()
    }
}

impl Storage for EpochTap {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let mut epochs = self.epochs.lock().unwrap();
        epochs.last_mut().unwrap().extend_from_slice(bytes);
        self.mem.append(bytes)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.mem.sync()
    }

    fn reset(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.epochs.lock().unwrap().push(bytes.to_vec());
        self.mem.reset(bytes)
    }

    fn len(&self) -> u64 {
        self.mem.len()
    }
}

/// Transactions per run in the checkpoint sweeps (plus up to 5 seeded):
/// with a floor of [`CHECKPOINT_FLOOR`] commit points, enough log growth
/// for at least two automatic checkpoints on every protocol.
const CHECKPOINTED_TXNS: u64 = 24;
const CHECKPOINT_FLOOR: u64 = 2;

/// The synchronous writer under automatic checkpoints (`checkpoint_every`
/// 0 = none): every epoch the device went through, in order.
fn run_workload_epochs(seed: u64, kind: ProtocolKind, checkpoint_every: u64) -> Vec<Vec<u8>> {
    let mut rng = Rng(seed);
    let config = WalConfig {
        group_commit: [1, 3, 64][rng.below(3) as usize],
        checkpoint_every,
    };
    let tap = EpochTap::new();
    let core = ExecutorCore::new(
        Arc::new(KvStore::new()),
        Arc::new(LockManager::new(kind.default_lock_policy())),
    )
    .with_wal(Arc::new(Wal::with_storage(Box::new(tap.clone()), config)));
    let protocol = kind.build(core);
    drive_workload(&mut rng, kind, protocol.as_ref(), CHECKPOINTED_TXNS, |_| {});
    tap.epochs()
}

/// The synchronous checkpoint sweep: the epochs' record bodies line up
/// back to back in the checkpoint-free stream, so each image stands at
/// the end of everything the epochs before it logged.
fn check_sync_checkpoint_sweep(seed: u64, kind: ProtocolKind) {
    let epochs = run_workload_epochs(seed, kind, CHECKPOINT_FLOOR);
    let reference = run_workload_epochs(seed, kind, 0).remove(0);
    let mut starts = vec![0u64];
    for (e, log) in epochs.iter().enumerate().take(epochs.len() - 1) {
        let image = if e == 0 { 0 } else { frame_boundaries(log)[1] };
        starts.push(starts[e] + (log.len() - image) as u64);
    }
    check_checkpointed_epochs(&epochs, &starts, &reference);
}

/// Crash sweep over a checkpointed run. `epochs[e]` is everything the
/// device held in checkpoint epoch `e` (epoch `e > 0` opens with the
/// image); `starts[e]` is the offset in `reference` — the same
/// workload's checkpoint-free record stream — at which that image was
/// taken. Every frame boundary of every epoch, including the cut just
/// after each image, must recover to the oracle at the matching
/// reference boundary. (`reset` is atomic, so an empty device is not a
/// crash state of epochs past the first.)
fn check_checkpointed_epochs(epochs: &[Vec<u8>], starts: &[u64], reference: &[u8]) {
    assert!(
        epochs.len() >= 3,
        "the run must cross at least two automatic checkpoints, crossed {}",
        epochs.len() - 1
    );
    assert_eq!(epochs.len(), starts.len());
    let ref_bounds = frame_boundaries(reference);
    let oracle_at = oracle_per_frame(reference);
    for (e, (log, &start)) in epochs.iter().zip(starts).enumerate() {
        let bounds = frame_boundaries(log);
        assert_eq!(*bounds.last().unwrap(), log.len(), "epoch {e} parses");
        let image = if e == 0 { 0 } else { bounds[1] };
        let start = start as usize;
        assert_eq!(
            &log[image..],
            &reference[start..start + log.len() - image],
            "epoch {e} logs the reference records"
        );
        for (frames, &cut) in bounds.iter().enumerate().skip(usize::from(e > 0)) {
            let at = ref_bounds
                .binary_search(&(start + cut - image))
                .expect("epoch cuts map to reference frame boundaries");
            check_crash_at(&log[..cut], frames, &oracle_at[at]);
        }
    }
}

/// What one pipelined run observed, for the crash sweeps below.
struct PipelinedRun {
    /// The fully drained log (every appended byte landed durably).
    log: Vec<u8>,
    /// Every checkpoint epoch the device went through (the last one is
    /// `log`).
    epochs: Vec<Vec<u8>>,
    /// The global LSN at which each epoch's image was taken (0 first).
    epoch_starts: Vec<u64>,
    /// `(durable image, last_flushed_lsn)` at every post-sync boundary
    /// the interleaved flusher reached mid-run.
    flush_points: Vec<(Vec<u8>, u64)>,
    /// `latest_lsn` at every explicit buffer seal (the seal boundaries).
    seal_points: Vec<u64>,
    /// `(requested LSN, boundary at return)` for every mid-run
    /// `flush_lsn` ack.
    acks: Vec<(u64, u64)>,
}

/// Drive the seeded workload through the *pipelined* writer in manual
/// mode, interleaving buffer seals and flusher steps at seeded points —
/// a single-threaded schedule of the appender/flusher race (the
/// exhaustive multi-threaded version lives in the `wal_pipeline` mcheck
/// scenario; this sweep trades exhaustiveness for real executor
/// workloads and per-byte crash cuts).
fn run_workload_pipelined(seed: u64, kind: ProtocolKind) -> PipelinedRun {
    run_pipelined(seed, kind, 6, 0)
}

/// [`run_workload_pipelined`] with `min_txns` transactions and automatic
/// checkpoints every `checkpoint_every` commit points (0 = none).
fn run_pipelined(
    seed: u64,
    kind: ProtocolKind,
    min_txns: u64,
    checkpoint_every: u64,
) -> PipelinedRun {
    let mut rng = Rng(seed ^ 0xD1CE);
    let config = WalConfig {
        group_commit: [1, 2, 3][rng.below(3) as usize],
        checkpoint_every,
    };
    let tap = EpochTap::new();
    let probe = tap.mem.clone();
    let wal = Arc::new(Wal::with_storage_pipelined(
        Box::new(tap.clone()),
        config,
        PipelineConfig {
            coalescer: None,
            manual_flusher: true,
        },
    ));
    // The checkpoint's sync event carries the global LSN it was taken at.
    let obs = EdgeObs::standalone(0);
    wal.set_obs(obs.clone());
    let core = ExecutorCore::new(
        Arc::new(KvStore::new()),
        Arc::new(LockManager::new(kind.default_lock_policy())),
    )
    .with_wal(Arc::clone(&wal));
    let protocol = kind.build(core);

    let mut run = PipelinedRun {
        log: Vec::new(),
        epochs: Vec::new(),
        epoch_starts: vec![0],
        flush_points: Vec::new(),
        seal_points: Vec::new(),
        acks: Vec::new(),
    };
    // The seeded appender/flusher interleaving: after every protocol op,
    // maybe seal the active buffer, pump the flusher, or wait on an ack.
    drive_workload(&mut rng, kind, protocol.as_ref(), min_txns, |rng| {
        for _ in 0..rng.below(3) {
            match rng.below(4) {
                0 => {
                    wal.seal_active();
                    run.seal_points.push(wal.latest_lsn());
                }
                1 | 2 => {
                    if wal.flusher_step().expect("in-memory pipeline io") {
                        let image = probe.durable();
                        let lsn = wal.last_flushed_lsn();
                        run.flush_points.push((image, lsn));
                    }
                }
                _ => {
                    let lsn = wal.latest_lsn();
                    wal.flush_lsn(lsn).expect("in-memory pipeline io");
                    run.acks.push((lsn, wal.last_flushed_lsn()));
                }
            }
        }
    });
    // Drain the pipeline: the final log is every appended byte.
    wal.flush().expect("in-memory pipeline io");
    run.log = probe.all_bytes();
    assert_eq!(
        probe.durable(),
        run.log,
        "a drained pipeline leaves nothing unsynced"
    );
    assert_eq!(wal.last_flushed_lsn(), wal.latest_lsn());
    run.epochs = tap.epochs();
    assert_eq!(obs.dropped(), 0, "the event ring kept every sync");
    for event in obs.events() {
        if let EventKind::WalSync { lsn, epoch } = event.kind {
            if epoch == run.epoch_starts.len() as u64 {
                run.epoch_starts.push(lsn);
            }
        }
    }
    run
}

/// The pipelined durability contract, checked against one seeded run:
/// every mid-run durable image is a prefix of the final log ending at
/// `last_flushed_lsn`; seal and flush boundaries are clean frame cuts;
/// acks never return below their requested LSN; and the full per-frame
/// crash sweep matches the oracle.
fn check_pipelined_run(run: &PipelinedRun) {
    check_every_boundary(&run.log);
    for (image, lsn) in &run.flush_points {
        prop_assert_eq!(
            image.len() as u64,
            *lsn,
            "with no checkpoint an LSN is a global byte offset"
        );
        prop_assert!(
            run.log.starts_with(image),
            "a durable image must be a prefix of the final log — \
             anything acked at LSN {} survives every cut at or past it",
            lsn
        );
        let report = recover(image);
        prop_assert!(!report.torn_tail, "post-sync boundaries are clean cuts");
    }
    for lsn in &run.seal_points {
        let report = recover(&run.log[..*lsn as usize]);
        prop_assert!(!report.torn_tail, "seal boundaries are clean cuts");
    }
    for (requested, at_ack) in &run.acks {
        prop_assert!(
            at_ack >= requested,
            "flush_lsn({}) returned at boundary {}",
            requested,
            at_ack
        );
    }
}

/// The pipelined checkpoint sweep. A checkpoint discards the sealed
/// buffers the flusher has not landed, so the epochs do not tile the
/// record stream; each image stands at the global LSN its sync event
/// reported instead. Acks never return below their requested LSN.
fn check_pipelined_checkpoint_sweep(seed: u64, kind: ProtocolKind) {
    let run = run_pipelined(seed, kind, CHECKPOINTED_TXNS, CHECKPOINT_FLOOR);
    let reference = run_pipelined(seed, kind, CHECKPOINTED_TXNS, 0).log;
    check_checkpointed_epochs(&run.epochs, &run.epoch_starts, &reference);
    for (requested, at_ack) in &run.acks {
        assert!(
            at_ack >= requested,
            "flush_lsn({requested}) returned at boundary {at_ack}"
        );
    }
}

proptest! {
    #[test]
    fn crash_at_every_record_boundary_is_prefix_consistent_ms_ia(seed in any::<u64>()) {
        check_every_boundary(&run_workload(seed, ProtocolKind::MsIa));
    }

    #[test]
    fn crash_at_every_record_boundary_is_prefix_consistent_staged(seed in any::<u64>()) {
        check_every_boundary(&run_workload(seed, ProtocolKind::Staged));
    }

    #[test]
    fn crash_at_every_record_boundary_is_prefix_consistent_ms_sr(seed in any::<u64>()) {
        check_every_boundary(&run_workload(seed, ProtocolKind::MsSr));
    }

    #[test]
    fn torn_mid_frame_cuts_recover_like_the_preceding_boundary(seed in any::<u64>()) {
        let log = run_workload(seed, ProtocolKind::MsIa);
        let mut boundaries = vec![0usize];
        let mut reader = FrameReader::new(&log);
        while reader.next().is_some() {
            boundaries.push(reader.offset());
        }
        // Sample torn cuts inside frames; each must recover exactly the
        // state of the last whole frame before the tear.
        let mut cut = 1usize;
        while cut < log.len() {
            if !boundaries.contains(&cut) {
                let torn = recover(&log[..cut]);
                prop_assert!(torn.torn_tail);
                let base = *boundaries.iter().take_while(|&&b| b < cut).last().unwrap();
                let clean = recover(&log[..base]);
                prop_assert_eq!(
                    snapshot_of(&torn.store),
                    snapshot_of(&clean.store),
                    "torn cut at {} must equal boundary at {}",
                    cut,
                    base
                );
                prop_assert_eq!(&torn.unfinalized, &clean.unfinalized);
            }
            cut += 7; // sample; exhaustive per-byte would be slow × 64 cases
        }
    }

    #[test]
    fn pipelined_crash_sweep_matches_oracle_ms_ia(seed in any::<u64>()) {
        check_pipelined_run(&run_workload_pipelined(seed, ProtocolKind::MsIa));
    }

    #[test]
    fn pipelined_crash_sweep_matches_oracle_staged(seed in any::<u64>()) {
        check_pipelined_run(&run_workload_pipelined(seed, ProtocolKind::Staged));
    }

    #[test]
    fn pipelined_torn_cuts_inside_the_inflight_buffer_recover_to_the_boundary(seed in any::<u64>()) {
        // Cuts *between* a flush boundary and the next — bytes that were
        // in flight inside the pipeline — behave exactly like torn tails:
        // recovery lands on the last whole frame at or before the cut.
        let run = run_workload_pipelined(seed, ProtocolKind::MsIa);
        let log = &run.log;
        let mut boundaries = vec![0usize];
        let mut reader = FrameReader::new(log);
        while reader.next().is_some() {
            boundaries.push(reader.offset());
        }
        let mut cut = 1usize;
        while cut < log.len() {
            if !boundaries.contains(&cut) {
                let torn = recover(&log[..cut]);
                prop_assert!(torn.torn_tail);
                let base = *boundaries.iter().take_while(|&&b| b < cut).last().unwrap();
                let clean = recover(&log[..base]);
                prop_assert_eq!(
                    snapshot_of(&torn.store),
                    snapshot_of(&clean.store),
                    "torn cut at {} must equal boundary at {}",
                    cut,
                    base
                );
                prop_assert_eq!(&torn.unfinalized, &clean.unfinalized);
            }
            cut += 11; // sample; exhaustive per-byte would be slow × 64 cases
        }
    }

    #[test]
    fn checkpoint_crash_sweep_matches_oracle_ms_ia(seed in any::<u64>()) {
        check_sync_checkpoint_sweep(seed, ProtocolKind::MsIa);
    }

    #[test]
    fn checkpoint_crash_sweep_matches_oracle_ms_sr(seed in any::<u64>()) {
        check_sync_checkpoint_sweep(seed, ProtocolKind::MsSr);
    }

    #[test]
    fn pipelined_checkpoint_crash_sweep_matches_oracle_ms_ia(seed in any::<u64>()) {
        check_pipelined_checkpoint_sweep(seed, ProtocolKind::MsIa);
    }

    #[test]
    fn pipelined_checkpoint_crash_sweep_matches_oracle_staged(seed in any::<u64>()) {
        check_pipelined_checkpoint_sweep(seed, ProtocolKind::Staged);
    }

    #[test]
    fn corrupted_byte_never_panics_recovery(seed in any::<u64>(), flip in any::<u64>()) {
        let mut log = run_workload(seed, ProtocolKind::Staged);
        prop_assert!(!log.is_empty(), "every workload logs at least one stage");
        let pos = (flip % log.len() as u64) as usize;
        log[pos] ^= 0x5A;
        // Recovery must stop cleanly at some prefix, never panic.
        let report = recover(&log);
        prop_assert!(report.bytes_replayed <= log.len() as u64);
    }
}

/// Deterministic end-to-end: a two-transaction dependency chain crashed
/// between the dependent's final commit and the guesser's — recovery must
/// cascade the retraction through the *finalized* dependent.
#[test]
fn crash_mid_chain_cascades_through_finalized_dependents() {
    let (wal, probe) = Wal::in_memory(WalConfig::strict());
    let core = ExecutorCore::new(
        Arc::new(KvStore::new()),
        Arc::new(LockManager::new(ProtocolKind::MsIa.default_lock_policy())),
    )
    .with_wal(Arc::new(wal));
    let p = ProtocolKind::MsIa.build(core);

    let rw1 = RwSet::new().write("b");
    let h1 = p.begin(TxnId(1), &[rw1.clone(), RwSet::new()]);
    let (_, _h1) = p.stage(h1, &rw1, |ctx| ctx.write("b", 50)).unwrap();
    let rw2 = RwSet::new().read("b").write("c");
    let h2 = p.begin(TxnId(2), &[rw2.clone(), RwSet::new()]);
    let (_, h2) = p
        .stage(h2, &rw2, |ctx| {
            let b = ctx.read("b")?.and_then(|v| v.as_int()).unwrap_or(0);
            ctx.write("c", b * 2)
        })
        .unwrap();
    p.stage(h2.unwrap(), &RwSet::new(), |_| Ok(())).unwrap();
    // t2 finalized; t1 never did. Crash.

    let rec = recover_edge(&probe.durable());
    assert_eq!(rec.unfinalized, vec![TxnId(1)]);
    assert_eq!(rec.retractions.len(), 1);
    assert_eq!(rec.retractions[0].retracted, vec![TxnId(2), TxnId(1)]);
    assert!(!rec.store.contains(&"b".into()));
    assert!(!rec.store.contains(&"c".into()));
    assert_eq!(rec.apologies_owed().len(), 2, "both users get apologies");
}
