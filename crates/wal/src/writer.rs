//! The append-side of the log: group commit, checkpoint scheduling,
//! truncation.
//!
//! # Group commit
//!
//! Every record is appended (buffered) immediately, but the
//! fsync-equivalent [`Storage::sync`] runs only when
//! [`WalConfig::group_commit`] commit points have accumulated — one
//! durable flush amortized over a batch of transactions, the classic
//! group-commit trade: bounded loss window (the unsynced tail) for an
//! order-of-magnitude fewer syncs. `group_commit = 1` is strict mode
//! (sync at every commit point); `usize::MAX` never syncs on commit and
//! relies on checkpoints / [`Wal::flush`].
//!
//! # Checkpoints
//!
//! The writer mirrors its own log through the shared
//! [`RecoveryState`] machine *with a shadow store attached* — the exact
//! committed state a from-genesis replay of the log would produce,
//! maintained incrementally under the writer mutex (cheap: the shadow
//! store's `Arc<Value>`s alias the live store's allocations). A
//! checkpoint is therefore a pure serialization of writer-internal
//! state, written as one record that *replaces* the log
//! ([`Storage::reset`]) — truncation and checkpoint are the same atomic
//! step, and it is consistent even while other threads are mid-stage on
//! the live store (their uncommitted writes exist only there, never in
//! the shadow).
//!
//! [`Wal::maybe_checkpoint`] (called by the executors on the commit
//! path) takes one when two conditions hold: at least
//! [`WalConfig::checkpoint_every`] commit points have passed (a floor),
//! *and* the bytes appended since the last checkpoint are at least
//! [`CHECKPOINT_GROWTH`] × that checkpoint's framed image — the
//! growth rule of Redis's AOF rewrite, at 100%. The image serializes
//! the whole committed store, so with a fixed interval a growing store
//! made checkpoint cost quadratic in run length. Under the growth rule
//! every image byte written is paid for by a log byte appended since
//! the previous image: total image bytes ≤ bytes appended + the last
//! image, i.e. amortized O(1) per appended byte, and a store that grows
//! with the run is checkpointed a logarithmic number of times.

use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;

use parking_lot::Mutex;

use croesus_obs::{EdgeObs, EventKind, HistKind};
use croesus_store::{KvStore, TxnId};

use crate::coalesce::SyncCoalescer;
use crate::frame::write_frame;
use crate::record::{RetractRecord, StageRecord, WalRecord};
use crate::recover::RecoveryState;
use crate::ship::LogShipper;
use crate::storage::{FileStorage, MemStorage, Storage};

/// Message used when the std pipeline mutexes are poisoned — only a
/// panicking flusher could poison them, and that already aborts the run.
const PIPE_LOCK: &str = "wal pipeline lock";

/// Growth factor of the automatic checkpoint trigger: the bytes appended
/// since the last checkpoint must reach this multiple of its framed image
/// (1 = the log doubles past its post-checkpoint size, Redis's
/// `auto-aof-rewrite-percentage 100`). A constant rather than a
/// [`WalConfig`] knob: any factor above zero gives the linear bound, and
/// the floor already tunes short runs.
pub const CHECKPOINT_GROWTH: u64 = 1;

/// Writer tuning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalConfig {
    /// Commit points per durable sync (1 = strict, `usize::MAX` = only
    /// explicit flushes and checkpoints).
    pub group_commit: usize,
    /// Minimum commit points between automatic checkpoints (0 = never).
    /// A floor, not a period: a checkpoint also waits until the log has
    /// grown by [`CHECKPOINT_GROWTH`] × the previous image's size, which
    /// keeps total checkpoint work linear in the bytes appended.
    pub checkpoint_every: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            group_commit: 8,
            checkpoint_every: 1024,
        }
    }
}

impl WalConfig {
    /// Strict durability: sync at every commit point.
    #[must_use]
    pub fn strict() -> Self {
        WalConfig {
            group_commit: 1,
            ..WalConfig::default()
        }
    }

    /// Group commit with the given batch size.
    #[must_use]
    pub fn group(group_commit: usize) -> Self {
        assert!(group_commit >= 1, "group size must be at least 1");
        WalConfig {
            group_commit,
            ..WalConfig::default()
        }
    }
}

/// Counters exposed for benches and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended.
    pub records: u64,
    /// Commit points among them.
    pub commit_points: u64,
    /// Durable syncs performed (group commit amortizes these).
    pub syncs: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Bytes handed to storage (excluding checkpoint rewrites).
    pub bytes_appended: u64,
}

/// Tuning for the pipelined (double-buffered) writer.
///
/// In pipelined mode appends land in an in-memory *active buffer* and
/// receive a global monotone LSN; every [`WalConfig::group_commit`]
/// commit points the active buffer is *sealed* and handed to a dedicated
/// flusher, which lands it (append + fsync-equivalent) while new appends
/// keep filling the next buffer. Commit points therefore wait on an LSN
/// boundary at most one buffer behind — never on the whole log.
#[derive(Clone, Default)]
pub struct PipelineConfig {
    /// Shared per-device sync window, when several edges' logs live on
    /// one storage device. `None` syncs alone.
    pub coalescer: Option<Arc<SyncCoalescer>>,
    /// Skip spawning the dedicated flusher thread. Harness mode: the
    /// test or model checker drives [`Wal::flusher_step`] itself (the
    /// mcheck scenario runs it as a virtual task), and seal-time
    /// backpressure is disabled outside the checker so a single-threaded
    /// harness can interleave appends and flushes freely.
    pub manual_flusher: bool,
}

/// One sealed buffer travelling from the appenders to the flusher.
struct SealedBuf {
    bytes: Vec<u8>,
    /// Global LSN of the last byte in this buffer; landing the buffer
    /// advances `last_flushed_lsn` to exactly here.
    up_to_lsn: u64,
}

/// Everything the appenders and the flusher exchange. One plain mutex:
/// appenders touch it briefly (extend the active buffer, bump counters),
/// the flusher holds it only outside I/O — the fsync itself runs with
/// the state unlocked, which is the whole point of the pipeline.
struct PipeState {
    /// The log device. `None` while the flusher has it checked out for
    /// I/O (appenders never touch storage in pipelined mode).
    storage: Option<Box<dyn Storage>>,
    /// Bytes appended since the last seal.
    active: Vec<u8>,
    /// Commit points in the active buffer.
    active_commits: usize,
    /// Sealed buffers awaiting the flusher.
    sealed: VecDeque<SealedBuf>,
    /// Global LSN of the last appended byte. Never resets — epochs
    /// re-frame the on-device log, not the LSN space.
    latest_lsn: u64,
    /// Global LSN of the last *sealed* byte.
    sealed_lsn: u64,
    /// Global durable boundary: everything at or below is synced (or
    /// folded into a durable checkpoint). Monotone.
    last_flushed_lsn: u64,
    /// A buffer is checked out and mid-I/O on the flusher.
    flushing: bool,
    /// Accepting no more work; the flusher drains `sealed` and exits.
    shutdown: bool,
    /// Durable syncs performed by the flusher (merged into [`WalStats`]).
    syncs: u64,
    /// Checkpoint epoch (the on-device log restarted this many times).
    epoch: u64,
    /// Bytes landed in the current epoch's on-device log.
    epoch_len: u64,
    /// Shipping endpoint; published to *only* in the flusher's post-sync
    /// path and the checkpoint's epoch restart — shipped ⊆ durable.
    shipper: Option<Arc<LogShipper>>,
    /// Observability stream (mirrors `WalInner::obs`). Pipelined events
    /// carry global LSNs.
    obs: EdgeObs,
    /// A flusher I/O failure is sticky: appends and boundary waits fail
    /// fast instead of acking commits that can never become durable.
    io_error: Option<(io::ErrorKind, String)>,
    /// Model-checker mutation: publish a buffer *before* syncing it,
    /// violating shipped ⊆ durable. Exists so `tests/mcheck.rs` can
    /// prove the checker catches the bug class this writer must avoid.
    #[cfg(feature = "mcheck")]
    publish_before_sync: bool,
}

/// The pipelined half of a [`Wal`], shared with the flusher thread.
struct PipelineShared {
    state: StdMutex<PipeState>,
    /// Signals the flusher: a buffer was sealed (or shutdown was set).
    work_cv: Condvar,
    /// Signals boundary waiters: `last_flushed_lsn` advanced.
    boundary_cv: Condvar,
    coalescer: Option<Arc<SyncCoalescer>>,
    /// A dedicated flusher thread exists (i.e. not harness mode).
    has_flusher: bool,
}

impl PipelineShared {
    /// Whether seal-time backpressure applies: something else is driving
    /// the flusher, so waiting for the previous buffer's boundary cannot
    /// deadlock. True for the thread, and for mcheck's virtual task.
    fn backpressure(&self) -> bool {
        self.has_flusher || crate::sched::active()
    }

    fn io_error_locked(state: &PipeState) -> io::Result<()> {
        match &state.io_error {
            Some((kind, msg)) => Err(io::Error::new(*kind, msg.clone())),
            None => Ok(()),
        }
    }

    /// Seal the active buffer onto the flusher queue. Caller holds the
    /// state lock; returns whether anything was sealed so the caller can
    /// mark scheduler progress *after* unlocking.
    fn seal_locked(&self, state: &mut PipeState) -> bool {
        if state.active.is_empty() {
            return false;
        }
        let bytes = std::mem::take(&mut state.active);
        state.active_commits = 0;
        state.sealed_lsn = state.latest_lsn;
        state.sealed.push_back(SealedBuf {
            bytes,
            up_to_lsn: state.latest_lsn,
        });
        state.obs.emit(EventKind::WalBufferSeal {
            lsn: state.latest_lsn,
        });
        self.work_cv.notify_one();
        true
    }

    /// Commit-point seal: apply backpressure (wait for the *previous*
    /// buffer's LSN boundary — double buffering bounds the pipeline at
    /// one in-flight buffer), then seal. `group` is re-checked under the
    /// lock because a racing commit may have sealed first.
    fn seal_for_commit(&self, group: usize) -> io::Result<()> {
        let mut state = self.state.lock().expect(PIPE_LOCK);
        if state.active_commits < group {
            return Ok(()); // someone else sealed this group already
        }
        if self.backpressure() {
            while state.last_flushed_lsn < state.sealed_lsn && state.io_error.is_none() {
                if crate::sched::active() {
                    drop(state);
                    crate::sched::block_point("wal.buffer.backpressure");
                    state = self.state.lock().expect(PIPE_LOCK);
                } else {
                    state = self.boundary_cv.wait(state).expect(PIPE_LOCK);
                }
            }
        }
        Self::io_error_locked(&state)?;
        let sealed = self.seal_locked(&mut state);
        drop(state);
        if sealed {
            crate::sched::progress("wal.buffer.sealed");
        }
        Ok(())
    }

    /// Wait until the durable boundary covers `lsn`, sealing the active
    /// buffer first when `lsn` still sits inside it. Returns immediately
    /// when `lsn ≤ last_flushed_lsn`. In harness mode outside the model
    /// checker there is nobody to wait for, so the caller's thread pumps
    /// the flusher inline instead of blocking.
    fn flush_lsn(&self, lsn: u64) -> io::Result<()> {
        crate::sched::yield_point("wal.buffer.flush_lsn");
        if !self.has_flusher && !crate::sched::active() {
            loop {
                {
                    let mut state = self.state.lock().expect(PIPE_LOCK);
                    if state.last_flushed_lsn >= lsn {
                        return Ok(());
                    }
                    PipelineShared::io_error_locked(&state)?;
                    if lsn > state.sealed_lsn {
                        self.seal_locked(&mut state);
                    }
                }
                self.step(true)?;
            }
        }
        let mut state = self.state.lock().expect(PIPE_LOCK);
        loop {
            if state.last_flushed_lsn >= lsn {
                return Ok(());
            }
            Self::io_error_locked(&state)?;
            if lsn > state.sealed_lsn && self.seal_locked(&mut state) {
                drop(state);
                crate::sched::progress("wal.buffer.sealed");
                state = self.state.lock().expect(PIPE_LOCK);
                continue;
            }
            if crate::sched::active() {
                drop(state);
                crate::sched::block_point("wal.buffer.boundary");
                state = self.state.lock().expect(PIPE_LOCK);
            } else {
                state = self.boundary_cv.wait(state).expect(PIPE_LOCK);
            }
        }
    }

    /// One flusher iteration: wait for a sealed buffer, land it (append +
    /// sync, through the device coalescer when present), advance
    /// `last_flushed_lsn`, and publish the landed bytes — publication
    /// lives *here*, strictly after the sync, which is the structural
    /// form of the shipped ⊆ durable contract. Returns `Ok(false)` once
    /// shut down and drained.
    fn step(&self, wait_for_work: bool) -> io::Result<bool> {
        crate::sched::yield_point("wal.buffer.flusher");
        #[cfg_attr(not(feature = "mcheck"), allow(unused_mut))]
        let mut pre_published = false;
        let (mut storage, buf, obs_enabled) = {
            let mut state = self.state.lock().expect(PIPE_LOCK);
            loop {
                if let Some(buf) = state.sealed.pop_front() {
                    let storage = state.storage.take().expect("storage checked in");
                    state.flushing = true;
                    #[cfg(feature = "mcheck")]
                    if state.publish_before_sync {
                        // The deliberately wrong order the self-test hunts.
                        Self::publish_locked(&mut state, &buf);
                        pre_published = true;
                    }
                    let enabled = state.obs.is_enabled();
                    break (storage, buf, enabled);
                }
                if state.shutdown || !wait_for_work {
                    return Ok(false);
                }
                if crate::sched::active() {
                    drop(state);
                    crate::sched::block_point("wal.buffer.drain");
                    state = self.state.lock().expect(PIPE_LOCK);
                } else {
                    state = self.work_cv.wait(state).expect(PIPE_LOCK);
                }
            }
        };
        // The I/O runs with the state unlocked: appends keep landing in
        // the next buffer while this one syncs.
        crate::sched::yield_point("wal.buffer.sync");
        let timer = obs_enabled.then(std::time::Instant::now);
        let mut windows_led = Vec::new();
        let io_result = match storage.append(&buf.bytes) {
            Err(e) => Err(e),
            Ok(()) => {
                if let Some(coalescer) = &self.coalescer {
                    let (returned, outcome) = coalescer.sync(storage);
                    storage = returned;
                    windows_led = outcome.windows_led;
                    outcome.result
                } else {
                    storage.sync()
                }
            }
        };
        let mut state = self.state.lock().expect(PIPE_LOCK);
        state.storage = Some(storage);
        state.flushing = false;
        match io_result {
            Err(e) => {
                state.io_error = Some((e.kind(), e.to_string()));
                drop(state);
                self.boundary_cv.notify_all();
                crate::sched::progress("wal.buffer.flushed");
                Err(e)
            }
            Ok(()) => {
                state.last_flushed_lsn = buf.up_to_lsn;
                state.syncs += 1;
                state.epoch_len += buf.bytes.len() as u64;
                if let Some(t0) = timer {
                    state.obs.record_duration(HistKind::WalSyncMs, t0.elapsed());
                }
                for window in windows_led {
                    state.obs.emit(EventKind::WalCoalescedSync {
                        requests: window as u64,
                    });
                }
                state.obs.emit(EventKind::WalSync {
                    lsn: buf.up_to_lsn,
                    epoch: state.epoch,
                });
                if !pre_published {
                    Self::publish_locked(&mut state, &buf);
                }
                drop(state);
                self.boundary_cv.notify_all();
                crate::sched::progress("wal.buffer.flushed");
                Ok(true)
            }
        }
    }

    /// Publish one landed buffer to the shipper (caller holds the state
    /// lock, making the publish atomic with the boundary advance — a
    /// checkpoint can never slide an epoch bump between them).
    fn publish_locked(state: &mut PipeState, buf: &SealedBuf) {
        if let Some(shipper) = &state.shipper {
            shipper.publish(&buf.bytes);
            state.obs.emit(EventKind::ShipPublish {
                lsn: buf.up_to_lsn,
                epoch: state.epoch,
            });
        }
    }
}

struct WalInner {
    storage: Box<dyn Storage>,
    config: WalConfig,
    shadow: RecoveryState,
    /// The committed state at the log tip — what replaying the log now
    /// would rebuild. Values alias the live store's `Arc`s.
    shadow_store: KvStore,
    unsynced_commits: usize,
    commits_since_checkpoint: u64,
    /// `stats.bytes_appended` when the last checkpoint image was taken —
    /// the base of the growth trigger.
    appended_at_checkpoint: u64,
    /// Framed size of the last checkpoint image (0 before the first).
    last_checkpoint_len: u64,
    /// Bytes of the current epoch's log known durable (legacy modes
    /// only; the pipelined boundary lives in `PipeState`). Lets
    /// `flush_lsn` answer at-or-below-the-boundary requests without I/O.
    flushed_len: u64,
    stats: WalStats,
    /// Cloud replication endpoint, when shipping is on. Published to only
    /// inside the sync paths, so the shipped image is exactly the durable
    /// image — a replica can lag but never run ahead of a crash.
    shipper: Option<Arc<LogShipper>>,
    /// Frame bytes appended since the last sync — the batch the next sync
    /// publishes.
    unshipped: Vec<u8>,
    /// Observability stream (disabled by default). Events use the log
    /// length as the LSN and the checkpoint epoch as the epoch, so the
    /// ordering contract's shipped ⊆ durable check is byte-exact.
    obs: EdgeObs,
    /// Checkpoint epoch: bumped at every truncation (mirrors the
    /// shipper's epoch when one is attached).
    epoch: u64,
}

impl WalInner {
    /// The automatic checkpoint policy: the commit-point floor, then the
    /// growth rule (see the module docs).
    fn wants_checkpoint(&self) -> bool {
        let every = self.config.checkpoint_every;
        let grown = self.stats.bytes_appended - self.appended_at_checkpoint;
        every > 0
            && self.commits_since_checkpoint >= every
            && grown >= CHECKPOINT_GROWTH * self.last_checkpoint_len
    }

    /// Serialize the shadow into one framed checkpoint image and make it
    /// the new base of the checkpoint schedule. The one image writer:
    /// both checkpoint paths, and through them both resumes, call it
    /// right before the image replaces the log. A failed replacement is
    /// fatal to the writer (the executors abort on it), so the base is
    /// not rolled back.
    fn checkpoint_image(&mut self) -> Vec<u8> {
        let cp = self.shadow.to_checkpoint(&self.shadow_store);
        let mut framed = Vec::new();
        write_frame(&mut framed, &WalRecord::Checkpoint(Box::new(cp)).encode());
        self.stats.checkpoints += 1;
        self.commits_since_checkpoint = 0;
        self.appended_at_checkpoint = self.stats.bytes_appended;
        self.last_checkpoint_len = framed.len() as u64;
        framed
    }

    /// Make everything appended durable and publish it to the shipper.
    /// The single exit through which bytes become both synced and shipped.
    fn sync_and_publish(&mut self) -> io::Result<()> {
        let timer = self.obs.is_enabled().then(std::time::Instant::now);
        self.storage.sync()?;
        self.stats.syncs += 1;
        self.unsynced_commits = 0;
        let lsn = self.storage.len();
        self.flushed_len = lsn;
        if let Some(t0) = timer {
            self.obs.record_duration(HistKind::WalSyncMs, t0.elapsed());
        }
        self.obs.emit(EventKind::WalSync {
            lsn,
            epoch: self.epoch,
        });
        if let Some(shipper) = &self.shipper {
            shipper.publish(&self.unshipped);
            if !self.unshipped.is_empty() {
                self.obs.emit(EventKind::ShipPublish {
                    lsn,
                    epoch: self.epoch,
                });
            }
        }
        self.unshipped.clear();
        Ok(())
    }
}

/// A per-edge write-ahead log. Thread-safe; share via `Arc`.
pub struct Wal {
    inner: Mutex<WalInner>,
    /// `Some` in pipelined mode. The legacy (synchronous) modes never
    /// touch it and stay byte-identical with the pre-pipeline writer; in
    /// pipelined mode the real storage lives inside, and `inner.storage`
    /// is an empty placeholder device nothing writes to.
    pipeline: Option<Arc<PipelineShared>>,
    /// The dedicated flusher thread, joined on drop.
    flusher: Option<JoinHandle<()>>,
}

impl Wal {
    /// A log over any storage backend.
    #[must_use]
    pub fn with_storage(storage: Box<dyn Storage>, config: WalConfig) -> Self {
        Wal {
            inner: Mutex::new(WalInner {
                storage,
                config,
                shadow: RecoveryState::new(),
                shadow_store: KvStore::new(),
                unsynced_commits: 0,
                commits_since_checkpoint: 0,
                appended_at_checkpoint: 0,
                last_checkpoint_len: 0,
                flushed_len: 0,
                stats: WalStats::default(),
                shipper: None,
                unshipped: Vec::new(),
                obs: EdgeObs::disabled(),
                epoch: 0,
            }),
            pipeline: None,
            flusher: None,
        }
    }

    /// A *pipelined* log over any storage backend: appends receive
    /// global monotone LSNs, buffers seal every
    /// [`WalConfig::group_commit`] commit points, and a dedicated
    /// flusher lands them while new appends keep going. See
    /// [`PipelineConfig`].
    #[must_use]
    pub fn with_storage_pipelined(
        storage: Box<dyn Storage>,
        config: WalConfig,
        pipe: PipelineConfig,
    ) -> Self {
        let mut wal = Wal::with_storage(Box::new(MemStorage::new()), config);
        let shared = Arc::new(PipelineShared {
            state: StdMutex::new(PipeState {
                storage: Some(storage),
                active: Vec::new(),
                active_commits: 0,
                sealed: VecDeque::new(),
                latest_lsn: 0,
                sealed_lsn: 0,
                last_flushed_lsn: 0,
                flushing: false,
                shutdown: false,
                syncs: 0,
                epoch: 0,
                epoch_len: 0,
                shipper: None,
                obs: EdgeObs::disabled(),
                io_error: None,
                #[cfg(feature = "mcheck")]
                publish_before_sync: false,
            }),
            work_cv: Condvar::new(),
            boundary_cv: Condvar::new(),
            coalescer: pipe.coalescer,
            has_flusher: !pipe.manual_flusher,
        });
        if !pipe.manual_flusher {
            let for_thread = Arc::clone(&shared);
            wal.flusher = Some(
                std::thread::Builder::new()
                    .name("wal-flusher".into())
                    .spawn(move || {
                        // An Err is sticky in the state; waiters fail
                        // fast, so the thread just stops pumping.
                        while matches!(for_thread.step(true), Ok(true)) {}
                    })
                    .expect("spawn wal flusher"),
            );
        }
        wal.pipeline = Some(shared);
        wal
    }

    /// A fresh pipelined in-memory log; the [`MemStorage`] handle shares
    /// the device, for crash simulation at buffer-seal and post-sync
    /// boundaries.
    #[must_use]
    pub fn pipelined_in_memory(config: WalConfig, pipe: PipelineConfig) -> (Self, MemStorage) {
        let probe = MemStorage::new();
        let wal = Wal::with_storage_pipelined(Box::new(probe.clone()), config, pipe);
        (wal, probe)
    }

    /// Whether this writer runs the pipelined path.
    #[must_use]
    pub fn is_pipelined(&self) -> bool {
        self.pipeline.is_some()
    }

    /// Attach an observability stream: appends, syncs and publishes are
    /// emitted as typed events, and sync latency feeds the per-edge
    /// histogram. Safe to call at any point; the default is disabled.
    pub fn set_obs(&self, obs: EdgeObs) {
        if let Some(shared) = &self.pipeline {
            shared.state.lock().expect(PIPE_LOCK).obs = obs.clone();
        }
        self.inner.lock().obs = obs;
    }

    /// Attach a cloud shipping endpoint. Must happen before the first
    /// append — the writer cannot read already-written bytes back out of
    /// its storage to backfill the replica.
    pub fn attach_shipper(&self, shipper: Arc<LogShipper>) {
        let mut inner = self.inner.lock();
        if let Some(shared) = &self.pipeline {
            let mut state = shared.state.lock().expect(PIPE_LOCK);
            assert!(
                state.latest_lsn == 0,
                "attach the shipper before the first append"
            );
            state.shipper = Some(Arc::clone(&shipper));
        } else {
            assert!(
                inner.storage.is_empty(),
                "attach the shipper before the first append"
            );
        }
        inner.shipper = Some(shipper);
    }

    /// The attached shipping endpoint, if any.
    #[must_use]
    pub fn shipper(&self) -> Option<Arc<LogShipper>> {
        self.inner.lock().shipper.clone()
    }

    /// Rebuild a writer over recovered state: the log restarts as a single
    /// checkpoint frame serializing `state` (as recovered — see
    /// [`RecoveryReport::state`](crate::RecoveryReport)) over `store` (the
    /// recovered committed store). Writes the recovered transactions never
    /// committed are abandoned first: their owners died with their locks,
    /// so they can never finish, and their stale pre-images must not
    /// overlay future checkpoints. With a shipper, the replica's tail
    /// restarts at the new epoch.
    pub fn resume(
        storage: Box<dyn Storage>,
        config: WalConfig,
        state: RecoveryState,
        store: &KvStore,
        shipper: Option<Arc<LogShipper>>,
    ) -> io::Result<Self> {
        Wal::with_storage(storage, config).restart(state, store, shipper)
    }

    /// [`resume`](Wal::resume), pipelined: the recovered log restarts as
    /// a single durable checkpoint frame at epoch 1, and new appends go
    /// through the buffer/flusher pipeline.
    pub fn resume_pipelined(
        storage: Box<dyn Storage>,
        config: WalConfig,
        pipe: PipelineConfig,
        state: RecoveryState,
        store: &KvStore,
        shipper: Option<Arc<LogShipper>>,
    ) -> io::Result<Self> {
        Wal::with_storage_pipelined(storage, config, pipe).restart(state, store, shipper)
    }

    /// Load recovered state into this fresh writer's shadow and take its
    /// first checkpoint: the log becomes the single image frame of epoch
    /// 1, and the replica (if any) re-tails from it.
    fn restart(
        self,
        mut state: RecoveryState,
        store: &KvStore,
        shipper: Option<Arc<LogShipper>>,
    ) -> io::Result<Self> {
        state.abandon_pending();
        {
            let mut inner = self.inner.lock();
            for (key, versioned) in store.snapshot() {
                inner.shadow_store.put(key, versioned.value);
            }
            inner.shadow = state;
            if let Some(shared) = &self.pipeline {
                shared.state.lock().expect(PIPE_LOCK).shipper = shipper.clone();
            }
            inner.shipper = shipper;
            self.checkpoint_locked(&mut inner)?;
        }
        Ok(self)
    }

    /// [`resume`](Wal::resume) over a file (truncating whatever is there —
    /// recover from it *first*).
    pub fn resume_file(
        path: impl AsRef<Path>,
        config: WalConfig,
        state: RecoveryState,
        store: &KvStore,
        shipper: Option<Arc<LogShipper>>,
    ) -> io::Result<Self> {
        Wal::resume(
            Box::new(FileStorage::create(path.as_ref())?),
            config,
            state,
            store,
            shipper,
        )
    }

    /// A fresh file-backed log at `path` (truncates an existing file —
    /// recover from it *first* via [`crate::recover_file`]).
    pub fn create(path: impl AsRef<Path>, config: WalConfig) -> io::Result<Self> {
        Ok(Wal::with_storage(
            Box::new(FileStorage::create(path.as_ref())?),
            config,
        ))
    }

    /// A fresh in-memory log; the returned [`MemStorage`] handle shares
    /// the device, for crash simulation.
    #[must_use]
    pub fn in_memory(config: WalConfig) -> (Self, MemStorage) {
        let probe = MemStorage::new();
        let wal = Wal::with_storage(Box::new(probe.clone()), config);
        (wal, probe)
    }

    fn append_record(inner: &mut WalInner, record: &WalRecord) -> io::Result<()> {
        let mut framed = Vec::with_capacity(64);
        write_frame(&mut framed, &record.encode());
        inner.storage.append(&framed)?;
        // Split-borrow: fold into the shadow state *and* shadow store.
        let WalInner {
            shadow,
            shadow_store,
            ..
        } = inner;
        shadow.apply(record, Some(shadow_store));
        inner.stats.records += 1;
        inner.stats.bytes_appended += framed.len() as u64;
        inner.unshipped.extend_from_slice(&framed);
        inner.obs.emit(EventKind::WalAppend {
            lsn: inner.storage.len(),
        });
        Ok(())
    }

    /// Pipelined append: the shadow fold and counters stay under the
    /// writer mutex (log order == shadow order), but the bytes land in
    /// the active buffer and the record gets a global monotone LSN —
    /// storage is never touched on this path.
    fn append_record_pipelined(
        shared: &PipelineShared,
        inner: &mut WalInner,
        record: &WalRecord,
    ) -> io::Result<u64> {
        let mut framed = Vec::with_capacity(64);
        write_frame(&mut framed, &record.encode());
        let WalInner {
            shadow,
            shadow_store,
            ..
        } = inner;
        shadow.apply(record, Some(shadow_store));
        inner.stats.records += 1;
        inner.stats.bytes_appended += framed.len() as u64;
        let mut state = shared.state.lock().expect(PIPE_LOCK);
        PipelineShared::io_error_locked(&state)?;
        state.active.extend_from_slice(&framed);
        state.latest_lsn += framed.len() as u64;
        let lsn = state.latest_lsn;
        state.obs.emit(EventKind::WalAppend { lsn });
        Ok(lsn)
    }

    /// Append one record through whichever path this writer runs,
    /// returning its LSN (global in pipelined mode, the epoch-relative
    /// log length in the synchronous modes).
    fn append_any(&self, inner: &mut WalInner, record: &WalRecord) -> io::Result<u64> {
        match &self.pipeline {
            None => {
                Self::append_record(inner, record)?;
                Ok(inner.storage.len())
            }
            Some(shared) => Self::append_record_pipelined(shared, inner, record),
        }
    }

    fn commit_point(inner: &mut WalInner) -> io::Result<()> {
        inner.stats.commit_points += 1;
        inner.commits_since_checkpoint += 1;
        inner.unsynced_commits += 1;
        if inner.unsynced_commits >= inner.config.group_commit {
            inner.sync_and_publish()?;
        }
        Ok(())
    }

    /// Log one executed stage, returning its LSN. If the record is a
    /// commit point, the group policy decides what this call pays: the
    /// synchronous modes may sync inline; the pipelined mode at most
    /// seals the buffer and waits on the *previous* buffer's LSN
    /// boundary while this one syncs in the background.
    pub fn append_stage(&self, record: StageRecord) -> io::Result<u64> {
        crate::sched::yield_point("wal.append_stage");
        let is_commit = record.flags.commit_point();
        let (lsn, seal_group) = {
            let mut inner = self.inner.lock();
            let lsn = self.append_any(&mut inner, &WalRecord::Stage(record))?;
            let mut seal_group = None;
            if is_commit {
                match &self.pipeline {
                    None => Self::commit_point(&mut inner)?,
                    Some(shared) => {
                        inner.stats.commit_points += 1;
                        inner.commits_since_checkpoint += 1;
                        let group = inner.config.group_commit;
                        let mut state = shared.state.lock().expect(PIPE_LOCK);
                        state.active_commits += 1;
                        if state.active_commits >= group {
                            seal_group = Some(group);
                        }
                    }
                }
            }
            (lsn, seal_group)
        };
        if let Some(group) = seal_group {
            // Outside the writer mutex: the backpressure wait must not
            // block other appenders' non-sealing commits.
            self.pipeline
                .as_ref()
                .expect("seal only set in pipelined mode")
                .seal_for_commit(group)?;
        }
        Ok(lsn)
    }

    /// Log the retraction of apology entries (one record per entry, in
    /// rollback order). Durability rides the enclosing stage's commit.
    pub fn append_retracts(
        &self,
        retracts: impl IntoIterator<Item = RetractRecord>,
    ) -> io::Result<()> {
        crate::sched::yield_point("wal.append_retracts");
        let mut inner = self.inner.lock();
        for r in retracts {
            self.append_any(&mut inner, &WalRecord::Retract(r))?;
        }
        Ok(())
    }

    /// Log a 2PC coordinator decision and make it durable *before*
    /// returning — the decision must be durable before any participant
    /// enters phase 2, or a coordinator crash leaves them in doubt
    /// forever. The pipelined mode waits on the decision's own LSN
    /// boundary instead of draining the whole log.
    pub fn append_tpc_decision(&self, txn: TxnId, commit: bool) -> io::Result<()> {
        crate::sched::yield_point("wal.append_tpc_decision");
        let lsn = {
            let mut inner = self.inner.lock();
            let lsn = self.append_any(&mut inner, &WalRecord::TpcDecision { txn, commit })?;
            match &self.pipeline {
                None => return inner.sync_and_publish(),
                Some(_) => lsn,
            }
        };
        self.flush_lsn(lsn)
    }

    /// Log the completion of a 2PC transaction's phase 2: every
    /// participant acked, so the decision entry may be forgotten. Not
    /// synced on its own — losing this record merely re-runs an
    /// idempotent phase 2 under presumed abort.
    pub fn append_tpc_end(&self, txn: TxnId) -> io::Result<()> {
        crate::sched::yield_point("wal.append_tpc_end");
        let mut inner = self.inner.lock();
        self.append_any(&mut inner, &WalRecord::TpcEnd { txn })?;
        Ok(())
    }

    /// Log a settle point: the caller vouches the edge is quiescent (no
    /// frame in flight) and the apology manager dropped all its entries;
    /// the shadow state drops its mirror of them. Durability rides the
    /// next sync — a lost settle only means some entries get re-dropped
    /// by the next one.
    pub fn append_settle(&self) -> io::Result<()> {
        let mut inner = self.inner.lock();
        self.append_any(&mut inner, &WalRecord::Settle)?;
        Ok(())
    }

    /// The phase-1 decision the shadow state holds for `txn`, if it has
    /// not been expired by a [`WalRecord::TpcEnd`].
    #[must_use]
    pub fn tpc_decision(&self, txn: TxnId) -> Option<bool> {
        self.inner.lock().shadow.tpc_decision(txn)
    }

    /// Unexpired coordinator decisions currently tracked.
    #[must_use]
    pub fn tpc_decision_count(&self) -> usize {
        self.inner.lock().shadow.tpc_decisions().len()
    }

    /// Registered entries (live or retracted) still mirrored in the shadow
    /// state — what the settle pass keeps bounded.
    #[must_use]
    pub fn shadow_entry_count(&self) -> usize {
        self.inner.lock().shadow.tracked_entries()
    }

    /// Force the durable boundary forward over everything appended.
    pub fn flush(&self) -> io::Result<()> {
        match &self.pipeline {
            None => self.inner.lock().sync_and_publish(),
            Some(shared) => {
                let target = shared.state.lock().expect(PIPE_LOCK).latest_lsn;
                shared.flush_lsn(target)
            }
        }
    }

    /// Wait until the durable boundary covers `lsn` (as returned by
    /// [`Wal::append_stage`]). Returns immediately at or below
    /// `last_flushed_lsn`; past it, the pipelined mode seals as needed
    /// and waits for the flusher to land the covering buffer, while the
    /// synchronous modes fall back to a full sync.
    pub fn flush_lsn(&self, lsn: u64) -> io::Result<()> {
        match &self.pipeline {
            Some(shared) => shared.flush_lsn(lsn),
            None => {
                let mut inner = self.inner.lock();
                if lsn <= inner.flushed_len {
                    Ok(())
                } else {
                    inner.sync_and_publish()
                }
            }
        }
    }

    /// The global LSN of the last appended byte (pipelined mode; the
    /// synchronous modes report the epoch-relative log length).
    #[must_use]
    pub fn latest_lsn(&self) -> u64 {
        match &self.pipeline {
            Some(shared) => shared.state.lock().expect(PIPE_LOCK).latest_lsn,
            None => self.inner.lock().storage.len(),
        }
    }

    /// The durable LSN boundary: everything at or below survives a
    /// crash (directly, or folded into a durable checkpoint).
    #[must_use]
    pub fn last_flushed_lsn(&self) -> u64 {
        match &self.pipeline {
            Some(shared) => shared.state.lock().expect(PIPE_LOCK).last_flushed_lsn,
            None => self.inner.lock().flushed_len,
        }
    }

    /// Drive one flusher iteration by hand (harness mode — see
    /// [`PipelineConfig::manual_flusher`]): the crash sweep uses it to
    /// cut the device at exact buffer boundaries, and the model checker
    /// runs it as a virtual task. Returns `Ok(false)` once shut down and
    /// drained.
    pub fn flusher_step(&self) -> io::Result<bool> {
        self.pipeline
            .as_ref()
            .expect("flusher_step is a pipelined-mode API")
            .step(crate::sched::active())
    }

    /// Seal the active buffer onto the flusher queue without waiting
    /// for any boundary (harness mode companion to
    /// [`Wal::flusher_step`]).
    pub fn seal_active(&self) {
        let shared = self
            .pipeline
            .as_ref()
            .expect("seal_active is a pipelined-mode API");
        let sealed = {
            let mut state = shared.state.lock().expect(PIPE_LOCK);
            shared.seal_locked(&mut state)
        };
        if sealed {
            crate::sched::progress("wal.buffer.sealed");
        }
    }

    /// Stop accepting flusher work after the queue drains: pending
    /// sealed buffers still land, the unsealed active tail is the loss
    /// window (exactly like dropping a synchronous writer with an
    /// unsynced tail). Idempotent; `Drop` calls it too.
    pub fn shutdown_flusher(&self) {
        if let Some(shared) = &self.pipeline {
            shared.state.lock().expect(PIPE_LOCK).shutdown = true;
            shared.work_cv.notify_all();
            crate::sched::progress("wal.buffer.shutdown");
        }
    }

    /// Model-checker mutation hook: make the flusher publish each buffer
    /// *before* syncing it. This plants the exact bug class the shipping
    /// contract forbids; `tests/mcheck.rs` proves the checker finds it.
    #[cfg(feature = "mcheck")]
    pub fn mutate_publish_before_sync(&self) {
        self.pipeline
            .as_ref()
            .expect("mutation targets the pipelined writer")
            .state
            .lock()
            .expect(PIPE_LOCK)
            .publish_before_sync = true;
    }

    /// Whether the automatic checkpoint policy fires now: the
    /// [`WalConfig::checkpoint_every`] floor is reached and the log has
    /// grown by [`CHECKPOINT_GROWTH`] × the last image.
    #[must_use]
    pub fn wants_checkpoint(&self) -> bool {
        self.inner.lock().wants_checkpoint()
    }

    /// Take a checkpoint now: serialize the shadow store + replay state
    /// into one record and truncate the log to it (atomically, synced).
    /// Consistent under concurrency — the snapshot comes from the
    /// writer's own shadow of the log, never from the live store.
    pub fn checkpoint(&self) -> io::Result<()> {
        self.checkpoint_locked(&mut self.inner.lock())
    }

    /// [`checkpoint`](Wal::checkpoint) with the writer mutex already held.
    fn checkpoint_locked(&self, inner: &mut WalInner) -> io::Result<()> {
        if let Some(shared) = &self.pipeline {
            return Self::checkpoint_pipelined(shared, inner);
        }
        let framed = inner.checkpoint_image();
        inner.storage.reset(&framed)?;
        inner.stats.syncs += 1;
        inner.unsynced_commits = 0;
        // The truncation rewrote history: unsynced bytes are gone (their
        // effects live inside the checkpoint), and the replica must
        // re-tail from the new epoch's single frame.
        inner.unshipped.clear();
        inner.flushed_len = framed.len() as u64;
        inner.epoch += 1;
        let lsn = inner.storage.len();
        let epoch = inner.epoch;
        inner.obs.emit(EventKind::WalSync { lsn, epoch });
        if let Some(shipper) = &inner.shipper {
            shipper.restart_epoch(&framed);
            inner.obs.emit(EventKind::ShipPublish { lsn, epoch });
        }
        Ok(())
    }

    /// The pipelined checkpoint. The writer mutex (held by the caller)
    /// fences appenders; the in-flight buffer — if any — is waited out,
    /// and then the truncation, the epoch bump, the boundary advance and
    /// the shipper restart all happen under the state lock, atomically
    /// with respect to the flusher. Sealed-but-unflushed buffers are
    /// discarded exactly like the synchronous writer's unsynced tail:
    /// their effects live inside the checkpoint, so the boundary jumps
    /// *forward* to `latest_lsn` and every waiter wakes durable.
    fn checkpoint_pipelined(shared: &PipelineShared, inner: &mut WalInner) -> io::Result<()> {
        let mut state = shared.state.lock().expect(PIPE_LOCK);
        while state.flushing {
            if crate::sched::active() {
                drop(state);
                crate::sched::block_point("wal.buffer.checkpoint");
                state = shared.state.lock().expect(PIPE_LOCK);
            } else {
                state = shared.boundary_cv.wait(state).expect(PIPE_LOCK);
            }
        }
        PipelineShared::io_error_locked(&state)?;
        let framed = inner.checkpoint_image();
        let mut storage = state.storage.take().expect("not flushing");
        let reset = storage.reset(&framed);
        state.storage = Some(storage);
        reset?;
        state.sealed.clear();
        state.active.clear();
        state.active_commits = 0;
        state.sealed_lsn = state.latest_lsn;
        state.last_flushed_lsn = state.latest_lsn;
        state.syncs += 1;
        state.epoch += 1;
        state.epoch_len = framed.len() as u64;
        let lsn = state.latest_lsn;
        let epoch = state.epoch;
        state.obs.emit(EventKind::WalSync { lsn, epoch });
        if let Some(shipper) = &state.shipper {
            shipper.restart_epoch(&framed);
            state.obs.emit(EventKind::ShipPublish { lsn, epoch });
        }
        drop(state);
        shared.boundary_cv.notify_all();
        crate::sched::progress("wal.buffer.checkpoint");
        Ok(())
    }

    /// Checkpoint if the policy says so (call from the commit path). The
    /// decision and the checkpoint share one hold of the writer mutex, so
    /// concurrent committers cannot both pass the check and checkpoint
    /// back to back.
    pub fn maybe_checkpoint(&self) -> io::Result<bool> {
        let mut inner = self.inner.lock();
        if !inner.wants_checkpoint() {
            return Ok(false);
        }
        self.checkpoint_locked(&mut inner)?;
        Ok(true)
    }

    /// Counters so far.
    #[must_use]
    pub fn stats(&self) -> WalStats {
        let mut stats = self.inner.lock().stats;
        if let Some(shared) = &self.pipeline {
            stats.syncs += shared.state.lock().expect(PIPE_LOCK).syncs;
        }
        stats
    }

    /// Bytes appended to the current log (post-truncation), including
    /// buffered-but-unflushed bytes in pipelined mode.
    #[must_use]
    pub fn log_len(&self) -> u64 {
        match &self.pipeline {
            None => self.inner.lock().storage.len(),
            Some(shared) => {
                let state = shared.state.lock().expect(PIPE_LOCK);
                let pending: usize = state.sealed.iter().map(|b| b.bytes.len()).sum();
                state.epoch_len + pending as u64 + state.active.len() as u64
            }
        }
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        self.shutdown_flusher();
        if let Some(flusher) = self.flusher.take() {
            let _ = flusher.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{StageFlags, WriteImage};
    use crate::recover::recover;
    use croesus_store::{Key, Value};
    use std::sync::Arc;

    fn stage_record(txn: u64, stage: u32, flags: u8, key: &str, post: i64) -> StageRecord {
        StageRecord {
            txn: TxnId(txn),
            stage,
            total: 2,
            flags: StageFlags(flags),
            reads: vec![],
            writes: vec![Key::new(key)],
            images: vec![WriteImage {
                key: Key::new(key),
                pre: None,
                post: Some(Arc::new(Value::Int(post))),
            }],
        }
    }

    const CP: u8 = StageFlags::COMMIT_POINT;
    const FIN: u8 = StageFlags::FINAL;
    const REG: u8 = StageFlags::REGISTER;

    #[test]
    fn group_commit_amortizes_syncs() {
        let (wal, probe) = Wal::in_memory(WalConfig::group(4));
        for i in 0..8u64 {
            wal.append_stage(stage_record(i, 0, CP, "k", i as i64))
                .unwrap();
        }
        let stats = wal.stats();
        assert_eq!(stats.commit_points, 8);
        assert_eq!(stats.syncs, 2, "4-commit groups → 2 syncs for 8 commits");
        assert_eq!(probe.unsynced_len(), 0);
    }

    #[test]
    fn strict_mode_syncs_every_commit() {
        let (wal, _) = Wal::in_memory(WalConfig::strict());
        for i in 0..5u64 {
            wal.append_stage(stage_record(i, 0, CP, "k", 0)).unwrap();
        }
        assert_eq!(wal.stats().syncs, 5);
    }

    #[test]
    fn unsynced_tail_is_lost_synced_prefix_survives() {
        let (wal, probe) = Wal::in_memory(WalConfig::group(2));
        wal.append_stage(stage_record(1, 0, CP, "a", 1)).unwrap();
        wal.append_stage(stage_record(2, 0, CP, "b", 2)).unwrap(); // sync here
        wal.append_stage(stage_record(3, 0, CP, "c", 3)).unwrap(); // buffered
        let crash = probe.durable();
        let r = recover(&crash);
        assert!(r.store.contains(&"a".into()));
        assert!(r.store.contains(&"b".into()));
        assert!(
            !r.store.contains(&"c".into()),
            "the unsynced commit is inside the group-commit loss window"
        );
        wal.flush().unwrap();
        let r = recover(&probe.durable());
        assert!(r.store.contains(&"c".into()));
    }

    #[test]
    fn non_commit_records_do_not_trigger_sync() {
        let (wal, probe) = Wal::in_memory(WalConfig::strict());
        wal.append_stage(stage_record(1, 0, 0, "a", 1)).unwrap(); // MS-SR early stage
        assert_eq!(wal.stats().syncs, 0);
        assert!(probe.unsynced_len() > 0);
    }

    #[test]
    fn checkpoint_truncates_and_recovery_continues_from_it() {
        let (wal, probe) = Wal::in_memory(WalConfig::group(1));
        wal.append_stage(stage_record(1, 0, CP, "a", 1)).unwrap();
        wal.append_stage(StageRecord {
            images: vec![WriteImage {
                key: "a".into(),
                pre: Some(Arc::new(Value::Int(1))),
                post: Some(Arc::new(Value::Int(2))),
            }],
            ..stage_record(1, 1, CP | FIN, "a", 2)
        })
        .unwrap();
        let before = wal.log_len();
        // The checkpoint serializes the writer's own shadow of the log —
        // no live store involved.
        wal.checkpoint().unwrap();
        assert!(wal.log_len() < before, "checkpoint shrank the log");
        // More activity after the checkpoint. Stage 0 registers its
        // footprint, like every real lock-releasing initial commit.
        wal.append_stage(stage_record(2, 0, CP | REG, "b", 9))
            .unwrap();
        let r = recover(&probe.durable());
        assert_eq!(r.store.get(&"a".into()).as_deref(), Some(&Value::Int(2)));
        assert_eq!(r.store.get(&"b".into()).as_deref(), Some(&Value::Int(9)));
        assert_eq!(r.unfinalized, vec![TxnId(2)]);
        assert_eq!(r.finalized, 1, "the finalized count survives truncation");
    }

    #[test]
    fn auto_checkpoint_schedule_fires() {
        let config = WalConfig {
            group_commit: 1,
            checkpoint_every: 3,
        };
        let (wal, _) = Wal::in_memory(config);
        for i in 0..7u64 {
            wal.append_stage(stage_record(i, 0, CP | FIN, "k", 0))
                .unwrap();
            wal.maybe_checkpoint().unwrap();
        }
        assert_eq!(wal.stats().checkpoints, 2, "commits 3 and 6 checkpoint");
    }

    #[test]
    fn checkpoint_mid_stage_on_another_thread_stays_committed_only() {
        // A concurrent thread has mutated the live store mid-stage (its
        // record not yet appended). The checkpoint must not see it: the
        // snapshot comes from the shadow store, which only moves at
        // appended commit points.
        let (wal, probe) = Wal::in_memory(WalConfig::group(1));
        wal.append_stage(stage_record(1, 0, CP | FIN, "committed", 1))
            .unwrap();
        // (The live store — with some other thread's uncommitted write —
        // is simply never consulted; there is nothing to pass in.)
        wal.checkpoint().unwrap();
        let r = recover(&probe.durable());
        assert_eq!(
            r.store.get(&"committed".into()).as_deref(),
            Some(&Value::Int(1))
        );
        assert_eq!(r.store.len(), 1, "only logged commits reach checkpoints");
    }

    #[test]
    fn tpc_decision_is_synced_immediately() {
        let (wal, probe) = Wal::in_memory(WalConfig::group(1000));
        wal.append_tpc_decision(TxnId(77), true).unwrap();
        let r = recover(&probe.durable());
        assert_eq!(r.tpc_decisions, vec![(TxnId(77), true)]);
    }

    #[test]
    fn file_backed_wal_survives_a_real_roundtrip() {
        let dir = crate::storage::scratch_dir("writer-test");
        let path = dir.join("edge-0.wal");
        let wal = Wal::create(&path, WalConfig::strict()).unwrap();
        wal.append_stage(stage_record(1, 0, CP | REG, "k", 42))
            .unwrap();
        drop(wal);
        let r = crate::recover::recover_file(&path).unwrap();
        assert_eq!(r.store.get(&"k".into()).as_deref(), Some(&Value::Int(42)));
        assert_eq!(r.unfinalized, vec![TxnId(1)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shipped_image_equals_durable_image_at_every_sync() {
        let (wal, probe) = Wal::in_memory(WalConfig::group(2));
        let shipper = Arc::new(LogShipper::new());
        wal.attach_shipper(Arc::clone(&shipper));
        wal.append_stage(stage_record(1, 0, CP, "a", 1)).unwrap();
        assert_eq!(shipper.shipped_len(), 0, "unsynced bytes are never shipped");
        wal.append_stage(stage_record(2, 0, CP, "b", 2)).unwrap(); // group sync
        assert_eq!(shipper.image(), probe.durable());
        wal.append_stage(stage_record(3, 0, CP, "c", 3)).unwrap(); // buffered
        wal.flush().unwrap();
        assert_eq!(shipper.image(), probe.durable());
    }

    #[test]
    fn checkpoint_restarts_the_shipping_epoch() {
        let (wal, probe) = Wal::in_memory(WalConfig::group(1));
        let shipper = Arc::new(LogShipper::new());
        wal.attach_shipper(Arc::clone(&shipper));
        wal.append_stage(stage_record(1, 0, CP | FIN, "a", 1))
            .unwrap();
        wal.checkpoint().unwrap();
        assert_eq!(shipper.epoch(), 1);
        assert_eq!(shipper.image(), probe.durable());
        let r = recover(&shipper.image());
        assert_eq!(r.store.get(&"a".into()).as_deref(), Some(&Value::Int(1)));
    }

    #[test]
    #[should_panic(expected = "before the first append")]
    fn attaching_a_shipper_to_a_dirty_log_panics() {
        let (wal, _) = Wal::in_memory(WalConfig::strict());
        wal.append_stage(stage_record(1, 0, CP, "a", 1)).unwrap();
        wal.attach_shipper(Arc::new(LogShipper::new()));
    }

    #[test]
    fn resume_restarts_the_log_as_a_checkpoint_and_continues() {
        // A crash after one unfinalized commit, then a resumed writer over
        // the recovered state.
        let (wal, probe) = Wal::in_memory(WalConfig::strict());
        wal.append_stage(stage_record(1, 0, CP | REG, "a", 1))
            .unwrap();
        wal.append_stage(stage_record(9, 0, 0, "held", 5)).unwrap(); // MS-SR mid-flight
        wal.flush().unwrap(); // the mid-flight record reaches the disk...
        let r = recover(&probe.durable()); // ...then the process dies
        assert_eq!(r.unfinalized, vec![TxnId(1)]);

        let shipper = Arc::new(LogShipper::new());
        let probe2 = MemStorage::new();
        let resumed = Wal::resume(
            Box::new(probe2.clone()),
            WalConfig::strict(),
            r.state,
            &r.store,
            Some(Arc::clone(&shipper)),
        )
        .unwrap();
        assert_eq!(shipper.image(), probe2.durable());
        // New work continues against the resumed log.
        resumed
            .append_stage(stage_record(1, 1, CP | FIN, "a", 2))
            .unwrap();
        let r2 = recover(&probe2.durable());
        assert_eq!(r2.store.get(&"a".into()).as_deref(), Some(&Value::Int(2)));
        assert!(r2.unfinalized.is_empty(), "txn 1 finalized after resume");
        assert!(
            !r2.store.contains(&"held".into()),
            "the dead mid-flight write never reappears"
        );
        assert_eq!(r2.next_txn, 10, "the id high-water mark survived resume");
    }

    /// Storage that counts the checkpoint image bytes written through
    /// [`Storage::reset`] (shared across clones).
    #[derive(Clone, Default)]
    struct ResetTap {
        mem: MemStorage,
        image_bytes: Arc<std::sync::atomic::AtomicU64>,
    }

    impl ResetTap {
        fn image_bytes(&self) -> u64 {
            self.image_bytes.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl Storage for ResetTap {
        fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.mem.append(bytes)
        }
        fn sync(&mut self) -> io::Result<()> {
            self.mem.sync()
        }
        fn reset(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.image_bytes
                .fetch_add(bytes.len() as u64, std::sync::atomic::Ordering::Relaxed);
            self.mem.reset(bytes)
        }
        fn len(&self) -> u64 {
            self.mem.len()
        }
    }

    #[test]
    fn checkpoint_growth_rule_is_logarithmic_and_paid_for_by_appends() {
        // Every transaction inserts a fresh key, so the store — and with
        // it every image — grows with the run. A fixed interval would
        // checkpoint 8192 / 8 = 1024 times, rewriting a quadratic total.
        let tap = ResetTap::default();
        let config = WalConfig {
            group_commit: 64,
            checkpoint_every: 8,
        };
        let wal = Wal::with_storage(Box::new(tap.clone()), config);
        let mut per_doubling = Vec::new();
        let mut at_last_doubling = 0;
        for i in 1..=8192u64 {
            let key = format!("fresh/{i}");
            wal.append_stage(stage_record(i, 0, CP | FIN, &key, i as i64))
                .unwrap();
            wal.maybe_checkpoint().unwrap();
            if i >= 256 && i.is_power_of_two() {
                let checkpoints = wal.stats().checkpoints;
                per_doubling.push(checkpoints - at_last_doubling);
                at_last_doubling = checkpoints;
            }
        }
        let stats = wal.stats();
        // Each doubling of the run adds about the same number of
        // checkpoints (the image grows by a constant factor per
        // checkpoint), instead of doubling them.
        let first = per_doubling[1];
        assert!(
            per_doubling[1..].iter().all(|&n| n <= first + 1),
            "checkpoints per doubling must stay flat: {per_doubling:?}"
        );
        assert!(
            stats.checkpoints <= 64,
            "{} checkpoints for 8192 commit points",
            stats.checkpoints
        );
        // The amortization bound: every image byte but the last image's
        // was paid for by a log byte appended since the previous image.
        let last_image = wal.inner.lock().last_checkpoint_len;
        assert!(
            tap.image_bytes() <= stats.bytes_appended + last_image,
            "images {} > appended {} + last image {last_image}",
            tap.image_bytes(),
            stats.bytes_appended
        );
        let r = recover(&tap.mem.all_bytes());
        assert_eq!(r.store.len(), 8192, "every fresh key survives");
    }

    #[test]
    fn checkpoint_after_resume_waits_for_an_image_sized_append() {
        // A recovered store of 256 keys makes the resumed image large.
        let (wal, probe) = Wal::in_memory(WalConfig::group(64));
        for i in 0..256u64 {
            let key = format!("k/{i}");
            wal.append_stage(stage_record(i, 0, CP | FIN, &key, i as i64))
                .unwrap();
        }
        wal.flush().unwrap();
        let config = WalConfig {
            group_commit: 1,
            checkpoint_every: 1,
        };
        for pipelined in [false, true] {
            let r = recover(&probe.durable());
            let resumed_probe = MemStorage::new();
            let storage = Box::new(resumed_probe.clone());
            let resumed = if pipelined {
                Wal::resume_pipelined(storage, config, manual(), r.state, &r.store, None)
            } else {
                Wal::resume(storage, config, r.state, &r.store, None)
            }
            .unwrap();
            let image = resumed_probe.durable().len() as u64;
            assert_eq!(resumed.stats().checkpoints, 1, "the resume image");
            let mut txn = 1000;
            while resumed.stats().bytes_appended < image {
                assert!(
                    !resumed.wants_checkpoint(),
                    "pipelined={pipelined}: fired after {} of {image} bytes",
                    resumed.stats().bytes_appended
                );
                txn += 1;
                resumed
                    .append_stage(stage_record(txn, 0, CP | FIN, "hot", 0))
                    .unwrap();
            }
            assert!(resumed.maybe_checkpoint().unwrap(), "pipelined={pipelined}");
            assert_eq!(resumed.stats().checkpoints, 2);
        }
    }

    #[test]
    fn concurrent_maybe_checkpoint_decides_and_checkpoints_atomically() {
        // One hot key keeps the image tiny, so the floor alone governs:
        // checkpoints can never outnumber commit_points / checkpoint_every.
        let config = WalConfig {
            group_commit: 4,
            checkpoint_every: 3,
        };
        for pipelined in [false, true] {
            let wal = Arc::new(if pipelined {
                Wal::pipelined_in_memory(config, PipelineConfig::default()).0
            } else {
                Wal::in_memory(config).0
            });
            let handles: Vec<_> = (0..4u64)
                .map(|t| {
                    let wal = Arc::clone(&wal);
                    std::thread::spawn(move || {
                        for i in 0..300u64 {
                            let txn = t * 1000 + i;
                            wal.append_stage(stage_record(txn, 0, CP | FIN, "hot", 0))
                                .unwrap();
                            wal.maybe_checkpoint().unwrap();
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let stats = wal.stats();
            assert_eq!(stats.commit_points, 1200);
            assert!(stats.checkpoints > 0, "pipelined={pipelined}");
            assert!(
                stats.checkpoints <= stats.commit_points / config.checkpoint_every,
                "pipelined={pipelined}: {} checkpoints for {} commit points",
                stats.checkpoints,
                stats.commit_points
            );
        }
    }

    fn manual() -> PipelineConfig {
        PipelineConfig {
            coalescer: None,
            manual_flusher: true,
        }
    }

    #[test]
    fn pipelined_manual_boundary_advances_monotonically() {
        let (wal, probe) = Wal::pipelined_in_memory(WalConfig::group(2), manual());
        assert!(wal.is_pipelined());
        let l1 = wal.append_stage(stage_record(1, 0, CP, "a", 1)).unwrap();
        // One commit in a group of two: nothing sealed, nothing durable.
        assert_eq!(wal.last_flushed_lsn(), 0);
        let l2 = wal.append_stage(stage_record(2, 0, CP, "b", 2)).unwrap();
        assert!(l2 > l1, "LSNs are monotone byte offsets");
        assert_eq!(wal.latest_lsn(), l2);
        // The second commit sealed the buffer onto the flusher queue, but
        // no flusher has run: still not durable.
        assert_eq!(wal.last_flushed_lsn(), 0);
        assert_eq!(probe.durable().len(), 0);
        assert!(wal.flusher_step().unwrap(), "one sealed buffer to land");
        assert_eq!(wal.last_flushed_lsn(), l2);
        assert_eq!(probe.durable().len(), l2 as usize);
        assert!(!wal.flusher_step().unwrap(), "queue drained");
        let r = recover(&probe.durable());
        assert!(r.store.contains(&"a".into()));
        assert!(r.store.contains(&"b".into()));
    }

    #[test]
    fn pipelined_flush_lsn_returns_at_boundary_not_tail() {
        let (wal, probe) = Wal::pipelined_in_memory(WalConfig::group(2), manual());
        wal.append_stage(stage_record(1, 0, CP, "a", 1)).unwrap();
        let sealed = wal.append_stage(stage_record(2, 0, CP, "b", 2)).unwrap();
        wal.flusher_step().unwrap();
        let tail = wal.append_stage(stage_record(3, 0, CP, "c", 3)).unwrap();
        // Waiting for an already-durable LSN is a pure boundary check; the
        // newer unsealed commit stays in the loss window.
        wal.flush_lsn(sealed).unwrap();
        assert!(
            !recover(&probe.durable()).store.contains(&"c".into()),
            "flush_lsn(sealed) must not drain the active buffer"
        );
        // Waiting past the boundary seals and (manual mode) pumps inline.
        wal.flush_lsn(tail).unwrap();
        assert_eq!(wal.last_flushed_lsn(), tail);
        assert!(recover(&probe.durable()).store.contains(&"c".into()));
    }

    #[test]
    fn pipelined_publishes_only_after_the_sync() {
        let (wal, probe) = Wal::pipelined_in_memory(WalConfig::group(2), manual());
        let shipper = Arc::new(LogShipper::new());
        wal.attach_shipper(Arc::clone(&shipper));
        wal.append_stage(stage_record(1, 0, CP, "a", 1)).unwrap();
        wal.append_stage(stage_record(2, 0, CP, "b", 2)).unwrap();
        assert_eq!(
            shipper.shipped_len(),
            0,
            "sealed-but-unsynced bytes must not be published"
        );
        wal.flusher_step().unwrap();
        assert_eq!(shipper.image(), probe.durable());
        assert_eq!(shipper.shipped_len(), probe.durable().len());
    }

    #[test]
    fn pipelined_checkpoint_discards_queue_and_restarts_epoch() {
        let (wal, probe) = Wal::pipelined_in_memory(WalConfig::group(2), manual());
        let shipper = Arc::new(LogShipper::new());
        wal.attach_shipper(Arc::clone(&shipper));
        wal.append_stage(stage_record(1, 0, CP | REG, "a", 1))
            .unwrap();
        wal.append_stage(stage_record(1, 1, CP | FIN, "a", 2))
            .unwrap();
        wal.flusher_step().unwrap();
        // Sealed-but-unsynced work racing the checkpoint: its effects ride
        // in the checkpoint image instead of the discarded buffer.
        wal.append_stage(stage_record(2, 0, CP | REG, "b", 9))
            .unwrap();
        wal.append_stage(stage_record(3, 0, CP | REG, "c", 7))
            .unwrap(); // seals
        let tail = wal.latest_lsn();
        wal.checkpoint().unwrap();
        assert_eq!(shipper.epoch(), 1, "checkpoint bumped the shipping epoch");
        assert_eq!(shipper.image(), probe.durable(), "full re-tail");
        assert_eq!(
            wal.last_flushed_lsn(),
            tail,
            "checkpoint jumps the boundary to the tail"
        );
        assert!(
            !wal.flusher_step().unwrap(),
            "the stale sealed buffer was discarded, not flushed"
        );
        let r = recover(&probe.durable());
        assert_eq!(r.store.get(&"a".into()).as_deref(), Some(&Value::Int(2)));
        assert_eq!(r.store.get(&"b".into()).as_deref(), Some(&Value::Int(9)));
        assert_eq!(r.store.get(&"c".into()).as_deref(), Some(&Value::Int(7)));
        // LSNs keep counting across the checkpoint — the space is global.
        let next = wal.append_stage(stage_record(4, 0, CP, "d", 4)).unwrap();
        assert!(next > tail);
    }

    #[test]
    fn pipelined_spawned_flusher_drains_on_flush_and_drop() {
        let (wal, probe) = Wal::pipelined_in_memory(
            WalConfig::group(4),
            PipelineConfig {
                coalescer: None,
                manual_flusher: false,
            },
        );
        for i in 0..32u64 {
            wal.append_stage(stage_record(i, 0, CP, "k", i as i64))
                .unwrap();
        }
        wal.flush().unwrap();
        let stats = wal.stats();
        assert_eq!(stats.commit_points, 32);
        assert!(stats.syncs >= 1, "the flusher thread landed buffers");
        assert!(
            stats.syncs <= 9,
            "at most one sync per seal (8 groups) + the final flush"
        );
        let r = recover(&probe.durable());
        assert_eq!(r.store.get(&"k".into()).as_deref(), Some(&Value::Int(31)));
        drop(wal); // joins the flusher without hanging
    }

    #[test]
    fn pipelined_coalesced_edges_share_device_windows() {
        let coalescer = Arc::new(crate::coalesce::SyncCoalescer::new());
        let wals: Vec<_> = (0..4)
            .map(|_| {
                let (wal, probe) = Wal::pipelined_in_memory(
                    WalConfig::group(1),
                    PipelineConfig {
                        coalescer: Some(Arc::clone(&coalescer)),
                        manual_flusher: false,
                    },
                );
                (Arc::new(wal), probe)
            })
            .collect();
        let mut handles = Vec::new();
        for (edge, (wal, _)) in wals.iter().enumerate() {
            let wal = Arc::clone(wal);
            handles.push(std::thread::spawn(move || {
                for i in 0..16u64 {
                    wal.append_stage(stage_record(i, 0, CP, "k", edge as i64))
                        .unwrap();
                }
                wal.flush().unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = coalescer.stats();
        assert!(stats.requests >= 4, "every edge's flusher used the device");
        assert!(stats.windows <= stats.requests);
        for (wal, probe) in &wals {
            assert_eq!(wal.last_flushed_lsn(), wal.latest_lsn());
            let r = recover(&probe.durable());
            assert!(r.store.contains(&"k".into()));
            assert_eq!(r.frames, 16, "every commit landed durably");
        }
    }

    #[test]
    fn pipelined_tpc_decision_is_durable_at_return() {
        let (wal, probe) = Wal::pipelined_in_memory(WalConfig::group(64), manual());
        wal.append_stage(stage_record(1, 0, CP, "a", 1)).unwrap();
        wal.append_tpc_decision(TxnId(1), true).unwrap();
        // The decision waits on its own LSN boundary: everything up to and
        // including it is durable when the append returns.
        assert_eq!(wal.last_flushed_lsn(), wal.latest_lsn());
        let r = recover(&probe.durable());
        assert!(r.store.contains(&"a".into()));
    }

    #[test]
    fn pipelined_resume_restarts_log_and_epoch() {
        let (wal, probe) = Wal::pipelined_in_memory(WalConfig::group(2), manual());
        wal.append_stage(stage_record(1, 0, CP | REG, "a", 1))
            .unwrap();
        wal.flush().unwrap();
        let r = recover(&probe.durable());
        assert_eq!(r.unfinalized, vec![TxnId(1)]);

        let shipper = Arc::new(LogShipper::new());
        let probe2 = MemStorage::new();
        let resumed = Wal::resume_pipelined(
            Box::new(probe2.clone()),
            WalConfig::group(2),
            manual(),
            r.state,
            &r.store,
            Some(Arc::clone(&shipper)),
        )
        .unwrap();
        assert!(resumed.is_pipelined());
        assert_eq!(shipper.image(), probe2.durable());
        assert_eq!(shipper.epoch(), 1, "resume = epoch restart for shippers");
        resumed
            .append_stage(stage_record(1, 1, CP | FIN, "a", 2))
            .unwrap();
        resumed.flush().unwrap();
        let r2 = recover(&probe2.durable());
        assert_eq!(r2.store.get(&"a".into()).as_deref(), Some(&Value::Int(2)));
        assert!(r2.unfinalized.is_empty());
        assert_eq!(shipper.image(), probe2.durable());
    }
}
