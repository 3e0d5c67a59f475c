//! WAL microbenchmarks: record append throughput, the group-commit sync
//! amortization, checkpointing, recovery replay speed, and CRC-32
//! throughput.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use croesus_store::{Key, TxnId, Value};
use croesus_wal::{
    crc32, recover, scratch_dir, StageFlags, StageRecord, Wal, WalConfig, WriteImage,
};

fn stage_record(txn: u64, final_stage: bool) -> StageRecord {
    let flags = if final_stage {
        StageFlags::COMMIT_POINT | StageFlags::FINAL
    } else {
        StageFlags::COMMIT_POINT | StageFlags::REGISTER
    };
    StageRecord {
        txn: TxnId(txn),
        stage: u32::from(final_stage),
        total: 2,
        flags: StageFlags(flags),
        reads: vec![Key::indexed("r", txn % 64)],
        writes: vec![Key::indexed("w", txn % 64)],
        images: vec![
            WriteImage {
                key: Key::indexed("w", txn % 64),
                pre: Some(Arc::new(Value::Int(txn as i64))),
                post: Some(Arc::new(Value::Int(txn as i64 + 1))),
            },
            WriteImage {
                key: Key::indexed("w2", txn % 64),
                pre: None,
                post: Some(Arc::new(Value::Str("payload-string".into()))),
            },
        ],
    }
}

fn append_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("wal");
    g.measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));

    // Pure append path: no sync ever (buffered mode) — the cost of
    // encode + CRC + shadow-state bookkeeping.
    let (wal, _probe) = Wal::in_memory(WalConfig {
        group_commit: usize::MAX,
        checkpoint_every: 0,
    });
    let mut txn = 0u64;
    g.bench_function("append_stage_mem", |b| {
        b.iter(|| {
            txn += 1;
            wal.append_stage(black_box(stage_record(txn, false)))
                .unwrap();
        })
    });

    // Group commit against memory: sync every 8 commit points.
    let (wal8, _probe8) = Wal::in_memory(WalConfig {
        group_commit: 8,
        checkpoint_every: 0,
    });
    let mut t8 = 0u64;
    g.bench_function("append_commit_group8_mem", |b| {
        b.iter(|| {
            t8 += 1;
            wal8.append_stage(black_box(stage_record(t8, false)))
                .unwrap();
        })
    });
    g.finish();
}

fn file_commit(c: &mut Criterion) {
    let mut g = c.benchmark_group("wal_file");
    // fsync-bound: keep the window small so CI smoke stays fast.
    g.measurement_time(Duration::from_millis(800))
        .warm_up_time(Duration::from_millis(100));

    let dir = scratch_dir("bench-file-commit");
    for group in [1usize, 8, 64] {
        let wal = Wal::create(
            dir.join(format!("group-{group}.wal")),
            WalConfig {
                group_commit: group,
                checkpoint_every: 0,
            },
        )
        .unwrap();
        let mut txn = 0u64;
        g.bench_function(format!("commit_file_group{group}"), |b| {
            b.iter(|| {
                txn += 1;
                wal.append_stage(black_box(stage_record(txn, false)))
                    .unwrap();
            })
        });
    }
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn recovery_replay(c: &mut Criterion) {
    let mut g = c.benchmark_group("wal_recover");
    g.measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));

    // A log of 1000 two-stage transactions.
    let (wal, probe) = Wal::in_memory(WalConfig {
        group_commit: usize::MAX,
        checkpoint_every: 0,
    });
    for txn in 0..1_000u64 {
        wal.append_stage(stage_record(txn, false)).unwrap();
        wal.append_stage(stage_record(txn, true)).unwrap();
    }
    wal.flush().unwrap();
    let bytes = probe.durable();
    g.bench_function("replay_1000_txns", |b| {
        b.iter(|| black_box(recover(&bytes)).frames)
    });

    // Checkpointed log: replay is one snapshot record.
    let (wal_cp, probe_cp) = Wal::in_memory(WalConfig {
        group_commit: usize::MAX,
        checkpoint_every: 0,
    });
    for txn in 0..1_000u64 {
        wal_cp.append_stage(stage_record(txn, false)).unwrap();
        wal_cp.append_stage(stage_record(txn, true)).unwrap();
    }
    wal_cp.checkpoint().unwrap();
    let cp_bytes = probe_cp.durable();
    g.bench_function("replay_after_checkpoint", |b| {
        b.iter(|| black_box(recover(&cp_bytes)).frames)
    });
    g.finish();
}

fn crc(c: &mut Criterion) {
    let mut g = c.benchmark_group("wal_crc");
    g.measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));
    // Every appended frame and every checkpoint image is checksummed;
    // 64 KiB sits between a group-commit batch and a small image.
    let buf: Vec<u8> = (0..64 * 1024u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    g.bench_function("crc32_64k", |b| b.iter(|| crc32(black_box(&buf))));
    g.finish();
}

criterion_group!(benches, append_ops, file_commit, recovery_replay, crc);
criterion_main!(benches);
