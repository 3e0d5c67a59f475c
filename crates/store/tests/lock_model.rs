//! Model test for the lock manager's owner sets: random sequences of
//! batched acquires (including upgrades and failing batches), single and
//! batched releases run against a plain `BTreeMap` reference model. After
//! every operation the grant/deny decision, every `(txn, key)` held mode
//! and `locked_keys` must match the model, so a failed `acquire_all` must
//! roll back to exactly the pre-call state.
//!
//! Everything runs on one thread with a zero timeout: a request the policy
//! would park (Block, or wait-die's older-waits-for-younger case) returns
//! `Timeout` instead, and the model predicts that too.

use std::collections::BTreeMap;
use std::time::Duration;

use proptest::prelude::*;

use croesus_store::{Key, LockError, LockManager, LockMode, LockPolicy, TxnId};

const KEYS: u64 = 6;
const TXNS: u64 = 4;

#[derive(Clone, Debug)]
enum Op {
    /// `acquire_all` over distinct keys (single-key sets take the
    /// `acquire` path inside the manager).
    AcquireAll(u64, Vec<(u64, LockMode)>),
    /// `acquire` of one key.
    Acquire(u64, u64, LockMode),
    ReleaseAll(u64, Vec<u64>),
    Release(u64, u64),
}

fn key(i: u64) -> Key {
    Key::indexed("model", i)
}

fn arb_mode() -> impl Strategy<Value = LockMode> {
    prop::bool::ANY.prop_map(|x| {
        if x {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        }
    })
}

fn arb_op() -> impl Strategy<Value = Op> {
    (
        0u8..5,
        1..=TXNS,
        prop::collection::vec((0..KEYS, arb_mode()), 1..5),
    )
        .prop_map(|(kind, txn, mut pairs)| match kind {
            0 | 1 => {
                // Distinct keys, strongest mode wins — like RwSet::lock_pairs.
                pairs.sort_by_key(|p| (p.0, p.1 == LockMode::Shared));
                pairs.dedup_by_key(|p| p.0);
                Op::AcquireAll(txn, pairs)
            }
            2 => Op::Acquire(txn, pairs[0].0, pairs[0].1),
            3 => Op::ReleaseAll(txn, pairs.iter().map(|p| p.0).collect()),
            _ => Op::Release(txn, pairs[0].0),
        })
}

/// The reference: key → (txn → mode), no sharding, no inline tricks.
#[derive(Clone, Default)]
struct Model {
    table: BTreeMap<u64, BTreeMap<u64, LockMode>>,
}

impl Model {
    /// Why `txn` cannot take `mode` on `k` under `policy`, or `None` if it
    /// can.
    fn conflict(&self, policy: LockPolicy, txn: u64, k: u64, mode: LockMode) -> Option<LockError> {
        let owners = self.table.get(&k)?;
        let grantable = owners
            .iter()
            .all(|(&o, &m)| o == txn || (mode == LockMode::Shared && m == LockMode::Shared));
        if grantable {
            return None;
        }
        Some(match policy {
            LockPolicy::NoWait => LockError::WouldBlock,
            LockPolicy::WaitDie if owners.keys().any(|&o| o < txn) => LockError::Die,
            LockPolicy::WaitDie | LockPolicy::Block => LockError::Timeout,
        })
    }

    /// Acquire `pairs` in the given order; on the first conflict restore
    /// the whole table and report every error the conflicting keys could
    /// produce (the first one is the error for this order).
    fn acquire(
        &mut self,
        policy: LockPolicy,
        txn: u64,
        pairs: &[(u64, LockMode)],
    ) -> Result<(), Vec<LockError>> {
        let errors: Vec<LockError> = pairs
            .iter()
            .filter_map(|&(k, m)| self.conflict(policy, txn, k, m))
            .collect();
        if !errors.is_empty() {
            return Err(errors);
        }
        for &(k, m) in pairs {
            let held = self.table.entry(k).or_default().entry(txn).or_insert(m);
            if m == LockMode::Exclusive {
                *held = LockMode::Exclusive;
            }
        }
        Ok(())
    }

    fn release(&mut self, txn: u64, k: u64) {
        if let Some(owners) = self.table.get_mut(&k) {
            owners.remove(&txn);
            if owners.is_empty() {
                self.table.remove(&k);
            }
        }
    }

    fn held_mode(&self, txn: u64, k: u64) -> Option<LockMode> {
        self.table.get(&k)?.get(&txn).copied()
    }
}

/// What a sequence exercised, so the sweep can prove it reached the cases
/// that matter.
#[derive(Default)]
struct Coverage {
    upgrades: usize,
    failed_batches_with_preheld: usize,
    shared_pile_ups: usize,
}

/// Run `ops` against a manager with `shards` shards and the model. With
/// one shard the manager walks keys in key order, so its error must be
/// the model's first; with more, shard order decides which conflict is
/// hit first and the error must be one of the model's.
fn check(policy: LockPolicy, shards: usize, ops: &[Op], cov: &mut Coverage) {
    let lm = LockManager::with_shards(policy, shards);
    let mut model = Model::default();
    let zero = Some(Duration::ZERO);
    for (step, op) in ops.iter().enumerate() {
        let before = model.clone();
        let (got, want) = match op {
            Op::AcquireAll(txn, pairs) => {
                let keyed: Vec<(Key, LockMode)> = pairs.iter().map(|&(k, m)| (key(k), m)).collect();
                let got = lm.acquire_all(TxnId(*txn), &keyed, zero);
                let want = model.acquire(policy, *txn, pairs);
                if want.is_err()
                    && pairs
                        .iter()
                        .any(|&(k, _)| before.held_mode(*txn, k).is_some())
                {
                    cov.failed_batches_with_preheld += 1;
                }
                (Some(got), Some(want))
            }
            Op::Acquire(txn, k, mode) => {
                let got = lm.acquire(TxnId(*txn), &key(*k), *mode, zero);
                let want = model.acquire(policy, *txn, &[(*k, *mode)]);
                if want.is_ok()
                    && *mode == LockMode::Exclusive
                    && before.held_mode(*txn, *k) == Some(LockMode::Shared)
                {
                    cov.upgrades += 1;
                }
                (Some(got), Some(want))
            }
            Op::ReleaseAll(txn, ks) => {
                let keyed: Vec<Key> = ks.iter().map(|&k| key(k)).collect();
                lm.release_all(TxnId(*txn), keyed.iter());
                for &k in ks {
                    model.release(*txn, k);
                }
                (None, None)
            }
            Op::Release(txn, k) => {
                lm.release(TxnId(*txn), &key(*k));
                model.release(*txn, *k);
                (None, None)
            }
        };
        if let (Some(got), Some(want)) = (got, want) {
            match (&got, &want) {
                (Ok(()), Ok(())) => {}
                (Err(e), Err(allowed)) if shards == 1 => {
                    assert_eq!(*e, allowed[0], "step {step} {op:?}: wrong error")
                }
                (Err(e), Err(allowed)) => {
                    assert!(
                        allowed.contains(e),
                        "step {step} {op:?}: {e:?} not in {allowed:?}"
                    )
                }
                _ => panic!("step {step} {op:?}: manager {got:?}, model {want:?}"),
            }
        }
        for k in 0..KEYS {
            for txn in 1..=TXNS {
                assert_eq!(
                    lm.held_mode(TxnId(txn), &key(k)),
                    model.held_mode(txn, k),
                    "step {step} {op:?}: held_mode(t{txn}, key {k})"
                );
            }
        }
        assert_eq!(
            lm.locked_keys(),
            model.table.len(),
            "step {step} {op:?}: locked_keys"
        );
        cov.shared_pile_ups += model.table.values().filter(|o| o.len() > 2).count();
    }
}

fn check_all_configs(ops: &[Op], cov: &mut Coverage) {
    for policy in [LockPolicy::NoWait, LockPolicy::WaitDie, LockPolicy::Block] {
        for shards in [1, 4] {
            check(policy, shards, ops, cov);
        }
    }
}

proptest! {
    #[test]
    fn lock_manager_matches_btreemap_model(ops in prop::collection::vec(arb_op(), 1..60)) {
        check_all_configs(&ops, &mut Coverage::default());
    }
}

/// A fixed sweep over the same generator that also proves the sequences
/// reach upgrades, failed batches over pre-held locks, and keys with three
/// or more shared holders (several spilled holders to remove in any order).
#[test]
fn model_sweep_reaches_upgrades_rollbacks_and_spills() {
    let mut rng = proptest::test_runner::TestRng::new(0x10c4);
    let mut cov = Coverage::default();
    let ops = prop::collection::vec(arb_op(), 40..80);
    for _ in 0..32 {
        check_all_configs(&ops.new_value(&mut rng), &mut cov);
    }
    assert!(cov.upgrades > 0, "no upgrade exercised");
    assert!(
        cov.failed_batches_with_preheld > 0,
        "no rollback over pre-held locks"
    );
    assert!(cov.shared_pile_ups > 0, "no key with three shared holders");
}
