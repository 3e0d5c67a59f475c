//! The traced run must measure the same program `Deployment::run` runs.

use croesus_perfbench::traced::{traced_run, Trace};
use croesus_perfbench::workload::{LogDir, Outputs, Workload};

const SEED: u64 = 7;
/// Long enough for the durable workload to take several checkpoints.
const FRAMES: u64 = 150;

fn layer(trace: &Trace, name: &str) -> f64 {
    trace
        .layers
        .iter()
        .find(|(n, _, _)| *n == name)
        .unwrap_or_else(|| panic!("no layer metric {name}"))
        .1
}

#[test]
fn traced_run_reproduces_deployment_run_on_every_workload() {
    for w in Workload::ALL {
        let run_dir = LogDir::fresh(w).unwrap();
        let ran = w.deployment(SEED, FRAMES, Some(run_dir.path())).run();
        let trace_dir = LogDir::fresh(w).unwrap();
        let trace = traced_run(&w.deployment(SEED, FRAMES, Some(trace_dir.path())))
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert_eq!(
            Outputs::of(&trace.metrics),
            Outputs::of(&ran),
            "{}",
            w.name()
        );
        let reference = w.reference(SEED, FRAMES).run();
        assert_eq!(Outputs::of(&ran), Outputs::of(&reference), "{}", w.name());
        assert!(layer(&trace, "trace.coverage") > 0.5, "{}", w.name());
        assert_eq!(layer(&trace, "edge.initial.calls"), FRAMES as f64);
    }
}

#[test]
fn only_durable_workloads_touch_the_wal() {
    let w = Workload::StreetMsiaMem;
    let trace = traced_run(&w.deployment(SEED, FRAMES, None)).unwrap();
    for (name, value, _) in &trace.layers {
        if name.starts_with("wal.") {
            assert_eq!(*value, 0.0, "{name}");
        }
    }
    assert_eq!(layer(&trace, "txn.aborts"), 0.0);

    let w = Workload::StreetMsiaDurable;
    let dir = LogDir::fresh(w).unwrap();
    let trace = traced_run(&w.deployment(SEED, FRAMES, Some(dir.path()))).unwrap();
    assert!(layer(&trace, "wal.checkpoints") > 0.0);
    assert!(layer(&trace, "wal.write_amp") > 1.0);
}

#[test]
fn timing_storage_writes_the_log_deployment_run_writes() {
    let w = Workload::StreetMsiaDurable;
    let run_dir = LogDir::fresh(w).unwrap();
    w.deployment(SEED, FRAMES, Some(run_dir.path())).run();
    let trace_dir = LogDir::fresh(w).unwrap();
    let trace = traced_run(&w.deployment(SEED, FRAMES, Some(trace_dir.path()))).unwrap();
    assert!(layer(&trace, "wal.checkpoints") > 0.0);

    let ran = std::fs::read(run_dir.path().join("edge-0.wal")).unwrap();
    let traced = std::fs::read(trace_dir.path().join("edge-0.wal")).unwrap();
    assert!(!ran.is_empty());
    assert!(ran == traced, "the logs differ");
}
