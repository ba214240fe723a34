//! Differential-determinism harness for the DES engines.
//!
//! The contract under test: the number of worker threads is a
//! *performance* knob — it may not change a single observable byte.
//! Two layers of evidence:
//!
//! 1. **Engine × threads** (in-process): the synthetic `ShardedEngine`
//!    workload must produce the same [`EngineReport`] — events handled,
//!    makespan, digest — monolithic vs sharded at 1/2/4/8 threads.
//! 2. **Scenario × FDW_THREADS** (subprocess): the vendored Rayon shim
//!    reads `FDW_THREADS` once per process, so the thread-count axis is
//!    driven by re-spawning this test binary with the env var set to
//!    1/2/8 and comparing the digest lines the worker prints for every
//!    golden scenario from [`htcsim::scenarios`] (whose ULOG bytes
//!    `tests/golden_ulog.rs` pins against the committed fixtures).

use std::collections::BTreeMap;
use std::process::Command;

use fdw_obs::Obs;
use htcsim::condor_log::to_condor_log;
use htcsim::des::{synth_engine, SynthConfig};
use htcsim::scenarios;

/// A scenario builder from [`htcsim::scenarios`]: telemetry in, run
/// report out.
type Scenario = fn(Obs) -> htcsim::cluster::RunReport;

/// The golden scenarios, paired with their committed fixtures.
const SCENARIOS: [(&str, Scenario); 5] = [
    ("faulty_run", scenarios::faulty_run),
    ("holdback_run", scenarios::holdback_run),
    ("defended_run", scenarios::defended_run),
    ("failover_run", scenarios::failover_run),
    ("migration_run", scenarios::migration_run),
];

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn engine_reports_are_invariant_to_thread_count() {
    let cfg = SynthConfig::smoke();
    let baseline = synth_engine(&cfg).run_monolithic();
    assert!(baseline.events > 0, "synthetic workload ran no events");
    for threads in [1usize, 2, 4, 8] {
        let got = synth_engine(&cfg).run_sharded(threads);
        assert_eq!(
            got, baseline,
            "sharded engine at {threads} thread(s) deviates from the monolithic baseline"
        );
    }
}

/// Worker half of the subprocess axis: when `DES_DIFF_ROLE=worker`, run
/// every scenario plus the synthetic engine sized from the live Rayon pool — the thing
/// `FDW_THREADS` actually steers — and print one digest line per probe.
/// A plain `cargo test` run (no env var) makes this a no-op.
#[test]
fn fdw_threads_worker() {
    if std::env::var("DES_DIFF_ROLE").as_deref() != Ok("worker") {
        return;
    }
    for (name, build) in SCENARIOS {
        let obs = Obs::enabled();
        let report = build(obs.clone());
        println!(
            "DESDIFF ulog.{name} {:#018x}",
            fnv64(to_condor_log(&report.log).as_bytes())
        );
        println!(
            "DESDIFF metrics.{name} {:#018x}",
            fnv64(obs.registry_json().as_bytes())
        );
    }
    let threads = rayon::current_num_threads().max(1);
    let rep = synth_engine(&SynthConfig::smoke()).run_sharded(threads);
    println!(
        "DESDIFF engine.smoke {:#018x} events={} makespan={}",
        rep.digest, rep.events, rep.makespan.0
    );
}

/// Driver half: spawn `fdw_threads_worker` at FDW_THREADS ∈ {1, 2, 8}
/// and require every digest line to be identical across thread counts.
#[test]
fn scenario_digests_are_invariant_to_fdw_threads() {
    let exe = std::env::current_exe().expect("current_exe");
    let mut per_thread: Vec<(u32, BTreeMap<String, String>)> = Vec::new();
    for n in [1u32, 2, 8] {
        let out = Command::new(&exe)
            .args(["fdw_threads_worker", "--exact", "--nocapture"])
            .env("DES_DIFF_ROLE", "worker")
            .env("FDW_THREADS", n.to_string())
            .env("RAYON_NUM_THREADS", n.to_string())
            .output()
            .expect("spawning worker");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success(),
            "worker at FDW_THREADS={n} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        // libtest glues its "test <name> ..." banner onto the first
        // probe line, so split on the marker anywhere in the line.
        let digests: BTreeMap<String, String> = stdout
            .lines()
            .filter_map(|l| l.split_once("DESDIFF ").map(|(_, rest)| rest))
            .filter_map(|l| {
                l.split_once(' ')
                    .map(|(k, v)| (k.to_string(), v.to_string()))
            })
            .collect();
        assert_eq!(
            digests.len(),
            SCENARIOS.len() * 2 + 1,
            "worker at FDW_THREADS={n} printed {} probes, want {}:\n{stdout}",
            digests.len(),
            SCENARIOS.len() * 2 + 1
        );
        per_thread.push((n, digests));
    }
    let (_, baseline) = &per_thread[0];
    for (n, digests) in &per_thread[1..] {
        for (probe, want) in baseline {
            assert_eq!(
                digests.get(probe),
                Some(want),
                "probe {probe} differs between FDW_THREADS=1 and FDW_THREADS={n}"
            );
        }
    }
}
