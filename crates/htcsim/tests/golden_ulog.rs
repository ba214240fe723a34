//! Golden-file tests of the HTCondor ULOG text dialect.
//!
//! The paper's monitoring is shell scripts grepping HTCondor logs, so the
//! exact bytes of the rendered log are a contract: these tests pin the
//! `000`/`001`/`004`/`005`/`009`/`012`/`013` formatting — including hold
//! reasons and return values — against fixtures under `tests/fixtures/`.
//! The scenarios themselves live in [`htcsim::scenarios`], shared with
//! the differential-determinism harness (`tests/des_differential.rs`)
//! that re-runs them at several `FDW_THREADS` counts.
//!
//! To regenerate after an intentional format change:
//! `GOLDEN_REGEN=1 cargo test -p htcsim --test golden_ulog` (then review
//! the fixture diff like any other code change).

use fdw_obs::Obs;
use htcsim::condor_log::{parse_condor_log, to_condor_log};
use htcsim::fault::HoldReason;
use htcsim::job::{JobEvent, JobEventKind, JobId, OwnerId};
use htcsim::scenarios;
use htcsim::time::SimTime;
use htcsim::userlog::UserLog;

fn fixture_path(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Compare rendered text against a fixture byte-for-byte, regenerating
/// the fixture instead when `GOLDEN_REGEN` is set.
fn assert_golden(got: &str, name: &str) {
    let path = fixture_path(name);
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {path}: {e} (run with GOLDEN_REGEN=1)"));
    assert_eq!(
        got, want,
        "rendered ULOG deviates from {name}; if intentional, regenerate with GOLDEN_REGEN=1"
    );
}

/// A hand-built log covering every loggable event code, all four hold
/// reasons, and success/failure return values (0, 2, 137).
fn synthetic_log() -> UserLog {
    let ev = |t: u64, j: u64, o: u32, kind| JobEvent::new(SimTime(t), JobId(j), OwnerId(o), kind);
    let mut log = UserLog::new();
    // Job 1: evicted once, retried, completes on day 2.
    log.record(ev(0, 1, 0, JobEventKind::Submitted));
    log.record(ev(30, 1, 0, JobEventKind::Matched)); // no ULOG representation
    log.record(ev(95, 1, 0, JobEventKind::ExecuteStarted));
    log.record(ev(200, 1, 0, JobEventKind::Evicted));
    log.record(ev(400, 1, 0, JobEventKind::ExecuteStarted));
    log.record(ev(90_061, 1, 0, JobEventKind::Completed).with_exit(0));
    // Job 2 (owner 3): both transfer hold reasons, then a real failure.
    log.record(ev(10, 2, 3, JobEventKind::Submitted));
    log.record(ev(120, 2, 3, JobEventKind::Held).with_hold(HoldReason::TransferInputError));
    log.record(ev(240, 2, 3, JobEventKind::Released));
    log.record(ev(300, 2, 3, JobEventKind::Held).with_hold(HoldReason::TransferOutputError));
    log.record(ev(360, 2, 3, JobEventKind::Released));
    log.record(ev(400, 2, 3, JobEventKind::ExecuteStarted));
    log.record(ev(460, 2, 3, JobEventKind::Failed).with_exit(2));
    // Job 3: walltime hold, then removed (the Timeout fault's pair).
    log.record(ev(20, 3, 0, JobEventKind::Submitted));
    log.record(ev(600, 3, 0, JobEventKind::Held).with_hold(HoldReason::WallTimeExceeded));
    log.record(ev(660, 3, 0, JobEventKind::Removed));
    // Job 4 (owner 1): policy hold, released, killed with a signal code.
    log.record(ev(30, 4, 1, JobEventKind::Submitted));
    log.record(ev(700, 4, 1, JobEventKind::Held).with_hold(HoldReason::PolicyHold));
    log.record(ev(760, 4, 1, JobEventKind::Released));
    log.record(ev(800, 4, 1, JobEventKind::ExecuteStarted));
    log.record(ev(860, 4, 1, JobEventKind::Failed).with_exit(137));
    // Job 5: checksum hold (quarantined corrupt transfer), re-fetched and
    // released, then condor_rm'd mid-execution (a speculative race loser).
    log.record(ev(40, 5, 0, JobEventKind::Submitted));
    log.record(ev(900, 5, 0, JobEventKind::Held).with_hold(HoldReason::ChecksumMismatch));
    log.record(ev(930, 5, 0, JobEventKind::Released));
    log.record(ev(960, 5, 0, JobEventKind::ExecuteStarted));
    log.record(ev(1020, 5, 0, JobEventKind::Removed));
    log
}

#[test]
fn synthetic_log_matches_golden_fixture() {
    let text = to_condor_log(&synthetic_log());
    assert_golden(&text, "events.log");
}

#[test]
fn synthetic_fixture_spot_checks() {
    // Independent of the golden comparison, pin the load-bearing lines so
    // a bad regeneration cannot silently bless a format break.
    let text = to_condor_log(&synthetic_log());
    for want in [
        "000 (001.000.000) 01/01 00:00:00 Job submitted from host: <sim>",
        "001 (001.000.000) 01/01 00:01:35 Job executing on host: <ospool>",
        "004 (001.000.000) 01/01 00:03:20 Job was evicted.",
        "005 (001.000.000) 01/02 01:01:01 Job terminated (return value 0).",
        "012 (002.003.000) 01/01 00:02:00 Job was held. Reason: Transfer input files failure",
        "012 (002.003.000) 01/01 00:05:00 Job was held. Reason: Transfer output files failure",
        "013 (002.003.000) 01/01 00:04:00 Job was released.",
        "005 (002.003.000) 01/01 00:07:40 Job terminated (return value 2).",
        "012 (003.000.000) 01/01 00:10:00 Job was held. Reason: Job exceeded allowed walltime",
        "009 (003.000.000) 01/01 00:11:00 Job was aborted by the user.",
        "012 (004.001.000) 01/01 00:11:40 Job was held. Reason: Policy hold",
        "005 (004.001.000) 01/01 00:14:20 Job terminated (return value 137).",
        "012 (005.000.000) 01/01 00:15:00 Job was held. Reason: Transfer checksum validation failed",
        "013 (005.000.000) 01/01 00:15:30 Job was released.",
        "009 (005.000.000) 01/01 00:17:00 Job was aborted by the user.",
    ] {
        assert!(text.contains(want), "missing line: {want}\n---\n{text}");
    }
    // Every event line is followed by the canonical separator, and the
    // Matched event never surfaces.
    assert_eq!(text.matches("\n...\n").count(), 25);
    assert!(!text.contains("Matched"));
}

#[test]
fn synthetic_fixture_parses_back_losslessly() {
    let original = synthetic_log();
    let parsed = parse_condor_log(&to_condor_log(&original)).unwrap();
    let loggable: Vec<&JobEvent> = original
        .events()
        .iter()
        .filter(|e| e.kind != JobEventKind::Matched)
        .collect();
    assert_eq!(parsed.len(), loggable.len());
    for (a, b) in parsed.events().iter().zip(loggable) {
        assert_eq!(a, b);
    }
}

#[test]
fn holdback_negotiation_is_byte_identical_and_matches_golden() {
    // Byte-identity: two runs with the same seed must render the same
    // ULOG text and the same metrics-registry JSON, and both must match
    // the committed fixture — proving the BTreeMap hold-back buffer
    // changed nothing observable while removing hasher-order dependence.
    let obs_a = Obs::enabled();
    let obs_b = Obs::enabled();
    let a = scenarios::holdback_run(obs_a.clone());
    let b = scenarios::holdback_run(obs_b.clone());
    let text_a = to_condor_log(&a.log);
    let text_b = to_condor_log(&b.log);
    assert_eq!(text_a, text_b, "ULOG bytes differ across identical runs");
    assert_eq!(
        obs_a.registry_json(),
        obs_b.registry_json(),
        "metrics JSON differs across identical runs"
    );
    assert_golden(&text_a, "holdback_run.log");
    assert_eq!(a.completed, 18);
    // The scenario really exercises the hold-back path: with 9 big jobs
    // and only half the slots big-capable, some negotiation cycle must
    // have deferred at least one job past an incompatible slot.
    assert!(
        obs_a.counter("pool.holdbacks") > 0,
        "workload never exercised the hold-back buffer; fixture is weak"
    );
}

#[test]
fn defended_run_matches_golden_fixture() {
    let a = scenarios::defended_run(Obs::disabled());
    let text = to_condor_log(&a.log);
    // Byte-determinism first: the defenses add scoreboard state to the
    // negotiation path, and none of it may depend on hasher order.
    let b = scenarios::defended_run(Obs::disabled());
    assert_eq!(
        text,
        to_condor_log(&b.log),
        "defended run is not byte-deterministic"
    );
    assert_golden(&text, "defended_run.log");
    assert_eq!(a.completed, 10, "every job must survive the campaign");
    assert!(
        a.defense.quarantines > 0,
        "corruption at p=0.5 must trip the checksum defense"
    );
    assert!(
        a.defense.blacklists > 0,
        "black holes at 0.3 must trip the scoreboard"
    );
    assert!(text.contains("Job was held. Reason: Transfer checksum validation failed"));
    let parsed = parse_condor_log(&text).unwrap();
    assert_eq!(parsed.completed_count(), a.log.completed_count());
    assert_eq!(parsed.goodput_badput(), a.log.goodput_badput());
}

#[test]
fn failover_run_matches_golden_fixture() {
    let a = scenarios::failover_run(Obs::disabled());
    let text = to_condor_log(&a.log);
    // Byte-determinism first: breaker state, drain queues and checkpoint
    // bookkeeping all feed the emission order, and none of it may depend
    // on hasher order.
    let b = scenarios::failover_run(Obs::disabled());
    assert_eq!(
        text,
        to_condor_log(&b.log),
        "failover run is not byte-deterministic"
    );
    assert_golden(&text, "failover_run.log");
    assert_eq!(a.completed, 40, "every job must survive the fault menu");
    // Each federated-layer code must actually appear, and each as often
    // as the federation counters claim — the fixture covers the dialect.
    let count =
        |kind: JobEventKind| a.log.events().iter().filter(|e| e.kind == kind).count() as u64;
    let outage_displacements = count(JobEventKind::PoolOutage);
    assert!(
        outage_displacements > 0,
        "022 never emitted; fixture is weak"
    );
    assert!(text.contains("022 "), "pool-outage lines missing");
    assert_eq!(
        count(JobEventKind::PartitionStalled),
        a.federation.partition_stalls
    );
    assert!(
        a.federation.partition_stalls > 0,
        "023 never emitted; fixture is weak"
    );
    assert!(text.contains("023 "), "partition-stall lines missing");
    assert_eq!(count(JobEventKind::Preempted), a.federation.preemptions);
    assert!(
        a.federation.preemptions > 0,
        "026 never emitted; fixture is weak"
    );
    assert!(text.contains("026 "), "preemption lines missing");
    assert_eq!(count(JobEventKind::Migrated), a.federation.migrations);
    assert!(
        a.federation.migrations > 0,
        "030 never emitted; fixture is weak"
    );
    assert!(
        text.contains("Job migrated to pool "),
        "migration lines missing"
    );
    // Spot kills and outage displacements are pool faults, not glidein
    // evictions — the 004 path must stay clean.
    assert_eq!(a.evictions, 0);
    // The text round-trips to the same statistics the simulator reported.
    let parsed = parse_condor_log(&text).unwrap();
    assert_eq!(parsed.completed_count(), a.log.completed_count());
    assert_eq!(parsed.makespan(), a.log.makespan());
    assert_eq!(parsed.goodput_badput(), a.log.goodput_badput());
}

#[test]
fn simulated_faulty_run_matches_golden_fixture() {
    // Pins the cluster's actual emission order and content, not just the
    // formatter: same seed, same faults, same bytes.
    let log = scenarios::faulty_run(Obs::disabled()).log;
    let text = to_condor_log(&log);
    assert_golden(&text, "faulty_run.log");
    // The run must actually exercise the hold/release machinery, and the
    // text must round-trip to the same statistics the simulator reported.
    let holds: u32 = log.job_times().iter().map(|jt| jt.holds).sum();
    assert!(holds > 0, "fault plan produced no holds; fixture is weak");
    assert!(text.contains("Job was held. Reason: "));
    assert!(text.contains("013 "), "held jobs must be released");
    let parsed = parse_condor_log(&text).unwrap();
    assert_eq!(parsed.completed_count(), log.completed_count());
    assert_eq!(parsed.makespan(), log.makespan());
    assert_eq!(parsed.goodput_badput(), log.goodput_badput());
}

#[test]
fn migration_run_matches_golden_fixture() {
    let a = scenarios::migration_run(Obs::disabled());
    let text = to_condor_log(&a.log);
    assert_golden(&text, "migration_run.log");
    assert_eq!(a.completed, 12, "every job must survive the outage");
    // The scenario's point: the outage displaces jobs out of pool 1 and
    // their re-matches land in another pool — a different lane —
    // emitting ULOG 030 lines.
    assert!(
        a.federation.migrations > 0,
        "030 never crossed a lane boundary; fixture is weak"
    );
    assert!(
        text.contains("Job migrated to pool "),
        "migration lines missing"
    );
    // Lossless parse-back, per the golden_ulog pattern.
    let parsed = parse_condor_log(&text).unwrap();
    assert_eq!(parsed.completed_count(), a.log.completed_count());
    assert_eq!(parsed.makespan(), a.log.makespan());
    assert_eq!(parsed.goodput_badput(), a.log.goodput_badput());
}
