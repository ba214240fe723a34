//! `osg_campaign`: the sim path behind every paper figure. One simulated
//! campaign of 24,960 waveforms (§6) split across 4 concurrent DAGMans
//! (Fig. 3): DAG build, the discrete-event pool with its DAGMans,
//! monitor statistics, `.dag.metrics` and the rendered ULOG. It runs no
//! fakequakes numerics and is single-threaded.

use std::time::Instant;

use dagman::driver::MultiDagman;
use dagman::monitor::{dag_metrics, per_dagman_stats};
use fakequakes::stations::ChileanInput;
use fdw_core::prelude::*;
use htcsim::cluster::{Cluster, ClusterConfig, WorkloadDriver};
use htcsim::condor_log::{parse_condor_log, to_condor_log};
use htcsim::job::{JobEvent, JobId, SubmitRequest};
use htcsim::time::SimTime;

use crate::runner::{item_seed, Corrupt, Workload};
use crate::trace::Tracer;

const WAVEFORMS: u64 = 24_960;
const DAGMANS: usize = 4;

pub struct OsgCampaign {
    seed: u64,
    base: FdwConfig,
    cluster: ClusterConfig,
}

pub struct OsgOut {
    timed_out: bool,
    completed: usize,
    dag_nodes: usize,
    /// Rendered `.dag.metrics` documents, one per DAGMan.
    metrics: Vec<String>,
    /// The campaign's user log in ULOG text.
    ulog: String,
}

/// A [`MultiDagman`] whose driver calls are timed, so the cluster's own
/// time is `Cluster::run` minus the DAGMans'.
struct TimedDriver<'a> {
    inner: &'a mut MultiDagman,
    busy_ns: u64,
    calls: u64,
    polls: u64,
    submits: u64,
}

impl TimedDriver<'_> {
    fn timed<T>(&mut self, f: impl FnOnce(&mut MultiDagman) -> T) -> T {
        let t0 = Instant::now();
        let out = f(self.inner);
        self.busy_ns += t0.elapsed().as_nanos() as u64;
        self.calls += 1;
        out
    }
}

impl WorkloadDriver for TimedDriver<'_> {
    fn poll(&mut self, now: SimTime, events: &[JobEvent]) -> Vec<SubmitRequest> {
        let subs = self.timed(|d| d.poll(now, events));
        self.polls += 1;
        self.submits += subs.len() as u64;
        subs
    }

    fn on_assigned(&mut self, job: JobId, name: &str) {
        self.timed(|d| d.on_assigned(job, name));
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn cancellations(&mut self) -> Vec<JobId> {
        self.timed(|d| d.cancellations())
    }
}

impl Workload for OsgCampaign {
    const NAME: &'static str = "osg_campaign";
    /// `Cluster::run` is not reproducible for a seed today: the eviction
    /// of a departed machine's jobs iterates a `HashMap`
    /// (`evict_machine_jobs` in `crates/htcsim/src/cluster.rs`), so the
    /// identity is reported, not gated.
    const RERUN_GATED: bool = false;
    type Out = OsgOut;

    fn setup(seed: u64, _tr: &mut Tracer) -> Result<Self, String> {
        Ok(Self {
            seed,
            base: FdwConfig {
                station_input: StationInput::Chilean(ChileanInput::Full),
                ..Default::default()
            },
            cluster: osg_cluster_config(),
        })
    }

    fn item(&mut self, idx: u64, tr: &mut Tracer) -> Result<OsgOut, String> {
        let dags = tr.span("fdw_core.phases.build", || {
            split_waveforms(WAVEFORMS, DAGMANS)
                .into_iter()
                .map(|n| {
                    build_fdw_dag(&FdwConfig {
                        n_waveforms: n.max(1),
                        ..self.base.clone()
                    })
                })
                .collect::<Result<Vec<_>, String>>()
        })?;
        let dag_nodes: usize = dags.iter().map(|d| d.len()).sum();
        let mut multi = MultiDagman::new(dags).with_speculation(self.base.speculation);
        let cluster = Cluster::new(self.cluster.clone(), item_seed(self.seed, idx));
        let report = if tr.is_on() {
            let id = tr.begin("htcsim.cluster", None);
            let mut driver = TimedDriver {
                inner: &mut multi,
                busy_ns: 0,
                calls: 0,
                polls: 0,
                submits: 0,
            };
            let report = cluster.run(&mut driver);
            tr.aggregate("dagman.driver", driver.busy_ns, driver.calls);
            tr.end(id);
            tr.count("dagman.driver.polls", driver.polls as f64);
            tr.count("dagman.driver.submits", driver.submits as f64);
            report
        } else {
            cluster.run(&mut multi)
        };
        let metrics = tr.span("dagman.monitor", || {
            let stats = per_dagman_stats(&report);
            multi
                .dagmans()
                .iter()
                .map(|dm| {
                    let s = stats
                        .iter()
                        .find(|s| s.owner == dm.owner())
                        .ok_or_else(|| format!("no statistics for DAGMan {}", dm.owner().0))?;
                    Ok(dag_metrics(dm, s, 0, report.defense, report.federation).render())
                })
                .collect::<Result<Vec<_>, String>>()
        })?;
        let ulog = tr.span("htcsim.condor_log.render", || to_condor_log(&report.log));
        tr.count("fdw_core.phases.nodes", dag_nodes as f64);
        tr.count("htcsim.cluster.events", report.log.len() as f64);
        tr.count(
            "htcsim.cluster.negotiation_cycles",
            report.pool_series.len() as f64,
        );
        tr.count("htcsim.cluster.evictions", report.evictions as f64);
        tr.count("htcsim.condor_log.bytes", ulog.len() as f64);
        Ok(OsgOut {
            timed_out: report.timed_out,
            completed: report.completed,
            dag_nodes,
            metrics,
            ulog,
        })
    }

    fn check(&mut self, _idx: u64, out: &OsgOut) -> Result<(), String> {
        if out.timed_out {
            return Err("simulation hit its time cap".into());
        }
        if out.completed != out.dag_nodes {
            return Err(format!(
                "{} jobs completed of {} DAG nodes",
                out.completed, out.dag_nodes
            ));
        }
        if out.metrics.len() != DAGMANS {
            return Err(format!("{} .dag.metrics documents", out.metrics.len()));
        }
        for (i, doc) in out.metrics.iter().enumerate() {
            fdw_obs::json::validate(doc)
                .map_err(|at| format!(".dag.metrics of DAGMan {i} is not JSON at byte {at}"))?;
        }
        let back = parse_condor_log(&out.ulog).map_err(|e| format!("ULOG parse-back: {e}"))?;
        if to_condor_log(&back) != out.ulog {
            return Err("ULOG does not re-render to the same bytes".into());
        }
        Ok(())
    }

    fn identity(out: &OsgOut) -> Vec<u8> {
        out.ulog.as_bytes().to_vec()
    }

    fn corruptions() -> Vec<(&'static str, Corrupt<OsgOut>)> {
        vec![
            ("timed-out", |o| o.timed_out = true),
            ("lost-job", |o| o.completed -= 1),
            ("metrics-truncated", |o| {
                let doc = &mut o.metrics[2];
                doc.truncate(doc.len() / 2);
            }),
            ("ulog-garbled", |o| {
                o.ulog.insert_str(0, "not a ULOG event\n")
            }),
        ]
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn checks_catch_every_corruption() {
        crate::runner::assert_checks_catch::<super::OsgCampaign>();
    }
}
