//! `service_overload`: one multi-tenant campaign stream through the
//! defended `fdw-service` front-end at 6x its capacity, with execution
//! failures and corrupt artifact-store inserts. The only workload that
//! runs admission, DRR fair share, breakers, the artifact store and
//! `htcsim::des::ShardedEngine`.

use fdw_service::config::ServiceConfig;
use fdw_service::engine::{run_service, ServiceReport};
use fdw_service::request::WorkloadConfig;

use crate::runner::{item_seed, Corrupt, Workload};
use crate::trace::Tracer;

const TENANTS: u32 = 4;
const REQUESTS: u32 = 2_400;
const EXEC_SHARDS: u32 = 4;
const EPOCH_S: u64 = 60;

pub struct ServiceOverload {
    seed: u64,
    cfg: ServiceConfig,
    threads: usize,
}

pub struct ServiceOut {
    wl: WorkloadConfig,
    report: ServiceReport,
}

impl Workload for ServiceOverload {
    const NAME: &'static str = "service_overload";
    type Out = ServiceOut;

    fn setup(seed: u64, _tr: &mut Tracer) -> Result<Self, String> {
        let cfg = ServiceConfig::defended(TENANTS);
        cfg.validate()?;
        Ok(Self {
            seed,
            cfg,
            threads: rayon::current_num_threads(),
        })
    }

    fn item(&mut self, idx: u64, tr: &mut Tracer) -> Result<ServiceOut, String> {
        let wl = WorkloadConfig {
            seed: item_seed(self.seed, idx),
            campaigns: REQUESTS,
            overload_x: 6.0,
            fail_permille: 150,
            corrupt_permille: 150,
            ..Default::default()
        };
        let report = tr.span("fdw_service.engine", || {
            run_service(&self.cfg, &wl, EXEC_SHARDS, EPOCH_S, self.threads)
        });
        let store = report.store;
        tr.count("fdw_service.requests", report.outcomes.len() as f64);
        tr.count("fdw_service.admitted", report.stats.admitted as f64);
        tr.count("fdw_service.store.hits", store.hits as f64);
        tr.count(
            "fdw_service.store.lookups",
            (store.hits + store.misses) as f64,
        );
        Ok(ServiceOut { wl, report })
    }

    fn check(&mut self, _idx: u64, out: &ServiceOut) -> Result<(), String> {
        let r = &out.report;
        if r.unaccounted != 0 {
            return Err(format!(
                "{} requests without a terminal disposition",
                r.unaccounted
            ));
        }
        if r.outcomes.len() != REQUESTS as usize {
            return Err(format!(
                "{} outcomes for {REQUESTS} requests",
                r.outcomes.len()
            ));
        }
        let reference = run_service(&self.cfg, &out.wl, 1, EPOCH_S, 1);
        if reference.decision_digest != r.decision_digest || reference.outcomes != r.outcomes {
            return Err("decisions differ from a 1-shard, 1-thread run".into());
        }
        Ok(())
    }

    fn identity(out: &ServiceOut) -> Vec<u8> {
        let mut v = out.report.decision_digest.to_le_bytes().to_vec();
        v.extend(format!("{:?}", out.report.outcomes).bytes());
        v
    }

    fn corruptions() -> Vec<(&'static str, Corrupt<ServiceOut>)> {
        vec![
            ("unaccounted", |o| o.report.unaccounted = 1),
            ("lost-outcome", |o| {
                o.report.outcomes.pop();
            }),
            ("digest-drift", |o| o.report.decision_digest ^= 1),
            ("outcome-drift", |o| {
                o.report.outcomes[10].request.tenant ^= 1
            }),
        ]
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn checks_catch_every_corruption() {
        crate::runner::assert_checks_catch::<super::ServiceOverload>();
    }
}
