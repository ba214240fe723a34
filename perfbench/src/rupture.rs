//! `rupture_jobs`: one A-phase rupture job as a fresh OSG slot runs it —
//! empty factor cache, recycled `.npy` distance matrices in, a cold
//! factorisation, 16 draws and the slips out as `.npy`. Dominated by the
//! linalg, simd and par kernels; bypasses waveforms and the sim path.

use std::sync::OnceLock;

use fakequakes::artifacts::{distance_matrices_from_npy, distance_matrices_to_npy};
use fakequakes::linalg::Matrix;
use fakequakes::npy::{from_npy_bytes, to_npy_bytes};
use fakequakes::prelude::*;

use crate::runner::{item_seed, Corrupt, Workload};
use crate::trace::Tracer;
use crate::waveform::{mesh, rupture_config};

const DRAWS: u64 = 16;

pub struct RuptureJobs {
    seed: u64,
    fault: FaultModel,
    net_name: String,
    /// The shipped `.npy` pair: subfault–subfault and station–subfault.
    npy: (Vec<u8>, Vec<u8>),
    rcfg: RuptureConfig,
    /// The subfault–subfault distances set-up computed, before any `.npy`.
    s2s: Matrix,
}

/// The uncached `RuptureGenerator::new` every check redraws through, and
/// the subfault distances it was built from. Built once per process, by
/// the first check: its inputs (the mesh, its subfault distances and the
/// rupture configuration) depend on no seed, and its factorisation costs
/// as much as an item.
type Reference = (Matrix, RuptureGenerator<'static>);
static UNCACHED: OnceLock<Result<Reference, String>> = OnceLock::new();

fn uncached(
    fault: &FaultModel,
    s2s: &Matrix,
    rcfg: &RuptureConfig,
) -> Result<&'static RuptureGenerator<'static>, String> {
    let (built_from, gen) = UNCACHED
        .get_or_init(|| {
            // Leaked once per process, so the generator can borrow it.
            let fault: &'static FaultModel = Box::leak(Box::new(fault.clone()));
            RuptureGenerator::new(fault, s2s, rcfg.clone())
                .map(|g| (s2s.clone(), g))
                .map_err(|e| e.to_string())
        })
        .as_ref()
        .map_err(Clone::clone)?;
    if !same_bits(built_from.as_slice(), s2s.as_slice()) {
        return Err("set-up distances differ from the uncached generator's".into());
    }
    Ok(gen)
}

pub struct RuptureOut {
    batch_seed: u64,
    first_id: u64,
    scenarios: Vec<RuptureScenario>,
    /// The distance matrices the job decoded.
    dist: DistanceMatrices,
    /// Slips, one row per scenario, encoded as `.npy`.
    slips_npy: Vec<u8>,
    /// Factor-cache counters right after the cold generator was built.
    cache: FactorCacheStats,
}

fn slip_matrix(scenarios: &[RuptureScenario], n: usize) -> Matrix {
    Matrix::from_fn(scenarios.len(), n, |i, j| scenarios[i].slip_m[j])
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_scenario(a: &RuptureScenario, b: &RuptureScenario) -> bool {
    a.id == b.id
        && a.mw.to_bits() == b.mw.to_bits()
        && a.hypocenter_idx == b.hypocenter_idx
        && same_bits(&a.slip_m, &b.slip_m)
        && same_bits(&a.onset_s, &b.onset_s)
        && same_bits(&a.rise_time_s, &b.rise_time_s)
}

fn redraw_matches(gen: &RuptureGenerator, out: &RuptureOut) -> bool {
    out.scenarios
        .iter()
        .all(|sc| same_scenario(sc, &gen.generate(out.batch_seed, sc.id)))
}

impl Workload for RuptureJobs {
    const NAME: &'static str = "rupture_jobs";
    type Out = RuptureOut;

    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let fault = mesh()?;
        let net = StationNetwork::chilean_input(ChileanInput::Small, seed);
        let dist = tr.span("fakequakes.distance", || {
            DistanceMatrices::compute(&fault, &net)
        });
        let npy = distance_matrices_to_npy(&dist);
        let back = distance_matrices_from_npy(fault.name(), net.name(), &npy.0, &npy.1)
            .map_err(|e| e.to_string())?;
        if !same_bits(
            back.subfault_to_subfault.as_slice(),
            dist.subfault_to_subfault.as_slice(),
        ) || !same_bits(
            back.station_to_subfault.as_slice(),
            dist.station_to_subfault.as_slice(),
        ) {
            return Err("distance matrices do not survive the .npy round trip".into());
        }
        Ok(Self {
            seed,
            rcfg: rupture_config(&fault),
            net_name: net.name().to_string(),
            fault,
            npy,
            s2s: dist.subfault_to_subfault,
        })
    }

    fn item(&mut self, idx: u64, tr: &mut Tracer) -> Result<RuptureOut, String> {
        let batch_seed = item_seed(self.seed, idx);
        let first_id = idx * DRAWS;
        FactorCache::global().clear();
        let dist = tr
            .span("fakequakes.npy.decode", || {
                distance_matrices_from_npy(
                    self.fault.name(),
                    &self.net_name,
                    &self.npy.0,
                    &self.npy.1,
                )
            })
            .map_err(|e| e.to_string())?;
        let gen = tr
            .span("fakequakes.stochastic.factor", || {
                RuptureGenerator::new_cached(
                    &self.fault,
                    &dist.subfault_to_subfault,
                    self.rcfg.clone(),
                    FactorCache::global(),
                )
            })
            .map_err(|e| e.to_string())?;
        let cache = FactorCache::global().stats();
        let scenarios: Vec<RuptureScenario> = tr.span("fakequakes.rupture.draw", || {
            (first_id..first_id + DRAWS)
                .map(|id| gen.generate(batch_seed, id))
                .collect()
        });
        let slips_npy = tr.span("fakequakes.npy.encode", || {
            to_npy_bytes(&slip_matrix(&scenarios, self.fault.len()))
        });
        tr.count("fakequakes.rupture.draws", DRAWS as f64);
        tr.count(
            "fakequakes.npy.bytes",
            (self.npy.0.len() + self.npy.1.len() + slips_npy.len()) as f64,
        );
        drop(gen);
        Ok(RuptureOut {
            batch_seed,
            first_id,
            scenarios,
            dist,
            slips_npy,
            cache,
        })
    }

    fn check(&mut self, _idx: u64, out: &RuptureOut) -> Result<(), String> {
        let ids: Vec<u64> = out.scenarios.iter().map(|s| s.id).collect();
        let want: Vec<u64> = (out.first_id..out.first_id + DRAWS).collect();
        if ids != want {
            return Err(format!("scenario ids {ids:?}, expected {want:?}"));
        }
        let (lo, hi) = self.rcfg.mw_range;
        for sc in &out.scenarios {
            if !sc.slip_m.iter().all(|s| s.is_finite() && *s >= 0.0) {
                return Err(format!(
                    "scenario {} has negative or non-finite slip",
                    sc.id
                ));
            }
            if !(lo..=hi).contains(&sc.mw) {
                return Err(format!(
                    "scenario {} Mw {} outside [{lo}, {hi}]",
                    sc.id, sc.mw
                ));
            }
        }
        if (out.cache.misses, out.cache.hits) != (1, 0) {
            return Err(format!(
                "cold generator saw {} misses and {} hits, expected exactly one miss",
                out.cache.misses, out.cache.hits
            ));
        }
        let slips = from_npy_bytes(&out.slips_npy).map_err(|e| format!("slip .npy: {e}"))?;
        let expect = slip_matrix(&out.scenarios, self.fault.len());
        if (slips.rows(), slips.cols()) != (expect.rows(), expect.cols())
            || !same_bits(slips.as_slice(), expect.as_slice())
        {
            return Err("slip .npy does not round-trip exactly".into());
        }
        let d = &out.dist.subfault_to_subfault;
        let warm =
            RuptureGenerator::new_cached(&self.fault, d, self.rcfg.clone(), FactorCache::global())
                .map_err(|e| e.to_string())?;
        if FactorCache::global().stats().hits == 0 || !redraw_matches(&warm, out) {
            return Err("cold draws differ from a warm redraw".into());
        }
        let fresh = uncached(&self.fault, &self.s2s, &self.rcfg)?;
        if !redraw_matches(fresh, out) {
            return Err("cold draws differ from an uncached generator's".into());
        }
        Ok(())
    }

    fn identity(out: &RuptureOut) -> Vec<u8> {
        out.slips_npy.clone()
    }

    fn corruptions() -> Vec<(&'static str, Corrupt<RuptureOut>)> {
        vec![
            ("wrong-id", |o| o.scenarios[3].id += 1),
            ("missing-draw", |o| {
                o.scenarios.pop();
            }),
            ("negative-slip", |o| {
                let j = o.scenarios[0].slip_m.len() - 1;
                o.scenarios[0].slip_m[j] = -1.0;
            }),
            ("nan-slip", |o| o.scenarios[2].slip_m[0] = f64::NAN),
            ("mw-out-of-range", |o| o.scenarios[1].mw = 9.8),
            ("second-miss", |o| o.cache.misses += 1),
            ("npy-bitflip", |o| {
                let last = o.slips_npy.len() - 1;
                o.slips_npy[last] ^= 0x01;
            }),
            ("draw-drift", |o| {
                let h = o.scenarios[4].hypocenter_idx;
                o.scenarios[4].onset_s[h] += 1e-9;
            }),
        ]
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn checks_catch_every_corruption() {
        crate::runner::assert_checks_catch::<super::RuptureJobs>();
    }
}
