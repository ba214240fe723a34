//! `waveform_jobs`: C-phase waveform jobs on the full Chilean input, the
//! phase where full-input jobs spend their time, ending in `.mseed`
//! writes. Distance matrices and the GF library are recycled and the
//! factorisation is warm, so it bypasses factorisation and the sim path.

use fakequakes::artifacts::waveform_to_mseed;
use fakequakes::prelude::*;

use crate::runner::{item_seed, Corrupt, Workload};
use crate::trace::Tracer;

const SCENARIOS: u64 = 2;
const MESH: (usize, usize) = (24, 10);

pub struct WaveformJobs {
    seed: u64,
    fault: FaultModel,
    net: StationNetwork,
    dist: DistanceMatrices,
    gfs: GfLibrary,
    rcfg: RuptureConfig,
    wcfg: WaveformConfig,
}

pub struct WaveformOut {
    catalog: Catalog,
    /// One encoded `.mseed` container per scenario.
    containers: Vec<Vec<u8>>,
    /// Factor-cache misses during the item.
    misses: u64,
}

/// The rupture configuration both fakequakes workloads draw with: the
/// truncated Karhunen–Loève expansion keeping half the modes.
pub fn rupture_config(fault: &FaultModel) -> RuptureConfig {
    RuptureConfig {
        method: FieldMethod::KarhunenLoeve {
            modes: fault.len() / 2,
        },
        ..Default::default()
    }
}

pub fn mesh() -> Result<FaultModel, String> {
    FaultModel::chilean_subduction(MESH.0, MESH.1).map_err(|e| e.to_string())
}

fn encode(catalog: &Catalog) -> Result<Vec<Vec<u8>>, String> {
    catalog
        .waveforms
        .iter()
        .map(|wfs| {
            let mut f = MseedFile::new();
            for w in wfs {
                waveform_to_mseed(&mut f, w);
            }
            f.to_bytes().map_err(|e| e.to_string())
        })
        .collect()
}

impl Workload for WaveformJobs {
    const NAME: &'static str = "waveform_jobs";
    type Out = WaveformOut;

    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let fault = mesh()?;
        let net = StationNetwork::chilean_input(ChileanInput::Full, seed);
        let dist = tr.span("fakequakes.distance", || {
            DistanceMatrices::compute(&fault, &net)
        });
        let gfs = tr
            .span("fakequakes.greens", || GfLibrary::compute(&fault, &net))
            .map_err(|e| e.to_string())?;
        // Each set-up pays the factorisation once; items then find it warm.
        let rcfg = rupture_config(&fault);
        FactorCache::global().clear();
        tr.span("fakequakes.stochastic.factor", || {
            RuptureGenerator::new_cached(
                &fault,
                &dist.subfault_to_subfault,
                rcfg.clone(),
                FactorCache::global(),
            )
            .map(drop)
        })
        .map_err(|e| e.to_string())?;
        Ok(Self {
            seed,
            rcfg,
            wcfg: WaveformConfig::default(),
            fault,
            net,
            dist,
            gfs,
        })
    }

    fn item(&mut self, idx: u64, tr: &mut Tracer) -> Result<WaveformOut, String> {
        let seed = item_seed(self.seed, idx);
        let before = FactorCache::global().stats().misses;
        // The span holds the whole call: the warm factor fetch and the two
        // draws ride inside it, about 1-2 ms of the item.
        let catalog = tr
            .span("fakequakes.waveform", || {
                generate_catalog(
                    &self.fault,
                    &self.net,
                    Some(self.dist.clone()),
                    Some(self.gfs.clone()),
                    self.rcfg.clone(),
                    self.wcfg,
                    SCENARIOS,
                    seed,
                )
            })
            .map_err(|e| e.to_string())?;
        tr.count(
            "fakequakes.waveform.samples",
            catalog
                .waveforms
                .iter()
                .flatten()
                .map(|w| w.east_m.len() + w.north_m.len() + w.up_m.len())
                .sum::<usize>() as f64,
        );
        let containers = tr.span("fakequakes.mseed.encode", || encode(&catalog))?;
        tr.count(
            "fakequakes.mseed.bytes",
            containers.iter().map(Vec::len).sum::<usize>() as f64,
        );
        let misses = FactorCache::global().stats().misses.saturating_sub(before);
        tr.count("fakequakes.stochastic.fetches", 1.0);
        tr.count("fakequakes.stochastic.misses", misses as f64);
        Ok(WaveformOut {
            catalog,
            containers,
            misses,
        })
    }

    /// `NoiseModel::generate` on the same sample count, interval and
    /// number of series as the item's waveforms, timed apart: the noise
    /// share of the waveform layer, which its span cannot split out.
    fn probe(&mut self, idx: u64, tr: &mut Tracer) {
        if !tr.is_on() {
            return;
        }
        let n = self.wcfg.n_samples();
        let id = tr.begin("fakequakes.noise.probe", Some(idx));
        for k in 0..SCENARIOS * self.net.len() as u64 {
            for (c, model) in [self.wcfg.noise, self.wcfg.noise, self.wcfg.noise.vertical()]
                .iter()
                .enumerate()
            {
                let seed = item_seed(self.seed, idx) ^ (k * 3 + c as u64);
                std::hint::black_box(model.generate(n, self.wcfg.dt_s, seed));
            }
        }
        tr.end(id);
    }

    fn check(&mut self, idx: u64, out: &WaveformOut) -> Result<(), String> {
        let n = self.wcfg.n_samples();
        let cat = &out.catalog;
        if cat.scenarios.len() != SCENARIOS as usize || cat.waveforms.len() != SCENARIOS as usize {
            return Err(format!(
                "{} scenarios and {} waveform sets, expected {SCENARIOS}",
                cat.scenarios.len(),
                cat.waveforms.len()
            ));
        }
        for (sc, wfs) in cat.scenarios.iter().zip(&cat.waveforms) {
            if wfs.len() != self.net.len() {
                return Err(format!(
                    "scenario {} has {} records, expected {}",
                    sc.id,
                    wfs.len(),
                    self.net.len()
                ));
            }
            for w in wfs {
                for comp in [&w.east_m, &w.north_m, &w.up_m] {
                    if comp.len() != n || !comp.iter().all(|x| x.is_finite()) {
                        return Err(format!(
                            "record {} of scenario {} is not {n} finite samples",
                            w.station_code, sc.id
                        ));
                    }
                }
            }
            if wfs.iter().map(|w| w.pgd_m()).fold(0.0, f64::max) <= 0.0 {
                return Err(format!("scenario {} has no ground displacement", sc.id));
            }
        }
        if out.containers.len() != cat.waveforms.len() {
            return Err("one .mseed container per scenario expected".into());
        }
        for (bytes, wfs) in out.containers.iter().zip(&cat.waveforms) {
            let back = MseedFile::from_bytes(bytes).map_err(|e| format!(".mseed decode: {e}"))?;
            let mut expect = MseedFile::new();
            for w in wfs {
                waveform_to_mseed(&mut expect, w);
            }
            if back != expect {
                return Err(".mseed container does not decode to its records".into());
            }
        }
        if out.misses != 0 {
            return Err(format!(
                "item {idx} refactorised {} times with a warm cache",
                out.misses
            ));
        }
        Ok(())
    }

    fn identity(out: &WaveformOut) -> Vec<u8> {
        out.containers.concat()
    }

    fn corruptions() -> Vec<(&'static str, Corrupt<WaveformOut>)> {
        vec![
            ("drop-record", |o| {
                o.catalog.waveforms[1].pop();
            }),
            ("short-record", |o| {
                o.catalog.waveforms[0][3].up_m.pop();
            }),
            ("nan-sample", |o| {
                o.catalog.waveforms[0][5].east_m[100] = f64::NAN
            }),
            ("no-displacement", |o| {
                for w in &mut o.catalog.waveforms[1] {
                    for comp in [&mut w.east_m, &mut w.north_m, &mut w.up_m] {
                        comp.iter_mut().for_each(|x| *x = 0.0);
                    }
                }
            }),
            ("mseed-bitflip", |o| {
                let mid = o.containers[0].len() / 2;
                o.containers[0][mid] ^= 0x10;
            }),
            ("mseed-stale", |o| {
                o.catalog.waveforms[1][0].north_m[7] += 1e-3
            }),
            ("cold-factor", |o| o.misses = 1),
        ]
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn checks_catch_every_corruption() {
        crate::runner::assert_checks_catch::<super::WaveformJobs>();
    }
}
