//! Synthetic GNSS waveform synthesis — the C Phase's science payload.
//!
//! For each rupture scenario and each station, sum over subfaults the
//! station's static Green's function response scaled by that subfault's
//! slip and modulated in time by the source time function delayed by the
//! kinematic onset (plus a travel-time delay from the station–subfault
//! distance). Add GNSS noise. The result is the 3-component, 1 Hz
//! displacement waveform that EEW models train on.

use rayon::prelude::*;

use crate::error::{FqError, FqResult};
use crate::geometry::FaultModel;
use crate::greens::GfLibrary;
use crate::linalg::Matrix;
use crate::noise::NoiseModel;
use crate::rupture::RuptureScenario;
use crate::stf::StfKind;

/// Waveform synthesis parameters.
#[derive(Debug, Clone, Copy)]
pub struct WaveformConfig {
    /// Sample interval in seconds (1.0 for high-rate GNSS).
    pub dt_s: f64,
    /// Total record duration in seconds.
    pub duration_s: f64,
    /// Source time function shape.
    pub stf: StfKind,
    /// Apparent S-wave propagation speed used for travel-time delays, km/s.
    pub s_wave_kms: f64,
    /// Noise model for horizontal components.
    pub noise: NoiseModel,
}

impl Default for WaveformConfig {
    fn default() -> Self {
        Self {
            dt_s: 1.0,
            duration_s: 512.0,
            stf: StfKind::Dreger,
            s_wave_kms: 3.5,
            noise: NoiseModel::default(),
        }
    }
}

impl WaveformConfig {
    /// Number of samples in a record.
    pub fn n_samples(&self) -> usize {
        (self.duration_s / self.dt_s).ceil() as usize
    }

    /// Validate the configuration.
    pub fn validate(&self) -> FqResult<()> {
        if self.dt_s <= 0.0 || self.duration_s <= 0.0 {
            return Err(FqError::Config("dt and duration must be positive".into()));
        }
        if self.s_wave_kms <= 0.0 {
            return Err(FqError::Config("S-wave speed must be positive".into()));
        }
        Ok(())
    }
}

/// A 3-component displacement record at one station.
#[derive(Debug, Clone)]
pub struct GnssWaveform {
    /// Station code.
    pub station_code: String,
    /// Scenario id this waveform belongs to.
    pub scenario_id: u64,
    /// Sample interval, seconds.
    pub dt_s: f64,
    /// East displacement, metres.
    pub east_m: Vec<f64>,
    /// North displacement, metres.
    pub north_m: Vec<f64>,
    /// Up displacement, metres.
    pub up_m: Vec<f64>,
}

impl GnssWaveform {
    /// Number of samples per component.
    pub fn len(&self) -> usize {
        self.east_m.len()
    }

    /// True if the record has no samples.
    pub fn is_empty(&self) -> bool {
        self.east_m.is_empty()
    }

    /// Peak ground displacement: max over time of the 3-D vector norm.
    /// This is the feature EEW magnitude models are built on (Ruhl et al.
    /// 2017).
    pub fn pgd_m(&self) -> f64 {
        let mut peak = 0.0f64;
        for i in 0..self.len() {
            let v =
                (self.east_m[i].powi(2) + self.north_m[i].powi(2) + self.up_m[i].powi(2)).sqrt();
            peak = peak.max(v);
        }
        peak
    }

    /// Final (permanent) static offset vector magnitude, averaged over the
    /// last 5 % of the record to suppress noise.
    pub fn static_offset_m(&self) -> f64 {
        let n = self.len();
        if n == 0 {
            return 0.0;
        }
        let tail = (n / 20).max(1);
        let avg = |c: &[f64]| crate::simd::lane_sum(&c[n - tail..]) / tail as f64;
        let (e, no, u) = (avg(&self.east_m), avg(&self.north_m), avg(&self.up_m));
        (e * e + no * no + u * u).sqrt()
    }
}

/// First sample index `k < n` whose time `k·dt` satisfies `pred`, or `n`.
/// `pred` must be monotone in `t` (false, then true). The guess from
/// `t_guess / dt` is corrected by exact evaluations of `pred` in both
/// directions, so floating-point rounding of the quotient cannot
/// mis-classify a sample.
fn first_sample(n: usize, dt: f64, t_guess: f64, pred: impl Fn(f64) -> bool) -> usize {
    let mut k = ((t_guess / dt).max(0.0) as usize).min(n);
    while k > 0 && pred((k - 1) as f64 * dt) {
        k -= 1;
    }
    while k < n && !pred(k as f64 * dt) {
        k += 1;
    }
    k
}

/// Synthesise the waveform for one (scenario, station) pair.
///
/// `station_idx` indexes both `gfs.stations()` and the rows of
/// `station_distances` (the recycled station–subfault matrix).
pub fn synthesize_station(
    fault: &FaultModel,
    gfs: &GfLibrary,
    station_distances: &Matrix,
    scenario: &RuptureScenario,
    station_idx: usize,
    config: &WaveformConfig,
    noise_seed: u64,
) -> FqResult<GnssWaveform> {
    config.validate()?;
    if gfs.n_subfaults() != fault.len() {
        return Err(FqError::Config(format!(
            "GF library covers {} subfaults, fault has {}",
            gfs.n_subfaults(),
            fault.len()
        )));
    }
    if station_idx >= gfs.n_stations() {
        return Err(FqError::Config(format!(
            "station index {station_idx} out of range ({} stations)",
            gfs.n_stations()
        )));
    }
    let sta = &gfs.stations()[station_idx];
    let n = config.n_samples();
    let mut east = vec![0.0; n];
    let mut north = vec![0.0; n];
    let mut up = vec![0.0; n];

    for (j, resp) in sta.responses.iter().enumerate() {
        let slip = scenario.slip_m[j];
        if slip <= 0.0 {
            continue;
        }
        let onset = scenario.onset_s[j];
        let travel = station_distances[(station_idx, j)] / config.s_wave_kms;
        let t0 = onset + travel;
        let rise = scenario.rise_time_s[j];
        let sat = config.stf.saturation_s(rise);
        // Hoist the per-sample tests out of the loop: samples before
        // `k_start` precede onset, and from `k_sat` on the STF is exactly
        // 1, so those samples add the full static response without an STF
        // call. Both bounds use the loop's own `t = k·dt` arithmetic.
        let k_start = first_sample(n, config.dt_s, t0, |t| t > t0);
        let k_sat = k_start.max(first_sample(n, config.dt_s, t0 + sat, |t| t - t0 >= sat));
        for k in k_start..k_sat {
            let t = k as f64 * config.dt_s;
            let f = config.stf.cumulative(t - t0, rise);
            if f <= 0.0 {
                continue;
            }
            let s = slip * f;
            east[k] += resp.e * s;
            north[k] += resp.n * s;
            up[k] += resp.u * s;
        }
        let (de, dn, du) = (resp.e * slip, resp.n * slip, resp.u * slip);
        for ((e, no), u) in east[k_sat..]
            .iter_mut()
            .zip(&mut north[k_sat..])
            .zip(&mut up[k_sat..])
        {
            *e += de;
            *no += dn;
            *u += du;
        }
    }

    // Independent noise per component; vertical is noisier.
    let base = noise_seed
        .wrapping_mul(0x2545_F491_4F6C_DD1D)
        .wrapping_add(scenario.id)
        .wrapping_add(station_idx as u64);
    for (c, (series, model)) in [
        (&mut east, config.noise),
        (&mut north, config.noise),
        (&mut up, config.noise.vertical()),
    ]
    .into_iter()
    .enumerate()
    {
        model.add_to(series, config.dt_s, base.wrapping_add(c as u64 * 7919));
    }

    Ok(GnssWaveform {
        station_code: sta.station_code.clone(),
        scenario_id: scenario.id,
        dt_s: config.dt_s,
        east_m: east,
        north_m: north,
        up_m: up,
    })
}

/// Synthesise waveforms for every station in the library for one scenario,
/// in parallel with Rayon. This is what one C-Phase job computes per
/// scenario.
pub fn synthesize_all_stations(
    fault: &FaultModel,
    gfs: &GfLibrary,
    station_distances: &Matrix,
    scenario: &RuptureScenario,
    config: &WaveformConfig,
    noise_seed: u64,
) -> FqResult<Vec<GnssWaveform>> {
    (0..gfs.n_stations())
        // fdwlint::allow(raw-parallelism): ordered indexed map — each station is a pure function of its index and collect preserves order, so parallel == sequential bitwise
        .into_par_iter()
        .map(|si| {
            synthesize_station(
                fault,
                gfs,
                station_distances,
                scenario,
                si,
                config,
                noise_seed,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DistanceMatrices;
    use crate::rupture::{RuptureConfig, RuptureGenerator};
    use crate::stations::{ChileanInput, StationNetwork};

    struct Fixture {
        fault: FaultModel,
        gfs: GfLibrary,
        dists: DistanceMatrices,
        scenario: RuptureScenario,
    }

    fn fixture() -> Fixture {
        let fault = FaultModel::chilean_subduction(12, 6).unwrap();
        let net = StationNetwork::chilean_input(ChileanInput::Small, 1);
        let dists = DistanceMatrices::compute(&fault, &net);
        let gfs = GfLibrary::compute(&fault, &net).unwrap();
        let gen = RuptureGenerator::new(
            &fault,
            &dists.subfault_to_subfault,
            RuptureConfig {
                mw_range: (8.5, 8.5),
                ..Default::default()
            },
        )
        .unwrap();
        let scenario = gen.generate(1, 0);
        Fixture {
            fault,
            gfs,
            dists,
            scenario,
        }
    }

    fn quiet_config() -> WaveformConfig {
        WaveformConfig {
            noise: NoiseModel::none(),
            ..Default::default()
        }
    }

    #[test]
    fn waveform_has_configured_length() {
        let fx = fixture();
        let w = synthesize_station(
            &fx.fault,
            &fx.gfs,
            &fx.dists.station_to_subfault,
            &fx.scenario,
            0,
            &quiet_config(),
            1,
        )
        .unwrap();
        assert_eq!(w.len(), 512);
        assert!(!w.is_empty());
        assert_eq!(w.north_m.len(), 512);
        assert_eq!(w.up_m.len(), 512);
        assert_eq!(w.scenario_id, 0);
    }

    #[test]
    fn starts_at_zero_and_reaches_permanent_offset() {
        let fx = fixture();
        let w = synthesize_station(
            &fx.fault,
            &fx.gfs,
            &fx.dists.station_to_subfault,
            &fx.scenario,
            0,
            &quiet_config(),
            1,
        )
        .unwrap();
        assert_eq!(w.east_m[0], 0.0);
        assert_eq!(w.north_m[0], 0.0);
        assert_eq!(w.up_m[0], 0.0);
        let offset = w.static_offset_m();
        assert!(
            offset > 1e-4,
            "Mw 8.5 should displace a Chilean station: {offset}"
        );
        // Displacement settles: last two samples nearly equal.
        let n = w.len();
        assert!((w.east_m[n - 1] - w.east_m[n - 2]).abs() < 1e-6);
    }

    #[test]
    fn pgd_bounds_static_offset() {
        let fx = fixture();
        let w = synthesize_station(
            &fx.fault,
            &fx.gfs,
            &fx.dists.station_to_subfault,
            &fx.scenario,
            0,
            &quiet_config(),
            1,
        )
        .unwrap();
        assert!(w.pgd_m() >= w.static_offset_m() * 0.99);
    }

    #[test]
    fn noise_changes_but_does_not_dominate() {
        let fx = fixture();
        let quiet = synthesize_station(
            &fx.fault,
            &fx.gfs,
            &fx.dists.station_to_subfault,
            &fx.scenario,
            0,
            &quiet_config(),
            1,
        )
        .unwrap();
        let noisy = synthesize_station(
            &fx.fault,
            &fx.gfs,
            &fx.dists.station_to_subfault,
            &fx.scenario,
            0,
            &WaveformConfig::default(),
            1,
        )
        .unwrap();
        assert_ne!(quiet.east_m, noisy.east_m);
        // Signal-to-noise for a Mw 8.5 nearby event must be comfortably > 1.
        let diff: f64 = quiet
            .east_m
            .iter()
            .zip(&noisy.east_m)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / quiet.len() as f64;
        assert!(
            diff < quiet.pgd_m(),
            "noise {diff} vs pgd {}",
            quiet.pgd_m()
        );
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let fx = fixture();
        let cfg = quiet_config();
        let par = synthesize_all_stations(
            &fx.fault,
            &fx.gfs,
            &fx.dists.station_to_subfault,
            &fx.scenario,
            &cfg,
            2,
        )
        .unwrap();
        assert_eq!(par.len(), fx.gfs.n_stations());
        for (si, a) in par.iter().enumerate() {
            let b = synthesize_station(
                &fx.fault,
                &fx.gfs,
                &fx.dists.station_to_subfault,
                &fx.scenario,
                si,
                &cfg,
                2,
            )
            .unwrap();
            assert_eq!(a.east_m, b.east_m);
            assert_eq!(a.station_code, b.station_code);
        }
    }

    /// The per-sample STF loop `synthesize_station` ran before the
    /// saturated tail was split off: every post-onset sample calls
    /// `cumulative`. Quiet records only (no noise).
    fn quiet_station_per_sample(fx: &Fixture, si: usize, cfg: &WaveformConfig) -> [Vec<f64>; 3] {
        let n = cfg.n_samples();
        let (mut east, mut north, mut up) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        for (j, resp) in fx.gfs.stations()[si].responses.iter().enumerate() {
            let slip = fx.scenario.slip_m[j];
            if slip <= 0.0 {
                continue;
            }
            let t0 =
                fx.scenario.onset_s[j] + fx.dists.station_to_subfault[(si, j)] / cfg.s_wave_kms;
            let samples = east.iter_mut().zip(&mut north).zip(&mut up);
            for (k, ((e, no), u)) in samples.enumerate() {
                let t = k as f64 * cfg.dt_s;
                if t <= t0 {
                    continue;
                }
                let f = cfg.stf.cumulative(t - t0, fx.scenario.rise_time_s[j]);
                if f <= 0.0 {
                    continue;
                }
                let s = slip * f;
                *e += resp.e * s;
                *no += resp.n * s;
                *u += resp.u * s;
            }
        }
        [east, north, up]
    }

    #[test]
    fn saturated_tail_matches_per_sample_loop_bitwise() {
        let fx = fixture();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for stf in [StfKind::Dreger, StfKind::Cosine, StfKind::Triangle] {
            // A fractional interval puts onsets and saturation points
            // between samples as well as on them.
            for dt_s in [1.0, 0.7] {
                let cfg = WaveformConfig {
                    stf,
                    dt_s,
                    ..quiet_config()
                };
                for si in 0..fx.gfs.n_stations() {
                    let w = synthesize_station(
                        &fx.fault,
                        &fx.gfs,
                        &fx.dists.station_to_subfault,
                        &fx.scenario,
                        si,
                        &cfg,
                        1,
                    )
                    .unwrap();
                    let [e, n, u] = quiet_station_per_sample(&fx, si, &cfg);
                    let label = format!("{} dt {dt_s} station {si}", stf.label());
                    assert_eq!(bits(&w.east_m), bits(&e), "{label}");
                    assert_eq!(bits(&w.north_m), bits(&n), "{label}");
                    assert_eq!(bits(&w.up_m), bits(&u), "{label}");
                }
            }
        }
    }

    #[test]
    fn bad_station_index_rejected() {
        let fx = fixture();
        assert!(synthesize_station(
            &fx.fault,
            &fx.gfs,
            &fx.dists.station_to_subfault,
            &fx.scenario,
            99,
            &quiet_config(),
            1,
        )
        .is_err());
    }

    #[test]
    fn bad_config_rejected() {
        let fx = fixture();
        let cfg = WaveformConfig {
            dt_s: 0.0,
            ..Default::default()
        };
        assert!(synthesize_station(
            &fx.fault,
            &fx.gfs,
            &fx.dists.station_to_subfault,
            &fx.scenario,
            0,
            &cfg,
            1,
        )
        .is_err());
        assert!(WaveformConfig {
            duration_s: -1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(WaveformConfig {
            s_wave_kms: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn n_samples_rounds_up() {
        let cfg = WaveformConfig {
            dt_s: 1.0,
            duration_s: 511.5,
            ..Default::default()
        };
        assert_eq!(cfg.n_samples(), 512);
    }

    #[test]
    fn noise_seed_changes_noise_only() {
        let fx = fixture();
        let cfg = WaveformConfig::default();
        let a = synthesize_station(
            &fx.fault,
            &fx.gfs,
            &fx.dists.station_to_subfault,
            &fx.scenario,
            0,
            &cfg,
            1,
        )
        .unwrap();
        let b = synthesize_station(
            &fx.fault,
            &fx.gfs,
            &fx.dists.station_to_subfault,
            &fx.scenario,
            0,
            &cfg,
            2,
        )
        .unwrap();
        assert_ne!(a.east_m, b.east_m);
        // Static offsets agree to within the accumulated random-walk level.
        assert!((a.static_offset_m() - b.static_offset_m()).abs() < 0.2);
    }
}
