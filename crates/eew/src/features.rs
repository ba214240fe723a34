//! Waveform feature extraction for early warning.
//!
//! Real EEW pipelines do not see a finished waveform: they watch it grow.
//! This module provides the streaming features such systems compute on
//! high-rate GNSS displacement records:
//!
//! * **STA/LTA arrival picking** — the classic short-term/long-term
//!   average ratio trigger, applied to displacement increments;
//! * **PGD evolution** — peak ground displacement as a function of time
//!   since the record start (Melgar et al. 2015 show PGD(t) converges to
//!   its final value within minutes, which is what makes magnitude
//!   estimation fast enough to be a warning);
//! * **warning time** — how long before a given shaking threshold the
//!   magnitude estimate stabilises.

use fakequakes::waveform::GnssWaveform;

/// 3-D displacement magnitude series of a waveform.
fn magnitude_series(w: &GnssWaveform) -> Vec<f64> {
    (0..w.len())
        .map(|i| (w.east_m[i].powi(2) + w.north_m[i].powi(2) + w.up_m[i].powi(2)).sqrt())
        .collect()
}

/// Running peak of the displacement magnitude: `PGD(t)`.
pub fn pgd_evolution(w: &GnssWaveform) -> Vec<f64> {
    let mut peak = 0.0f64;
    magnitude_series(w)
        .into_iter()
        .map(|m| {
            peak = peak.max(m);
            peak
        })
        .collect()
}

/// First sample index where `PGD(t)` reaches `fraction` of its final
/// value (None when the record never moves).
pub fn time_to_pgd_fraction(w: &GnssWaveform, fraction: f64) -> Option<usize> {
    let evo = pgd_evolution(w);
    let total = *evo.last()?;
    if total <= 0.0 {
        return None;
    }
    let target = total * fraction.clamp(0.0, 1.0);
    evo.iter().position(|p| *p >= target)
}

/// STA/LTA trigger on the displacement increment series.
///
/// Returns the first sample where the short-term average of |Δu| over
/// `sta` samples exceeds `threshold` times the long-term average over
/// `lta` samples — the arrival pick. None when nothing triggers.
pub fn sta_lta_pick(w: &GnssWaveform, sta: usize, lta: usize, threshold: f64) -> Option<usize> {
    assert!(sta >= 1 && lta > sta, "need lta > sta >= 1");
    let mags = magnitude_series(w);
    if mags.len() < lta + 1 {
        return None;
    }
    // Displacement increments: |u(t) - u(t-1)|.
    let incs: Vec<f64> = mags.windows(2).map(|p| (p[1] - p[0]).abs()).collect();
    let mut sta_sum: f64 = incs[..sta].iter().sum();
    let mut lta_sum: f64 = incs[..lta].iter().sum();
    for t in lta..incs.len() {
        sta_sum += incs[t] - incs[t - sta];
        lta_sum += incs[t] - incs[t - lta];
        let sta_avg = sta_sum / sta as f64;
        let lta_avg = (lta_sum / lta as f64).max(1e-12);
        if sta_avg / lta_avg >= threshold {
            return Some(t + 1); // +1: increments are offset by one sample
        }
    }
    None
}

/// Summary of the warning-relevant timing of one record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarningTiming {
    /// STA/LTA arrival pick, samples from record start.
    pub arrival_sample: usize,
    /// Sample where PGD reached 90 % of its final value.
    pub pgd90_sample: usize,
    /// Seconds between arrival and a stable (90 %) PGD — how long the
    /// magnitude estimate takes to converge at this station.
    pub convergence_secs: f64,
}

/// Compute warning timing with standard picker settings (5 s STA, 30 s
/// LTA, trigger ratio 4). None when the record has no pickable arrival.
pub fn warning_timing(w: &GnssWaveform) -> Option<WarningTiming> {
    let arrival = sta_lta_pick(w, 5, 30, 4.0)?;
    let pgd90 = time_to_pgd_fraction(w, 0.9)?;
    Some(WarningTiming {
        arrival_sample: arrival,
        pgd90_sample: pgd90,
        convergence_secs: (pgd90.saturating_sub(arrival)) as f64 * w.dt_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fakequakes::distance::DistanceMatrices;
    use fakequakes::geometry::FaultModel;
    use fakequakes::greens::GfLibrary;
    use fakequakes::noise::NoiseModel;
    use fakequakes::rupture::{RuptureConfig, RuptureGenerator};
    use fakequakes::stations::StationNetwork;
    use fakequakes::waveform::{synthesize_station, WaveformConfig};

    fn waveform(noise: NoiseModel) -> GnssWaveform {
        let fault = FaultModel::chilean_subduction(14, 7).unwrap();
        let net = StationNetwork::chilean(4, 1).unwrap();
        let d = DistanceMatrices::compute(&fault, &net);
        let gfs = GfLibrary::compute(&fault, &net).unwrap();
        let gen = RuptureGenerator::new(
            &fault,
            &d.subfault_to_subfault,
            RuptureConfig {
                mw_range: (8.6, 8.6),
                ..Default::default()
            },
        )
        .unwrap();
        // Seed pinned to a scenario whose station-0 record has an early,
        // sharp onset (required by the convergence and picker tests).
        let scenario = gen.generate(7, 0);
        synthesize_station(
            &fault,
            &gfs,
            &d.station_to_subfault,
            &scenario,
            0,
            &WaveformConfig {
                duration_s: 512.0,
                noise,
                ..Default::default()
            },
            1,
        )
        .unwrap()
    }

    #[test]
    fn pgd_evolution_is_monotone_and_ends_at_pgd() {
        let w = waveform(NoiseModel::none());
        let evo = pgd_evolution(&w);
        assert_eq!(evo.len(), w.len());
        for pair in evo.windows(2) {
            assert!(pair[1] >= pair[0]);
        }
        assert!((evo.last().unwrap() - w.pgd_m()).abs() < 1e-12);
    }

    #[test]
    fn pgd_converges_before_record_end() {
        let w = waveform(NoiseModel::none());
        let t90 = time_to_pgd_fraction(&w, 0.9).unwrap();
        assert!(
            t90 < w.len() * 3 / 4,
            "90% of PGD should arrive well before the record ends: {t90}"
        );
        let t10 = time_to_pgd_fraction(&w, 0.1).unwrap();
        assert!(t10 <= t90);
        assert_eq!(time_to_pgd_fraction(&w, 0.0).unwrap(), 0);
    }

    #[test]
    fn flat_record_has_no_features() {
        let w = GnssWaveform {
            station_code: "X".into(),
            scenario_id: 0,
            dt_s: 1.0,
            east_m: vec![0.0; 128],
            north_m: vec![0.0; 128],
            up_m: vec![0.0; 128],
        };
        assert!(time_to_pgd_fraction(&w, 0.9).is_none());
        assert!(sta_lta_pick(&w, 5, 30, 4.0).is_none());
        assert!(warning_timing(&w).is_none());
    }

    #[test]
    fn sta_lta_picks_near_the_true_arrival() {
        // Noiseless record: the arrival is where displacement first moves.
        let w = waveform(NoiseModel::none());
        let mags: Vec<f64> = (0..w.len())
            .map(|i| (w.east_m[i].powi(2) + w.north_m[i].powi(2) + w.up_m[i].powi(2)).sqrt())
            .collect();
        let true_onset = mags.iter().position(|m| *m > 1e-6).unwrap();
        let pick = sta_lta_pick(&w, 5, 30, 4.0).expect("must trigger");
        assert!(
            pick >= true_onset && pick < true_onset + 40,
            "pick {pick} vs onset {true_onset}"
        );
    }

    /// The picker's trigger rate under GNSS noise does not depend on which
    /// noise generator drew it. Over noise seeds 1..=400 on the same quiet
    /// record, the trigger counts with `generate` and the frozen
    /// `generate_reference` differ by less than 3 standard errors of the
    /// difference of two binomial counts. The picker fires on only about
    /// a quarter of noisy realisations of this record, so no single seed
    /// says anything about picker robustness.
    #[test]
    fn picker_trigger_rate_is_generator_invariant() {
        let quiet = waveform(NoiseModel::none());
        let n = quiet.len();
        let h = NoiseModel::default();
        let models = [h, h, h.vertical()];
        let triggers = |gen: &dyn Fn(&NoiseModel, u64) -> Vec<f64>| {
            (1..=400u64)
                .filter(|&seed| {
                    let mut w = quiet.clone();
                    for (c, (series, m)) in [&mut w.east_m, &mut w.north_m, &mut w.up_m]
                        .into_iter()
                        .zip(&models)
                        .enumerate()
                    {
                        let noise = gen(m, seed * 3 + c as u64);
                        for (s, nz) in series.iter_mut().zip(noise) {
                            *s += nz;
                        }
                    }
                    sta_lta_pick(&w, 5, 30, 4.0).is_some()
                })
                .count() as f64
        };
        let fast = triggers(&|m, seed| m.generate(n, quiet.dt_s, seed));
        let reference = triggers(&|m, seed| m.generate_reference(n, quiet.dt_s, seed));
        let p = (fast + reference) / 800.0;
        let se_diff = (2.0 * 400.0 * p * (1.0 - p)).sqrt();
        assert!(
            (fast - reference).abs() < 3.0 * se_diff,
            "triggers {fast} vs reference {reference} of 400 (3 SE = {:.1})",
            3.0 * se_diff
        );
        assert!(reference > 0.0, "the noisy record never triggers");
    }

    #[test]
    fn warning_timing_is_consistent() {
        let w = waveform(NoiseModel::none());
        let t = warning_timing(&w).unwrap();
        assert!(t.pgd90_sample >= t.arrival_sample || t.convergence_secs == 0.0);
        assert!(t.convergence_secs >= 0.0);
        assert!(t.convergence_secs < 512.0);
    }

    #[test]
    #[should_panic(expected = "lta > sta")]
    fn bad_picker_windows_rejected() {
        let w = waveform(NoiseModel::none());
        sta_lta_pick(&w, 30, 5, 4.0);
    }
}
