//! Source time functions (STFs): the normalised slip-rate histories that
//! spread each subfault's slip over its rise time.
//!
//! MudPy's kinematic synthesis uses Dreger-style exponential and cosine
//! STFs. We implement both plus a triangle; the cumulative form (needed for
//! displacement waveforms, which are what GNSS records) is available in
//! closed form for each.

/// Supported source-time-function shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StfKind {
    /// Dreger STF: `s(t) ∝ t·exp(-t/τ)`, a realistic asymmetric pulse.
    Dreger,
    /// Cosine bell over the rise time.
    Cosine,
    /// Symmetric triangle over the rise time.
    Triangle,
}

impl StfKind {
    /// Normalised cumulative STF: fraction of the final slip completed at
    /// time `t` after onset, for a subfault with rise time `rise_s`.
    /// Returns 0 before onset, approaches 1 well after `rise_s`.
    pub fn cumulative(self, t: f64, rise_s: f64) -> f64 {
        if t <= 0.0 || rise_s <= 0.0 {
            return if t > 0.0 { 1.0 } else { 0.0 };
        }
        match self {
            StfKind::Dreger => {
                // s(t) = t e^{-t/tau}; integral = tau^2 (1 - e^{-t/tau}(1 + t/tau)).
                // tau chosen so that ~85% of moment is released within rise_s.
                let tau = rise_s / 3.0;
                let x = t / tau;
                1.0 - (-x).exp() * (1.0 + x)
            }
            StfKind::Cosine => {
                if t >= rise_s {
                    1.0
                } else {
                    0.5 - 0.5 * (std::f64::consts::PI * t / rise_s).cos()
                }
            }
            StfKind::Triangle => {
                let f = (t / rise_s).min(1.0);
                if f < 0.5 {
                    2.0 * f * f
                } else {
                    1.0 - 2.0 * (1.0 - f) * (1.0 - f)
                }
            }
        }
    }

    /// Time after onset from which [`Self::cumulative`] returns exactly
    /// `1.0`, for every `t > 0` with `t >= saturation_s(rise_s)`.
    ///
    /// Dreger saturates at `x = t/τ ≥ 42` (`14·rise_s`), where
    /// `e^{-x}(1+x) < 2.5e-17`, under the half-ulp below 1 (2^-54), so
    /// `1 - e^{-x}(1+x)` rounds to 1. Cosine and triangle reach 1 at the
    /// rise time itself.
    pub fn saturation_s(self, rise_s: f64) -> f64 {
        match self {
            StfKind::Dreger => 14.0 * rise_s,
            StfKind::Cosine | StfKind::Triangle => rise_s,
        }
    }

    /// Instantaneous slip rate (derivative of [`Self::cumulative`]) —
    /// useful for velocity waveforms and tests.
    pub fn rate(self, t: f64, rise_s: f64) -> f64 {
        if t <= 0.0 || rise_s <= 0.0 {
            return 0.0;
        }
        match self {
            StfKind::Dreger => {
                let tau = rise_s / 3.0;
                let x = t / tau;
                x * (-x).exp() / tau
            }
            StfKind::Cosine => {
                if t >= rise_s {
                    0.0
                } else {
                    0.5 * std::f64::consts::PI / rise_s * (std::f64::consts::PI * t / rise_s).sin()
                }
            }
            StfKind::Triangle => {
                let f = t / rise_s;
                if f >= 1.0 {
                    0.0
                } else if f < 0.5 {
                    4.0 * f / rise_s
                } else {
                    4.0 * (1.0 - f) / rise_s
                }
            }
        }
    }

    /// Label used in configuration files.
    pub fn label(self) -> &'static str {
        match self {
            StfKind::Dreger => "dreger",
            StfKind::Cosine => "cosine",
            StfKind::Triangle => "triangle",
        }
    }

    /// Parse a configuration label.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "dreger" => Some(StfKind::Dreger),
            "cosine" => Some(StfKind::Cosine),
            "triangle" => Some(StfKind::Triangle),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [StfKind; 3] = [StfKind::Dreger, StfKind::Cosine, StfKind::Triangle];

    #[test]
    fn cumulative_is_zero_before_onset() {
        for k in KINDS {
            assert_eq!(k.cumulative(0.0, 5.0), 0.0);
            assert_eq!(k.cumulative(-1.0, 5.0), 0.0);
        }
    }

    #[test]
    fn cumulative_reaches_one() {
        for k in KINDS {
            let v = k.cumulative(100.0, 5.0);
            assert!((v - 1.0).abs() < 1e-6, "{}: {v}", k.label());
        }
    }

    #[test]
    fn cumulative_monotone_nondecreasing() {
        for k in KINDS {
            let mut prev = 0.0;
            for i in 0..200 {
                let t = i as f64 * 0.1;
                let v = k.cumulative(t, 8.0);
                assert!(v + 1e-12 >= prev, "{} not monotone at t={t}", k.label());
                assert!((0.0..=1.0 + 1e-12).contains(&v));
                prev = v;
            }
        }
    }

    #[test]
    fn rate_integrates_to_cumulative() {
        for k in KINDS {
            let rise = 6.0;
            let dt = 1e-3;
            let mut acc = 0.0;
            for i in 0..((3.0 * rise / dt) as usize) {
                let t = i as f64 * dt;
                acc += k.rate(t + dt / 2.0, rise) * dt;
            }
            let cum = k.cumulative(3.0 * rise, rise);
            assert!(
                (acc - cum).abs() < 1e-3,
                "{}: integral {acc} vs cumulative {cum}",
                k.label()
            );
        }
    }

    #[test]
    fn zero_rise_time_is_a_step() {
        for k in KINDS {
            assert_eq!(k.cumulative(0.1, 0.0), 1.0);
            assert_eq!(k.cumulative(-0.1, 0.0), 0.0);
            assert_eq!(k.rate(0.1, 0.0), 0.0);
        }
    }

    #[test]
    fn labels_roundtrip() {
        for k in KINDS {
            assert_eq!(StfKind::parse(k.label()), Some(k));
        }
        assert_eq!(StfKind::parse("DREGER"), Some(StfKind::Dreger));
        assert_eq!(StfKind::parse("boxcar"), None);
    }

    #[test]
    fn dreger_releases_most_moment_within_rise_time() {
        let v = StfKind::Dreger.cumulative(5.0, 5.0);
        assert!(v > 0.75 && v < 0.95, "Dreger at t=rise: {v}");
    }
}
