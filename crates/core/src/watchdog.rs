//! Graceful degradation: sensor watchdogs for the OD-RL control loop.
//!
//! The paper's control loop trusts its telemetry. On real silicon power
//! sensors hang, cores get hot-unplugged, and the chip-level meter can go
//! dark — and a learning controller fed garbage readings learns garbage
//! policies (a stuck-at-zero sensor reads as infinite headroom and the
//! agent ramps straight through the budget). [`SensorWatchdog`] closes
//! that gap from the controller side, using only the observations real
//! hardware exposes:
//!
//! * **stale sensors** — a per-core reading that repeats bit-exactly, or
//!   reads zero while the core retires instructions, for
//!   [`WatchdogConfig::stale_epochs`] consecutive epochs is declared
//!   stale; a non-finite power or IPS reading is stale at once. The
//!   controller substitutes the last *good* reading and widens
//!   the core's safety margin (shrinks its effective budget by
//!   [`WatchdogConfig::margin`]) until the sensor heals.
//! * **dead cores** — zero power *and* zero IPS for
//!   [`WatchdogConfig::dead_epochs`] consecutive epochs means the core is
//!   gone (hot-unplug or power gating). Its budget share is redistributed
//!   to the survivors and its agent's tainted transitions are skipped.
//! * **dark chip telemetry** — a chip-level reading of exactly zero for
//!   [`WatchdogConfig::dark_epochs`] consecutive epochs while cores are
//!   running means the global power meter is gone. Flying blind over the
//!   budget is the one failure that can damage the part, so the
//!   controller drops every core to the lowest VF level until the meter
//!   returns.
//!
//! All detection thresholds are counted in consecutive epochs, so a
//! single noisy reading never trips a watchdog. The watchdog allocates
//! only at construction; per-epoch observation is allocation-free.

use odrl_manycore::Observation;
use odrl_power::Watts;
use serde::{Deserialize, Serialize};

use crate::error::OdRlError;

/// Tuning of the controller-side sensor watchdog.
///
/// Disabled by default: the watchdog changes the decision stream the
/// moment a heuristic fires, so it is opt-in to keep fault-free runs
/// reproducible against earlier releases.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WatchdogConfig {
    /// Master switch; `false` (the default) disables all degradation
    /// logic.
    #[serde(default)]
    pub enabled: bool,
    /// Consecutive suspicious epochs (bit-exact repeat, or zero power
    /// with nonzero IPS) before a core's power sensor is declared stale.
    pub stale_epochs: u64,
    /// Consecutive epochs of zero power *and* zero IPS before a core is
    /// declared dead.
    pub dead_epochs: u64,
    /// Effective-budget multiplier applied to a core while its sensor is
    /// stale, in `(0, 1]`. Smaller is more conservative.
    pub margin: f64,
    /// Consecutive epochs of a zero chip-level reading (with cores still
    /// retiring instructions) before chip telemetry is declared dark.
    pub dark_epochs: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            stale_epochs: 5,
            dead_epochs: 3,
            margin: 0.7,
            dark_epochs: 3,
        }
    }
}

impl WatchdogConfig {
    /// A watchdog with all default thresholds, switched on.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// Validates the thresholds.
    ///
    /// # Errors
    ///
    /// Returns [`OdRlError::InvalidConfig`] for a zero epoch threshold or
    /// a margin outside `(0, 1]`.
    pub fn validate(&self) -> Result<(), OdRlError> {
        if self.stale_epochs == 0 {
            return Err(OdRlError::InvalidConfig {
                field: "watchdog.stale_epochs",
                reason: "must be at least 1".into(),
            });
        }
        if self.dead_epochs == 0 {
            return Err(OdRlError::InvalidConfig {
                field: "watchdog.dead_epochs",
                reason: "must be at least 1".into(),
            });
        }
        if self.dark_epochs == 0 {
            return Err(OdRlError::InvalidConfig {
                field: "watchdog.dark_epochs",
                reason: "must be at least 1".into(),
            });
        }
        if !(self.margin.is_finite() && self.margin > 0.0 && self.margin <= 1.0) {
            return Err(OdRlError::InvalidConfig {
                field: "watchdog.margin",
                reason: format!("must be in (0, 1], got {}", self.margin),
            });
        }
        Ok(())
    }
}

/// Per-core telemetry-health tracker (see the module docs for the
/// detection rules). Feed it every [`Observation`] in decision order;
/// query health flags afterwards.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorWatchdog {
    config: WatchdogConfig,
    /// The previous epoch's raw power reading per core.
    last_power: Vec<f64>,
    has_last: Vec<bool>,
    /// Consecutive suspicious-reading epochs per core.
    suspect: Vec<u64>,
    stale: Vec<bool>,
    /// The last reading that looked healthy, substituted while stale.
    held: Vec<Watts>,
    /// Consecutive zero-power/zero-IPS epochs per core.
    gone: Vec<u64>,
    dead: Vec<bool>,
    any_dead: bool,
    /// Consecutive zero chip-reading epochs.
    chip_zero: u64,
    dark: bool,
}

impl SensorWatchdog {
    /// A watchdog over `cores` cores. `config.enabled` is assumed true —
    /// the controller only constructs one when it is.
    pub fn new(config: WatchdogConfig, cores: usize) -> Self {
        Self {
            config,
            last_power: vec![0.0; cores],
            has_last: vec![false; cores],
            suspect: vec![0; cores],
            stale: vec![false; cores],
            held: vec![Watts::ZERO; cores],
            gone: vec![0; cores],
            dead: vec![false; cores],
            any_dead: false,
            chip_zero: 0,
            dark: false,
        }
    }

    /// Ingests one epoch's observation and refreshes every health flag.
    /// Allocation-free; call once per decision.
    pub fn observe(&mut self, obs: &Observation) {
        let n = self.last_power.len().min(obs.cores.len());
        let mut any_dead = false;
        let mut any_ips = false;
        for i in 0..n {
            let core = &obs.cores[i];
            let p = core.power.value();
            let ips = core.ips;
            any_ips |= ips > 0.0;

            // Dead: the core neither draws power nor retires instructions.
            if p == 0.0 && ips == 0.0 {
                self.gone[i] = self.gone[i].saturating_add(1);
            } else {
                self.gone[i] = 0;
            }
            self.dead[i] = self.gone[i] >= self.config.dead_epochs;
            any_dead |= self.dead[i];

            // Stale: the reading repeats bit-exactly (a healthy noisy
            // sensor essentially never does), or reads zero while the
            // core demonstrably runs. Both are counted in consecutive
            // epochs so quantised coincidences do not trip the flag.
            let repeated = self.has_last[i] && p == self.last_power[i];
            let zero_while_running = p == 0.0 && ips > 0.0;
            if !(p.is_finite() && ips.is_finite()) {
                // No sensor can really read ±∞ or NaN: the reading is
                // stale at once, and the last good one stays held.
                self.suspect[i] = self.suspect[i].max(self.config.stale_epochs);
            } else if repeated || zero_while_running {
                self.suspect[i] = self.suspect[i].saturating_add(1);
            } else {
                self.suspect[i] = 0;
                self.held[i] = core.power;
            }
            self.stale[i] = !self.dead[i] && self.suspect[i] >= self.config.stale_epochs;
            self.last_power[i] = p;
            self.has_last[i] = true;
        }
        self.any_dead = any_dead;

        // Dark chip telemetry: a zero total reading while cores retire
        // instructions. A genuinely idle chip (no IPS anywhere) reading
        // zero is plausible, so it does not count.
        if obs.total_power == Watts::ZERO && any_ips {
            self.chip_zero = self.chip_zero.saturating_add(1);
        } else {
            self.chip_zero = 0;
        }
        self.dark = self.chip_zero >= self.config.dark_epochs;
    }

    /// Whether core `i`'s power sensor is currently considered stale.
    pub fn is_stale(&self, i: usize) -> bool {
        self.stale[i]
    }

    /// Whether core `i` is currently considered dead.
    pub fn is_dead(&self, i: usize) -> bool {
        self.dead[i]
    }

    /// Whether any core is currently considered dead.
    pub fn any_dead(&self) -> bool {
        self.any_dead
    }

    /// Whether chip-level telemetry is currently considered dark.
    pub fn chip_dark(&self) -> bool {
        self.dark
    }

    /// The last healthy-looking reading of core `i`'s sensor — what the
    /// controller substitutes while the sensor is stale.
    pub fn held_power(&self, i: usize) -> Watts {
        self.held[i]
    }

    /// The effective-budget multiplier for stale cores.
    pub fn margin(&self) -> f64 {
        self.config.margin
    }

    /// The configuration this watchdog runs with.
    pub fn config(&self) -> &WatchdogConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odrl_manycore::{CoreObservation, Observation};
    use odrl_power::{Celsius, LevelId, Seconds};
    use odrl_workload::PhaseParams;

    fn obs(readings: &[(f64, f64)], total: f64) -> Observation {
        Observation {
            epoch: 0,
            dt: Seconds::new(0.01),
            budget: Watts::new(10.0),
            cores: readings
                .iter()
                .map(|&(power, ips)| CoreObservation {
                    level: LevelId(0),
                    ips,
                    power: Watts::new(power),
                    temperature: Celsius::new(50.0),
                    counters: PhaseParams::new(1.0, 1.0, 0.8).unwrap(),
                })
                .collect(),
            total_power: Watts::new(total),
        }
    }

    #[test]
    fn non_finite_reading_is_stale_at_once_and_holds_the_last_good() {
        let mut wd = SensorWatchdog::new(WatchdogConfig::enabled(), 2);
        wd.observe(&obs(&[(1.0, 1e9), (1.5, 1e9)], 2.5));
        for bad in [
            (f64::INFINITY, 1e9),
            (f64::NAN, 1e9),
            (1.2, f64::NEG_INFINITY),
        ] {
            wd.observe(&obs(&[bad, (1.6, 1e9)], 2.8));
            assert!(wd.is_stale(0), "{bad:?}");
            assert!(!wd.is_stale(1));
            assert_eq!(wd.held_power(0), Watts::new(1.0));
        }
        // The next healthy reading clears the flag and is held.
        wd.observe(&obs(&[(1.1, 1e9), (1.7, 1e9)], 2.8));
        assert!(!wd.is_stale(0));
        assert_eq!(wd.held_power(0), Watts::new(1.1));
    }

    #[test]
    fn healthy_telemetry_raises_no_flags() {
        let mut wd = SensorWatchdog::new(WatchdogConfig::enabled(), 2);
        for k in 0..20 {
            // Wobbling readings, busy cores.
            let p = 1.0 + 0.01 * f64::from(k);
            wd.observe(&obs(&[(p, 1e9), (p + 0.5, 1e9)], 2.0 * p));
        }
        assert!(!wd.is_stale(0) && !wd.is_stale(1));
        assert!(!wd.is_dead(0) && !wd.any_dead());
        assert!(!wd.chip_dark());
    }

    #[test]
    fn bit_exact_repeats_trip_the_stale_flag_and_heal() {
        let cfg = WatchdogConfig::enabled();
        let mut wd = SensorWatchdog::new(cfg, 1);
        wd.observe(&obs(&[(2.0, 1e9)], 2.0));
        // The reading freezes at 1.5 W; the first frozen epoch is the
        // last healthy-looking one (no repeat yet), so 1.5 W is held.
        for _ in 0..cfg.stale_epochs + 1 {
            wd.observe(&obs(&[(1.5, 1e9)], 1.5));
        }
        assert!(wd.is_stale(0));
        assert_eq!(wd.held_power(0), Watts::new(1.5));
        // A fresh (different) reading heals the sensor immediately.
        wd.observe(&obs(&[(2.2, 1e9)], 2.2));
        assert!(!wd.is_stale(0));
        assert_eq!(wd.held_power(0), Watts::new(2.2));
    }

    #[test]
    fn zero_power_on_a_busy_core_is_stale_not_dead() {
        let cfg = WatchdogConfig::enabled();
        let mut wd = SensorWatchdog::new(cfg, 1);
        wd.observe(&obs(&[(1.8, 1e9)], 1.8));
        for _ in 0..cfg.stale_epochs {
            wd.observe(&obs(&[(0.0, 1e9)], 1.8));
        }
        assert!(wd.is_stale(0));
        assert!(!wd.is_dead(0));
        assert_eq!(wd.held_power(0), Watts::new(1.8));
    }

    #[test]
    fn dead_cores_are_detected_and_rejoin() {
        let cfg = WatchdogConfig::enabled();
        let mut wd = SensorWatchdog::new(cfg, 2);
        wd.observe(&obs(&[(1.0, 1e9), (1.0, 1e9)], 2.0));
        for _ in 0..cfg.dead_epochs {
            wd.observe(&obs(&[(0.0, 0.0), (1.1, 1e9)], 1.1));
        }
        assert!(wd.is_dead(0));
        assert!(!wd.is_dead(1));
        assert!(wd.any_dead());
        // The core comes back: flags clear on the first live epoch.
        wd.observe(&obs(&[(0.9, 5e8), (1.1, 1e9)], 2.0));
        assert!(!wd.is_dead(0));
        assert!(!wd.any_dead());
    }

    #[test]
    fn dark_chip_needs_running_cores() {
        let cfg = WatchdogConfig::enabled();
        let mut wd = SensorWatchdog::new(cfg, 1);
        // Zero total while the core runs: dark after the threshold.
        for _ in 0..cfg.dark_epochs {
            wd.observe(&obs(&[(1.0, 1e9)], 0.0));
        }
        assert!(wd.chip_dark());
        // Meter returns: the flag clears.
        wd.observe(&obs(&[(1.0, 1e9)], 1.0));
        assert!(!wd.chip_dark());
        // A genuinely idle chip reading zero is never dark.
        let mut wd = SensorWatchdog::new(cfg, 1);
        for _ in 0..10 {
            wd.observe(&obs(&[(0.0, 0.0)], 0.0));
        }
        assert!(!wd.chip_dark());
    }

    #[test]
    fn single_glitches_do_not_trip_anything() {
        let cfg = WatchdogConfig::enabled();
        let mut wd = SensorWatchdog::new(cfg, 1);
        for k in 0..50u32 {
            if k % 7 == 3 {
                // isolated repeat / zero glitch
                wd.observe(&obs(&[(0.0, 1e9)], 1.0));
            } else {
                wd.observe(&obs(&[(1.0 + 0.01 * f64::from(k), 1e9)], 1.0));
            }
            assert!(!wd.is_stale(0), "epoch {k}");
            assert!(!wd.is_dead(0), "epoch {k}");
        }
    }

    #[test]
    fn config_validation() {
        WatchdogConfig::default().validate().unwrap();
        WatchdogConfig::enabled().validate().unwrap();
        let bad = WatchdogConfig {
            stale_epochs: 0,
            ..WatchdogConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = WatchdogConfig {
            dead_epochs: 0,
            ..WatchdogConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = WatchdogConfig {
            dark_epochs: 0,
            ..WatchdogConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = WatchdogConfig {
            margin: 0.0,
            ..WatchdogConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = WatchdogConfig {
            margin: 1.5,
            ..WatchdogConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn serde_roundtrips() {
        let cfg = WatchdogConfig::enabled();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: WatchdogConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }
}
