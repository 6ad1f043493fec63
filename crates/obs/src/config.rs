//! Observability configuration and the aggregate event-count summary.

use serde::{Deserialize, Serialize};

/// Ring capacity used when [`ObsConfig::ring_capacity`] is 0 ("default").
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// Quantized-storage health-scan period (epochs) used when
/// [`ObsConfig::diag_period`] is 0 ("default").
pub const DEFAULT_DIAG_PERIOD: u64 = 16;

/// Observability switches, embedded in `SystemConfig` and `OdRlConfig`.
///
/// Defaults to **off**: the instrumented components then hold no tracer at
/// all and every recording site is a single `Option` check on the no-op
/// path, so disabled tracing costs nothing measurable and allocates
/// nothing.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObsConfig {
    /// Whether structured tracing + metrics are recorded.
    #[serde(default)]
    pub enabled: bool,
    /// Per-ring record capacity; 0 means [`DEFAULT_RING_CAPACITY`].
    /// Rings never grow: once full they overwrite their oldest records.
    /// A fleet with a flight recorder
    /// overrides this on every chip with the capacity that holds the
    /// recorder's window (see
    /// [`RecorderConfig::ring_capacity`](crate::RecorderConfig::ring_capacity)).
    #[serde(default)]
    pub ring_capacity: usize,
    /// Whether learning-health diagnostics (TD-error / greedy-Q-span /
    /// exploration summaries and quantized-storage health) are recorded.
    /// Requires `enabled`; off by default like all obs features.
    #[serde(default)]
    pub diag: bool,
    /// How often (epochs) the quantized-storage health scan runs; 0 means
    /// [`DEFAULT_DIAG_PERIOD`]. The scan walks every Q-row, so it is
    /// period-gated rather than per-epoch.
    #[serde(default)]
    pub diag_period: u64,
}

impl ObsConfig {
    /// Tracing enabled with the default ring capacity.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ring_capacity: 0,
            diag: false,
            diag_period: 0,
        }
    }

    /// Tracing enabled with an explicit per-ring capacity.
    pub fn with_ring_capacity(capacity: usize) -> Self {
        Self {
            ring_capacity: capacity,
            ..Self::enabled()
        }
    }

    /// Tracing and learning-health diagnostics both enabled, with default
    /// ring capacity and scan period.
    pub fn with_diagnostics() -> Self {
        Self {
            diag: true,
            ..Self::enabled()
        }
    }

    /// The capacity rings are actually built with (resolves the 0 =
    /// default sentinel).
    pub fn effective_ring_capacity(&self) -> usize {
        if self.ring_capacity == 0 {
            DEFAULT_RING_CAPACITY
        } else {
            self.ring_capacity
        }
    }

    /// Whether learning-health diagnostics are actually on (requires the
    /// tracer itself to be enabled).
    pub fn diagnostics(&self) -> bool {
        self.enabled && self.diag
    }

    /// The quantized-health scan period actually used (resolves the 0 =
    /// default sentinel).
    pub fn effective_diag_period(&self) -> u64 {
        if self.diag_period == 0 {
            DEFAULT_DIAG_PERIOD
        } else {
            self.diag_period
        }
    }
}

/// Per-kind event totals for one run, summed across the instrumented
/// components (controller watchdog/budget/RL events plus simulator fault
/// edges). The compact summary `exp_resilience` prints per cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventCounts {
    /// Watchdog stale-flag transitions (enter + clear).
    pub watchdog_stale: u64,
    /// Watchdog dead-flag transitions (enter + clear).
    pub watchdog_dead: u64,
    /// Chip-dark transitions (enter + clear).
    pub watchdog_dark: u64,
    /// Coarse-grain budget reallocations applied.
    pub reallocations: u64,
    /// Dead-core budget redistributions applied.
    pub redistributions: u64,
    /// Budget-overshoot onsets.
    pub overshoot_onsets: u64,
    /// Slack-market rounds that collected donations.
    #[serde(default)]
    pub market_donations: u64,
    /// Slack-market rounds that granted reclaimed watts.
    #[serde(default)]
    pub market_grants: u64,
    /// RL exploration choices taken.
    pub explorations: u64,
    /// Fault windows opened (all classes).
    pub faults_injected: u64,
    /// Fault windows closed (all classes).
    pub faults_cleared: u64,
}

impl EventCounts {
    /// Element-wise sum of two summaries (e.g. controller + system).
    #[must_use]
    pub fn merged(&self, other: &EventCounts) -> EventCounts {
        EventCounts {
            watchdog_stale: self.watchdog_stale + other.watchdog_stale,
            watchdog_dead: self.watchdog_dead + other.watchdog_dead,
            watchdog_dark: self.watchdog_dark + other.watchdog_dark,
            reallocations: self.reallocations + other.reallocations,
            redistributions: self.redistributions + other.redistributions,
            overshoot_onsets: self.overshoot_onsets + other.overshoot_onsets,
            market_donations: self.market_donations + other.market_donations,
            market_grants: self.market_grants + other.market_grants,
            explorations: self.explorations + other.explorations,
            faults_injected: self.faults_injected + other.faults_injected,
            faults_cleared: self.faults_cleared + other.faults_cleared,
        }
    }

    /// Total events across every kind.
    pub fn total(&self) -> u64 {
        self.watchdog_stale
            + self.watchdog_dead
            + self.watchdog_dark
            + self.reallocations
            + self.redistributions
            + self.overshoot_onsets
            + self.market_donations
            + self.market_grants
            + self.explorations
            + self.faults_injected
            + self.faults_cleared
    }

    /// Compact per-kind rendering for table cells, e.g.
    /// `st2 dd1 dk0 ra12 rd3 ov5 f8` (explorations omitted: they dominate
    /// volume without being resilience events; the market pair `dn/gr`
    /// is appended only when the slack market actually traded, so runs
    /// without a market render exactly as before).
    pub fn compact(&self) -> String {
        let mut s = format!(
            "st{} dd{} dk{} ra{} rd{} ov{} f{}",
            self.watchdog_stale,
            self.watchdog_dead,
            self.watchdog_dark,
            self.reallocations,
            self.redistributions,
            self.overshoot_onsets,
            self.faults_injected
        );
        if self.market_donations > 0 || self.market_grants > 0 {
            s.push_str(&format!(
                " dn{} gr{}",
                self.market_donations, self.market_grants
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_off_with_sentinel_capacity() {
        let c = ObsConfig::default();
        assert!(!c.enabled);
        assert_eq!(c.effective_ring_capacity(), DEFAULT_RING_CAPACITY);
        assert_eq!(ObsConfig::with_ring_capacity(128).effective_ring_capacity(), 128);
        assert!(ObsConfig::enabled().enabled);
        // Diagnostics default off and require the tracer to be enabled.
        assert!(!ObsConfig::enabled().diagnostics());
        let d = ObsConfig::with_diagnostics();
        assert!(d.enabled && d.diag && d.diagnostics());
        assert_eq!(d.effective_diag_period(), DEFAULT_DIAG_PERIOD);
        let orphan = ObsConfig {
            diag: true,
            ..ObsConfig::default()
        };
        assert!(!orphan.diagnostics());
    }

    #[test]
    fn serde_missing_fields_mean_disabled() {
        let c: ObsConfig = serde_json::from_str("{}").unwrap();
        assert_eq!(c, ObsConfig::default());
        let c: ObsConfig = serde_json::from_str(r#"{"enabled":true}"#).unwrap();
        assert!(c.enabled);
        assert_eq!(c.effective_ring_capacity(), DEFAULT_RING_CAPACITY);
        let json = serde_json::to_string(&ObsConfig::with_ring_capacity(64)).unwrap();
        let back: ObsConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.effective_ring_capacity(), 64);
        // Old configs without the diag fields deserialize to diag-off.
        let c: ObsConfig = serde_json::from_str(r#"{"enabled":true,"ring_capacity":32}"#).unwrap();
        assert!(!c.diag && c.diag_period == 0);
        let back: ObsConfig =
            serde_json::from_str(&serde_json::to_string(&ObsConfig::with_diagnostics()).unwrap())
                .unwrap();
        assert_eq!(back, ObsConfig::with_diagnostics());
    }

    #[test]
    fn counts_merge_and_render() {
        let a = EventCounts {
            watchdog_stale: 2,
            faults_injected: 1,
            ..EventCounts::default()
        };
        let b = EventCounts {
            watchdog_stale: 1,
            explorations: 10,
            ..EventCounts::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.watchdog_stale, 3);
        assert_eq!(m.total(), 14);
        assert_eq!(m.compact(), "st3 dd0 dk0 ra0 rd0 ov0 f1");
        // Market counters merge and only then appear in the rendering.
        let c = EventCounts {
            market_donations: 4,
            market_grants: 2,
            ..EventCounts::default()
        };
        let mc = m.merged(&c);
        assert_eq!(mc.total(), 20);
        assert_eq!(mc.compact(), "st3 dd0 dk0 ra0 rd0 ov0 f1 dn4 gr2");
    }
}
