//! Simulator configuration: shedding policy and the updateSIC ablation.
//!
//! The shedding policy is a [`Policy`] handle from the workspace-wide
//! [`themis_core::shedder::ShedderRegistry`] (shared with the prototype
//! engine, so externally registered policies simulate too); this module
//! only holds the simulator-specific switches around it.

use themis_core::prelude::*;

/// Simulator switches.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Shedding policy run by every node (the unified registry shared
    /// with the prototype engine); names resolve through
    /// [`themis_core::shedder::lookup_policy`].
    pub policy: Policy,
    /// Whether the query coordinators disseminate result SIC values
    /// (`updateSIC`). Disabling reproduces the Figure-4 "without
    /// updateSIC" pathology: nodes fall back to their local accepted-SIC
    /// view.
    pub coordinator: bool,
    /// Record per-query result values (needed by the §7.1 correlation
    /// experiments; memory-heavy for large runs).
    pub record_results: bool,
    /// Record the full per-query SIC time series (for the dynamics
    /// experiment); means are always recorded.
    pub record_series: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            policy: Policy::default(),
            coordinator: true,
            record_results: false,
            record_series: false,
        }
    }
}

impl SimConfig {
    /// Default config with the given policy.
    pub fn with_policy(policy: Policy) -> Self {
        SimConfig {
            policy,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = SimConfig::default();
        assert_eq!(c.policy.name(), "balance-sic");
        assert!(c.coordinator);
        assert!(!c.record_results);
        let c2 = SimConfig::with_policy(lookup_policy("random").unwrap());
        assert_eq!(c2.policy.name(), "random");
    }

    #[test]
    fn accepts_registered_policy_handles() {
        let p = lookup_policy("fifo").unwrap();
        let c = SimConfig::with_policy(p);
        assert_eq!(c.policy.name(), "fifo");
    }
}
