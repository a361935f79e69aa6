//! The scenario registry.

use crate::{
    AccScenario, CstrScenario, DcMotorScenario, DoubleIntegratorScenario, LaneKeepingScenario,
    OrbitHoldScenario, PendulumCartScenario, QuadrotorAltScenario, Scenario, ScenarioInstance,
    ThermalRcScenario, TwoMassSpringScenario,
};

use oic_core::CoreError;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// A named collection of scenarios.
///
/// The registry builds each scenario **at most once**: [`instance`]
/// memoizes an entry's build result (`Ok` or `Err`) on first use and
/// hands every later caller the same value. That is sound because
/// [`Scenario::build`] is a pure function of the registered scenario
/// value and a registered value never changes, so the memo needs no key
/// beyond the entry. A long-lived registry (the sweep server's, or an
/// in-process caller that sweeps repeatedly) pays for each build once.
///
/// [`instance`]: Self::instance
///
/// Besides the scenarios themselves, a registry entry can carry an
/// optional **trained-policy weight blob** (`oic-nn` binary
/// serialization) — the learned counterpart of the analytic policies,
/// stored alongside the scenario the network was trained for so batch
/// harnesses can sweep learned skipping without a side channel.
///
/// # Examples
///
/// ```
/// let registry = oic_scenarios::ScenarioRegistry::standard();
/// let names = registry.names();
/// assert!(names.contains(&"acc"));
/// assert!(names.contains(&"orbit-hold"));
/// ```
#[derive(Default)]
pub struct ScenarioRegistry {
    entries: Vec<Entry>,
    policy_weights: BTreeMap<&'static str, Arc<Vec<u8>>>,
}

/// A registered scenario and its build result, filled on first use.
struct Entry {
    scenario: Box<dyn Scenario>,
    built: OnceLock<Result<ScenarioInstance, CoreError>>,
}

impl ScenarioRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The built-in case studies (the paper's ACC plus nine more plants,
    /// in registration = report order; the ≥3-state plants come last so
    /// existing report baselines keep their cell order).
    pub fn standard() -> Self {
        let mut registry = Self::new();
        registry.register(Box::new(AccScenario::default()));
        registry.register(Box::new(DoubleIntegratorScenario));
        registry.register(Box::new(LaneKeepingScenario::default()));
        registry.register(Box::new(OrbitHoldScenario::default()));
        registry.register(Box::new(ThermalRcScenario::default()));
        registry.register(Box::new(QuadrotorAltScenario::default()));
        registry.register(Box::new(PendulumCartScenario::default()));
        registry.register(Box::new(DcMotorScenario::default()));
        registry.register(Box::new(CstrScenario::default()));
        registry.register(Box::new(TwoMassSpringScenario::default()));
        registry
    }

    /// Adds a scenario.
    ///
    /// # Panics
    ///
    /// Panics if a scenario with the same name is already registered.
    pub fn register(&mut self, scenario: Box<dyn Scenario>) {
        assert!(
            self.get(scenario.name()).is_none(),
            "scenario {:?} is already registered",
            scenario.name()
        );
        self.entries.push(Entry {
            scenario,
            built: OnceLock::new(),
        });
    }

    fn entry(&self, name: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.scenario.name() == name)
    }

    /// Looks a scenario up by name.
    pub fn get(&self, name: &str) -> Option<&dyn Scenario> {
        self.entry(name).map(|e| e.scenario.as_ref())
    }

    /// The built instance of the scenario registered as `name` (`None`
    /// when nothing is): `build` runs on the first call for that entry,
    /// and its result — `Ok` or `Err` — answers every later call on this
    /// registry without running `build` again. Concurrent first calls
    /// build once; the others wait for that result.
    ///
    /// `build` must return `scenario.build()` for the scenario it is
    /// handed; it may wrap that call in passive telemetry (the batch
    /// engine times it into its build span and histogram, which
    /// therefore count real builds, not lookups).
    pub fn instance(
        &self,
        name: &str,
        build: impl FnOnce(&dyn Scenario) -> Result<ScenarioInstance, CoreError>,
    ) -> Option<&Result<ScenarioInstance, CoreError>> {
        let entry = self.entry(name)?;
        Some(entry.built.get_or_init(|| build(entry.scenario.as_ref())))
    }

    /// All registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.iter().map(|s| s.name()).collect()
    }

    /// Iterates the scenarios in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Scenario> {
        self.entries.iter().map(|e| e.scenario.as_ref())
    }

    /// Number of registered scenarios.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Attaches a trained skipping-policy weight blob to a registered
    /// scenario (replacing any previous blob for that scenario).
    ///
    /// # Panics
    ///
    /// Panics if no scenario with that name is registered — a blob
    /// without its plant is always a caller bug.
    pub fn attach_policy_weights(&mut self, name: &str, weights: impl Into<Vec<u8>>) {
        let key = self
            .get(name)
            .unwrap_or_else(|| panic!("scenario {name:?} is not registered"))
            .name();
        self.policy_weights.insert(key, Arc::new(weights.into()));
    }

    /// The trained-policy blob attached to a scenario, if any.
    pub fn policy_weights(&self, name: &str) -> Option<&Arc<Vec<u8>>> {
        self.policy_weights.get(name)
    }

    /// All `(scenario name, weight blob)` pairs, in scenario-name order
    /// (deterministic roster order for sweeps).
    pub fn policy_weight_entries(&self) -> impl Iterator<Item = (&'static str, &Arc<Vec<u8>>)> {
        self.policy_weights.iter().map(|(k, v)| (*k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_has_ten_unique_scenarios() {
        let registry = ScenarioRegistry::standard();
        assert_eq!(registry.len(), 10);
        let names = registry.names();
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "names must be unique");
        assert_eq!(
            names,
            vec![
                "acc",
                "double-integrator",
                "lane-keeping",
                "orbit-hold",
                "thermal-rc",
                "quadrotor-alt",
                "pendulum-cart",
                "dc-motor",
                "cstr",
                "two-mass-spring"
            ]
        );
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_registration_panics() {
        let mut registry = ScenarioRegistry::standard();
        registry.register(Box::new(DoubleIntegratorScenario));
    }

    #[test]
    fn policy_weight_blobs_ride_with_scenarios() {
        let mut registry = ScenarioRegistry::standard();
        assert!(registry.policy_weights("acc").is_none());
        registry.attach_policy_weights("acc", vec![1u8, 2, 3]);
        registry.attach_policy_weights("double-integrator", vec![4u8]);
        assert_eq!(
            registry.policy_weights("acc").unwrap().as_slice(),
            &[1, 2, 3]
        );
        let entries: Vec<&str> = registry.policy_weight_entries().map(|(n, _)| n).collect();
        assert_eq!(entries, ["acc", "double-integrator"], "name-ordered");
        // Replacement, not duplication.
        registry.attach_policy_weights("acc", vec![9u8]);
        assert_eq!(registry.policy_weights("acc").unwrap().as_slice(), &[9]);
    }

    #[test]
    #[should_panic(expected = "is not registered")]
    fn weights_for_unknown_scenario_panic() {
        let mut registry = ScenarioRegistry::new();
        registry.attach_policy_weights("ghost", vec![1u8]);
    }

    #[test]
    fn lookup_by_name() {
        let registry = ScenarioRegistry::standard();
        assert!(registry.get("thermal-rc").is_some());
        assert!(registry.get("nonexistent").is_none());
        assert!(!registry.is_empty());
    }
}
