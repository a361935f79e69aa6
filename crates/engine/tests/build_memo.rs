//! A registry builds each scenario at most once: every sweep on it —
//! repeated, concurrent, with any seed or roster — reuses the first
//! build's result, `Ok` or `Err`. Counted by a wrapper scenario, so no
//! process-global metric is involved.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use oic_core::{CoreError, DisturbanceProcess};
use oic_engine::{run_batch, BatchConfig, EngineError, PolicySpec};
use oic_scenarios::{
    DoubleIntegratorScenario, Scenario, ScenarioInstance, ScenarioRegistry, ThermalRcScenario,
};

/// Delegates to `inner`, counting its builds.
struct Counting {
    inner: Box<dyn Scenario>,
    builds: Arc<AtomicUsize>,
}

impl Scenario for Counting {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn description(&self) -> &'static str {
        self.inner.description()
    }

    fn build(&self) -> Result<ScenarioInstance, CoreError> {
        self.builds.fetch_add(1, Ordering::SeqCst);
        self.inner.build()
    }

    fn disturbance_process(&self, seed: u64) -> Box<dyn DisturbanceProcess> {
        self.inner.disturbance_process(seed)
    }
}

/// A scenario whose build always fails, counting its attempts.
struct NeverCertifies {
    builds: Arc<AtomicUsize>,
}

impl Scenario for NeverCertifies {
    fn name(&self) -> &'static str {
        "never-certifies"
    }

    fn description(&self) -> &'static str {
        "a scenario whose certificate never holds"
    }

    fn build(&self) -> Result<ScenarioInstance, CoreError> {
        self.builds.fetch_add(1, Ordering::SeqCst);
        Err(CoreError::CertificateFailed {
            inclusion: "X' ⊆ XI",
        })
    }

    fn disturbance_process(&self, _seed: u64) -> Box<dyn DisturbanceProcess> {
        unreachable!("a scenario that never builds runs no episode")
    }
}

fn plain_registry() -> ScenarioRegistry {
    let mut registry = ScenarioRegistry::new();
    registry.register(Box::new(DoubleIntegratorScenario));
    registry.register(Box::new(ThermalRcScenario::default()));
    registry
}

fn config(seed: u64) -> BatchConfig {
    BatchConfig {
        episodes: 3,
        steps: 10,
        seed,
        threads: 2,
        ..Default::default()
    }
}

fn sweep_bytes(registry: &ScenarioRegistry, policies: &[PolicySpec], seed: u64) -> String {
    run_batch(registry, policies, &config(seed))
        .unwrap()
        .to_json(true)
        .to_json()
}

#[test]
fn repeated_and_concurrent_sweeps_build_each_scenario_once() {
    let counters = [Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0))];
    let mut registry = ScenarioRegistry::new();
    registry.register(Box::new(Counting {
        inner: Box::new(DoubleIntegratorScenario),
        builds: Arc::clone(&counters[0]),
    }));
    registry.register(Box::new(Counting {
        inner: Box::new(ThermalRcScenario::default()),
        builds: Arc::clone(&counters[1]),
    }));
    let sweeps: [(Vec<PolicySpec>, u64); 3] = [
        (vec![PolicySpec::AlwaysRun, PolicySpec::Periodic(3)], 11),
        (vec![PolicySpec::Random(0.5)], 12),
        (vec![PolicySpec::BangBang, PolicySpec::MaxSkip(2)], 13),
    ];

    // The first two sweeps race for the first build from two threads,
    // released together.
    let start = Barrier::new(2);
    let (first, second) = std::thread::scope(|scope| {
        let [first, second] = [&sweeps[0], &sweeps[1]].map(|(policies, seed)| {
            let start = &start;
            let registry = &registry;
            scope.spawn(move || {
                start.wait();
                sweep_bytes(registry, policies, *seed)
            })
        });
        (first.join().unwrap(), second.join().unwrap())
    });
    let third = sweep_bytes(&registry, &sweeps[2].0, sweeps[2].1);

    for (bytes, (policies, seed)) in [first, second, third].iter().zip(&sweeps) {
        assert_eq!(
            bytes,
            &sweep_bytes(&plain_registry(), policies, *seed),
            "seed {seed}: a memoized instance sweeps like a fresh registry"
        );
    }
    for (counter, name) in counters.iter().zip(["double-integrator", "thermal-rc"]) {
        assert_eq!(counter.load(Ordering::SeqCst), 1, "{name} built once");
    }
}

#[test]
fn a_failing_build_runs_once_and_fails_every_sweep() {
    let builds = Arc::new(AtomicUsize::new(0));
    let mut registry = ScenarioRegistry::new();
    registry.register(Box::new(DoubleIntegratorScenario));
    registry.register(Box::new(NeverCertifies {
        builds: Arc::clone(&builds),
    }));
    let expected = EngineError::Episode {
        context: "never-certifies/build".to_string(),
        source: CoreError::CertificateFailed {
            inclusion: "X' ⊆ XI",
        },
    };
    for (policies, seed) in [
        (vec![PolicySpec::BangBang], 1),
        (vec![PolicySpec::AlwaysRun, PolicySpec::Random(0.25)], 2),
        (vec![PolicySpec::BangBang], 3),
    ] {
        let err = run_batch(&registry, &policies, &config(seed)).unwrap_err();
        assert_eq!(err, expected, "seed {seed}");
    }
    assert_eq!(builds.load(Ordering::SeqCst), 1, "the failure is memoized");
}
