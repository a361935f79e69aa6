//! The scenario library + batch engine in one screen: build every
//! registered case study, stream a multi-policy sweep through the
//! work-stealing pool, and print the aggregate statistics, the scheduler
//! counters, and the JSON report location.
//!
//! Run with: `cargo run --release --example scenario_batch`

use oic::engine::{run_batch_opts, BatchConfig, PolicySpec, SweepOptions};
use oic::scenarios::ScenarioRegistry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let registry = ScenarioRegistry::standard();
    println!("registered scenarios:");
    for scenario in registry.iter() {
        println!("  {:<18} {}", scenario.name(), scenario.description());
    }

    let policies = [
        PolicySpec::AlwaysRun,
        PolicySpec::BangBang,
        PolicySpec::Periodic(4),
    ];
    let config = BatchConfig {
        episodes: 20,
        steps: 80,
        seed: 2020,
        // detail: false (default) streams per-episode records into the
        // constant-size accumulator — memory stays O(cells) even for
        // million-episode sweeps.
        ..Default::default()
    };
    println!(
        "\nstreaming {} episodes x {} steps per (scenario, policy) cell through the work-stealing pool...\n",
        config.episodes, config.steps
    );
    let (report, stats) = run_batch_opts(&registry, &policies, &config, &SweepOptions::default())?;
    print!("{}", report.render_table());
    println!(
        "\ntotal safety violations: {} (Theorem 1 holds on every scenario)",
        report.total_safety_violations()
    );
    println!(
        "scheduler: {} chunk tasks on {} workers ({} steals, {} injector refills)",
        stats.steal.executed, stats.steal.workers, stats.steal.steals, stats.steal.injector_grabs
    );

    let path = std::env::temp_dir().join("oic_scenario_batch.json");
    std::fs::write(&path, report.to_json(false).to_json_pretty())?;
    println!("seed-stable JSON report: {}", path.display());
    Ok(())
}
