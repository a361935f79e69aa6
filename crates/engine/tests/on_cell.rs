//! `SweepOptions::on_cell` hands the caller every owned cell exactly
//! once, in ascending global index, on the calling thread, carrying the
//! bytes the report holds at that position — whether the cell was a
//! cache hit, ran to completion, or degraded to a failed entry, and at
//! any worker count.

use std::sync::Mutex;
use std::thread::ThreadId;

use oic_engine::{
    run_batch_opts, BatchConfig, CellCache, CellReport, FaultPlan, PolicySpec, ShardInfo,
    SweepOptions,
};
use oic_scenarios::{DoubleIntegratorScenario, ScenarioRegistry, ThermalRcScenario};

const POLICIES: [PolicySpec; 5] = [
    PolicySpec::AlwaysRun,
    PolicySpec::BangBang,
    PolicySpec::Periodic(3),
    PolicySpec::Random(0.5),
    PolicySpec::MaxSkip(2),
];

fn registry() -> ScenarioRegistry {
    let mut registry = ScenarioRegistry::new();
    registry.register(Box::new(DoubleIntegratorScenario));
    registry.register(Box::new(ThermalRcScenario::default()));
    registry
}

fn config(threads: usize) -> BatchConfig {
    BatchConfig {
        episodes: 6,
        steps: 20,
        seed: 17,
        threads,
        chunk: 2,
        ..Default::default()
    }
}

fn cell_bytes(cell: &CellReport) -> String {
    cell.to_json(false).to_json()
}

#[test]
fn on_cell_fires_once_per_owned_cell_in_report_order() {
    let registry = registry();
    let shard = ShardInfo { index: 0, of: 2 };
    let plan = FaultPlan {
        seed: 4,
        panic_rate: 0.25,
        nan_rate: 0.25,
    };
    let grid = registry.len() * POLICIES.len();
    let owned: Vec<usize> = (0..grid).filter(|&g| shard.owns(g)).collect();

    let mut reports = Vec::new();
    for threads in [1, 8] {
        // A fresh store per run: the double integrator's cells are
        // cached, the thermal ones are not.
        let cache = CellCache::in_memory();
        let filter = ["double-integrator".to_string()];
        let prefill = SweepOptions {
            scenarios: Some(&filter),
            cache: Some(&cache),
            ..Default::default()
        };
        run_batch_opts(&registry, &POLICIES, &config(threads), &prefill).unwrap();

        let seen: Mutex<Vec<(usize, String, ThreadId)>> = Mutex::new(Vec::new());
        let on_cell = |g: usize, cell: &CellReport| {
            let entry = (g, cell_bytes(cell), std::thread::current().id());
            seen.lock().unwrap().push(entry);
        };
        let opts = SweepOptions {
            shard: Some(shard),
            cache: Some(&cache),
            on_cell: Some(&on_cell),
            faults: Some(&plan),
            ..Default::default()
        };
        let (report, stats) =
            run_batch_opts(&registry, &POLICIES, &config(threads), &opts).unwrap();

        // The grid mixes all three ways a cell completes.
        let ran = report.cells.len() - stats.cells_from_cache - stats.cells_failed;
        assert!(
            stats.cells_from_cache > 0,
            "threads {threads}: no cache hit"
        );
        assert!(stats.cells_failed > 0, "threads {threads}: no failed cell");
        assert!(ran > 0, "threads {threads}: no cell ran to completion");

        let seen = seen.into_inner().unwrap();
        let indices: Vec<usize> = seen.iter().map(|(g, _, _)| *g).collect();
        assert_eq!(indices, owned, "threads {threads}");
        assert_eq!(seen.len(), report.cells.len());
        for ((g, bytes, thread), cell) in seen.iter().zip(&report.cells) {
            assert_eq!(bytes, &cell_bytes(cell), "threads {threads}, cell {g}");
            assert_eq!(*thread, std::thread::current().id(), "cell {g}");
        }
        reports.push(report.to_json(false).to_json());
    }
    assert_eq!(reports[0], reports[1], "1 and 8 workers, same cells");
}
