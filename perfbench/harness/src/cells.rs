//! Result-cell accounting shared by the sweep and serve workloads: both
//! read cells in their wire form (the batch report's cell object, which
//! is also the `data` of a served cell line), so one parser serves both.

use std::collections::HashMap;

use oic_engine::JsonValue;

/// The facts of one result cell the benchmark uses.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRow {
    pub scenario: String,
    pub policy: String,
    pub failed: bool,
    pub episodes: usize,
    pub steps: usize,
    pub skipped: usize,
    pub forced_runs: usize,
    pub mean_effort: f64,
    pub safety_violations: usize,
}

impl CellRow {
    pub fn from_json(cell: &JsonValue) -> Result<Self, String> {
        let text = |key: &str| {
            cell.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("cell without {key:?}: {}", cell.to_json()))
        };
        let count = |key: &str| cell.get(key).and_then(JsonValue::as_usize).unwrap_or(0);
        Ok(Self {
            scenario: text("scenario")?,
            policy: text("policy")?,
            failed: cell.get("outcome").and_then(JsonValue::as_str) == Some("failed"),
            episodes: count("episodes"),
            steps: count("total_steps"),
            skipped: count("skipped_steps"),
            forced_runs: count("forced_runs"),
            mean_effort: cell
                .get("mean_actuation_effort")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0),
            safety_violations: count("safety_violations"),
        })
    }

    /// A failed operation: the cell degraded, or Theorem 1 was violated
    /// on the nominal actuator (no workload uses dropout).
    pub fn is_failed_op(&self) -> bool {
        self.failed || self.safety_violations > 0
    }

    /// Whether the policy can skip at all (`always-run` never does).
    pub fn skip_capable(&self) -> bool {
        self.policy != "always-run"
    }
}

/// Skip rate and actuation saving over groups of cells (one sweep call
/// or one served response per group).
#[derive(Debug, Default)]
pub struct Quality {
    steps: usize,
    skipped: usize,
    /// Per scenario: the summed mean effort of its skip-capable cells,
    /// and the summed mean effort of the `always-run` cells each was
    /// compared against.
    efforts: HashMap<String, (f64, f64)>,
}

impl Quality {
    /// Adds one group. Each skip-capable cell is paired with the
    /// `always-run` cell of the same scenario in the same group.
    pub fn add_group(&mut self, cells: &[CellRow]) {
        let baseline: HashMap<&str, f64> = cells
            .iter()
            .filter(|c| !c.skip_capable() && !c.failed)
            .map(|c| (c.scenario.as_str(), c.mean_effort))
            .collect();
        for cell in cells.iter().filter(|c| c.skip_capable() && !c.failed) {
            self.steps += cell.steps;
            self.skipped += cell.skipped;
            if let Some(&base) = baseline.get(cell.scenario.as_str()) {
                let pooled = self.efforts.entry(cell.scenario.clone()).or_default();
                pooled.0 += cell.mean_effort;
                pooled.1 += base;
            }
        }
    }

    /// Skipped steps over steps of non-failed skip-capable cells.
    pub fn skip_rate(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.skipped as f64 / self.steps as f64
        }
    }

    /// Median over scenarios of the pooled saving 1 − Σ effort /
    /// Σ baseline effort. Pooling keeps noisy small cells from
    /// dominating; the median, unlike the mean, is not dragged to near
    /// zero by the unstable plants, where skipping costs several times
    /// the baseline effort (a saving of −2).
    pub fn actuation_saving(&self) -> f64 {
        let savings: Vec<f64> = self
            .efforts
            .values()
            .filter(|(_, base)| *base > 0.0)
            .map(|(effort, base)| 1.0 - effort / base)
            .collect();
        crate::stats::median(&savings)
    }

    /// The scenarios behind the saving.
    pub fn scenarios(&self) -> usize {
        self.efforts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(policy: &str, effort: f64, extra: &str) -> CellRow {
        let doc = format!(
            r#"{{"scenario":"s","policy":"{policy}","episodes":2,"total_steps":10,"skipped_steps":6,"forced_runs":1,"policy_runs":3,"mean_actuation_effort":{effort},"safety_violations":0{extra}}}"#
        );
        CellRow::from_json(&JsonValue::parse(&doc).unwrap()).unwrap()
    }

    #[test]
    fn failed_cells_and_violations_are_failed_operations() {
        assert!(!row("bang-bang", 1.0, "").is_failed_op());
        let failed = CellRow::from_json(
            &JsonValue::parse(
                r#"{"scenario":"s","policy":"p","outcome":"failed","reason":"episode 72: outside"}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert!(failed.failed && failed.is_failed_op());
        let mut violated = row("bang-bang", 1.0, "");
        violated.safety_violations = 1;
        assert!(violated.is_failed_op());
    }

    #[test]
    fn quality_compares_against_the_same_scenarios_always_run_cell() {
        let mut q = Quality::default();
        q.add_group(&[row("always-run", 4.0, ""), row("bang-bang", 1.0, "")]);
        assert_eq!(q.skip_rate(), 0.6, "always-run cells do not count");
        assert_eq!(q.actuation_saving(), 0.75);
        assert_eq!(q.scenarios(), 1);
    }
}
