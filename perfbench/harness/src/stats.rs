//! Small numeric helpers, process facts, and a uniform view of `oic-obs`
//! telemetry whether it was snapshotted in-process or read from a
//! server's `/v1/metrics` document.

use std::collections::HashMap;

use oic_engine::JsonValue;

/// Linear-interpolated percentile (`q` in `[0, 1]`) of unsorted samples;
/// 0 for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Interquartile mean: the mean of the middle half of the sorted
/// samples (all of them when there are fewer than four). Robust to
/// outliers like the median, but it averages over the middle half
/// instead of picking one sample, so it does not jump when samples
/// fall into two speed levels of the host.
pub fn iq_mean(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    mean(&sorted[cut..sorted.len() - cut])
}

/// SplitMix64: derives independent seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

/// Worker threads the engine uses with `threads: 0`.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A merged histogram: count, sum, and log2 bucket counts (bucket `i`
/// holds values of bit length `i`, the `oic-obs` layout).
#[derive(Debug, Clone, Default)]
pub struct Hist {
    pub count: u64,
    pub sum: u64,
    pub buckets: Vec<(u64, u64)>,
}

impl Hist {
    /// Percentile estimate, interpolating linearly inside the log2
    /// bucket that holds the rank.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q * self.count as f64;
        let mut seen = 0u64;
        for &(le, n) in &self.buckets {
            if (seen + n) as f64 >= rank {
                let lo = (le / 2 + 1).min(le) as f64;
                let frac = ((rank - seen as f64) / n as f64).clamp(0.0, 1.0);
                return lo + (le as f64 - lo) * frac;
            }
            seen += n;
        }
        self.buckets.last().map_or(0.0, |&(le, _)| le as f64)
    }
}

/// Counters and histograms of one telemetry snapshot.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    pub counters: HashMap<String, u64>,
    pub hists: HashMap<String, Hist>,
}

impl Telemetry {
    /// The current in-process `oic-obs` registry.
    pub fn snapshot() -> Self {
        // The snapshot's JSON form is the same document the server
        // publishes, so both sources go through one parser.
        Self::from_json(
            &JsonValue::parse(&oic_obs::metrics_snapshot().to_json()).expect("obs snapshot JSON"),
        )
    }

    /// Parses an `oic-obs` snapshot document (`{"schema", "metrics"}`).
    pub fn from_json(doc: &JsonValue) -> Self {
        let mut out = Self::default();
        let Some(entries) = doc.get("metrics").and_then(JsonValue::as_object) else {
            return out;
        };
        for (name, entry) in entries {
            let num = |key: &str| entry.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
            match entry.get("type").and_then(JsonValue::as_str) {
                Some("counter") | Some("gauge") => {
                    out.counters.insert(name.clone(), num("value"));
                }
                Some("histogram") => {
                    let buckets = entry
                        .get("buckets")
                        .and_then(JsonValue::as_array)
                        .unwrap_or(&[])
                        .iter()
                        .map(|b| {
                            let field = |k: &str| {
                                b.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0) as u64
                            };
                            (field("le"), field("count"))
                        })
                        .collect();
                    out.hists.insert(
                        name.clone(),
                        Hist {
                            count: num("count"),
                            sum: num("sum"),
                            buckets,
                        },
                    );
                }
                _ => {}
            }
        }
        out
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn hist(&self, name: &str) -> Hist {
        self.hists.get(name).cloned().unwrap_or_default()
    }

    /// Sum of every histogram whose name starts with `prefix`, in ns.
    pub fn hist_sum_prefix(&self, prefix: &str) -> u64 {
        self.hists
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, h)| h.sum)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(iq_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]), 3.5);
        assert_eq!(iq_mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn histogram_percentile_stays_inside_its_bucket() {
        let h = Hist {
            count: 10,
            sum: 0,
            buckets: vec![(7, 5), (15, 5)],
        };
        let p50 = h.percentile(0.5);
        assert!((4.0..=7.0).contains(&p50), "{p50}");
        let p90 = h.percentile(0.9);
        assert!((8.0..=15.0).contains(&p90), "{p90}");
    }
}
