//! Shared experiment plumbing: scaling knobs, paired episode runs, and
//! saving statistics.

use oic_core::acc::{AccCaseStudy, EpisodeConfig, EpisodeOutcome};
use oic_core::{CoreError, SkipPolicy};
use oic_sim::front::FrontModel;
use oic_sim::fuel::Hbefa3Fuel;

/// Size knobs shared by all experiment binaries.
///
/// Defaults match the paper's protocol (500 cases × 100 steps). Each bin
/// accepts only the flags it reads: [`FIG_FLAGS`], [`EVAL_FLAGS`] or
/// [`BATCH_FLAGS`]. The engine-backed sweep additionally honors
/// `--threads N` (0 = all cores), `--chunk N` (episodes per
/// work-stealing task, 0 = auto) and `--stream`/`--detail` (drop or keep
/// per-episode records; streaming is the default and keeps memory
/// O(cells)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentScale {
    /// Number of random test cases per experiment.
    pub cases: usize,
    /// Steps per episode (the paper evaluates 100).
    pub steps: usize,
    /// DRL training episodes per experiment.
    pub train_episodes: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads for engine sweeps (0 = one per available CPU).
    pub threads: usize,
    /// Episodes per work-stealing task (0 = deterministic auto sizing).
    pub chunk: usize,
    /// Stream aggregation only (`true`, the default) vs. keeping
    /// per-episode detail rows in the report.
    pub stream: bool,
    /// Extra policy roster entries (`--policies drl:<path>[,…]`): each
    /// `drl:<path>` adds a learned skipping policy from an `oic-nn`
    /// weight blob on disk, named after the file stem.
    pub policies: Vec<String>,
    /// Optional path for the JSON report.
    pub out: Option<String>,
    /// Optional path for the `oic-obs` metrics snapshot (`--metrics`).
    pub metrics_out: Option<String>,
    /// Optional path for the Chrome trace export (`--trace`); also turns
    /// span recording on for the run.
    pub trace_out: Option<String>,
    /// Optional content-addressed cell-cache directory (`--cache-dir`):
    /// cells already stored there are answered without running episodes,
    /// new cells are stored as they complete. Results stay byte-identical
    /// either way.
    pub cache_dir: Option<String>,
    /// Optional shard assignment (`--shard i/n`): run only the cells
    /// whose global index `g` satisfies `g % n == i`; merge shard
    /// reports back with `serve merge`.
    pub shard: Option<String>,
    /// Environment-forced actuation-dropout variants
    /// (`--dropout none,bernoulli-0.1,mk-1-5`): each label adds a
    /// dropout axis value to every `(scenario, policy)` cell. Empty
    /// (the default) keeps the fault-free grid and its exact report
    /// bytes.
    pub dropout: Vec<String>,
    /// Optional deterministic fault-injection plan
    /// (`--fault-plan plan.json`): a JSON document with `seed`,
    /// `panic_rate`, and `nan_rate` keys, applied per cell hash. The
    /// sweep degrades (failed cells, never aborts) under the plan.
    pub fault_plan: Option<String>,
}

impl Default for ExperimentScale {
    fn default() -> Self {
        Self {
            cases: 500,
            steps: 100,
            train_episodes: 300,
            seed: 2020,
            threads: 0,
            chunk: 0,
            stream: true,
            policies: Vec::new(),
            out: None,
            metrics_out: None,
            trace_out: None,
            cache_dir: None,
            shard: None,
            dropout: Vec::new(),
            fault_plan: None,
        }
    }
}

/// Every flag [`ExperimentScale::from_args`] knows, in usage order, with
/// the value its usage shows (empty for a switch).
const FLAGS: [(&str, &str); 16] = [
    ("--cases", "N"),
    ("--steps", "N"),
    ("--train", "N"),
    ("--seed", "N"),
    ("--threads", "N"),
    ("--chunk", "N"),
    ("--stream", ""),
    ("--detail", ""),
    ("--policies", "drl:<path>[,...]"),
    ("--out", "FILE"),
    ("--metrics", "FILE"),
    ("--trace", "FILE"),
    ("--cache-dir", "DIR"),
    ("--shard", "i/n"),
    ("--dropout", "LABEL[,...]"),
    ("--fault-plan", "FILE"),
];

/// The flags of the `fig4`, `fig5` and `fig6` bins.
pub const FIG_FLAGS: &[&str] = &["--cases", "--steps", "--train", "--seed", "--out"];

/// The flags of the `timing` and `ablation` bins, which train no policy.
pub const EVAL_FLAGS: &[&str] = &["--cases", "--steps", "--seed", "--out"];

/// The flags of the `batch` bin: every flag but `--train`, since the
/// sweep trains no policy.
pub const BATCH_FLAGS: &[&str] = &[
    "--cases",
    "--steps",
    "--seed",
    "--threads",
    "--chunk",
    "--stream",
    "--detail",
    "--policies",
    "--out",
    "--metrics",
    "--trace",
    "--cache-dir",
    "--shard",
    "--dropout",
    "--fault-plan",
];

/// The usage text of a bin whose flags are `accepted`.
fn usage(accepted: &[&str]) -> String {
    let shown: Vec<String> = FLAGS
        .iter()
        .filter(|(flag, _)| accepted.contains(flag))
        .map(|(flag, value)| match *value {
            "" => format!("[{flag}]"),
            value => format!("[{flag} {value}]"),
        })
        .collect();
    shown.join(" ")
}

/// Why a bin's argument parser produced no arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ArgsError {
    /// `--help` was given: the caller prints the usage and succeeds.
    Help,
    /// An unknown flag, a flag without its value, or a number that does
    /// not parse; the message names the offending argument.
    Invalid(String),
}

/// The value following `flag`, or the error naming the missing value.
pub(crate) fn flag_value(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<String, ArgsError> {
    args.next()
        .ok_or_else(|| ArgsError::Invalid(format!("{flag} needs a value")))
}

/// The number following `flag`, or the error naming what did not parse.
pub(crate) fn flag_number<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, ArgsError> {
    let value = flag_value(args, flag)?;
    value
        .parse()
        .map_err(|_| ArgsError::Invalid(format!("{flag} expects a number, got {value:?}")))
}

/// Prints the usage of the `bin` binary, whose flags are `flags`, and
/// exits: with `problem == None` (`--help`) to stdout with status 0,
/// otherwise the problem and the usage to stderr with status 2.
pub fn usage_exit(bin: &str, flags: &str, problem: Option<&str>) -> ! {
    match problem {
        None => {
            println!("usage: {bin} {flags}");
            std::process::exit(0);
        }
        Some(problem) => {
            eprintln!("{bin}: {problem}\nusage: {bin} {flags}");
            std::process::exit(2);
        }
    }
}

/// The parsed arguments of the `bin` binary, whose flags are `flags`, or
/// the [`usage_exit`] that `parsed`'s error calls for.
pub(crate) fn parsed_or_exit<T>(bin: &str, flags: &str, parsed: Result<T, ArgsError>) -> T {
    match parsed {
        Ok(args) => args,
        Err(ArgsError::Help) => usage_exit(bin, flags, None),
        Err(ArgsError::Invalid(message)) => usage_exit(bin, flags, Some(&message)),
    }
}

/// Splits a comma-separated list flag value into trimmed entries.
fn list_entries(value: &str) -> impl Iterator<Item = String> + '_ {
    value.split(',').map(|s| s.trim().to_string())
}

impl ExperimentScale {
    /// Parses the `accepted` subset of `--cases N --steps N --train N
    /// --seed N --threads N --chunk N --stream --detail --policies LIST
    /// --out FILE --metrics FILE --trace FILE --cache-dir DIR --shard i/n
    /// --dropout LIST --fault-plan FILE` from an argument iterator.
    ///
    /// # Errors
    ///
    /// [`ArgsError::Help`] for `--help`, and [`ArgsError::Invalid`] for
    /// a flag outside `accepted`, a flag missing its value, or a number
    /// that does not parse — no flag is ignored and nothing falls back to
    /// a default silently.
    fn from_args<I: IntoIterator<Item = String>>(
        args: I,
        accepted: &[&str],
    ) -> Result<Self, ArgsError> {
        let mut scale = Self::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            if flag == "--help" {
                return Err(ArgsError::Help);
            }
            if !accepted.contains(&flag.as_str()) {
                return Err(ArgsError::Invalid(format!("unknown argument {flag:?}")));
            }
            let args = &mut args;
            match flag.as_str() {
                "--cases" => scale.cases = flag_number(args, &flag)?,
                "--steps" => scale.steps = flag_number(args, &flag)?,
                "--train" => scale.train_episodes = flag_number(args, &flag)?,
                "--seed" => scale.seed = flag_number(args, &flag)?,
                "--threads" => scale.threads = flag_number(args, &flag)?,
                "--chunk" => scale.chunk = flag_number(args, &flag)?,
                "--stream" => scale.stream = true,
                "--detail" => scale.stream = false,
                "--policies" => scale
                    .policies
                    .extend(list_entries(&flag_value(args, &flag)?)),
                "--out" => scale.out = Some(flag_value(args, &flag)?),
                "--metrics" => scale.metrics_out = Some(flag_value(args, &flag)?),
                "--trace" => scale.trace_out = Some(flag_value(args, &flag)?),
                "--cache-dir" => scale.cache_dir = Some(flag_value(args, &flag)?),
                "--shard" => scale.shard = Some(flag_value(args, &flag)?),
                "--dropout" => scale
                    .dropout
                    .extend(list_entries(&flag_value(args, &flag)?)),
                "--fault-plan" => scale.fault_plan = Some(flag_value(args, &flag)?),
                _ => return Err(ArgsError::Invalid(format!("unknown argument {flag:?}"))),
            }
        }
        Ok(scale)
    }

    /// Parses the process arguments of the `bin` binary, whose flags are
    /// `accepted`. `--help` prints the usage to stdout and exits 0;
    /// invalid input prints the problem and the usage to stderr and
    /// exits 2.
    pub fn from_env_or_exit(bin: &str, accepted: &[&str]) -> Self {
        let parsed = Self::from_args(std::env::args().skip(1), accepted);
        parsed_or_exit(bin, &usage(accepted), parsed)
    }

    /// The scale parameters a JSON report carries (so a saved report is
    /// reproducible from its own header). `accepted` is the bin's flag
    /// set: `train_episodes` is written only for a bin that takes
    /// `--train`, since the others train nothing.
    pub fn json_header(&self, experiment: &str, accepted: &[&str]) -> oic_engine::JsonValue {
        let header = oic_engine::JsonValue::object()
            .with("experiment", experiment)
            .with("cases", self.cases)
            .with("steps", self.steps);
        let header = if accepted.contains(&"--train") {
            header.with("train_episodes", self.train_episodes)
        } else {
            header
        };
        header.with("seed", self.seed.to_string())
    }

    /// Writes a JSON report to [`Self::out`] when set, logging the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_json(&self, document: &oic_engine::JsonValue) -> std::io::Result<()> {
        if let Some(path) = &self.out {
            std::fs::write(path, document.to_json_pretty())?;
            eprintln!("report written to {path}");
        }
        Ok(())
    }
}

/// Outcome of running one test case under a policy and under the RMPC-only
/// baseline on the *same* front-vehicle trace and initial state.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeComparison {
    /// Baseline (always-run) outcome.
    pub baseline: EpisodeOutcome,
    /// Policy-under-test outcome.
    pub policy: EpisodeOutcome,
}

impl EpisodeComparison {
    /// Fractional fuel saving of the policy over the baseline.
    pub fn fuel_saving(&self) -> f64 {
        let base = self.baseline.summary.total_fuel;
        if base <= 0.0 {
            return 0.0;
        }
        (base - self.policy.summary.total_fuel) / base
    }

    /// Total safety violations across both runs (must be zero).
    pub fn violations(&self) -> usize {
        self.baseline.summary.safety_violations + self.policy.summary.safety_violations
    }
}

/// Runs `policy` for `steps` steps from `initial_state` behind `front`,
/// metering fuel with the HBEFA3 model.
///
/// # Errors
///
/// Propagates episode failures (which indicate a precondition violation —
/// they abort the experiment rather than being averaged away).
pub fn run_case(
    case: &AccCaseStudy,
    policy: &mut dyn SkipPolicy,
    front: Box<dyn FrontModel>,
    initial_state: [f64; 2],
    steps: usize,
) -> Result<EpisodeOutcome, CoreError> {
    case.run_episode(EpisodeConfig {
        policy,
        front,
        fuel: Box::new(Hbefa3Fuel::default()),
        steps,
        initial_state,
        oracle_forecast: false,
    })
}

/// Runs one test case: the same initial state and front trace under the
/// RMPC-only baseline and under `policy`.
///
/// # Errors
///
/// Propagates [`run_case`] failures.
pub fn compare_on_case(
    case: &AccCaseStudy,
    policy: &mut dyn SkipPolicy,
    front_factory: &mut dyn FnMut() -> Box<dyn FrontModel>,
    initial_state: [f64; 2],
    steps: usize,
) -> Result<EpisodeComparison, CoreError> {
    let baseline = run_case(
        case,
        &mut oic_core::AlwaysRunPolicy,
        front_factory(),
        initial_state,
        steps,
    )?;
    let policy = run_case(case, policy, front_factory(), initial_state, steps)?;
    Ok(EpisodeComparison { baseline, policy })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(accepted: &[&str], args: &[&str]) -> Result<ExperimentScale, ArgsError> {
        ExperimentScale::from_args(args.iter().map(|s| s.to_string()), accepted)
    }

    fn unknown(flag: &str) -> Result<ExperimentScale, ArgsError> {
        Err(ArgsError::Invalid(format!("unknown argument {flag:?}")))
    }

    #[test]
    fn only_bins_that_train_record_train_episodes() {
        let scale = ExperimentScale::default();
        assert_eq!(
            scale.json_header("fig4", FIG_FLAGS).to_json(),
            r#"{"experiment":"fig4","cases":500,"steps":100,"train_episodes":300,"seed":"2020"}"#
        );
        for bin in ["timing", "ablation"] {
            assert_eq!(
                scale.json_header(bin, EVAL_FLAGS).to_json(),
                format!(r#"{{"experiment":"{bin}","cases":500,"steps":100,"seed":"2020"}}"#)
            );
        }
    }

    #[test]
    fn scale_parsing() {
        let scale = parse(FIG_FLAGS, &["--cases", "20", "--train", "5", "--seed", "7"]).unwrap();
        assert_eq!(scale.cases, 20);
        assert_eq!(scale.train_episodes, 5);
        assert_eq!(scale.seed, 7);
        assert_eq!(scale.steps, 100, "untouched default");
        assert_eq!(scale.threads, 0, "untouched default");
        assert!(scale.stream, "streaming is the default");
        // Unknown flags are rejected, not skipped.
        assert_eq!(
            parse(FIG_FLAGS, &["--cases", "20", "--junk", "--seed", "7"]),
            unknown("--junk")
        );
    }

    #[test]
    fn bad_values_are_rejected_not_defaulted() {
        assert_eq!(
            parse(EVAL_FLAGS, &["--cases", "abc"]),
            Err(ArgsError::Invalid(
                "--cases expects a number, got \"abc\"".into()
            ))
        );
        assert_eq!(
            parse(EVAL_FLAGS, &["--seed"]),
            Err(ArgsError::Invalid("--seed needs a value".into()))
        );
        assert_eq!(
            parse(EVAL_FLAGS, &["--out"]),
            Err(ArgsError::Invalid("--out needs a value".into()))
        );
        assert!(
            parse(EVAL_FLAGS, &["--kernel", "scalar"]).is_err(),
            "removed flags must not silently run the default"
        );
        assert_eq!(
            parse(EVAL_FLAGS, &["--cases", "5", "--help"]),
            Err(ArgsError::Help)
        );
    }

    #[test]
    fn scale_parsing_engine_knobs() {
        let scale = parse(
            BATCH_FLAGS,
            &["--threads", "16", "--chunk", "64", "--detail"],
        )
        .unwrap();
        assert_eq!(scale.threads, 16);
        assert_eq!(scale.chunk, 64);
        assert!(!scale.stream);
        let streamed = parse(BATCH_FLAGS, &["--stream"]).unwrap();
        assert!(streamed.stream);
    }

    #[test]
    fn scale_parsing_cache_and_shard() {
        let scale = parse(
            BATCH_FLAGS,
            &["--cache-dir", "/tmp/cells", "--shard", "1/4"],
        )
        .unwrap();
        assert_eq!(scale.cache_dir.as_deref(), Some("/tmp/cells"));
        assert_eq!(scale.shard.as_deref(), Some("1/4"));
        let default = ExperimentScale::default();
        assert!(default.cache_dir.is_none() && default.shard.is_none());
    }

    #[test]
    fn scale_parsing_fault_knobs() {
        let scale = parse(
            BATCH_FLAGS,
            &["--dropout", "none,mk-1-5", "--fault-plan", "plan.json"],
        )
        .unwrap();
        assert_eq!(scale.dropout, ["none", "mk-1-5"]);
        assert_eq!(scale.fault_plan.as_deref(), Some("plan.json"));
        let default = ExperimentScale::default();
        assert!(default.dropout.is_empty() && default.fault_plan.is_none());
    }

    #[test]
    fn scale_parsing_policy_entries() {
        let scale = parse(
            BATCH_FLAGS,
            &[
                "--policies",
                "drl:a.bin,drl:b.bin",
                "--policies",
                "drl:c.bin",
            ],
        )
        .unwrap();
        assert_eq!(scale.policies, ["drl:a.bin", "drl:b.bin", "drl:c.bin"]);
        assert!(ExperimentScale::default().policies.is_empty());
    }

    #[test]
    fn each_bin_accepts_only_the_flags_it_reads() {
        // fig4/5/6 train a policy; timing, ablation and batch do not.
        assert_eq!(
            parse(FIG_FLAGS, &["--train", "5"]).unwrap().train_episodes,
            5
        );
        assert_eq!(parse(BATCH_FLAGS, &["--train", "5"]), unknown("--train"));
        for flag in ["--train", "--dropout", "--threads", "--fault-plan"] {
            assert_eq!(parse(EVAL_FLAGS, &[flag, "1"]), unknown(flag));
        }
        for flag in ["--threads", "--metrics", "--trace", "--shard"] {
            assert_eq!(parse(FIG_FLAGS, &[flag, "1"]), unknown(flag));
        }
        assert_eq!(
            usage(EVAL_FLAGS),
            "[--cases N] [--steps N] [--seed N] [--out FILE]"
        );
        assert_eq!(
            usage(FIG_FLAGS),
            "[--cases N] [--steps N] [--train N] [--seed N] [--out FILE]"
        );
        // Every known flag parses when accepted, and shows in the usage.
        for (flag, value) in FLAGS {
            let args: &[&str] = if value.is_empty() {
                &[flag]
            } else {
                &[flag, "1"]
            };
            assert!(parse(&[flag], args).is_ok(), "{flag}");
        }
        for flag in BATCH_FLAGS {
            assert!(usage(BATCH_FLAGS).contains(&format!("[{flag}")), "{flag}");
        }
    }

    #[test]
    fn comparison_math() {
        use oic_core::RunStats;
        use oic_sim::SimSummary;
        let outcome = |fuel: f64| EpisodeOutcome {
            summary: SimSummary {
                total_fuel: fuel,
                total_actuation: 0.0,
                safety_violations: 0,
                skipped_steps: 0,
                steps: 100,
                min_distance: 140.0,
                max_distance: 160.0,
            },
            stats: RunStats::default(),
        };
        let cmp = EpisodeComparison {
            baseline: outcome(10.0),
            policy: outcome(8.0),
        };
        assert!((cmp.fuel_saving() - 0.2).abs() < 1e-12);
        assert_eq!(cmp.violations(), 0);
    }
}
