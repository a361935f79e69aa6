//! Sweep-spec canonicalization and stable hashing.
//!
//! Every `(scenario, policy)` cell the engine produces is a pure
//! function of its identifying tuple — scenario name, policy (including
//! learned weight blobs), the deduplicated report label, the base seed,
//! episode/step counts, the policy memory window, and the effective
//! episode chunk size (chunk boundaries shape the floating-point merge
//! tree). This module pins that tuple down:
//!
//! * [`canonical_policy`] / [`parse_policy`] give each [`PolicySpec`] a
//!   stable one-line string form (learned policies carry the SHA-256 of
//!   their weight blob, never the blob itself);
//! * [`cell_hash`] derives the 32-byte content address a cell result is
//!   cached and deduplicated under (see [`crate::cache`]);
//! * [`SweepSpec`] is the wire form of a whole batch request — the JSON
//!   document `oic-serve` accepts and the bench bins share — with a
//!   [`SweepSpec::canonicalize`] step and a [`SweepSpec::spec_hash`]
//!   used for request coalescing.
//!
//! What is **not** hashed: the worker thread count (reports are
//! byte-identical at any thread count by the engine's determinism
//! contract), the `detail` flag (cells cache aggregates only), and
//! output formatting. The full rules live in `docs/PROTOCOL.md`.

use oic_faults::DropoutSpec;

use crate::hashing::{from_hex, sha256, to_hex};
use crate::json::JsonValue;
use crate::runner::{BatchConfig, PolicySpec};

/// Cache-format epoch, folded into every [`cell_hash`].
///
/// Bump this whenever engine semantics change the bytes of a cell
/// result for the *same* spec (seeding, accumulator arithmetic, episode
/// stepping, report fields). Old cache entries then simply stop
/// matching — stale results can never be served (`docs/PROTOCOL.md`,
/// "Cache invalidation").
///
/// Epoch 2: the dropout axis entered the preimage and the on-disk cell
/// codec grew a payload checksum plus the dropout tallies (`OICCELL2`).
///
/// Epoch 3: every tube-MPC step after an episode's first solves warm
/// (dual simplex from the previous step's basis), which moves some floats
/// of tube-MPC cells in their last ulps.
pub const CACHE_EPOCH: u32 = 3;

/// One shard assignment: this process owns the materialized cells whose
/// global index `g` satisfies `g % of == index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardInfo {
    /// This shard's index, `0 ≤ index < of`.
    pub index: usize,
    /// Total number of shards.
    pub of: usize,
}

impl ShardInfo {
    /// Parses the `i/n` command-line form (`--shard 0/2`).
    ///
    /// # Errors
    ///
    /// Rejects malformed strings, `n == 0`, and `i ≥ n`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let (index, of) = text
            .split_once('/')
            .ok_or_else(|| format!("expected i/n, got {text:?}"))?;
        let index: usize = index
            .parse()
            .map_err(|_| format!("bad shard index in {text:?}"))?;
        let of: usize = of
            .parse()
            .map_err(|_| format!("bad shard count in {text:?}"))?;
        let shard = ShardInfo { index, of };
        shard.validate()?;
        Ok(shard)
    }

    /// Checks `0 ≤ index < of`.
    ///
    /// # Errors
    ///
    /// Names the violated bound.
    pub fn validate(&self) -> Result<(), String> {
        if self.of == 0 {
            return Err("shard count must be at least 1".to_string());
        }
        if self.index >= self.of {
            return Err(format!(
                "shard index {} out of range for {} shards",
                self.index, self.of
            ));
        }
        Ok(())
    }

    /// Whether this shard owns global cell index `g`.
    pub fn owns(&self, g: usize) -> bool {
        g % self.of == self.index
    }
}

/// The canonical one-line string form of a policy.
///
/// Analytic policies render as their report label (`always-run`,
/// `periodic-4`, `random-0.25`, `max-skip-2`, …). Learned policies
/// render as `drl:<name>:sha256=<hex>` — the *hash* of the weight blob,
/// so two differently-named registrations of the same bytes hash apart
/// (the label feeds episode seeds) while the blob itself stays out of
/// every preimage.
pub fn canonical_policy(policy: &PolicySpec) -> String {
    match policy {
        PolicySpec::Drl { name, weights } => {
            format!("drl:{name}:sha256={}", to_hex(&sha256(weights)))
        }
        analytic => analytic.label(),
    }
}

/// Parses the canonical string form of an **analytic** policy (the
/// inverse of [`canonical_policy`] for everything but `drl:` entries,
/// whose weight bytes cannot be recovered from a hash — the wire format
/// ships learned policies as objects instead, see [`SweepSpec::from_json`]).
///
/// # Errors
///
/// Returns a short message naming the unrecognized entry.
pub fn parse_policy(text: &str) -> Result<PolicySpec, String> {
    let parsed = match text {
        "always-run" => PolicySpec::AlwaysRun,
        "bang-bang" => PolicySpec::BangBang,
        other => {
            if let Some(k) = other.strip_prefix("periodic-") {
                PolicySpec::Periodic(k.parse().map_err(|_| format!("bad period in {text:?}"))?)
            } else if let Some(p) = other.strip_prefix("random-") {
                PolicySpec::Random(
                    p.parse()
                        .map_err(|_| format!("bad probability in {text:?}"))?,
                )
            } else if let Some(b) = other.strip_prefix("max-skip-") {
                PolicySpec::MaxSkip(b.parse().map_err(|_| format!("bad budget in {text:?}"))?)
            } else {
                return Err(format!("unknown policy {text:?}"));
            }
        }
    };
    parsed.validate().map_err(|m| format!("{text:?}: {m}"))?;
    // The canonical form must round-trip exactly, or two spellings of
    // one policy ("random-0.250") would hash to different cells.
    if canonical_policy(&parsed) != text {
        return Err(format!(
            "non-canonical policy {text:?} (canonical: {:?})",
            canonical_policy(&parsed)
        ));
    }
    Ok(parsed)
}

/// The 32-byte content address of one `(scenario, policy)` cell result.
///
/// The preimage is a line-oriented canonical record of everything the
/// cell's bytes depend on — and nothing else:
///
/// ```text
/// oic-cell-v<CACHE_EPOCH>
/// scenario=<name>
/// label=<deduplicated report label>
/// policy=<canonical_policy>
/// dropout=<canonical DropoutSpec label, "none" for no axis>
/// seed=<base seed>
/// episodes=<episodes per cell>
/// steps=<steps per episode>
/// memory=<disturbance-history window>
/// chunk=<effective chunk size, BatchConfig::chunk_size()>
/// ```
///
/// Thread count and the `detail` flag are deliberately absent: neither
/// changes a cell's aggregate bytes. The fault plan is also absent —
/// faulted cells are never cached, so an injected fault can never leak
/// a wrong result into the store.
pub fn cell_hash(
    scenario: &str,
    label: &str,
    policy: &PolicySpec,
    dropout: &DropoutSpec,
    config: &BatchConfig,
) -> [u8; 32] {
    cell_hash_canonical(
        scenario,
        label,
        &canonical_policy(policy),
        &dropout.label(),
        config,
    )
}

/// [`cell_hash`] with the policy/dropout already rendered canonically —
/// the batch runner pre-renders each policy once so learned-policy
/// weight blobs are digested per policy, not per cell.
pub fn cell_hash_canonical(
    scenario: &str,
    label: &str,
    policy: &str,
    dropout: &str,
    config: &BatchConfig,
) -> [u8; 32] {
    let preimage = format!(
        "oic-cell-v{CACHE_EPOCH}\nscenario={scenario}\nlabel={label}\npolicy={policy}\ndropout={dropout}\nseed={}\nepisodes={}\nsteps={}\nmemory={}\nchunk={}\n",
        config.seed,
        config.episodes,
        config.steps,
        config.memory,
        config.chunk_size(),
    );
    sha256(preimage.as_bytes())
}

/// The keys a wire spec may carry: exactly the ones
/// [`SweepSpec::canonical_json`] emits.
const SPEC_KEYS: [&str; 10] = [
    "kind",
    "version",
    "scenarios",
    "policies",
    "episodes",
    "steps",
    "seed",
    "memory",
    "chunk",
    "dropout",
];

/// The wire form of one batch request: which scenarios, which policies,
/// and the engine knobs that shape results.
///
/// This is the document `POST /v1/sweep` accepts (`docs/PROTOCOL.md`),
/// turned into a [`BatchConfig`] by [`SweepSpec::to_config`]. The bench
/// `batch` bin does not go through it: it builds its config from its
/// command line (`oic_bench::experiments::batch::config`).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Requested scenario names. Empty means "every registered
    /// scenario". Execution always follows registry order; this list is
    /// a filter, and [`SweepSpec::canonicalize`] sorts + dedupes it.
    pub scenarios: Vec<String>,
    /// Policy roster, in request order (order matters: duplicate labels
    /// dedup to `#2`, `#3`, … suffixes which feed episode seeds).
    pub policies: Vec<PolicySpec>,
    /// Episodes per cell.
    pub episodes: usize,
    /// Steps per episode.
    pub steps: usize,
    /// Base seed.
    pub seed: u64,
    /// Disturbance-history window (`r`).
    pub memory: usize,
    /// Episodes per work-stealing chunk; 0 = the deterministic auto
    /// sizing (see [`BatchConfig::chunk_size`]).
    pub chunk: usize,
    /// Dropout axis: each entry multiplies the `(scenario, policy)` grid
    /// by one environment-forced actuation-dropout variant. Empty means
    /// the single fault-free `none` variant (the pre-axis behaviour).
    /// Request order is preserved — it fixes cell order in the report.
    pub dropouts: Vec<DropoutSpec>,
}

impl Default for SweepSpec {
    fn default() -> Self {
        let config = BatchConfig::default();
        Self {
            scenarios: Vec::new(),
            policies: Vec::new(),
            episodes: config.episodes,
            steps: config.steps,
            seed: config.seed,
            memory: config.memory,
            chunk: config.chunk,
            dropouts: Vec::new(),
        }
    }
}

impl SweepSpec {
    /// Parses the wire JSON (see `docs/PROTOCOL.md` for the schema).
    ///
    /// Policies are strings for analytic entries (`"bang-bang"`) or
    /// objects for learned ones:
    /// `{"drl": {"name": "my-net", "weights_hex": "<oic-nn blob>"}}`.
    /// The seed may be a JSON number (if integral) or a string (full
    /// `u64` range — 64-bit values do not fit in a JSON number). Keys
    /// outside the canonical form, and repeated keys, are rejected, at
    /// the top level and inside a `{"drl": …}` entry.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending field.
    pub fn from_json(doc: &JsonValue) -> Result<Self, String> {
        doc.check_keys(&SPEC_KEYS)
            .map_err(|e| format!("spec: {e}"))?;
        if let Some(kind) = doc.get("kind") {
            if kind.as_str() != Some("oic-sweep-spec") {
                return Err(format!("unexpected kind {:?}", kind.to_json()));
            }
        }
        if let Some(version) = doc.get("version") {
            if version.as_usize() != Some(1) {
                return Err(format!("unsupported spec version {}", version.to_json()));
            }
        }
        let mut spec = SweepSpec::default();
        if let Some(scenarios) = doc.get("scenarios") {
            let list = scenarios
                .as_array()
                .ok_or("scenarios must be an array of names")?;
            for name in list {
                spec.scenarios.push(
                    name.as_str()
                        .ok_or("scenarios entries must be strings")?
                        .to_string(),
                );
            }
        }
        let policies = doc
            .get("policies")
            .and_then(JsonValue::as_array)
            .ok_or("policies must be a non-empty array")?;
        for entry in policies {
            spec.policies.push(Self::policy_from_json(entry)?);
        }
        if spec.policies.is_empty() {
            return Err("policies must be a non-empty array".to_string());
        }
        for (field, slot) in [
            ("episodes", &mut spec.episodes as &mut usize),
            ("steps", &mut spec.steps),
            ("memory", &mut spec.memory),
            ("chunk", &mut spec.chunk),
        ] {
            if let Some(value) = doc.get(field) {
                *slot = value
                    .as_usize()
                    .ok_or_else(|| format!("{field} must be a non-negative integer"))?;
            }
        }
        if let Some(seed) = doc.get("seed") {
            spec.seed = match seed {
                JsonValue::String(s) => s
                    .parse()
                    .map_err(|_| format!("seed string {s:?} is not a u64"))?,
                other => other
                    .as_usize()
                    .ok_or("seed must be an integer or a decimal string")?
                    as u64,
            };
        }
        if let Some(dropouts) = doc.get("dropout") {
            let list = dropouts
                .as_array()
                .ok_or("dropout must be an array of spec labels")?;
            for entry in list {
                let text = entry.as_str().ok_or("dropout entries must be strings")?;
                let parsed = DropoutSpec::parse(text).map_err(|e| format!("dropout: {e}"))?;
                parsed
                    .validate()
                    .map_err(|m| format!("dropout {text:?}: {m}"))?;
                spec.dropouts.push(parsed);
            }
        }
        if spec.episodes == 0 || spec.steps == 0 {
            return Err("episodes and steps must be positive".to_string());
        }
        Ok(spec)
    }

    fn policy_from_json(entry: &JsonValue) -> Result<PolicySpec, String> {
        if let Some(text) = entry.as_str() {
            return parse_policy(text);
        }
        let drl = entry
            .get("drl")
            .ok_or("policy entries must be strings or {\"drl\": {…}} objects")?;
        entry
            .check_keys(&["drl"])
            .and_then(|()| drl.check_keys(&["name", "weights_hex"]))
            .map_err(|e| format!("drl policy: {e}"))?;
        let name = drl
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("drl policy needs a \"name\" string")?;
        let hex = drl
            .get("weights_hex")
            .and_then(JsonValue::as_str)
            .ok_or("drl policy needs a \"weights_hex\" string")?;
        let weights = from_hex(hex).map_err(|e| format!("drl {name:?} weights_hex: {e}"))?;
        let spec = PolicySpec::drl(name, weights);
        spec.validate().map_err(|m| format!("drl {name:?}: {m}"))?;
        Ok(spec)
    }

    /// Normalizes the spec in place: the scenario filter is sorted and
    /// deduplicated (execution order is registry order either way, so
    /// request order carries no information). Policy order is preserved
    /// — it determines label deduplication and therefore episode seeds.
    /// Dropout order is preserved too (it fixes cell order), but exact
    /// duplicates collapse to the first occurrence, and a lone `none`
    /// entry collapses to the empty (default) axis.
    pub fn canonicalize(&mut self) {
        self.scenarios.sort();
        self.scenarios.dedup();
        let mut seen = Vec::new();
        self.dropouts.retain(|d| {
            let label = d.label();
            if seen.contains(&label) {
                false
            } else {
                seen.push(label);
                true
            }
        });
        if self.dropouts.len() == 1 && self.dropouts[0].is_none() {
            self.dropouts.clear();
        }
    }

    /// The canonical JSON rendering the spec hash is computed over.
    ///
    /// Learned policies appear as their `drl:<name>:sha256=<hex>`
    /// canonical string — blob bytes never enter the document, so the
    /// canonical form stays small no matter how large the roster's
    /// weights are.
    pub fn canonical_json(&self) -> JsonValue {
        let mut spec = self.clone();
        spec.canonicalize();
        let mut doc = JsonValue::object()
            .with("kind", "oic-sweep-spec")
            .with("version", 1usize)
            .with("scenarios", spec.scenarios.clone())
            .with(
                "policies",
                spec.policies
                    .iter()
                    .map(canonical_policy)
                    .collect::<Vec<_>>(),
            )
            .with("episodes", spec.episodes)
            .with("steps", spec.steps)
            .with("seed", spec.seed.to_string())
            .with("memory", spec.memory)
            .with("chunk", spec.chunk_size());
        // The dropout axis only enters the canonical form when present,
        // so fault-free specs keep their pre-axis hash.
        if !spec.dropouts.is_empty() {
            doc = doc.with(
                "dropout",
                spec.dropouts
                    .iter()
                    .map(DropoutSpec::label)
                    .collect::<Vec<_>>(),
            );
        }
        doc
    }

    /// The request's content address: SHA-256 of the compact canonical
    /// JSON. Two requests with equal hashes produce byte-identical
    /// responses, which is what request coalescing relies on.
    pub fn spec_hash(&self) -> [u8; 32] {
        sha256(self.canonical_json().to_json().as_bytes())
    }

    /// The effective episode chunk size ([`BatchConfig::chunk_size`]).
    pub fn chunk_size(&self) -> usize {
        self.to_config().chunk_size()
    }

    /// The engine configuration this spec maps to. Threads are left at
    /// the auto default (they never change results) and `detail` stays
    /// off (cells cache and stream aggregates only).
    pub fn to_config(&self) -> BatchConfig {
        BatchConfig {
            episodes: self.episodes,
            steps: self.steps,
            seed: self.seed,
            memory: self.memory,
            chunk: self.chunk,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn drl(name: &str, bytes: &[u8]) -> PolicySpec {
        PolicySpec::Drl {
            name: name.to_string(),
            weights: Arc::new(bytes.to_vec()),
        }
    }

    #[test]
    fn analytic_policies_round_trip_their_canonical_form() {
        for policy in [
            PolicySpec::AlwaysRun,
            PolicySpec::BangBang,
            PolicySpec::Periodic(4),
            PolicySpec::Random(0.25),
            PolicySpec::Random(0.001),
            PolicySpec::MaxSkip(2),
        ] {
            let text = canonical_policy(&policy);
            assert_eq!(parse_policy(&text).unwrap(), policy, "{text}");
        }
        assert!(parse_policy("random-0.250").is_err(), "non-canonical float");
        assert!(parse_policy("periodic-0").is_err(), "invalid parameter");
        assert!(
            parse_policy("random-1.5").is_err(),
            "out-of-range parameter"
        );
        assert!(
            parse_policy("drl-acc").is_err(),
            "blobs cannot parse from labels"
        );
        assert!(parse_policy("mystery").is_err());
    }

    #[test]
    fn drl_canonical_form_hashes_the_blob() {
        let a = canonical_policy(&drl("net", b"weights-a"));
        let b = canonical_policy(&drl("net", b"weights-b"));
        let c = canonical_policy(&drl("other", b"weights-a"));
        assert!(a.starts_with("drl:net:sha256="));
        assert_ne!(a, b, "different bytes, different canonical form");
        assert_ne!(a, c, "different names, different canonical form");
        assert!(!a.contains("weights"), "blob bytes never appear");
    }

    #[test]
    fn cell_hash_covers_exactly_the_result_determining_fields() {
        let config = BatchConfig {
            episodes: 50,
            steps: 50,
            seed: 42,
            ..Default::default()
        };
        let base = cell_hash(
            "acc",
            "bang-bang",
            &PolicySpec::BangBang,
            &DropoutSpec::None,
            &config,
        );
        assert_eq!(
            base,
            cell_hash(
                "acc",
                "bang-bang",
                &PolicySpec::BangBang,
                &DropoutSpec::None,
                &config
            ),
            "stable"
        );
        // Thread count and detail are not hashed.
        let threaded = BatchConfig {
            threads: 8,
            detail: true,
            ..config.clone()
        };
        assert_eq!(
            base,
            cell_hash(
                "acc",
                "bang-bang",
                &PolicySpec::BangBang,
                &DropoutSpec::None,
                &threaded
            )
        );
        // Everything else is.
        for changed in [
            BatchConfig {
                seed: 43,
                ..config.clone()
            },
            BatchConfig {
                episodes: 51,
                ..config.clone()
            },
            BatchConfig {
                steps: 51,
                ..config.clone()
            },
            BatchConfig {
                memory: 2,
                ..config.clone()
            },
            BatchConfig {
                chunk: 7,
                ..config.clone()
            },
        ] {
            assert_ne!(
                base,
                cell_hash(
                    "acc",
                    "bang-bang",
                    &PolicySpec::BangBang,
                    &DropoutSpec::None,
                    &changed
                )
            );
        }
        assert_ne!(
            base,
            cell_hash(
                "cstr",
                "bang-bang",
                &PolicySpec::BangBang,
                &DropoutSpec::None,
                &config
            )
        );
        assert_ne!(
            base,
            cell_hash(
                "acc",
                "bang-bang#2",
                &PolicySpec::BangBang,
                &DropoutSpec::None,
                &config
            ),
            "the deduplicated label feeds episode seeds, so it is hashed"
        );
        assert_ne!(
            base,
            cell_hash(
                "acc",
                "bang-bang",
                &PolicySpec::AlwaysRun,
                &DropoutSpec::None,
                &config
            )
        );
    }

    #[test]
    fn explicit_auto_chunk_hashes_like_its_effective_size() {
        // chunk: 0 auto-sizes to 16 for 100 episodes; requesting 16
        // explicitly is the same cell.
        let auto = BatchConfig {
            episodes: 100,
            chunk: 0,
            ..Default::default()
        };
        let explicit = BatchConfig {
            episodes: 100,
            chunk: 16,
            ..Default::default()
        };
        assert_eq!(
            cell_hash(
                "acc",
                "bang-bang",
                &PolicySpec::BangBang,
                &DropoutSpec::None,
                &auto
            ),
            cell_hash(
                "acc",
                "bang-bang",
                &PolicySpec::BangBang,
                &DropoutSpec::None,
                &explicit
            ),
        );
    }

    #[test]
    fn shard_parsing_and_bounds() {
        assert_eq!(
            ShardInfo::parse("0/2").unwrap(),
            ShardInfo { index: 0, of: 2 }
        );
        assert_eq!(
            ShardInfo::parse("3/4").unwrap(),
            ShardInfo { index: 3, of: 4 }
        );
        for bad in ["2/2", "1/0", "x/2", "1-2", "1"] {
            assert!(ShardInfo::parse(bad).is_err(), "{bad:?}");
        }
        let shard = ShardInfo { index: 1, of: 3 };
        let owned: Vec<usize> = (0..9).filter(|g| shard.owns(*g)).collect();
        assert_eq!(owned, [1, 4, 7]);
    }

    #[test]
    fn spec_wire_round_trip() {
        let doc = JsonValue::parse(
            r#"{
                "kind": "oic-sweep-spec",
                "version": 1,
                "scenarios": ["cstr", "acc", "acc"],
                "policies": ["bang-bang", "periodic-4",
                             {"drl": {"name": "tiny", "weights_hex": "0a0b0c"}}],
                "seed": "42",
                "episodes": 10,
                "steps": 25
            }"#,
        )
        .unwrap();
        let mut spec = SweepSpec::from_json(&doc).unwrap();
        spec.canonicalize();
        assert_eq!(spec.scenarios, ["acc", "cstr"], "sorted and deduped");
        assert_eq!(spec.policies.len(), 3);
        assert_eq!(spec.policies[2].label(), "drl-tiny");
        match &spec.policies[2] {
            PolicySpec::Drl { weights, .. } => assert_eq!(***weights, [0x0A, 0x0B, 0x0C]),
            other => panic!("expected drl, got {other:?}"),
        }
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.episodes, 10);
        assert_eq!(spec.memory, 1, "default");
        let config = spec.to_config();
        assert_eq!(config.steps, 25);
        assert!(!config.detail);
    }

    #[test]
    fn spec_hash_ignores_request_order_but_not_content() {
        let a = SweepSpec {
            scenarios: vec!["cstr".into(), "acc".into()],
            policies: vec![PolicySpec::BangBang],
            ..Default::default()
        };
        let b = SweepSpec {
            scenarios: vec!["acc".into(), "cstr".into(), "acc".into()],
            policies: vec![PolicySpec::BangBang],
            ..Default::default()
        };
        assert_eq!(
            a.spec_hash(),
            b.spec_hash(),
            "scenario order is canonicalized"
        );
        let c = SweepSpec {
            policies: vec![PolicySpec::AlwaysRun],
            ..a.clone()
        };
        assert_ne!(a.spec_hash(), c.spec_hash());
        let d = SweepSpec {
            seed: 7,
            ..a.clone()
        };
        assert_ne!(a.spec_hash(), d.spec_hash());
        // Policy order is NOT canonicalized away: it shapes labels.
        let e = SweepSpec {
            policies: vec![PolicySpec::BangBang, PolicySpec::AlwaysRun],
            ..Default::default()
        };
        let f = SweepSpec {
            policies: vec![PolicySpec::AlwaysRun, PolicySpec::BangBang],
            ..Default::default()
        };
        assert_ne!(e.spec_hash(), f.spec_hash());
    }

    #[test]
    fn canonical_form_parses_back_as_the_same_spec() {
        let spec = SweepSpec {
            scenarios: vec!["acc".into()],
            policies: vec![PolicySpec::BangBang, PolicySpec::Periodic(4)],
            dropouts: vec![DropoutSpec::parse("mk-1-5").unwrap()],
            ..Default::default()
        };
        let canonical = spec.canonical_json();
        assert_eq!(canonical.as_object().map(<[_]>::len), Some(SPEC_KEYS.len()));
        let parsed = SweepSpec::from_json(&canonical).unwrap();
        assert_eq!(parsed.canonical_json(), canonical);
    }

    #[test]
    fn spec_rejections_name_the_field() {
        let no_policies = JsonValue::parse(r#"{"episodes": 5, "steps": 5}"#).unwrap();
        assert!(SweepSpec::from_json(&no_policies)
            .unwrap_err()
            .contains("policies"));
        let bad_kind = JsonValue::parse(r#"{"kind": "nope", "policies": ["bang-bang"]}"#).unwrap();
        assert!(SweepSpec::from_json(&bad_kind)
            .unwrap_err()
            .contains("kind"));
        let bad_seed =
            JsonValue::parse(r#"{"policies": ["bang-bang"], "seed": "twelve"}"#).unwrap();
        assert!(SweepSpec::from_json(&bad_seed)
            .unwrap_err()
            .contains("seed"));
        let zero = JsonValue::parse(r#"{"policies": ["bang-bang"], "episodes": 0}"#).unwrap();
        assert!(SweepSpec::from_json(&zero)
            .unwrap_err()
            .contains("positive"));
        let bad_hex =
            JsonValue::parse(r#"{"policies": [{"drl": {"name": "n", "weights_hex": "xyz"}}]}"#)
                .unwrap();
        assert!(SweepSpec::from_json(&bad_hex)
            .unwrap_err()
            .contains("weights_hex"));
        // A misspelt or repeated key is an error, never a default.
        let bad_keys = [
            r#"{"policies":["always-run"],"episdes":7}"#,
            r#"{"policies":["bang-bang"],"episodes":7,"episodes":9}"#,
            r#"{"policies":[{"drl":{"name":"n","weights_hex":"0a","x":1}}]}"#,
            r#"{"policies":[{"drl":{"name":"n","weights_hex":"0a"},"y":1}]}"#,
        ];
        for (doc, key) in bad_keys.into_iter().zip(["episdes", "episodes", "x", "y"]) {
            let err = SweepSpec::from_json(&JsonValue::parse(doc).unwrap()).unwrap_err();
            assert!(err.contains(&format!("key {key:?}")), "{doc}: {err}");
        }
        // A full u64 seed survives the string form.
        let big =
            JsonValue::parse(r#"{"policies": ["bang-bang"], "seed": "18446744073709551615"}"#)
                .unwrap();
        assert_eq!(SweepSpec::from_json(&big).unwrap().seed, u64::MAX);
    }
}
