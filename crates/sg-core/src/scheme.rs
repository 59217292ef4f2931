//! The open compression-scheme layer: a [`CompressionScheme`] trait, the
//! concrete scheme zoo, parameter bags, and a name-based [`SchemeRegistry`].
//!
//! Slim Graph's central idea is *programmable* compression: kernels are
//! small programs that can be combined freely. The original harness
//! hard-coded every scheme in a closed enum; this module replaces it with
//! an object-safe trait plus a registry, so new schemes can be added (and
//! chained into [`crate::Pipeline`]s) without touching dispatch code.

use crate::engine::CompressionResult;
use crate::kernel::{EdgeKernel, VertexKernel};
use crate::schemes::{
    cut_sparsify, forest_indices, remove_low_degree, spanner, spectral_sparsify,
    summarize_to_graph, triangle_collapse, triangle_reduce, uniform_sample, CutSparsifyKernel,
    Discipline, EdgeChoice, LowDegreeKernel, SpectralKernel, SummarizationConfig, TrConfig,
    UniformKernel, UpsilonVariant,
};
use sg_graph::CsrGraph;
use std::collections::BTreeMap;
use std::ops::RangeInclusive;

/// How a scheme runs on the sharded/distributed backend (sg-dist).
///
/// The paper's distributed design (§7.3) partitions vertices across ranks
/// and exchanges the shared `considered` flags over RMA; which protocol a
/// scheme needs depends on its kernel class. [`CompressionScheme::dist_plan`]
/// reports the class so `sg_dist::distributed_compress` can pick the right
/// executor without downcasting.
pub enum DistPlan {
    /// A pure edge kernel: every rank decides its own edge range
    /// independently (no shared state, single superstep). Only deletions
    /// shard, so the kernel never returns [`crate::kernel::EdgeDecision::Reweight`].
    EdgeKernel(Box<dyn EdgeKernel>),
    /// The Triangle Reduction family: ranks own vertex/edge partitions and,
    /// for the Edge-Once disciplines, reconcile the shared `considered`
    /// flags through deterministic superstep rounds.
    Triangle(TrConfig),
    /// A pure vertex kernel: every rank decides its own vertex range
    /// independently; removals are merged in rank order.
    Vertex(Box<dyn VertexKernel>),
}

/// A lossy compression scheme: one stage-1 kernel family plus its
/// parameters. Object-safe so schemes can live in registries and pipelines.
pub trait CompressionScheme: Send + Sync {
    /// Registry name (`"uniform"`, `"spanner"`, `"tr-eo"`, …).
    fn name(&self) -> &str;

    /// The scheme's parameters as `(key, rendered value)` pairs.
    fn params(&self) -> Vec<(&'static str, String)> {
        Vec::new()
    }

    /// Applies the scheme to `g` with deterministic seed `seed`.
    fn apply(&self, g: &CsrGraph, seed: u64) -> CompressionResult;

    /// Human-readable label: the name plus its parameters.
    fn label(&self) -> String {
        let params = self.params();
        if params.is_empty() {
            self.name().to_string()
        } else {
            let rendered: Vec<String> = params.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("{} ({})", self.name(), rendered.join(", "))
        }
    }

    /// The scheme's sharded-execution plan for `g`, if it can run
    /// distributed. `None` (the default) means shared-memory only:
    /// contraction/summarization classes that rewrite the vertex set
    /// globally, and edge kernels whose reweights a deletion list cannot
    /// carry.
    fn dist_plan(&self, g: &CsrGraph) -> Option<DistPlan> {
        let _ = g;
        None
    }
}

/// A string key/value parameter bag with typed accessors, used by
/// [`SchemeRegistry`] factories and the CLI's `--scheme` parser. Ordered
/// and comparable so parameterized specs ([`crate::PipelineSpec`]) can be
/// deduplicated and sorted deterministically.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct SchemeParams {
    values: BTreeMap<String, String>,
}

impl SchemeParams {
    /// An empty bag (factories fall back to their defaults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a bag from `(key, value)` pairs.
    pub fn from_pairs(pairs: &[(&str, &str)]) -> Self {
        let mut params = Self::new();
        for (k, v) in pairs {
            params.set(k, v);
        }
        params
    }

    /// Sets one parameter (overwrites).
    pub fn set(&mut self, key: &str, value: &str) -> &mut Self {
        self.values.insert(key.to_string(), value.to_string());
        self
    }

    /// Parses a `key=value` assignment into the bag; returns the key.
    pub fn parse_assignment(&mut self, assignment: &str) -> Result<String, String> {
        match assignment.split_once('=') {
            Some((k, v)) if !k.is_empty() && !v.is_empty() => {
                let key = k.trim().to_string();
                self.set(&key, v.trim());
                Ok(key)
            }
            _ => Err(format!("expected key=value, got '{assignment}'")),
        }
    }

    /// This bag with `overrides` layered on top.
    pub fn merged_with(&self, overrides: &SchemeParams) -> Self {
        let mut merged = self.clone();
        for (k, v) in &overrides.values {
            merged.set(k, v);
        }
        merged
    }

    /// Raw string value.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// All `(key, value)` pairs in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Whether the bag holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// `f64` value with a default.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        self.parse_with(key, default)
    }

    /// `f64` value with a default, rejected unless finite and inside
    /// `range` (an unbounded side is `±INFINITY`). This is where a scheme's
    /// parameter domain is enforced, so a bad value becomes an error
    /// instead of reaching a kernel's `assert!`.
    pub fn get_f64_in(
        &self,
        key: &str,
        default: f64,
        range: RangeInclusive<f64>,
    ) -> Result<f64, String> {
        let value = self.get_f64(key, default)?;
        if value.is_finite() && range.contains(&value) {
            return Ok(value);
        }
        let (lo, hi) = (range.start(), range.end());
        let allowed = if hi.is_finite() {
            format!("[{lo}, {hi}]")
        } else {
            format!("a finite value >= {lo}")
        };
        Err(format!("parameter {key}: {value} is out of range (allowed: {allowed})"))
    }

    /// `u32` value with a default.
    pub fn get_u32(&self, key: &str, default: u32) -> Result<u32, String> {
        self.parse_with(key, default)
    }

    /// `bool` value with a default.
    pub fn get_bool(&self, key: &str, default: bool) -> Result<bool, String> {
        self.parse_with(key, default)
    }

    fn parse_with<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| format!("parameter {key}: cannot parse '{raw}'")),
        }
    }
}

/// Random uniform edge sampling: remove each edge with probability `p`.
#[derive(Clone, Copy, Debug)]
pub struct Uniform {
    /// Removal probability.
    pub p: f64,
}

impl CompressionScheme for Uniform {
    fn name(&self) -> &str {
        "uniform"
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![("p", self.p.to_string())]
    }

    fn apply(&self, g: &CsrGraph, seed: u64) -> CompressionResult {
        uniform_sample(g, self.p, seed)
    }

    fn dist_plan(&self, _g: &CsrGraph) -> Option<DistPlan> {
        Some(DistPlan::EdgeKernel(Box::new(UniformKernel::new(self.p))))
    }
}

/// Spectral sparsification with user parameter `p` and Υ variant.
#[derive(Clone, Copy, Debug)]
pub struct Spectral {
    /// Sparsification parameter.
    pub p: f64,
    /// How Υ is derived.
    pub variant: UpsilonVariant,
    /// Whether survivors are reweighted by `1/p_e`.
    pub reweight: bool,
}

impl CompressionScheme for Spectral {
    fn name(&self) -> &str {
        "spectral"
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        let variant = match self.variant {
            UpsilonVariant::LogN => "logn",
            UpsilonVariant::AvgDegree => "avgdeg",
        };
        vec![
            ("p", self.p.to_string()),
            ("variant", variant.to_string()),
            ("reweight", self.reweight.to_string()),
        ]
    }

    fn apply(&self, g: &CsrGraph, seed: u64) -> CompressionResult {
        spectral_sparsify(g, self.p, self.variant, self.reweight, seed)
    }

    /// Reweighting survivors is not expressible as a deletion list, so a
    /// reweighting run stays shared-memory only.
    fn dist_plan(&self, g: &CsrGraph) -> Option<DistPlan> {
        if self.reweight {
            return None;
        }
        let kernel = SpectralKernel::for_graph(g, self.p, self.variant, false);
        Some(DistPlan::EdgeKernel(Box::new(kernel)))
    }
}

/// The Triangle Reduction family (plain, Edge-Once, Count-Triangles,
/// max-weight), named after its configuration.
#[derive(Clone, Copy, Debug)]
pub struct TriangleReduction {
    /// Full TR configuration.
    pub cfg: TrConfig,
}

impl CompressionScheme for TriangleReduction {
    fn name(&self) -> &str {
        match (self.cfg.discipline, self.cfg.choice) {
            (Discipline::Plain, _) => "tr",
            (Discipline::EdgeOnce, EdgeChoice::FewestTriangles) => "tr-ct",
            (Discipline::EdgeOnce, EdgeChoice::MaxWeight) => "tr-mw",
            (Discipline::EdgeOnce, EdgeChoice::Random) => "tr-eo",
        }
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![("p", self.cfg.p.to_string()), ("x", self.cfg.x.to_string())]
    }

    fn apply(&self, g: &CsrGraph, seed: u64) -> CompressionResult {
        triangle_reduce(g, self.cfg, seed)
    }

    /// Paper-style label (`EO-0.5-1-TR`, …).
    fn label(&self) -> String {
        self.cfg.label()
    }

    fn dist_plan(&self, _g: &CsrGraph) -> Option<DistPlan> {
        Some(DistPlan::Triangle(self.cfg))
    }
}

/// Triangle p-Reduction by Collapse: contract sampled triangles.
#[derive(Clone, Copy, Debug)]
pub struct TriangleCollapse {
    /// Probability of collapsing a triangle.
    pub p: f64,
}

impl CompressionScheme for TriangleCollapse {
    fn name(&self) -> &str {
        "collapse"
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![("p", self.p.to_string())]
    }

    fn apply(&self, g: &CsrGraph, seed: u64) -> CompressionResult {
        triangle_collapse(g, self.p, seed)
    }
}

/// Degree ≤ 1 vertex removal.
#[derive(Clone, Copy, Debug, Default)]
pub struct LowDegree;

impl CompressionScheme for LowDegree {
    fn name(&self) -> &str {
        "lowdeg"
    }

    fn apply(&self, g: &CsrGraph, seed: u64) -> CompressionResult {
        remove_low_degree(g, seed)
    }

    fn dist_plan(&self, _g: &CsrGraph) -> Option<DistPlan> {
        Some(DistPlan::Vertex(Box::new(LowDegreeKernel::default())))
    }
}

/// O(k)-spanner via low-diameter decomposition.
#[derive(Clone, Copy, Debug)]
pub struct Spanner {
    /// Stretch parameter.
    pub k: f64,
}

impl CompressionScheme for Spanner {
    fn name(&self) -> &str {
        "spanner"
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![("k", self.k.to_string())]
    }

    fn apply(&self, g: &CsrGraph, seed: u64) -> CompressionResult {
        spanner(g, self.k, seed)
    }
}

/// Lossy ϵ-summarization; the summary is reconstructed into a graph so the
/// scheme composes with stage 2 (and with later pipeline stages).
#[derive(Clone, Copy, Debug)]
pub struct Summarization {
    /// Per-edge error budget.
    pub epsilon: f64,
}

impl CompressionScheme for Summarization {
    fn name(&self) -> &str {
        "summary"
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![("epsilon", self.epsilon.to_string())]
    }

    fn apply(&self, g: &CsrGraph, seed: u64) -> CompressionResult {
        let cfg = SummarizationConfig { epsilon: self.epsilon, max_iterations: 8, seed };
        summarize_to_graph(g, cfg).1
    }
}

/// Nagamochi–Ibaraki cut sparsifier: preserves all cuts of value ≤ `k`.
#[derive(Clone, Copy, Debug)]
pub struct CutSparsifier {
    /// Connectivity threshold.
    pub k: u32,
}

impl CompressionScheme for CutSparsifier {
    fn name(&self) -> &str {
        "cut"
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![("k", self.k.to_string())]
    }

    fn apply(&self, g: &CsrGraph, seed: u64) -> CompressionResult {
        cut_sparsify(g, self.k, seed)
    }

    fn dist_plan(&self, g: &CsrGraph) -> Option<DistPlan> {
        let kernel = CutSparsifyKernel { indices: forest_indices(g), k: self.k };
        Some(DistPlan::EdgeKernel(Box::new(kernel)))
    }
}

/// Builds one scheme instance from a parameter bag.
pub type SchemeFactory =
    Box<dyn Fn(&SchemeParams) -> Result<Box<dyn CompressionScheme>, String> + Send + Sync>;

struct RegisteredScheme {
    factory: SchemeFactory,
    /// Parameter keys the factory reads; per-stage overrides outside this
    /// set are rejected by [`SchemeRegistry::parse_pipeline`].
    param_keys: &'static [&'static str],
}

/// Name → factory table for every known compression scheme.
///
/// [`SchemeRegistry::with_defaults`] registers the full zoo; extensions
/// register additional names with [`SchemeRegistry::register`]. Names are
/// stored in a `BTreeMap`, so [`SchemeRegistry::names`] iterates in a
/// stable order.
pub struct SchemeRegistry {
    schemes: BTreeMap<String, RegisteredScheme>,
}

impl SchemeRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self { schemes: BTreeMap::new() }
    }

    /// The full built-in scheme zoo, keyed by the CLI names.
    ///
    /// Parameters read by the factories (all optional): `p` (sampling /
    /// reduction probability in [0, 1], default 0.5; spectral takes any
    /// `p` >= 0), `k` (spanner stretch >= 1 or cut threshold, default 8),
    /// `epsilon` (summarization error >= 0, default 0.1), `variant`
    /// (`logn` | `avgdeg`), `reweight` (bool), `x` (TR edges removed per
    /// triangle, 1 or 2). Numeric values must be finite; a value outside
    /// its domain is an error.
    pub fn with_defaults() -> Self {
        let mut registry = Self::new();
        registry.register("uniform", &["p"], |p| {
            Ok(Box::new(Uniform { p: p.get_f64_in("p", 0.5, PROBABILITY)? }))
        });
        registry.register("spectral", &["p", "variant", "reweight"], |p| {
            let variant = match p.get_str("variant").unwrap_or("logn") {
                "logn" => UpsilonVariant::LogN,
                "avgdeg" => UpsilonVariant::AvgDegree,
                other => return Err(format!("unknown spectral variant '{other}'")),
            };
            Ok(Box::new(Spectral {
                p: p.get_f64_in("p", 0.5, 0.0..=f64::INFINITY)?,
                variant,
                reweight: p.get_bool("reweight", false)?,
            }))
        });
        registry.register("tr", &["p", "x"], |p| {
            Ok(Box::new(TriangleReduction {
                cfg: tr_config(p, Discipline::Plain, EdgeChoice::Random)?,
            }))
        });
        registry.register("tr-eo", &["p", "x"], |p| {
            Ok(Box::new(TriangleReduction {
                cfg: tr_config(p, Discipline::EdgeOnce, EdgeChoice::Random)?,
            }))
        });
        registry.register("tr-ct", &["p", "x"], |p| {
            Ok(Box::new(TriangleReduction {
                cfg: tr_config(p, Discipline::EdgeOnce, EdgeChoice::FewestTriangles)?,
            }))
        });
        registry.register("tr-mw", &["p", "x"], |p| {
            Ok(Box::new(TriangleReduction {
                cfg: tr_config(p, Discipline::EdgeOnce, EdgeChoice::MaxWeight)?,
            }))
        });
        registry.register("collapse", &["p"], |p| {
            Ok(Box::new(TriangleCollapse { p: p.get_f64_in("p", 0.5, PROBABILITY)? }))
        });
        registry.register("lowdeg", &[], |_| Ok(Box::new(LowDegree)));
        registry.register("spanner", &["k"], |p| {
            Ok(Box::new(Spanner { k: p.get_f64_in("k", 8.0, 1.0..=f64::INFINITY)? }))
        });
        registry.register("summary", &["epsilon"], |p| {
            Ok(Box::new(Summarization {
                epsilon: p.get_f64_in("epsilon", 0.1, 0.0..=f64::INFINITY)?,
            }))
        });
        registry.register("cut", &["k"], |p| {
            // k is accepted as a float (truncated) so one shared --k flag
            // serves both spanner and cut stages.
            Ok(Box::new(CutSparsifier { k: p.get_f64("k", 8.0)?.max(1.0) as u32 }))
        });
        registry
    }

    /// Registers (or replaces) a scheme factory under `name`. `param_keys`
    /// lists the parameter names the factory reads; pipeline-spec overrides
    /// for other keys are rejected.
    pub fn register(
        &mut self,
        name: &str,
        param_keys: &'static [&'static str],
        factory: impl Fn(&SchemeParams) -> Result<Box<dyn CompressionScheme>, String>
            + Send
            + Sync
            + 'static,
    ) {
        self.schemes
            .insert(name.to_string(), RegisteredScheme { factory: Box::new(factory), param_keys });
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.schemes.contains_key(name)
    }

    /// All registered names, in stable (sorted) order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.schemes.keys().map(String::as_str)
    }

    /// The parameter keys read by the scheme registered as `name`.
    pub fn param_keys(&self, name: &str) -> Option<&'static [&'static str]> {
        self.schemes.get(name).map(|s| s.param_keys)
    }

    /// Instantiates the scheme registered as `name` with `params`. Keys the
    /// scheme does not read are ignored, so one shared parameter bag can
    /// serve a whole pipeline.
    pub fn create(
        &self,
        name: &str,
        params: &SchemeParams,
    ) -> Result<Box<dyn CompressionScheme>, String> {
        match self.schemes.get(name) {
            Some(scheme) => (scheme.factory)(params),
            None => {
                let known: Vec<&str> = self.names().collect();
                Err(format!("unknown scheme '{name}' (known: {})", known.join(", ")))
            }
        }
    }

    /// Parses a pipeline spec: comma-separated stages, each `name` or
    /// `name:key=value[:key=value…]`, with per-stage assignments layered
    /// over `base` parameters. Example:
    /// `"spanner:k=4,lowdeg,uniform:p=0.3"`. Per-stage keys are validated
    /// against the scheme's declared parameters so typos fail loudly
    /// instead of silently running with defaults. The parsed intermediate
    /// form is [`crate::PipelineSpec`]; use it directly when the chain is
    /// constructed programmatically (as `sg-tune` does).
    pub fn parse_pipeline(
        &self,
        spec: &str,
        base: &SchemeParams,
    ) -> Result<crate::Pipeline, String> {
        crate::PipelineSpec::parse(spec)?.build_with_base(self, base)
    }
}

impl Default for SchemeRegistry {
    fn default() -> Self {
        Self::with_defaults()
    }
}

/// The domain of every probability-valued scheme parameter.
const PROBABILITY: RangeInclusive<f64> = 0.0..=1.0;

fn tr_config(
    params: &SchemeParams,
    discipline: Discipline,
    choice: EdgeChoice,
) -> Result<TrConfig, String> {
    let p = params.get_f64_in("p", 0.5, PROBABILITY)?;
    let x = params.get_u32("x", 1)? as usize;
    if x != 1 && x != 2 {
        return Err(format!("TR parameter x must be 1 or 2, got {x}"));
    }
    Ok(TrConfig { p, x, discipline, choice })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graph::generators;

    #[test]
    fn registry_covers_the_zoo_and_every_scheme_applies() {
        let registry = SchemeRegistry::with_defaults();
        for required in [
            "uniform", "spectral", "tr", "tr-eo", "tr-ct", "tr-mw", "collapse", "lowdeg",
            "spanner", "summary", "cut",
        ] {
            assert!(registry.contains(required), "missing scheme '{required}'");
        }
        let g = generators::planted_triangles(&generators::erdos_renyi(300, 900, 1), 300, 2);
        let params = SchemeParams::from_pairs(&[("p", "0.4"), ("k", "4"), ("epsilon", "0.05")]);
        for name in registry.names() {
            let scheme = registry.create(name, &params).expect("factory succeeds");
            assert_eq!(scheme.name(), name, "name round-trips through the registry");
            let r = scheme.apply(&g, 7);
            assert!(
                r.graph.num_edges() <= g.num_edges() + g.num_edges() / 10,
                "{} inflated edges",
                scheme.label()
            );
            assert!(!scheme.label().is_empty());
        }
    }

    #[test]
    fn labels_render_name_and_params() {
        assert_eq!(Uniform { p: 0.2 }.label(), "uniform (p=0.2)");
        assert_eq!(Spanner { k: 16.0 }.label(), "spanner (k=16)");
        assert_eq!(LowDegree.label(), "lowdeg");
        // TR keeps the paper's naming.
        assert_eq!(TriangleReduction { cfg: TrConfig::edge_once_1(0.8) }.label(), "EO-0.8-1-TR");
    }

    #[test]
    fn unknown_names_and_bad_params_error() {
        let registry = SchemeRegistry::with_defaults();
        let err = registry.create("nope", &SchemeParams::new()).err().expect("unknown name errors");
        assert!(err.contains("unknown scheme"), "{err}");
        let bad = SchemeParams::from_pairs(&[("p", "abc")]);
        assert!(registry.create("uniform", &bad).is_err());
        let bad_x = SchemeParams::from_pairs(&[("x", "3")]);
        assert!(registry.create("tr", &bad_x).is_err());
    }

    #[test]
    fn factories_enforce_parameter_domains() {
        let registry = SchemeRegistry::with_defaults();
        let create = |name: &str, key: &str, value: &str| {
            registry.create(name, &SchemeParams::from_pairs(&[(key, value)]))
        };
        for name in ["uniform", "tr", "tr-eo", "tr-ct", "tr-mw", "collapse"] {
            for bad in ["-0.1", "1.5", "NaN", "inf"] {
                let err = create(name, "p", bad).err().expect("out of [0, 1]");
                assert!(err.contains("parameter p") && err.contains("[0, 1]"), "{name}: {err}");
            }
            // The endpoints stay legal (sg-tune's candidate axes use them).
            assert!(create(name, "p", "0").is_ok() && create(name, "p", "1").is_ok(), "{name}");
        }
        for (name, key, bad, edge) in [
            ("spectral", "p", "-1", "0"),
            ("spanner", "k", "0", "1"),
            ("summary", "epsilon", "NaN", "0"),
        ] {
            let err = create(name, key, bad).err().expect("out of domain");
            assert!(err.contains(&format!("parameter {key}")), "{name}: {err}");
            assert!(create(name, key, "inf").is_err(), "{name}: infinite {key}");
            assert!(create(name, key, edge).is_ok(), "{name}: {key}={edge} is legal");
        }
    }

    #[test]
    fn pipeline_specs_reject_unknown_stage_parameters() {
        let registry = SchemeRegistry::with_defaults();
        let base = SchemeParams::new();
        // Typo'd key (capital K) must fail loudly, not run with defaults.
        let err = registry.parse_pipeline("spanner:K=4", &base).err().expect("typo rejected");
        assert!(err.contains("does not accept parameter 'K'"), "{err}");
        assert!(err.contains("accepts: k"), "{err}");
        let err = registry.parse_pipeline("lowdeg:p=0.5", &base).err().expect("rejected");
        assert!(err.contains("accepts: none"), "{err}");
        // Valid per-stage keys still parse.
        assert_eq!(
            registry.parse_pipeline("spanner:k=4,uniform:p=0.3", &base).expect("parses").len(),
            2
        );
        // Shared base params may carry keys some stages ignore.
        let shared = SchemeParams::from_pairs(&[("p", "0.5"), ("k", "4")]);
        assert!(registry.parse_pipeline("spanner,lowdeg,uniform", &shared).is_ok());
    }

    #[test]
    fn cut_sparsifier_defaults_and_float_k_match_previous_cli_behavior() {
        let registry = SchemeRegistry::with_defaults();
        let cut = registry.create("cut", &SchemeParams::new()).expect("default");
        assert_eq!(cut.label(), "cut (k=8)", "default threshold is 8, as documented");
        let half = registry
            .create("cut", &SchemeParams::from_pairs(&[("k", "2.5")]))
            .expect("float k truncates");
        assert_eq!(half.label(), "cut (k=2)");
        let floor =
            registry.create("cut", &SchemeParams::from_pairs(&[("k", "0")])).expect("clamped to 1");
        assert_eq!(floor.label(), "cut (k=1)");
    }

    #[test]
    fn factories_match_direct_construction() {
        let g = generators::erdos_renyi(200, 800, 3);
        let registry = SchemeRegistry::with_defaults();
        let via_registry = registry
            .create("uniform", &SchemeParams::from_pairs(&[("p", "0.3")]))
            .expect("known scheme");
        let direct = Uniform { p: 0.3 };
        assert_eq!(
            via_registry.apply(&g, 11).graph.edge_slice(),
            direct.apply(&g, 11).graph.edge_slice()
        );
    }

    #[test]
    fn custom_registration_is_resolvable() {
        let mut registry = SchemeRegistry::new();
        registry.register("noop", &[], |_| Ok(Box::new(Uniform { p: 0.0 })));
        assert!(registry.contains("noop"));
        let g = generators::cycle(10);
        let r = registry.create("noop", &SchemeParams::new()).expect("registered").apply(&g, 0);
        assert_eq!(r.graph.num_edges(), g.num_edges());
    }
}
