//! Memory-experiment runtime: policy-adaptive Monte-Carlo simulation with
//! decoding and the paper's metrics.
//!
//! Per shot, the runner executes `R` syndrome-extraction rounds. Before each
//! round it consults the [`LrcPolicy`] with the previous round's detection
//! events (and readout labels under multi-level readout), builds the round
//! circuit — SWAP-LRC or DQLR protocol — and executes it on the
//! leakage-aware frame simulator, handling ERASER+M's intra-round branch
//! (squash the swap-back and reset the parity qubit when the LRC's data
//! readout is |L⟩, §4.6.2). After the final transversal readout the Z-basis
//! detector graph is decoded and the logical-Z outcome compared.
//!
//! Shots run **stripe-at-a-time**: up to 64 shots are packed into one
//! word-parallel [`BatchFrameSimulator`] stripe, driven by a *static* round
//! schedule (`surface_code::MaskedRound`) whose dynamic LRC decisions are
//! resolved each round into per-slot lane masks by the [`StripedPolicy`]
//! layer; the stripe's defect/erasure sets then feed the decoder as one
//! `decode_batch` call. [`RunConfig::stripe_width`] selects the width, down
//! to one-lane stripes; results are bit-identical at every width — exactly
//! like the worker-thread count, striping is a pure wall-clock knob.
//!
//! Decoding has two paths. **Monolithic** (the default, auto-selected when
//! [`RunConfig::window_rounds`] is 0 or exceeds the round count): the whole
//! shot's detection events form one syndrome over the whole-experiment
//! decoding graph. **Sliding-window streaming** (`window_rounds` in
//! `1..=rounds`, or the `ERASER_WINDOW` environment variable): each round's
//! defects and erasure flags are pushed into a per-shot
//! [`qec_decoder::WindowedDecoder`] as the round completes, and windows of
//! `window_rounds` rounds are decoded incrementally, committing
//! `window_stride` rounds each (the remaining buffer — keep it ≥ d — is
//! re-decoded by the next window). Peak decoder memory is then O(window²)
//! regardless of R, which is what makes long-memory workloads (R ≫ d)
//! decodable with MWPM at all; per-window decode latency lands in
//! [`MemoryRunResult::decode_latency`]. The simulated physics is identical
//! on both paths — only the decode differs.
//!
//! Metrics collected per run (paper §5.4, §6.4):
//!
//! * **LER** — logical error rate (Eq. 4);
//! * **LPR** — leakage population ratio per round (Eq. 5), probed between
//!   the entangling layers and the measurement layer, split into data/parity;
//! * **LRC count** — average LRCs per round (Table 4);
//! * **speculation stats** — TP/FP/FN/TN of "this data qubit is leaked"
//!   decisions against simulator ground truth (Fig 16).

use crate::cache::{ArtifactCache, ArtifactKind, CacheKey, ExperimentKey};
use crate::control::{parse_control_env, ControllerConfig, ControllerStats, LeakageProfile};
use crate::policy::{LrcPolicy, StripeRoundContext, StripedPolicy};
use leak_sim::{BatchFrameSimulator, Discriminator, STRIPE_WIDTH};
use qec_core::circuit::DetectorBasis;
use qec_core::{DetectorInfo, MeasKey, NoiseParams, Op, OpCond, Rng};
use qec_decoder::{
    build_dem, DecodeOutcome, DecoderFactory, DecodingGraph, DetectorErrorModel, FusionDecoder,
    FusionPlan, FusionPool, GreedyFactory, MwpmFactory, ShortestPaths, SparseIndex,
    SparseMwpmFactory, StreamingDecoder, Syndrome, SyndromeDecoder, TierCounters, TieredDecoder,
    UnionFindCapacities, UnionFindFactory, WindowBackend, WindowPlan, WindowedDecoder,
};
use std::sync::Arc;
use surface_code::{MaskedRound, MemoryBasis, MemoryExperiment, RotatedCode, SlotTable};

/// Which leakage-removal protocol the scheduled pairs execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LrcProtocol {
    /// SWAP-based LRC (Fig 1(b), the main text's protocol).
    #[default]
    Swap,
    /// Google's DQLR protocol (Appendix A.2).
    Dqlr,
}

/// Decoder selection for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecoderKind {
    /// Dense MWPM below [`DecoderKind::AUTO_MWPM_NODE_LIMIT`] graph nodes,
    /// sparse MWPM above. On the monolithic path the node count is the
    /// whole-experiment graph's (where dense MWPM's O(n²) path table prices
    /// out large d × R products — the sparse blossom keeps the same optimal
    /// weight with O(n) precomputation); on the sliding-window path it is
    /// the *window's*.
    #[default]
    Auto,
    /// Exact blossom MWPM (the paper's decoder), dense all-pairs tables.
    Mwpm,
    /// Exact sparse blossom MWPM: same optimal correction weight as
    /// [`DecoderKind::Mwpm`] without the all-pairs table — the
    /// MWPM-accuracy decoder for d ≥ 11.
    SparseMwpm,
    /// Weighted union-find.
    UnionFind,
    /// Greedy nearest-first (ablation baseline).
    Greedy,
}

impl DecoderKind {
    /// Node count above which `Auto` switches from dense to sparse MWPM.
    /// This constant — together with [`DecoderKind::resolve`] — is the
    /// *single* source of the Auto-selection rule; both
    /// [`MemoryRunner::run`] and the `Experiment` facade go through it.
    pub const AUTO_MWPM_NODE_LIMIT: usize = 3000;

    /// Resolves `Auto` against a concrete decoding graph; the other variants
    /// map to themselves. Never returns [`DecoderKind::Auto`]. Both arms are
    /// MWPM-accurate: the limit only decides whether the dense all-pairs
    /// table is affordable.
    pub fn resolve(self, graph: &DecodingGraph) -> DecoderKind {
        match self {
            DecoderKind::Auto => {
                if graph.num_nodes() <= DecoderKind::AUTO_MWPM_NODE_LIMIT {
                    DecoderKind::Mwpm
                } else {
                    DecoderKind::SparseMwpm
                }
            }
            other => other,
        }
    }

    /// Builds the decoder factory for `graph`: the one place decoder
    /// construction (including Auto selection) happens. The factory owns the
    /// expensive per-graph precomputation (shared via `Arc`); every worker
    /// thread then builds its own stateful instance from it.
    pub fn build_factory(self, graph: &DecodingGraph) -> Box<dyn DecoderFactory + '_> {
        match self.resolve(graph) {
            DecoderKind::Mwpm => Box::new(MwpmFactory::new(graph)),
            DecoderKind::SparseMwpm => Box::new(SparseMwpmFactory::new(graph)),
            DecoderKind::UnionFind => Box::new(UnionFindFactory::new(graph)),
            DecoderKind::Greedy => Box::new(GreedyFactory::new(graph)),
            DecoderKind::Auto => unreachable!("resolve never returns Auto"),
        }
    }

    /// Resolves the per-window backend for sliding-window decoding: `Auto`
    /// applies [`DecoderKind::AUTO_MWPM_NODE_LIMIT`] to the *window's* node
    /// count (per-round nodes × window rounds) rather than the whole
    /// experiment's — the windowed path is exactly what keeps MWPM viable at
    /// large R.
    pub fn resolve_window_backend(self, graph: &DecodingGraph, window: usize) -> WindowBackend {
        match self {
            DecoderKind::Auto => {
                let per_round = graph.num_nodes() / (graph.max_round() + 1).max(1);
                if per_round * (window + 1) <= DecoderKind::AUTO_MWPM_NODE_LIMIT {
                    WindowBackend::Mwpm
                } else {
                    WindowBackend::SparseMwpm
                }
            }
            DecoderKind::Mwpm => WindowBackend::Mwpm,
            DecoderKind::SparseMwpm => WindowBackend::SparseMwpm,
            DecoderKind::UnionFind => WindowBackend::UnionFind,
            DecoderKind::Greedy => WindowBackend::Greedy,
        }
    }
}

/// Leakage-detection model for erasure-aware decoding.
///
/// When `enabled`, the runner reads each policy's per-round
/// [`LrcPolicy::leakage_detections`] flags, optionally perturbs them with an
/// imperfect-erasure-check model (independent per-qubit-per-round
/// false-positive/false-negative rates, after Chang et al. 2024, "Surface
/// Code with Imperfect Erasure Checks"), maps the surviving flags to the
/// exact heralded mechanisms' decoding-graph edges (fault provenance:
/// `ErrorMechanism::sources` +
/// [`DecodingGraph::erasure_edges_for_mechanism`]), and hands them to the
/// decoder as [`Syndrome::erasures`].
///
/// Detection noise draws from a per-shot stream that is independent of the
/// simulator's, so enabling erasure decoding never changes the physical
/// shots: leakage-aware and leakage-blind runs of the same seed decode the
/// *same* error realizations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErasureDetection {
    /// Whether erasure information flows to the decoder at all.
    pub enabled: bool,
    /// Probability that an unflagged qubit is spuriously reported leaked
    /// (per qubit, per round).
    pub false_positive: f64,
    /// Probability that a flagged qubit's report is dropped (per flag).
    pub false_negative: f64,
}

impl Default for ErasureDetection {
    fn default() -> ErasureDetection {
        ErasureDetection {
            enabled: false,
            false_positive: 0.0,
            false_negative: 0.0,
        }
    }
}

impl ErasureDetection {
    /// Erasure decoding with the policy's flags passed through verbatim.
    pub fn perfect_readout() -> ErasureDetection {
        ErasureDetection {
            enabled: true,
            ..ErasureDetection::default()
        }
    }

    /// Erasure decoding under imperfect erasure checks.
    pub fn imperfect(false_positive: f64, false_negative: f64) -> ErasureDetection {
        ErasureDetection {
            enabled: true,
            false_positive,
            false_negative,
        }
    }
}

/// Monte-Carlo run configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Number of shots.
    pub shots: u64,
    /// Root RNG seed. Every shot derives its own stream from (seed, shot
    /// index), so the whole run is a pure function of the seed — regardless
    /// of the worker-thread count.
    pub seed: u64,
    /// Worker threads; 0 means the `ERASER_THREADS` environment variable if
    /// set, else all available cores.
    pub threads: usize,
    /// Decoder selection. `Auto` defers to the `ERASER_DECODER`
    /// environment variable if set, else to the node-count rule in
    /// [`DecoderKind::resolve`]. An explicit kind always wins.
    pub decoder: DecoderKind,
    /// Leakage-removal protocol executed for scheduled pairs.
    pub protocol: LrcProtocol,
    /// Whether to decode at all. LPR-only experiments (Fig 5, 15, 18, 21)
    /// disable decoding; `logical_errors` is then 0 and the LER meaningless.
    pub decode: bool,
    /// Erasure-aware decoding: thread the policy's leakage-detection flags
    /// into the decoder as dynamically reweighted (erased) edges.
    pub erasure: ErasureDetection,
    /// Shots simulated per word-parallel stripe (1..=64); 0 means the full
    /// 64-lane stripe. Width 1 runs one-lane stripes through the same shot
    /// loop; results are bit-identical for every width (shots own their RNG
    /// streams), so the width only changes wall-clock time.
    pub stripe_width: usize,
    /// Sliding-window length in rounds for streaming decoding; 0 means the
    /// `ERASER_WINDOW` environment variable if set, else monolithic
    /// whole-shot decoding. A window larger than the round count also
    /// auto-selects the monolithic path (one window would cover the shot).
    pub window_rounds: usize,
    /// Rounds committed (and advanced) per window; 0 derives the default
    /// `window_rounds − d` (clamped to ≥ 1), which keeps the re-decoded
    /// buffer at d rounds. Must not exceed `window_rounds`.
    pub window_stride: usize,
    /// Intra-shot fusion decoding threads: each shot's window chain is
    /// partitioned into this many leaf blocks, decoded concurrently, and
    /// fused up a balanced merge tree — bit-identical to the sequential
    /// windowed path at every count. 0 means the `ERASER_FUSION`
    /// environment variable if set, else 1 (sequential). Values > 1 imply
    /// windowed decoding: if no window is configured, `min(3d, rounds)`
    /// with the default stride is derived. Per-worker fusion pools stack on
    /// top of [`RunConfig::threads`], so pair `fusion_threads = T` with
    /// `threads = cores / T` when measuring latency.
    pub fusion_threads: usize,
    /// Feedback-controller override for adaptive policies: `Some` replaces
    /// the knobs embedded in `PolicyKind::Adaptive` for this run; `None`
    /// defers to the `ERASER_CONTROL` environment variable, then to the
    /// policy's own configuration. Static policies ignore it entirely.
    pub controller: Option<ControllerConfig>,
    /// Time-varying injected-leakage schedule (bursts, ramps). The runner
    /// applies the profile's per-round rate as an extra `LeakInject` on
    /// every data qubit at the top of each round, drawn from each shot's
    /// own physics stream. [`LeakageProfile::Stationary`] (the
    /// default) injects nothing.
    pub profile: LeakageProfile,
    /// Tiered sparse-syndrome fast path in front of every decode (tier 0
    /// skips empty syndromes/windows, tier 1 resolves 1–2 defects in
    /// closed form, tier 2 is the configured backend — bit-identical
    /// either way). `Some` forces it; `None` defers to the
    /// `ERASER_PREDECODE` environment variable (`on`/`off`), then to on.
    pub predecode: Option<bool>,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            shots: 1000,
            seed: 0x2023,
            threads: 0,
            decoder: DecoderKind::Auto,
            protocol: LrcProtocol::Swap,
            decode: true,
            erasure: ErasureDetection::default(),
            stripe_width: 0,
            window_rounds: 0,
            window_stride: 0,
            fusion_threads: 0,
            controller: None,
            profile: LeakageProfile::Stationary,
            predecode: None,
        }
    }
}

/// A malformed `ERASER_*` environment override.
///
/// The `ERASER_THREADS` / `ERASER_WINDOW` hooks used to be resolved with
/// `.parse().ok()`, so a typo (`ERASER_THREADS=fuor`) silently fell back
/// to the default — the worst failure mode for a knob whose whole job is
/// reproducing a specific configuration. Malformed values now surface as
/// this error: the `Experiment`/`Sweep` builders return it at build time,
/// and the low-level [`MemoryRunner::run`] path panics with its message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvOverrideError {
    /// The environment variable that failed to parse.
    pub var: &'static str,
    /// Its raw value.
    pub value: String,
    /// What was wrong with it.
    pub reason: &'static str,
}

impl std::fmt::Display for EnvOverrideError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid {}={:?}: {} (unset the variable or fix the value)",
            self.var, self.value, self.reason
        )
    }
}

impl std::error::Error for EnvOverrideError {}

/// The shared envelope of every strict `ERASER_*` parser: trim the raw
/// value, treat empty/whitespace as unset (CI matrix legs pass `""` to
/// mean "no override"), and wrap any value-level rejection in an
/// [`EnvOverrideError`] naming the variable. Each override supplies only
/// its value grammar; the unset/error plumbing can't drift between knobs.
pub(crate) fn parse_env_override<T>(
    var: &'static str,
    raw: &str,
    parse: impl FnOnce(&str) -> Result<T, &'static str>,
) -> Result<Option<T>, EnvOverrideError> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match parse(trimmed) {
        Ok(value) => Ok(Some(value)),
        Err(reason) => Err(EnvOverrideError {
            var,
            value: raw.to_string(),
            reason,
        }),
    }
}

/// Parses an `ERASER_THREADS` value: a positive integer. An empty (or
/// all-whitespace) value counts as unset — CI matrix legs pass `""` to
/// mean "no override".
pub fn parse_threads_env(raw: &str) -> Result<Option<usize>, EnvOverrideError> {
    parse_env_override("ERASER_THREADS", raw, parse_positive)
}

/// Parses an `ERASER_FUSION` value: a positive intra-shot fusion thread
/// count (1 = sequential windowed decoding). Empty counts as unset.
pub fn parse_fusion_env(raw: &str) -> Result<Option<usize>, EnvOverrideError> {
    parse_env_override("ERASER_FUSION", raw, parse_positive)
}

fn parse_positive(value: &str) -> Result<usize, &'static str> {
    match value.parse::<usize>() {
        Ok(0) => Err("must be a positive integer"),
        Ok(n) => Ok(n),
        Err(_) => Err("not an integer"),
    }
}

/// Parses an `ERASER_DECODER` value: a decoder name (`auto`, `mwpm`,
/// `sparse-mwpm`, `union-find`, `greedy`, or an alias accepted by
/// [`DecoderKind`]'s `FromStr`). Empty counts as unset — CI matrix legs
/// pass `""` to mean "no override".
pub fn parse_decoder_env(raw: &str) -> Result<Option<DecoderKind>, EnvOverrideError> {
    parse_env_override("ERASER_DECODER", raw, |value| {
        value.parse::<DecoderKind>().map_err(|_| {
            "unknown decoder (expected auto, mwpm, sparse-mwpm, union-find, or greedy)"
        })
    })
}

/// Parses an `ERASER_WINDOW` specification: `"15"` (window only, stride
/// defaulted at run time against the code distance) or `"15:10"`
/// (window:stride, stride ≤ window). Empty counts as unset.
pub fn parse_window_env(raw: &str) -> Result<Option<(usize, usize)>, EnvOverrideError> {
    parse_env_override("ERASER_WINDOW", raw, |value| {
        let mut it = value.splitn(2, ':');
        let window = match it.next().unwrap_or("").trim().parse::<usize>() {
            Ok(0) => return Err("window must be a positive round count"),
            Ok(w) => w,
            Err(_) => return Err("expected \"W\" or \"W:S\" with integer rounds"),
        };
        let stride = match it.next() {
            Some(s) => match s.trim().parse::<usize>() {
                Ok(x) if x <= window => x,
                Ok(_) => return Err("stride exceeds the window"),
                Err(_) => return Err("expected \"W\" or \"W:S\" with integer rounds"),
            },
            None => 0,
        };
        Ok((window, stride))
    })
}

/// Parses an `ERASER_PREDECODE` value: `on` or `off` (the tiered
/// sparse-syndrome fast path in front of every decode). Empty counts as
/// unset — the predecoder then defaults to on.
pub fn parse_predecode_env(raw: &str) -> Result<Option<bool>, EnvOverrideError> {
    parse_env_override("ERASER_PREDECODE", raw, |value| match value {
        "on" => Ok(true),
        "off" => Ok(false),
        _ => Err("expected \"on\" or \"off\""),
    })
}

impl RunConfig {
    /// The worker-thread count this configuration resolves to: `threads`
    /// itself; else the `ERASER_THREADS` environment variable (the CI test
    /// matrix's hook); else every available core. Results are bit-identical
    /// for any resolution — shots own their RNG streams — so this only
    /// affects wall-clock time. A malformed override is an error, never a
    /// silent default.
    pub fn resolved_threads(&self) -> Result<usize, EnvOverrideError> {
        if self.threads != 0 {
            return Ok(self.threads);
        }
        if let Ok(raw) = std::env::var("ERASER_THREADS") {
            if let Some(n) = parse_threads_env(&raw)? {
                return Ok(n);
            }
        }
        Ok(std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1))
    }

    /// The `(window_rounds, window_stride)` pair this configuration resolves
    /// to: the config fields themselves when `window_rounds` is set; else the
    /// `ERASER_WINDOW` environment variable (`"W"` or `"W:S"`, the CI smoke
    /// leg's hook); else `(0, 0)` — monolithic decoding. A stride of 0 is
    /// resolved later against the code distance (`window − d`, min 1).
    /// A malformed override is an error, never a silent default.
    pub fn resolved_window(&self) -> Result<(usize, usize), EnvOverrideError> {
        if self.window_rounds != 0 {
            return Ok((
                self.window_rounds,
                self.window_stride.min(self.window_rounds),
            ));
        }
        if let Ok(raw) = std::env::var("ERASER_WINDOW") {
            if let Some(pair) = parse_window_env(&raw)? {
                return Ok(pair);
            }
        }
        Ok((0, 0))
    }

    /// The decoder selection this configuration resolves to: `decoder`
    /// itself when it is not `Auto`; else the `ERASER_DECODER` environment
    /// variable (the CI test matrix's hook); else `Auto`, deferred to
    /// [`DecoderKind::resolve`] against the concrete decoding graph. Every
    /// resolution is MWPM-accurate or an explicitly requested ablation, so
    /// the override never silently degrades accuracy. A malformed override
    /// is an error, never a silent default.
    pub fn resolved_decoder(&self) -> Result<DecoderKind, EnvOverrideError> {
        if self.decoder != DecoderKind::Auto {
            return Ok(self.decoder);
        }
        if let Ok(raw) = std::env::var("ERASER_DECODER") {
            if let Some(kind) = parse_decoder_env(&raw)? {
                return Ok(kind);
            }
        }
        Ok(DecoderKind::Auto)
    }

    /// The stripe width this configuration resolves to: `stripe_width`
    /// clamped to 1..=64, with 0 meaning the full 64-lane stripe. Results
    /// are bit-identical for any width — this only affects wall-clock time.
    pub fn resolved_stripe_width(&self) -> usize {
        match self.stripe_width {
            0 => STRIPE_WIDTH,
            w => w.min(STRIPE_WIDTH),
        }
    }

    /// The intra-shot fusion thread count this configuration resolves to:
    /// `fusion_threads` itself; else the `ERASER_FUSION` environment
    /// variable (the CI test matrix's hook); else 1 — sequential windowed
    /// decoding. Results are bit-identical for any resolution (the fusion
    /// merge tree reconverges on the sequential carry chain), so this only
    /// affects per-shot decode latency. A malformed override is an error,
    /// never a silent default.
    pub fn resolved_fusion(&self) -> Result<usize, EnvOverrideError> {
        if self.fusion_threads != 0 {
            return Ok(self.fusion_threads);
        }
        if let Ok(raw) = std::env::var("ERASER_FUSION") {
            if let Some(n) = parse_fusion_env(&raw)? {
                return Ok(n);
            }
        }
        Ok(1)
    }

    /// The controller configuration adaptive policies resolve to:
    /// `controller` itself when set; else the `ERASER_CONTROL` environment
    /// variable (a controller spec, e.g. `ewma:up=0.1,down=0.03`); else
    /// `None` — the `PolicyKind::Adaptive` variant's own knobs apply.
    /// A malformed override is an error, never a silent default.
    pub fn resolved_controller(&self) -> Result<Option<ControllerConfig>, EnvOverrideError> {
        if let Some(config) = self.controller {
            return Ok(Some(config));
        }
        if let Ok(raw) = std::env::var("ERASER_CONTROL") {
            return parse_control_env(&raw);
        }
        Ok(None)
    }

    /// Whether the tiered predecoder is active for this run: `predecode`
    /// itself when set; else the `ERASER_PREDECODE` environment variable
    /// (`on`/`off`, the CI test matrix's hook); else on. Results are
    /// bit-identical for either resolution — the tiers are exact — so this
    /// only affects decode latency and telemetry. A malformed override is
    /// an error, never a silent default.
    pub fn resolved_predecode(&self) -> Result<bool, EnvOverrideError> {
        if let Some(on) = self.predecode {
            return Ok(on);
        }
        if let Ok(raw) = std::env::var("ERASER_PREDECODE") {
            if let Some(on) = parse_predecode_env(&raw)? {
                return Ok(on);
            }
        }
        Ok(true)
    }

    /// Checks every `ERASER_*` override this configuration would consult,
    /// so facades can reject malformed environments eagerly (at build
    /// time) instead of deep inside a worker thread.
    pub fn validate_env(&self) -> Result<(), EnvOverrideError> {
        self.resolved_threads()?;
        self.resolved_window()?;
        self.resolved_decoder()?;
        self.resolved_fusion()?;
        self.resolved_controller()?;
        self.resolved_predecode()?;
        Ok(())
    }
}

/// The RNG stream of one shot: a pure function of (root seed, global shot
/// index), independent of how shots are partitioned across worker threads —
/// this is what makes run results bit-identical for any thread count. The
/// multiplier is the SplitMix64 golden-ratio increment; [`Rng::new`] then
/// applies two full SplitMix64 mixes per state word, decorrelating adjacent
/// shot indices.
fn shot_rng(seed: u64, shot: u64) -> Rng {
    Rng::new(seed ^ shot.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Builds the runner's provenance buckets as CSR `(offsets, edges)`, row
/// `round * num_qubits + qubit`: every mechanism's graph edges are credited
/// to each `(round, qubit)` its source ops touched (`op_round` gives an
/// op's round), then each row is sorted and deduplicated. Two passes
/// (count, fill) size the column; deduplication compacts it in place.
fn provenance_buckets(
    dem: &DetectorErrorModel,
    graph: &DecodingGraph,
    ops: &[Op],
    op_round: &[usize],
    rounds: usize,
    num_qubits: usize,
) -> (Vec<usize>, Vec<usize>) {
    let buckets = rounds * num_qubits;
    let credits = |visit: &mut dyn FnMut(usize, &[usize])| {
        for (mi, mech) in dem.mechanisms.iter().enumerate() {
            let medges = graph.erasure_edges_for_mechanism(mi);
            if medges.is_empty() {
                continue;
            }
            for &src in &mech.sources {
                let r = op_round[src as usize];
                for q in op_operands(&ops[src as usize]).into_iter().flatten() {
                    visit(r * num_qubits + q, medges);
                }
            }
        }
    };
    let mut offsets = vec![0usize; buckets + 1];
    credits(&mut |b, medges| offsets[b + 1] += medges.len());
    for b in 0..buckets {
        offsets[b + 1] += offsets[b];
    }
    let mut cursor = offsets.clone();
    let mut edges = vec![0usize; offsets[buckets]];
    credits(&mut |b, medges| {
        edges[cursor[b]..cursor[b] + medges.len()].copy_from_slice(medges);
        cursor[b] += medges.len();
    });
    let (mut start, mut write) = (0, 0);
    for b in 0..buckets {
        let end = offsets[b + 1];
        edges[start..end].sort_unstable();
        let row_start = write;
        for i in start..end {
            if write == row_start || edges[i] != edges[write - 1] {
                edges[write] = edges[i];
                write += 1;
            }
        }
        offsets[b + 1] = write;
        start = end;
    }
    edges.truncate(write);
    edges.shrink_to_fit();
    (offsets, edges)
}

/// The qubit operands of an op, for fault-provenance attribution (only
/// noise ops ever appear as mechanism sources, but the mapping is total).
fn op_operands(op: &Op) -> [Option<usize>; 2] {
    match *op {
        Op::H(q) | Op::Reset(q) => [Some(q), None],
        Op::Measure { qubit, .. }
        | Op::Depolarize1 { qubit, .. }
        | Op::XError { qubit, .. }
        | Op::LeakInject { qubit, .. }
        | Op::Seep { qubit, .. } => [Some(qubit), None],
        Op::Cnot { control, target } | Op::CnotNoTransport { control, target } => {
            [Some(control), Some(target)]
        }
        Op::Depolarize2 { a, b, .. } => [Some(a), Some(b)],
        Op::LeakIswap { data, parity } => [Some(data), Some(parity)],
        Op::Tick => [None, None],
    }
}

/// Confusion-matrix counts for per-round, per-data-qubit "leaked?" decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpeculationStats {
    /// LRC scheduled and the qubit was leaked.
    pub true_positive: u64,
    /// LRC scheduled but the qubit was not leaked.
    pub false_positive: u64,
    /// No LRC but the qubit was leaked.
    pub false_negative: u64,
    /// No LRC and the qubit was not leaked.
    pub true_negative: u64,
}

impl SpeculationStats {
    /// Fraction of correct decisions (Fig 16 top).
    pub fn accuracy(&self) -> f64 {
        let total =
            self.true_positive + self.false_positive + self.false_negative + self.true_negative;
        if total == 0 {
            return 1.0;
        }
        (self.true_positive + self.true_negative) as f64 / total as f64
    }

    /// False-positive rate FP/(FP+TN) (Fig 16 bottom).
    pub fn false_positive_rate(&self) -> f64 {
        let denom = self.false_positive + self.true_negative;
        if denom == 0 {
            return 0.0;
        }
        self.false_positive as f64 / denom as f64
    }

    /// False-negative rate FN/(FN+TP) (Fig 16 bottom).
    pub fn false_negative_rate(&self) -> f64 {
        let denom = self.false_negative + self.true_positive;
        if denom == 0 {
            return 0.0;
        }
        self.false_negative as f64 / denom as f64
    }

    fn merge(&mut self, other: &SpeculationStats) {
        self.true_positive += other.true_positive;
        self.false_positive += other.false_positive;
        self.false_negative += other.false_negative;
        self.true_negative += other.true_negative;
    }
}

/// Offline leakage post-selection statistics (the paper's §2.4 prior-work
/// category (1)): a shot is *flagged* when its syndrome history contains a
/// leakage-like pattern (some data qubit with at least half of its
/// neighbouring parity checks firing in one round — the LSB rule applied
/// offline). Post-selection discards flagged shots; it can clean up memory
/// experiments but cannot be used during real computation, which is the
/// paper's motivation for real-time suppression.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PostSelection {
    /// Shots whose syndrome history was flagged as leakage-suspect.
    pub flagged_shots: u64,
    /// Logical errors among the *unflagged* (kept) shots.
    pub errors_on_kept: u64,
}

impl PostSelection {
    /// Fraction of shots that survive post-selection.
    pub fn keep_fraction(&self, shots: u64) -> f64 {
        if shots == 0 {
            return 1.0;
        }
        (shots - self.flagged_shots) as f64 / shots as f64
    }

    /// Logical error rate over the kept shots.
    pub fn ler_postselected(&self, shots: u64) -> f64 {
        let kept = shots - self.flagged_shots;
        if kept == 0 {
            return 0.0;
        }
        self.errors_on_kept as f64 / kept as f64
    }
}

/// Decode-latency distribution in nanoseconds **per committed round**,
/// aggregated over every decode call of a run (per window on the streaming
/// path, per shot on the monolithic path — both normalized by the rounds the
/// call settled, so the two paths are directly comparable).
///
/// Samples land in power-of-two histogram buckets, which keeps the stats
/// O(1) in memory, exactly mergeable across worker threads, and good to
/// ~1.5× resolution on the reported quantiles — plenty for the real-time
/// story the `longmem` figure tells.
#[derive(Debug, Clone)]
pub struct DecodeLatencyStats {
    /// `buckets[i]` counts samples with ns/round in `[2^i, 2^(i+1))`.
    buckets: [u64; 64],
    count: u64,
    total_nanos: u64,
    total_rounds: u64,
}

impl Default for DecodeLatencyStats {
    fn default() -> DecodeLatencyStats {
        DecodeLatencyStats {
            buckets: [0; 64],
            count: 0,
            total_nanos: 0,
            total_rounds: 0,
        }
    }
}

impl DecodeLatencyStats {
    /// Records one decode call that took `nanos` and settled `rounds`.
    pub fn record(&mut self, nanos: u64, rounds: usize) {
        let rounds = rounds.max(1) as u64;
        let per_round = (nanos / rounds).max(1);
        self.buckets[63 - per_round.leading_zeros() as usize] += 1;
        self.count += 1;
        self.total_nanos += nanos;
        self.total_rounds += rounds;
    }

    /// Number of decode calls sampled.
    pub fn samples(&self) -> u64 {
        self.count
    }

    /// Mean ns per committed round (exact — computed from the raw totals).
    pub fn mean_ns_per_round(&self) -> f64 {
        if self.total_rounds == 0 {
            return 0.0;
        }
        self.total_nanos as f64 / self.total_rounds as f64
    }

    /// The `q`-quantile of ns/round, to bucket resolution (the geometric
    /// midpoint of the winning power-of-two bucket).
    ///
    /// Total on every input: an empty histogram returns 0.0; `q` is clamped
    /// into `[0, 1]` (`q ≤ 0` is the minimum bucket, `q ≥ 1` the maximum)
    /// and a non-finite `q` is treated as 0 — never NaN out, never a
    /// division, never a panic.
    pub fn quantile_ns_per_round(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = if q.is_finite() {
            q.clamp(0.0, 1.0)
        } else {
            0.0
        };
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            cumulative += b;
            if cumulative >= target {
                return (1u64 << i) as f64 * 1.5;
            }
        }
        unreachable!("count is the sum of the buckets")
    }

    /// Total nanoseconds across all samples. Tier-0-skipped windows take no
    /// sample, so figure-level ns/round normalization must divide this by
    /// the *true* round count, not [`DecodeLatencyStats::samples`] × stride.
    pub fn total_nanos(&self) -> u64 {
        self.total_nanos
    }

    /// Total rounds settled across all samples.
    pub fn total_rounds(&self) -> u64 {
        self.total_rounds
    }

    /// Median ns/round.
    pub fn p50_ns_per_round(&self) -> f64 {
        self.quantile_ns_per_round(0.50)
    }

    /// 99th-percentile ns/round — the number a real-time decode budget has
    /// to absorb.
    pub fn p99_ns_per_round(&self) -> f64 {
        self.quantile_ns_per_round(0.99)
    }

    fn merge(&mut self, other: &DecodeLatencyStats) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.total_nanos += other.total_nanos;
        self.total_rounds += other.total_rounds;
    }
}

/// Aggregated result of a Monte-Carlo run.
#[derive(Debug, Clone)]
pub struct MemoryRunResult {
    /// Shots executed.
    pub shots: u64,
    /// Shots whose decoded logical-Z outcome was wrong.
    pub logical_errors: u64,
    /// Rounds per shot.
    pub rounds: usize,
    /// Per-round mean leaked fraction over all qubits (LPR, Eq. 5).
    pub lpr_total: Vec<f64>,
    /// Per-round mean leaked fraction over data qubits.
    pub lpr_data: Vec<f64>,
    /// Per-round mean leaked fraction over parity qubits.
    pub lpr_parity: Vec<f64>,
    /// Total LRCs scheduled across all shots and rounds.
    pub total_lrcs: u64,
    /// Total decoding-graph edges flagged as erased across all shots
    /// (deduplicated per shot; 0 unless erasure-aware decoding is enabled
    /// and the policy exposes detections).
    pub total_erasures: u64,
    /// Speculation confusion matrix.
    pub speculation: SpeculationStats,
    /// Offline post-selection statistics.
    pub postselection: PostSelection,
    /// Policy display name.
    pub policy: String,
    /// Decoder display name.
    pub decoder: String,
    /// Decode-latency distribution (ns per committed round): one sample per
    /// window on the streaming path, one per shot on the monolithic path.
    /// Empty when decoding is disabled.
    pub decode_latency: DecodeLatencyStats,
    /// Feedback-controller telemetry (escalations, rounds per mode,
    /// estimator trace stats). All-zero for static policies; see
    /// [`ControllerStats::is_active`].
    pub controller: ControllerStats,
    /// Tiered-predecoder telemetry: per-tier decode counts and nanos (tier
    /// 0 = skipped empty syndromes/windows, tier 1 = closed-form 1–2 defect
    /// decodes, tier 2 = full backend). All-zero when the predecoder is
    /// disabled or decoding is off; see [`TierCounters::is_active`].
    pub predecode: TierCounters,
}

impl MemoryRunResult {
    /// Logical error rate (Eq. 4).
    pub fn ler(&self) -> f64 {
        self.logical_errors as f64 / self.shots as f64
    }

    /// One-sigma binomial error bar on the LER.
    pub fn ler_stderr(&self) -> f64 {
        let p = self.ler();
        (p * (1.0 - p) / self.shots as f64).sqrt()
    }

    /// Mean LRCs scheduled per round (Table 4).
    pub fn lrcs_per_round(&self) -> f64 {
        self.total_lrcs as f64 / (self.shots as f64 * self.rounds as f64)
    }

    /// Mean LPR across all rounds.
    pub fn mean_lpr(&self) -> f64 {
        if self.lpr_total.is_empty() {
            return 0.0;
        }
        self.lpr_total.iter().sum::<f64>() / self.lpr_total.len() as f64
    }
}

#[derive(Default)]
struct PartialStats {
    logical_errors: u64,
    lpr_data_sum: Vec<f64>,
    lpr_parity_sum: Vec<f64>,
    total_lrcs: u64,
    total_erasures: u64,
    speculation: SpeculationStats,
    postselection: PostSelection,
    decode_latency: DecodeLatencyStats,
    controller: ControllerStats,
    predecode: TierCounters,
}

/// Reusable memory-experiment runner: owns the experiment description, the
/// detector list, and the decoding graph (built once from the base no-LRC
/// circuit — the decoder's *error model* is LRC- and leakage-unaware, the
/// paper's premise; leakage-detection flags can still reach the decoder at
/// runtime as erasures, see [`ErasureDetection`]).
#[derive(Debug)]
pub struct MemoryRunner {
    exp: MemoryExperiment,
    detectors: Vec<DetectorInfo>,
    observable: Vec<MeasKey>,
    graph: DecodingGraph,
    init_segment: Vec<Op>,
    final_segment: Vec<Op>,
    /// Per stabilizer: whether its round-0 outcome is deterministic (it
    /// belongs to the memory basis) and hence produces a round-0 event.
    stab_deterministic_round0: Vec<bool>,
    /// The enumerable LRC slots of the code, in canonical `(data, stab)`
    /// order — the address space of the striped runtime's per-round
    /// schedule bitmasks.
    slot_table: SlotTable,
    /// Static SWAP-protocol round schedule (round-0 keys; the executor adds
    /// the round's key offset).
    masked_swap: MaskedRound,
    /// Static DQLR-protocol round schedule.
    masked_dqlr: MaskedRound,
    /// Detectors of the decoded basis grouped by round, as `(detector index,
    /// graph node)` pairs in ascending node order — the streaming path's
    /// per-round read schedule (detector round r is fully measured once
    /// simulation round r completes; the final transversal detectors carry
    /// round = rounds and complete with the final segment).
    detector_nodes_by_round: Vec<Vec<(u32, u32)>>,
    /// Provenance buckets `(round, qubit) -> sorted erased-edge indices`:
    /// every decoding-graph edge fed by a fault mechanism whose circuit
    /// location touched `qubit` during `round`. A leakage flag on a qubit
    /// erases exactly these — the heralded mechanisms — via
    /// [`ErrorMechanism::sources`] and
    /// [`DecodingGraph::erasure_edges_for_mechanism`]. Hand-derived edge
    /// sets (detector stars, or space/time edges picked by geometry) are
    /// measurably wrong here: mid-round fault injection lands on diagonal
    /// space-time edges that geometric reasoning misses.
    ///
    /// Stored as CSR (compressed rows): bucket `b = round * num_qubits +
    /// qubit` is
    /// `qubit_round_edges[qubit_round_offsets[b]..qubit_round_offsets[b + 1]]`.
    qubit_round_offsets: Vec<usize>,
    qubit_round_edges: Vec<usize>,
}

/// The decode-path artifacts resolved for one (runner, config) pair:
/// either a sliding-window plan or the monolithic decoder's precomputed
/// tables, `Arc`-shared so an [`ArtifactCache`] can hand one build to many
/// runs. Built by [`MemoryRunner::decode_artifacts`]; consumed by
/// [`MemoryRunner::run_with_artifacts`].
#[derive(Debug, Clone)]
pub struct DecodeArtifacts {
    resolved: Option<ResolvedDecode>,
}

#[derive(Debug, Clone)]
enum ResolvedDecode {
    /// Whole-experiment decoding; `kind` is resolved (never `Auto`) and
    /// exactly one of the tables is populated (paths for MWPM/greedy,
    /// capacities for union-find, the boundary index for sparse MWPM).
    Monolithic {
        kind: DecoderKind,
        paths: Option<Arc<ShortestPaths>>,
        capacities: Option<Arc<UnionFindCapacities>>,
        sparse: Option<Arc<SparseIndex>>,
    },
    /// Sliding-window streaming decoding.
    Windowed(Arc<WindowPlan>),
    /// Sliding-window decoding with intra-shot fusion parallelism: the
    /// window positions are partitioned into leaf blocks decoded
    /// concurrently and merged up a fusion tree. Bit-identical to
    /// `Windowed` over the wrapped plan.
    Fused(Arc<FusionPlan>),
}

impl DecodeArtifacts {
    /// Whether the run will decode at all.
    pub fn decodes(&self) -> bool {
        self.resolved.is_some()
    }

    /// Whether the run takes the sliding-window path (sequentially or
    /// through the fusion decoder).
    pub fn windowed(&self) -> bool {
        matches!(
            self.resolved,
            Some(ResolvedDecode::Windowed(_) | ResolvedDecode::Fused(_))
        )
    }

    /// Whether the run decodes each shot's window chain on an intra-shot
    /// fusion pool.
    pub fn fused(&self) -> bool {
        matches!(self.resolved, Some(ResolvedDecode::Fused(_)))
    }

    /// The decoder name a run with these artifacts reports in
    /// [`MemoryRunResult::decoder`]: the window backend on the streaming
    /// paths (which an `ERASER_WINDOW` / `ERASER_FUSION` override can
    /// resolve differently than the monolithic graph would), the resolved
    /// monolithic kind otherwise, `"none"` when decoding is disabled.
    pub fn decoder_name(&self) -> String {
        match &self.resolved {
            Some(ResolvedDecode::Windowed(plan)) => plan.backend().name().to_string(),
            Some(ResolvedDecode::Fused(fplan)) => fplan.window_plan().backend().name().to_string(),
            Some(ResolvedDecode::Monolithic { kind, .. }) => kind.to_string(),
            None => "none".to_string(),
        }
    }
}

/// One shot's streaming decode engine: the sequential windowed chain, or
/// the fusion decoder running the same chain's positions on an intra-shot
/// worker pool. Built per runtime worker — fusion pools nest *inside* a
/// shot-level worker thread and are never shared across workers.
enum ShotStream<'p> {
    Windowed(WindowedDecoder<'p>),
    Fused(FusionDecoder<'p>),
}

impl ShotStream<'_> {
    fn begin_shot(&mut self) {
        match self {
            ShotStream::Windowed(w) => w.begin_shot(),
            ShotStream::Fused(f) => f.begin_shot(),
        }
    }

    fn push_round(&mut self, defects: &[usize], erasures: &[usize]) {
        match self {
            ShotStream::Windowed(w) => w.push_round(defects, erasures),
            ShotStream::Fused(f) => f.push_round(defects, erasures),
        }
    }

    fn finish(&mut self) -> DecodeOutcome {
        match self {
            ShotStream::Windowed(w) => w.finish(),
            ShotStream::Fused(f) => f.finish(),
        }
    }

    /// Latency samples for the just-finished shot as `(nanos, rounds)`
    /// pairs: one per window position on the sequential path, one per
    /// *shot* (wall time of the whole fused decode) on the fusion path.
    /// Both are ns-per-committed-round samples for [`DecodeLatencyStats`].
    fn latencies(&self) -> &[(u64, u32)] {
        match self {
            ShotStream::Windowed(w) => w.window_latencies(),
            ShotStream::Fused(f) => f.shot_latencies(),
        }
    }

    fn set_predecode(&mut self, on: bool) {
        match self {
            ShotStream::Windowed(w) => w.set_predecode(on),
            ShotStream::Fused(f) => f.set_predecode(on),
        }
    }

    /// Accumulated tier telemetry across every shot this stream decoded
    /// (merged over the fusion path's replay engines).
    fn tier_counters(&self) -> TierCounters {
        match self {
            ShotStream::Windowed(w) => *w.tier_counters(),
            ShotStream::Fused(f) => f.tier_counters(),
        }
    }
}

impl MemoryRunner {
    /// Builds the runner for a distance-`d` memory-Z experiment over `rounds`
    /// rounds under `noise` (the paper's workload).
    pub fn new(d: usize, noise: NoiseParams, rounds: usize) -> MemoryRunner {
        MemoryRunner::new_with_basis(d, noise, rounds, MemoryBasis::Z)
    }

    /// Builds the runner for a memory experiment preserving the given logical
    /// basis.
    pub fn new_with_basis(
        d: usize,
        noise: NoiseParams,
        rounds: usize,
        basis: MemoryBasis,
    ) -> MemoryRunner {
        let code = RotatedCode::new(d);
        let exp = MemoryExperiment::new_with_basis(code, noise, rounds, basis);
        let detectors = exp.detectors();
        let observable = exp.observable_keys();
        let base_circuit = exp.base_circuit();
        let dem = build_dem(&base_circuit, &detectors, &observable);
        let graph_basis = match basis {
            MemoryBasis::Z => DetectorBasis::Z,
            MemoryBasis::X => DetectorBasis::X,
        };
        let graph = DecodingGraph::from_dem(&dem, &detectors, graph_basis);
        debug_assert_eq!(
            graph.undetectable_observable_flips(),
            0,
            "observable flips must be detectable in the memory basis"
        );
        let init_segment = exp.init_segment();
        let final_segment = exp.final_segment();
        let stab_deterministic_round0 = exp
            .code()
            .stabilizers()
            .iter()
            .map(|s| s.kind == basis.stab_kind())
            .collect();
        // Attribute every op of the base circuit to its round (init → round
        // 0, final readout → the last round), mirroring how `base_circuit`
        // concatenates its segments. The rebuilt sequence is asserted
        // op-for-op against the real circuit, so a future change to
        // `base_circuit`'s composition cannot silently shift round
        // boundaries (which would attribute provenance buckets — and hence
        // erased edges — to the wrong rounds).
        let builder = exp.round_builder();
        let mut op_round = Vec::with_capacity(base_circuit.ops().len());
        let mut rebuilt = init_segment.clone();
        op_round.resize(init_segment.len(), 0);
        for r in 0..rounds {
            let round = builder.round(r, &[], exp.keys());
            let n = round.pre.len() + round.measure.len() + round.mr_reset.len();
            rebuilt.extend(round.pre);
            rebuilt.extend(round.measure);
            rebuilt.extend(round.mr_reset);
            op_round.resize(op_round.len() + n, r);
        }
        rebuilt.extend_from_slice(&final_segment);
        op_round.resize(op_round.len() + final_segment.len(), rounds - 1);
        assert_eq!(
            rebuilt.as_slice(),
            base_circuit.ops(),
            "op->round attribution must mirror base_circuit's exact layout"
        );

        // Provenance buckets: for every mechanism, credit its edges to each
        // (round, qubit) its source fault ops touched.
        let num_qubits = exp.code().num_qubits();
        let (qubit_round_offsets, qubit_round_edges) = provenance_buckets(
            &dem,
            &graph,
            base_circuit.ops(),
            &op_round,
            rounds,
            num_qubits,
        );

        let slot_table = SlotTable::new(exp.code());
        let masked_swap = builder.masked_round(&slot_table, exp.keys());
        let masked_dqlr = builder.masked_dqlr_round(&slot_table, exp.keys());

        let mut detector_nodes_by_round: Vec<Vec<(u32, u32)>> = vec![Vec::new(); rounds + 1];
        for (di, det) in detectors.iter().enumerate() {
            if let Some(node) = graph.node_of_detector(di) {
                detector_nodes_by_round[det.round].push((di as u32, node as u32));
            }
        }

        MemoryRunner {
            exp,
            detectors,
            observable,
            graph,
            init_segment,
            final_segment,
            slot_table,
            masked_swap,
            masked_dqlr,
            stab_deterministic_round0,
            detector_nodes_by_round,
            qubit_round_offsets,
            qubit_round_edges,
        }
    }

    /// The experiment description.
    pub fn experiment(&self) -> &MemoryExperiment {
        &self.exp
    }

    /// The Z-basis decoding graph.
    pub fn graph(&self) -> &DecodingGraph {
        &self.graph
    }

    /// Appends the decoding-graph edges erased by a leakage flag on `qubit`
    /// (data or parity, as a global qubit id) believed leaked across
    /// `rounds` (plan-round window): exactly the edges fed by fault
    /// mechanisms whose circuit location touched the qubit there. Every
    /// operation touching a leaked qubit is heralded-faulty — a CNOT kicks a
    /// uniformly random Pauli onto the partner, a measurement reads a random
    /// value — so the provenance bucket *is* the heralded-mechanism set.
    fn extend_qubit_erasures(
        &self,
        rounds: std::ops::RangeInclusive<usize>,
        qubit: usize,
        out: &mut Vec<usize>,
    ) {
        let num_qubits = self.exp.code().num_qubits();
        let last = self.exp.rounds() - 1;
        for r in rounds {
            if r > last {
                continue;
            }
            out.extend_from_slice(self.qubit_round_bucket(r, qubit, num_qubits));
        }
    }

    /// The provenance bucket of `(round, qubit)`.
    fn qubit_round_bucket(&self, round: usize, qubit: usize, num_qubits: usize) -> &[usize] {
        let b = round * num_qubits + qubit;
        &self.qubit_round_edges[self.qubit_round_offsets[b]..self.qubit_round_offsets[b + 1]]
    }

    /// Collects detector round `round`'s fired defects (graph node ids,
    /// ascending) for every active lane — the streaming path's per-round
    /// read: one parity word per detector of the round, scattered into each
    /// lane's defect list.
    fn gather_round_defect_lanes(
        &self,
        sim: &BatchFrameSimulator,
        round: usize,
        active: u64,
        lanes: usize,
        out: &mut [Vec<usize>],
    ) {
        for buffer in out.iter_mut().take(lanes) {
            buffer.clear();
        }
        for &(di, node) in &self.detector_nodes_by_round[round] {
            let mut word = sim.record().parity_word(&self.detectors[di as usize].keys) & active;
            while word != 0 {
                let lane = word.trailing_zeros() as usize;
                out[lane].push(node as usize);
                word &= word - 1;
            }
        }
    }

    /// The content identity of this runner — runs sharing it share every
    /// decode artifact bit-for-bit. See [`ExperimentKey`].
    pub fn cache_key(&self) -> ExperimentKey {
        ExperimentKey::new(
            self.exp.code().distance(),
            self.exp.rounds(),
            self.exp.basis(),
            self.exp.noise(),
        )
    }

    /// Approximate heap footprint of the runner itself (DEM-derived graph,
    /// round schedules, provenance buckets), for size-bounded caches.
    pub fn approx_bytes(&self) -> usize {
        let buckets = self.qubit_round_edges.len() * std::mem::size_of::<usize>();
        let detectors = self.detectors.len() * std::mem::size_of::<DetectorInfo>();
        let segments =
            (self.init_segment.len() + self.final_segment.len()) * std::mem::size_of::<Op>();
        // Per-edge/node constants are rough: endpoints, weight, provenance
        // vectors' headers.
        let graph = self.graph.edges().len() * 64 + self.graph.num_nodes() * 16;
        buckets + detectors + segments + graph
    }

    /// Resolves the decode-path artifacts for `config`: the sliding-window
    /// plan when a window applies, else the monolithic decoder's APSP or
    /// capacity table. With a cache, artifacts are fetched by content key
    /// and shared across runs (and across content-identical runners);
    /// without one they are built fresh — the results are bit-identical
    /// either way, because every artifact is a deterministic function of
    /// the key.
    ///
    /// Fails only on a malformed `ERASER_WINDOW` / `ERASER_DECODER` /
    /// `ERASER_FUSION` override.
    pub fn decode_artifacts(
        &self,
        config: &RunConfig,
        cache: Option<&ArtifactCache>,
    ) -> Result<DecodeArtifacts, EnvOverrideError> {
        if !config.decode {
            return Ok(DecodeArtifacts { resolved: None });
        }
        // Streaming vs monolithic decode path. A window of 0 (or beyond the
        // round count, where a single window would cover the whole shot)
        // selects monolithic decoding — unless fusion is requested, which
        // *requires* a window chain to partition: fusion_threads > 1 with
        // no usable window derives the default geometry min(3d, rounds).
        let (mut window, mut stride_raw) = config.resolved_window()?;
        let decoder = config.resolved_decoder()?;
        let fusion = config.resolved_fusion()?;
        let d = self.exp.code().distance();
        if fusion > 1 && (window == 0 || window > self.exp.rounds()) {
            window = (3 * d).min(self.exp.rounds());
            stride_raw = 0;
        }
        let resolved = if window > 0 && window <= self.exp.rounds() {
            let stride = if stride_raw == 0 {
                window.saturating_sub(d).max(1)
            } else {
                stride_raw.min(window)
            };
            let backend = decoder.resolve_window_backend(&self.graph, window);
            let plan = match cache {
                Some(cache) => cache.get_or_build(
                    &CacheKey {
                        experiment: self.cache_key(),
                        kind: ArtifactKind::WindowPlan {
                            window,
                            stride,
                            backend,
                        },
                    },
                    WindowPlan::approx_decoder_bytes,
                    || WindowPlan::new(&self.graph, window, stride, backend),
                ),
                None => Arc::new(WindowPlan::new(&self.graph, window, stride, backend)),
            };
            if fusion > 1 {
                let fplan = match cache {
                    Some(cache) => cache.get_or_build(
                        &CacheKey {
                            experiment: self.cache_key(),
                            kind: ArtifactKind::FusionPlan {
                                window,
                                stride,
                                backend,
                                threads: fusion,
                            },
                        },
                        FusionPlan::approx_bytes,
                        || FusionPlan::new(Arc::clone(&plan), fusion),
                    ),
                    None => Arc::new(FusionPlan::new(Arc::clone(&plan), fusion)),
                };
                ResolvedDecode::Fused(fplan)
            } else {
                ResolvedDecode::Windowed(plan)
            }
        } else {
            let kind = decoder.resolve(&self.graph);
            let (paths, capacities, sparse) = match kind {
                DecoderKind::Mwpm | DecoderKind::Greedy => {
                    let paths = match cache {
                        Some(cache) => cache.get_or_build(
                            &CacheKey {
                                experiment: self.cache_key(),
                                kind: ArtifactKind::Apsp,
                            },
                            ShortestPaths::approx_bytes,
                            || ShortestPaths::compute(&self.graph),
                        ),
                        None => Arc::new(ShortestPaths::compute(&self.graph)),
                    };
                    (Some(paths), None, None)
                }
                DecoderKind::SparseMwpm => {
                    let sparse = match cache {
                        Some(cache) => cache.get_or_build(
                            &CacheKey {
                                experiment: self.cache_key(),
                                kind: ArtifactKind::SparseIndex,
                            },
                            SparseIndex::approx_bytes,
                            || SparseIndex::compute(&self.graph),
                        ),
                        None => Arc::new(SparseIndex::compute(&self.graph)),
                    };
                    (None, None, Some(sparse))
                }
                DecoderKind::UnionFind => {
                    let capacities = match cache {
                        Some(cache) => cache.get_or_build(
                            &CacheKey {
                                experiment: self.cache_key(),
                                kind: ArtifactKind::UfCapacities,
                            },
                            UnionFindCapacities::approx_bytes,
                            || UnionFindCapacities::compute(&self.graph),
                        ),
                        None => Arc::new(UnionFindCapacities::compute(&self.graph)),
                    };
                    (None, Some(capacities), None)
                }
                DecoderKind::Auto => unreachable!("resolve never returns Auto"),
            };
            ResolvedDecode::Monolithic {
                kind,
                paths,
                capacities,
                sparse,
            }
        };
        Ok(DecodeArtifacts {
            resolved: Some(resolved),
        })
    }

    /// Runs `config.shots` shots of the experiment under the policy produced
    /// by `policy_factory` (one instance per worker thread).
    ///
    /// Builds the decode artifacts fresh (no cache); callers that reuse
    /// artifacts across runs — the `Sweep` engine, `eraser-serve` — resolve
    /// them once via [`MemoryRunner::decode_artifacts`] and call
    /// [`MemoryRunner::run_with_artifacts`].
    ///
    /// # Panics
    ///
    /// Panics if `config.shots == 0`, or on a malformed `ERASER_*`
    /// environment override (the `Experiment`/`Sweep` facades validate the
    /// environment at build time and surface the same condition as an
    /// `Err` instead).
    pub fn run(
        &self,
        policy_factory: &(dyn Fn(&RotatedCode) -> Box<dyn LrcPolicy> + Sync),
        config: &RunConfig,
    ) -> MemoryRunResult {
        let artifacts = self
            .decode_artifacts(config, None)
            .unwrap_or_else(|e| panic!("{e}"));
        self.run_with_artifacts(policy_factory, config, &artifacts)
    }

    /// [`MemoryRunner::run`] with pre-resolved decode artifacts.
    ///
    /// `artifacts` must come from [`MemoryRunner::decode_artifacts`] on a
    /// content-identical runner with this `config` (same decoder selection
    /// and window geometry). Results are bit-identical to [`run`] — the
    /// artifacts are deterministic, so sharing them cannot change a single
    /// decode.
    ///
    /// # Panics
    ///
    /// Panics if `config.shots == 0`, or on a malformed `ERASER_*`
    /// environment override.
    ///
    /// [`run`]: MemoryRunner::run
    pub fn run_with_artifacts(
        &self,
        policy_factory: &(dyn Fn(&RotatedCode) -> Box<dyn LrcPolicy> + Sync),
        config: &RunConfig,
        artifacts: &DecodeArtifacts,
    ) -> MemoryRunResult {
        assert!(config.shots >= 1, "a run needs at least one shot");
        let (plan, fused): (Option<&WindowPlan>, Option<&FusionPlan>) = match &artifacts.resolved {
            Some(ResolvedDecode::Windowed(plan)) => (Some(plan), None),
            Some(ResolvedDecode::Fused(fplan)) => (Some(fplan.window_plan()), Some(fplan)),
            _ => (None, None),
        };
        // The factory holds the expensive precomputation (APSP table, edge
        // capacities) — resolved once, possibly from a cache; worker
        // threads build their own stateful instances from it.
        let factory: Option<Box<dyn DecoderFactory + '_>> = match &artifacts.resolved {
            Some(ResolvedDecode::Monolithic {
                kind,
                paths,
                capacities,
                sparse,
            }) => Some(match kind {
                DecoderKind::Mwpm => Box::new(MwpmFactory::with_paths(
                    &self.graph,
                    Arc::clone(paths.as_ref().expect("mwpm artifacts carry paths")),
                )),
                DecoderKind::SparseMwpm => Box::new(SparseMwpmFactory::with_index(
                    &self.graph,
                    Arc::clone(sparse.as_ref().expect("sparse artifacts carry an index")),
                )),
                DecoderKind::Greedy => Box::new(GreedyFactory::with_paths(
                    &self.graph,
                    Arc::clone(paths.as_ref().expect("greedy artifacts carry paths")),
                )),
                DecoderKind::UnionFind => Box::new(UnionFindFactory::with_capacities(
                    &self.graph,
                    Arc::clone(
                        capacities
                            .as_ref()
                            .expect("union-find artifacts carry capacities"),
                    ),
                )),
                DecoderKind::Auto => unreachable!("artifacts hold a resolved kind"),
            }),
            _ => None,
        };
        let factory = factory.as_deref();

        let threads = config
            .resolved_threads()
            .unwrap_or_else(|e| panic!("{e}"))
            .min(config.shots.max(1) as usize)
            .max(1);
        // Contiguous shot ranges per worker. Every shot derives its own RNG
        // stream from (seed, global shot index) — see `shot_rng` — so the
        // partitioning affects wall-clock time only: results are
        // bit-identical for any thread count (all merged statistics are
        // integer-valued, so even the f64 LPR sums are exact).
        let mut jobs: Vec<(u64, u64)> = Vec::with_capacity(threads);
        let base = config.shots / threads as u64;
        let extra = (config.shots % threads as u64) as usize;
        let mut first = 0u64;
        for t in 0..threads {
            let count = base + u64::from(t < extra);
            jobs.push((first, count));
            first += count;
        }

        let width = config.resolved_stripe_width();
        // The tiered predecoder fronts every decode (bit-identical either
        // way); resolved here so a malformed `ERASER_PREDECODE` panics on
        // the calling thread, never inside a worker.
        let predecode = config
            .resolved_predecode()
            .unwrap_or_else(|e| panic!("{e}"));
        let partials: Vec<PartialStats> = std::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .into_iter()
                .map(|(first, count)| {
                    scope.spawn(move || {
                        self.run_stripes(
                            first,
                            count,
                            width,
                            predecode,
                            policy_factory,
                            factory,
                            plan,
                            fused,
                            config,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });

        let rounds = self.exp.rounds();
        let mut merged = PartialStats {
            lpr_data_sum: vec![0.0; rounds],
            lpr_parity_sum: vec![0.0; rounds],
            ..PartialStats::default()
        };
        for p in &partials {
            merged.logical_errors += p.logical_errors;
            merged.total_lrcs += p.total_lrcs;
            merged.total_erasures += p.total_erasures;
            merged.speculation.merge(&p.speculation);
            merged.postselection.flagged_shots += p.postselection.flagged_shots;
            merged.postselection.errors_on_kept += p.postselection.errors_on_kept;
            merged.decode_latency.merge(&p.decode_latency);
            merged.controller.merge(&p.controller);
            merged.predecode.merge(&p.predecode);
            for r in 0..rounds {
                merged.lpr_data_sum[r] += p.lpr_data_sum[r];
                merged.lpr_parity_sum[r] += p.lpr_parity_sum[r];
            }
        }
        let code = self.exp.code();
        let shots_f = config.shots as f64;
        let num_data = code.num_data() as f64;
        let num_parity = code.num_stabs() as f64;
        let num_all = code.num_qubits() as f64;
        let lpr_data: Vec<f64> = merged
            .lpr_data_sum
            .iter()
            .map(|&s| s / (shots_f * num_data))
            .collect();
        let lpr_parity: Vec<f64> = merged
            .lpr_parity_sum
            .iter()
            .map(|&s| s / (shots_f * num_parity))
            .collect();
        let lpr_total: Vec<f64> = merged
            .lpr_data_sum
            .iter()
            .zip(&merged.lpr_parity_sum)
            .map(|(&d, &p)| (d + p) / (shots_f * num_all))
            .collect();
        let policy_name = policy_factory(code).name().to_string();
        MemoryRunResult {
            shots: config.shots,
            logical_errors: merged.logical_errors,
            rounds,
            lpr_total,
            lpr_data,
            lpr_parity,
            total_lrcs: merged.total_lrcs,
            total_erasures: merged.total_erasures,
            speculation: merged.speculation,
            postselection: merged.postselection,
            policy: policy_name,
            decoder: plan
                .map(|p| p.backend().name())
                .or_else(|| factory.map(|f| f.name()))
                .unwrap_or("none")
                .to_string(),
            decode_latency: merged.decode_latency,
            controller: merged.controller,
            predecode: merged.predecode,
        }
    }

    /// Executes one segment of a static round schedule on the stripe,
    /// resolving each op's condition to a lane mask. `key_offset` rebases
    /// the schedule's round-0 measurement keys onto the current round.
    #[inline]
    fn exec_segment(
        &self,
        sim: &mut BatchFrameSimulator,
        segment: &[qec_core::MaskedOp],
        key_offset: usize,
        active: u64,
        slot_masks: &[u64],
        stab_free: &[u64],
    ) {
        for mop in segment {
            let mask = match mop.cond {
                OpCond::Always => active,
                OpCond::Slot(i) => slot_masks[i],
                OpCond::StabFree(s) => stab_free[s],
                // The ERASER+M intra-round branch: the LRC's data readout
                // (recorded this round under the slot's stabilizer key)
                // came back |L⟩. Labels are only ever set under multi-level
                // readout, so two-level policies always take the clean arm.
                OpCond::SlotLabelLeaked(i) => {
                    let key = key_offset + self.slot_table.slot(i).stab;
                    slot_masks[i] & sim.record().leaked_word(key)
                }
                OpCond::SlotLabelClean(i) => {
                    let key = key_offset + self.slot_table.slot(i).stab;
                    slot_masks[i] & !sim.record().leaked_word(key)
                }
            };
            if mask == 0 {
                continue;
            }
            let mut op = mop.op;
            if let Op::Measure { ref mut key, .. } = op {
                *key += key_offset;
            }
            sim.apply_masked(&op, mask);
        }
    }

    /// The shot loop: up to `width` shots per stripe on the
    /// [`BatchFrameSimulator`], with one static schedule per round executed
    /// under the policy layer's per-slot lane masks, and the stripe's
    /// defect/erasure sets fed to the decoder as one `decode_batch` call.
    /// Every shot owns its RNG streams, so results are bit-identical at any
    /// width, 1 included.
    #[allow(clippy::too_many_arguments)]
    fn run_stripes(
        &self,
        first_shot: u64,
        shots: u64,
        width: usize,
        predecode: bool,
        policy_factory: &(dyn Fn(&RotatedCode) -> Box<dyn LrcPolicy> + Sync),
        factory: Option<&dyn DecoderFactory>,
        plan: Option<&WindowPlan>,
        fused: Option<&FusionPlan>,
        config: &RunConfig,
    ) -> PartialStats {
        let code = self.exp.code();
        let rounds = self.exp.rounds();
        let num_data = code.num_data();
        let num_stabs = code.num_stabs();
        let num_qubits = code.num_qubits();
        let slots = &self.slot_table;
        let schedule = match config.protocol {
            LrcProtocol::Swap => &self.masked_swap,
            LrcProtocol::Dqlr => &self.masked_dqlr,
        };

        let mut decoder = factory.map(|f| TieredDecoder::with_enabled(f.build(), predecode));
        // One streaming decoder per lane: each lane is its own shot, so each
        // needs its own streaming state (the expensive tables stay shared
        // through the plan). On the fusion path the lanes finish strictly one
        // at a time, so a single intra-shot pool serves all of this worker's
        // lanes.
        let mut streams: Vec<ShotStream> = match (fused, plan) {
            (Some(f), _) => {
                let pool = Arc::new(FusionPool::new(f.threads()));
                (0..width)
                    .map(|_| ShotStream::Fused(FusionDecoder::new(f, Arc::clone(&pool))))
                    .collect()
            }
            (None, Some(p)) => (0..width)
                .map(|_| ShotStream::Windowed(p.streaming()))
                .collect(),
            (None, None) => Vec::new(),
        };
        for stream in &mut streams {
            stream.set_predecode(predecode);
        }
        let erasure_active = config.erasure.enabled && (decoder.is_some() || !streams.is_empty());
        let mut policy = StripedPolicy::new(policy_factory, code, width);
        let discriminator = if policy.uses_multilevel() {
            Discriminator::MultiLevel
        } else {
            Discriminator::TwoLevel
        };
        let mut sim = BatchFrameSimulator::new(
            num_qubits,
            self.exp.keys().total(),
            *self.exp.noise(),
            discriminator,
        );

        let mut stats = PartialStats {
            lpr_data_sum: vec![0.0; rounds],
            lpr_parity_sum: vec![0.0; rounds],
            ..PartialStats::default()
        };
        let mut sim_rngs: Vec<Rng> = Vec::with_capacity(width);
        let mut det_rngs: Vec<Rng> = Vec::with_capacity(width);
        let mut prev_syndrome = vec![0u64; num_stabs];
        let mut events = vec![0u64; num_stabs];
        let mut leaked_readouts = vec![0u64; num_stabs];
        let mut oracle = vec![0u64; num_data];
        let mut slot_masks = vec![0u64; slots.len()];
        let mut planned = vec![0u64; num_data];
        let mut stab_free = vec![0u64; num_stabs];
        let mut det_words = vec![0u64; self.detectors.len()];
        let mut det_events = vec![false; self.detectors.len()];
        let mut syndromes: Vec<Syndrome> = (0..width)
            .map(|_| Syndrome::build(Vec::new()).rounds(rounds).finish())
            .collect();
        let mut outcomes: Vec<DecodeOutcome> = Vec::with_capacity(width);
        // Streaming-path scratch, one slot per lane.
        let mut lane_round_defects: Vec<Vec<usize>> = vec![Vec::new(); width];
        let mut lane_round_erasures: Vec<Vec<usize>> = vec![Vec::new(); width];
        let mut lane_erasure_log: Vec<Vec<usize>> = vec![Vec::new(); width];

        let end = first_shot + shots;
        let mut shot = first_shot;
        while shot < end {
            let lanes = width.min((end - shot) as usize);
            // Lane l carries global shot `shot + l` and that shot's own two
            // streams: the detection-noise stream and its fork for the
            // simulator physics. Erasure-aware and leakage-blind runs thus
            // decode identical error realizations, and no lane's draws
            // depend on the stripe width or the worker split.
            sim_rngs.clear();
            det_rngs.clear();
            for l in 0..lanes as u64 {
                let mut det = shot_rng(config.seed, shot + l);
                sim_rngs.push(det.fork());
                det_rngs.push(det);
            }
            sim.begin_stripe(&sim_rngs);
            let active = sim.active();
            policy.reset_stripe(lanes);
            for syndrome in &mut syndromes[..lanes] {
                syndrome.clear();
            }
            for log in lane_erasure_log.iter_mut().take(lanes) {
                log.clear();
            }
            for stream in streams.iter_mut().take(lanes) {
                stream.begin_shot();
            }
            sim.run_masked(&self.init_segment, active);
            prev_syndrome.fill(0);
            events.fill(0);
            leaked_readouts.fill(0);
            // Offline post-selection flags, one bit per lane.
            let mut suspect = 0u64;

            for r in 0..rounds {
                // Time-varying injected leakage (the profile schedule),
                // applied before the oracle snapshot so even the idealized
                // policy sees the storm the round it lands; each active lane
                // draws from its own physics stream.
                let extra = config.profile.extra_leak_p(r);
                if extra > 0.0 {
                    for q in 0..num_data {
                        sim.apply_masked(&Op::LeakInject { qubit: q, p: extra }, active);
                    }
                }
                for (q, word) in oracle.iter_mut().enumerate() {
                    *word = sim.leak_word(q);
                }
                policy.plan_round(
                    &StripeRoundContext {
                        round: r,
                        events: &events,
                        leaked_readouts: &leaked_readouts,
                        oracle_leaked_data: &oracle,
                        active,
                    },
                    slots,
                    &mut slot_masks,
                );
                // Confusion matrix and LRC count, word-parallel.
                planned.fill(0);
                for (i, &mask) in slot_masks.iter().enumerate() {
                    if mask != 0 {
                        planned[slots.slot(i).data] |= mask;
                        stats.total_lrcs += mask.count_ones() as u64;
                    }
                }
                for q in 0..num_data {
                    let p = planned[q];
                    let o = oracle[q] & active;
                    stats.speculation.true_positive += (p & o).count_ones() as u64;
                    stats.speculation.false_positive += (p & !o).count_ones() as u64;
                    stats.speculation.false_negative += (!p & o).count_ones() as u64;
                    stats.speculation.true_negative += (!p & !o & active).count_ones() as u64;
                }

                for buffer in lane_round_erasures.iter_mut().take(lanes) {
                    buffer.clear();
                }
                if erasure_active {
                    // Per-lane detection noise from each lane's own stream,
                    // in a fixed order per round (data, data_returned,
                    // parity). Every flag erases the provenance bucket of
                    // the flagged qubit over its believed-leaked window:
                    // data flags cover the evidence round and the current
                    // one; a returned qubit's random state shows up in the
                    // same window; a parity |L⟩ readout pins the
                    // (reset-bounded) leak to the previous round alone.
                    let fp = config.erasure.false_positive;
                    let fnr = config.erasure.false_negative;
                    for lane in 0..lanes {
                        let Some(det) = policy.lane_detections(lane) else {
                            continue;
                        };
                        let det_rng = &mut det_rngs[lane];
                        let erasures = &mut lane_round_erasures[lane];
                        for (q, &flag) in det.data.iter().enumerate() {
                            let reported = if flag {
                                !det_rng.bernoulli(fnr)
                            } else {
                                det_rng.bernoulli(fp)
                            };
                            if reported {
                                self.extend_qubit_erasures(r.saturating_sub(1)..=r, q, erasures);
                            }
                        }
                        // No false-positive synthesis here: a clean data
                        // qubit already took its one per-round FP draw in
                        // the `data` loop above; drawing again would double
                        // the effective FP rate versus the documented model.
                        for (q, &flag) in det.data_returned.iter().enumerate() {
                            if flag && !det_rng.bernoulli(fnr) {
                                self.extend_qubit_erasures(r.saturating_sub(2)..=r, q, erasures);
                            }
                        }
                        for (s, &flag) in det.parity.iter().enumerate() {
                            let reported = if flag {
                                !det_rng.bernoulli(fnr)
                            } else {
                                det_rng.bernoulli(fp)
                            };
                            if reported && r > 0 {
                                let parity = code.parity_qubit(s);
                                self.extend_qubit_erasures(r - 1..=r - 1, parity, erasures);
                            }
                        }
                        if streams.is_empty() {
                            syndromes[lane].erasures.extend_from_slice(erasures);
                        } else {
                            lane_erasure_log[lane].extend_from_slice(erasures);
                        }
                    }
                }

                for (s, free) in stab_free.iter_mut().enumerate() {
                    let mut busy = 0u64;
                    for &i in slots.slots_on_stab(s) {
                        busy |= slot_masks[i];
                    }
                    *free = active & !busy;
                }

                let key_offset = r * num_stabs;
                self.exec_segment(
                    &mut sim,
                    &schedule.pre,
                    key_offset,
                    active,
                    &slot_masks,
                    &stab_free,
                );
                // LPR probe: after the entangling layers, before readout.
                stats.lpr_data_sum[r] += sim.leaked_count_in(0..num_data) as f64;
                stats.lpr_parity_sum[r] += sim.leaked_count_in(num_data..num_qubits) as f64;
                self.exec_segment(
                    &mut sim,
                    &schedule.measure,
                    key_offset,
                    active,
                    &slot_masks,
                    &stab_free,
                );
                self.exec_segment(
                    &mut sim,
                    &schedule.mr_reset,
                    key_offset,
                    active,
                    &slot_masks,
                    &stab_free,
                );
                self.exec_segment(
                    &mut sim,
                    &schedule.tails,
                    key_offset,
                    active,
                    &slot_masks,
                    &stab_free,
                );
                self.exec_segment(
                    &mut sim,
                    &schedule.post,
                    key_offset,
                    active,
                    &slot_masks,
                    &stab_free,
                );

                for s in 0..num_stabs {
                    let flip = sim.record().flip_word(key_offset + s);
                    events[s] = if r == 0 {
                        // Round 0: memory-basis stabilizers are deterministic;
                        // the other basis has a random reference and produces
                        // no event yet.
                        if self.stab_deterministic_round0[s] {
                            flip
                        } else {
                            0
                        }
                    } else {
                        flip ^ prev_syndrome[s]
                    };
                    prev_syndrome[s] = flip;
                    leaked_readouts[s] = sim.record().leaked_word(key_offset + s);
                }
                // The offline LSB rule, word-parallel: flag lanes in which
                // at least half of some data qubit's neighbouring checks
                // fired this round.
                if suspect != active {
                    for q in 0..num_data {
                        let adj = code.adjacent_stabs(q);
                        suspect |= at_least(adj.iter().map(|&s| events[s]), adj.len().div_ceil(2));
                    }
                    suspect &= active;
                }
                if !streams.is_empty() {
                    // Detector round r is fully measured now: stream each
                    // lane's defects (and this round's erasure flags) into
                    // its windowed decoder, which retires any window whose
                    // last round just arrived.
                    self.gather_round_defect_lanes(&sim, r, active, lanes, &mut lane_round_defects);
                    for lane in 0..lanes {
                        streams[lane]
                            .push_round(&lane_round_defects[lane], &lane_round_erasures[lane]);
                    }
                }
            }
            sim.run_masked(&self.final_segment, active);

            stats.postselection.flagged_shots += suspect.count_ones() as u64;
            if let Some(decoder) = decoder.as_mut() {
                // Detector parities for all lanes at once, then per-lane
                // defect extraction into the stripe's syndrome batch.
                for (i, det) in self.detectors.iter().enumerate() {
                    det_words[i] = sim.record().parity_word(&det.keys);
                }
                for (lane, syndrome) in syndromes.iter_mut().enumerate().take(lanes) {
                    for (i, &word) in det_words.iter().enumerate() {
                        det_events[i] = word >> lane & 1 != 0;
                    }
                    self.graph
                        .defects_from_events_into(&det_events, &mut syndrome.defects);
                    // Adjacent flagged qubits share checks, and flags persist
                    // across rounds: deduplicate the collected erasure edges.
                    syndrome.erasures.sort_unstable();
                    syndrome.erasures.dedup();
                    stats.total_erasures += syndrome.erasures.len() as u64;
                }
                decoder.decode_batch(&syndromes[..lanes], &mut outcomes);
                let actual = sim.record().parity_word(&self.observable);
                for (lane, outcome) in outcomes.iter().enumerate() {
                    stats.decode_latency.record(outcome.nanos, rounds + 1);
                    if outcome.flip != (actual >> lane & 1 != 0) {
                        stats.logical_errors += 1;
                        if suspect >> lane & 1 == 0 {
                            stats.postselection.errors_on_kept += 1;
                        }
                    }
                }
            } else if !streams.is_empty() {
                // Final transversal detectors (round = rounds) arrive with
                // the final segment; push them, then seal every lane's shot.
                self.gather_round_defect_lanes(
                    &sim,
                    rounds,
                    active,
                    lanes,
                    &mut lane_round_defects,
                );
                let actual = sim.record().parity_word(&self.observable);
                for lane in 0..lanes {
                    let stream = &mut streams[lane];
                    stream.push_round(&lane_round_defects[lane], &[]);
                    let outcome = stream.finish();
                    for &(nanos, committed) in stream.latencies() {
                        stats.decode_latency.record(nanos, committed as usize);
                    }
                    let log = &mut lane_erasure_log[lane];
                    log.sort_unstable();
                    log.dedup();
                    stats.total_erasures += log.len() as u64;
                    if outcome.flip != (actual >> lane & 1 != 0) {
                        stats.logical_errors += 1;
                        if suspect >> lane & 1 == 0 {
                            stats.postselection.errors_on_kept += 1;
                        }
                    }
                }
            }
            shot += lanes as u64;
        }
        // Controller telemetry accumulates per lane across the worker's
        // stripes; harvest each lane once (sum/max merge is order-free).
        // Same for the predecoder's tier counters.
        for lane in 0..width {
            if let Some(controller) = policy.lane_controller(lane) {
                stats.controller.merge(controller);
            }
        }
        if let Some(decoder) = decoder.as_ref() {
            stats.predecode.merge(decoder.counters());
        }
        for stream in &streams {
            stats.predecode.merge(&stream.tier_counters());
        }
        stats
    }
}

/// Lane mask of "at least `t` of these words' bits are set", via a
/// bit-sliced ripple counter. Exact for up to 4 words (a data qubit has at
/// most 4 neighbouring checks).
#[inline]
fn at_least(words: impl Iterator<Item = u64>, t: usize) -> u64 {
    let (mut b0, mut b1, mut b2) = (0u64, 0u64, 0u64);
    for w in words {
        let c0 = b0 & w;
        b0 ^= w;
        let c1 = b1 & c0;
        b1 ^= c0;
        b2 |= c1;
    }
    match t {
        0 => !0,
        1 => b0 | b1 | b2,
        2 => b1 | b2,
        3 => (b1 & b0) | b2,
        _ => b2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AlwaysLrcPolicy, EraserPolicy, NoLrcPolicy, OptimalPolicy};

    fn cfg(shots: u64) -> RunConfig {
        RunConfig {
            shots,
            seed: 11,
            threads: 2,
            ..RunConfig::default()
        }
    }

    #[test]
    fn decoder_kind_resolution_is_centralized() {
        let runner = MemoryRunner::new(3, NoiseParams::standard(1e-3), 2);
        let graph = runner.graph();
        assert!(graph.num_nodes() <= DecoderKind::AUTO_MWPM_NODE_LIMIT);
        assert_eq!(DecoderKind::Auto.resolve(graph), DecoderKind::Mwpm);
        assert_eq!(DecoderKind::Greedy.resolve(graph), DecoderKind::Greedy);
        assert_eq!(DecoderKind::Auto.build_factory(graph).name(), "mwpm");
        assert_eq!(
            DecoderKind::UnionFind.build_factory(graph).name(),
            "union-find"
        );
    }

    #[test]
    fn noiseless_run_has_zero_ler() {
        let runner = MemoryRunner::new(3, NoiseParams::without_leakage(0.0), 3);
        let result = runner.run(&|_| Box::new(NoLrcPolicy::new()), &cfg(50));
        assert_eq!(result.logical_errors, 0);
        assert!(result.lpr_total.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn pauli_only_noise_gives_small_ler() {
        let runner = MemoryRunner::new(3, NoiseParams::without_leakage(1e-3), 3);
        let result = runner.run(&|_| Box::new(NoLrcPolicy::new()), &cfg(400));
        assert!(
            result.ler() < 0.1,
            "LER {} too high for p=1e-3 d=3",
            result.ler()
        );
    }

    #[test]
    fn results_are_deterministic_for_fixed_seed_and_threads() {
        let runner = MemoryRunner::new(3, NoiseParams::standard(1e-3), 3);
        let a = runner.run(&|c| Box::new(EraserPolicy::new(c)), &cfg(120));
        let b = runner.run(&|c| Box::new(EraserPolicy::new(c)), &cfg(120));
        assert_eq!(a.logical_errors, b.logical_errors);
        assert_eq!(a.total_lrcs, b.total_lrcs);
        assert_eq!(a.speculation, b.speculation);
    }

    /// Shots own their RNG streams, so the worker-thread partitioning must
    /// not change anything — including with leakage-aware decoding (whose
    /// detection-noise stream is also per-shot).
    #[test]
    fn results_are_bit_identical_across_thread_counts() {
        let runner = MemoryRunner::new(3, NoiseParams::standard(3e-3), 5);
        let run_with = |threads: usize| {
            let config = RunConfig {
                shots: 90,
                seed: 31,
                threads,
                decoder: DecoderKind::Mwpm,
                erasure: ErasureDetection::imperfect(0.01, 0.05),
                ..RunConfig::default()
            };
            runner.run(&|c| Box::new(EraserPolicy::new(c)), &config)
        };
        let one = run_with(1);
        for threads in [2usize, 4] {
            let multi = run_with(threads);
            assert_eq!(one.logical_errors, multi.logical_errors, "{threads}t");
            assert_eq!(one.total_lrcs, multi.total_lrcs, "{threads}t");
            assert_eq!(one.total_erasures, multi.total_erasures, "{threads}t");
            assert_eq!(one.speculation, multi.speculation, "{threads}t");
            assert_eq!(one.postselection, multi.postselection, "{threads}t");
            // The LPR sums accumulate integer counts, so even the f64
            // vectors are exactly reproducible.
            assert_eq!(one.lpr_total, multi.lpr_total, "{threads}t");
            assert_eq!(one.lpr_data, multi.lpr_data, "{threads}t");
            assert_eq!(one.lpr_parity, multi.lpr_parity, "{threads}t");
        }
    }

    #[test]
    fn erasure_aware_decoding_flags_edges_without_changing_physics() {
        let runner = MemoryRunner::new(3, NoiseParams::standard(5e-3), 8);
        let blind = runner.run(&|c| Box::new(EraserPolicy::with_multilevel(c)), &cfg(150));
        let config = RunConfig {
            erasure: ErasureDetection::perfect_readout(),
            ..cfg(150)
        };
        let aware = runner.run(&|c| Box::new(EraserPolicy::with_multilevel(c)), &config);
        assert!(aware.total_erasures > 0, "|L> flags must reach decoding");
        assert_eq!(blind.total_erasures, 0);
        // Same physics: the shots, LRC schedule, and speculation stats are
        // identical — only the decoding differs.
        assert_eq!(blind.total_lrcs, aware.total_lrcs);
        assert_eq!(blind.speculation, aware.speculation);
        assert_eq!(blind.lpr_total, aware.lpr_total);
        // Two-level ERASER has no erasure-grade herald: flags stay at zero
        // unless the imperfect-check model synthesizes false positives.
        let two_level = runner.run(&|c| Box::new(EraserPolicy::new(c)), &config);
        assert_eq!(two_level.total_erasures, 0);
        let noisy = RunConfig {
            erasure: ErasureDetection::imperfect(0.02, 0.0),
            ..cfg(150)
        };
        let synthetic = runner.run(&|c| Box::new(EraserPolicy::new(c)), &noisy);
        assert!(synthetic.total_erasures > 0, "FP model synthesizes flags");
        // Baselines without a detection read path stay leakage-blind.
        let none = runner.run(&|_| Box::new(NoLrcPolicy::new()), &noisy);
        assert_eq!(none.total_erasures, 0);
    }

    #[test]
    fn leakage_increases_lpr_over_rounds_without_lrcs() {
        let runner = MemoryRunner::new(3, NoiseParams::standard(5e-3), 9);
        let result = runner.run(&|_| Box::new(NoLrcPolicy::new()), &cfg(300));
        let early = result.lpr_total[0];
        let late = result.lpr_total[8];
        assert!(
            late > early,
            "LPR must grow without leakage removal: {early} vs {late}"
        );
    }

    #[test]
    fn optimal_policy_has_perfect_fpr() {
        let runner = MemoryRunner::new(3, NoiseParams::standard(1e-3), 6);
        let result = runner.run(&|c| Box::new(OptimalPolicy::new(c)), &cfg(200));
        assert_eq!(result.speculation.false_positive, 0);
        assert!(result.speculation.accuracy() > 0.999);
    }

    #[test]
    fn always_lrc_schedules_half_the_lattice_per_round() {
        let runner = MemoryRunner::new(3, NoiseParams::standard(1e-3), 8);
        let result = runner.run(&|c| Box::new(AlwaysLrcPolicy::new(c)), &cfg(20));
        let per_round = result.lrcs_per_round();
        assert!((per_round - 4.0).abs() < 0.01, "got {per_round}");
    }

    #[test]
    fn eraser_schedules_far_fewer_lrcs_than_always() {
        let runner = MemoryRunner::new(3, NoiseParams::standard(1e-3), 8);
        let always = runner.run(&|c| Box::new(AlwaysLrcPolicy::new(c)), &cfg(100));
        let eraser = runner.run(&|c| Box::new(EraserPolicy::new(c)), &cfg(100));
        assert!(
            eraser.lrcs_per_round() < always.lrcs_per_round() / 4.0,
            "eraser {} vs always {}",
            eraser.lrcs_per_round(),
            always.lrcs_per_round()
        );
    }

    #[test]
    fn dqlr_protocol_runs_and_keeps_lpr_bounded() {
        let runner = MemoryRunner::new(3, NoiseParams::exchange_transport(1e-3), 8);
        let config = RunConfig {
            protocol: LrcProtocol::Dqlr,
            ..cfg(100)
        };
        let result = runner.run(&|c| Box::new(AlwaysLrcPolicy::every_round(c)), &config);
        assert!(result.mean_lpr() < 0.05);
    }

    #[test]
    fn speculation_stats_identities() {
        let s = SpeculationStats {
            true_positive: 10,
            false_positive: 10,
            false_negative: 20,
            true_negative: 60,
        };
        assert!((s.accuracy() - 0.7).abs() < 1e-12);
        assert!((s.false_positive_rate() - 10.0 / 70.0).abs() < 1e-12);
        assert!((s.false_negative_rate() - 20.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one shot")]
    fn zero_shot_runs_are_rejected() {
        let runner = MemoryRunner::new(3, NoiseParams::standard(1e-3), 2);
        runner.run(&|_| Box::new(NoLrcPolicy::new()), &cfg(0));
    }

    #[test]
    fn postselection_cleans_up_leaky_shots() {
        // With leakage on, post-selection must (a) flag a nonzero fraction of
        // shots and (b) achieve an LER on the kept shots no worse than the
        // raw LER (it removes leakage-corrupted trials). p is kept moderate:
        // at 5e-3 the offline LSB rule saturates (it flags nearly every shot
        // with or without leakage) and the leaky/clean comparison below loses
        // its signal — especially now that the per-shot RNG streams pair the
        // two runs.
        let runner = MemoryRunner::new(3, NoiseParams::standard(2e-3), 10);
        let result = runner.run(&|_| Box::new(NoLrcPolicy::new()), &cfg(800));
        let ps = result.postselection;
        assert!(ps.flagged_shots > 0, "leaky shots must be flagged");
        assert!(ps.flagged_shots < result.shots, "not everything is flagged");
        assert!(
            ps.ler_postselected(result.shots) <= result.ler() + 0.01,
            "post-selected LER {} vs raw {}",
            ps.ler_postselected(result.shots),
            result.ler()
        );
        // Without leakage, fewer shots get flagged.
        let clean = MemoryRunner::new(3, NoiseParams::without_leakage(2e-3), 10);
        let clean_result = clean.run(&|_| Box::new(NoLrcPolicy::new()), &cfg(800));
        assert!(
            clean_result.postselection.keep_fraction(clean_result.shots)
                > ps.keep_fraction(result.shots),
            "leakage must reduce the keep fraction"
        );
    }

    #[test]
    fn memory_x_runner_works_end_to_end() {
        use surface_code::MemoryBasis;
        let noiseless =
            MemoryRunner::new_with_basis(3, NoiseParams::without_leakage(0.0), 3, MemoryBasis::X);
        let clean = noiseless.run(&|_| Box::new(NoLrcPolicy::new()), &cfg(40));
        assert_eq!(clean.logical_errors, 0, "noiseless memory-X must be exact");

        let noisy = MemoryRunner::new_with_basis(3, NoiseParams::standard(1e-3), 6, MemoryBasis::X);
        let result = noisy.run(&|c| Box::new(EraserPolicy::new(c)), &cfg(200));
        assert!(result.ler() < 0.2);
    }

    /// Table-driven coverage of every `ERASER_*` override parser. All
    /// six route through the shared [`parse_env_override`] envelope, and
    /// this single test pins the shared contract: valid values parse,
    /// empty/whitespace means unset, and malformed values are a *clear
    /// error* naming the variable and the reason — never a silent default
    /// or a panic. The parsers are pure functions of the raw string — no
    /// `set_var` here, which would race with concurrently running tests.
    #[test]
    fn env_override_parsing_is_strict() {
        use crate::control::{parse_control_env, ControlBase, ControlLawKind, ControllerConfig};

        // The shared envelope assertion every knob's cases run through.
        fn check<T: std::fmt::Debug + PartialEq>(
            var: &str,
            raw: &str,
            result: Result<Option<T>, EnvOverrideError>,
            expected: &Result<Option<T>, &str>,
        ) {
            match expected {
                Ok(v) => assert_eq!(result.as_ref().ok(), Some(v), "{var}={raw:?}"),
                Err(reason) => {
                    let err = result.expect_err(&format!("{var}={raw:?} must error"));
                    assert_eq!(err.var, var);
                    assert_eq!(err.reason, *reason);
                    assert!(
                        err.to_string().contains(var) && err.to_string().contains(reason),
                        "message names the variable and the problem: {err}"
                    );
                }
            }
        }

        // (raw, expected) for the positive-integer knobs.
        let int_cases: &[(&str, Result<Option<usize>, &str>)] = &[
            ("4", Ok(Some(4))),
            (" 8 ", Ok(Some(8))),
            ("1", Ok(Some(1))),
            ("", Ok(None)),
            ("   ", Ok(None)),
            ("0", Err("must be a positive integer")),
            ("four", Err("not an integer")),
            ("4x", Err("not an integer")),
            ("-2", Err("not an integer")),
            ("4.0", Err("not an integer")),
        ];
        for (raw, expected) in int_cases {
            check("ERASER_THREADS", raw, parse_threads_env(raw), expected);
            check("ERASER_FUSION", raw, parse_fusion_env(raw), expected);
        }

        type WindowCase = (&'static str, Result<Option<(usize, usize)>, &'static str>);
        let window_cases: &[WindowCase] = &[
            ("15", Ok(Some((15, 0)))),
            ("15:10", Ok(Some((15, 10)))),
            (" 8 : 8 ", Ok(Some((8, 8)))),
            ("", Ok(None)),
            ("  ", Ok(None)),
            ("0", Err("window must be a positive round count")),
            ("8:9", Err("stride exceeds the window")),
            ("abc", Err("expected \"W\" or \"W:S\" with integer rounds")),
            ("8:x", Err("expected \"W\" or \"W:S\" with integer rounds")),
            (":4", Err("expected \"W\" or \"W:S\" with integer rounds")),
            ("8:", Err("expected \"W\" or \"W:S\" with integer rounds")),
        ];
        for (raw, expected) in window_cases {
            check("ERASER_WINDOW", raw, parse_window_env(raw), expected);
        }

        let unknown_decoder =
            "unknown decoder (expected auto, mwpm, sparse-mwpm, union-find, or greedy)";
        type DecoderCase = (&'static str, Result<Option<DecoderKind>, &'static str>);
        let decoder_cases: &[DecoderCase] = &[
            ("mwpm", Ok(Some(DecoderKind::Mwpm))),
            (" sparse-mwpm ", Ok(Some(DecoderKind::SparseMwpm))),
            ("sparse", Ok(Some(DecoderKind::SparseMwpm))),
            ("SPARSE-BLOSSOM", Ok(Some(DecoderKind::SparseMwpm))),
            ("uf", Ok(Some(DecoderKind::UnionFind))),
            ("greedy", Ok(Some(DecoderKind::Greedy))),
            ("auto", Ok(Some(DecoderKind::Auto))),
            ("", Ok(None)),
            ("  ", Ok(None)),
            ("tensor-network", Err(unknown_decoder)),
            ("mwpm2", Err(unknown_decoder)),
        ];
        for (raw, expected) in decoder_cases {
            check("ERASER_DECODER", raw, parse_decoder_env(raw), expected);
        }

        let predecode_cases: &[(&str, Result<Option<bool>, &str>)] = &[
            ("on", Ok(Some(true))),
            (" off ", Ok(Some(false))),
            ("", Ok(None)),
            ("  ", Ok(None)),
            ("1", Err("expected \"on\" or \"off\"")),
            ("true", Err("expected \"on\" or \"off\"")),
            ("ON", Err("expected \"on\" or \"off\"")),
        ];
        for (raw, expected) in predecode_cases {
            check("ERASER_PREDECODE", raw, parse_predecode_env(raw), expected);
        }

        type ControlCase = (&'static str, Result<Option<ControllerConfig>, &'static str>);
        let control_cases: &[ControlCase] = &[
            ("", Ok(None)),
            ("   ", Ok(None)),
            ("ewma", Ok(Some(ControllerConfig::ewma()))),
            (" budget ", Ok(Some(ControllerConfig::budget()))),
            (
                "ewma:up=0.2,down=0.05",
                Ok(Some(ControllerConfig {
                    up: 0.2,
                    down: 0.05,
                    ..ControllerConfig::ewma()
                })),
            ),
            (
                "budget:quota=7,base=eraser,shift=2,dwell=1",
                Ok(Some(ControllerConfig {
                    law: ControlLawKind::Budget,
                    base: ControlBase::Eraser,
                    budget: 7,
                    ewma_shift: 2,
                    min_dwell: 1,
                    ..ControllerConfig::budget()
                })),
            ),
            (
                "pid",
                Err("unknown control law (expected \"ewma\" or \"budget\")"),
            ),
            ("ewma:up=two", Err("knob value is not a number")),
            (
                "ewma:up=0.01,down=0.5",
                Err("thresholds must satisfy 0 <= down <= up <= 1"),
            ),
            ("ewma:shift=16", Err("ewma shift must be at most 15")),
            ("budget:quota=0", Err("budget law needs a positive quota")),
            (
                "ewma:base=optimal",
                Err("unknown base policy (expected \"no-lrc\" or \"eraser\")"),
            ),
            (
                "ewma:wat=1",
                Err("unknown control knob (expected up/down/shift/dwell/quota/base)"),
            ),
            ("ewma:up", Err("knobs must be key=value pairs")),
        ];
        for (raw, expected) in control_cases {
            check("ERASER_CONTROL", raw, parse_control_env(raw), expected);
        }
    }

    #[test]
    fn config_fields_win_over_environment_hooks() {
        // Explicit config fields resolve without consulting the
        // environment at all.
        let config = RunConfig {
            window_rounds: 6,
            window_stride: 9,
            ..RunConfig::default()
        };
        assert_eq!(
            config.resolved_window().unwrap(),
            (6, 6),
            "stride clamps to window"
        );
        let config = RunConfig {
            threads: 3,
            stripe_width: 200,
            ..RunConfig::default()
        };
        assert_eq!(config.resolved_threads().unwrap(), 3);
        assert_eq!(
            config.resolved_stripe_width(),
            STRIPE_WIDTH,
            "stripe clamps to the 64-lane word"
        );
        let config = RunConfig {
            controller: Some(ControllerConfig::budget()),
            ..RunConfig::default()
        };
        assert_eq!(
            config.resolved_controller().unwrap(),
            Some(ControllerConfig::budget()),
            "an explicit controller field needs no environment"
        );
    }

    #[test]
    fn auto_backend_resolves_against_the_window() {
        let runner = MemoryRunner::new(3, NoiseParams::standard(1e-3), 30);
        // The whole-experiment graph stays below the monolithic limit here,
        // but the rule under test is the per-window node count.
        assert_eq!(
            DecoderKind::Auto.resolve_window_backend(runner.graph(), 10),
            WindowBackend::Mwpm
        );
        assert_eq!(
            DecoderKind::Greedy.resolve_window_backend(runner.graph(), 10),
            WindowBackend::Greedy
        );
        let nodes_per_round = runner.graph().num_nodes() / (runner.graph().max_round() + 1);
        let huge = DecoderKind::AUTO_MWPM_NODE_LIMIT / nodes_per_round + 2;
        // A window that large prices out the dense all-pairs table — were
        // the experiment long enough to host it, Auto would pick the sparse
        // blossom (same optimal weight, O(n) precomputation).
        assert_eq!(
            DecoderKind::Auto.resolve_window_backend(runner.graph(), huge),
            WindowBackend::SparseMwpm
        );
    }

    /// The windowed path simulates identical physics (it only changes *when*
    /// decoding happens) and its LER tracks the monolithic decoder tightly.
    #[test]
    fn windowed_decoding_preserves_physics_and_tracks_monolithic_ler() {
        let runner = MemoryRunner::new(3, NoiseParams::standard(3e-3), 12);
        let config = |window: usize| RunConfig {
            shots: 200,
            seed: 77,
            threads: 2,
            decoder: DecoderKind::Mwpm,
            window_rounds: window,
            // Pinned sequential: the per-window latency-sample count below
            // is the sequential path's contract (a CI-set `ERASER_FUSION`
            // would otherwise flip this run to one sample per shot), and
            // pinned tier-free (the tier-0 skip elides empty windows'
            // samples; tier identity has its own tests).
            fusion_threads: 1,
            predecode: Some(false),
            erasure: ErasureDetection::perfect_readout(),
            ..RunConfig::default()
        };
        let policy =
            |c: &RotatedCode| -> Box<dyn LrcPolicy> { Box::new(EraserPolicy::with_multilevel(c)) };
        // A window beyond the round count auto-selects monolithic decoding
        // (and, unlike window 0, is immune to a CI-set `ERASER_WINDOW`).
        let mono = runner.run(&policy, &config(13));
        let windowed = runner.run(&policy, &config(5));
        // Identical physics: every decode-independent statistic matches.
        assert_eq!(mono.total_lrcs, windowed.total_lrcs);
        assert_eq!(mono.speculation, windowed.speculation);
        assert_eq!(mono.lpr_total, windowed.lpr_total);
        assert_eq!(
            mono.postselection.flagged_shots,
            windowed.postselection.flagged_shots
        );
        assert_eq!(mono.total_erasures, windowed.total_erasures);
        assert_eq!(mono.decoder, windowed.decoder, "same backend name");
        // Paired shots: the decode disagreement rate is tiny.
        let delta = mono.logical_errors.abs_diff(windowed.logical_errors);
        assert!(
            delta <= 6,
            "windowed LER drifted: {} vs {}",
            windowed.logical_errors,
            mono.logical_errors
        );
        // Latency probes: one sample per shot monolithically, one per window
        // (⌈(12+1−5)/s⌉+1 windows with the stride defaulting to w−d=2) when
        // streaming.
        assert_eq!(mono.decode_latency.samples(), 200);
        assert_eq!(windowed.decode_latency.samples(), 200 * 5);
        assert!(windowed.decode_latency.p50_ns_per_round() > 0.0);
        assert!(
            windowed.decode_latency.p99_ns_per_round()
                >= windowed.decode_latency.p50_ns_per_round()
        );
    }

    /// Windowed runs stay bit-identical across worker-thread counts and
    /// stripe widths, exactly like monolithic runs.
    #[test]
    fn windowed_results_bit_identical_across_threads_and_stripes() {
        let runner = MemoryRunner::new(3, NoiseParams::standard(3e-3), 10);
        let run_with = |threads: usize, stripe: usize| {
            let config = RunConfig {
                shots: 90,
                seed: 31,
                threads,
                stripe_width: stripe,
                decoder: DecoderKind::Mwpm,
                window_rounds: 4,
                window_stride: 2,
                erasure: ErasureDetection::imperfect(0.01, 0.05),
                ..RunConfig::default()
            };
            runner.run(&|c| Box::new(EraserPolicy::with_multilevel(c)), &config)
        };
        let reference = run_with(1, 1);
        assert!(reference.total_erasures > 0, "erasures must be in play");
        for (threads, stripe) in [(1usize, 64usize), (4, 1), (4, 64), (3, 13)] {
            let other = run_with(threads, stripe);
            assert_eq!(
                reference.logical_errors, other.logical_errors,
                "{threads}t stripe{stripe}"
            );
            assert_eq!(reference.total_lrcs, other.total_lrcs);
            assert_eq!(reference.total_erasures, other.total_erasures);
            assert_eq!(reference.speculation, other.speculation);
            assert_eq!(reference.postselection, other.postselection);
            assert_eq!(reference.lpr_total, other.lpr_total);
        }
    }

    /// Intra-shot fusion is a pure wall-clock knob at the run level too:
    /// every statistic of a fused run — logical errors included — matches
    /// the sequential windowed run bit-for-bit at every thread count and
    /// stripe width, with erasures in play.
    #[test]
    fn fused_runs_match_sequential_windowed_bitwise() {
        let runner = MemoryRunner::new(3, NoiseParams::standard(3e-3), 12);
        let run_with = |fusion: usize, stripe: usize| {
            let config = RunConfig {
                shots: 120,
                seed: 99,
                threads: 2,
                stripe_width: stripe,
                decoder: DecoderKind::Mwpm,
                window_rounds: 5,
                window_stride: 2,
                fusion_threads: fusion,
                erasure: ErasureDetection::imperfect(0.01, 0.05),
                ..RunConfig::default()
            };
            runner.run(&|c| Box::new(EraserPolicy::with_multilevel(c)), &config)
        };
        let sequential = run_with(1, 64);
        assert!(sequential.total_erasures > 0, "erasures must be in play");
        for (fusion, stripe) in [(2usize, 64usize), (2, 1), (3, 64), (8, 13)] {
            let fused = run_with(fusion, stripe);
            assert_eq!(
                sequential.logical_errors, fused.logical_errors,
                "{fusion} fusion threads, stripe {stripe}"
            );
            assert_eq!(sequential.lpr_total, fused.lpr_total);
            assert_eq!(sequential.total_lrcs, fused.total_lrcs);
            assert_eq!(sequential.total_erasures, fused.total_erasures);
            assert_eq!(sequential.speculation, fused.speculation);
            assert_eq!(sequential.postselection, fused.postselection);
            assert_eq!(sequential.decoder, fused.decoder);
            // The fused latency probe is one sample per *shot* (the number
            // the real-time budget cares about), not one per window.
            assert_eq!(fused.decode_latency.samples(), 120);
            assert!(fused.decode_latency.p50_ns_per_round() > 0.0);
        }
    }

    /// `fusion_threads > 1` with no window configured derives the
    /// `min(3d, rounds)` default geometry instead of silently falling back
    /// to monolithic decoding (which has no chain to partition).
    #[test]
    fn fusion_derives_a_window_when_none_is_configured() {
        let runner = MemoryRunner::new(3, NoiseParams::standard(1e-3), 20);
        let fused = RunConfig {
            fusion_threads: 4,
            ..cfg(10)
        };
        let artifacts = runner.decode_artifacts(&fused, None).unwrap();
        assert!(artifacts.windowed() && artifacts.fused());
        // Pinned sequential with no window stays monolithic (unless an
        // external `ERASER_WINDOW` — e.g. a CI matrix leg — supplies one,
        // which is a window config, not a fusion derivation).
        let sequential = RunConfig {
            fusion_threads: 1,
            ..cfg(10)
        };
        let artifacts = runner.decode_artifacts(&sequential, None).unwrap();
        assert!(!artifacts.fused());
        if sequential.resolved_window().unwrap().0 == 0 {
            assert!(!artifacts.windowed());
        }
        // An explicit window under fusion keeps its configured geometry.
        let windowed = RunConfig {
            fusion_threads: 4,
            window_rounds: 6,
            window_stride: 3,
            ..cfg(10)
        };
        let artifacts = runner.decode_artifacts(&windowed, None).unwrap();
        assert!(artifacts.windowed() && artifacts.fused());
        // And a no-decode run resolves nothing regardless of fusion.
        let no_decode = RunConfig {
            decode: false,
            fusion_threads: 4,
            ..cfg(10)
        };
        let artifacts = runner.decode_artifacts(&no_decode, None).unwrap();
        assert!(!artifacts.decodes() && !artifacts.fused());
    }

    #[test]
    fn decode_latency_stats_quantiles_and_merge() {
        let mut stats = DecodeLatencyStats::default();
        assert_eq!(stats.samples(), 0);
        assert_eq!(stats.p50_ns_per_round(), 0.0);
        for _ in 0..99 {
            stats.record(1000, 1); // bucket [512, 1024) -> midpoint 768
        }
        stats.record(1 << 20, 1);
        assert_eq!(stats.samples(), 100);
        assert_eq!(stats.p50_ns_per_round(), 768.0);
        assert_eq!(stats.p99_ns_per_round(), 768.0);
        assert!(stats.quantile_ns_per_round(1.0) > 1e6);
        let mean = stats.mean_ns_per_round();
        assert!((mean - (99.0 * 1000.0 + (1u64 << 20) as f64) / 100.0).abs() < 1e-6);
        // Normalization: 10_000 ns over 10 rounds is a 1000 ns/round sample.
        let mut other = DecodeLatencyStats::default();
        other.record(10_000, 10);
        assert_eq!(other.p50_ns_per_round(), 768.0);
        stats.merge(&other);
        assert_eq!(stats.samples(), 101);
    }

    /// The quantile is total on every input: empty histograms, boundary
    /// and out-of-range `q`, non-finite `q`, and single-bucket histograms
    /// all return a defined, finite value — never NaN, never a panic.
    #[test]
    fn decode_latency_quantile_edge_cases_are_total() {
        // Empty histogram: 0.0 for every q, including the pathological ones.
        let empty = DecodeLatencyStats::default();
        for q in [0.0, 0.5, 1.0, -3.0, 7.0, f64::NAN, f64::INFINITY] {
            assert_eq!(empty.quantile_ns_per_round(q), 0.0, "empty, q={q}");
        }
        assert_eq!(empty.mean_ns_per_round(), 0.0);

        // Single-bucket histogram: every q lands in that bucket.
        let mut single = DecodeLatencyStats::default();
        for _ in 0..5 {
            single.record(700, 1); // bucket [512, 1024) -> midpoint 768
        }
        for q in [0.0, 0.25, 0.5, 0.99, 1.0, -1.0, 2.0] {
            assert_eq!(single.quantile_ns_per_round(q), 768.0, "single, q={q}");
        }

        // Two-bucket histogram: q=0 is the minimum bucket, q=1 the maximum,
        // out-of-range q clamps to those, and non-finite q acts like 0.
        let mut two = DecodeLatencyStats::default();
        two.record(700, 1);
        two.record(100_000, 1); // bucket [2^16, 2^17) -> midpoint 98304
        assert_eq!(two.quantile_ns_per_round(0.0), 768.0);
        assert_eq!(two.quantile_ns_per_round(-0.5), 768.0);
        assert_eq!(two.quantile_ns_per_round(1.0), 98304.0);
        assert_eq!(two.quantile_ns_per_round(1.5), 98304.0);
        assert_eq!(two.quantile_ns_per_round(f64::NAN), 768.0);
        assert_eq!(two.quantile_ns_per_round(f64::NEG_INFINITY), 768.0);
        for q in [0.0, 0.5, 1.0] {
            assert!(two.quantile_ns_per_round(q).is_finite());
        }

        // A zero-nanosecond sample (timer resolution floor) still buckets.
        let mut floor = DecodeLatencyStats::default();
        floor.record(0, 1);
        assert_eq!(floor.samples(), 1);
        assert!(floor.quantile_ns_per_round(0.5) > 0.0);
    }

    /// FNV-1a over a list of words (each as 8 little-endian bytes).
    fn fnv1a(items: impl IntoIterator<Item = u64>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for item in items {
            for byte in item.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Pins every `(round, qubit)` provenance bucket and the runner's
    /// `approx_bytes` (which sizes the serve artifact cache, so a change
    /// moves its evictions). Captured from the nested-`Vec` bucket layout,
    /// not from the code under test.
    #[test]
    fn provenance_buckets_are_pinned() {
        #[rustfmt::skip]
        let shapes = [
            (3, 3, MemoryBasis::Z, NoiseParams::standard(1e-3), 239, 8504, 0x74b8_43dd_5605_16de),
            (5, 5, MemoryBasis::Z, NoiseParams::standard(2e-3), 1373, 41896, 0xad37_fe93_a3ba_73ce),
            (9, 90, MemoryBasis::Z, NoiseParams::standard(1e-3), 91490, 2354000, 0x7a43_30df_1177_268c),
            (5, 4, MemoryBasis::X, NoiseParams::standard(1e-3), 1096, 37952, 0x15c4_9dda_ae0c_919a),
            (5, 5, MemoryBasis::Z, NoiseParams::exchange_transport(1e-3), 1373, 41896, 0xad37_fe93_a3ba_73ce),
        ];
        for (d, rounds, basis, noise, entries, bytes, digest) in shapes {
            let runner = MemoryRunner::new_with_basis(d, noise, rounds, basis);
            let num_qubits = runner.exp.code().num_qubits();
            let mut words = Vec::new();
            for r in 0..rounds {
                for q in 0..num_qubits {
                    let bucket = runner.qubit_round_bucket(r, q, num_qubits);
                    words.push(bucket.len() as u64);
                    words.extend(bucket.iter().map(|&e| e as u64));
                }
            }
            let actual = (
                words.len() - rounds * num_qubits,
                runner.approx_bytes(),
                fnv1a(words),
            );
            assert_eq!(
                actual,
                (entries, bytes, digest),
                "d={d} R={rounds} {basis:?}: (entries, approx_bytes, digest) = ({}, {}, {:#018x})",
                actual.0,
                actual.1,
                actual.2
            );
        }
    }

    #[test]
    fn single_threaded_matches_shape() {
        let runner = MemoryRunner::new(3, NoiseParams::standard(1e-3), 2);
        let config = RunConfig {
            threads: 1,
            ..cfg(30)
        };
        let result = runner.run(&|c| Box::new(EraserPolicy::new(c)), &config);
        assert_eq!(result.shots, 30);
        assert_eq!(result.lpr_total.len(), 2);
    }
}
