//! The three Monte-Carlo workloads: one experiment, many timed calls.
//!
//! Every call runs a fixed shot count on one thread with root seed
//! `call_seed(seed, k)`, so the work of call `k` is fixed by the workload
//! seed and any spread in timing comes from the host. The traced run
//! interleaves variants of the same calls (decode off, leakage-blind,
//! predecode off, a timed policy) and splits the time across layers by
//! difference.

use crate::reference::Band;
use crate::report::Report;
use crate::stats::{call_seed, median, tail};
use crate::RunOptions;
use eraser_core::runtime::{DecodeArtifacts, RunConfig};
use eraser_core::{
    DecoderKind, Experiment, LeakageDetections, LrcPolicy, LrcProtocol, MemoryRunResult,
    PolicyKind, RoundContext,
};
use qec_core::NoiseParams;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use surface_code::{LrcAssignment, RotatedCode};

/// A Monte-Carlo workload: one operating point with every run knob pinned.
#[derive(Debug, Clone, Copy)]
pub struct McWorkload {
    pub name: &'static str,
    pub distance: usize,
    pub p: f64,
    pub rounds: usize,
    /// ERASER+M (multi-level readout) instead of ERASER.
    pub multilevel: bool,
    pub decode: bool,
    pub leakage_aware: bool,
    /// Sliding window `(rounds, stride)`; `(0, 0)` decodes monolithically.
    pub window: (usize, usize),
    pub shots_per_call: u64,
}

/// LPR / Table 4 shape: simulation, policy and shot loop only.
pub const LPR_D7: McWorkload = McWorkload {
    name: "lpr_d7",
    distance: 7,
    p: 1e-3,
    rounds: 70,
    multilevel: false,
    decode: false,
    leakage_aware: false,
    window: (0, 0),
    shots_per_call: 64,
};

/// A Fig 14 point: leakage-aware monolithic decoding dominates.
pub const LER_D9: McWorkload = McWorkload {
    name: "ler_d9",
    distance: 9,
    p: 1e-3,
    rounds: 90,
    multilevel: true,
    decode: true,
    leakage_aware: true,
    window: (0, 0),
    shots_per_call: 8,
};

/// Real-time decoder shape: round-by-round window commits.
pub const STREAM_D7: McWorkload = McWorkload {
    name: "stream_d7",
    distance: 7,
    p: 1e-3,
    rounds: 70,
    multilevel: false,
    decode: true,
    leakage_aware: false,
    window: (8, 1),
    shots_per_call: 16,
};

/// Every Monte-Carlo workload.
pub const WORKLOADS: [McWorkload; 3] = [LPR_D7, LER_D9, STREAM_D7];

/// Below this many timed calls the tail has fewer than ten samples beyond
/// it, so every run makes at least this many.
const MIN_CALLS: u64 = 11;

impl McWorkload {
    fn policy(&self) -> PolicyKind {
        if self.multilevel {
            PolicyKind::eraser_m()
        } else {
            PolicyKind::eraser()
        }
    }

    /// Builds the experiment with every knob set explicitly. `Auto` and the
    /// 0-valued window knobs would defer to `ERASER_*` variables, which the
    /// benchmark refuses to start under.
    pub fn build(&self) -> Experiment {
        Experiment::builder()
            .distance(self.distance)
            .noise(NoiseParams::standard(self.p))
            .rounds(self.rounds)
            .policy(self.policy())
            .shots(self.shots_per_call)
            .seed(0)
            .threads(1)
            .stripe_width(64)
            .decoder(DecoderKind::Auto)
            .protocol(LrcProtocol::Swap)
            .decode(self.decode)
            .leakage_aware_decoding(self.leakage_aware)
            .erasure_detection(0.0, 0.0)
            .window_rounds(self.window.0)
            .window_stride(self.window.1)
            .fusion_threads(1)
            .predecode(true)
            .build()
            .expect("workload configuration is valid")
    }

    fn shot_rounds(&self) -> f64 {
        (self.shots_per_call as usize * self.rounds) as f64
    }
}

/// Plan-call totals shared by every [`TimedPolicy`] of a run.
#[derive(Debug, Default)]
struct PlanTotals {
    nanos: AtomicU64,
    calls: AtomicU64,
}

/// Times `plan_round` of the policy the factory returns and forwards every
/// other method unchanged. Totals are flushed on drop (statistics only, so
/// relaxed ordering suffices).
struct TimedPolicy {
    inner: Box<dyn LrcPolicy>,
    nanos: u64,
    calls: u64,
    totals: Arc<PlanTotals>,
}

impl LrcPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn reset_shot(&mut self) {
        self.inner.reset_shot();
    }

    fn plan_round(&mut self, ctx: &RoundContext<'_>) -> Vec<LrcAssignment> {
        let start = Instant::now();
        let plan = self.inner.plan_round(ctx);
        self.nanos += start.elapsed().as_nanos() as u64;
        self.calls += 1;
        plan
    }

    fn uses_multilevel(&self) -> bool {
        self.inner.uses_multilevel()
    }

    fn leakage_detections(&self) -> Option<LeakageDetections<'_>> {
        self.inner.leakage_detections()
    }

    fn controller(&self) -> Option<&eraser_core::ControllerStats> {
        self.inner.controller()
    }
}

impl Drop for TimedPolicy {
    fn drop(&mut self) {
        self.totals.nanos.fetch_add(self.nanos, Ordering::Relaxed);
        self.totals.calls.fetch_add(self.calls, Ordering::Relaxed);
    }
}

/// The exactly reproducible part of a call's result.
#[derive(Debug, Clone, PartialEq)]
struct Exact {
    logical_errors: u64,
    total_lrcs: u64,
    total_erasures: u64,
    speculation: [u64; 4],
    tiers: [u64; 3],
    lpr_bits: Vec<u64>,
}

impl Exact {
    fn of(r: &MemoryRunResult) -> Exact {
        let s = r.speculation;
        Exact {
            logical_errors: r.logical_errors,
            total_lrcs: r.total_lrcs,
            total_erasures: r.total_erasures,
            speculation: [
                s.true_positive,
                s.false_positive,
                s.false_negative,
                s.true_negative,
            ],
            tiers: r.predecode.hits,
            lpr_bits: r.lpr_total.iter().map(|x| x.to_bits()).collect(),
        }
    }

    /// The physical side of a shot: what simulation and the policy decide.
    /// Decoding never feeds back into it.
    fn physics(&self) -> (u64, [u64; 4], &[u64]) {
        (self.total_lrcs, self.speculation, &self.lpr_bits)
    }
}

/// One timed call.
#[derive(Debug, Clone)]
struct Call {
    nanos: f64,
    exact: Exact,
    decode_nanos: u64,
    decode_rounds: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// The workload as configured.
    Full,
    /// `Full` with the policy wrapped in [`TimedPolicy`].
    Traced,
    /// Decoding disabled.
    DecodeOff,
    /// Leakage-blind decoding.
    Blind,
    /// Tiered predecode disabled.
    PredecodeOff,
}

struct Variant {
    kind: Kind,
    config: RunConfig,
    artifacts: DecodeArtifacts,
    calls: Vec<Call>,
}

fn variant(exp: &Experiment, kind: Kind) -> Variant {
    let mut config = *exp.config();
    match kind {
        Kind::Full | Kind::Traced => {}
        Kind::DecodeOff => config.decode = false,
        Kind::Blind => config.erasure.enabled = false,
        Kind::PredecodeOff => config.predecode = Some(false),
    }
    let artifacts = exp
        .runner()
        .decode_artifacts(&config, None)
        .expect("no ERASER_* override is set");
    Variant {
        kind,
        config,
        artifacts,
        calls: Vec::new(),
    }
}

/// Runs one call of `v` at seed `seed`; `Err` carries a panic message.
fn run_call(
    exp: &Experiment,
    v: &Variant,
    seed: u64,
    totals: &Arc<PlanTotals>,
) -> Result<Call, String> {
    let mut config = v.config;
    config.seed = seed;
    let kind = exp.policy();
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        if v.kind == Kind::Traced {
            let factory = |code: &RotatedCode| -> Box<dyn LrcPolicy> {
                Box::new(TimedPolicy {
                    inner: kind.build(code),
                    nanos: 0,
                    calls: 0,
                    totals: Arc::clone(totals),
                })
            };
            exp.runner()
                .run_with_artifacts(&factory, &config, &v.artifacts)
        } else {
            exp.runner()
                .run_with_artifacts(&|code| kind.build(code), &config, &v.artifacts)
        }
    }));
    let nanos = start.elapsed().as_nanos() as f64;
    let result = result.map_err(|panic| {
        panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into())
    })?;
    Ok(Call {
        nanos,
        exact: Exact::of(&result),
        decode_nanos: result.decode_latency.total_nanos(),
        decode_rounds: result.decode_latency.total_rounds(),
    })
}

/// Runs a Monte-Carlo workload and fills `report`.
pub fn run(w: &McWorkload, band: &Band, opts: &RunOptions, report: &mut Report) {
    // Set-up: build() plus the cold artifact resolution, several times.
    let mut setup = Vec::new();
    let mut build_s = Vec::new();
    let mut artifacts_s = Vec::new();
    let mut exp = None;
    for _ in 0..opts.setups {
        let t0 = Instant::now();
        let e = w.build();
        let t1 = Instant::now();
        let arts = e
            .runner()
            .decode_artifacts(e.config(), None)
            .expect("no ERASER_* override is set");
        let t2 = Instant::now();
        std::hint::black_box(&arts);
        build_s.push((t1 - t0).as_secs_f64());
        artifacts_s.push((t2 - t1).as_secs_f64());
        setup.push((t2 - t0).as_secs_f64());
        exp = Some(e);
    }
    let exp = exp.expect("at least one set-up");

    let mut kinds = vec![Kind::Full];
    if opts.trace {
        kinds.push(Kind::Traced);
        if w.decode {
            kinds.push(Kind::DecodeOff);
            kinds.push(Kind::PredecodeOff);
        }
        if w.leakage_aware {
            kinds.push(Kind::Blind);
        }
    }
    let mut variants: Vec<Variant> = kinds.iter().map(|&k| variant(&exp, k)).collect();
    let totals = Arc::new(PlanTotals::default());

    // Warm-up: one untimed call per variant at a seed no timed call uses.
    for v in &variants {
        let _ = run_call(&exp, v, call_seed(opts.seed, u64::MAX), &totals);
    }
    totals.nanos.store(0, Ordering::Relaxed);
    totals.calls.store(0, Ordering::Relaxed);

    // Timed calls. Variants of call k run back to back, rotating which goes
    // first, so a slow spell of the host hits every variant alike.
    let loop_start = Instant::now();
    let mut call0 = None;
    let mut k = 0u64;
    while k < MIN_CALLS || loop_start.elapsed().as_secs_f64() < opts.seconds {
        let seed = call_seed(opts.seed, k);
        let n = variants.len();
        let mut results: Vec<Option<Call>> = vec![None; n];
        for i in 0..n {
            let idx = (k as usize + i) % n;
            report.attempted += 1;
            match run_call(&exp, &variants[idx], seed, &totals) {
                Ok(call) => results[idx] = Some(call),
                Err(msg) => report.fail(format!("call {k} ({:?}) panicked: {msg}", kinds[idx])),
            }
        }
        let outcome: Vec<Option<&Exact>> = results
            .iter()
            .map(|r| r.as_ref().map(|c| &c.exact))
            .collect();
        check_variants(k, &kinds, &outcome, report);
        if k == 0 {
            call0 = outcome[0].cloned();
        }
        // The layer split compares variants over the same calls, so a call
        // counts only if every variant completed it.
        if results.iter().all(Option::is_some) {
            for (v, call) in variants.iter_mut().zip(results) {
                v.calls.push(call.expect("every variant completed"));
            }
        }
        k += 1;
    }
    let loop_s = loop_start.elapsed().as_secs_f64();

    // Repeat call 0: every exact count must reproduce.
    let full = &variants[0];
    if let Some(first) = &call0 {
        match run_call(&exp, full, call_seed(opts.seed, 0), &totals) {
            Ok(again) if again.exact == *first => {}
            Ok(again) => report.fail(format!(
                "repeat of call 0 differs: {:?} vs {first:?}",
                again.exact
            )),
            Err(msg) => report.fail(format!("repeat of call 0 panicked: {msg}")),
        }
    }
    check_band(band, &full.calls, w.shots_per_call, report);

    let per_sr =
        |calls: &[Call]| -> Vec<f64> { calls.iter().map(|c| c.nanos / w.shot_rounds()).collect() };
    // Total call time over total shot-rounds. A mean, not a median: on a
    // shared host, co-tenant load can slow a varying share of calls by up
    // to 1.7x. Per-call times are then bimodal and their median jumps
    // between the modes from run to run, while the mean moves in
    // proportion to the slowed share. Means over the same calls also add
    // up, which the layer split relies on.
    let mean_sr = |v: &Variant| -> f64 {
        v.calls.iter().map(|c| c.nanos).sum::<f64>()
            / (v.calls.len().max(1) as f64 * w.shot_rounds())
    };
    let full_sr = per_sr(&full.calls);
    let shot_round_ns = mean_sr(full);
    report.note(format!(
        "{} timed calls x {} shots x {} rounds; decoder {}",
        full.calls.len(),
        w.shots_per_call,
        w.rounds,
        full.artifacts.decoder_name(),
    ));
    let pooled = pooled(&full.calls);
    let shots = (full.calls.len() as u64 * w.shots_per_call).max(1);
    report.note(format!(
        "pooled: LER {:.3e} ({} / {} shots), LRCs/round {:.5} ({} LRCs)",
        pooled.logical_errors as f64 / shots as f64,
        pooled.logical_errors,
        shots,
        pooled.total_lrcs as f64 / (shots as f64 * w.rounds as f64),
        pooled.total_lrcs
    ));

    if !opts.trace {
        let job_ms: Vec<f64> = full.calls.iter().map(|c| c.nanos / 1e6).collect();
        let (job_tail, pct) = tail(&job_ms);
        report.set("setup_s", median(&setup));
        report.set("shot_round_ns", shot_round_ns);
        report.set("jobs_per_s", full.calls.len() as f64 / loop_s);
        report.set("peak_rss_mb", crate::host::peak_rss_mb());
        report.set("job_ms", median(&job_ms));
        report.set("job_ms_tail", job_tail);
        report.note(format!("job_ms_tail is p{pct:.1}"));
        return;
    }

    let of = |kind: Kind| variants.iter().find(|v| v.kind == kind);
    let traced = of(Kind::Traced).expect("traced variant");
    // Decoding already off: the full run is the simulation.
    let sim = of(Kind::DecodeOff).map_or(shot_round_ns, mean_sr);
    // Time inside the decoder's own timed calls, per shot-round. The
    // unexplained share uses it rather than decode_shot_round_ns, which as
    // `full - sim` would make the share zero by construction; so the share
    // is what neither simulation nor decoder calls cover: syndrome
    // extraction, erasure mapping, tier dispatch, window commits.
    let decode_timed = full
        .calls
        .iter()
        .map(|c| c.decode_nanos as f64)
        .sum::<f64>()
        / (full.calls.len().max(1) as f64 * w.shot_rounds());
    let plan_calls = totals.calls.load(Ordering::Relaxed);
    let plan_nanos = totals.nanos.load(Ordering::Relaxed);
    let calls = full.calls.len().max(1) as f64;
    let spec = pooled.speculation;
    let scheduled = spec[0] + spec[1];
    let decode_rounds: u64 = full.calls.iter().map(|c| c.decode_rounds).sum();
    let decode_nanos: u64 = full.calls.iter().map(|c| c.decode_nanos).sum();

    report.set("surface_code.runner_build_s", median(&build_s));
    report.set("qec_decoder.artifacts_build_s", median(&artifacts_s));
    report.set("leak_sim.sim_shot_round_ns", sim);
    report.set(
        "eraser_core.policy_plan_ns",
        plan_nanos as f64 / plan_calls.max(1) as f64,
    );
    report.set(
        "eraser_core.policy_plan_calls",
        plan_calls as f64 / traced.calls.len().max(1) as f64,
    );
    report.set(
        "eraser_core.lrcs_per_round",
        pooled.total_lrcs as f64 / (shots as f64 * w.rounds as f64),
    );
    report.set(
        "eraser_core.speculation_precision",
        spec[0] as f64 / scheduled.max(1) as f64,
    );
    report.set(
        "eraser_core.erasures_per_shot",
        pooled.total_erasures as f64 / shots as f64,
    );
    report.set("qec_decoder.decode_shot_round_ns", shot_round_ns - sim);
    report.set(
        "qec_decoder.erasure_shot_round_ns",
        of(Kind::Blind).map_or(0.0, |blind| shot_round_ns - mean_sr(blind)),
    );
    for (t, name) in [
        "qec_decoder.predecode_tier0_hits",
        "qec_decoder.predecode_tier1_hits",
        "qec_decoder.predecode_tier2_hits",
    ]
    .into_iter()
    .enumerate()
    {
        report.set(name, pooled.tiers[t] as f64 / calls);
    }
    report.set(
        "qec_decoder.predecode_saved_shot_round_ns",
        of(Kind::PredecodeOff).map_or(0.0, |off| mean_sr(off) - shot_round_ns),
    );
    report.set(
        "qec_decoder.window_ns_per_round_mean",
        if decode_rounds == 0 {
            0.0
        } else {
            decode_nanos as f64 / decode_rounds as f64
        },
    );
    report.set("eraser_core.run_shot_round_ns_tail", tail(&full_sr).0);
    for name in [
        "eraser_serve.accept_ms",
        "eraser_serve.first_point_ms",
        "eraser_core.cache_hits",
        "eraser_core.cache_misses",
        "eraser_core.cache_evictions",
        "eraser_core.cache_bytes",
        "eraser_serve.busy_rejects",
    ] {
        report.set(name, 0.0);
    }
    report.set(
        "trace_overhead_pct",
        100.0 * (mean_sr(traced) / shot_round_ns - 1.0),
    );
    report.set(
        "unexplained_pct",
        100.0 * (shot_round_ns - sim - decode_timed) / shot_round_ns,
    );
}

/// Sums the exact counts of `calls`.
fn pooled(calls: &[Call]) -> Exact {
    let mut sum = Exact {
        logical_errors: 0,
        total_lrcs: 0,
        total_erasures: 0,
        speculation: [0; 4],
        tiers: [0; 3],
        lpr_bits: Vec::new(),
    };
    for c in calls {
        sum.logical_errors += c.exact.logical_errors;
        sum.total_lrcs += c.exact.total_lrcs;
        sum.total_erasures += c.exact.total_erasures;
        for i in 0..4 {
            sum.speculation[i] += c.exact.speculation[i];
        }
        for t in 0..3 {
            sum.tiers[t] += c.exact.tiers[t];
        }
    }
    sum
}

/// Cross-checks the variants of call `k` against the full run: the timed
/// policy changes nothing; decoding never feeds back into the physics; the
/// predecoder is exact.
fn check_variants(k: u64, kinds: &[Kind], outcome: &[Option<&Exact>], report: &mut Report) {
    let Some(full) = outcome[0] else { return };
    for (kind, other) in kinds.iter().zip(outcome).skip(1) {
        let Some(other) = *other else { continue };
        let ok = match kind {
            Kind::Full => true,
            Kind::Traced => other == full,
            Kind::DecodeOff => other.physics() == full.physics() && other.tiers == [0; 3],
            Kind::Blind => other.physics() == full.physics() && other.total_erasures == 0,
            Kind::PredecodeOff => {
                other.logical_errors == full.logical_errors
                    && other.total_erasures == full.total_erasures
                    && other.physics() == full.physics()
                    && other.tiers == [0; 3]
            }
        };
        if !ok {
            report.fail(format!(
                "call {k}: {kind:?} disagrees with the full run: {other:?} vs {full:?}"
            ));
        }
    }
}

/// Pooled LER and LRCs/round must lie inside the reference band.
fn check_band(band: &Band, calls: &[Call], shots_per_call: u64, report: &mut Report) {
    let sum = pooled(calls);
    let shots = calls.len() as u64 * shots_per_call;
    if shots == 0 {
        return;
    }
    let (ler_p, lrc_p) = band.p_values(sum.logical_errors, sum.total_lrcs, shots);
    // Variance-to-mean ratio of per-call LRC counts: the burstiness the
    // band's dispersion factor has to cover.
    let counts: Vec<f64> = calls.iter().map(|c| c.exact.total_lrcs as f64).collect();
    let mean = counts.iter().sum::<f64>() / counts.len() as f64;
    let var = counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / counts.len() as f64;
    report.note(format!(
        "reference band: LER p = {ler_p:.3e}, LRCs p = {lrc_p:.3e} (limit {:e}); \
         LRC variance/mean per call {:.2}",
        crate::reference::P_LIMIT,
        var / mean.max(1e-12)
    ));
    if ler_p < crate::reference::P_LIMIT || lrc_p < crate::reference::P_LIMIT {
        report.fail(format!(
            "pooled statistics outside the reference band: LER p = {ler_p:.3e}, \
             LRCs p = {lrc_p:.3e}"
        ));
    }
}
