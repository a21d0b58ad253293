//! Simulator throughput: leakage-aware frame simulation of syndrome-
//! extraction rounds (scalar and 64-shot striped), the d=7 memory
//! benchmark (one-lane vs 64-lane stripes), tableau verification speed,
//! and density-matrix kernel cost.
//!
//! Baseline numbers are recorded to `results/BENCH_sim.json` via
//! `ERASER_BENCH_JSON=$PWD/results/BENCH_sim.json cargo bench -p eraser-bench --bench sim_throughput`
//! (absolute path: cargo runs benches from the package directory). The
//! `memory_run_512shots/d7/*` pair is the committed throughput baseline:
//! shots/sec = 512 / (ns_per_iter · 10⁻⁹).

use density_sim::{gates, DensityMatrix};
use eraser_bench::{round_ops, Harness};
use eraser_core::{
    AdaptivePolicy, ControlBase, ControllerConfig, EraserPolicy, Experiment, LrcPolicy, PolicyKind,
    RoundContext,
};
use leak_sim::{BatchFrameSimulator, Discriminator, FrameSimulator, TableauSimulator};
use qec_core::{NoiseParams, Rng};
use std::hint::black_box;

fn main() {
    let h = Harness::from_args();

    for d in [3usize, 7, 11] {
        let (code, ops, keys) = round_ops(d);
        let mut sim = FrameSimulator::new(
            code.num_qubits(),
            keys,
            NoiseParams::standard(1e-3),
            Discriminator::TwoLevel,
            Rng::new(1),
        );
        h.bench(&format!("frame_sim_round/d{d}"), || {
            sim.reset_shot();
            sim.run(black_box(&ops));
        });

        // The striped simulator runs 64 shots per iteration: per-shot cost
        // is ns_per_iter / 64.
        let mut batch = BatchFrameSimulator::new(
            code.num_qubits(),
            keys,
            NoiseParams::standard(1e-3),
            Discriminator::TwoLevel,
        );
        let rngs: Vec<Rng> = (0..64).map(Rng::new).collect();
        h.bench(&format!("frame_sim_round_striped64/d{d}"), || {
            batch.begin_stripe(&rngs);
            batch.run_masked(black_box(&ops), !0);
        });
    }

    // The d=7 memory benchmark: full ERASER runs (policy-adaptive rounds,
    // LPR probes, post-selection) at stripe width 1 vs 64 — same shot loop,
    // same shots, same seeds, bit-identical results. The `/scalar` case
    // keeps its name for the committed baseline, whose figure was recorded
    // when width 1 still ran a separate one-shot-at-a-time loop on the
    // scalar frame simulator. Decoding is benchmarked separately (decoders
    // bench), so it is disabled here to isolate simulation throughput.
    {
        let build = |width: usize| {
            Experiment::builder()
                .distance(7)
                .noise(NoiseParams::standard(1e-3))
                .rounds(21)
                .policy(PolicyKind::eraser())
                .shots(512)
                .seed(7)
                .threads(1)
                .decode(false)
                .stripe_width(width)
                .build()
                .expect("valid benchmark experiment")
        };
        let scalar = build(1);
        h.bench("memory_run_512shots/d7/scalar", || scalar.run().total_lrcs);
        let striped = build(64);
        h.bench("memory_run_512shots/d7/striped64", || {
            striped.run().total_lrcs
        });
    }

    // Per-round planning cost of the adaptive controller in its steady
    // state (quiet syndrome, base mode, base = ERASER) vs the static
    // policy it wraps. The baselines test asserts the controller's
    // bookkeeping — two signal scans plus the law update — stays within
    // 10% of plain ERASER's planning time.
    {
        let (code, _, _) = round_ops(7);
        let quiet_events = vec![false; code.num_stabs()];
        let quiet_labels = vec![false; code.num_stabs()];
        let oracle = vec![false; code.num_data()];
        let ctx = RoundContext {
            round: 1,
            events: &quiet_events,
            leaked_readouts: &quiet_labels,
            oracle_leaked_data: &oracle,
            last_lrcs: &[],
        };
        let mut eraser = EraserPolicy::new(&code);
        h.bench("policy_round/d7/eraser", || {
            black_box(eraser.plan_round(black_box(&ctx)).len())
        });
        let steady = ControllerConfig {
            base: ControlBase::Eraser,
            ..ControllerConfig::ewma()
        };
        let mut ewma = AdaptivePolicy::new(&code, steady);
        h.bench("policy_round/d7/adaptive-ewma", || {
            black_box(ewma.plan_round(black_box(&ctx)).len())
        });
        let mut budget = AdaptivePolicy::new(
            &code,
            ControllerConfig {
                base: ControlBase::Eraser,
                ..ControllerConfig::budget()
            },
        );
        h.bench("policy_round/d7/adaptive-budget", || {
            black_box(budget.plan_round(black_box(&ctx)).len())
        });
    }

    for d in [3usize, 5] {
        let (code, ops, _) = round_ops(d);
        h.bench(&format!("tableau_round/d{d}"), || {
            let mut sim = TableauSimulator::new(code.num_qubits(), 7);
            let mut outcomes = Vec::new();
            sim.run_circuit_ops(black_box(&ops), &mut outcomes);
            outcomes
        });
    }

    // Three-ququart register: the same kernels Fig 8 runs on five ququarts.
    {
        let mut rho = DensityMatrix::new_pure(3, &[2, 0, 0]);
        let cx = gates::cnot();
        h.bench("density_sim/cnot_3ququarts", || {
            rho.apply_two(0, 2, black_box(&cx))
        });
    }
    {
        let mut rho = DensityMatrix::new_pure(3, &[2, 0, 0]);
        let ks = gates::leak_transport_kraus(0.1);
        h.bench("density_sim/transport_kraus_3ququarts", || {
            rho.apply_kraus_two(0, 1, black_box(&ks))
        });
    }
}
