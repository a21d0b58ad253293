//! Integration coverage of the `Experiment` facade: builder validation,
//! string round-trips of the policy/decoder registries, and the guarantee
//! that the `Sweep` engine is bit-identical to sequential per-point runs.

use eraser_repro::eraser_core::{
    ControlLawKind, ControllerConfig, DecoderKind, Experiment, ExperimentBuilder, ExperimentError,
    LeakageProfile, LrcProtocol, MemoryRunResult, NoiseModel, PolicyKind, Sweep, SweepBuilder,
    SweepPoint,
};
use eraser_repro::qec_core::NoiseParams;
use eraser_repro::surface_code::MemoryBasis;

#[test]
fn builder_validation_returns_errors_not_panics() {
    // Zero shots.
    assert_eq!(
        Experiment::builder()
            .distance(3)
            .rounds(2)
            .shots(0)
            .build()
            .unwrap_err(),
        ExperimentError::ZeroShots
    );
    // Even distance.
    assert_eq!(
        Experiment::builder()
            .distance(4)
            .rounds(2)
            .build()
            .unwrap_err(),
        ExperimentError::InvalidDistance(4)
    );
    // Zero rounds.
    assert_eq!(
        Experiment::builder()
            .distance(3)
            .rounds(0)
            .build()
            .unwrap_err(),
        ExperimentError::ZeroRounds
    );
    // Missing required fields.
    assert_eq!(
        Experiment::builder().rounds(2).build().unwrap_err(),
        ExperimentError::MissingDistance
    );
    assert_eq!(
        Experiment::builder().distance(3).build().unwrap_err(),
        ExperimentError::MissingRounds
    );
    // Errors render as readable messages.
    assert_eq!(
        ExperimentError::ZeroShots.to_string(),
        "a run needs at least one shot"
    );
}

#[test]
fn policy_kind_round_trips_through_strings() {
    for kind in PolicyKind::all_standard() {
        let rendered = kind.to_string();
        let parsed: PolicyKind = rendered.parse().expect("standard labels parse");
        assert_eq!(parsed, kind, "round-trip of `{rendered}`");
    }
    // Aliases accepted by the CLI surface.
    assert_eq!(
        "always".parse::<PolicyKind>().unwrap(),
        PolicyKind::AlwaysLrc
    );
    assert_eq!(
        "eraser-m".parse::<PolicyKind>().unwrap(),
        PolicyKind::eraser_m()
    );
    assert!(matches!(
        "warp-drive".parse::<PolicyKind>(),
        Err(ExperimentError::UnknownPolicy(_))
    ));
}

#[test]
fn decoder_kind_round_trips_through_strings() {
    for kind in [
        DecoderKind::Auto,
        DecoderKind::Mwpm,
        DecoderKind::UnionFind,
        DecoderKind::Greedy,
    ] {
        assert_eq!(kind.to_string().parse::<DecoderKind>().unwrap(), kind);
    }
    assert_eq!("uf".parse::<DecoderKind>().unwrap(), DecoderKind::UnionFind);
    assert!(matches!(
        "belief-propagation".parse::<DecoderKind>(),
        Err(ExperimentError::UnknownDecoder(_))
    ));
}

#[test]
fn custom_policy_escape_hatch_runs() {
    use eraser_repro::eraser_core::NoLrcPolicy;
    let kind = PolicyKind::custom("do-nothing", |_| Box::new(NoLrcPolicy::new()));
    let result = Experiment::builder()
        .distance(3)
        .rounds(2)
        .shots(15)
        .seed(8)
        .policy(kind)
        .build()
        .expect("valid experiment")
        .run();
    assert_eq!(result.policy, "no-lrc");
    assert_eq!(result.total_lrcs, 0);
}

/// Runs `sweep` and checks every point, in grid order, against
/// `Experiment::run_policy` on the experiment `experiment(d, p)` builds.
/// Returns the sweep's points.
fn assert_sweep_matches_experiments(
    sweep: SweepBuilder,
    distances: &[usize],
    rates: &[f64],
    policies: &[PolicyKind],
    experiment: impl Fn(usize, f64) -> ExperimentBuilder,
) -> Vec<SweepPoint> {
    let points = sweep
        .distances(distances.iter().copied())
        .error_rates(rates.iter().copied())
        .policies(policies.iter().cloned())
        .build()
        .expect("valid sweep")
        .run();
    assert_eq!(points.len(), distances.len() * rates.len() * policies.len());
    let lpr_bits = |r: &MemoryRunResult| -> Vec<u64> {
        let lpr = r.lpr_total.iter().chain(&r.lpr_data).chain(&r.lpr_parity);
        lpr.map(|x| x.to_bits()).collect()
    };

    let mut i = 0;
    for &d in distances {
        for &p in rates {
            let exp = experiment(d, p).build().expect("valid experiment");
            for kind in policies {
                let expected = exp.run_policy(kind);
                let got = &points[i].result;
                assert_eq!(points[i].distance, d);
                assert_eq!(points[i].p, p);
                assert_eq!(points[i].rounds, exp.rounds());
                assert_eq!(points[i].policy, kind.label());
                assert_eq!(got.logical_errors, expected.logical_errors, "point {i}");
                assert_eq!(got.total_lrcs, expected.total_lrcs, "point {i}");
                assert_eq!(got.total_erasures, expected.total_erasures, "point {i}");
                assert_eq!(got.speculation, expected.speculation, "point {i}");
                assert_eq!(got.predecode.hits, expected.predecode.hits, "point {i}");
                assert_eq!(lpr_bits(got), lpr_bits(&expected), "point {i}");
                assert_eq!(got.policy, expected.policy, "point {i}");
                assert_eq!(got.decoder, expected.decoder, "point {i}");
                i += 1;
            }
        }
    }
    points
}

#[test]
fn sweep_is_identical_to_sequential_runs_for_a_fixed_seed() {
    let distances = [3usize];
    let rates = [1e-3, 3e-3];
    let seed = 4242;

    // Default run knobs.
    let sweep = Sweep::builder()
        .noise_model(NoiseModel::Standard)
        .rounds(4)
        .shots(120)
        .seed(seed);
    let policies = [
        PolicyKind::NoLrc,
        PolicyKind::AlwaysLrc,
        PolicyKind::eraser(),
    ];
    assert_sweep_matches_experiments(sweep, &distances, &rates, &policies, |d, p| {
        Experiment::builder()
            .distance(d)
            .noise(NoiseParams::standard(p))
            .rounds(4)
            .shots(120)
            .seed(seed)
    });

    // Every shared setter off its default on both builders, except
    // `decode`, whose non-default would leave the decoder knobs unused.
    let controller = ControllerConfig {
        up: 0.06,
        down: 0.02,
        min_dwell: 1,
        ..ControllerConfig::ewma()
    };
    let storm = LeakageProfile::Burst {
        start: 1,
        len: 2,
        period: 0,
        rate: 0.05,
    };
    macro_rules! every_shared_setter {
        ($builder:expr) => {
            $builder
                .basis(MemoryBasis::X)
                .cycles(2)
                .shots(70)
                .seed(seed)
                .threads(3)
                .stripe_width(7)
                .decoder(DecoderKind::UnionFind)
                .protocol(LrcProtocol::Dqlr)
                .decode(true)
                .leakage_aware_decoding(true)
                .erasure_detection(0.01, 0.2)
                .window_rounds(4)
                .window_stride(2)
                .fusion_threads(2)
                .controller(controller)
                .leakage_profile(storm)
                .predecode(false)
        };
    }
    let policies = [
        PolicyKind::adaptive(ControlLawKind::Ewma),
        PolicyKind::eraser_m(),
    ];
    let points = assert_sweep_matches_experiments(
        every_shared_setter!(Sweep::builder()),
        &distances,
        &rates,
        &policies,
        |d, p| {
            every_shared_setter!(Experiment::builder()
                .distance(d)
                .noise(NoiseParams::standard(p)))
        },
    );
    // The knobs reached the runs: erasures were decoded, the adaptive
    // controller ran, and the predecoder stayed off.
    for point in &points {
        let result = &point.result;
        assert!(result.total_erasures > 0, "{}: erasures", point.policy);
        assert!(result.total_lrcs > 0, "{}: LRCs", point.policy);
        assert_eq!(result.predecode.total(), 0, "{}: predecode", point.policy);
        assert_eq!(result.decoder, "union-find", "{}: decoder", point.policy);
    }
    assert!(points[0].result.controller.is_active());
}

#[test]
fn sweep_supports_memory_x_grids() {
    let sweep = Sweep::builder()
        .distances([3])
        .error_rates([1e-3])
        .policy(PolicyKind::eraser())
        .rounds(3)
        .shots(40)
        .seed(6)
        .basis(MemoryBasis::X)
        .build()
        .expect("valid sweep");
    let points = sweep.run();
    assert_eq!(points.len(), 1);
    assert!(points[0].result.ler() <= 1.0);
}

#[test]
fn experiment_reports_resolved_geometry() {
    let exp = Experiment::builder()
        .distance(5)
        .cycles(3)
        .shots(1)
        .build()
        .expect("valid experiment");
    assert_eq!(exp.distance(), 5);
    assert_eq!(exp.rounds(), 15);
    assert_eq!(exp.basis(), MemoryBasis::Z);
    assert_eq!(exp.policy(), &PolicyKind::NoLrc);
}
