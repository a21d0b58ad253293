//! Stripe correctness: the word-parallel (64-shots-per-word) runtime must
//! give the same results, shot for shot, at every stripe width and worker
//! count — across every policy, both LRC protocols, erasure-aware decoding,
//! windowed streaming decoding, and ragged stripe tails. Stripe width is a
//! pure wall-clock knob, exactly like the worker-thread count.
//!
//! Every case also pins its run outputs. The pinned values were recorded
//! when width 1 still ran a separate one-shot-at-a-time loop on the scalar
//! frame simulator, which every width matched bit for bit; they keep the
//! single striped loop anchored to that reference.

use eraser_repro::eraser_core::runtime::{
    DecoderKind, ErasureDetection, LrcProtocol, MemoryRunResult, MemoryRunner, RunConfig,
};
use eraser_repro::eraser_core::{
    ControlLawKind, Experiment, LeakageProfile, PolicyKind, StripeRoundContext, StripedPolicy,
};
use eraser_repro::qec_core::NoiseParams;
use eraser_repro::surface_code::{RotatedCode, SlotTable};

fn assert_identical(a: &MemoryRunResult, b: &MemoryRunResult, what: &str) {
    assert_eq!(a.shots, b.shots, "{what}: shots");
    assert_eq!(a.logical_errors, b.logical_errors, "{what}: logical errors");
    assert_eq!(a.total_lrcs, b.total_lrcs, "{what}: LRC count");
    assert_eq!(a.total_erasures, b.total_erasures, "{what}: erasures");
    assert_eq!(a.speculation, b.speculation, "{what}: speculation");
    assert_eq!(a.postselection, b.postselection, "{what}: post-selection");
    // Controller telemetry is all-integer (Q16 fixed point) and merges by
    // sums and maxima, so it too must agree bit for bit.
    assert_eq!(a.controller, b.controller, "{what}: controller stats");
    assert_eq!(a.predecode.hits, b.predecode.hits, "{what}: predecode hits");
    // The LPR sums accumulate integer counts, so even the f64 vectors are
    // exactly reproducible.
    assert_eq!(a.lpr_total, b.lpr_total, "{what}: LPR total");
    assert_eq!(a.lpr_data, b.lpr_data, "{what}: LPR data");
    assert_eq!(a.lpr_parity, b.lpr_parity, "{what}: LPR parity");
}

/// FNV-1a over the little-endian bytes of a word sequence.
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

/// The pinned outputs of one run: logical errors, LRCs, erasures, the
/// speculation matrix `[TP, FP, FN, TN]`, post-selection `[flagged, errors
/// on kept]`, controller telemetry `[escalations, rounds escalated, rounds
/// base, Q16 estimate sum, Q16 estimate peak]`, predecoder tier hits, and
/// an FNV-1a digest of the total, data and parity LPR bits.
type Pinned = (u64, u64, u64, [u64; 4], [u64; 2], [u64; 5], [u64; 3], u64);

fn outputs(r: &MemoryRunResult) -> Pinned {
    let s = &r.speculation;
    let c = &r.controller;
    let lpr = r.lpr_total.iter().chain(&r.lpr_data).chain(&r.lpr_parity);
    (
        r.logical_errors,
        r.total_lrcs,
        r.total_erasures,
        [
            s.true_positive,
            s.false_positive,
            s.false_negative,
            s.true_negative,
        ],
        [
            r.postselection.flagged_shots,
            r.postselection.errors_on_kept,
        ],
        [
            c.escalations,
            c.rounds_escalated,
            c.rounds_base,
            c.estimate_sum_q16,
            u64::from(c.estimate_peak_q16),
        ],
        r.predecode.hits,
        fnv1a(lpr.map(|x| x.to_bits())),
    )
}

/// A configuration with every run knob set explicitly, so no `ERASER_*`
/// environment override can change what is pinned: one worker, MWPM,
/// monolithic decoding (a window longer than the shot), no fusion, and the
/// predecoder on.
fn pinned_config(runner: &MemoryRunner, shots: u64, seed: u64) -> RunConfig {
    RunConfig {
        shots,
        seed,
        threads: 1,
        decoder: DecoderKind::Mwpm,
        stripe_width: 64,
        window_rounds: runner.experiment().rounds() + 1,
        fusion_threads: 1,
        predecode: Some(true),
        ..RunConfig::default()
    }
}

fn run_width(
    runner: &MemoryRunner,
    kind: &PolicyKind,
    base: &RunConfig,
    width: usize,
) -> MemoryRunResult {
    let config = RunConfig {
        stripe_width: width,
        ..*base
    };
    runner.run(&|code| kind.build(code), &config)
}

/// Runs `kind` at stripe widths 64, 1 and 7, and at width 64 on three
/// worker threads (which split the shot range mid-stripe). The width-64
/// run must reproduce `expected`, and every other run must match it bit for
/// bit. Returns the width-64 result.
fn check_pinned(
    runner: &MemoryRunner,
    kind: &PolicyKind,
    base: &RunConfig,
    expected: Pinned,
    what: &str,
) -> MemoryRunResult {
    let reference = run_width(runner, kind, base, 64);
    assert_eq!(outputs(&reference), expected, "{what}: pinned outputs");
    for width in [1, 7] {
        let narrow = run_width(runner, kind, base, width);
        assert_identical(&reference, &narrow, &format!("{what} width-{width}"));
    }
    let threaded = RunConfig {
        threads: 3,
        ..*base
    };
    let multi = run_width(runner, kind, &threaded, 64);
    assert_identical(&reference, &multi, &format!("{what} threaded"));
    reference
}

/// The headline property: every policy of the paper, with a shot count that
/// exercises a ragged final stripe (70 = 64 + 6; at width 7, ten stripes).
#[test]
fn stripe_width_is_bit_identical_across_all_policies() {
    #[rustfmt::skip]
    const PINNED: [Pinned; 6] = [
        (1, 0, 0, [0, 0, 13, 3767], [53, 0], [0; 5], [25, 31, 14], 8847925614829201692),
        (7, 1680, 0, [1, 1679, 0, 2100], [53, 0], [0; 5], [20, 23, 27], 4932121697525743724),
        (16, 3360, 0, [6, 3354, 1, 419], [64, 0], [0; 5], [11, 20, 39], 8310509845974130795),
        (0, 147, 0, [6, 141, 3, 3630], [53, 0], [0; 5], [24, 28, 18], 5513109607344598122),
        (1, 155, 0, [6, 149, 1, 3624], [53, 0], [0; 5], [24, 28, 18], 1673979925601591989),
        (1, 6, 0, [6, 0, 0, 3774], [53, 0], [0; 5], [25, 32, 13], 1173970567861959822),
    ];
    let runner = MemoryRunner::new(3, NoiseParams::standard(4e-3), 6);
    let base = RunConfig {
        threads: 2,
        ..pinned_config(&runner, 70, 0xA11CE)
    };
    for (kind, expected) in PolicyKind::all_standard().iter().zip(PINNED) {
        check_pinned(&runner, kind, &base, expected, kind.label());
    }
}

/// The DQLR protocol's slot-gated post segment.
#[test]
fn stripe_width_is_bit_identical_under_dqlr() {
    #[rustfmt::skip]
    const PINNED: [Pinned; 2] = [
        (4, 2800, 0, [7, 2793, 1, 349], [54, 0], [0; 5], [21, 35, 14], 7138928901158581788),
        (2, 93, 0, [2, 91, 1, 3056], [37, 0], [0; 5], [41, 18, 11], 1676092942476651725),
    ];
    let runner = MemoryRunner::new(3, NoiseParams::exchange_transport(4e-3), 5);
    let base = RunConfig {
        protocol: LrcProtocol::Dqlr,
        ..pinned_config(&runner, 70, 77)
    };
    for (kind, expected) in [PolicyKind::AlwaysEveryRound, PolicyKind::eraser()]
        .iter()
        .zip(PINNED)
    {
        check_pinned(&runner, kind, &base, expected, kind.label());
    }
}

/// Erasure-aware decoding threads per-lane detection noise through the
/// independent per-shot streams; every width must collect the same erasure
/// sets and decode identically.
#[test]
fn stripe_width_is_bit_identical_with_erasure_decoding() {
    #[rustfmt::skip]
    const PINNED: [Pinned; 3] = [
        (3, 194, 458, [3, 191, 5, 3581], [58, 0], [0; 5], [12, 9, 49], 8505858332096849984),
        (5, 180, 410, [4, 176, 5, 3595], [58, 0], [0; 5], [11, 10, 49], 11069453205358400085),
        (3, 6, 471, [6, 0, 0, 3774], [58, 0], [0; 5], [12, 11, 47], 15789488347321149284),
    ];
    let runner = MemoryRunner::new(3, NoiseParams::standard(5e-3), 6);
    let base = RunConfig {
        threads: 2,
        erasure: ErasureDetection::imperfect(0.01, 0.05),
        ..pinned_config(&runner, 70, 31)
    };
    for (kind, expected) in [
        PolicyKind::eraser_m(),
        PolicyKind::eraser(),
        PolicyKind::Optimal,
    ]
    .iter()
    .zip(PINNED)
    {
        let striped = check_pinned(&runner, kind, &base, expected, kind.label());
        assert!(
            *kind != PolicyKind::eraser_m() || striped.total_erasures > 0,
            "ERASER+M must collect erasures"
        );
    }
}

/// Sliding-window streaming decoding with erasures: each lane pushes its
/// round's defects and erasure flags into its own streaming decoder, and
/// windows commit mid-shot.
#[test]
fn stripe_width_is_bit_identical_with_windowed_erasure_decoding() {
    #[rustfmt::skip]
    const PINNED: Pinned = (8, 274, 713, [10, 264, 10, 4756], [64, 0], [0; 5], [61, 48, 171], 5246689380632041505);
    let runner = MemoryRunner::new(3, NoiseParams::standard(5e-3), 8);
    let base = RunConfig {
        window_rounds: 4,
        window_stride: 2,
        erasure: ErasureDetection::imperfect(0.01, 0.05),
        ..pinned_config(&runner, 70, 0x5_7EA)
    };
    let kind = PolicyKind::eraser_m();
    let striped = check_pinned(&runner, &kind, &base, PINNED, "windowed ERASER+M");
    assert!(striped.total_erasures > 0, "ERASER+M must collect erasures");
    assert!(
        striped.decode_latency.samples() > 70,
        "every shot must decode several windows"
    );
}

/// Ragged-tail property: shot counts around the stripe boundary (63, 64,
/// 65, 130, and a single shot).
#[test]
fn ragged_stripe_tails_are_bit_identical() {
    #[rustfmt::skip]
    const PINNED: [Pinned; 5] = [
        (0, 0, 0, [0, 0, 0, 36], [1, 0], [0; 5], [0, 1, 0], 163202333136149157),
        (2, 74, 0, [5, 69, 4, 2190], [37, 0], [0; 5], [34, 19, 10], 6678179462661455060),
        (1, 70, 0, [1, 69, 3, 2231], [35, 0], [0; 5], [34, 23, 7], 1379893076114759561),
        (4, 107, 0, [4, 103, 7, 2226], [52, 0], [0; 5], [24, 26, 15], 15908000166086407769),
        (4, 158, 0, [7, 151, 10, 4512], [82, 0], [0; 5], [71, 41, 18], 6990047763031183008),
    ];
    let runner = MemoryRunner::new(3, NoiseParams::standard(4e-3), 4);
    for (shots, expected) in [1u64, 63, 64, 65, 130].into_iter().zip(PINNED) {
        let base = pinned_config(&runner, shots, 5 + shots);
        let kind = PolicyKind::eraser();
        check_pinned(&runner, &kind, &base, expected, &format!("{shots} shots"));
    }
}

/// Determinism property over seeds: width agreement is not a one-seed
/// accident, and thread partitioning composes with striping.
#[test]
fn stripe_determinism_property_over_seeds_and_threads() {
    #[rustfmt::skip]
    const PINNED: [Pinned; 8] = [
        (1, 67, 0, [1, 66, 1, 1597], [24, 0], [0; 5], [18, 14, 5], 14166672119476266270),
        (3, 91, 0, [3, 88, 5, 1569], [32, 0], [0; 5], [10, 11, 16], 5159873503302646594),
        (1, 60, 0, [3, 57, 2, 1603], [26, 0], [0; 5], [19, 9, 9], 12077781106682619142),
        (2, 84, 0, [1, 83, 1, 1580], [29, 0], [0; 5], [10, 15, 12], 2397819569428551156),
        (2, 85, 0, [2, 83, 1, 1579], [34, 0], [0; 5], [8, 14, 15], 15452994266432087166),
        (1, 68, 0, [1, 67, 1, 1596], [28, 0], [0; 5], [13, 12, 12], 2383972113657998732),
        (3, 73, 0, [3, 70, 3, 1589], [31, 0], [0; 5], [14, 14, 9], 12450350898311802385),
        (2, 93, 0, [5, 88, 6, 1566], [34, 0], [0; 5], [9, 17, 11], 14130137610090977573),
    ];
    let runner = MemoryRunner::new(3, NoiseParams::standard(5e-3), 5);
    for (seed, expected) in (0..8u64).zip(PINNED) {
        let base = pinned_config(&runner, 37, seed);
        let kind = PolicyKind::eraser_m();
        check_pinned(&runner, &kind, &base, expected, &format!("seed {seed}"));
    }
}

/// Adaptive (feedback-controlled) policies keep the stripe invariant: each
/// lane runs its own controller, decisions become per-lane slot masks, and
/// the merged run — telemetry included — matches at every width and thread
/// count, under a leakage storm that actually trips the escalator.
#[test]
fn adaptive_policies_are_bit_identical_across_widths_and_threads() {
    #[rustfmt::skip]
    const PINNED: [Pinned; 2] = [
        (23, 865, 0, [159, 706, 300, 5135], [69, 0], [74, 367, 333, 12722176, 65536], [4, 2, 64], 6223312152764334301),
        (23, 865, 0, [159, 706, 300, 5135], [69, 0], [74, 367, 333, 12722176, 65536], [4, 2, 64], 6223312152764334301),
    ];
    let runner = MemoryRunner::new(3, NoiseParams::standard(3e-3), 10);
    let base = RunConfig {
        profile: LeakageProfile::Burst {
            start: 3,
            len: 3,
            period: 7,
            rate: 0.08,
        },
        ..pinned_config(&runner, 70, 0x570_12F)
    };
    for (law, expected) in [ControlLawKind::Ewma, ControlLawKind::Budget]
        .into_iter()
        .zip(PINNED)
    {
        let kind = PolicyKind::adaptive(law);
        let striped = check_pinned(&runner, &kind, &base, expected, kind.label());
        assert!(
            striped.controller.escalations > 0,
            "{}: the storm must trip the controller for the test to bite",
            kind.label()
        );
    }
}

/// Structural property: striped adaptive planning stays a masked selection
/// over the code's static slot table. Lanes fed a leakage storm escalate
/// and populate their mask bits; quiet lanes stay silent — on the *same*
/// schedule, with no per-lane slot structure.
#[test]
fn adaptive_striped_planning_is_masked_static_schedule_selection() {
    let code = RotatedCode::new(3);
    let slots = SlotTable::new(&code);
    let factory = |code: &RotatedCode| PolicyKind::adaptive(ControlLawKind::Ewma).build(code);
    let mut policy = StripedPolicy::new(&factory, &code, 2);
    policy.reset_stripe(2);
    let mut slot_masks = vec![0u64; slots.len()];

    // Lane 0 sees every stabilizer fire with |L⟩ labels (a storm); lane 1
    // sees nothing. Repeat for a few rounds so the EWMA clears its dwell.
    let stormy_lane = 1u64; // bit 0
    let events: Vec<u64> = vec![stormy_lane; code.num_stabs()];
    let labels: Vec<u64> = vec![stormy_lane; code.num_stabs()];
    let oracle: Vec<u64> = vec![0; code.num_data()];
    let mut lane0_planned = 0u32;
    for round in 0..6 {
        policy.plan_round(
            &StripeRoundContext {
                round,
                events: &events,
                leaked_readouts: &labels,
                oracle_leaked_data: &oracle,
                active: 0b11,
            },
            &slots,
            &mut slot_masks,
        );
        // Every scheduled LRC is a mask bit on an existing static slot —
        // the mask vector's length never leaves the slot table's.
        assert_eq!(slot_masks.len(), slots.len());
        for (slot, &mask) in slot_masks.iter().enumerate() {
            assert_eq!(
                mask & !0b11,
                0,
                "slot {slot}: mask bits outside the active stripe"
            );
            assert_eq!(mask & 0b10, 0, "slot {slot}: the quiet lane planned an LRC");
            lane0_planned += (mask & 0b01) as u32;
        }
    }
    assert!(
        lane0_planned > 0,
        "the stormy lane must escalate into a non-empty masked schedule"
    );
    assert!(
        policy.lane_controller(0).unwrap().escalations > 0,
        "lane 0's controller must have escalated"
    );
    assert_eq!(
        policy.lane_controller(1).unwrap().escalations,
        0,
        "lane 1's controller must have stayed in base mode"
    );
}

/// The facade knob reaches the runtime and validates its range.
#[test]
fn stripe_width_knob_on_the_facade() {
    #[rustfmt::skip]
    const PINNED: Pinned = (0, 19, 0, [0, 19, 0, 1061], [14, 0], [0; 5], [30, 9, 1], 7180692585182547817);
    let build = |width: usize| {
        Experiment::builder()
            .distance(3)
            .noise(NoiseParams::standard(2e-3))
            .rounds(3)
            .policy(PolicyKind::eraser())
            .shots(40)
            .seed(9)
            .threads(1)
            .decoder(DecoderKind::Mwpm)
            .window_rounds(4)
            .fusion_threads(1)
            .predecode(true)
            .stripe_width(width)
            .build()
    };
    let single = build(1).expect("valid").run();
    let striped = build(64).expect("valid").run();
    assert_eq!(outputs(&striped), PINNED, "facade: pinned outputs");
    assert_identical(&single, &striped, "facade");
    assert!(build(65).is_err(), "width > 64 must be rejected");
    assert!(build(0).is_ok(), "0 = auto");
}
