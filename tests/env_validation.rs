//! Build-time resolution of the `ERASER_*` environment overrides, checked
//! identically on the `Experiment` and `Sweep` builders.
//!
//! Both builders consult an override only for a knob the caller left unset:
//! an explicit knob makes a malformed variable irrelevant, an unset one
//! turns it into `ExperimentError::EnvOverride` naming the variable. The
//! overrides are applied once, at build: a variable set, changed or removed
//! afterwards changes nothing about a built experiment or sweep.
//!
//! This file holds a single test on purpose: every integration-test file
//! runs in its own process, so the `std::env::set_var` calls below cannot
//! race another test.

use eraser_repro::eraser_core::{
    ControllerConfig, DecoderKind, Experiment, ExperimentBuilder, ExperimentError, MemoryRunResult,
    PolicyKind, Sweep, SweepBuilder,
};

/// Every variable `RunConfig::with_env` reads.
const VARS: [&str; 6] = [
    "ERASER_THREADS",
    "ERASER_FUSION",
    "ERASER_DECODER",
    "ERASER_WINDOW",
    "ERASER_PREDECODE",
    "ERASER_CONTROL",
];

type ExperimentKnob = fn(ExperimentBuilder) -> ExperimentBuilder;
type SweepKnob = fn(SweepBuilder) -> SweepBuilder;

fn experiment() -> ExperimentBuilder {
    Experiment::builder().distance(3).rounds(2).shots(4)
}

fn sweep() -> SweepBuilder {
    Sweep::builder()
        .distances([3])
        .error_rates([1e-3])
        .policy(PolicyKind::NoLrc)
        .rounds(2)
        .shots(4)
}

#[test]
fn explicit_knobs_shield_both_builders_from_malformed_overrides() {
    // (variable, malformed value, the knob that makes it irrelevant on each
    // builder).
    let cases: [(&str, &str, ExperimentKnob, SweepKnob); 6] = [
        (
            "ERASER_DECODER",
            "warp",
            |b| b.decoder(DecoderKind::Mwpm),
            |b| b.decoder(DecoderKind::Mwpm),
        ),
        (
            "ERASER_PREDECODE",
            "maybe",
            |b| b.predecode(true),
            |b| b.predecode(true),
        ),
        (
            "ERASER_CONTROL",
            "pid",
            |b| b.controller(ControllerConfig::ewma()),
            |b| b.controller(ControllerConfig::ewma()),
        ),
        (
            "ERASER_FUSION",
            "four",
            |b| b.fusion_threads(1),
            |b| b.fusion_threads(1),
        ),
        (
            "ERASER_WINDOW",
            "8:9",
            |b| b.window_rounds(4),
            |b| b.window_rounds(4),
        ),
        ("ERASER_THREADS", "0", |b| b.threads(1), |b| b.threads(1)),
    ];
    for (var, bad, experiment_knob, sweep_knob) in cases {
        // Restore whatever a CI leg set once the case is done.
        let saved = std::env::var(var).ok();
        std::env::set_var(var, bad);

        assert!(
            experiment_knob(experiment()).build().is_ok(),
            "Experiment with the knob set must ignore {var}={bad:?}"
        );
        assert!(
            sweep_knob(sweep()).build().is_ok(),
            "Sweep with the knob set must ignore {var}={bad:?}"
        );

        let names_var = |err: ExperimentError| match err {
            ExperimentError::EnvOverride(e) => e.var == var,
            _ => false,
        };
        assert!(
            experiment().build().err().is_some_and(names_var),
            "Experiment with the knob unset must reject {var}={bad:?}"
        );
        assert!(
            sweep().build().err().is_some_and(names_var),
            "Sweep with the knob unset must reject {var}={bad:?}"
        );

        match saved {
            Some(value) => std::env::set_var(var, value),
            None => std::env::remove_var(var),
        }
    }
    // Build-time resolution. Start from an empty environment and put back
    // whatever a CI leg set once done.
    let saved: Vec<Option<String>> = VARS.iter().map(|var| std::env::var(var).ok()).collect();
    for var in VARS {
        std::env::remove_var(var);
    }

    // A variable set after build is never read: runs neither panic on a
    // malformed value nor change.
    let exp = experiment()
        .policy(PolicyKind::eraser())
        .shots(64)
        .build()
        .unwrap();
    let grid = sweep()
        .policy(PolicyKind::eraser())
        .shots(64)
        .build()
        .unwrap();
    let (exp_clean, grid_clean) = (exp.run(), grid.run());
    for (var, bad) in [
        ("ERASER_THREADS", "fuor"),
        ("ERASER_FUSION", "0"),
        ("ERASER_DECODER", "warp"),
        ("ERASER_WINDOW", "8:9"),
        ("ERASER_PREDECODE", "maybe"),
        ("ERASER_CONTROL", "pid"),
    ] {
        std::env::set_var(var, bad);
    }
    let (exp_dirty, grid_dirty) = (exp.run(), grid.run());
    let summary = |r: &MemoryRunResult| (r.logical_errors, r.total_lrcs, r.decoder.clone());
    assert_eq!(summary(&exp_dirty), summary(&exp_clean), "Experiment run");
    assert_eq!(grid_dirty.len(), grid_clean.len());
    for (dirty, clean) in grid_dirty.iter().zip(&grid_clean) {
        assert_eq!(summary(&dirty.result), summary(&clean.result), "Sweep run");
    }
    for var in VARS {
        std::env::remove_var(var);
    }

    // A variable removed after build still applies: the build filled the
    // knob in.
    std::env::set_var("ERASER_DECODER", "union-find");
    let exp = experiment().build().unwrap();
    std::env::remove_var("ERASER_DECODER");
    assert_eq!(exp.config().decoder, DecoderKind::UnionFind);
    assert_eq!(exp.run().decoder, "union-find");

    for (var, value) in VARS.iter().zip(saved) {
        match value {
            Some(value) => std::env::set_var(var, value),
            None => std::env::remove_var(var),
        }
    }
}
