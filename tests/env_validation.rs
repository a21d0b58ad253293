//! Build-time validation of the `ERASER_*` environment overrides, checked
//! identically on the `Experiment` and `Sweep` builders.
//!
//! Both builders consult an override only for a knob the caller left unset:
//! an explicit knob makes a malformed variable irrelevant, an unset one
//! turns it into `ExperimentError::EnvOverride` naming the variable.
//!
//! This file holds a single test on purpose: every integration-test file
//! runs in its own process, so the `std::env::set_var` calls below cannot
//! race another test.

use eraser_repro::eraser_core::{
    ControllerConfig, DecoderKind, Experiment, ExperimentBuilder, ExperimentError, PolicyKind,
    Sweep, SweepBuilder,
};

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
}
