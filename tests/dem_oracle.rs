//! Forward-injection oracle for `build_dem`.
//!
//! `build_dem` prices every noise site with one backward pass over the
//! circuit. This suite checks it against the literal definition instead:
//! replay the d = 3, R = 3 memory circuit through the scalar
//! `FrameSimulator` with every noise and leakage op dropped, inject each
//! Pauli component of each `Depolarize1`, `Depolarize2` and `XError` site at
//! that site with `apply_pauli`, and read the detector and observable
//! parities off the record. The injected runs share the reference run's RNG
//! seed, so the measurement-induced phase randomization cancels when the two
//! records are XORed.
//!
//! In both memory bases the suite asserts that
//!
//! * every non-empty injected signature is a mechanism of the model whose
//!   `sources` contain the injected site's op index;
//! * every mechanism, and every source it lists, is produced by some
//!   injection;
//! * each mechanism's probability equals the XOR-combination of its
//!   injected components' probabilities (to rounding; the combination
//!   order is the builder's business).

use eraser_repro::leak_sim::{Discriminator, FrameSimulator};
use eraser_repro::qec_core::{NoiseParams, Op, Pauli, Rng};
use eraser_repro::qec_decoder::build_dem;
use eraser_repro::surface_code::{MemoryBasis, MemoryExperiment, RotatedCode};
use std::collections::{BTreeSet, HashMap};

/// The Pauli components of a noise site, each with its probability: the
/// single-qubit components as `(qubit, Pauli)` lists.
fn components(op: &Op) -> Vec<(Vec<(usize, Pauli)>, f64)> {
    match *op {
        Op::Depolarize1 { qubit, p } if p > 0.0 => Pauli::ERRORS
            .iter()
            .map(|&e| (vec![(qubit, e)], p / 3.0))
            .collect(),
        Op::XError { qubit, p } if p > 0.0 => vec![(vec![(qubit, Pauli::X)], p)],
        Op::Depolarize2 { a, b, p } if p > 0.0 => {
            let mut out = Vec::new();
            for pa in Pauli::ALL {
                for pb in Pauli::ALL {
                    if !(pa.is_identity() && pb.is_identity()) {
                        out.push((vec![(a, pa), (b, pb)], p / 15.0));
                    }
                }
            }
            out
        }
        _ => Vec::new(),
    }
}

fn is_noise_or_leakage(op: &Op) -> bool {
    matches!(
        op,
        Op::Depolarize1 { .. }
            | Op::Depolarize2 { .. }
            | Op::XError { .. }
            | Op::LeakInject { .. }
            | Op::Seep { .. }
            | Op::LeakIswap { .. }
    )
}

fn check_basis(basis: MemoryBasis) {
    let exp = MemoryExperiment::new_with_basis(
        RotatedCode::new(3),
        NoiseParams::standard(1e-3),
        3,
        basis,
    );
    let circuit = exp.base_circuit();
    let detectors = exp.detectors();
    let observable = exp.observable_keys();
    let dem = build_dem(&circuit, &detectors, &observable);
    let ops = circuit.ops();

    // Records the measurement flips of the noiseless replay with the
    // given Paulis applied right after op `site`.
    let replay = |site: usize, paulis: &[(usize, Pauli)]| -> Vec<bool> {
        let mut sim = FrameSimulator::new(
            circuit.num_qubits(),
            circuit.num_keys(),
            NoiseParams::standard(1e-3),
            Discriminator::TwoLevel,
            Rng::new(7),
        );
        for (i, op) in ops.iter().enumerate() {
            if !is_noise_or_leakage(op) {
                sim.apply(op);
            }
            if i == site {
                for &(q, p) in paulis {
                    sim.apply_pauli(q, p);
                }
            }
        }
        sim.record().flips().to_vec()
    };
    let reference = replay(usize::MAX, &[]);

    let index: HashMap<(&[usize], bool), usize> = dem
        .mechanisms
        .iter()
        .enumerate()
        .map(|(mi, m)| ((m.detectors.as_slice(), m.flips_observable), mi))
        .collect();
    let mut produced: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); dem.mechanisms.len()];
    let mut probability = vec![0.0f64; dem.mechanisms.len()];
    let mut injections = 0;
    for (site, op) in ops.iter().enumerate() {
        for (paulis, p) in components(op) {
            injections += 1;
            let flips: Vec<bool> = replay(site, &paulis)
                .iter()
                .zip(&reference)
                .map(|(a, b)| a ^ b)
                .collect();
            let parity = |keys: &[usize]| keys.iter().fold(false, |acc, &k| acc ^ flips[k]);
            let fired: Vec<usize> = (0..detectors.len())
                .filter(|&di| parity(&detectors[di].keys))
                .collect();
            let obs = parity(&observable);
            if fired.is_empty() && !obs {
                continue;
            }
            let mi = *index.get(&(fired.as_slice(), obs)).unwrap_or_else(|| {
                panic!("{basis:?}: site {site} {paulis:?} fires {fired:?}/{obs}, not in the DEM")
            });
            assert!(
                dem.mechanisms[mi].sources.contains(&(site as u32)),
                "{basis:?}: mechanism {mi} lacks source {site} ({paulis:?})"
            );
            produced[mi].insert(site as u32);
            probability[mi] = probability[mi] * (1.0 - p) + p * (1.0 - probability[mi]);
        }
    }
    assert!(injections > 1000, "{basis:?}: only {injections} injections");

    for (mi, m) in dem.mechanisms.iter().enumerate() {
        let sources: BTreeSet<u32> = m.sources.iter().copied().collect();
        assert_eq!(
            produced[mi], sources,
            "{basis:?}: mechanism {mi} ({:?}/{}) sources vs injections",
            m.detectors, m.flips_observable
        );
        assert!(
            (m.probability - probability[mi]).abs() <= 1e-15,
            "{basis:?}: mechanism {mi} probability {} vs injected {}",
            m.probability,
            probability[mi]
        );
    }
}

#[test]
fn z_memory_dem_matches_forward_injection() {
    check_basis(MemoryBasis::Z);
}

#[test]
fn x_memory_dem_matches_forward_injection() {
    check_basis(MemoryBasis::X);
}
