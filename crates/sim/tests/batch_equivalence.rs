//! Bit-identity of the striped simulator: every lane of a
//! [`BatchFrameSimulator`] stripe must reproduce a scalar [`FrameSimulator`]
//! run with the same per-shot RNG stream, op for op — including masked
//! execution, where a lane simply skips the ops whose mask excludes it.

use leak_sim::{BatchFrameSimulator, Discriminator, FrameSimulator, STRIPE_WIDTH};
use qec_core::{NoiseParams, Op, Rng, TransportModel};

const QUBITS: usize = 7;
const KEYS: usize = 24;

/// A random op over `QUBITS` qubits with noise probabilities high enough to
/// exercise every branch (leakage, transport, seepage, readout labels).
fn random_op(rng: &mut Rng, next_key: &mut usize) -> Op {
    let q = rng.below(QUBITS as u64) as usize;
    let mut q2 = rng.below(QUBITS as u64) as usize;
    if q2 == q {
        q2 = (q + 1) % QUBITS;
    }
    let p = match rng.below(4) {
        0 => 0.0,
        1 => 0.05,
        2 => 0.3,
        _ => 1.0,
    };
    match rng.below(12) {
        0 => Op::H(q),
        1 => Op::Cnot {
            control: q,
            target: q2,
        },
        2 => Op::CnotNoTransport {
            control: q,
            target: q2,
        },
        3 => {
            let key = *next_key % KEYS;
            *next_key += 1;
            Op::Measure { qubit: q, key }
        }
        4 => Op::Reset(q),
        5 => Op::Depolarize1 { qubit: q, p },
        6 => Op::Depolarize2 { a: q, b: q2, p },
        7 => Op::XError { qubit: q, p },
        8 => Op::LeakInject { qubit: q, p },
        9 => Op::Seep { qubit: q, p },
        10 => Op::LeakIswap {
            data: q,
            parity: q2,
        },
        _ => Op::Tick,
    }
}

/// Runs `ops` (with per-op lane masks) through one stripe and through one
/// scalar simulator per lane, asserting identical records and leak state.
fn assert_equivalent(
    noise: NoiseParams,
    discriminator: Discriminator,
    lanes: usize,
    ops: &[(Op, u64)],
    seed: u64,
) {
    let rngs: Vec<Rng> = (0..lanes as u64)
        .map(|l| Rng::new(seed ^ (l << 32)))
        .collect();
    let mut batch = BatchFrameSimulator::new(QUBITS, KEYS, noise, discriminator);
    batch.begin_stripe(&rngs);
    for &(ref op, mask) in ops {
        batch.apply_masked(op, mask);
    }

    for (lane, lane_rng) in rngs.iter().enumerate() {
        let mut scalar = FrameSimulator::new(QUBITS, KEYS, noise, discriminator, lane_rng.clone());
        for &(ref op, mask) in ops {
            if mask >> lane & 1 != 0 {
                scalar.apply(op);
            }
        }
        for key in 0..KEYS {
            assert_eq!(
                batch.record().flip(key, lane),
                scalar.record().flip(key),
                "flip mismatch: lane {lane} key {key} seed {seed}"
            );
            assert_eq!(
                batch.record().is_leaked_label(key, lane),
                scalar.record().label(key).is_leaked(),
                "label mismatch: lane {lane} key {key} seed {seed}"
            );
        }
        for q in 0..QUBITS {
            assert_eq!(
                batch.is_leaked(q, lane),
                scalar.is_leaked(q),
                "leak mismatch: lane {lane} qubit {q} seed {seed}"
            );
        }
    }
}

#[test]
fn full_stripe_matches_scalar_bit_for_bit() {
    for (case, noise) in [
        NoiseParams::standard(5e-2),
        NoiseParams::exchange_transport(5e-2),
        NoiseParams::without_leakage(5e-2),
        {
            let mut n = NoiseParams::standard(5e-2);
            n.p_transport = 1.0;
            n
        },
    ]
    .into_iter()
    .enumerate()
    {
        for discriminator in [Discriminator::TwoLevel, Discriminator::MultiLevel] {
            let mut gen = Rng::new(9000 + case as u64);
            let mut next_key = 0;
            let ops: Vec<(Op, u64)> = (0..600)
                .map(|_| (random_op(&mut gen, &mut next_key), !0u64))
                .collect();
            assert_equivalent(noise, discriminator, STRIPE_WIDTH, &ops, 77 + case as u64);
        }
    }
}

#[test]
fn masked_execution_matches_per_lane_subsequences() {
    // Random per-op masks: each lane executes its own subsequence of the
    // schedule, exactly what the masked-op static rounds rely on.
    let noise = NoiseParams::standard(5e-2);
    for discriminator in [Discriminator::TwoLevel, Discriminator::MultiLevel] {
        let mut gen = Rng::new(4242);
        let mut next_key = 0;
        let ops: Vec<(Op, u64)> = (0..600)
            .map(|_| {
                let op = random_op(&mut gen, &mut next_key);
                // Mix of broad and sparse masks.
                let mask = match gen.below(3) {
                    0 => !0u64,
                    1 => gen.next_u64(),
                    _ => gen.next_u64() & gen.next_u64() & gen.next_u64(),
                };
                (op, mask)
            })
            .collect();
        assert_equivalent(noise, discriminator, STRIPE_WIDTH, &ops, 1234);
    }
}

#[test]
fn ragged_stripe_matches_scalar() {
    // Ragged final stripes of shot counts that are not a multiple of 64.
    // The bulk draw passes stop at the 8-lane block holding the highest
    // live lane, so the lane counts sit on both sides of block edges: 1
    // and 7 (one partial block), 8 (one full block), 9 and 13 (a second,
    // partial block) and 63 (one lane short of a full stripe).
    let noise = NoiseParams::standard(5e-2);
    let mut gen = Rng::new(31);
    let mut next_key = 0;
    let random_masks: Vec<(Op, u64)> = (0..400)
        .map(|_| (random_op(&mut gen, &mut next_key), gen.next_u64()))
        .collect();
    // Broad masks keep whole ragged stripes on the bulk path.
    let broad_masks: Vec<(Op, u64)> = (0..400)
        .map(|_| {
            let op = random_op(&mut gen, &mut next_key);
            let mask = if gen.bit() { !0u64 } else { gen.next_u64() };
            (op, mask)
        })
        .collect();
    for lanes in [1, 7, 8, 9, 13, 63] {
        assert_equivalent(noise, Discriminator::MultiLevel, lanes, &random_masks, 5150);
        assert_equivalent(noise, Discriminator::TwoLevel, lanes, &broad_masks, 5151);
    }
}

#[test]
fn transport_models_diverge_but_each_matches_scalar() {
    // Conservative and exchange transport produce different physics; the
    // equivalence harness must hold for both (regression guard for the
    // per-lane transport branch).
    let mut conservative = NoiseParams::standard(5e-2);
    conservative.p_transport = 1.0;
    let mut exchange = NoiseParams::exchange_transport(5e-2);
    exchange.p_transport = 1.0;
    assert_eq!(conservative.transport, TransportModel::Conservative);
    assert_eq!(exchange.transport, TransportModel::Exchange);
    for noise in [conservative, exchange] {
        let mut gen = Rng::new(8);
        let mut next_key = 0;
        let ops: Vec<(Op, u64)> = (0..300)
            .map(|_| (random_op(&mut gen, &mut next_key), !0u64))
            .collect();
        assert_equivalent(noise, Discriminator::TwoLevel, 32, &ops, 99);
    }
}
