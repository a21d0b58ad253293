//! Detector-error-model construction.
//!
//! For every explicit Pauli noise operation in a circuit (depolarizing
//! channels and X errors), each of its Pauli components maps to the set of
//! detectors it flips and whether it flips the logical observable; components
//! with identical signatures are merged with XOR-probability combination.
//! This mirrors what Stim's `detector_error_model` does for the circuits the
//! paper simulates.
//!
//! The builder walks the circuit **backwards**, maintaining for every qubit
//! the signature (detector set + observable bit) that an X or Z error at the
//! current position would produce. Gates transform signatures
//! (`H` swaps X/Z, `CNOT` accumulates control↔target), measurements inject
//! their detectors, resets clear. One pass over the circuit then prices every
//! noise site in O(signature size), independent of circuit length — the
//! forward-propagation alternative is quadratic because data-qubit errors
//! persist to the final transversal readout.
//!
//! Leakage operations carry no Pauli component and are skipped — the error
//! model (and hence the decoder) is leakage-blind by design. Every merged
//! mechanism does, however, record its fault **provenance**
//! ([`ErrorMechanism::sources`]): the op indices of the contributing noise
//! sites, which is what lets the runtime translate heralded leakage into
//! exact erased-edge sets.
//!
//! # Interning
//!
//! The model is rebuilt for every runner, sweep point and cold serve job,
//! and at d = 9, R = 90 about 425k fault components merge into 138k
//! mechanisms, so the builder is most of a runner's set-up. It therefore
//! makes a few large allocations instead of one per component:
//!
//! * Per-qubit signatures are XORed through one reused scratch buffer
//!   (sorted merge, then swap), never cloned.
//! * Mechanisms are interned: their detector lists live in one flat `u32`
//!   arena, looked up through an open-addressing id table with a
//!   std-only Fx hash (`crate::fxhash`). Probabilities sit in a flat
//!   `Vec<f64>`.
//! * Provenance is one flat `(mechanism, op)` list, bucketed by a counting
//!   sort once the pass is done.
//! * Mechanism ids are sorted by `(detectors, flips_observable)` over the
//!   arena, and each public [`ErrorMechanism`] is built once, in that
//!   order.
//!
//! **Record order is part of the output.** A mechanism's probability is
//! the XOR-combination of its components in the order the backward pass
//! meets them: descending op index, and within an op the channel's
//! component order (X, Z, Y for `Depolarize1`; the 15 operand pairs over
//! I, X, Y, Z, first operand major, for `Depolarize2`). Floating-point combination is not associative, so
//! reordering the calls would move the last bits of the probabilities, and
//! with them the decoding graph's weights.

use crate::fxhash::FxHasher;
use qec_core::{Circuit, DetectorInfo, MeasKey, Op};
use std::hash::Hasher;

/// One merged error mechanism: the detectors it flips, whether it flips the
/// logical observable, and its total probability.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorMechanism {
    /// Indices into the detector list the model was built against, sorted.
    pub detectors: Vec<usize>,
    /// Whether the mechanism flips the logical observable.
    pub flips_observable: bool,
    /// Merged probability (XOR-combined over contributing fault components).
    pub probability: f64,
    /// Provenance: the circuit op indices of every noise site that
    /// contributed a component to this mechanism, sorted and deduplicated.
    /// This is what lets a runtime translate "qubit X was leaked around op
    /// position P" into the exact set of heralded mechanisms (erasure
    /// decoding) instead of a hand-derived approximation.
    pub sources: Vec<u32>,
}

/// A circuit-level detector error model.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorErrorModel {
    /// Number of detectors in the underlying experiment.
    pub num_detectors: usize,
    /// Merged mechanisms.
    pub mechanisms: Vec<ErrorMechanism>,
}

/// The effect of a single Pauli error at a circuit position: which detectors
/// flip and whether the observable flips. Detector ids stay sorted.
#[derive(Debug, Clone, Default, PartialEq)]
struct Signature {
    dets: Vec<u32>,
    obs: bool,
}

impl Signature {
    fn clear(&mut self) {
        self.dets.clear();
        self.obs = false;
    }

    /// XORs `(dets, obs)` into `self`, merging through `scratch` and
    /// swapping buffers, so no call allocates once the buffers have grown.
    fn xor_assign(&mut self, dets: &[u32], obs: bool, scratch: &mut Vec<u32>) {
        self.obs ^= obs;
        if dets.is_empty() {
            return;
        }
        xor_into(scratch, &self.dets, dets);
        std::mem::swap(&mut self.dets, scratch);
    }
}

/// Writes the symmetric difference of two sorted detector lists to `out`
/// (sorted-merge XOR), replacing its contents.
fn xor_into(out: &mut Vec<u32>, a: &[u32], b: &[u32]) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// `sigs[dst] ^= sigs[src]` for `dst != src`.
fn xor_from(sigs: &mut [Signature], dst: usize, src: usize, scratch: &mut Vec<u32>) {
    let (d, s) = if dst < src {
        let (lo, hi) = sigs.split_at_mut(src);
        (&mut lo[dst], &hi[0])
    } else {
        let (lo, hi) = sigs.split_at_mut(dst);
        (&mut hi[0], &lo[src])
    };
    d.xor_assign(&s.dets, s.obs, scratch);
}

/// XOR-combines two independent probabilities: P(exactly one fires).
pub(crate) fn combine_probability(a: f64, b: f64) -> f64 {
    a * (1.0 - b) + b * (1.0 - a)
}

/// Empty slot of [`MechanismTable::slots`].
const EMPTY: u64 = u64::MAX;

/// Interned mechanisms in first-seen order: id `i`'s detectors are
/// `arena[offsets[i]..offsets[i + 1]]`, with its observable flag and
/// running probability in parallel columns. `slots` is an open-addressing
/// (linear probing) table, kept at most half full, whose entries pack the
/// low 32 bits of the key's hash above the id, so most mismatches are
/// rejected without touching the arena.
struct MechanismTable {
    arena: Vec<u32>,
    offsets: Vec<usize>,
    obs: Vec<bool>,
    probability: Vec<f64>,
    /// The op that last recorded a component into each id: a site's
    /// repeat components are recorded back to back, so comparing with it
    /// keeps `provenance` free of duplicates.
    last_source: Vec<u32>,
    slots: Vec<u64>,
    /// `64 - log2(slots.len())`: a key's home slot is its hash's top bits.
    shift: u32,
    /// `(mechanism id, op index)` per distinct contribution, in record
    /// order.
    provenance: Vec<(u32, u32)>,
}

impl MechanismTable {
    fn new() -> MechanismTable {
        const INITIAL_SLOTS: usize = 1 << 10;
        MechanismTable {
            arena: Vec::new(),
            offsets: vec![0],
            obs: Vec::new(),
            probability: Vec::new(),
            last_source: Vec::new(),
            slots: vec![EMPTY; INITIAL_SLOTS],
            shift: 64 - INITIAL_SLOTS.trailing_zeros(),
            provenance: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.obs.len()
    }

    fn dets(&self, id: usize) -> &[u32] {
        &self.arena[self.offsets[id]..self.offsets[id + 1]]
    }

    fn hash(dets: &[u32], obs: bool) -> u64 {
        let mut h = FxHasher::default();
        for &d in dets {
            h.add(d as u64);
        }
        // The final multiply carries every input bit into the top bits,
        // which is where the home slot comes from.
        h.add(obs as u64);
        h.finish()
    }

    /// The slot holding the key `(dets, obs)`, or the empty slot where it
    /// belongs.
    fn probe(&self, hash: u64, dets: &[u32], obs: bool) -> usize {
        let mask = self.slots.len() - 1;
        let tag = hash << 32;
        let mut i = (hash >> self.shift) as usize;
        loop {
            let entry = self.slots[i];
            if entry == EMPTY {
                return i;
            }
            if entry >> 32 == tag >> 32 {
                let id = entry as u32 as usize;
                if self.obs[id] == obs && self.dets(id) == dets {
                    return i;
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// XOR-combines component probability `p` into the mechanism
    /// `(dets, obs)`, interning it on first sight, and records op `source`
    /// as its provenance.
    fn record(&mut self, dets: &[u32], obs: bool, p: f64, source: usize) {
        if (dets.is_empty() && !obs) || p <= 0.0 {
            return;
        }
        let hash = Self::hash(dets, obs);
        let slot = self.probe(hash, dets, obs);
        let id = match self.slots[slot] {
            EMPTY => {
                let id = self.len();
                // Ids are packed into 32 bits, and an all-ones entry is EMPTY.
                assert!(id < u32::MAX as usize, "too many error mechanisms");
                self.arena.extend_from_slice(dets);
                self.offsets.push(self.arena.len());
                self.obs.push(obs);
                self.probability.push(0.0);
                self.last_source.push(u32::MAX);
                self.slots[slot] = hash << 32 | id as u64;
                if 2 * self.len() > self.slots.len() {
                    self.grow();
                }
                id
            }
            entry => entry as u32 as usize,
        };
        self.probability[id] = combine_probability(self.probability[id], p);
        let source = source as u32;
        if self.last_source[id] != source {
            self.last_source[id] = source;
            self.provenance.push((id as u32, source));
        }
    }

    /// Doubles the slot table and reinserts every id.
    fn grow(&mut self) {
        let len = self.slots.len() * 2;
        self.slots = vec![EMPTY; len];
        self.shift -= 1;
        let mask = len - 1;
        for id in 0..self.len() {
            let hash = Self::hash(self.dets(id), self.obs[id]);
            let mut i = (hash >> self.shift) as usize;
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = hash << 32 | id as u64;
        }
    }

    /// The public mechanisms, sorted by `(detectors, flips_observable)`,
    /// with provenance bucketed per mechanism.
    fn into_mechanisms(self) -> Vec<ErrorMechanism> {
        let n = self.len();
        // Counting sort of the provenance by mechanism id. The backward pass
        // recorded op indices in decreasing order, so filling from the end
        // leaves each bucket ascending.
        let mut starts = vec![0usize; n + 1];
        for &(id, _) in &self.provenance {
            starts[id as usize + 1] += 1;
        }
        for i in 0..n {
            starts[i + 1] += starts[i];
        }
        let mut cursor = starts.clone();
        let mut sources = vec![0u32; self.provenance.len()];
        for &(id, op) in self.provenance.iter().rev() {
            let slot = &mut cursor[id as usize];
            sources[*slot] = op;
            *slot += 1;
        }

        // Sort by a packed prefix of the first two detectors (each + 1, so
        // a shorter list sorts first), falling back to the full key on a
        // tie: the same order as comparing the detector lists outright.
        let prefix = |dets: &[u32]| {
            let at = |i: usize| dets.get(i).map_or(0, |&d| d as u64 + 1);
            at(0) << 32 | at(1)
        };
        let mut order: Vec<(u64, u32)> = (0..n)
            .map(|id| (prefix(self.dets(id)), id as u32))
            .collect();
        order.sort_unstable_by(|&(pa, a), &(pb, b)| {
            pa.cmp(&pb).then_with(|| {
                let (a, b) = (a as usize, b as usize);
                self.dets(a)
                    .cmp(self.dets(b))
                    .then(self.obs[a].cmp(&self.obs[b]))
            })
        });
        order
            .into_iter()
            .map(|(_, id)| {
                let id = id as usize;
                let sources = &sources[starts[id]..starts[id + 1]];
                debug_assert!(sources.windows(2).all(|w| w[0] < w[1]));
                ErrorMechanism {
                    detectors: self.dets(id).iter().map(|&d| d as usize).collect(),
                    flips_observable: self.obs[id],
                    probability: self.probability[id],
                    sources: sources.to_vec(),
                }
            })
            .collect()
    }
}

/// Builds the detector error model of `circuit` against the given detector
/// definitions and observable keys.
///
/// # Panics
///
/// Panics if a detector or observable references a measurement key that is
/// out of range for the circuit.
pub fn build_dem(
    circuit: &Circuit,
    detectors: &[DetectorInfo],
    observable: &[MeasKey],
) -> DetectorErrorModel {
    let num_keys = circuit.num_keys();
    // Detector ids are stored as `u32`, and the sort prefix needs `id + 1`
    // to fit as well.
    assert!(detectors.len() < u32::MAX as usize, "too many detectors");
    // Per-key signature as CSR: the detectors containing key `k` are
    // `key_dets[key_start[k]..key_start[k + 1]]`, ascending because
    // detectors are visited in index order.
    let mut key_start = vec![0usize; num_keys + 1];
    for det in detectors {
        for &k in &det.keys {
            assert!(k < num_keys, "detector references unmeasured key {k}");
            key_start[k + 1] += 1;
        }
    }
    for k in 0..num_keys {
        key_start[k + 1] += key_start[k];
    }
    let mut cursor = key_start.clone();
    let mut key_dets = vec![0u32; key_start[num_keys]];
    for (idx, det) in detectors.iter().enumerate() {
        for &k in &det.keys {
            key_dets[cursor[k]] = idx as u32;
            cursor[k] += 1;
        }
    }
    let mut key_obs = vec![false; num_keys];
    for &k in observable {
        assert!(k < num_keys, "observable references unmeasured key {k}");
        key_obs[k] = true;
    }

    let nq = circuit.num_qubits();
    let mut sig_x: Vec<Signature> = vec![Signature::default(); nq];
    let mut sig_z: Vec<Signature> = vec![Signature::default(); nq];
    let mut table = MechanismTable::new();
    // Reused buffers: the merge scratch, the Y components of the (up to
    // two) operands, and one two-qubit component.
    let mut scratch = Vec::new();
    let mut y_a = Vec::new();
    let mut y_b = Vec::new();
    let mut component = Vec::new();

    for (op_idx, op) in circuit.ops().iter().enumerate().rev() {
        match *op {
            Op::Measure { qubit, key } => {
                // An X error before MZ flips the outcome (and persists, which
                // the signature already accounts for via later ops).
                let dets = &key_dets[key_start[key]..key_start[key + 1]];
                sig_x[qubit].xor_assign(dets, key_obs[key], &mut scratch);
            }
            Op::Reset(q) => {
                sig_x[q].clear();
                sig_z[q].clear();
            }
            Op::H(q) => std::mem::swap(&mut sig_x[q], &mut sig_z[q]),
            Op::Cnot { control, target } | Op::CnotNoTransport { control, target } => {
                // Forward: X_c → X_c X_t, so an X on c also acts as X on t.
                xor_from(&mut sig_x, control, target, &mut scratch);
                // Forward: Z_t → Z_t Z_c.
                xor_from(&mut sig_z, target, control, &mut scratch);
            }
            Op::Depolarize1 { qubit, p } => {
                if p > 0.0 {
                    let share = p / 3.0;
                    let (x, z) = (&sig_x[qubit], &sig_z[qubit]);
                    table.record(&x.dets, x.obs, share, op_idx);
                    table.record(&z.dets, z.obs, share, op_idx);
                    xor_into(&mut y_a, &x.dets, &z.dets);
                    table.record(&y_a, x.obs ^ z.obs, share, op_idx);
                }
            }
            Op::XError { qubit, p } => {
                let x = &sig_x[qubit];
                table.record(&x.dets, x.obs, p, op_idx);
            }
            Op::Depolarize2 { a, b, p } => {
                if p > 0.0 {
                    let share = p / 15.0;
                    let (xa, za) = (&sig_x[a], &sig_z[a]);
                    let (xb, zb) = (&sig_x[b], &sig_z[b]);
                    xor_into(&mut y_a, &xa.dets, &za.dets);
                    xor_into(&mut y_b, &xb.dets, &zb.dets);
                    // Components in I, X, Y, Z order on each operand.
                    let pa: [(&[u32], bool); 4] = [
                        (&[], false),
                        (&xa.dets, xa.obs),
                        (&y_a, xa.obs ^ za.obs),
                        (&za.dets, za.obs),
                    ];
                    let pb: [(&[u32], bool); 4] = [
                        (&[], false),
                        (&xb.dets, xb.obs),
                        (&y_b, xb.obs ^ zb.obs),
                        (&zb.dets, zb.obs),
                    ];
                    for (i, &(da, oa)) in pa.iter().enumerate() {
                        for (j, &(db, ob)) in pb.iter().enumerate() {
                            if i == 0 && j == 0 {
                                continue;
                            }
                            xor_into(&mut component, da, db);
                            table.record(&component, oa ^ ob, share, op_idx);
                        }
                    }
                }
            }
            // Leakage channels and layer markers carry no Pauli component.
            Op::LeakInject { .. } | Op::Seep { .. } | Op::LeakIswap { .. } | Op::Tick => {}
        }
    }

    DetectorErrorModel {
        num_detectors: detectors.len(),
        mechanisms: table.into_mechanisms(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec_core::circuit::DetectorBasis;

    /// Hand-built repetition-code-flavoured circuit: two data qubits, one
    /// parity qubit measuring their Z-parity, repeated twice.
    fn tiny_circuit() -> (Circuit, Vec<DetectorInfo>, Vec<MeasKey>) {
        let mut c = Circuit::new(3);
        c.alloc_keys(4);
        // round 0
        c.push(Op::Depolarize1 { qubit: 0, p: 0.01 });
        c.push(Op::Depolarize1 { qubit: 1, p: 0.01 });
        c.push(Op::Cnot {
            control: 0,
            target: 2,
        });
        c.push(Op::Cnot {
            control: 1,
            target: 2,
        });
        c.push(Op::XError { qubit: 2, p: 0.02 });
        c.push(Op::Measure { qubit: 2, key: 0 });
        c.push(Op::Reset(2));
        // round 1
        c.push(Op::Cnot {
            control: 0,
            target: 2,
        });
        c.push(Op::Cnot {
            control: 1,
            target: 2,
        });
        c.push(Op::Measure { qubit: 2, key: 1 });
        c.push(Op::Reset(2));
        // final data readout
        c.push(Op::Measure { qubit: 0, key: 2 });
        c.push(Op::Measure { qubit: 1, key: 3 });
        let detectors = vec![
            DetectorInfo {
                keys: vec![0],
                basis: DetectorBasis::Z,
                stabilizer: 0,
                round: 0,
            },
            DetectorInfo {
                keys: vec![0, 1],
                basis: DetectorBasis::Z,
                stabilizer: 0,
                round: 1,
            },
            DetectorInfo {
                keys: vec![1, 2, 3],
                basis: DetectorBasis::Z,
                stabilizer: 0,
                round: 2,
            },
        ];
        let observable = vec![2];
        (c, detectors, observable)
    }

    #[test]
    fn measurement_flip_fires_two_detectors() {
        let (c, dets, obs) = tiny_circuit();
        let dem = build_dem(&c, &dets, &obs);
        // The X error before the round-0 measurement flips detectors 0 and 1
        // (outcome flip, then state flip cancelled by reset).
        let mech = dem
            .mechanisms
            .iter()
            .find(|m| m.detectors == vec![0, 1])
            .expect("measurement-flip mechanism");
        assert!(!mech.flips_observable);
        assert!(mech.probability > 0.0);
    }

    #[test]
    fn data_error_flips_detectors_and_observable() {
        let (c, dets, obs) = tiny_circuit();
        let dem = build_dem(&c, &dets, &obs);
        let mech = dem
            .mechanisms
            .iter()
            .find(|m| m.flips_observable)
            .expect("observable-flipping mechanism");
        assert!(!mech.detectors.is_empty());
        // Its probability must include both the X and Y components of the
        // round-0 depolarizing channel on qubit 0, XOR-combined.
        let p_each = 0.01 / 3.0;
        let expected = combine_probability(p_each, p_each);
        assert!((mech.probability - expected).abs() < 1e-12);
    }

    #[test]
    fn every_mechanism_fires_something() {
        let (c, dets, obs) = tiny_circuit();
        let dem = build_dem(&c, &dets, &obs);
        for mech in &dem.mechanisms {
            assert!(!mech.detectors.is_empty() || mech.flips_observable);
        }
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let (c, dets, obs) = tiny_circuit();
        let dem = build_dem(&c, &dets, &obs);
        for mech in &dem.mechanisms {
            assert!(mech.probability > 0.0 && mech.probability < 1.0);
        }
    }

    #[test]
    fn mechanisms_carry_fault_provenance() {
        let (c, dets, obs) = tiny_circuit();
        let dem = build_dem(&c, &dets, &obs);
        for mech in &dem.mechanisms {
            assert!(!mech.sources.is_empty(), "every mechanism has a source");
            assert!(mech.sources.windows(2).all(|w| w[0] < w[1]), "sorted");
            for &src in &mech.sources {
                // Sources are noise sites, never gates or measurements.
                assert!(matches!(
                    c.ops()[src as usize],
                    Op::Depolarize1 { .. } | Op::Depolarize2 { .. } | Op::XError { .. }
                ));
            }
        }
        // The round-0 measurement-flip mechanism's source is the XError in
        // front of the round-0 measurement (op index 4).
        let mech = dem
            .mechanisms
            .iter()
            .find(|m| m.detectors == vec![0, 1])
            .expect("measurement-flip mechanism");
        assert_eq!(mech.sources, vec![4]);
    }

    #[test]
    fn combine_probability_is_xor() {
        assert!((combine_probability(0.5, 0.5) - 0.5).abs() < 1e-12);
        assert!((combine_probability(0.0, 0.3) - 0.3).abs() < 1e-12);
        assert!(combine_probability(0.1, 0.1) < 0.2);
    }

    #[test]
    fn zero_probability_channels_are_skipped() {
        let mut c = Circuit::new(1);
        c.alloc_keys(1);
        c.push(Op::Depolarize1 { qubit: 0, p: 0.0 });
        c.push(Op::Measure { qubit: 0, key: 0 });
        let dets = vec![DetectorInfo {
            keys: vec![0],
            basis: DetectorBasis::Z,
            stabilizer: 0,
            round: 0,
        }];
        let dem = build_dem(&c, &dets, &[]);
        assert!(dem.mechanisms.is_empty());
    }

    #[test]
    fn signature_xor_is_symmetric_difference() {
        let a = Signature {
            dets: vec![1, 3, 5],
            obs: true,
        };
        let b = Signature {
            dets: vec![3, 4],
            obs: true,
        };
        let mut scratch = Vec::new();
        let mut c = a.clone();
        c.xor_assign(&b.dets, b.obs, &mut scratch);
        assert_eq!(c.dets, vec![1, 4, 5]);
        assert!(!c.obs);
        // XOR with self annihilates.
        let mut c = a.clone();
        c.xor_assign(&a.dets, a.obs, &mut scratch);
        assert_eq!(c, Signature::default());
    }

    /// Cross-check the backward builder against literal forward frame
    /// propagation on the tiny circuit: inject each X/Z error explicitly and
    /// verify the recorded mechanism matches.
    #[test]
    fn backward_pass_matches_forward_injection() {
        use qec_core::Pauli;
        let (c, dets, obs) = tiny_circuit();
        let dem = build_dem(&c, &dets, &obs);
        // Manually propagate an X error on qubit 0 at position 2 (right after
        // its depolarizing site): flips k0, k1 (parity readouts) and k2
        // (final data readout = observable).
        let mut flips = [false; 4];
        {
            // X on qubit 0 propagates through both CNOTs onto qubit 2 and
            // flips every measurement of qubit 0 and the copies on qubit 2.
            flips[0] ^= true; // round-0 parity
            flips[1] ^= true; // round-1 parity
            flips[2] ^= true; // final readout of qubit 0
        }
        let det_fired: Vec<usize> = dets
            .iter()
            .enumerate()
            .filter(|(_, d)| d.keys.iter().fold(false, |acc, &k| acc ^ flips[k]))
            .map(|(i, _)| i)
            .collect();
        let obs_fired = obs.iter().fold(false, |acc, &k| acc ^ flips[k]);
        assert!(
            dem.mechanisms
                .iter()
                .any(|m| m.detectors == det_fired && m.flips_observable == obs_fired),
            "missing mechanism {det_fired:?}/{obs_fired}; have {:?}",
            dem.mechanisms
                .iter()
                .map(|m| (&m.detectors, m.flips_observable))
                .collect::<Vec<_>>(),
        );
        let _ = Pauli::X;
    }
}
