//! Golden outputs of the leakage-aware decode path.
//!
//! The other suites check the sparse decoder's weights against dense MWPM
//! and its flips only at small distance. These tests pin exact outputs at
//! d = 9, so a change to the graph storage, the sparse decoder's erasure
//! handling or the striped simulator's draw engine that moves a single
//! flip, weight, correction edge or count fails here:
//!
//! * [`erasure_syndromes_decode_to_pinned_corrections`] decodes a seeded set
//!   of erasure-bearing syndromes on the d = 9, R = 18 graph through
//!   `SparseMwpmDecoder::decode_with_correction` and pins each one's flip,
//!   scaled weight and correction-edge list.
//! * [`eraser_m_leakage_aware_run_is_pinned`] pins the exact counts of a
//!   seeded 8-shot ERASER+M run with leakage-aware decoding: a ragged
//!   stripe (8 of 64 lanes live) decoded by the sparse blossom with
//!   heralded erasures.
//!
//! Every knob of the run is set explicitly, so no `ERASER_*` variable of the
//! CI test matrix changes what is pinned.

use eraser_repro::eraser_core::{DecoderKind, Experiment, LrcProtocol, PolicyKind};
use eraser_repro::qec_core::circuit::DetectorBasis;
use eraser_repro::qec_core::{NoiseParams, Rng};
use eraser_repro::qec_decoder::{
    build_dem, scale_weight, DecodingGraph, SparseMwpmDecoder, Syndrome, SyndromeDecoder,
};
use eraser_repro::surface_code::{MemoryExperiment, RotatedCode};

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

/// Seeded erasure-bearing syndromes shaped like the runtime's: each XORs
/// 10–29 random mechanism signatures into the defect set, and about half of
/// the chosen mechanisms are heralded, contributing their provenance edges
/// ([`DecodingGraph::erasure_edges_for_mechanism`]) to the erasure set.
/// Eight more heralded mechanisms that did not fire stand in for false
/// flags.
fn erasure_syndromes(seed: u64, n: usize) -> (DecodingGraph, Vec<Syndrome>) {
    let exp = MemoryExperiment::new(RotatedCode::new(9), NoiseParams::standard(1e-3), 18);
    let detectors = exp.detectors();
    let dem = build_dem(&exp.base_circuit(), &detectors, &exp.observable_keys());
    let graph = DecodingGraph::from_dem(&dem, &detectors, DetectorBasis::Z);
    let mut rng = Rng::new(seed);
    let pick = |rng: &mut Rng| rng.below(dem.mechanisms.len() as u64) as usize;
    let mut syndromes = Vec::with_capacity(n);
    for _ in 0..n {
        let mut events = vec![false; graph.num_nodes()];
        let mut erasures = Vec::new();
        for _ in 0..(10 + rng.below(20)) {
            let mi = pick(&mut rng);
            for &det in &dem.mechanisms[mi].detectors {
                if let Some(node) = graph.node_of_detector(det) {
                    events[node] ^= true;
                }
            }
            if rng.bit() {
                erasures.extend_from_slice(graph.erasure_edges_for_mechanism(mi));
            }
        }
        for _ in 0..8 {
            let mi = pick(&mut rng);
            erasures.extend_from_slice(graph.erasure_edges_for_mechanism(mi));
        }
        erasures.sort_unstable();
        erasures.dedup();
        let defects = (0..graph.num_nodes()).filter(|&v| events[v]).collect();
        syndromes.push(Syndrome::with_erasures(defects, erasures));
    }
    (graph, syndromes)
}

/// One pinned decode: `(defects, erasures, flip, scaled weight, correction
/// edges)`. The first two pin the generated input.
type Golden = (usize, usize, bool, i64, &'static [usize]);

/// Pinned from the adjacency-list implementation that preceded the CSR
/// arcs, so the values do not come from the code under test.
#[rustfmt::skip]
const GOLDEN_SYNDROMES: [Golden; 12] = [
    (18, 16, true, 150726, &[1051, 2911, 124, 745, 2415, 2644, 2767, 3343, 3412, 3495]),
    (25, 14, false, 363530, &[1444, 127, 306, 393, 477, 1491, 1708, 1785, 1878, 2690, 3081, 3460, 3486]),
    (27, 9, false, 874347, &[1452, 1253, 3125, 1259, 3345, 178, 292, 1025, 1193, 1227, 1936, 2245, 3271, 3411, 3501, 2282]),
    (35, 17, true, 634116, &[2293, 3732, 3535, 108, 304, 567, 1113, 1266, 1474, 2204, 2508, 2682, 2779, 2920, 2924, 3087, 3389, 3603, 3667]),
    (28, 18, false, 382834, &[3324, 623, 275, 947, 1262, 1830, 1940, 2200, 2325, 2374, 2563, 2615, 2842, 3023, 3157]),
    (24, 16, false, 260440, &[1479, 2709, 1040, 1470, 1570, 1611, 2234, 2342, 2380, 2578, 2586, 2720, 3096]),
    (35, 17, false, 539684, &[1860, 131, 1174, 1496, 1637, 1694, 1797, 1872, 1947, 1976, 2027, 2096, 2330, 2831, 2950, 3763, 3103, 3523]),
    (33, 21, true, 456391, &[3345, 2068, 3321, 3324, 306, 764, 1021, 998, 1062, 1956, 1970, 2338, 2399, 2502, 2788, 2950, 3070, 3226, 3346, 3604]),
    (18, 13, false, 192923, &[118, 348, 401, 566, 2118, 2395, 2659, 2710, 3548]),
    (34, 17, false, 547765, &[239, 357, 675, 736, 835, 1172, 1198, 1400, 1416, 1653, 1752, 1769, 2149, 2520, 2611, 2930, 2279]),
    (45, 23, true, 591503, &[427, 127, 503, 628, 899, 719, 1053, 874, 893, 1246, 1369, 1506, 1566, 1588, 1583, 1756, 1992, 2114, 2580, 2586, 2856, 2931, 2949, 3230, 3491, 3509]),
    (21, 12, true, 400180, &[3345, 10, 107, 193, 597, 964, 2001, 2011, 2353, 3007, 3672]),
];

#[test]
fn erasure_syndromes_decode_to_pinned_corrections() {
    let (graph, syndromes) = erasure_syndromes(20231017, 12);
    let mut decoder = SparseMwpmDecoder::new(&graph);
    let mut correction = Vec::new();
    let mut actual = Vec::new();
    for syndrome in &syndromes {
        assert!(
            !syndrome.erasures.is_empty(),
            "every syndrome carries erasures"
        );
        let outcome = decoder.decode_with_correction(syndrome, &mut correction);
        let xor = correction
            .iter()
            .fold(false, |acc, &ei| acc ^ graph.edges()[ei].flips_observable);
        assert_eq!(
            xor, outcome.flip,
            "correction parity disagrees with the flip"
        );
        actual.push((
            syndrome.defects.len(),
            syndrome.erasures.len(),
            outcome.flip,
            scale_weight(outcome.weight),
            correction.clone(),
        ));
    }
    assert_eq!(actual.len(), GOLDEN_SYNDROMES.len());
    for (i, (got, want)) in actual.iter().zip(&GOLDEN_SYNDROMES).enumerate() {
        assert_eq!(
            (got.0, got.1, got.2, got.3, got.4.as_slice()),
            *want,
            "syndrome {i} decoded differently from the pinned output"
        );
    }
}

/// Exact counts of one run at p = 8e-3, where 3 of the 8 shots fail, so the
/// pinned logical-error count depends on the decoder's flips: `(logical errors, LRCs, erasures, speculation
/// [TP, FP, FN, TN], predecode tier hits, digest of the per-round LPR bits)`.
type RunGolden = (u64, u64, u64, [u64; 4], [u64; 3], u64);

const GOLDEN_RUN: RunGolden = (
    3,
    1427,
    1343,
    [60, 1367, 29, 10208],
    [0, 0, 8],
    13054074699924340388,
);

#[test]
fn eraser_m_leakage_aware_run_is_pinned() {
    let exp = Experiment::builder()
        .distance(9)
        .noise(NoiseParams::standard(8e-3))
        .rounds(18)
        .policy(PolicyKind::eraser_m())
        .shots(8)
        .seed(7)
        .threads(1)
        .stripe_width(64)
        .decoder(DecoderKind::SparseMwpm)
        .protocol(LrcProtocol::Swap)
        .leakage_aware_decoding(true)
        .erasure_detection(0.0, 0.0)
        // A window longer than the shot selects monolithic decoding even
        // under an `ERASER_WINDOW` override.
        .window_rounds(19)
        .fusion_threads(1)
        .predecode(true)
        .build()
        .expect("valid experiment");
    let r = exp.run();
    let s = r.speculation;
    let actual: RunGolden = (
        r.logical_errors,
        r.total_lrcs,
        r.total_erasures,
        [
            s.true_positive,
            s.false_positive,
            s.false_negative,
            s.true_negative,
        ],
        r.predecode.hits,
        fnv1a(r.lpr_total.iter().map(|x| x.to_bits())),
    );
    assert_eq!(actual, GOLDEN_RUN, "run counts differ from the pinned ones");
}
