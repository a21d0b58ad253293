//! Golden digests of the detector error model and its decoding graph.
//!
//! Each shape pins an FNV-1a digest of
//!
//! * the DEM: every mechanism's detectors, observable flag, probability bits
//!   and fault provenance (`sources`), in model order;
//! * the decoding graph of the memory basis: every edge's endpoints,
//!   probability bits, weight bits and observable parity, plus every
//!   mechanism's `erasure_edges_for_mechanism` slice.
//!
//! The values were captured from the builder that merged mechanisms in a
//! `HashMap` keyed by `(Vec<u32>, bool)`, so they do not come from the code
//! under test. Any change to the order in which fault components are
//! combined moves a probability's last bit and fails here.

use eraser_repro::qec_core::circuit::DetectorBasis;
use eraser_repro::qec_core::NoiseParams;
use eraser_repro::qec_decoder::{build_dem, DecodingGraph, DetectorErrorModel};
use eraser_repro::surface_code::{MemoryBasis, MemoryExperiment, RotatedCode};

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

fn dem_words(dem: &DetectorErrorModel) -> Vec<u64> {
    let mut w = vec![dem.num_detectors as u64, dem.mechanisms.len() as u64];
    for m in &dem.mechanisms {
        w.push(m.detectors.len() as u64);
        w.extend(m.detectors.iter().map(|&d| d as u64));
        w.push(m.flips_observable as u64);
        w.push(m.probability.to_bits());
        w.push(m.sources.len() as u64);
        w.extend(m.sources.iter().map(|&s| s as u64));
    }
    w
}

fn graph_words(graph: &DecodingGraph, mechanisms: usize) -> Vec<u64> {
    let mut w = vec![graph.num_nodes() as u64, graph.edges().len() as u64];
    for e in graph.edges() {
        w.extend([
            e.a as u64,
            e.b as u64,
            e.probability.to_bits(),
            e.weight.to_bits(),
            e.flips_observable as u64,
        ]);
    }
    for mi in 0..mechanisms {
        let edges = graph.erasure_edges_for_mechanism(mi);
        w.push(edges.len() as u64);
        w.extend(edges.iter().map(|&e| e as u64));
    }
    w
}

/// `(d, rounds, basis, noise)` of one pinned shape.
type Shape = (usize, usize, MemoryBasis, NoiseParams);

/// Builds the shape's DEM and memory-basis graph and returns
/// `(mechanisms, edges, dem digest, graph digest)`.
fn digests((d, rounds, basis, noise): Shape) -> (usize, usize, u64, u64) {
    let exp = MemoryExperiment::new_with_basis(RotatedCode::new(d), noise, rounds, basis);
    let detectors = exp.detectors();
    let dem = build_dem(&exp.base_circuit(), &detectors, &exp.observable_keys());
    let graph_basis = match basis {
        MemoryBasis::Z => DetectorBasis::Z,
        MemoryBasis::X => DetectorBasis::X,
    };
    let graph = DecodingGraph::from_dem(&dem, &detectors, graph_basis);
    (
        dem.mechanisms.len(),
        graph.edges().len(),
        fnv1a(dem_words(&dem)),
        fnv1a(graph_words(&graph, dem.mechanisms.len())),
    )
}

fn check(shape: Shape, expected: (usize, usize, u64, u64)) {
    let actual = digests(shape);
    assert_eq!(
        actual, expected,
        "d={} R={} {:?}: (mechanisms, edges, dem digest, graph digest) = \
         ({}, {}, {:#018x}, {:#018x})",
        shape.0, shape.1, shape.2, actual.0, actual.1, actual.2, actual.3
    );
}

#[test]
fn d3_r3_standard_is_pinned() {
    check(
        (3, 3, MemoryBasis::Z, NoiseParams::standard(1e-3)),
        (219, 55, 0x0f27_1934_36d7_d946, 0x40c8_a126_8efd_9682),
    );
}

#[test]
fn d5_r5_standard_is_pinned() {
    check(
        (5, 5, MemoryBasis::Z, NoiseParams::standard(2e-3)),
        (1677, 301, 0xee7a_8648_0e1b_39e6, 0xb281_28e8_d8d9_3b62),
    );
}

#[test]
fn d9_r90_standard_is_pinned() {
    check(
        (9, 90, MemoryBasis::Z, NoiseParams::standard(1e-3)),
        (138417, 18793, 0xba30_90e7_d885_567d, 0x8574_cc35_7496_ea0c),
    );
}

#[test]
fn x_basis_is_pinned() {
    check(
        (5, 4, MemoryBasis::X, NoiseParams::standard(1e-3)),
        (1271, 245, 0x037b_7976_2e96_aba2, 0xbc7a_d4e0_c61a_c2ae),
    );
}

#[test]
fn exchange_transport_is_pinned() {
    check(
        (5, 5, MemoryBasis::Z, NoiseParams::exchange_transport(1e-3)),
        (1677, 301, 0x47eb_b2e3_2fd8_9fa6, 0x58dc_8253_ad7e_d881),
    );
}
