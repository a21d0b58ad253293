//! Masked-op intermediate representation for word-parallel execution.
//!
//! A striped (64-shots-per-word) simulator cannot consume per-shot dynamic
//! circuits: rebuilding the op sequence for every shot is exactly the
//! overhead bit-packing is meant to remove. Instead, a round is emitted
//! *once* as a static sequence of [`MaskedOp`]s in which every dynamic
//! decision — "does this shot run an LRC on pair (D, P) this round?",
//! "did this LRC's data readout come back |L⟩?" — is a *condition* resolved
//! at execution time into a 64-bit lane mask. Ops whose mask is zero are
//! skipped with a single word compare.
//!
//! The conditions reference *slots*: the enumerable set of legal LRC
//! assignments (adjacent (data, stabilizer) pairs) of a code, in a canonical
//! order. A policy layer produces one mask word per slot per round; the
//! static schedule's conditions are resolved against those words. Restricted
//! to any single lane, the executed op sequence is exactly the dynamic
//! circuit `surface_code::RoundBuilder` builds for that shot's LRC plan —
//! this is what keeps a striped run bit-identical to a scalar
//! `FrameSimulator` run of that circuit.

use crate::circuit::Op;

/// Execution condition of one [`MaskedOp`], resolved to a lane mask at
/// runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpCond {
    /// Every active lane executes the op (the static round body).
    Always,
    /// Lanes whose current-round plan schedules LRC slot `slot`.
    Slot(usize),
    /// Lanes in which *no* slot borrowing stabilizer `stab` is scheduled
    /// this round (the stabilizer reads out from its own parity qubit).
    StabFree(usize),
    /// Lanes where slot `slot` is scheduled *and* the LRC's data readout was
    /// classified |L⟩ — the ERASER+M intra-round branch (§4.6.2) that
    /// squashes the swap-back and resets the parity qubit instead.
    SlotLabelLeaked(usize),
    /// Lanes where slot `slot` is scheduled and the data readout was *not*
    /// |L⟩ (the normal swap-back path).
    SlotLabelClean(usize),
}

/// One operation of a static round schedule, tagged with the condition
/// selecting which lanes execute it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaskedOp {
    /// The operation. `Measure` keys are emitted relative to round 0; the
    /// executor adds the round's key offset.
    pub op: Op,
    /// Which lanes execute it.
    pub cond: OpCond,
}

impl MaskedOp {
    /// An op every active lane executes.
    pub fn always(op: Op) -> MaskedOp {
        MaskedOp {
            op,
            cond: OpCond::Always,
        }
    }

    /// An op gated on a slot being scheduled.
    pub fn slot(op: Op, slot: usize) -> MaskedOp {
        MaskedOp {
            op,
            cond: OpCond::Slot(slot),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_tag_conditions() {
        let m = MaskedOp::always(Op::Tick);
        assert_eq!(m.cond, OpCond::Always);
        let s = MaskedOp::slot(Op::H(3), 7);
        assert_eq!(s.cond, OpCond::Slot(7));
        assert_eq!(s.op, Op::H(3));
    }
}
