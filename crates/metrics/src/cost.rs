use crate::{OpCounters, OpKind};

/// Estimated cycle cost split into control-plane and data-plane work.
///
/// Mirrors the four panels of Figure 8 in the paper: recoding/decoding ×
/// control/data. The data cost is additionally reported per payload byte
/// (`cycles per byte`, the unit of Figures 8c and 8d).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    /// Estimated cycles spent on control structures.
    pub control_cycles: f64,
    /// Estimated cycles spent on payload data.
    pub data_cycles: f64,
    /// Payload size `m` in bytes used for the per-byte normalisation.
    pub payload_bytes: usize,
}

impl CostBreakdown {
    /// Total estimated cycles (control + data).
    #[must_use]
    pub fn total_cycles(&self) -> f64 {
        self.control_cycles + self.data_cycles
    }

    /// Data-plane cycles per payload byte (Figures 8c/8d). Zero when `m = 0`.
    #[must_use]
    pub fn data_cycles_per_byte(&self) -> f64 {
        if self.payload_bytes == 0 {
            0.0
        } else {
            self.data_cycles / self.payload_bytes as f64
        }
    }
}

/// Translates [`OpCounters`] into estimated CPU cycles.
///
/// The weights are deliberately simple and documented; they model a scalar
/// 64-bit core XOR-ing one word per cycle plus fixed per-operation overheads.
/// Absolute values are not the point — the reproduction compares *ratios and
/// trends* against the paper (LTNC decode ≪ RLNC decode, the gap widening with
/// `k`, recode-control higher for LTNC, recode-data lower for LTNC).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Code length `k` (bits per code vector).
    pub code_length: usize,
    /// Payload size `m` in bytes.
    pub payload_bytes: usize,
    /// Cycles to XOR one 8-byte word of payload.
    pub cycles_per_payload_word: f64,
    /// Cycles to XOR one 64-bit word of a code vector / matrix row.
    pub cycles_per_vector_word: f64,
    /// Fixed overhead per Tanner-graph edge update.
    pub cycles_per_tanner_edge: f64,
    /// Fixed overhead per auxiliary index update.
    pub cycles_per_index_update: f64,
    /// Fixed overhead per degree draw.
    pub cycles_per_degree_draw: f64,
    /// Fixed overhead per build-candidate examination (includes the
    /// code-vector popcount performed to evaluate the collision condition).
    pub cycles_per_build_candidate: f64,
    /// Fixed overhead per refinement step.
    pub cycles_per_refine_step: f64,
    /// Fixed overhead per redundancy check.
    pub cycles_per_redundancy_check: f64,
}

impl CostModel {
    /// A cost model for the given code length and payload size with default
    /// per-operation weights.
    #[must_use]
    pub fn new(code_length: usize, payload_bytes: usize) -> Self {
        CostModel {
            code_length,
            payload_bytes,
            // One 64-bit XOR + load/store per 8 payload bytes ≈ 3 cycles.
            cycles_per_payload_word: 3.0,
            // Same word cost for bitmap rows.
            cycles_per_vector_word: 3.0,
            // Pointer chasing + bookkeeping per Tanner edge.
            cycles_per_tanner_edge: 20.0,
            cycles_per_index_update: 15.0,
            cycles_per_degree_draw: 50.0,
            cycles_per_build_candidate: 30.0,
            cycles_per_refine_step: 40.0,
            cycles_per_redundancy_check: 25.0,
        }
    }

    /// Number of 64-bit words in one code vector.
    #[must_use]
    fn vector_words(&self) -> f64 {
        (self.code_length as f64 / 64.0).ceil()
    }

    /// Number of 8-byte words in one payload.
    #[must_use]
    fn payload_words(&self) -> f64 {
        (self.payload_bytes as f64 / 8.0).ceil()
    }

    /// Estimated cycles for a single operation of the given kind.
    #[must_use]
    pub fn cycles_for(&self, kind: OpKind) -> f64 {
        match kind {
            OpKind::PayloadXor => self.cycles_per_payload_word * self.payload_words(),
            OpKind::VectorXor | OpKind::RowReduction => {
                self.cycles_per_vector_word * self.vector_words()
            }
            OpKind::TannerEdgeUpdate => self.cycles_per_tanner_edge,
            OpKind::IndexUpdate => self.cycles_per_index_update,
            OpKind::DegreeDraw => self.cycles_per_degree_draw,
            OpKind::BuildCandidate => {
                // Each candidate evaluation XORs/popcounts one code vector.
                self.cycles_per_build_candidate + self.cycles_per_vector_word * self.vector_words()
            }
            OpKind::RefineStep => self.cycles_per_refine_step,
            OpKind::RedundancyCheck => self.cycles_per_redundancy_check,
        }
    }

    /// Folds a counter set into a control/data cycle estimate.
    #[must_use]
    pub fn evaluate(&self, counters: &OpCounters) -> CostBreakdown {
        let mut control = 0.0;
        let mut data = 0.0;
        for kind in OpKind::ALL {
            let count = counters.get(kind) as f64;
            if count == 0.0 {
                continue;
            }
            let cycles = count * self.cycles_for(kind);
            if kind.is_data() {
                data += cycles;
            } else {
                control += cycles;
            }
        }
        CostBreakdown {
            control_cycles: control,
            data_cycles: data,
            payload_bytes: self.payload_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_counters_cost_nothing() {
        let model = CostModel::new(2048, 1024);
        let b = model.evaluate(&OpCounters::new());
        assert_eq!(b.total_cycles(), 0.0);
        assert_eq!(b.data_cycles_per_byte(), 0.0);
    }

    #[test]
    fn payload_xor_is_data_cost() {
        let model = CostModel::new(1024, 256);
        let mut c = OpCounters::new();
        c.add(OpKind::PayloadXor, 10);
        let b = model.evaluate(&c);
        assert_eq!(b.control_cycles, 0.0);
        assert!(b.data_cycles > 0.0);
        // 256 bytes = 32 words, 3 cycles/word, 10 ops.
        assert_eq!(b.data_cycles, 10.0 * 32.0 * 3.0);
        assert!((b.data_cycles_per_byte() - (10.0 * 32.0 * 3.0) / 256.0).abs() < 1e-9);
    }

    #[test]
    fn vector_ops_scale_with_code_length() {
        let small = CostModel::new(512, 0);
        let large = CostModel::new(4096, 0);
        assert!(large.cycles_for(OpKind::VectorXor) > small.cycles_for(OpKind::VectorXor));
        assert_eq!(large.cycles_for(OpKind::VectorXor) / small.cycles_for(OpKind::VectorXor), 8.0);
    }

    #[test]
    fn control_and_data_are_separated() {
        let model = CostModel::new(1024, 64);
        let mut c = OpCounters::new();
        c.add(OpKind::PayloadXor, 1);
        c.add(OpKind::RowReduction, 1);
        let b = model.evaluate(&c);
        assert!(b.control_cycles > 0.0);
        assert!(b.data_cycles > 0.0);
        assert_eq!(b.total_cycles(), b.control_cycles + b.data_cycles);
    }

    #[test]
    fn per_byte_normalisation_handles_zero_payload() {
        let model = CostModel::new(1024, 0);
        let mut c = OpCounters::new();
        c.add(OpKind::PayloadXor, 5);
        assert_eq!(model.evaluate(&c).data_cycles_per_byte(), 0.0);
    }

    #[test]
    fn every_op_kind_has_positive_cost() {
        let model = CostModel::new(2048, 4096);
        for kind in OpKind::ALL {
            assert!(model.cycles_for(kind) > 0.0, "{kind} has zero cost");
        }
    }
}
