use ltnc_metrics::{CostModel, OpCounters, TimeSeries};

use crate::{SchemeKind, SimConfig};

/// Metrics collected from one simulated dissemination.
///
/// A report contains everything the figure harness needs to regenerate the
/// paper's evaluation: the convergence curve (Figure 7a), the average time to
/// complete (Figure 7b), the communication overhead (Figure 7c) and the
/// operation counters that, folded through a [`CostModel`], give the four
/// panels of Figure 8.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Which scheme produced this report.
    pub scheme: SchemeKind,
    /// The configuration that was simulated.
    pub config: SimConfig,
    /// Number of nodes that decoded the full content before the simulation ended.
    pub completed_nodes: usize,
    /// Gossip period at which the last node completed, if every node did.
    pub completion_period: Option<usize>,
    /// Average, over completed nodes, of the period at which they completed.
    pub avg_time_to_complete: f64,
    /// Proportion of complete nodes (percent) as a function of the gossip period.
    pub convergence: TimeSeries,
    /// Number of payload transfers actually performed (headers whose transfer
    /// was not aborted).
    pub payloads_delivered: u64,
    /// Number of transfers aborted by the binary feedback channel after the
    /// header check.
    pub transfers_aborted: u64,
    /// Number of payload transfers lost in transit (failure injection; 0 in
    /// the paper's setting).
    pub payloads_lost: u64,
    /// Number of node crash/restart events injected (failure injection; 0 in
    /// the paper's setting).
    pub churn_events: u64,
    /// Number of delivered payloads that turned out to be useful to the receiver.
    pub useful_deliveries: u64,
    /// Sum of the recoding counters of all nodes (including the source).
    pub recoding_counters: OpCounters,
    /// Sum of the decoding counters of all nodes (excluding the source).
    pub decoding_counters: OpCounters,
    /// Number of fresh packets recoded network-wide (for per-packet averages).
    pub packets_recoded: u64,
    /// Whether every completed node reconstructed content identical to the source's.
    pub content_verified: bool,
}

impl SimReport {
    /// Communication overhead in percent: payloads delivered beyond the
    /// minimum necessary (`N · k` useful packets). WC and RLNC have (near)
    /// zero overhead because their feedback check is exact; LTNC pays for the
    /// redundant packets its cheap detection lets through (Figure 7c).
    #[must_use]
    pub fn overhead_percent(&self) -> f64 {
        let necessary = (self.config.nodes * self.config.code_length) as f64;
        if necessary == 0.0 {
            return 0.0;
        }
        ((self.payloads_delivered as f64 - necessary) / necessary * 100.0).max(0.0)
    }

    /// Fraction of nodes that completed (0..=1).
    #[must_use]
    pub fn completion_ratio(&self) -> f64 {
        self.completed_nodes as f64 / self.config.nodes as f64
    }

    /// Folds the collected counters through a cost model into the per-figure
    /// quantities of Figure 8.
    #[must_use]
    pub fn cost_report(&self, model: &CostModel) -> CostReport {
        let recode = model.evaluate(&self.recoding_counters);
        let decode = model.evaluate(&self.decoding_counters);
        let packets = self.packets_recoded.max(1) as f64;
        let nodes = self.config.nodes.max(1) as f64;
        let content_bytes = (self.config.code_length * self.config.payload_size).max(1) as f64;
        CostReport {
            recode_control_per_packet: recode.control_cycles / packets,
            recode_data_per_byte: recode.data_cycles
                / (packets * self.config.payload_size.max(1) as f64),
            decode_control_per_node: decode.control_cycles / nodes,
            decode_data_per_byte: decode.data_cycles / (nodes * content_bytes),
        }
    }
}

/// The four cost quantities of Figure 8, derived from a [`SimReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostReport {
    /// Figure 8a: cycles spent on control structures per recoded packet.
    pub recode_control_per_packet: f64,
    /// Figure 8c: cycles spent on payload data per recoded packet, per byte.
    pub recode_data_per_byte: f64,
    /// Figure 8b: cycles spent on control structures to decode the content, per node.
    pub decode_control_per_node: f64,
    /// Figure 8d: cycles spent on payload data to decode the content, per byte of content, per node.
    pub decode_data_per_byte: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltnc_metrics::OpKind;

    fn base_report() -> SimReport {
        let config =
            SimConfig { nodes: 10, code_length: 8, payload_size: 4, ..SimConfig::default() };
        SimReport {
            scheme: SchemeKind::Ltnc,
            config,
            completed_nodes: 10,
            completion_period: Some(100),
            avg_time_to_complete: 80.0,
            convergence: TimeSeries::new("LTNC"),
            payloads_delivered: 100,
            transfers_aborted: 5,
            payloads_lost: 0,
            churn_events: 0,
            useful_deliveries: 80,
            recoding_counters: OpCounters::new(),
            decoding_counters: OpCounters::new(),
            packets_recoded: 50,
            content_verified: true,
        }
    }

    #[test]
    fn overhead_is_relative_to_necessary_packets() {
        let mut r = base_report();
        // necessary = 10 * 8 = 80; delivered = 100 → 25 % overhead.
        assert!((r.overhead_percent() - 25.0).abs() < 1e-9);
        r.payloads_delivered = 80;
        assert_eq!(r.overhead_percent(), 0.0);
        // Fewer than necessary (incomplete run) clamps at zero.
        r.payloads_delivered = 40;
        assert_eq!(r.overhead_percent(), 0.0);
    }

    #[test]
    fn completion_ratio_is_fractional() {
        let mut r = base_report();
        assert_eq!(r.completion_ratio(), 1.0);
        r.completed_nodes = 5;
        assert_eq!(r.completion_ratio(), 0.5);
    }

    #[test]
    fn cost_report_splits_control_and_data() {
        let mut r = base_report();
        r.recoding_counters.add(OpKind::VectorXor, 100);
        r.recoding_counters.add(OpKind::PayloadXor, 100);
        r.decoding_counters.add(OpKind::TannerEdgeUpdate, 200);
        r.decoding_counters.add(OpKind::PayloadXor, 200);
        let model = CostModel::new(r.config.code_length, r.config.payload_size);
        let c = r.cost_report(&model);
        assert!(c.recode_control_per_packet > 0.0);
        assert!(c.recode_data_per_byte > 0.0);
        assert!(c.decode_control_per_node > 0.0);
        assert!(c.decode_data_per_byte > 0.0);
    }

    #[test]
    fn cost_report_handles_zero_activity() {
        let r = base_report();
        let model = CostModel::new(8, 4);
        let c = r.cost_report(&model);
        assert_eq!(c.recode_control_per_packet, 0.0);
        assert_eq!(c.decode_data_per_byte, 0.0);
    }
}
