use ltnc_scheme::{SchemeKind, SchemeParams};

/// Parameters of one simulated dissemination (§IV-A of the paper).
///
/// The paper's reference setup is `N = 1000` nodes, `k = 2048` blocks of
/// `m = 256 KB`; the defaults here are scaled down so that unit tests and the
/// quick mode of the figure harness run in seconds, and the harness overrides
/// them to paper scale when asked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Number of nodes `N` (the source is an additional, dedicated node).
    pub nodes: usize,
    /// Number of native packets `k` the content is split into.
    pub code_length: usize,
    /// Payload size `m` in bytes. The simulator carries real payloads so that
    /// decoded content can be verified bit-for-bit; figure harnesses use small
    /// payloads and scale data costs analytically through the cost model.
    pub payload_size: usize,
    /// Dissemination scheme.
    pub scheme: SchemeKind,
    /// Fraction of `k` a node must have received (innovative packets for the
    /// coded schemes) before it starts pushing recoded packets — the paper's
    /// *aggressiveness* parameter (≈ 1 % for LTNC, 0 for WC/RLNC).
    pub aggressiveness: f64,
    /// Number of packets the source injects per gossip period.
    pub source_rate: usize,
    /// Number of packets every eligible node pushes per gossip period.
    pub push_rate: usize,
    /// Fan-out of the WC scheme (`f` in the paper, must exceed `ln N`);
    /// ignored by the coded schemes.
    pub wc_fanout: usize,
    /// Buffer size of the WC scheme (`b` in the paper).
    pub wc_buffer: usize,
    /// Size of each node's partial view in the peer sampling service.
    pub view_size: usize,
    /// Whether the binary feedback channel is available (receivers abort
    /// transfers of packets whose header shows they are not innovative).
    pub feedback: bool,
    /// Probability that a payload transfer is lost in transit (after the
    /// header check passed). 0 reproduces the paper's loss-free setting; the
    /// failure-injection experiments raise it.
    pub loss_rate: f64,
    /// Probability, per gossip period, that one random node crashes and
    /// restarts empty (loses all its coding state). 0 reproduces the paper's
    /// churn-free setting.
    pub churn_rate: f64,
    /// Stop after this many gossip periods even if some nodes are incomplete.
    pub max_periods: usize,
    /// Seed of the simulation's deterministic RNG.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            nodes: 100,
            code_length: 64,
            payload_size: 8,
            scheme: SchemeKind::Ltnc,
            aggressiveness: 0.01,
            source_rate: 4,
            push_rate: 1,
            wc_fanout: 8,
            wc_buffer: 32,
            view_size: 16,
            feedback: true,
            loss_rate: 0.0,
            churn_rate: 0.0,
            max_periods: 20_000,
            seed: 42,
        }
    }
}

impl SimConfig {
    /// The paper's reference configuration (Figure 7a): `N = 1000`,
    /// `k = 2048`. Payload size is kept small (data-plane costs are scaled by
    /// the cost model instead of carrying 256 KB per packet in memory).
    #[must_use]
    pub fn paper_reference(scheme: SchemeKind) -> Self {
        SimConfig {
            nodes: 1000,
            code_length: 2048,
            payload_size: 64,
            scheme,
            aggressiveness: match scheme {
                SchemeKind::Ltnc => 0.01,
                _ => 0.0,
            },
            wc_fanout: 8, // ⌈ln 1000⌉ = 7, with one extra for margin
            wc_buffer: 256,
            ..SimConfig::default()
        }
    }

    /// A scaled-down configuration that preserves the paper's ratios but runs
    /// in seconds; used by tests and the harness's quick mode.
    #[must_use]
    pub fn quick(scheme: SchemeKind) -> Self {
        SimConfig {
            nodes: 60,
            code_length: 32,
            payload_size: 8,
            scheme,
            aggressiveness: match scheme {
                SchemeKind::Ltnc => 0.02,
                _ => 0.0,
            },
            wc_fanout: 6,
            wc_buffer: 32,
            max_periods: 10_000,
            ..SimConfig::default()
        }
    }

    /// The effective number of innovative packets a node needs before it may
    /// start recoding (aggressiveness × k, at least 1 for the coded schemes).
    #[must_use]
    pub fn recode_threshold(&self) -> usize {
        ((self.aggressiveness * self.code_length as f64).ceil() as usize).max(1)
    }

    /// The scheme-construction subset of this configuration, usable by any
    /// driver (see [`SchemeParams`]).
    #[must_use]
    pub fn scheme_params(&self) -> SchemeParams {
        SchemeParams {
            kind: self.scheme,
            code_length: self.code_length,
            payload_size: self.payload_size,
            wc_fanout: self.wc_fanout,
            wc_buffer: self.wc_buffer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_labels_are_distinct() {
        let mut labels: Vec<&str> = SchemeKind::ALL.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 3);
    }

    #[test]
    fn default_config_is_consistent() {
        let c = SimConfig::default();
        assert!(c.nodes > 0);
        assert!(c.code_length > 0);
        assert!(c.view_size > 0);
        assert!(c.recode_threshold() >= 1);
    }

    #[test]
    fn paper_reference_matches_section_iv() {
        let c = SimConfig::paper_reference(SchemeKind::Ltnc);
        assert_eq!(c.nodes, 1000);
        assert_eq!(c.code_length, 2048);
        assert!((c.aggressiveness - 0.01).abs() < 1e-12);
        assert!(c.wc_fanout as f64 >= (c.nodes as f64).ln());
        let r = SimConfig::paper_reference(SchemeKind::Rlnc);
        assert_eq!(r.aggressiveness, 0.0);
    }

    #[test]
    fn defaults_have_no_loss_or_churn() {
        let c = SimConfig::default();
        assert_eq!(c.loss_rate, 0.0);
        assert_eq!(c.churn_rate, 0.0);
        assert_eq!(SimConfig::paper_reference(SchemeKind::Ltnc).loss_rate, 0.0);
    }

    #[test]
    fn recode_threshold_scales_with_aggressiveness() {
        let mut c = SimConfig { code_length: 2048, aggressiveness: 0.01, ..SimConfig::default() };
        assert_eq!(c.recode_threshold(), 21);
        c.aggressiveness = 0.0;
        assert_eq!(c.recode_threshold(), 1);
    }
}
