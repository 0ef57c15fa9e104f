/// Tuning knobs of an LTNC node.
///
/// The defaults reproduce the configuration evaluated in the paper, whose
/// Robust Soliton (c = 0.1, δ = 0.5) every node uses; the booleans exist
/// for `experiments --figure ablations` (`ltnc-bench`): they let the
/// harness measure what each mechanism contributes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LtncConfig {
    /// Run the refinement step (Algorithm 2) after building a packet.
    /// Disabling it lets the native-packet degree variance drift, which
    /// degrades belief propagation — the ablation quantifies by how much.
    pub refine: bool,
    /// Run the redundancy detection (Algorithm 3, §III-C.1) on every packet
    /// before inserting it, on the natives it names that are not decoded yet.
    pub detect_redundancy: bool,
}

impl Default for LtncConfig {
    fn default() -> Self {
        LtncConfig { refine: true, detect_redundancy: true }
    }
}

impl LtncConfig {
    /// Configuration with the refinement step disabled (ablation).
    #[must_use]
    pub fn without_refinement(mut self) -> Self {
        self.refine = false;
        self
    }

    /// Configuration with redundancy detection disabled (ablation).
    #[must_use]
    pub fn without_redundancy_detection(mut self) -> Self {
        self.detect_redundancy = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_everything() {
        let c = LtncConfig::default();
        assert!(c.refine);
        assert!(c.detect_redundancy);
    }

    #[test]
    fn ablation_builders_flip_flags() {
        let c = LtncConfig::default().without_refinement();
        assert!(!c.refine);
        assert!(c.detect_redundancy);
        let c = LtncConfig::default().without_redundancy_detection();
        assert!(c.refine);
        assert!(!c.detect_redundancy);
    }
}
