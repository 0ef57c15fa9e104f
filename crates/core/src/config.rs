/// Tuning knobs of an LTNC node.
///
/// The defaults reproduce the configuration evaluated in the paper; the
/// booleans exist for `experiments --figure ablations` (`ltnc-bench`): they
/// let the harness measure what each mechanism contributes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LtncConfig {
    /// Robust Soliton parameter `c` (paper/Luby default: 0.1).
    pub soliton_c: f64,
    /// Robust Soliton parameter `δ` (paper/Luby default: 0.5).
    pub soliton_delta: f64,
    /// Run the refinement step (Algorithm 2) after building a packet.
    /// Disabling it lets the native-packet degree variance drift, which
    /// degrades belief propagation — the ablation quantifies by how much.
    pub refine: bool,
    /// Run the redundancy detection (Algorithm 3, §III-C.1) on every packet
    /// before inserting it, on the natives it names that are not decoded yet.
    pub detect_redundancy: bool,
    /// Maximum number of times a target degree is re-drawn when the
    /// reachability heuristics reject it, before falling back to the largest
    /// reachable degree. The paper reports an average of 1.02 draws, so this
    /// bound is essentially never hit; it only guards pathological states
    /// (e.g. an empty node).
    pub max_degree_retries: usize,
}

impl Default for LtncConfig {
    fn default() -> Self {
        LtncConfig {
            soliton_c: 0.1,
            soliton_delta: 0.5,
            refine: true,
            detect_redundancy: true,
            max_degree_retries: 64,
        }
    }
}

impl LtncConfig {
    /// The paper's configuration (all mechanisms enabled).
    #[must_use]
    pub fn paper() -> Self {
        LtncConfig::default()
    }

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
        assert_eq!(c.soliton_c, 0.1);
        assert_eq!(c.soliton_delta, 0.5);
        assert!(c.max_degree_retries > 0);
        assert_eq!(c, LtncConfig::paper());
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
