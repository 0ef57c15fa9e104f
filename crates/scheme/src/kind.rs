use ltnc_gf2::Payload;

use crate::{LtncSchemeNode, RlncSchemeNode, Scheme, WcNode};

/// Which dissemination scheme the nodes run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Without Coding: nodes forward native packets only (the paper's "WC").
    Wc,
    /// Random Linear Network Coding with sparse recoding and Gaussian decoding.
    Rlnc,
    /// LT Network Codes (the paper's contribution).
    Ltnc,
}

impl SchemeKind {
    /// All schemes, in the order the paper's figures list them.
    pub const ALL: [SchemeKind; 3] = [SchemeKind::Wc, SchemeKind::Ltnc, SchemeKind::Rlnc];

    /// Display label used in figure output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::Wc => "WC",
            SchemeKind::Rlnc => "RLNC",
            SchemeKind::Ltnc => "LTNC",
        }
    }

    /// Parses the lowercase command-line spelling (`wc`, `rlnc`, `ltnc`).
    #[must_use]
    pub fn parse(s: &str) -> Option<SchemeKind> {
        match s.to_ascii_lowercase().as_str() {
            "wc" => Some(SchemeKind::Wc),
            "rlnc" => Some(SchemeKind::Rlnc),
            "ltnc" => Some(SchemeKind::Ltnc),
            _ => None,
        }
    }

    /// Stable one-byte identifier used in wire envelopes.
    #[must_use]
    pub fn wire_id(self) -> u8 {
        match self {
            SchemeKind::Wc => 0,
            SchemeKind::Rlnc => 1,
            SchemeKind::Ltnc => 2,
        }
    }

    /// Inverse of [`SchemeKind::wire_id`].
    #[must_use]
    pub fn from_wire_id(id: u8) -> Option<SchemeKind> {
        match id {
            0 => Some(SchemeKind::Wc),
            1 => Some(SchemeKind::Rlnc),
            2 => Some(SchemeKind::Ltnc),
            _ => None,
        }
    }
}

/// Everything needed to build [`Scheme`] nodes for one content: the scheme,
/// the code dimensions and the WC-specific knobs.
///
/// This is the scheme-construction subset of the simulator's `SimConfig`,
/// extracted so that non-simulator drivers (the UDP session layer, tests,
/// examples) can instantiate nodes directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchemeParams {
    /// The coding scheme to run.
    pub kind: SchemeKind,
    /// Number of native packets `k` the content is split into.
    pub code_length: usize,
    /// Payload size `m` in bytes.
    pub payload_size: usize,
    /// Fan-out of the WC scheme (`f` in the paper); ignored by the coded
    /// schemes.
    pub wc_fanout: usize,
    /// Buffer size of the WC scheme (`b` in the paper); ignored by the
    /// coded schemes.
    pub wc_buffer: usize,
}

impl SchemeParams {
    /// Parameters with the paper's small-system WC defaults (`f = 8`,
    /// `b = 32`).
    #[must_use]
    pub fn new(kind: SchemeKind, code_length: usize, payload_size: usize) -> Self {
        SchemeParams { kind, code_length, payload_size, wc_fanout: 8, wc_buffer: 32 }
    }

    /// Builds an empty node (a receiver/relay that has seen nothing yet).
    ///
    /// # Panics
    ///
    /// Panics when `code_length == 0`.
    #[must_use]
    pub fn empty_node(&self) -> Box<dyn Scheme> {
        assert!(self.code_length >= 1, "the content must have at least one packet");
        match self.kind {
            SchemeKind::Wc => Box::new(WcNode::new(
                self.code_length,
                self.payload_size,
                self.wc_fanout,
                self.wc_buffer,
            )),
            SchemeKind::Rlnc => Box::new(RlncSchemeNode::new(self.code_length, self.payload_size)),
            SchemeKind::Ltnc => Box::new(LtncSchemeNode::new(self.code_length, self.payload_size)),
        }
    }

    /// Builds a source node holding the full content.
    ///
    /// # Panics
    ///
    /// Panics when `natives.len() != code_length`.
    #[must_use]
    pub fn source_node(&self, natives: &[Payload]) -> Box<dyn Scheme> {
        assert_eq!(
            natives.len(),
            self.code_length,
            "source content must have exactly k native packets"
        );
        match self.kind {
            SchemeKind::Wc => Box::new(WcNode::source(
                self.code_length,
                self.payload_size,
                self.wc_fanout,
                natives,
            )),
            SchemeKind::Rlnc => {
                Box::new(RlncSchemeNode::source(self.code_length, self.payload_size, natives))
            }
            SchemeKind::Ltnc => {
                Box::new(LtncSchemeNode::source(self.code_length, self.payload_size, natives))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn natives(k: usize, m: usize) -> Vec<Payload> {
        (0..k).map(|i| Payload::from_vec((0..m).map(|j| (i * 17 + j) as u8).collect())).collect()
    }

    #[test]
    fn parse_and_labels_roundtrip() {
        for kind in SchemeKind::ALL {
            assert_eq!(SchemeKind::parse(&kind.label().to_lowercase()), Some(kind));
            assert_eq!(SchemeKind::from_wire_id(kind.wire_id()), Some(kind));
        }
        assert_eq!(SchemeKind::parse("nope"), None);
        assert_eq!(SchemeKind::from_wire_id(9), None);
    }

    #[test]
    fn params_build_working_nodes_for_every_scheme() {
        let k = 12;
        let m = 4;
        let content = natives(k, m);
        let mut rng = SmallRng::seed_from_u64(5);
        for kind in SchemeKind::ALL {
            let params = SchemeParams::new(kind, k, m);
            let mut source = params.source_node(&content);
            assert!(source.is_complete(), "{kind:?} source must start complete");
            let mut sink = params.empty_node();
            assert!(!sink.is_complete());
            let mut budget = 20_000;
            while !sink.is_complete() && budget > 0 {
                budget -= 1;
                if let Some(p) = source.make_packet(&mut rng) {
                    sink.deliver(&p);
                }
            }
            assert!(sink.is_complete(), "{kind:?} sink should complete");
            assert_eq!(sink.decoded_content().unwrap(), content, "{kind:?} content mismatch");
        }
    }

    #[test]
    #[should_panic(expected = "exactly k native packets")]
    fn source_node_rejects_wrong_content_length() {
        let params = SchemeParams::new(SchemeKind::Ltnc, 8, 2);
        let _ = params.source_node(&natives(4, 2));
    }
}
