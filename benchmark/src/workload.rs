//! What the five workloads share: generated inputs, the outcome of one
//! operation, and the per-name samples the layer metrics are folded from.

use std::collections::BTreeMap;

use crate::seed::{self, Stream};
use crate::stats;
use crate::trace::Trace;

/// The generated inputs of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct Inputs {
    /// `--seed`.
    pub seed: u64,
    /// Name the streams are keyed by. The two chains share one key: they
    /// move the same bytes under different schemes.
    pub key: &'static str,
    /// Test-only: compare outputs against a reference with one bit
    /// flipped, so every operation must be reported as failed.
    pub corrupt_reference: bool,
}

impl Inputs {
    /// The object of operation `op`.
    #[must_use]
    pub fn object(&self, op: u64, len: usize) -> Vec<u8> {
        seed::object(self.seed, self.key, op, len)
    }

    /// A derived seed of operation `op`.
    #[must_use]
    pub fn derive(&self, op: u64, stream: Stream) -> u64 {
        seed::derive(self.seed, self.key, op, stream)
    }

    /// Whether `got` is bit-exact the generated `object`.
    fn bit_exact(&self, object: &[u8], got: &[u8]) -> bool {
        if self.corrupt_reference {
            let mut reference = object.to_vec();
            reference[0] ^= 1;
            return reference == got;
        }
        object == got
    }

    /// Checks what the receivers of one operation produced: how many
    /// delivered the object bit-exact, and whether any delivered
    /// something else. A receiver that delivered nothing (`None`) only
    /// makes the operation fail; wrong bytes make the run incorrect.
    #[must_use]
    pub fn verify<'a>(
        &self,
        object: &[u8],
        outputs: impl Iterator<Item = Option<&'a [u8]>>,
    ) -> Verdict {
        let mut verdict = Verdict::default();
        for got in outputs.flatten() {
            if self.bit_exact(object, got) {
                verdict.exact += 1;
            } else {
                verdict.wrong_bytes = true;
            }
        }
        verdict
    }
}

/// What [`Inputs::verify`] found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Receivers whose output is bit-exact the generated object.
    pub exact: u64,
    /// A receiver produced an object that differs from the input.
    pub wrong_bytes: bool,
}

/// One object delivered to every receiver of the workload, or not.
#[derive(Debug, Clone, Default)]
pub struct OpOutcome {
    /// Every receiver decoded the object bit-exact in time.
    pub ok: bool,
    /// A receiver delivered bytes that differ from the generated object:
    /// not merely a failed operation, an incorrect one.
    pub wrong_bytes: bool,
    /// Wall time of the operation by the benchmark's own clock.
    pub wall_s: f64,
    /// Object bytes × receivers that decoded bit-exact.
    pub delivered_bytes: u64,
    /// Bytes put on the wire.
    pub wire_bytes: u64,
    /// Raw per-layer values of this operation, folded by the families'
    /// `metrics` functions.
    pub layer: Vec<(&'static str, f64)>,
}

/// A workload after its set-up: runs operations one at a time.
pub trait Workload {
    /// Runs operation `op` to completion and verifies its outputs.
    fn op(&mut self, op: u64, trace: &mut Trace) -> OpOutcome;

    /// Raw per-layer values measured while setting up.
    fn setup_layer(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Per-name samples collected over a run's operations.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Appends one operation's raw values.
    pub fn extend(&mut self, values: &[(&'static str, f64)]) {
        for &(name, value) in values {
            self.0.entry(name).or_default().push(value);
        }
    }

    fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Sum over operations (0 when the name was never recorded).
    #[must_use]
    pub fn sum(&self, name: &str) -> f64 {
        self.get(name).iter().sum()
    }

    /// Mean per operation (0 when never recorded).
    #[must_use]
    pub fn mean(&self, name: &str) -> f64 {
        stats::mean(self.get(name)).unwrap_or(0.0)
    }

    /// Median over operations (0 when never recorded).
    #[must_use]
    pub fn median(&self, name: &str) -> f64 {
        stats::median(self.get(name)).unwrap_or(0.0)
    }

    /// `Σ numerator ÷ Σ denominator`, 0 when the denominator is 0.
    #[must_use]
    pub fn ratio(&self, numerator: &str, denominator: &str) -> f64 {
        let denominator = self.sum(denominator);
        if denominator == 0.0 {
            0.0
        } else {
            self.sum(numerator) / denominator
        }
    }
}

/// Named metric values in report order.
pub type Metrics = Vec<(&'static str, f64)>;
