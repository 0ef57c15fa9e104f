//! Input derivation: everything a workload feeds the system comes from
//! `--seed` through splitmix64, keyed by (seed, workload, op index,
//! stream), so the same seed gives the same inputs and no two workloads,
//! ops or purposes share a stream.

/// What a derived value is used for. One stream per purpose keeps, say,
/// the object bytes independent of the node seed of the same op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// The object's bytes.
    Object = 1,
    /// `NodeOptions::seed`, or the chain's per-node RNG seeds.
    Node = 2,
    /// The envelope session id (also the served object's id).
    Session = 3,
    /// Seed of the per-link fault plans.
    Fault = 4,
    /// Seed of the k-regular graph construction.
    Graph = 5,
}

/// The splitmix64 finalizer.
#[must_use]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a of the workload name: a stable number per workload that does
/// not depend on the order workloads are listed in.
fn name_key(name: &str) -> u64 {
    name.bytes()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
}

/// The derived 64-bit value for one (seed, workload, op, stream).
#[must_use]
pub fn derive(seed: u64, workload: &str, op: u64, stream: Stream) -> u64 {
    mix(mix(mix(mix(seed) ^ name_key(workload)) ^ op) ^ stream as u64)
}

/// `len` pseudo-random bytes from a splitmix64 sequence started at `key`.
#[must_use]
pub fn bytes(key: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    let mut state = key;
    while out.len() < len {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out.extend_from_slice(&mix(state).to_le_bytes());
    }
    out.truncate(len);
    out
}

/// The object of one operation.
#[must_use]
pub fn object(seed: u64, workload: &str, op: u64, len: usize) -> Vec<u8> {
    bytes(derive(seed, workload, op, Stream::Object), len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_objects_and_per_op_seeds() {
        assert_eq!(
            object(42, "chain_ltnc_k2048", 3, 4096),
            object(42, "chain_ltnc_k2048", 3, 4096)
        );
        assert_eq!(
            derive(42, "line5_clean_16k", 7, Stream::Node),
            derive(42, "line5_clean_16k", 7, Stream::Node)
        );
    }

    #[test]
    fn seeds_ops_workloads_and_streams_do_not_share_streams() {
        let base = derive(42, "chain_ltnc_k2048", 0, Stream::Object);
        assert_ne!(base, derive(43, "chain_ltnc_k2048", 0, Stream::Object));
        assert_ne!(base, derive(42, "line5_clean_16k", 0, Stream::Object));
        assert_ne!(base, derive(42, "chain_ltnc_k2048", 1, Stream::Object));
        assert_ne!(base, derive(42, "chain_ltnc_k2048", 0, Stream::Node));
        assert_ne!(object(42, "chain_ltnc_k2048", 0, 64), object(42, "line5_clean_16k", 0, 64));
    }

    #[test]
    fn bytes_are_not_degenerate_and_honour_odd_lengths() {
        let data = bytes(1, 1003);
        assert_eq!(data.len(), 1003);
        let distinct: std::collections::BTreeSet<u8> = data.iter().copied().collect();
        assert!(distinct.len() > 200, "only {} distinct byte values", distinct.len());
    }
}
