//! Seed derivation: every input of a workload comes from `--seed`.

/// SplitMix64 of `seed` salted with `stream`, so each input (deployment,
/// flows, scenario, network) draws from its own deterministic stream.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream + 1))
        .wrapping_add(0x51C0_2010);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
