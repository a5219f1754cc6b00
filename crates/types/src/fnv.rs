//! 64-bit FNV-1a: the content hash behind the per-scan inference seed
//! and trace ids.
//!
//! The inference seed feeds every served answer, so this function's
//! output is part of the artifact contract: changing it changes answers
//! (the golden fixtures pin them).

/// The FNV-1a offset basis: the starting state for [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The 64-bit FNV prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Folds `bytes` into a running FNV-1a hash; start from [`FNV_OFFSET`].
/// Folding two slices in turn equals folding them laid end to end.
///
/// ```
/// use fis_types::fnv::{fnv1a, FNV_OFFSET};
///
/// assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
/// assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"), fnv1a(FNV_OFFSET, b"foobar"));
/// ```
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_64_bit_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }
}
