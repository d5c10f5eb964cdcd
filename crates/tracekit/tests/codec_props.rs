//! Robustness of the CPU-capture decoder: on arbitrary bytes, and on
//! every single-byte mutation of a valid payload, `decode_capture`
//! returns `Ok` or a typed `CpuCodecError` and never panics.

use proptest::prelude::*;
use tracekit::{decode_capture, encode_capture, CpuCapture, InstrMix, Profile, CPU_CODEC_VERSION};

fn valid_payload(name_seed: &[u8], words: Vec<u64>) -> Vec<u8> {
    let name: String = name_seed.iter().map(|&b| (b'a' + b % 26) as char).collect();
    let base = Profile {
        name,
        mix: InstrMix {
            alu: 7,
            branches: 3,
            reads: words.len() as u64,
            writes: 1,
        },
        cache_stats: Vec::new(),
        instr_blocks: 5,
        data_blocks: 2,
        events: words.len() as u64,
    };
    encode_capture(&CpuCapture::from_parts(base, words, 4, 64))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, bare and behind a valid version tag (so the
    /// decoder gets past the first check), decode or fail cleanly.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
        let _ = decode_capture(&bytes);
        let mut tagged = CPU_CODEC_VERSION.to_le_bytes().to_vec();
        tagged.extend_from_slice(&bytes);
        let _ = decode_capture(&tagged);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every single-byte replacement, drop and insertion of a valid
    /// payload decodes or fails cleanly.
    #[test]
    fn single_byte_mutations_never_panic(
        name_seed in proptest::collection::vec(0u8..=255, 0..12),
        words in proptest::collection::vec(0u64..1 << 40, 0..24),
        delta in 1u8..=255,
    ) {
        let clean = valid_payload(&name_seed, words);
        prop_assert!(decode_capture(&clean).is_ok());
        for offset in 0..clean.len() {
            let mut flipped = clean.clone();
            flipped[offset] ^= delta;
            let _ = decode_capture(&flipped);
            let mut dropped = clean.clone();
            dropped.remove(offset);
            let _ = decode_capture(&dropped);
            let mut inserted = clean.clone();
            inserted.insert(offset, delta);
            let _ = decode_capture(&inserted);
        }
    }
}
