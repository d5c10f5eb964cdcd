//! Robustness of the trace-payload decoder: on arbitrary bytes, and on
//! every single-byte mutation of a valid payload, `decode_capture_payload`
//! returns `Ok` or a typed `CodecError` and never panics.

use std::sync::Arc;

use proptest::prelude::*;
use simt::trace::{CtaTrace, WarpTrace};
use simt::{
    decode_capture_payload, encode_capture_payload, KernelTrace, MemSpace, TOp, TRACE_CODEC_VERSION,
};

/// A payload holding every op variant, with segment lists and counts
/// drawn from `seed` so mutations land on varied layouts.
fn valid_payload(seed: &[u8]) -> Vec<u8> {
    let s = |i: usize| seed.get(i).copied().unwrap_or(1);
    let ops = vec![
        TOp::Alu {
            n: u32::from(s(0)),
            lanes: 32,
        },
        TOp::Sfu { n: 1, lanes: s(1) },
        TOp::Shared {
            degree: s(2),
            lanes: 32,
            store: s(3) % 2 == 0,
        },
        TOp::Gmem {
            space: MemSpace::Global,
            store: false,
            lanes: 32,
            segs: seed.iter().map(|&b| u64::from(b) * 128).collect(),
        },
        TOp::Gmem {
            space: MemSpace::Local,
            store: true,
            lanes: 8,
            segs: vec![1 << 40].into(),
        },
        TOp::Tex {
            lanes: 32,
            segs: vec![u64::from(s(4))].into(),
        },
        TOp::Const {
            lanes: 32,
            unique: s(5),
        },
        TOp::Param { n: 2, lanes: 32 },
        TOp::Branch { lanes: s(6) },
        TOp::Bar,
    ];
    let trace = Arc::new(KernelTrace {
        name: "mutant".to_string(),
        ctas: vec![
            CtaTrace {
                warps: vec![WarpTrace { ops: ops.clone() }, WarpTrace { ops: vec![] }],
            },
            CtaTrace {
                warps: vec![WarpTrace { ops }],
            },
        ],
        threads_per_block: 64,
        regs_per_thread: 16,
        shared_bytes_per_cta: 1024,
        warp_size: 32,
    });
    encode_capture_payload(&[trace], u64::from(s(7)), 9)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, bare and behind a valid version tag (so the
    /// decoder gets past the first check), decode or fail cleanly.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
        let _ = decode_capture_payload(&bytes);
        let mut tagged = TRACE_CODEC_VERSION.to_le_bytes().to_vec();
        tagged.extend_from_slice(&bytes);
        let _ = decode_capture_payload(&tagged);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every single-byte replacement, drop and insertion of a valid
    /// payload decodes or fails cleanly.
    #[test]
    fn single_byte_mutations_never_panic(
        seed in proptest::collection::vec(0u8..=255, 1..16),
        delta in 1u8..=255,
    ) {
        let clean = valid_payload(&seed);
        prop_assert!(decode_capture_payload(&clean).is_ok());
        for offset in 0..clean.len() {
            let mut flipped = clean.clone();
            flipped[offset] ^= delta;
            let _ = decode_capture_payload(&flipped);
            let mut dropped = clean.clone();
            dropped.remove(offset);
            let _ = decode_capture_payload(&dropped);
            let mut inserted = clean.clone();
            inserted.insert(offset, delta);
            let _ = decode_capture_payload(&inserted);
        }
    }
}
