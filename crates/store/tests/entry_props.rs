//! Property tests on the entry framing: random entries round-trip
//! exactly, and *any* single-byte mutation — a flip, a drop, or an
//! insertion, at any offset — is detected by verification, so damaged
//! bytes can never be deserialized into a replay.

use proptest::prelude::*;
use store::{decode_entry, encode_entry, fnv1a64, Corruption};

/// A printable store key drawn from the characters real keys use.
fn key_from(parts: &[u8]) -> String {
    parts
        .iter()
        .map(|&b| (b'a' + b % 26) as char)
        .collect::<String>()
        + "/v1"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round trip: decode(encode(payload)) == payload for arbitrary
    /// payloads and keys.
    #[test]
    fn round_trip_is_exact(
        payload in proptest::collection::vec(0u8..=255, 0..512),
        key_seed in proptest::collection::vec(0u8..=255, 1..24),
    ) {
        let key = key_from(&key_seed);
        let bytes = encode_entry(&key, &payload);
        prop_assert_eq!(decode_entry(&key, &bytes), Ok(payload.as_slice()));
    }

    /// Single-byte *flip* at every offset is detected.
    #[test]
    fn any_single_byte_flip_is_detected(
        payload in proptest::collection::vec(0u8..=255, 1..256),
        flip in 1u8..=255, // xor delta, never zero
    ) {
        let key = "gpu/v1/BFS/Small/w32b16s64";
        let clean = encode_entry(key, &payload);
        for offset in 0..clean.len() {
            let mut bad = clean.clone();
            bad[offset] ^= flip;
            prop_assert!(
                decode_entry(key, &bad).is_err(),
                "flip {flip:#x} at offset {offset} went undetected"
            );
        }
    }

    /// Dropping any single byte is detected.
    #[test]
    fn any_single_byte_drop_is_detected(
        payload in proptest::collection::vec(0u8..=255, 1..256),
    ) {
        let key = "cpu/v1/srad(R)/Small/t8l64q1000w4";
        let clean = encode_entry(key, &payload);
        for offset in 0..clean.len() {
            let mut bad = clean.clone();
            bad.remove(offset);
            prop_assert!(
                decode_entry(key, &bad).is_err(),
                "dropping byte {offset} went undetected"
            );
        }
    }

    /// Inserting any single byte is detected.
    #[test]
    fn any_single_byte_insertion_is_detected(
        payload in proptest::collection::vec(0u8..=255, 1..128),
        inserted in 0u8..=255,
    ) {
        let key = "k";
        let clean = encode_entry(key, &payload);
        for offset in 0..=clean.len() {
            let mut bad = clean.clone();
            bad.insert(offset, inserted);
            prop_assert!(
                decode_entry(key, &bad).is_err(),
                "inserting {inserted:#x} at {offset} went undetected"
            );
        }
    }

    /// An entry never verifies against a different key (the stale
    /// fingerprint guarantee), even when only the fingerprint suffix
    /// differs.
    #[test]
    fn entries_never_cross_keys(
        payload in proptest::collection::vec(0u8..=255, 0..128),
        a_seed in proptest::collection::vec(0u8..=255, 1..16),
        b_seed in proptest::collection::vec(0u8..=255, 1..16),
    ) {
        let (a, b) = (key_from(&a_seed), key_from(&b_seed));
        let bytes = encode_entry(&a, &payload);
        if a == b {
            prop_assert!(decode_entry(&b, &bytes).is_ok());
        } else {
            prop_assert!(matches!(
                decode_entry(&b, &bytes),
                Err(Corruption::KeyMismatch { .. })
            ));
        }
    }

    /// Arbitrary bytes, bare and behind a valid frame prefix, are a
    /// typed `Corruption`, never a panic.
    #[test]
    fn arbitrary_bytes_are_a_typed_error(
        bytes in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        let key = "gpu/v1/SRAD/Tiny/w32b16s64";
        prop_assert!(decode_entry(key, &bytes).is_err());
        let mut framed = encode_entry(key, &[]);
        framed.truncate(framed.len() / 2);
        framed.extend_from_slice(&bytes);
        let _ = decode_entry(key, &framed);
    }

    /// FNV-1a distinguishes single-byte deltas (the checksum property
    /// the framing relies on).
    #[test]
    fn fnv_distinguishes_single_byte_deltas(
        payload in proptest::collection::vec(0u8..=255, 1..256),
        flip in 1u8..=255,
        pick in 0u32..1_000_000,
    ) {
        let mut other = payload.clone();
        let i = pick as usize % payload.len();
        other[i] ^= flip;
        prop_assert_ne!(fnv1a64(&payload), fnv1a64(&other));
    }
}
