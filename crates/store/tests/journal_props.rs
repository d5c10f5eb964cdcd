//! Robustness of the journal line reader: whatever bytes a journal file
//! holds, reopening it returns `Ok` with a verified record prefix and
//! never panics.

use std::fs;
use std::path::PathBuf;

use obs::Json;
use proptest::prelude::*;
use store::{fnv1a64, Journal};

const KEY: &str = "study/props";

fn journal_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rodinia-journal-props-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Writes `bytes` as the journal file and reopens it with `resume`.
fn reopen(name: &str, bytes: &[u8]) -> Vec<Json> {
    let path = journal_path(name);
    fs::write(&path, bytes).expect("write journal");
    let (_, records) = Journal::open(&path, KEY, true).expect("a writable journal always opens");
    let _ = fs::remove_file(&path);
    records
}

/// A line whose checksum matches `text`, so the reader hands `text` to
/// the JSON parser.
fn checksummed(text: &str) -> String {
    format!("{:016x}\t{text}\n", fnv1a64(text.as_bytes()))
}

fn header() -> String {
    checksummed(&format!(
        r#"{{"schema":"{}","study":"{KEY}"}}"#,
        store::JOURNAL_SCHEMA
    ))
}

/// JSON-ish characters, so checksummed lines reach deep into the parser.
const ALPHABET: &[u8] = b"[]{}\",:0123456789.eE-+ntrufals\\u ";

#[test]
fn deeply_nested_record_is_damage_not_a_crash() {
    let mut file = header();
    file.push_str(&checksummed(r#"{"n":1}"#));
    file.push_str(&checksummed(&"[".repeat(200_000)));
    let records = reopen("deep.journal", file.as_bytes());
    assert_eq!(records, vec![Json::obj(vec![("n", Json::u64(1))])]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary bytes, bare and after a valid header.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
        let _ = reopen("raw.journal", &bytes);
        let mut after_header = header().into_bytes();
        after_header.extend_from_slice(&bytes);
        let _ = reopen("tail.journal", &after_header);
    }

    /// Checksummed lines of JSON-like text: the parser sees arbitrary
    /// input and every line it rejects ends the prefix.
    #[test]
    fn checksummed_arbitrary_text_never_panics(
        picks in proptest::collection::vec(0usize..ALPHABET.len(), 0..256),
    ) {
        let text: String = picks.iter().map(|&i| ALPHABET[i] as char).collect();
        let file = header() + &checksummed(&text);
        let records = reopen("text.journal", file.as_bytes());
        prop_assert_eq!(records.len(), usize::from(Json::parse(&text).is_ok()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every single-byte replacement of a valid journal yields a prefix
    /// of its records.
    #[test]
    fn single_byte_mutations_keep_a_prefix(
        values in proptest::collection::vec(0u64..1_000_000, 1..5),
        delta in 1u8..=255,
    ) {
        let records: Vec<Json> = values.iter().map(|&n| Json::obj(vec![("n", Json::u64(n))])).collect();
        let mut clean = header();
        for r in &records {
            clean.push_str(&checksummed(&r.to_string()));
        }
        let clean = clean.into_bytes();
        prop_assert_eq!(&reopen("clean.journal", &clean), &records);
        for offset in 0..clean.len() {
            let mut bad = clean.clone();
            bad[offset] ^= delta;
            let got = reopen("mutant.journal", &bad);
            prop_assert!(
                got.len() <= records.len() && got[..] == records[..got.len()],
                "mutation at {offset} produced records outside the prefix: {got:?}"
            );
        }
    }
}
