//! Property tests for the evaluation-cache binary persistence, and for
//! `Spec::parse` on arbitrary text.
//!
//! The properties: `save` → `load` reproduces *exactly* the entries that
//! were stored — every key, and every value down to the f64 bit pattern
//! (the format stores `f64::to_bits`, so NaNs and signed zeros survive) —
//! and any truncation or single-bit flip of a saved file is detected by
//! the whole-file CRC-32 footer, never loaded as plausible data.
//! The hit/compute counters do **not** round-trip: a loaded database
//! documents this by starting at `(0, 0)` — they describe the current
//! process's lookups, not the file's history.
//!
//! `Spec::parse` is total: arbitrary strings, and byte-mutated copies of
//! a valid spec, parse to `Ok` or `Err`, never a panic.

use mhe_cache::CacheConfig;
use mhe_spacewalk::cache_db::{EvaluationCache, MetricKey};
use mhe_spacewalk::cost::CacheDesign;
use mhe_spacewalk::spec::Spec;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn unique_path(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("mhe_swpt_{tag}_{}_{n}.mhec", std::process::id()))
}

/// Application names exercise empty, spaces, tabs, and non-ASCII — the
/// binary format length-prefixes strings, so none of these may confuse it.
fn app_strategy() -> impl Strategy<Value = Arc<str>> {
    prop_oneof![
        Just(Arc::from("unepic")),
        Just(Arc::from("085.gcc")),
        Just(Arc::from("")),
        Just(Arc::from("name with spaces")),
        Just(Arc::from("tab\tand\nnewline")),
        Just(Arc::from("bénch-märk")),
    ]
}

fn design_strategy() -> impl Strategy<Value = CacheDesign> {
    (0u32..12, 0u32..4, 0u32..5, 1u32..4).prop_map(|(s, a, l, ports)| CacheDesign {
        config: CacheConfig::new(1 << s, 1 << a, 1 << l),
        ports,
    })
}

/// Values from raw bit patterns: covers NaNs, infinities, subnormals and
/// signed zeros — everything decimal text formatting would mangle.
fn value_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0u64..u64::MAX).prop_map(f64::from_bits),
        Just(0.0f64),
        Just(-0.0f64),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::MIN_POSITIVE),
        Just(0.1 + 0.2),
    ]
}

fn key_strategy() -> impl Strategy<Value = MetricKey> {
    (app_strategy(), design_strategy(), 0u32..20_000, 0u8..4).prop_map(
        |(app, design, millis, tag)| match tag {
            0 => MetricKey::IcacheMisses { app, design, dilation_millis: millis },
            1 => MetricKey::DcacheMisses { app, design },
            2 => MetricKey::UcacheMisses { app, design, dilation_millis: millis },
            _ => MetricKey::ProcCycles { app, proc: Arc::from(format!("p{millis}")) },
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn binary_persistence_round_trips_bit_exactly(
        entries in prop::collection::vec((key_strategy(), value_strategy()), 0..60)
    ) {
        let cache = EvaluationCache::new();
        for (k, v) in &entries {
            cache.insert(k.clone(), *v);
        }
        let path = unique_path("rt");
        cache.save(&path).expect("save");
        let loaded = EvaluationCache::load(&path).expect("load");
        std::fs::remove_file(&path).ok();

        let before = cache.entries();
        let after = loaded.entries();
        prop_assert_eq!(before.len(), after.len());
        for ((ka, va), (kb, vb)) in before.iter().zip(&after) {
            prop_assert_eq!(ka, kb);
            prop_assert_eq!(va.to_bits(), vb.to_bits(), "value bits changed for {}", ka);
        }
        // Counters are process-local, not persisted.
        prop_assert_eq!(loaded.stats(), (0, 0));
    }

    #[test]
    fn corruption_is_always_detected(
        entries in prop::collection::vec((key_strategy(), value_strategy()), 1..12),
        cut in 0usize..200,
        flip in 0usize..200,
        bit in 0u32..8,
    ) {
        let cache = EvaluationCache::new();
        for (k, v) in &entries {
            cache.insert(k.clone(), *v);
        }
        let path = unique_path("corrupt");
        cache.save(&path).expect("save");
        let mut bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();

        // Truncation: since v2 the whole file is covered by a CRC-32
        // footer, so every strict prefix — empty file included — must
        // error, never panic, never load as a smaller database.
        let trunc = unique_path("trunc");
        std::fs::write(&trunc, &bytes[..cut.min(bytes.len().saturating_sub(1))]).unwrap();
        prop_assert!(EvaluationCache::load(&trunc).is_err(), "truncated file loaded");
        std::fs::remove_file(&trunc).ok();

        // A single flipped bit anywhere — header, entries, value bits, or
        // the CRC footer itself — must be detected (CRC-32 catches every
        // single-bit error), not silently decoded to a different value.
        let i = flip % bytes.len();
        bytes[i] ^= 1u8 << bit;
        let flipped = unique_path("flip");
        std::fs::write(&flipped, &bytes).unwrap();
        prop_assert!(EvaluationCache::load(&flipped).is_err(), "bit-flipped file loaded");
        std::fs::remove_file(&flipped).ok();
    }
}

/// A valid spec: every section, every key, every value kind.
const VALID_SPEC: &str = "\
# comment
[processors]
kinds = 1111 3221

[icache]
sizes_kb = 1 2 4
assocs = 1 2
line_bytes = 32
ports = 1
policies = lru fifo

[dcache]
sizes_kb = 1 4
assocs = 1

[ucache]
sizes_kb = 16 64
assocs = 2
line_bytes = 64

[eval]
benchmark = epic
events = 5000
l1_miss = 8
l2_miss = 50
";

/// Characters weighted toward the spec grammar (brackets, `=`, `#`,
/// digits, spaces, newlines), mixed with any Unicode scalar value.
fn spec_char() -> impl Strategy<Value = char> {
    const GRAMMAR: &[u8] = b"[]=# \n\t0123456789kKbB_-.:,abcdefilnoprstuvwxyz";
    prop_oneof![
        (0usize..GRAMMAR.len()).prop_map(|i| char::from(GRAMMAR[i])),
        (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}')),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn spec_parse_never_panics_on_arbitrary_text(
        chars in prop::collection::vec(spec_char(), 0..200)
    ) {
        let text: String = chars.into_iter().collect();
        let _ = Spec::parse(&text);
        // Text after a valid prefix must not confuse the parser either.
        let _ = Spec::parse(&format!("{VALID_SPEC}{text}"));
    }

    #[test]
    fn spec_parse_never_panics_on_a_mutated_valid_spec(
        edits in prop::collection::vec((0usize..1024, 0u32..256, 0u8..3), 1..8)
    ) {
        prop_assert!(Spec::parse(VALID_SPEC).is_ok());
        let mut bytes = VALID_SPEC.as_bytes().to_vec();
        for (at, byte, op) in edits {
            let at = at % (bytes.len() + 1);
            match op {
                0 if at < bytes.len() => bytes[at] = byte as u8,
                1 => bytes.insert(at, byte as u8),
                _ => bytes.truncate(at.max(1)),
            }
        }
        let _ = Spec::parse(&String::from_utf8_lossy(&bytes));
    }
}
