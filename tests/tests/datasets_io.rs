//! Dataset and CSV integration: generators are deterministic and CSV
//! round-trips losslessly.

use std::sync::Arc;

use spectre_baselines::run_sequential;
use spectre_datasets::{csv, NyseConfig, NyseGenerator, RandConfig, RandGenerator};
use spectre_events::Schema;
use spectre_integration::fmt_all;
use spectre_query::queries::{self, Direction};

#[test]
fn nyse_generator_is_deterministic_per_seed() {
    let mut s1 = Schema::new();
    let mut s2 = Schema::new();
    let a: Vec<_> = NyseGenerator::new(NyseConfig::small(500, 9), &mut s1).collect();
    let b: Vec<_> = NyseGenerator::new(NyseConfig::small(500, 9), &mut s2).collect();
    assert_eq!(a, b);
    let c: Vec<_> = NyseGenerator::new(NyseConfig::small(500, 10), &mut s1).collect();
    assert_ne!(a, c, "different seeds produce different streams");
}

#[test]
fn rand_generator_is_deterministic_per_seed() {
    let mut s1 = Schema::new();
    let mut s2 = Schema::new();
    let a: Vec<_> = RandGenerator::new(RandConfig::small(500, 9), &mut s1).collect();
    let b: Vec<_> = RandGenerator::new(RandConfig::small(500, 9), &mut s2).collect();
    assert_eq!(a, b);
}

#[test]
fn nyse_symbols_are_roughly_round_robin() {
    let mut schema = Schema::new();
    let config = NyseConfig {
        symbols: 10,
        leaders: 2,
        events: 100,
        ..NyseConfig::default()
    };
    let gen = NyseGenerator::new(config, &mut schema);
    let vocab = gen.vocab();
    let events: Vec<_> = gen.collect();
    // Every symbol appears exactly events/symbols times.
    let mut counts = std::collections::HashMap::new();
    for ev in &events {
        *counts
            .entry(ev.symbol(vocab.symbol).unwrap())
            .or_insert(0u32) += 1;
    }
    assert_eq!(counts.len(), 10);
    assert!(counts.values().all(|&c| c == 10));
    // Timestamps are non-decreasing.
    assert!(events.windows(2).all(|w| w[0].ts() <= w[1].ts()));
}

#[test]
fn csv_roundtrip_preserves_stream_and_output() {
    let dir = std::env::temp_dir().join("spectre-csv-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("quotes.csv");

    let mut schema = Schema::new();
    let gen = NyseGenerator::new(NyseConfig::small(800, 13), &mut schema);
    let vocab = gen.vocab();
    let events: Vec<_> = gen.collect();
    csv::write_quotes(&path, &events, &schema, vocab).unwrap();

    let mut schema2 = Schema::new();
    let restored = csv::read_quotes(&path, &mut schema2).unwrap();
    assert_eq!(restored.len(), events.len());

    // Same query over original and restored stream gives the same output
    // (symbol ids may differ between schemas; outputs are seq-based).
    let q1 = Arc::new(queries::q1(&mut schema, 3, 100, Direction::Rising));
    let q2 = Arc::new(queries::q1(&mut schema2, 3, 100, Direction::Rising));
    let out1 = run_sequential(&q1, &events);
    let out2 = run_sequential(&q2, &restored);
    assert_eq!(fmt_all(&out1.complex_events), fmt_all(&out2.complex_events));
    std::fs::remove_file(&path).ok();
}

#[test]
fn csv_read_rejects_malformed_lines() {
    let dir = std::env::temp_dir().join("spectre-csv-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.csv");
    std::fs::write(&path, "0,0,SYM,1.0\n").unwrap(); // too few fields
    let mut schema = Schema::new();
    let err = csv::read_quotes(&path, &mut schema);
    assert!(err.is_err());
    std::fs::remove_file(&path).ok();
}
