//! Parser integration: the paper's Fig. 9 queries written in the extended
//! `MATCH_RECOGNIZE` notation must behave identically to the programmatic
//! builders in `spectre_query::queries`.

use std::sync::Arc;

use spectre_baselines::run_sequential;
use spectre_core::SpectreConfig;
use spectre_datasets::{NyseConfig, NyseGenerator};
use spectre_events::Schema;
use spectre_integration::{fmt_all, run, Mode};
use spectre_query::{parse_query, queries, ConsumptionPolicy};

fn q1_text(q: usize, ws: u64) -> String {
    let mut pattern = String::from("MLE");
    let mut defines =
        String::from("MLE AS (MLE.closePrice > MLE.openPrice AND MLE.leading == TRUE)");
    let mut consume = String::from("MLE");
    for i in 1..=q {
        pattern.push_str(&format!(" RE{i}"));
        defines.push_str(&format!(
            ",\n  RE{i} AS (RE{i}.closePrice > RE{i}.openPrice)"
        ));
        consume.push_str(&format!(" RE{i}"));
    }
    format!(
        "PATTERN ({pattern})\nDEFINE\n  {defines}\nWITHIN {ws} EVENTS FROM MLE\nCONSUME ({consume})"
    )
}

#[test]
fn parsed_q1_behaves_like_builder_q1() {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(2000, 83), &mut schema).collect();
    let built = Arc::new(queries::q1(&mut schema, 3, 200, Default::default()));
    let parsed = Arc::new(parse_query(&q1_text(3, 200), &mut schema).unwrap());

    assert_eq!(parsed.pattern().step_count(), built.pattern().step_count());
    // `CONSUME (MLE RE1 …)` lists every element: equivalent to `All`.
    match parsed.consumption() {
        ConsumptionPolicy::Selected(names) => assert_eq!(names.len(), 4),
        other => panic!("expected Selected covering all elements, got {other:?}"),
    }

    let out_built = run_sequential(&built, &events).complex_events;
    let out_parsed = run_sequential(&parsed, &events).complex_events;
    assert_eq!(fmt_all(&out_parsed), fmt_all(&out_built));
}

#[test]
fn parsed_q2_behaves_like_builder_q2() {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(1500, 89), &mut schema).collect();
    let built = Arc::new(queries::q2(&mut schema, 60.0, 140.0, 300, 60));
    let text = "
PATTERN (A B+ C D+ E F+ G H+ I J+ K L+ M)
DEFINE
  A AS (A.closePrice < 60),
  B AS (B.closePrice > 60 AND B.closePrice < 140),
  C AS (C.closePrice > 140),
  D AS (D.closePrice > 60 AND D.closePrice < 140),
  E AS (E.closePrice < 60),
  F AS (F.closePrice > 60 AND F.closePrice < 140),
  G AS (G.closePrice > 140),
  H AS (H.closePrice > 60 AND H.closePrice < 140),
  I AS (I.closePrice < 60),
  J AS (J.closePrice > 60 AND J.closePrice < 140),
  K AS (K.closePrice > 140),
  L AS (L.closePrice > 60 AND L.closePrice < 140),
  M AS (M.closePrice < 60)
WITHIN 300 EVENTS FROM EVERY 60 EVENTS
CONSUME ALL";
    let parsed = Arc::new(parse_query(text, &mut schema).unwrap());
    let out_built = run_sequential(&built, &events).complex_events;
    let out_parsed = run_sequential(&parsed, &events).complex_events;
    assert_eq!(fmt_all(&out_parsed), fmt_all(&out_built));
}

#[test]
fn parsed_query_runs_under_speculation() {
    let mut schema = Schema::new();
    let events: Vec<_> = NyseGenerator::new(NyseConfig::small(1500, 97), &mut schema).collect();
    let parsed = Arc::new(parse_query(&q1_text(3, 150), &mut schema).unwrap());
    let expected = run_sequential(&parsed, &events).complex_events;
    let config = SpectreConfig::with_instances(4);
    let report = run(&parsed, events, &config, Mode::Simulated);
    assert_eq!(fmt_all(&report.complex_events), fmt_all(&expected));
}

#[test]
fn parse_errors_carry_positions() {
    let mut schema = Schema::new();
    let err = parse_query("PATTERN (A", &mut schema).unwrap_err();
    assert!(err.pos <= "PATTERN (A".len());
    assert!(!err.msg.is_empty());
    let err2 = parse_query("PATTERN (A) WITHIN x EVENTS FROM A", &mut schema).unwrap_err();
    assert!(!err2.msg.is_empty());
}
