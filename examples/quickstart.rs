//! Quickstart: define a query with a consumption policy, stream synthetic
//! stock quotes through SPECTRE, and verify the output against the
//! sequential reference engine.
//!
//! ```sh
//! cargo run -p spectre-bench --example quickstart
//! ```

use std::sync::Arc;

use spectre_baselines::run_sequential;
use spectre_core::{EngineError, SpectreConfig, SpectreEngine};
use spectre_datasets::{NyseConfig, NyseGenerator};
use spectre_events::Schema;
use spectre_query::parse_query;

fn main() -> Result<(), EngineError> {
    // 1. A schema interns attribute / type / symbol names.
    let mut schema = Schema::new();

    // 2. A synthetic NYSE-like quote stream (the real trace the paper
    //    uses is not redistributable; see `spectre_datasets`). The generator is
    //    a plain `Iterator<Item = Event>` and will be fed straight into
    //    the engine — it is materialized here only so step 6 can verify
    //    the output against the sequential reference.
    let nyse = NyseConfig {
        symbols: 100,
        leaders: 8,
        events: 20_000,
        seed: 7,
        ..NyseConfig::default()
    };
    let events: Vec<_> = NyseGenerator::new(nyse.clone(), &mut schema).collect();

    // 3. A query in the paper's extended MATCH_RECOGNIZE notation: three
    //    rising quotes after a rising quote of a leading symbol, within a
    //    window of 300 events; all constituents are consumed.
    let query = Arc::new(
        parse_query(
            "PATTERN (MLE RE1 RE2 RE3)
             DEFINE MLE AS (MLE.leading == TRUE AND MLE.closePrice > MLE.openPrice),
                    RE1 AS (RE1.closePrice > RE1.openPrice),
                    RE2 AS (RE2.closePrice > RE2.openPrice),
                    RE3 AS (RE3.closePrice > RE3.openPrice)
             WITHIN 300 EVENTS FROM MLE
             CONSUME ALL",
            &mut schema,
        )
        .expect("valid query"),
    );

    // 4. Open an engine session: 8 speculative operator instances under
    //    the deterministic virtual-time scheduler (swap `.simulated()` for
    //    `.threaded()` to run on real OS threads — same API, same output).
    //    Every session call reports misuse as an `EngineError` value.
    let mut engine = SpectreEngine::builder(&query)
        .config(SpectreConfig::with_instances(8))
        .simulated()
        .try_build()?;

    // 5. Stream the generator straight into the session — no Vec fixture —
    //    draining complex events incrementally as their windows commit.
    let mut source = NyseGenerator::new(nyse, &mut schema);
    let mut complex_events = Vec::new();
    loop {
        let fed = engine.ingest(source.by_ref().take(4_096))?;
        complex_events.extend(engine.try_drain_outputs()?.into_iter().map(|(_, ce)| ce));
        if fed < 4_096 {
            break;
        }
    }
    let streamed_early = complex_events.len();
    let report = engine.try_finish()?;
    complex_events.extend(report.complex_events);

    println!("complex events : {}", complex_events.len());
    println!("  …of which {streamed_early} were drained before end-of-stream");
    println!("input events   : {}", report.input_events);
    println!(
        "speculation    : {} versions created, {} dropped, {} rollbacks",
        report.metrics.versions_created, report.metrics.versions_dropped, report.metrics.rollbacks
    );
    for ce in complex_events.iter().take(5) {
        println!("  {ce}");
    }

    // 6. Exactness guarantee (paper §2.3): identical to sequential
    //    processing — no false positives, no false negatives.
    let reference = run_sequential(&query, &events);
    assert_eq!(complex_events, reference.complex_events);
    println!("output matches the sequential reference ✔");
    Ok(())
}
