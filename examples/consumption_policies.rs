//! Reproduces the paper's introductory example (Fig. 1): query QE over the
//! stream A1 A2 B1 B2 B3 with consumption policy *none* vs *selected B*.
//!
//! ```sh
//! cargo run -p spectre-bench --example consumption_policies
//! ```

use std::sync::Arc;

use spectre_baselines::run_sequential;
use spectre_core::{EngineError, SpectreConfig, SpectreEngine};
use spectre_events::{Event, Schema, Value};
use spectre_query::queries::{self, StockVocab};
use spectre_query::{ComplexEvent, ConsumptionPolicy, Query};

fn main() -> Result<(), EngineError> {
    let mut schema = Schema::new();
    let vocab = StockVocab::install(&mut schema);
    let sym_a = schema.symbol("A");
    let sym_b = schema.symbol("B");

    // The stream of paper Fig. 1: two A quotes opening overlapping 1-minute
    // windows, three B quotes.
    let mk = |seq: u64, ts: u64, sym| {
        Event::builder(vocab.quote)
            .seq(seq)
            .ts(ts)
            .attr(vocab.symbol, Value::Symbol(sym))
            .attr(vocab.open_price, 1.0)
            .attr(vocab.close_price, 2.0)
            .build()
    };
    let events = vec![
        mk(0, 0, sym_a),      // A1 opens w1
        mk(1, 10_000, sym_a), // A2 opens w2
        mk(2, 20_000, sym_b), // B1
        mk(3, 40_000, sym_b), // B2
        mk(4, 65_000, sym_b), // B3 (outside w1)
    ];
    let name = |seq: u64| match seq {
        0 => "A1",
        1 => "A2",
        2 => "B1",
        3 => "B2",
        _ => "B3",
    };
    let render = |ces: &[ComplexEvent]| -> Vec<String> {
        ces.iter()
            .map(|c| {
                c.constituents
                    .iter()
                    .map(|s| name(*s))
                    .collect::<Vec<_>>()
                    .join("·")
            })
            .collect()
    };

    // QE with consumption policy "selected B" (paper Fig. 1b).
    let qe = Arc::new(queries::qe(&mut schema, 60_000));
    // The same query without consumption (paper Fig. 1a).
    let qe_none = Arc::new(
        Query::builder("QE-none")
            .pattern_arc(Arc::clone(qe.pattern()))
            .window(qe.window().clone())
            .selection(qe.selection())
            .consumption(ConsumptionPolicy::None)
            .build()
            .expect("valid query"),
    );

    let config = SpectreConfig::with_instances(2);
    let sim = |query: &Arc<Query>| {
        SpectreEngine::builder(query)
            .config(config.clone())
            .simulated()
            .try_build()?
            .run(events.iter().cloned())
    };
    let none = sim(&qe_none)?;
    let selected = sim(&qe)?;

    println!(
        "consumption policy NONE       → {:?}",
        render(&none.complex_events)
    );
    println!(
        "consumption policy SELECTED B → {:?}",
        render(&selected.complex_events)
    );

    // Paper Fig. 1a: A1B1, A1B2, A2B1, A2B2, A2B3.
    assert_eq!(
        render(&none.complex_events),
        vec!["A1·B1", "A1·B2", "A2·B1", "A2·B2", "A2·B3"]
    );
    // Paper Fig. 1b: B1 and B2 are consumed in w1 → only A2B3 remains in w2.
    assert_eq!(
        render(&selected.complex_events),
        vec!["A1·B1", "A1·B2", "A2·B3"]
    );

    // Both match the sequential reference.
    assert_eq!(
        none.complex_events,
        run_sequential(&qe_none, &events).complex_events
    );
    assert_eq!(
        selected.complex_events,
        run_sequential(&qe, &events).complex_events
    );
    println!("reproduces paper Fig. 1 exactly ✔");
    Ok(())
}
