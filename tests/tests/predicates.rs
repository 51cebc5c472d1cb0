//! Predicates: the matcher's in-place test against both full evaluators,
//! and patterns whose predicates read earlier bindings run end to end.
//!
//! `Expr::matches` compares operands without copying them, and a partial
//! match keeps a bound event only for the elements some predicate reads.
//! The first test checks the former against `Expr::eval_bool` and the
//! T-REX bytecode on random expressions; the second runs patterns that do
//! read bindings through every engine mode and both oracles.

use std::sync::Arc;

use spectre_baselines::trex::Program;
use spectre_baselines::{run_sequential, TrexEngine};
use spectre_core::SpectreConfig;
use spectre_datasets::{NyseConfig, NyseGenerator};
use spectre_events::{AttrKey, Event, EventType, Schema, SymbolId, Value};
use spectre_integration::{assert_same_output, run, without_consumption, Mode};
use spectre_query::queries::StockVocab;
use spectre_query::{
    BinOp, ConsumptionPolicy, ElemId, ElemRef, EvalContext, Expr, Pattern, Query, UnaryOp,
    WindowSpec,
};

/// xorshift64: a seeded, dependency-free source for the random cases.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    fn pick<T: Clone>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize].clone()
    }
}

/// Attribute keys 0..4 carry values; key 4 is never set on any event.
const ATTRS: u16 = 5;
/// Binding slots 0 and 1 hold events; slot 2 is never bound.
const ELEMS: u16 = 3;

/// A value of any variant, with the edge cases of the comparison order:
/// NaN and signed zero, integers equal to floats, and both sides of every
/// cross-variant rank.
fn value(rng: &mut Rng) -> Value {
    match rng.below(5) {
        0 => Value::F64(rng.pick(&[-1.0, -0.0, 0.0, 1.0, 2.5, f64::NAN, f64::INFINITY])),
        1 => Value::I64(rng.pick(&[-1, 0, 1, 2])),
        2 => Value::Bool(rng.below(2) == 0),
        3 => Value::Symbol(SymbolId::new(rng.below(2) as u32)),
        _ => Value::from(rng.pick(&["a", "b", ""])),
    }
}

fn event(rng: &mut Rng, seq: u64) -> Event {
    let mut b = Event::builder(EventType::new(rng.below(2) as u16)).seq(seq);
    for key in 0..ATTRS - 1 {
        // Now and then an attribute is missing.
        if rng.below(6) != 0 {
            b = b.attr(AttrKey::new(key), value(rng));
        }
    }
    b.build()
}

fn elem_ref(rng: &mut Rng) -> ElemRef {
    match rng.below(u64::from(ELEMS) + 1) {
        0 => ElemRef::Current,
        i => ElemRef::Bound(ElemId::new(i as u16 - 1)),
    }
}

const OPS: [BinOp; 12] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::And,
    BinOp::Or,
];

fn expr(rng: &mut Rng, depth: u32) -> Expr {
    let leaf = depth == 0 || rng.below(4) == 0;
    if leaf {
        return match rng.below(5) {
            0 => Expr::Const(value(rng)),
            1 => Expr::TypeIs(elem_ref(rng), EventType::new(rng.below(2) as u16)),
            // Zero divisors are common: the literal 0 is a likely constant.
            2 => Expr::value(rng.pick(&[0.0, 0.0, 1.0, 2.0])),
            _ => Expr::attr(
                elem_ref(rng),
                AttrKey::new(rng.below(u64::from(ATTRS)) as u16),
            ),
        };
    }
    match rng.below(6) {
        0 => Expr::Unary(UnaryOp::Not, Box::new(expr(rng, depth - 1))),
        1 => Expr::Unary(UnaryOp::Neg, Box::new(expr(rng, depth - 1))),
        _ => Expr::Binary(
            rng.pick(&OPS),
            Box::new(expr(rng, depth - 1)),
            Box::new(expr(rng, depth - 1)),
        ),
    }
}

struct Ctx {
    current: Event,
    bound: Vec<Option<Event>>,
}

impl EvalContext for Ctx {
    fn current(&self) -> &Event {
        &self.current
    }
    fn bound(&self, elem: ElemId) -> Option<&Event> {
        self.bound.get(elem.index())?.as_ref()
    }
}

#[test]
fn in_place_matches_equals_both_evaluators_on_random_expressions() {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let (mut holds, mut fails, mut undefined) = (0u32, 0u32, 0u32);
    for case in 0..40_000u64 {
        let ctx = Ctx {
            current: event(&mut rng, case),
            bound: vec![
                Some(event(&mut rng, case + 1)),
                Some(event(&mut rng, case + 2)),
                None,
            ],
        };
        let e = expr(&mut rng, 4);
        let reference = e.eval_bool(&ctx);
        match reference {
            Some(true) => holds += 1,
            Some(false) => fails += 1,
            None => undefined += 1,
        }
        let expected = reference.unwrap_or(false);
        assert_eq!(e.matches(&ctx), expected, "Expr::matches on {e}");
        assert_eq!(
            Program::compile(&e).matches(&ctx),
            expected,
            "T-REX Program::matches on {e}"
        );
    }
    // Every outcome occurs often enough that the comparison means something.
    for (label, n) in [("true", holds), ("false", fails), ("undefined", undefined)] {
        assert!(n > 1_000, "{label}: {n} of 40 000 cases");
    }
}

#[test]
fn comparison_edge_cases_follow_the_value_order() {
    let mut schema = Schema::new();
    let ty = schema.event_type("E");
    let (f, i, s) = (schema.attr("f"), schema.attr("i"), schema.attr("s"));
    let ctx = Ctx {
        current: Event::builder(ty)
            .attr(f, f64::NAN)
            .attr(i, 2i64)
            .attr(s, "b")
            .build(),
        bound: vec![],
    };
    let cases = [
        // NaN equals itself and sorts above every number in the total order.
        (Expr::current(f).eq_(Expr::current(f)), true),
        (Expr::current(f).gt(Expr::value(f64::INFINITY)), true),
        // Integers compare with floats numerically.
        (Expr::current(i).eq_(Expr::value(2.0)), true),
        (Expr::current(i).lt(Expr::value(2.5)), true),
        // Across variants the rank decides: F64 < I64 < Bool < Symbol < Str.
        (Expr::current(s).gt(Expr::value(true)), true),
        (Expr::value(false).lt(Expr::current(s)), true),
        (Expr::current(s).ge(Expr::value("a")), true),
        // Arithmetic operands are evaluated; a zero divisor is undefined.
        (
            Expr::current(i)
                .mul(Expr::value(2.0))
                .eq_(Expr::value(4i64)),
            true,
        ),
        (
            Expr::current(i).div(Expr::value(0.0)).lt(Expr::value(1.0)),
            false,
        ),
        (
            Expr::current(i)
                .div(Expr::value(0.0))
                .lt(Expr::value(1.0))
                .not(),
            false,
        ),
        // Unbound and missing operands are undefined, so never match.
        (
            Expr::attr(ElemRef::Bound(ElemId::new(0)), f).ne_(Expr::value(0.0)),
            false,
        ),
        (Expr::current(AttrKey::new(9)).ne_(Expr::value(0.0)), false),
    ];
    for (e, expected) in cases {
        assert_eq!(e.matches(&ctx), expected, "{e}");
        assert_eq!(e.eval_bool(&ctx).unwrap_or(false), expected, "{e}");
        assert_eq!(Program::compile(&e).matches(&ctx), expected, "{e}");
    }
}

fn nyse(schema: &mut Schema, events: usize, seed: u64) -> Vec<Event> {
    let config = NyseConfig {
        symbols: 120,
        leaders: 16,
        events,
        seed,
        ..NyseConfig::default()
    };
    NyseGenerator::new(config, schema).collect()
}

/// Patterns that read earlier bindings: `B.closePrice > A.closePrice`, and
/// a step `C` that reads the Kleene step `K+` through its first event.
/// One runs in windows anchored on a rising leader quote (like Q1), the
/// other in sliding count windows (like Q2); both consume.
fn binding_queries(schema: &mut Schema) -> Vec<Arc<Query>> {
    let v = StockVocab::install(schema);
    let close = |elem| Expr::attr(ElemRef::Bound(elem), v.close_price);
    let (a, b, k) = (ElemId::new(0), ElemId::new(1), ElemId::new(2));
    let start = v.is_leading().and(v.rising());
    let pattern = Pattern::builder()
        .one("A", start.clone())
        .one(
            "B",
            v.rising().and(Expr::current(v.close_price).gt(close(a))),
        )
        .plus("K", Expr::current(v.close_price).gt(close(b)))
        .one(
            "C",
            v.falling()
                .and(Expr::current(v.close_price).lt(close(k)))
                .and(Expr::current(v.close_price).gt(close(a))),
        )
        .build()
        .unwrap();
    assert_eq!(pattern.referenced_elems(), &[a, b, k]);
    let pattern = Arc::new(pattern);
    let anchored = Query::builder("bindings-anchored")
        .pattern_arc(Arc::clone(&pattern))
        .window(WindowSpec::on_match_count(Some(v.quote), start, 40).unwrap())
        .consumption(ConsumptionPolicy::All)
        .build()
        .unwrap();
    let sliding = Query::builder("bindings-sliding")
        .pattern_arc(pattern)
        .window(WindowSpec::count_sliding(60, 20).unwrap())
        .consumption(ConsumptionPolicy::All)
        .build()
        .unwrap();
    vec![Arc::new(anchored), Arc::new(sliding)]
}

#[test]
fn patterns_reading_bindings_match_both_oracles_in_every_mode() {
    let mut schema = Schema::new();
    let events = nyse(&mut schema, 3_000, 29);
    let consuming = binding_queries(&mut schema);
    let lane: Vec<_> = consuming.iter().map(|q| without_consumption(q)).collect();
    for query in consuming.iter().chain(&lane) {
        let name = query.name();
        let expected = run_sequential(query, &events).complex_events;
        assert!(expected.len() >= 5, "{name}: {} matches", expected.len());
        let trex = TrexEngine::new(Arc::clone(query)).run(&events);
        assert_same_output(&format!("{name} trex"), &trex.complex_events, &expected);
        for k in [1usize, 2, 4] {
            for batch in [1usize, 64] {
                let config = SpectreConfig::with_batching(k, batch);
                let report = run(query, events.clone(), &config, Mode::Simulated);
                let label = format!("{name} sim k={k} batch={batch}");
                assert_same_output(&label, &report.complex_events, &expected);
            }
        }
        let config = SpectreConfig::with_instances(2);
        let report = run(query, events.clone(), &config, Mode::Threaded);
        let label = format!("{name} threaded k=2");
        assert_same_output(&label, &report.complex_events, &expected);
    }
}
