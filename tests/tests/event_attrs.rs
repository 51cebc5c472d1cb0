//! An event's attribute set against a `BTreeMap` model, across the boundary
//! where four inline attributes spill to a heap list: lookups, key order,
//! equality and the codec round trip must not see which form holds them.

use std::collections::BTreeMap;

use bytes::BytesMut;
use proptest::prelude::*;
use spectre_events::codec::{encode, ClientFrame, Decoder, StreamItem};
use spectre_events::{AttrKey, Event, EventType, SymbolId, Value};

/// Keys 0..9 with up to 14 inserts: duplicates are common and an event
/// ends with 0–9 attributes.
const KEYS: u16 = 9;

/// One value of each kind, picked by `kind`.
fn value(kind: u8, x: u64) -> Value {
    match kind {
        0 => Value::F64(x as f64 / 4.0),
        1 => Value::I64(x as i64 - 8),
        2 => Value::Bool(x.is_multiple_of(2)),
        3 => Value::Symbol(SymbolId::new(x as u32)),
        _ => Value::from(format!("s{x}").as_str()),
    }
}

fn inserts() -> impl Strategy<Value = Vec<(u16, u8, u64)>> {
    proptest::collection::vec((0..KEYS, 0u8..5, 0u64..16), 0..=14)
}

/// The event `inserts` build, in insertion order, and the model map.
fn build(inserts: &[(u16, u8, u64)]) -> (Event, BTreeMap<u16, Value>) {
    let mut builder = Event::builder(EventType::new(2)).seq(7).ts(70);
    let mut model = BTreeMap::new();
    for &(key, kind, x) in inserts {
        builder = builder.attr(AttrKey::new(key), value(kind, x));
        model.insert(key, value(kind, x));
    }
    (builder.build(), model)
}

/// The event a model map builds, inserting in descending key order.
fn from_model(model: &BTreeMap<u16, Value>) -> Event {
    model
        .iter()
        .rev()
        .fold(
            Event::builder(EventType::new(2)).seq(7).ts(70),
            |b, (k, v)| b.attr(AttrKey::new(*k), v.clone()),
        )
        .build()
}

fn round_trip(ev: &Event) -> Event {
    let mut wire = BytesMut::new();
    encode(ev, &mut wire);
    let mut decoder = Decoder::new();
    decoder.extend(&wire);
    match decoder.next_client_frame() {
        Ok(Some(ClientFrame::Item(StreamItem::Event(back)))) => back,
        other => panic!("decoded {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn attributes_behave_like_a_sorted_map(a in inserts(), b in inserts()) {
        let (ev, model) = build(&a);
        prop_assert_eq!(ev.attr_count(), model.len());
        for key in 0..=KEYS {
            prop_assert_eq!(ev.get(AttrKey::new(key)), model.get(&key));
        }
        let pairs: Vec<(u16, Value)> = ev.attrs().map(|(k, v)| (k.index() as u16, v.clone())).collect();
        let want: Vec<(u16, Value)> = model.iter().map(|(k, v)| (*k, v.clone())).collect();
        prop_assert_eq!(pairs, want);

        // One attribute set, one form: any insertion order builds the same
        // event, down to its debug form.
        let rebuilt = from_model(&model);
        prop_assert_eq!(&rebuilt, &ev);
        prop_assert_eq!(format!("{rebuilt:?}"), format!("{ev:?}"));

        let (other, other_model) = build(&b);
        prop_assert_eq!(other == ev, other_model == model);

        // The codec keeps every value's variant, which `==` alone would not
        // show (`F64(2.0) == I64(2)`).
        prop_assert_eq!(format!("{:?}", round_trip(&ev)), format!("{ev:?}"));
    }
}

#[test]
fn the_fifth_attribute_spills_and_a_repeated_key_does_not() {
    let four: Vec<(u16, u8, u64)> = (0..4).map(|k| (k * 2, 0, u64::from(k))).collect();
    let (ev, model) = build(&four);
    assert_eq!(ev.attr_count(), 4);

    // Replacing a held key keeps four attributes, inline.
    let (same_count, _) = build(&[four.as_slice(), &[(2, 1, 9)]].concat());
    assert_eq!(same_count.attr_count(), 4);
    assert_eq!(same_count.get(AttrKey::new(2)), Some(&Value::I64(1)));
    assert_ne!(same_count, ev);

    // A fifth key at each position: front, between and back.
    for key in [1, 3, 5, 7, 9] {
        let (five, mut five_model) = build(&[four.as_slice(), &[(key, 3, 4)]].concat());
        assert_eq!(five.attr_count(), 5);
        assert_ne!(five, ev);
        assert_eq!(five, from_model(&five_model));
        assert_eq!(format!("{:?}", round_trip(&five)), format!("{five:?}"));
        five_model.remove(&key);
        assert_eq!(five_model, model);
    }
}
