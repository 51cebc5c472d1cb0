use std::cmp::Ordering;
use std::fmt;

use crate::schema::{AttrKey, EventType, SymbolId};
use crate::value::Value;
use crate::{Seq, Timestamp};

/// A single event on an operator's totally ordered input stream.
///
/// Events consist of meta-data (sequence number, timestamp, event type) and a
/// payload of attribute–value pairs (paper §2.1). The sequence number defines
/// the global processing order; SPECTRE's windows, consumption groups and
/// suppression sets all refer to events by [`Seq`].
///
/// Up to four attributes are stored inline, in a key array sorted by
/// [`AttrKey`] beside a value array, so building, cloning and dropping such
/// an event allocates nothing; every generator and the CSV reader build
/// exactly four. A fifth attribute moves the whole set to a heap list. Each
/// attribute set has exactly one form, so derived equality is exact.
///
/// # Example
///
/// ```
/// use spectre_events::{Event, Schema, Value};
/// let mut schema = Schema::new();
/// let quote = schema.event_type("Quote");
/// let (open, close) = (schema.attr("openPrice"), schema.attr("closePrice"));
/// let ev = Event::builder(quote)
///     .seq(42)
///     .ts(1_000)
///     .attr(open, Value::F64(10.0))
///     .attr(close, Value::F64(10.5))
///     .build();
/// assert!(ev.f64(close) > ev.f64(open));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    seq: Seq,
    ts: Timestamp,
    etype: EventType,
    attrs: Attrs,
}

/// Attributes a [`Event`] stores without a heap list.
const INLINE: usize = 4;

/// What an unused inline value slot holds, so that equal attribute sets
/// compare equal field by field.
const FILLER: Value = Value::Bool(false);

/// An attribute set sorted by key: inline up to [`INLINE`] attributes, a
/// heap list beyond that, never both forms for one set.
#[derive(Debug, Clone, PartialEq)]
enum Attrs {
    /// `keys[..len]` and `values[..len]`; the slots past `len` hold
    /// `AttrKey::new(0)` and [`FILLER`].
    Inline {
        len: u8,
        keys: [AttrKey; INLINE],
        values: [Value; INLINE],
    },
    /// More than [`INLINE`] attributes.
    Spilled {
        keys: Vec<AttrKey>,
        values: Vec<Value>,
    },
}

impl Attrs {
    const EMPTY: Attrs = Attrs::Inline {
        len: 0,
        keys: [AttrKey::new(0); INLINE],
        values: [FILLER; INLINE],
    };

    /// The sorted keys and their values.
    fn parts(&self) -> (&[AttrKey], &[Value]) {
        match self {
            Attrs::Inline { len, keys, values } => {
                let n = usize::from(*len);
                (&keys[..n], &values[..n])
            }
            Attrs::Spilled { keys, values } => (keys, values),
        }
    }

    /// Sets `key` to `value`, replacing an existing value.
    fn insert(&mut self, key: AttrKey, value: Value) {
        match self {
            Attrs::Inline { len, keys, values } => {
                let n = usize::from(*len);
                match keys[..n].binary_search(&key) {
                    Ok(i) => values[i] = value,
                    Err(i) if n < INLINE => {
                        // The filler at slot `n` rotates to `i` and is
                        // overwritten.
                        keys[i..=n].rotate_right(1);
                        values[i..=n].rotate_right(1);
                        keys[i] = key;
                        values[i] = value;
                        *len += 1;
                    }
                    Err(i) => {
                        let (mut spilled_keys, mut spilled_values) =
                            (keys.to_vec(), values.to_vec());
                        spilled_keys.insert(i, key);
                        spilled_values.insert(i, value);
                        *self = Attrs::Spilled {
                            keys: spilled_keys,
                            values: spilled_values,
                        };
                    }
                }
            }
            Attrs::Spilled { keys, values } => match keys.binary_search(&key) {
                Ok(i) => values[i] = value,
                Err(i) => {
                    keys.insert(i, key);
                    values.insert(i, value);
                }
            },
        }
    }
}

impl Event {
    /// Starts building an event of the given type.
    pub fn builder(etype: EventType) -> EventBuilder {
        EventBuilder {
            seq: 0,
            ts: 0,
            etype,
            attrs: Attrs::EMPTY,
        }
    }

    /// The event's position in the operator's total input order.
    pub fn seq(&self) -> Seq {
        self.seq
    }

    /// The event's timestamp.
    pub fn ts(&self) -> Timestamp {
        self.ts
    }

    /// The event's type.
    pub fn event_type(&self) -> EventType {
        self.etype
    }

    /// Looks up an attribute value.
    pub fn get(&self, key: AttrKey) -> Option<&Value> {
        let (keys, values) = self.attrs.parts();
        keys.binary_search(&key).ok().map(|i| &values[i])
    }

    /// Looks up a numeric attribute, widening integers to `f64`.
    pub fn f64(&self, key: AttrKey) -> Option<f64> {
        self.get(key).and_then(Value::as_f64)
    }

    /// Looks up a symbol attribute.
    pub fn symbol(&self, key: AttrKey) -> Option<SymbolId> {
        self.get(key).and_then(Value::as_symbol)
    }

    /// Iterates over the attribute–value pairs in key order.
    pub fn attrs(&self) -> impl Iterator<Item = (AttrKey, &Value)> {
        let (keys, values) = self.attrs.parts();
        keys.iter().copied().zip(values)
    }

    /// Number of attributes.
    pub fn attr_count(&self) -> usize {
        self.attrs.parts().0.len()
    }

    /// Returns a copy of this event with a different sequence number.
    ///
    /// Used by the ingestion layer when re-sequencing merged streams.
    pub fn with_seq(&self, seq: Seq) -> Event {
        Event {
            seq,
            ..self.clone()
        }
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    /// Events order by `(timestamp, sequence number)` — the "timestamps and
    /// tie-breaker rules" global ordering of paper §2.1.
    fn cmp(&self, other: &Self) -> Ordering {
        (self.ts, self.seq).cmp(&(other.ts, other.seq))
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}@{}[ty{}", self.seq, self.ts, self.etype.as_u32())?;
        for (k, v) in self.attrs() {
            write!(f, " {}={}", k.as_u32(), v)?;
        }
        write!(f, "]")
    }
}

/// Builder for [`Event`], produced by [`Event::builder`].
#[derive(Debug, Clone)]
pub struct EventBuilder {
    seq: Seq,
    ts: Timestamp,
    etype: EventType,
    attrs: Attrs,
}

impl EventBuilder {
    /// Sets the sequence number (default 0; ingestion layers usually
    /// re-sequence).
    pub fn seq(mut self, seq: Seq) -> Self {
        self.seq = seq;
        self
    }

    /// Sets the timestamp.
    pub fn ts(mut self, ts: Timestamp) -> Self {
        self.ts = ts;
        self
    }

    /// Adds an attribute. Setting the same key twice replaces the value.
    pub fn attr(mut self, key: AttrKey, value: impl Into<Value>) -> Self {
        self.attrs.insert(key, value.into());
        self
    }

    /// Sets `key` to `value` in place, replacing an existing value: the
    /// decoder fills a builder attribute by attribute without moving it.
    pub(crate) fn insert(&mut self, key: AttrKey, value: Value) {
        self.attrs.insert(key, value);
    }

    /// Finishes the event.
    pub fn build(self) -> Event {
        Event {
            seq: self.seq,
            ts: self.ts,
            etype: self.etype,
            attrs: self.attrs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: Seq, ts: Timestamp) -> Event {
        Event::builder(EventType::new(0)).seq(seq).ts(ts).build()
    }

    #[test]
    fn attribute_lookup() {
        let a = AttrKey::new(5);
        let b = AttrKey::new(2);
        let e = Event::builder(EventType::new(1))
            .attr(a, 1.5)
            .attr(b, 7_i64)
            .build();
        assert_eq!(e.f64(a), Some(1.5));
        assert_eq!(e.f64(b), Some(7.0));
        assert_eq!(e.get(AttrKey::new(9)), None);
        assert_eq!(e.attr_count(), 2);
    }

    #[test]
    fn attrs_are_sorted_and_deduplicated() {
        let k = AttrKey::new(3);
        let e = Event::builder(EventType::new(0))
            .attr(AttrKey::new(9), 9_i64)
            .attr(k, 1_i64)
            .attr(k, 2_i64)
            .build();
        assert_eq!(e.attr_count(), 2);
        assert_eq!(e.get(k), Some(&Value::I64(2)));
        let keys: Vec<_> = e.attrs().map(|(k, _)| k.as_u32()).collect();
        assert_eq!(keys, vec![3, 9]);
    }

    #[test]
    fn ordering_is_ts_then_seq() {
        let a = ev(2, 100);
        let b = ev(1, 200);
        let c = ev(3, 100);
        assert!(a < b);
        assert!(a < c);
        assert!(c < b);
        let mut v = vec![b.clone(), c.clone(), a.clone()];
        v.sort();
        assert_eq!(v, vec![a, c, b]);
    }

    #[test]
    fn with_seq_only_changes_seq() {
        let e = Event::builder(EventType::new(2))
            .seq(1)
            .ts(9)
            .attr(AttrKey::new(0), 3.0)
            .build();
        let f = e.with_seq(77);
        assert_eq!(f.seq(), 77);
        assert_eq!(f.ts(), 9);
        assert_eq!(f.event_type(), e.event_type());
        assert_eq!(f.f64(AttrKey::new(0)), Some(3.0));
    }

    #[test]
    fn display_is_nonempty() {
        let e = ev(1, 2);
        assert!(e.to_string().contains("e1@2"));
    }
}
