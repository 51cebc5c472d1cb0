use std::collections::HashMap;
use std::fmt;

macro_rules! interned_id {
    ($(#[$meta:meta])* $name:ident, $repr:ty) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name($repr);

        impl $name {
            /// Creates an id from its raw numeric representation.
            ///
            /// Normally ids are produced by a [`Schema`]; this constructor
            /// exists for generators and tests that manage their own id
            /// spaces.
            pub const fn new(raw: $repr) -> Self {
                Self(raw)
            }

            /// Returns the raw numeric representation.
            pub const fn as_u32(self) -> u32 {
                self.0 as u32
            }

            /// Returns the raw representation as a usize, for dense indexing.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

interned_id!(
    /// Dense id of an attribute name (e.g. `closePrice`) within a [`Schema`].
    AttrKey,
    u16
);

interned_id!(
    /// Dense id of an event type name (e.g. `Quote`) within a [`Schema`].
    EventType,
    u16
);

interned_id!(
    /// Dense id of a stock / entity symbol within a [`Schema`].
    ///
    /// Symbols get their own id space (instead of reusing strings) because the
    /// paper's datasets contain thousands of symbols and predicates compare
    /// them on every event.
    SymbolId,
    u32
);

/// Interning registry for attribute names, event-type names and symbols.
///
/// A `Schema` is shared by the data generators, the query compiler and the
/// engines so that events carry only dense numeric ids. Interning the same
/// name twice returns the same id.
///
/// # Example
///
/// ```
/// use spectre_events::Schema;
/// let mut schema = Schema::new();
/// let a = schema.attr("closePrice");
/// assert_eq!(a, schema.attr("closePrice"));
/// assert_eq!(schema.attr_name(a), Some("closePrice"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Schema {
    attrs: Interner,
    event_types: Interner,
    symbols: Interner,
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns an attribute name and returns its key.
    ///
    /// # Panics
    ///
    /// Panics if more than `u16::MAX` attributes are interned.
    pub fn attr(&mut self, name: &str) -> AttrKey {
        AttrKey::new(self.attrs.intern(name) as u16)
    }

    /// Interns an event-type name.
    ///
    /// # Panics
    ///
    /// Panics if more than `u16::MAX` event types are interned.
    pub fn event_type(&mut self, name: &str) -> EventType {
        EventType::new(self.event_types.intern(name) as u16)
    }

    /// Interns a symbol name (e.g. a stock ticker).
    pub fn symbol(&mut self, name: &str) -> SymbolId {
        SymbolId::new(self.symbols.intern(name))
    }

    /// Looks up an attribute key without interning.
    pub fn lookup_attr(&self, name: &str) -> Option<AttrKey> {
        self.attrs.lookup(name).map(|i| AttrKey::new(i as u16))
    }

    /// Looks up an event type without interning.
    pub fn lookup_event_type(&self, name: &str) -> Option<EventType> {
        self.event_types
            .lookup(name)
            .map(|i| EventType::new(i as u16))
    }

    /// Looks up a symbol without interning.
    pub fn lookup_symbol(&self, name: &str) -> Option<SymbolId> {
        self.symbols.lookup(name).map(SymbolId::new)
    }

    /// Returns the name behind an attribute key.
    pub fn attr_name(&self, key: AttrKey) -> Option<&str> {
        self.attrs.name(key.index())
    }

    /// Returns the name behind an event type.
    pub fn event_type_name(&self, ty: EventType) -> Option<&str> {
        self.event_types.name(ty.index())
    }

    /// Returns the name behind a symbol id.
    pub fn symbol_name(&self, sym: SymbolId) -> Option<&str> {
        self.symbols.name(sym.index())
    }

    /// Number of interned symbols.
    pub fn symbol_count(&self) -> usize {
        self.symbols.len()
    }

    /// Number of interned event types.
    pub fn event_type_count(&self) -> usize {
        self.event_types.len()
    }

    /// Number of interned attributes.
    pub fn attr_count(&self) -> usize {
        self.attrs.len()
    }
}

#[derive(Debug, Clone, Default)]
struct Interner {
    names: Vec<String>,
    by_name: HashMap<String, u32>,
}

impl Interner {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("interner overflow");
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        id
    }

    fn lookup(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    fn name(&self, index: usize) -> Option<&str> {
        self.names.get(index).map(String::as_str)
    }

    fn len(&self) -> usize {
        self.names.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut s = Schema::new();
        let a = s.attr("openPrice");
        let b = s.attr("closePrice");
        assert_ne!(a, b);
        assert_eq!(a, s.attr("openPrice"));
        assert_eq!(s.attr_count(), 2);
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut s = Schema::new();
        assert_eq!(s.lookup_attr("x"), None);
        let x = s.attr("x");
        assert_eq!(s.lookup_attr("x"), Some(x));
        assert_eq!(s.attr_count(), 1);
    }

    #[test]
    fn separate_id_spaces() {
        let mut s = Schema::new();
        let t = s.event_type("Quote");
        let a = s.attr("Quote");
        let sym = s.symbol("Quote");
        assert_eq!(t.index(), 0);
        assert_eq!(a.index(), 0);
        assert_eq!(sym.index(), 0);
        assert_eq!(s.event_type_name(t), Some("Quote"));
        assert_eq!(s.symbol_name(sym), Some("Quote"));
    }

    #[test]
    fn names_round_trip() {
        let mut s = Schema::new();
        for i in 0..100 {
            let name = format!("SYM{i}");
            let id = s.symbol(&name);
            assert_eq!(s.symbol_name(id), Some(name.as_str()));
        }
        assert_eq!(s.symbol_count(), 100);
    }

    #[test]
    fn display_includes_raw_id() {
        assert_eq!(AttrKey::new(3).to_string(), "AttrKey(3)");
        assert_eq!(SymbolId::new(9).to_string(), "SymbolId(9)");
    }
}
