use std::borrow::Cow;
use std::fmt;

use spectre_events::{AttrKey, Event, EventType, Value};

use crate::pattern::ElemId;

/// Reference to the event an attribute is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemRef {
    /// The event currently being evaluated against a matcher.
    Current,
    /// The event bound earlier by the named pattern element.
    Bound(ElemId),
}

/// Binary operators of the expression language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Arithmetic `+`.
    Add,
    /// Arithmetic `-`.
    Sub,
    /// Arithmetic `*`.
    Mul,
    /// Arithmetic `/`.
    Div,
    /// Comparison `<`.
    Lt,
    /// Comparison `<=`.
    Le,
    /// Comparison `>`.
    Gt,
    /// Comparison `>=`.
    Ge,
    /// Comparison `==`.
    Eq,
    /// Comparison `!=`.
    Ne,
    /// Logical conjunction.
    And,
    /// Logical disjunction.
    Or,
}

/// Unary operators of the expression language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Logical negation.
    Not,
    /// Arithmetic negation.
    Neg,
}

/// A predicate / arithmetic expression over event attributes.
///
/// Expressions are evaluated against an [`EvalContext`] supplying the current
/// event and any earlier pattern bindings, e.g. the paper's
/// `REq.closePrice > REq.openPrice` (self-reference) or chart-pattern
/// constraints like `A.x > B.x` (cross-element reference, §5).
///
/// Evaluation is *total but optional*: a missing attribute, a reference to a
/// not-yet-bound element or a type mismatch yields `None`, and predicates
/// that evaluate to `None` are treated as *not satisfied* by the matcher.
/// This mirrors common CEP engine behaviour where malformed events simply do
/// not match.
///
/// # Example
///
/// ```
/// use spectre_events::{Event, Schema, Value};
/// use spectre_query::{Expr, EvalContext, ElemRef};
///
/// let mut schema = Schema::new();
/// let quote = schema.event_type("Quote");
/// let (open, close) = (schema.attr("open"), schema.attr("close"));
/// let rising = Expr::attr(ElemRef::Current, close).gt(Expr::attr(ElemRef::Current, open));
///
/// struct Ctx(Event);
/// impl EvalContext for Ctx {
///     fn current(&self) -> &Event { &self.0 }
///     fn bound(&self, _: spectre_query::ElemId) -> Option<&Event> { None }
/// }
///
/// let ev = Event::builder(quote).attr(open, 10.0).attr(close, 11.0).build();
/// assert_eq!(rising.eval_bool(&Ctx(ev)), Some(true));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Const(Value),
    /// An attribute read: `elem.attr`.
    Attr(ElemRef, AttrKey),
    /// Event-type test: `elem` is of the given type.
    TypeIs(ElemRef, EventType),
    /// Unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

/// Supplies events to expression evaluation: the event under test plus the
/// events bound by earlier pattern elements of the same partial match.
pub trait EvalContext {
    /// The event currently being evaluated.
    fn current(&self) -> &Event;
    /// The event bound by pattern element `elem`, if already bound.
    fn bound(&self, elem: ElemId) -> Option<&Event>;
}

// `add`/`sub`/`mul`/`div`/`not` are DSL combinators building AST nodes, not
// arithmetic on `Expr` values; implementing the `std::ops` traits instead
// would wrongly suggest the latter.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Literal constructor.
    pub fn value(v: impl Into<Value>) -> Expr {
        Expr::Const(v.into())
    }

    /// Attribute-read constructor.
    pub fn attr(elem: ElemRef, key: AttrKey) -> Expr {
        Expr::Attr(elem, key)
    }

    /// Attribute of the event currently under test.
    pub fn current(key: AttrKey) -> Expr {
        Expr::Attr(ElemRef::Current, key)
    }

    /// Constant `true`.
    pub fn truth() -> Expr {
        Expr::Const(Value::Bool(true))
    }

    /// `self < rhs`.
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Lt, Box::new(self), Box::new(rhs))
    }

    /// `self <= rhs`.
    pub fn le(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Le, Box::new(self), Box::new(rhs))
    }

    /// `self > rhs`.
    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Gt, Box::new(self), Box::new(rhs))
    }

    /// `self >= rhs`.
    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Ge, Box::new(self), Box::new(rhs))
    }

    /// `self == rhs`.
    pub fn eq_(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Eq, Box::new(self), Box::new(rhs))
    }

    /// `self != rhs`.
    pub fn ne_(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Ne, Box::new(self), Box::new(rhs))
    }

    /// Logical `self AND rhs`.
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::And, Box::new(self), Box::new(rhs))
    }

    /// Logical `self OR rhs`.
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Or, Box::new(self), Box::new(rhs))
    }

    /// Logical negation.
    pub fn not(self) -> Expr {
        Expr::Unary(UnaryOp::Not, Box::new(self))
    }

    /// Arithmetic `self + rhs`.
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Add, Box::new(self), Box::new(rhs))
    }

    /// Arithmetic `self - rhs`.
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Sub, Box::new(self), Box::new(rhs))
    }

    /// Arithmetic `self * rhs`.
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Mul, Box::new(self), Box::new(rhs))
    }

    /// Arithmetic `self / rhs`.
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::Binary(BinOp::Div, Box::new(self), Box::new(rhs))
    }

    /// Evaluates the expression; `None` signals a missing attribute, an
    /// unbound element reference or a type error.
    pub fn eval(&self, ctx: &dyn EvalContext) -> Option<Value> {
        match self {
            Expr::Const(v) => Some(v.clone()),
            Expr::Attr(elem, key) => self.resolve(ctx, *elem)?.get(*key).cloned(),
            Expr::TypeIs(elem, ty) => {
                Some(Value::Bool(self.resolve(ctx, *elem)?.event_type() == *ty))
            }
            Expr::Unary(op, inner) => {
                let v = inner.eval(ctx)?;
                match op {
                    UnaryOp::Not => Some(Value::Bool(!v.as_bool()?)),
                    UnaryOp::Neg => Some(Value::F64(-v.as_f64()?)),
                }
            }
            Expr::Binary(op, lhs, rhs) => {
                // Short-circuit logic; everything else is strict.
                match op {
                    BinOp::And => {
                        return if !lhs.eval(ctx)?.as_bool()? {
                            Some(Value::Bool(false))
                        } else {
                            Some(Value::Bool(rhs.eval(ctx)?.as_bool()?))
                        };
                    }
                    BinOp::Or => {
                        return if lhs.eval(ctx)?.as_bool()? {
                            Some(Value::Bool(true))
                        } else {
                            Some(Value::Bool(rhs.eval(ctx)?.as_bool()?))
                        };
                    }
                    _ => {}
                }
                let a = lhs.eval(ctx)?;
                let b = rhs.eval(ctx)?;
                match op {
                    BinOp::Add => Some(Value::F64(a.as_f64()? + b.as_f64()?)),
                    BinOp::Sub => Some(Value::F64(a.as_f64()? - b.as_f64()?)),
                    BinOp::Mul => Some(Value::F64(a.as_f64()? * b.as_f64()?)),
                    BinOp::Div => {
                        let d = b.as_f64()?;
                        if d == 0.0 {
                            None
                        } else {
                            Some(Value::F64(a.as_f64()? / d))
                        }
                    }
                    BinOp::Lt => Some(Value::Bool(a < b)),
                    BinOp::Le => Some(Value::Bool(a <= b)),
                    BinOp::Gt => Some(Value::Bool(a > b)),
                    BinOp::Ge => Some(Value::Bool(a >= b)),
                    BinOp::Eq => Some(Value::Bool(a == b)),
                    BinOp::Ne => Some(Value::Bool(a != b)),
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                }
            }
        }
    }

    /// Evaluates as a predicate; `None` on evaluation failure.
    pub fn eval_bool(&self, ctx: &dyn EvalContext) -> Option<bool> {
        self.eval(ctx)?.as_bool()
    }

    /// Returns `true` iff the predicate definitely holds (failures count as
    /// "does not match"): `eval_bool(ctx).unwrap_or(false)`, without
    /// copying a value.
    ///
    /// This is the matcher's per-event test. Attribute and literal operands
    /// of a comparison are compared in place through [`Value::cmp`], and
    /// the logical operators work on `Option<bool>` with `eval`'s
    /// short-circuit rules; only arithmetic operands are evaluated into
    /// fresh values.
    pub fn matches(&self, ctx: &dyn EvalContext) -> bool {
        self.test(ctx) == Some(true)
    }

    /// [`eval_bool`](Self::eval_bool) without materializing operands.
    fn test(&self, ctx: &dyn EvalContext) -> Option<bool> {
        match self {
            Expr::Const(v) => v.as_bool(),
            Expr::Attr(elem, key) => self.resolve(ctx, *elem)?.get(*key)?.as_bool(),
            Expr::TypeIs(elem, ty) => Some(self.resolve(ctx, *elem)?.event_type() == *ty),
            Expr::Unary(UnaryOp::Not, inner) => inner.test(ctx).map(|b| !b),
            // Negation and arithmetic yield numbers, never a boolean.
            Expr::Unary(UnaryOp::Neg, _) => None,
            Expr::Binary(op, lhs, rhs) => match op {
                BinOp::And => {
                    if lhs.test(ctx)? {
                        rhs.test(ctx)
                    } else {
                        Some(false)
                    }
                }
                BinOp::Or => {
                    if lhs.test(ctx)? {
                        Some(true)
                    } else {
                        rhs.test(ctx)
                    }
                }
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => None,
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => {
                    let (a, b) = (lhs.operand(ctx)?, rhs.operand(ctx)?);
                    let ord = a.as_ref().cmp(b.as_ref());
                    Some(match op {
                        BinOp::Lt => ord.is_lt(),
                        BinOp::Le => ord.is_le(),
                        BinOp::Gt => ord.is_gt(),
                        BinOp::Ge => ord.is_ge(),
                        BinOp::Eq => ord.is_eq(),
                        _ => ord.is_ne(),
                    })
                }
            },
        }
    }

    /// A comparison operand: literals and attributes by reference, anything
    /// else evaluated.
    fn operand<'c>(&'c self, ctx: &'c dyn EvalContext) -> Option<Cow<'c, Value>> {
        match self {
            Expr::Const(v) => Some(Cow::Borrowed(v)),
            Expr::Attr(elem, key) => self.resolve(ctx, *elem)?.get(*key).map(Cow::Borrowed),
            _ => self.eval(ctx).map(Cow::Owned),
        }
    }

    fn resolve<'c>(&self, ctx: &'c dyn EvalContext, elem: ElemRef) -> Option<&'c Event> {
        match elem {
            ElemRef::Current => Some(ctx.current()),
            ElemRef::Bound(id) => ctx.bound(id),
        }
    }

    /// Collects the element ids this expression reads via [`ElemRef::Bound`].
    pub fn referenced_elems(&self, out: &mut Vec<ElemId>) {
        match self {
            Expr::Const(_) => {}
            Expr::Attr(ElemRef::Bound(id), _) | Expr::TypeIs(ElemRef::Bound(id), _) => {
                if !out.contains(id) {
                    out.push(*id);
                }
            }
            Expr::Attr(_, _) | Expr::TypeIs(_, _) => {}
            Expr::Unary(_, e) => e.referenced_elems(out),
            Expr::Binary(_, a, b) => {
                a.referenced_elems(out);
                b.referenced_elems(out);
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Attr(ElemRef::Current, k) => write!(f, "self.a{}", k.as_u32()),
            Expr::Attr(ElemRef::Bound(id), k) => write!(f, "e{}.a{}", id.index(), k.as_u32()),
            Expr::TypeIs(_, ty) => write!(f, "type==ty{}", ty.as_u32()),
            Expr::Unary(UnaryOp::Not, e) => write!(f, "!({e})"),
            Expr::Unary(UnaryOp::Neg, e) => write!(f, "-({e})"),
            Expr::Binary(op, a, b) => {
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Lt => "<",
                    BinOp::Le => "<=",
                    BinOp::Gt => ">",
                    BinOp::Ge => ">=",
                    BinOp::Eq => "==",
                    BinOp::Ne => "!=",
                    BinOp::And => "AND",
                    BinOp::Or => "OR",
                };
                write!(f, "({a} {sym} {b})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectre_events::Schema;

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

    fn fixture() -> (Schema, AttrKey, AttrKey, Ctx) {
        let mut schema = Schema::new();
        let t = schema.event_type("Quote");
        let open = schema.attr("open");
        let close = schema.attr("close");
        let current = Event::builder(t)
            .seq(2)
            .attr(open, 10.0)
            .attr(close, 12.0)
            .build();
        let bound0 = Event::builder(t)
            .seq(1)
            .attr(open, 4.0)
            .attr(close, 8.0)
            .build();
        (
            schema,
            open,
            close,
            Ctx {
                current,
                bound: vec![Some(bound0), None],
            },
        )
    }

    #[test]
    fn arithmetic_and_comparison() {
        let (_s, open, close, ctx) = fixture();
        // close / open == 1.2
        let ratio = Expr::current(close).div(Expr::current(open));
        assert_eq!(ratio.eval(&ctx), Some(Value::F64(1.2)));
        let pred = ratio.gt(Expr::value(1.0));
        assert_eq!(pred.eval_bool(&ctx), Some(true));
    }

    #[test]
    fn cross_element_reference() {
        let (_s, _open, close, ctx) = fixture();
        let e0 = ElemId::new(0);
        // current.close > bound0.close  (12 > 8)
        let pred = Expr::current(close).gt(Expr::attr(ElemRef::Bound(e0), close));
        assert_eq!(pred.eval_bool(&ctx), Some(true));
    }

    #[test]
    fn unbound_reference_fails_softly() {
        let (_s, _open, close, ctx) = fixture();
        let pred = Expr::attr(ElemRef::Bound(ElemId::new(1)), close).gt(Expr::value(0.0));
        assert_eq!(pred.eval_bool(&ctx), None);
        assert!(!pred.matches(&ctx));
    }

    #[test]
    fn missing_attribute_fails_softly() {
        let (mut s, _open, _close, ctx) = fixture();
        let volume = s.attr("volume");
        let pred = Expr::current(volume).gt(Expr::value(0.0));
        assert_eq!(pred.eval_bool(&ctx), None);
    }

    #[test]
    fn division_by_zero_fails_softly() {
        let (_s, open, _close, ctx) = fixture();
        let expr = Expr::current(open).div(Expr::value(0.0));
        assert_eq!(expr.eval(&ctx), None);
    }

    #[test]
    fn short_circuit_and_or() {
        let (_s, _open, close, ctx) = fixture();
        let broken = Expr::attr(ElemRef::Bound(ElemId::new(1)), close).gt(Expr::value(0.0));
        // false AND broken == false (short-circuits)
        let e = Expr::value(false).and(broken.clone());
        assert_eq!(e.eval_bool(&ctx), Some(false));
        // true OR broken == true
        let e = Expr::value(true).or(broken.clone());
        assert_eq!(e.eval_bool(&ctx), Some(true));
        // true AND broken == None (strict where it matters)
        let e = Expr::value(true).and(broken);
        assert_eq!(e.eval_bool(&ctx), None);
    }

    #[test]
    fn not_and_neg() {
        let (_s, open, _close, ctx) = fixture();
        let e = Expr::value(true).not();
        assert_eq!(e.eval_bool(&ctx), Some(false));
        let e = Expr::Unary(UnaryOp::Neg, Box::new(Expr::current(open)));
        assert_eq!(e.eval(&ctx), Some(Value::F64(-10.0)));
    }

    #[test]
    fn type_test() {
        let (mut s, _open, _close, ctx) = fixture();
        let quote = s.event_type("Quote");
        let other = s.event_type("Other");
        assert_eq!(
            Expr::TypeIs(ElemRef::Current, quote).eval_bool(&ctx),
            Some(true)
        );
        assert_eq!(
            Expr::TypeIs(ElemRef::Current, other).eval_bool(&ctx),
            Some(false)
        );
    }

    #[test]
    fn referenced_elems_deduplicates() {
        let (_s, open, close, _ctx) = fixture();
        let e0 = ElemRef::Bound(ElemId::new(0));
        let expr = Expr::attr(e0, open)
            .gt(Expr::attr(e0, close))
            .and(Expr::attr(ElemRef::Bound(ElemId::new(3)), close).gt(Expr::value(1.0)));
        let mut out = Vec::new();
        expr.referenced_elems(&mut out);
        assert_eq!(out, vec![ElemId::new(0), ElemId::new(3)]);
    }

    #[test]
    fn display_round_trips_visually() {
        let (_s, open, close, _ctx) = fixture();
        let e = Expr::current(close).gt(Expr::current(open));
        assert_eq!(e.to_string(), "(self.a1 > self.a0)");
    }
}
