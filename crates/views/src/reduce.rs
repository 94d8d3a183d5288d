//! Built-in reducers: `_count`, `_sum`, `_stats`.
//!
//! Reductions form a commutative monoid — [`Reduction::combine`] is
//! associative with [`Reduction::empty`] as identity — which is exactly
//! what lets the B-tree keep per-node partial aggregates and answer range
//! reductions by combining O(log n) node summaries.

use cbs_json::Value;

/// Which built-in reduce function a view uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reducer {
    /// `_count`: number of emitted rows.
    Count,
    /// `_sum`: numeric sum of emitted values (non-numbers count as 0).
    Sum,
    /// `_stats`: sum / count / min / max / sumsqr of emitted values.
    Stats,
}

/// A partial aggregate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reduction {
    /// Row count.
    Count(u64),
    /// Numeric sum.
    Sum(f64),
    /// Full stats tuple.
    Stats {
        /// Sum of values.
        sum: f64,
        /// Number of numeric rows.
        count: u64,
        /// Minimum (`None` until a number is seen).
        min: Option<f64>,
        /// Maximum.
        max: Option<f64>,
        /// Sum of squares.
        sumsqr: f64,
    },
}

impl Reducer {
    /// The identity element.
    pub fn empty(self) -> Reduction {
        match self {
            Reducer::Count => Reduction::Count(0),
            Reducer::Sum => Reduction::Sum(0.0),
            Reducer::Stats => {
                Reduction::Stats { sum: 0.0, count: 0, min: None, max: None, sumsqr: 0.0 }
            }
        }
    }

    /// The reduction of a single emitted row.
    pub fn of_value(self, v: &Value) -> Reduction {
        let n = v.as_f64();
        match self {
            Reducer::Count => Reduction::Count(1),
            Reducer::Sum => Reduction::Sum(n.unwrap_or(0.0)),
            Reducer::Stats => match n {
                Some(x) => {
                    Reduction::Stats { sum: x, count: 1, min: Some(x), max: Some(x), sumsqr: x * x }
                }
                None => self.empty(),
            },
        }
    }
}

impl Reduction {
    /// Combine two partial aggregates (associative, commutative).
    pub fn combine(self, other: Reduction) -> Reduction {
        match (self, other) {
            (Reduction::Count(a), Reduction::Count(b)) => Reduction::Count(a + b),
            (Reduction::Sum(a), Reduction::Sum(b)) => Reduction::Sum(a + b),
            (
                Reduction::Stats { sum: s1, count: c1, min: m1, max: x1, sumsqr: q1 },
                Reduction::Stats { sum: s2, count: c2, min: m2, max: x2, sumsqr: q2 },
            ) => Reduction::Stats {
                sum: s1 + s2,
                count: c1 + c2,
                min: opt_merge(m1, m2, f64::min),
                max: opt_merge(x1, x2, f64::max),
                sumsqr: q1 + q2,
            },
            (a, b) => panic!("cannot combine heterogeneous reductions: {a:?} vs {b:?}"),
        }
    }

    /// Read back what [`Reduction::to_value`] rendered (a count reads as a
    /// sum, which renders the same): how one node's partial is re-reduced
    /// with another's.
    pub fn from_value(v: &Value) -> Option<Reduction> {
        let f = |k: &str| v.get_field(k).and_then(Value::as_f64);
        match v {
            Value::Object(_) => Some(Reduction::Stats {
                sum: f("sum")?,
                count: f("count")? as u64,
                min: f("min"),
                max: f("max"),
                sumsqr: f("sumsqr")?,
            }),
            _ => v.as_f64().map(Reduction::Sum),
        }
    }

    /// Render as the JSON a view query returns.
    pub fn to_value(&self) -> Value {
        match self {
            Reduction::Count(n) => Value::from(*n),
            Reduction::Sum(s) => float_or_int(*s),
            Reduction::Stats { sum, count, min, max, sumsqr } => Value::object([
                ("sum", float_or_int(*sum)),
                ("count", Value::from(*count)),
                ("min", min.map(float_or_int).unwrap_or(Value::Null)),
                ("max", max.map(float_or_int).unwrap_or(Value::Null)),
                ("sumsqr", float_or_int(*sumsqr)),
            ]),
        }
    }
}

fn float_or_int(f: f64) -> Value {
    if f.fract() == 0.0 && f.abs() < 9e15 {
        Value::int(f as i64)
    } else {
        Value::float(f)
    }
}

fn opt_merge(a: Option<f64>, b: Option<f64>, f: fn(f64, f64) -> f64) -> Option<f64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(f(x, y)),
        (x, None) => x,
        (None, y) => y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_value_reads_back_what_to_value_renders() {
        let stats = |x| Reducer::Stats.of_value(&Value::float(x));
        let partials = [Reduction::Count(7), Reduction::Sum(3.5), stats(4.0).combine(stats(1.5))];
        for r in partials.iter().chain([&Reducer::Stats.empty()]) {
            let back = Reduction::from_value(&r.to_value()).map(|b| b.to_value().to_json_string());
            assert_eq!(back, Some(r.to_value().to_json_string()), "{r:?}");
        }
    }

    #[test]
    fn count_monoid() {
        let r = Reducer::Count;
        let total =
            [1, 2, 3].iter().map(|_| r.of_value(&Value::Null)).fold(r.empty(), Reduction::combine);
        assert_eq!(total, Reduction::Count(3));
        assert_eq!(total.to_value(), Value::int(3));
    }

    #[test]
    fn sum_ignores_non_numbers() {
        let r = Reducer::Sum;
        let total = [Value::int(5), Value::from("x"), Value::float(2.5)]
            .iter()
            .map(|v| r.of_value(v))
            .fold(r.empty(), Reduction::combine);
        assert_eq!(total, Reduction::Sum(7.5));
        assert_eq!(total.to_value(), Value::float(7.5));
    }

    #[test]
    fn stats_full() {
        let r = Reducer::Stats;
        let total = [3.0, 1.0, 2.0]
            .iter()
            .map(|&x| r.of_value(&Value::float(x)))
            .fold(r.empty(), Reduction::combine);
        match total {
            Reduction::Stats { sum, count, min, max, sumsqr } => {
                assert_eq!(sum, 6.0);
                assert_eq!(count, 3);
                assert_eq!(min, Some(1.0));
                assert_eq!(max, Some(3.0));
                assert_eq!(sumsqr, 14.0);
            }
            other => panic!("{other:?}"),
        }
        let v = total.to_value();
        assert_eq!(v.get_field("count"), Some(&Value::int(3)));
        assert_eq!(v.get_field("min"), Some(&Value::int(1)));
    }

    #[test]
    fn associativity() {
        let r = Reducer::Stats;
        let parts: Vec<Reduction> = (1..=6).map(|i| r.of_value(&Value::int(i))).collect();
        let left = parts.iter().copied().fold(r.empty(), Reduction::combine);
        let right = parts[..3]
            .iter()
            .copied()
            .fold(r.empty(), Reduction::combine)
            .combine(parts[3..].iter().copied().fold(r.empty(), Reduction::combine));
        assert_eq!(left, right);
    }

    #[test]
    fn integral_sums_render_as_ints() {
        assert_eq!(Reduction::Sum(4.0).to_value(), Value::int(4));
        assert_eq!(Reduction::Sum(4.5).to_value(), Value::float(4.5));
    }
}
