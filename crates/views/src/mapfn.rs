//! The map-function DSL.
//!
//! Substitutes for CouchDB-style JavaScript map functions (the engineering
//! of a JS runtime is orthogonal to the indexing architecture the paper
//! describes). A [`MapFn`] is: *guard conditions* (all must hold, like the
//! `if (...)` wrapping an `emit`) and one *emit* of a key expression plus an
//! optional value expression.
//!
//! The paper's example view:
//!
//! ```text
//! function(doc) { if (doc.name) { emit(doc.name, doc.email) } }
//! ```
//!
//! becomes:
//!
//! ```
//! use cbs_views::{MapCond, MapExpr, MapFn};
//! let profile_view = MapFn {
//!     when: vec![MapCond::Exists("name".parse().unwrap())],
//!     key: MapExpr::field("name"),
//!     value: Some(MapExpr::field("email")),
//! };
//! let doc = cbs_json::parse(r#"{"name":"Dipti","email":"d@couchbase.com"}"#).unwrap();
//! let emitted = profile_view.map("borkar123", &doc).unwrap();
//! assert_eq!(emitted.0, cbs_json::Value::from("Dipti"));
//! ```

use std::cmp::Ordering;

use cbs_json::{cmp_values, JsonPath, PathStep, Value};

/// An emit expression.
#[derive(Debug, Clone, PartialEq)]
pub enum MapExpr {
    /// A document field path.
    Path(JsonPath),
    /// The document's ID (`meta.id`).
    DocId,
    /// A literal.
    Const(Value),
    /// A composite array key `[expr, expr, ...]` (CouchDB's common idiom
    /// for multi-component view keys).
    Composite(Vec<MapExpr>),
    /// The whole document.
    WholeDoc,
}

impl MapExpr {
    /// Shorthand for a field path expression over a literal path. Panics on
    /// a malformed path: callers pass string literals (tests, examples);
    /// anything else builds `MapExpr::Path` from `cbs_json::parse_path`'s
    /// `Result`.
    #[allow(clippy::expect_used)]
    pub fn field(path: &str) -> MapExpr {
        MapExpr::Path(cbs_json::parse_path(path).expect("valid path"))
    }

    /// Evaluate; `None` = MISSING.
    pub fn eval(&self, doc_id: &str, doc: &Value) -> Option<Value> {
        match self {
            MapExpr::Path(p) => p.eval_cloned(doc),
            MapExpr::DocId => Some(Value::from(doc_id)),
            MapExpr::Const(v) => Some(v.clone()),
            MapExpr::WholeDoc => Some(doc.clone()),
            MapExpr::Composite(parts) => {
                let vals: Vec<Value> =
                    parts.iter().map(|p| p.eval(doc_id, doc).unwrap_or(Value::Null)).collect();
                Some(Value::Array(vals))
            }
        }
    }
}

/// A guard condition.
#[derive(Debug, Clone, PartialEq)]
pub enum MapCond {
    /// The path resolves to something non-null (the JS truthiness idiom
    /// `if (doc.field)`).
    Exists(JsonPath),
    /// `path == literal` — the ubiquitous `if (doc.doc_type == "order")`
    /// pattern for mixed-type buckets.
    Eq(JsonPath, Value),
    /// `path != literal`.
    Ne(JsonPath, Value),
    /// `path > literal`.
    Gt(JsonPath, Value),
    /// `path < literal`.
    Lt(JsonPath, Value),
}

impl MapCond {
    /// Shorthand for the doc-type guard.
    pub fn doc_type(t: &str) -> MapCond {
        let path = JsonPath { steps: vec![PathStep::Field("doc_type".to_string())] };
        MapCond::Eq(path, Value::from(t))
    }

    /// Evaluate against a document.
    pub fn matches(&self, doc: &Value) -> bool {
        match self {
            MapCond::Exists(p) => {
                matches!(p.eval(doc), Some(v) if !v.is_null() && *v != Value::Bool(false))
            }
            MapCond::Eq(p, lit) => {
                matches!(p.eval(doc), Some(v) if cmp_values(v, lit) == Ordering::Equal)
            }
            MapCond::Ne(p, lit) => {
                matches!(p.eval(doc), Some(v) if cmp_values(v, lit) != Ordering::Equal)
            }
            MapCond::Gt(p, lit) => {
                matches!(p.eval(doc), Some(v) if cmp_values(v, lit) == Ordering::Greater)
            }
            MapCond::Lt(p, lit) => {
                matches!(p.eval(doc), Some(v) if cmp_values(v, lit) == Ordering::Less)
            }
        }
    }
}

/// A complete map function: guards plus one `emit(key, value)`.
#[derive(Debug, Clone, PartialEq)]
pub struct MapFn {
    /// All conditions must hold for the document to emit.
    pub when: Vec<MapCond>,
    /// The emitted key.
    pub key: MapExpr,
    /// The emitted value (`null` if absent — CouchDB's `emit(k, null)`).
    pub value: Option<MapExpr>,
}

impl MapFn {
    /// Index every document on one field (the CREATE INDEX ... USING VIEW
    /// shape from §3.3.1). A literal-path shorthand like [`MapExpr::field`],
    /// and panics like it.
    #[allow(clippy::expect_used)]
    pub fn on_field(path: &str) -> MapFn {
        MapFn {
            when: vec![MapCond::Exists(cbs_json::parse_path(path).expect("valid path"))],
            key: MapExpr::field(path),
            value: None,
        }
    }

    /// Apply to a document: `Some((key, value))` if it emits.
    pub fn map(&self, doc_id: &str, doc: &Value) -> Option<(Value, Value)> {
        if !self.when.iter().all(|c| c.matches(doc)) {
            return None;
        }
        let key = self.key.eval(doc_id, doc)?;
        let value = self
            .value
            .as_ref()
            .map(|e| e.eval(doc_id, doc).unwrap_or(Value::Null))
            .unwrap_or(Value::Null);
        Some((key, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Value {
        cbs_json::parse(
            r#"{"doc_type":"profile","name":"Dipti","email":"d@cb.com","age":30,"flag":false}"#,
        )
        .unwrap()
    }

    #[test]
    fn paper_profile_view() {
        let v = MapFn {
            when: vec![MapCond::Exists(cbs_json::parse_path("name").unwrap())],
            key: MapExpr::field("name"),
            value: Some(MapExpr::field("email")),
        };
        let (k, val) = v.map("borkar123", &doc()).unwrap();
        assert_eq!(k, Value::from("Dipti"));
        assert_eq!(val, Value::from("d@cb.com"));
        // A doc without `name` doesn't emit.
        assert!(v.map("x", &cbs_json::parse(r#"{"email":"e"}"#).unwrap()).is_none());
    }

    #[test]
    fn guards() {
        let d = doc();
        assert!(MapCond::doc_type("profile").matches(&d));
        assert!(!MapCond::doc_type("order").matches(&d));
        assert!(MapCond::Gt(cbs_json::parse_path("age").unwrap(), Value::int(21)).matches(&d));
        assert!(MapCond::Lt(cbs_json::parse_path("age").unwrap(), Value::int(40)).matches(&d));
        assert!(MapCond::Ne(cbs_json::parse_path("age").unwrap(), Value::int(0)).matches(&d));
        // JS-truthiness: false doesn't count as existing.
        assert!(!MapCond::Exists(cbs_json::parse_path("flag").unwrap()).matches(&d));
        assert!(!MapCond::Exists(cbs_json::parse_path("absent").unwrap()).matches(&d));
    }

    #[test]
    fn composite_keys_and_docid() {
        let v = MapFn {
            when: vec![],
            key: MapExpr::Composite(vec![MapExpr::field("doc_type"), MapExpr::field("age")]),
            value: Some(MapExpr::DocId),
        };
        let (k, val) = v.map("id9", &doc()).unwrap();
        assert_eq!(k, Value::Array(vec![Value::from("profile"), Value::int(30)]));
        assert_eq!(val, Value::from("id9"));
    }

    #[test]
    fn missing_key_means_no_emit() {
        let v = MapFn { when: vec![], key: MapExpr::field("nope"), value: None };
        assert!(v.map("d", &doc()).is_none());
    }

    #[test]
    fn on_field_helper() {
        let v = MapFn::on_field("email");
        let (k, val) = v.map("d", &doc()).unwrap();
        assert_eq!(k, Value::from("d@cb.com"));
        assert_eq!(val, Value::Null);
    }
}
