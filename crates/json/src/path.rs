//! Dotted-path navigation into JSON documents.
//!
//! Paths like `address.city` or `orders[0].items[-1].sku` are the common
//! currency of the view engine's map DSL, the GSI projector's index-key
//! expressions, and sub-document operations in the KV API (paper §3.2.2:
//! "These statements also support sub-document level lookups and updates").

use crate::value::Value;

/// One step of a [`JsonPath`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathStep {
    /// Descend into an object field.
    Field(String),
    /// Index into an array (negative counts from the end).
    Index(i64),
}

/// A parsed navigation path.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JsonPath {
    /// The sequence of steps, applied left to right.
    pub steps: Vec<PathStep>,
}

impl JsonPath {
    /// The empty path (identity).
    pub fn root() -> JsonPath {
        JsonPath { steps: Vec::new() }
    }

    /// Evaluate against a document. `None` means MISSING (a step did not
    /// resolve), which N1QL distinguishes from a present `null`.
    pub fn eval<'a>(&self, doc: &'a Value) -> Option<&'a Value> {
        let mut cur = doc;
        for step in &self.steps {
            cur = match step {
                PathStep::Field(name) => cur.get_field(name)?,
                PathStep::Index(i) => cur.get_index(*i)?,
            };
        }
        Some(cur)
    }

    /// Evaluate, then clone; MISSING maps to `None`.
    pub fn eval_cloned(&self, doc: &Value) -> Option<Value> {
        self.eval(doc).cloned()
    }

    /// Set the value at this path, creating intermediate objects for field
    /// steps as needed (sub-document `upsert` semantics). Fails (returns
    /// `false`) if a step requires indexing past the end of an array or
    /// descending through a non-container scalar.
    pub fn set(&self, doc: &mut Value, new: Value) -> bool {
        if self.steps.is_empty() {
            *doc = new;
            return true;
        }
        let mut cur = doc;
        for (i, step) in self.steps.iter().enumerate() {
            let last = i + 1 == self.steps.len();
            match step {
                PathStep::Field(name) => {
                    if !matches!(cur, Value::Object(_)) {
                        return false;
                    }
                    if cur.get_field(name).is_none() {
                        if last {
                            cur.insert_field(name, new);
                            return true;
                        }
                        cur.insert_field(name, Value::empty_object());
                    } else if last {
                        cur.insert_field(name, new);
                        return true;
                    }
                    let Value::Object(pairs) = cur else { unreachable!() };
                    let Some((_, next)) = pairs.iter_mut().find(|(k, _)| k == name) else {
                        return false;
                    };
                    cur = next;
                }
                PathStep::Index(idx) => {
                    let Value::Array(items) = cur else { return false };
                    let len = items.len() as i64;
                    let j = if *idx < 0 { len + idx } else { *idx };
                    if j < 0 || j >= len {
                        return false;
                    }
                    if last {
                        items[j as usize] = new;
                        return true;
                    }
                    cur = &mut items[j as usize];
                }
            }
        }
        unreachable!("loop returns on the last step")
    }

    /// Remove the value at this path. Returns the removed value, or `None`
    /// if the path did not resolve.
    pub fn remove(&self, doc: &mut Value) -> Option<Value> {
        let (last, prefix) = self.steps.split_last()?;
        let parent_path = JsonPath { steps: prefix.to_vec() };
        // Navigate mutably to the parent.
        let mut cur = doc;
        for step in &parent_path.steps {
            match step {
                PathStep::Field(name) => {
                    let Value::Object(pairs) = cur else { return None };
                    cur = &mut pairs.iter_mut().find(|(k, _)| k == name)?.1;
                }
                PathStep::Index(idx) => {
                    let Value::Array(items) = cur else { return None };
                    let len = items.len() as i64;
                    let j = if *idx < 0 { len + idx } else { *idx };
                    if j < 0 || j >= len {
                        return None;
                    }
                    cur = &mut items[j as usize];
                }
            }
        }
        match last {
            PathStep::Field(name) => cur.remove_field(name),
            PathStep::Index(idx) => {
                let Value::Array(items) = cur else { return None };
                let len = items.len() as i64;
                let j = if *idx < 0 { len + idx } else { *idx };
                if j < 0 || j >= len {
                    return None;
                }
                Some(items.remove(j as usize))
            }
        }
    }
}

impl std::str::FromStr for JsonPath {
    type Err = String;

    fn from_str(s: &str) -> Result<JsonPath, String> {
        parse_path(s)
    }
}

/// Parse a path expression: identifiers separated by dots, with optional
/// `[index]` subscripts. Backtick-quoted identifiers (`` `field.with.dots` ``)
/// are supported, matching N1QL identifier quoting.
pub fn parse_path(input: &str) -> Result<JsonPath, String> {
    let mut steps = Vec::new();
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let mut expect_field = true;
    while pos < bytes.len() {
        match bytes[pos] {
            b'.' => {
                if expect_field {
                    return Err(format!("unexpected '.' at {pos}"));
                }
                pos += 1;
                expect_field = true;
            }
            b'[' => {
                pos += 1;
                let start = pos;
                while pos < bytes.len() && bytes[pos] != b']' {
                    pos += 1;
                }
                if pos == bytes.len() {
                    return Err("unterminated '['".to_string());
                }
                let idx: i64 = input[start..pos]
                    .trim()
                    .parse()
                    .map_err(|_| format!("invalid array index at {start}"))?;
                steps.push(PathStep::Index(idx));
                pos += 1;
                expect_field = false;
            }
            b'`' => {
                if !expect_field {
                    return Err(format!("unexpected identifier at {pos}"));
                }
                pos += 1;
                let start = pos;
                while pos < bytes.len() && bytes[pos] != b'`' {
                    pos += 1;
                }
                if pos == bytes.len() {
                    return Err("unterminated '`'".to_string());
                }
                steps.push(PathStep::Field(input[start..pos].to_string()));
                pos += 1;
                expect_field = false;
            }
            _ => {
                if !expect_field {
                    return Err(format!("unexpected character at {pos}"));
                }
                let start = pos;
                while pos < bytes.len()
                    && bytes[pos] != b'.'
                    && bytes[pos] != b'['
                    && bytes[pos] != b'`'
                {
                    pos += 1;
                }
                let name = input[start..pos].trim();
                if name.is_empty() {
                    return Err(format!("empty path segment at {start}"));
                }
                steps.push(PathStep::Field(name.to_string()));
                expect_field = false;
            }
        }
    }
    if expect_field && !steps.is_empty() {
        return Err("path ends with '.'".to_string());
    }
    Ok(JsonPath { steps })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn doc() -> Value {
        parse(
            r#"{"name":"Dipti","address":{"city":"SF","zip":"94105"},
               "orders":[{"sku":"a1","qty":2},{"sku":"b2","qty":1}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn parse_and_eval() {
        let d = doc();
        assert_eq!(parse_path("name").unwrap().eval(&d), Some(&Value::from("Dipti")));
        assert_eq!(parse_path("address.city").unwrap().eval(&d), Some(&Value::from("SF")));
        assert_eq!(parse_path("orders[0].sku").unwrap().eval(&d), Some(&Value::from("a1")));
        assert_eq!(parse_path("orders[-1].sku").unwrap().eval(&d), Some(&Value::from("b2")));
        assert_eq!(parse_path("missing.field").unwrap().eval(&d), None);
        assert_eq!(parse_path("orders[9]").unwrap().eval(&d), None);
        assert_eq!(parse_path("name.sub").unwrap().eval(&d), None);
    }

    #[test]
    fn backtick_identifiers() {
        let d = Value::object([("weird.name", Value::int(1))]);
        assert_eq!(parse_path("`weird.name`").unwrap().eval(&d), Some(&Value::int(1)));
    }

    #[test]
    fn root_path_is_identity() {
        let d = doc();
        assert_eq!(JsonPath::root().eval(&d), Some(&d));
    }

    #[test]
    fn set_creates_intermediates() {
        let mut d = Value::empty_object();
        assert!(parse_path("a.b.c").unwrap().set(&mut d, Value::int(7)));
        assert_eq!(parse_path("a.b.c").unwrap().eval(&d), Some(&Value::int(7)));
        // Overwrite.
        assert!(parse_path("a.b.c").unwrap().set(&mut d, Value::int(8)));
        assert_eq!(parse_path("a.b.c").unwrap().eval(&d), Some(&Value::int(8)));
    }

    #[test]
    fn set_into_array() {
        let mut d = doc();
        assert!(parse_path("orders[1].qty").unwrap().set(&mut d, Value::int(5)));
        assert_eq!(parse_path("orders[1].qty").unwrap().eval(&d), Some(&Value::int(5)));
        // Out of range fails.
        assert!(!parse_path("orders[5].qty").unwrap().set(&mut d, Value::int(5)));
        // Cannot descend through a scalar.
        assert!(!parse_path("name.x").unwrap().set(&mut d, Value::int(1)));
    }

    #[test]
    fn remove_paths() {
        let mut d = doc();
        assert_eq!(parse_path("address.zip").unwrap().remove(&mut d), Some(Value::from("94105")));
        assert_eq!(parse_path("address.zip").unwrap().eval(&d), None);
        let removed = parse_path("orders[0]").unwrap().remove(&mut d).unwrap();
        assert_eq!(removed.get_field("sku"), Some(&Value::from("a1")));
        assert_eq!(d.get_field("orders").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(parse_path("nope").unwrap().remove(&mut d), None);
    }

    #[test]
    fn parse_errors() {
        for bad in [".a", "a..b", "a.", "a[", "a[x]", "`abc", "a`b`"] {
            assert!(parse_path(bad).is_err(), "{bad} should fail");
        }
    }
}
