//! Index definitions and scan vocabulary.

use std::cmp::Ordering;

use cbs_common::SeqNo;
use cbs_json::{cmp_missing, cmp_str, cmp_values, JsonPath, Value};

/// An index key expression — what `CREATE INDEX ... ON bucket(expr)`
/// extracts from each document.
#[derive(Debug, Clone, PartialEq)]
pub enum KeyExpr {
    /// A field path (`email`, `address.city`).
    Path(JsonPath),
    /// Every element of an array-valued path — the §6.1.2 array index
    /// (`DISTINCT ARRAY v FOR v IN categories END`): one index entry per
    /// element.
    ArrayElements(JsonPath),
    /// The document ID itself (`META().id`) — what a PRIMARY INDEX uses.
    DocId,
}

impl KeyExpr {
    /// Evaluate against a document; `None` is MISSING.
    pub fn eval(&self, doc_id: &str, doc: &Value) -> Option<Value> {
        match self {
            KeyExpr::Path(p) => p.eval_cloned(doc),
            KeyExpr::ArrayElements(p) => p.eval_cloned(doc),
            KeyExpr::DocId => Some(Value::from(doc_id)),
        }
    }
}

/// How a partition holds its entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One `(key, doc id)` pair per key a document has: a secondary index.
    Keys,
    /// The document ids alone, for an index whose only key is the id (a
    /// primary index): each entry's key is [`IndexKey::ID`].
    Ids,
}

/// Comparison operator for partial-index filters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// One conjunct of a partial-index `WHERE` clause (§3.3.4: "selective
/// indexes").
#[derive(Debug, Clone, PartialEq)]
pub struct FilterCond {
    /// Field path.
    pub path: JsonPath,
    /// Comparison.
    pub op: FilterOp,
    /// Literal to compare against.
    pub value: Value,
}

impl FilterCond {
    /// Does `doc` satisfy this condition? MISSING fields never match.
    pub fn matches(&self, doc: &Value) -> bool {
        let Some(actual) = self.path.eval(doc) else { return false };
        let ord = cmp_values(actual, &self.value);
        match self.op {
            FilterOp::Eq => ord == Ordering::Equal,
            FilterOp::Ne => ord != Ordering::Equal,
            FilterOp::Lt => ord == Ordering::Less,
            FilterOp::Le => ord != Ordering::Greater,
            FilterOp::Gt => ord == Ordering::Greater,
            FilterOp::Ge => ord != Ordering::Less,
        }
    }
}

/// Index storage mode (§6.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexStorage {
    /// Disk-backed: what every batch changes is committed to a compacted
    /// log before it is applied (the "standard GSI").
    #[default]
    Standard,
    /// "These new indexes will reside completely in memory, dramatically
    /// reducing dependence on disk. Recoverability is provided via
    /// disk-backups" — no per-batch sync; periodic snapshot only.
    MemoryOptimized,
}

/// A complete index definition.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexDef {
    /// Index name (unique per keyspace).
    pub name: String,
    /// The bucket/keyspace it indexes.
    pub keyspace: String,
    /// Composite key expressions, leading key first.
    pub keys: Vec<KeyExpr>,
    /// Partial-index filter (conjunction); empty = index everything.
    pub filter: Vec<FilterCond>,
    /// Storage mode.
    pub storage: IndexStorage,
    /// True for `CREATE PRIMARY INDEX` (§3.3.3).
    pub primary: bool,
    /// `WITH {"defer_build": true}`: created but not built until an
    /// explicit BUILD INDEX.
    pub deferred: bool,
    /// Range-partition split points on the leading key; empty = single
    /// partition. With k split points there are k+1 partitions.
    pub partition_splits: Vec<Value>,
}

impl IndexDef {
    /// A plain single-key secondary index over a literal path (tests,
    /// benches, examples). Panics on a malformed path: every caller passes
    /// a string literal; `CREATE INDEX` text goes through the N1QL parser
    /// and `cbs_json::parse_path`'s `Result` instead.
    #[allow(clippy::expect_used)]
    pub fn simple(name: &str, keyspace: &str, path: &str) -> IndexDef {
        IndexDef {
            name: name.to_string(),
            keyspace: keyspace.to_string(),
            keys: vec![KeyExpr::Path(cbs_json::parse_path(path).expect("valid path"))],
            filter: Vec::new(),
            storage: IndexStorage::Standard,
            primary: false,
            deferred: false,
            partition_splits: Vec::new(),
        }
    }

    /// A primary index (doc IDs).
    pub fn primary(name: &str, keyspace: &str) -> IndexDef {
        IndexDef {
            name: name.to_string(),
            keyspace: keyspace.to_string(),
            keys: vec![KeyExpr::DocId],
            filter: Vec::new(),
            storage: IndexStorage::Standard,
            primary: true,
            deferred: false,
            partition_splits: Vec::new(),
        }
    }

    /// Whether projecting a document reads its body: false only for keys
    /// over the document ID alone with no filter (a primary index).
    pub fn reads_body(&self) -> bool {
        !self.filter.is_empty() || self.keys.iter().any(|k| *k != KeyExpr::DocId)
    }

    /// How this index's partitions hold their entries: an index over the
    /// document id alone keeps just the ids.
    pub fn layout(&self) -> Layout {
        if self.keys == [KeyExpr::DocId] {
            Layout::Ids
        } else {
            Layout::Keys
        }
    }

    /// Number of range partitions.
    pub fn num_partitions(&self) -> usize {
        self.partition_splits.len() + 1
    }

    /// Which partition a leading-key value belongs to.
    pub fn partition_for(&self, leading: Option<&Value>) -> usize {
        let Some(v) = leading else { return 0 };
        self.partition_splits
            .iter()
            .position(|split| cmp_missing(Some(v), Some(split)) == Ordering::Less)
            .unwrap_or(self.partition_splits.len())
    }
}

/// A composite index key. Elements are `Option<Value>` so a MISSING
/// trailing component keeps its collation position *below* `null`
/// (`Option`'s derived order — `None < Some` — matches exactly).
#[derive(Debug, Clone, PartialEq)]
pub struct IndexKey(pub Vec<Option<Value>>);

impl Eq for IndexKey {}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> Ordering {
        for (a, b) in self.0.iter().zip(other.0.iter()) {
            let c = cmp_missing(a.as_ref(), b.as_ref());
            if c != Ordering::Equal {
                return c;
            }
        }
        self.0.len().cmp(&other.0.len())
    }
}

impl IndexKey {
    /// The key of an entry of an index over the id alone ([`Layout::Ids`]):
    /// no component, as the entry's document id is its key.
    pub const ID: IndexKey = IndexKey(Vec::new());

    /// The leading (first) component.
    pub fn leading(&self) -> Option<&Value> {
        self.0.first().and_then(|o| o.as_ref())
    }
}

/// Range over the leading key of an index scan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScanRange {
    /// Lower bound on the leading key (`None` = unbounded).
    pub low: Option<Value>,
    /// Is the lower bound inclusive?
    pub low_inclusive: bool,
    /// Upper bound on the leading key (`None` = unbounded).
    pub high: Option<Value>,
    /// Is the upper bound inclusive?
    pub high_inclusive: bool,
}

impl ScanRange {
    /// Match everything.
    pub fn all() -> ScanRange {
        ScanRange::default()
    }

    /// Exactly one leading-key value.
    pub fn exact(v: Value) -> ScanRange {
        ScanRange { low: Some(v.clone()), low_inclusive: true, high: Some(v), high_inclusive: true }
    }

    /// `low <= k` (half-open upward).
    pub fn at_least(v: Value) -> ScanRange {
        ScanRange { low: Some(v), low_inclusive: true, high: None, high_inclusive: false }
    }

    /// Does a leading-key value fall inside the range? MISSING matches only
    /// fully-unbounded ranges (GSI does not serve MISSING leading keys at
    /// all; the indexer never stores them — see the projector).
    pub fn contains(&self, v: &Value) -> bool {
        self.above_low(|low| cmp_values(v, low)) && self.below_high(|high| cmp_values(v, high))
    }

    /// Does a document id, which collates as a string, fall inside the
    /// range? The leading key of an index over the id alone.
    pub fn contains_id(&self, id: &str) -> bool {
        self.above_low(|low| cmp_str(id, low)) && self.below_high(|high| cmp_str(id, high))
    }

    /// Whether a value that compares to the low bound as `vs_low` says is
    /// at or above it.
    pub(crate) fn above_low(&self, vs_low: impl FnOnce(&Value) -> Ordering) -> bool {
        self.low.as_ref().is_none_or(|low| match vs_low(low) {
            Ordering::Less => false,
            Ordering::Equal => self.low_inclusive,
            Ordering::Greater => true,
        })
    }

    /// Whether a value that compares to the high bound as `vs_high` says
    /// is at or below it.
    pub(crate) fn below_high(&self, vs_high: impl FnOnce(&Value) -> Ordering) -> bool {
        self.high.as_ref().is_none_or(|high| match vs_high(high) {
            Ordering::Less => true,
            Ordering::Equal => self.high_inclusive,
            Ordering::Greater => false,
        })
    }
}

/// Query-time consistency choice (§3.2.3).
#[derive(Debug, Clone, PartialEq)]
pub enum ScanConsistency {
    /// "Returns the query with the lowest latency [...] the query output
    /// can be arbitrarily out-of-date."
    NotBounded,
    /// "Requires all mutations, up to the moment of the query request, to
    /// be processed before query execution can begin": wait until the index
    /// has applied at least this per-vBucket seqno vector.
    AtPlus(Vec<SeqNo>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_json::parse_path;

    #[test]
    fn key_expr_eval() {
        let doc = cbs_json::parse(r#"{"a":{"b":2},"tags":["x","y"]}"#).unwrap();
        assert_eq!(
            KeyExpr::Path(parse_path("a.b").unwrap()).eval("id1", &doc),
            Some(Value::int(2))
        );
        assert_eq!(KeyExpr::Path(parse_path("nope").unwrap()).eval("id1", &doc), None);
        assert_eq!(KeyExpr::DocId.eval("id1", &doc), Some(Value::from("id1")));
    }

    #[test]
    fn filter_conditions() {
        let doc = cbs_json::parse(r#"{"age":30}"#).unwrap();
        let cond =
            |op, v: i64| FilterCond { path: parse_path("age").unwrap(), op, value: Value::int(v) };
        assert!(cond(FilterOp::Gt, 21).matches(&doc));
        assert!(!cond(FilterOp::Gt, 30).matches(&doc));
        assert!(cond(FilterOp::Ge, 30).matches(&doc));
        assert!(cond(FilterOp::Eq, 30).matches(&doc));
        assert!(cond(FilterOp::Ne, 29).matches(&doc));
        assert!(cond(FilterOp::Lt, 31).matches(&doc));
        assert!(cond(FilterOp::Le, 30).matches(&doc));
        // MISSING never matches.
        let missing = FilterCond {
            path: parse_path("absent").unwrap(),
            op: FilterOp::Ne,
            value: Value::int(0),
        };
        assert!(!missing.matches(&doc));
    }

    #[test]
    fn index_key_ordering_missing_below_null() {
        let missing = IndexKey(vec![Some(Value::int(1)), None]);
        let null = IndexKey(vec![Some(Value::int(1)), Some(Value::Null)]);
        assert!(missing < null);
        // Prefix ordering.
        let short = IndexKey(vec![Some(Value::int(1))]);
        assert!(short < missing);
    }

    #[test]
    fn scan_range_semantics() {
        let r = ScanRange {
            low: Some(Value::int(10)),
            low_inclusive: true,
            high: Some(Value::int(20)),
            high_inclusive: false,
        };
        assert!(!r.contains(&Value::int(9)));
        assert!(r.contains(&Value::int(10)));
        assert!(r.contains(&Value::int(19)));
        assert!(!r.contains(&Value::int(20)));
        assert!(ScanRange::all().contains(&Value::Null));
        assert!(ScanRange::exact(Value::from("x")).contains(&Value::from("x")));
        assert!(!ScanRange::exact(Value::from("x")).contains(&Value::from("y")));
        assert!(ScanRange::at_least(Value::from("m")).contains(&Value::from("z")));
    }

    #[test]
    fn partitioning() {
        let mut def = IndexDef::simple("i", "b", "age");
        def.partition_splits = vec![Value::int(10), Value::int(20)];
        assert_eq!(def.num_partitions(), 3);
        assert_eq!(def.partition_for(Some(&Value::int(5))), 0);
        assert_eq!(def.partition_for(Some(&Value::int(10))), 1, "split point goes right");
        assert_eq!(def.partition_for(Some(&Value::int(15))), 1);
        assert_eq!(def.partition_for(Some(&Value::int(25))), 2);
        assert_eq!(def.partition_for(None), 0);
    }
}
