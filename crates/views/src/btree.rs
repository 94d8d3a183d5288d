//! The view B+-tree: entries sorted by (emitted key, doc id) under N1QL
//! collation, with a pre-computed [`Reduction`] cached in every node.
//!
//! This is the structure §4.3.3 describes: "A key characteristic of a view
//! index is that it stores the pre-computed aggregates defined in the
//! Reduce function as a part of the index tree. This allows for very fast
//! aggregation at query time" — a range reduction combines cached subtree
//! aggregates and only descends into partially-overlapping nodes, i.e.
//! O(log n) combines instead of O(rows).
//!
//! Every entry is tagged with its source vBucket, reproducing "information
//! about vBuckets is stored in the view B-tree itself. Using this
//! information, parts of a B-tree can be deactivated as needed" — queries
//! filter through an active-vBucket set during rebalance/failover. (With a
//! partial set the cached aggregates can't be used, so reductions fall back
//! to leaf-level accumulation; scans always filter exactly.)
//!
//! Deletion keeps the tree correct but rebalances lazily (underfull nodes
//! are tolerated, empty nodes removed) — the same trade-off couchstore
//! makes by deferring cleanup to compaction.

use std::cmp::Ordering;

use cbs_common::VbId;
use cbs_json::{cmp_values, Value};

use crate::reduce::{Reducer, Reduction};

/// Maximum entries per leaf / children per internal node before a split.
const MAX_NODE: usize = 32;

/// One row of a view index.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewEntry {
    /// Emitted key.
    pub key: Value,
    /// Source document ID.
    pub doc_id: String,
    /// Emitted value.
    pub value: Value,
    /// vBucket the source document lives in.
    pub vb: VbId,
}

/// Key-range selector for scans and reductions (bounds compare on the
/// emitted key only).
#[derive(Debug, Clone, Default)]
pub struct KeyRange {
    /// Lower bound.
    pub start: Option<Value>,
    /// Lower bound inclusive?
    pub start_inclusive: bool,
    /// Upper bound.
    pub end: Option<Value>,
    /// Upper bound inclusive?
    pub end_inclusive: bool,
}

impl KeyRange {
    /// Everything.
    pub fn all() -> KeyRange {
        KeyRange::default()
    }

    /// Exactly one key.
    pub fn exact(key: Value) -> KeyRange {
        KeyRange {
            start: Some(key.clone()),
            start_inclusive: true,
            end: Some(key),
            end_inclusive: true,
        }
    }

    /// `[start, end]` inclusive both ends (the paper's "starting with the
    /// provided key A and stopping on the last instance of a key B").
    pub fn between(start: Value, end: Value) -> KeyRange {
        KeyRange { start: Some(start), start_inclusive: true, end: Some(end), end_inclusive: true }
    }

    fn contains_key(&self, k: &Value) -> bool {
        if let Some(s) = &self.start {
            match cmp_values(k, s) {
                Ordering::Less => return false,
                Ordering::Equal if !self.start_inclusive => return false,
                _ => {}
            }
        }
        if let Some(e) = &self.end {
            match cmp_values(k, e) {
                Ordering::Greater => return false,
                Ordering::Equal if !self.end_inclusive => return false,
                _ => {}
            }
        }
        true
    }

    fn entirely_below(&self, max_key: &Value) -> bool {
        // Is the whole range below keys > max_key? i.e. nothing beyond this
        // child can match: end bound < ... handled by caller via ordering.
        match &self.end {
            Some(e) => cmp_values(max_key, e) == Ordering::Greater,
            None => false,
        }
    }
}

fn entry_cmp(k1: &Value, d1: &str, k2: &Value, d2: &str) -> Ordering {
    cmp_values(k1, k2).then_with(|| d1.cmp(d2))
}

enum Node {
    Leaf { entries: Vec<ViewEntry>, red: Reduction },
    Internal { children: Vec<Node>, red: Reduction },
}

impl Node {
    fn red(&self) -> Reduction {
        match self {
            Node::Leaf { red, .. } | Node::Internal { red, .. } => *red,
        }
    }

    fn len(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => entries.len(),
            Node::Internal { children, .. } => children.iter().map(Node::len).sum(),
        }
    }

    fn min_entry(&self) -> Option<(&Value, &str)> {
        match self {
            Node::Leaf { entries, .. } => entries.first().map(|e| (&e.key, e.doc_id.as_str())),
            Node::Internal { children, .. } => children.first().and_then(Node::min_entry),
        }
    }

    fn max_entry(&self) -> Option<(&Value, &str)> {
        match self {
            Node::Leaf { entries, .. } => entries.last().map(|e| (&e.key, e.doc_id.as_str())),
            Node::Internal { children, .. } => children.last().and_then(Node::max_entry),
        }
    }

    fn recompute_red(&mut self, reducer: Reducer) {
        match self {
            Node::Leaf { entries, red } => {
                *red = entries
                    .iter()
                    .map(|e| reducer.of_value(&e.value))
                    .fold(reducer.empty(), Reduction::combine);
            }
            Node::Internal { children, red } => {
                *red = children.iter().map(Node::red).fold(reducer.empty(), Reduction::combine);
            }
        }
    }

    /// Insert/replace; returns a new right sibling if this node split.
    fn insert(&mut self, entry: ViewEntry, reducer: Reducer) -> Option<Node> {
        match self {
            Node::Leaf { entries, .. } => {
                match entries
                    .binary_search_by(|e| entry_cmp(&e.key, &e.doc_id, &entry.key, &entry.doc_id))
                {
                    Ok(pos) => entries[pos] = entry,
                    Err(pos) => entries.insert(pos, entry),
                }
                let split = if entries.len() > MAX_NODE {
                    let right = entries.split_off(entries.len() / 2);
                    let mut right_node = Node::Leaf { entries: right, red: reducer.empty() };
                    right_node.recompute_red(reducer);
                    Some(right_node)
                } else {
                    None
                };
                self.recompute_red(reducer);
                split
            }
            Node::Internal { children, .. } => {
                // Descend into the first child whose max >= entry, else last.
                let idx = children
                    .iter()
                    .position(|c| {
                        c.max_entry().is_some_and(|(k, d)| {
                            entry_cmp(k, d, &entry.key, &entry.doc_id) != Ordering::Less
                        })
                    })
                    .unwrap_or(children.len() - 1);
                if let Some(new_right) = children[idx].insert(entry, reducer) {
                    children.insert(idx + 1, new_right);
                }
                let split = if children.len() > MAX_NODE {
                    let right = children.split_off(children.len() / 2);
                    let mut right_node = Node::Internal { children: right, red: reducer.empty() };
                    right_node.recompute_red(reducer);
                    Some(right_node)
                } else {
                    None
                };
                self.recompute_red(reducer);
                split
            }
        }
    }

    /// Remove by (key, doc_id); returns true if an entry was removed.
    fn remove(&mut self, key: &Value, doc_id: &str, reducer: Reducer) -> bool {
        let removed = match self {
            Node::Leaf { entries, .. } => {
                match entries.binary_search_by(|e| entry_cmp(&e.key, &e.doc_id, key, doc_id)) {
                    Ok(pos) => {
                        entries.remove(pos);
                        true
                    }
                    Err(_) => false,
                }
            }
            Node::Internal { children, .. } => {
                let mut removed = false;
                for i in 0..children.len() {
                    let past = children[i]
                        .max_entry()
                        .is_none_or(|(k, d)| entry_cmp(k, d, key, doc_id) != Ordering::Less);
                    if past {
                        removed = children[i].remove(key, doc_id, reducer);
                        if children[i].len() == 0 && children.len() > 1 {
                            children.remove(i);
                        }
                        break;
                    }
                }
                removed
            }
        };
        if removed {
            self.recompute_red(reducer);
        }
        removed
    }

    fn scan_into(&self, range: &KeyRange, active: Option<&[bool]>, out: &mut Vec<ViewEntry>) {
        match self {
            Node::Leaf { entries, .. } => {
                for e in entries {
                    if range.contains_key(&e.key)
                        && active.is_none_or(|set| set.get(e.vb.index()).copied().unwrap_or(false))
                    {
                        out.push(e.clone());
                    }
                }
            }
            Node::Internal { children, .. } => {
                for c in children {
                    let (Some((min_k, _)), Some((max_k, _))) = (c.min_entry(), c.max_entry())
                    else {
                        continue;
                    };
                    // Prune children entirely outside the range.
                    if let Some(s) = &range.start {
                        if cmp_values(max_k, s) == Ordering::Less {
                            continue;
                        }
                    }
                    if let Some(e) = &range.end {
                        if cmp_values(min_k, e) == Ordering::Greater {
                            break;
                        }
                    }
                    c.scan_into(range, active, out);
                    // Early exit if this child already covers past the end.
                    if range.entirely_below(max_k) {
                        break;
                    }
                }
            }
        }
    }

    fn reduce_range(
        &self,
        range: &KeyRange,
        active: Option<&[bool]>,
        reducer: Reducer,
    ) -> Reduction {
        match self {
            Node::Leaf { entries, .. } => entries
                .iter()
                .filter(|e| {
                    range.contains_key(&e.key)
                        && active.is_none_or(|set| set.get(e.vb.index()).copied().unwrap_or(false))
                })
                .map(|e| reducer.of_value(&e.value))
                .fold(reducer.empty(), Reduction::combine),
            Node::Internal { children, .. } => {
                let mut acc = reducer.empty();
                for c in children {
                    let (Some((min_k, _)), Some((max_k, _))) = (c.min_entry(), c.max_entry())
                    else {
                        continue;
                    };
                    if let Some(s) = &range.start {
                        if cmp_values(max_k, s) == Ordering::Less {
                            continue;
                        }
                    }
                    if let Some(e) = &range.end {
                        if cmp_values(min_k, e) == Ordering::Greater {
                            break;
                        }
                    }
                    // Fast path: subtree fully inside the range, and no
                    // vBucket filtering — use the pre-computed aggregate.
                    let fully_inside = range.contains_key(min_k) && range.contains_key(max_k);
                    if fully_inside && active.is_none() {
                        acc = acc.combine(c.red());
                    } else {
                        acc = acc.combine(c.reduce_range(range, active, reducer));
                    }
                }
                acc
            }
        }
    }

    fn depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Internal { children, .. } => 1 + children.first().map(Node::depth).unwrap_or(0),
        }
    }
}

/// The view index tree for one view on one node.
pub struct ViewBTree {
    root: Node,
    reducer: Reducer,
    entries: usize,
}

impl ViewBTree {
    /// New empty tree maintaining aggregates under `reducer`. Views without
    /// a reduce function pass [`Reducer::Count`] (cheap, always valid).
    pub fn new(reducer: Reducer) -> ViewBTree {
        ViewBTree {
            root: Node::Leaf { entries: Vec::new(), red: reducer.empty() },
            reducer,
            entries: 0,
        }
    }

    /// Insert (or replace) a row.
    pub fn insert(&mut self, entry: ViewEntry) {
        let is_replace = self.contains(&entry.key, &entry.doc_id);
        if let Some(new_right) = self.root.insert(entry, self.reducer) {
            // Root split: grow the tree by one level.
            let old_root = std::mem::replace(
                &mut self.root,
                Node::Internal { children: Vec::new(), red: self.reducer.empty() },
            );
            if let Node::Internal { children, .. } = &mut self.root {
                children.push(old_root);
                children.push(new_right);
            }
            self.root.recompute_red(self.reducer);
        }
        if !is_replace {
            self.entries += 1;
        }
    }

    /// Remove a row; true if it existed.
    pub fn remove(&mut self, key: &Value, doc_id: &str) -> bool {
        let removed = self.root.remove(key, doc_id, self.reducer);
        if removed {
            self.entries -= 1;
            // Shrink the root when it has a single child.
            while let Node::Internal { children, .. } = &mut self.root {
                if children.len() != 1 {
                    break;
                }
                let Some(only) = children.pop() else { break };
                self.root = only;
            }
        }
        removed
    }

    /// Is (key, doc_id) present?
    pub fn contains(&self, key: &Value, doc_id: &str) -> bool {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { entries, .. } => {
                    return entries
                        .binary_search_by(|e| entry_cmp(&e.key, &e.doc_id, key, doc_id))
                        .is_ok();
                }
                Node::Internal { children, .. } => {
                    let next = children.iter().find(|c| {
                        c.max_entry()
                            .is_some_and(|(k, d)| entry_cmp(k, d, key, doc_id) != Ordering::Less)
                    });
                    match next {
                        Some(c) => node = c,
                        None => return false,
                    }
                }
            }
        }
    }

    /// Ordered range scan. `active` restricts results to entries from
    /// active vBuckets (rebalance consistency); `None` = no filtering.
    pub fn scan(&self, range: &KeyRange, active: Option<&[bool]>) -> Vec<ViewEntry> {
        let mut out = Vec::new();
        self.root.scan_into(range, active, &mut out);
        out
    }

    /// Range reduction using cached subtree aggregates where possible.
    pub fn reduce(&self, range: &KeyRange, active: Option<&[bool]>) -> Reduction {
        self.root.reduce_range(range, active, self.reducer)
    }

    /// Total aggregate (O(1): the root's cached reduction).
    pub fn total_reduction(&self) -> Reduction {
        self.root.red()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Tree depth (diagnostics).
    pub fn depth(&self) -> usize {
        self.root.depth()
    }

    /// The reducer this tree maintains.
    pub fn reducer(&self) -> Reducer {
        self.reducer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(k: i64, doc: &str, v: i64) -> ViewEntry {
        ViewEntry {
            key: Value::int(k),
            doc_id: doc.to_string(),
            value: Value::int(v),
            vb: VbId((k % 4) as u16),
        }
    }

    #[test]
    fn insert_scan_ordered() {
        let mut t = ViewBTree::new(Reducer::Count);
        for k in (0..200).rev() {
            t.insert(entry(k, &format!("d{k}"), k));
        }
        assert_eq!(t.len(), 200);
        assert!(t.depth() > 1, "should have split");
        let all = t.scan(&KeyRange::all(), None);
        let keys: Vec<i64> = all.iter().map(|e| e.key.as_i64().unwrap()).collect();
        let expected: Vec<i64> = (0..200).collect();
        assert_eq!(keys, expected);
    }

    #[test]
    fn range_scan_bounds() {
        let mut t = ViewBTree::new(Reducer::Count);
        for k in 0..100 {
            t.insert(entry(k, &format!("d{k}"), 1));
        }
        let r = t.scan(&KeyRange::between(Value::int(10), Value::int(20)), None);
        assert_eq!(r.len(), 11);
        let r = t.scan(
            &KeyRange {
                start: Some(Value::int(10)),
                start_inclusive: false,
                end: Some(Value::int(20)),
                end_inclusive: false,
            },
            None,
        );
        assert_eq!(r.len(), 9);
        let r = t.scan(&KeyRange::exact(Value::int(42)), None);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn replace_same_key_doc() {
        let mut t = ViewBTree::new(Reducer::Sum);
        t.insert(entry(1, "d", 10));
        t.insert(entry(1, "d", 99));
        assert_eq!(t.len(), 1);
        assert_eq!(t.total_reduction(), Reduction::Sum(99.0));
    }

    #[test]
    fn duplicate_keys_different_docs() {
        let mut t = ViewBTree::new(Reducer::Count);
        for i in 0..50 {
            t.insert(ViewEntry {
                key: Value::from("same"),
                doc_id: format!("d{i}"),
                value: Value::Null,
                vb: VbId(0),
            });
        }
        assert_eq!(t.scan(&KeyRange::exact(Value::from("same")), None).len(), 50);
    }

    #[test]
    fn remove_and_shrink() {
        let mut t = ViewBTree::new(Reducer::Count);
        for k in 0..300 {
            t.insert(entry(k, &format!("d{k}"), 1));
        }
        for k in 0..300 {
            assert!(t.remove(&Value::int(k), &format!("d{k}")), "remove {k}");
        }
        assert!(t.is_empty());
        assert_eq!(t.total_reduction(), Reduction::Count(0));
        assert!(!t.remove(&Value::int(0), "d0"), "double remove is false");
        // Tree still usable.
        t.insert(entry(5, "d5", 1));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn precomputed_range_reduce_matches_scan() {
        let mut t = ViewBTree::new(Reducer::Sum);
        for k in 0..500 {
            t.insert(entry(k, &format!("d{k}"), k));
        }
        let range = KeyRange::between(Value::int(100), Value::int(399));
        let fast = t.reduce(&range, None);
        let slow: f64 = t.scan(&range, None).iter().map(|e| e.value.as_f64().unwrap()).sum();
        assert_eq!(fast, Reduction::Sum(slow));
        assert_eq!(slow, (100..=399).sum::<i64>() as f64);
    }

    #[test]
    fn total_reduction_is_o1_and_correct() {
        let mut t = ViewBTree::new(Reducer::Stats);
        for k in 1..=100 {
            t.insert(entry(k, &format!("d{k}"), k));
        }
        match t.total_reduction() {
            Reduction::Stats { sum, count, min, max, .. } => {
                assert_eq!(sum, 5050.0);
                assert_eq!(count, 100);
                assert_eq!(min, Some(1.0));
                assert_eq!(max, Some(100.0));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn vbucket_filtering_on_scan_and_reduce() {
        let mut t = ViewBTree::new(Reducer::Count);
        for k in 0..100 {
            t.insert(entry(k, &format!("d{k}"), 1)); // vb = k % 4
        }
        // Only vb 0 and 2 active.
        let active = vec![true, false, true, false];
        let rows = t.scan(&KeyRange::all(), Some(&active));
        assert_eq!(rows.len(), 50);
        assert!(rows.iter().all(|e| e.vb.0 % 2 == 0));
        let red = t.reduce(&KeyRange::all(), Some(&active));
        assert_eq!(red, Reduction::Count(50));
        // Without filtering everything comes back.
        assert_eq!(t.reduce(&KeyRange::all(), None), Reduction::Count(100));
    }

    #[test]
    fn mixed_type_keys_collate() {
        let mut t = ViewBTree::new(Reducer::Count);
        let keys = [
            Value::Null,
            Value::Bool(true),
            Value::int(5),
            Value::from("str"),
            Value::Array(vec![Value::int(1)]),
        ];
        for (i, k) in keys.iter().enumerate() {
            t.insert(ViewEntry {
                key: k.clone(),
                doc_id: format!("d{i}"),
                value: Value::Null,
                vb: VbId(0),
            });
        }
        let all = t.scan(&KeyRange::all(), None);
        let got: Vec<&Value> = all.iter().map(|e| &e.key).collect();
        assert_eq!(got, keys.iter().collect::<Vec<_>>(), "type-ranked order");
    }

    #[test]
    fn randomized_against_model() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut tree = ViewBTree::new(Reducer::Sum);
        let mut model: std::collections::BTreeMap<(i64, String), i64> = Default::default();
        for _ in 0..3000 {
            let k = rng.gen_range(0..100i64);
            let d = format!("d{}", rng.gen_range(0..50));
            if rng.gen_bool(0.7) {
                let v = rng.gen_range(0..1000i64);
                tree.insert(entry_kdv(k, &d, v));
                model.insert((k, d), v);
            } else {
                let removed = tree.remove(&Value::int(k), &d);
                assert_eq!(removed, model.remove(&(k, d)).is_some());
            }
        }
        assert_eq!(tree.len(), model.len());
        let scanned = tree.scan(&KeyRange::all(), None);
        let model_sum: i64 = model.values().sum();
        assert_eq!(tree.total_reduction(), Reduction::Sum(model_sum as f64));
        assert_eq!(scanned.len(), model.len());
        // Spot-check a range.
        let range = KeyRange::between(Value::int(25), Value::int(75));
        let model_range_sum: i64 =
            model.iter().filter(|((k, _), _)| (25..=75).contains(k)).map(|(_, v)| v).sum();
        assert_eq!(tree.reduce(&range, None), Reduction::Sum(model_range_sum as f64));
    }

    fn entry_kdv(k: i64, doc: &str, v: i64) -> ViewEntry {
        ViewEntry {
            key: Value::int(k),
            doc_id: doc.to_string(),
            value: Value::int(v),
            vb: VbId((k % 4) as u16),
        }
    }
}
