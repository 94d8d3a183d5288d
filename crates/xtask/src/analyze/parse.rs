//! The analyzer's Rust front-end: a per-file item parser built on
//! `scan::mask`'s masked view (comments/strings blanked, positions
//! preserved, `#[cfg(test)]` regions mapped).
//!
//! It is deliberately *not* a real parser. It extracts exactly the model
//! the passes need — functions with their impl-type context, lock
//! acquisition sites, `let`-bound guard lifetimes, calls, and blocking
//! operations — using brace tracking plus local token heuristics. The
//! soundness caveats are documented in DESIGN.md §14; the teeth tests in
//! `analyze/mod.rs` pin the cases the heuristics must get right.

use crate::census::Tree;
use crate::scan::{Allow, Masked};

/// Filesystem namespace operations: calls that create, destroy, rename or
/// enumerate directory entries (as opposed to reading/writing an already
/// owned file handle, which the log and the vBucket indexes do under their
/// own locks by design). `GroupCommitWal::open{,_file}` and
/// `BucketLog::recover` are on the list because they open (and the latter
/// scans) a log file.
const FS_NAMESPACE_OPS: &[&str] = &[
    "File::open",
    "File::create",
    "OpenOptions::new",
    "fs::rename",
    "fs::remove_file",
    "fs::remove_dir_all",
    "fs::remove_dir",
    "fs::create_dir_all",
    "fs::create_dir",
    "fs::read_dir",
    "fs::copy",
    "fs::hard_link",
    "GroupCommitWal::open",
    "BucketLog::recover",
];

/// One parsed source file.
pub struct FileModel {
    pub rel: String,
    pub crate_name: String,
    pub tree: Tree,
    pub fns: Vec<FnModel>,
    /// Lock fields associated with a `rank::CONST` via an
    /// `OrderedMutex::new` / `OrderedRwLock::new` construction site.
    pub ranked_fields: Vec<RankedField>,
    /// Raw `Mutex::new` / `RwLock::new` construction sites outside
    /// `#[cfg(test)]` (the raw-lock pass; `Condvar` is exempt — it cannot
    /// be ranked and its seat mutex is what gets ranked).
    pub raw_ctors: Vec<RawCtor>,
    /// `field: Type` declarations — the light type map that lets
    /// `self.field.method(...)` resolve through the field's declared type
    /// instead of by bare method name.
    pub field_types: Vec<(String, String)>,
    /// The file's `lint:allow` directives.
    pub allows: Vec<Allow>,
}

#[derive(Debug)]
pub struct RankedField {
    /// The binding the lock lives in: a struct field name or `let` local.
    pub field: String,
    /// The `rank::` constant name passed to the constructor, or `None`
    /// when the rank is not a literal `rank::CONST` path (e.g. forwarded
    /// through a parameter — only `cbs_common::sync` itself does that).
    pub rank_const: Option<String>,
    pub line: usize,
}

#[derive(Debug)]
pub struct RawCtor {
    pub line: usize,
    /// What was constructed (`Mutex` / `RwLock`).
    pub what: &'static str,
}

/// One function body and the ordered lock-relevant events inside it.
pub struct FnModel {
    /// Bare name (`publish`).
    pub name: String,
    /// `Type::name` when defined inside an `impl` block.
    pub qual: Option<String>,
    pub line: usize,
    pub steps: Vec<Step>,
}

/// A guard live at some point, identified by the lock's field name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeldGuard {
    pub field: String,
    /// Line the guard was bound on.
    pub line: usize,
}

#[derive(Debug)]
pub enum Step {
    /// A `.lock()` / `.read()` / `.write()` on a known lock field.
    /// `held` is the set of let-bound guards live *before* this acquire.
    Acquire { field: String, line: usize, held: Vec<HeldGuard> },
    /// A call that may resolve to a workspace function.
    Call { callee: Callee, line: usize, held: Vec<HeldGuard> },
    /// A directly blocking operation: fs namespace op, sleep, condvar wait.
    Blocking { what: String, line: usize, held: Vec<HeldGuard> },
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `foo(...)` — resolved by name within the defining crate.
    Bare(String),
    /// `recv.foo(...)` — receiver type unknown. `via_field` carries the
    /// field name when the receiver is `self.<field>` (resolved through
    /// the field's declared type); `chained` marks receivers that are
    /// themselves chains or call results, for which same-crate-by-name
    /// resolution is unreliable and only the unique-crate fallback runs.
    Method { name: String, via_field: Option<String>, chained: bool },
    /// `Type::foo(...)` — resolved against impl blocks workspace-wide.
    Qual { ty: String, func: String },
    /// `cbs_xyz::...::foo(...)` — resolved into crate `xyz` by name.
    CratePath { krate: String, func: String },
}

/// Method names never treated as workspace calls: std collection/iterator
/// vocabulary that would otherwise link unrelated functions by name.
const SKIP_METHODS: &[&str] = &[
    "clone",
    "into",
    "to_string",
    "to_vec",
    "to_owned",
    "as_str",
    "as_ref",
    "as_bytes",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "expect",
    "map",
    "map_err",
    "and_then",
    "or_else",
    "ok_or",
    "ok_or_else",
    "ok",
    "err",
    "iter",
    "iter_mut",
    "into_iter",
    "chars",
    "lines",
    "split",
    "collect",
    "filter",
    "filter_map",
    "flat_map",
    "fold",
    "for_each",
    "push",
    "push_back",
    "push_front",
    "pop",
    "pop_front",
    "pop_back",
    "insert",
    "remove",
    "get",
    "get_mut",
    "entry",
    "contains",
    "contains_key",
    "keys",
    "values",
    "len",
    "is_empty",
    "first",
    "last",
    "next",
    "peek",
    "take",
    "replace",
    "extend",
    "retain",
    "drain",
    "clear",
    "sort",
    "sort_by",
    "sort_by_key",
    "dedup",
    "join",
    "send",
    "recv",
    "try_recv",
    "fetch_add",
    "fetch_sub",
    "load",
    "store",
    "swap",
    "elapsed",
    "min",
    "max",
    "abs",
    "starts_with",
    "ends_with",
    "trim",
    "cmp",
    "fmt",
    "finish",
    "position",
    "rposition",
    "any",
    "all",
    "find",
    "count",
    "enumerate",
    "zip",
    "rev",
    "skip",
    "chain",
    "cloned",
    "copied",
    "flatten",
    "is_dir",
    "is_file",
    "exists",
    "display",
    "to_path_buf",
    "file_name",
    // `.open(` is always the std OpenOptions builder in this codebase (a
    // direct FS_NAMESPACE_OPS blocking op already); workspace `open`
    // constructors are invoked as `Type::open(...)`, which still resolves.
    "open",
];

/// Callee names too polysemous to resolve (every type has them); calls to
/// them are dropped from the graph entirely. Constructors doing I/O are
/// still resolvable through their `Type::new(...)` qualified form.
const SKIP_BARE: &[&str] = &["default", "from", "drop", "new"];

/// Path heads that are never workspace crates.
const EXTERNAL_PATH_HEADS: &[&str] = &[
    "std",
    "core",
    "alloc",
    "crossbeam",
    "parking_lot",
    "rand",
    "proptest",
    "bytes",
    "Vec",
    "String",
    "Box",
    "Arc",
    "Rc",
    "Option",
    "Result",
    "Some",
    "Ok",
    "Err",
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
    "VecDeque",
    "Duration",
    "Instant",
    "PathBuf",
    "Ordering",
    "AtomicU64",
    "AtomicBool",
    "AtomicUsize",
];

/// Keywords an identifier-before-`(` can never be.
const KEYWORDS: &[&str] =
    &["if", "while", "for", "match", "loop", "return", "fn", "in", "as", "move", "else"];

/// Parse one masked file into its semantic model. `known_ranked` and
/// `known_raw` are consulted to decide whether a `.lock()` receiver is a
/// tracked lock; pass the fields discovered by [`scan_fields`] across the
/// whole crate first.
pub fn parse_file(
    rel: &str,
    crate_name: &str,
    tree: Tree,
    m: Masked,
    known_ranked: &[String],
    known_raw: &[String],
) -> FileModel {
    let (ranked_fields, _, raw_ctors) = scan_ctors(&m.lines, &m.test_lines);
    let field_types = scan_field_types(&m.lines, &m.test_lines);
    let fns = scan_fns(&m.lines, &m.test_lines, known_ranked, known_raw);
    FileModel {
        rel: rel.to_string(),
        crate_name: crate_name.to_string(),
        tree,
        fns,
        ranked_fields,
        raw_ctors,
        field_types,
        allows: m.allows,
    }
}

/// Type wrappers/containers skipped when extracting the payload type of a
/// `field: Type` declaration (`Arc<DataEngine>` → `DataEngine`).
const TYPE_WRAPPERS: &[&str] = &[
    "Arc",
    "Rc",
    "Box",
    "Weak",
    "Option",
    "Result",
    "Vec",
    "VecDeque",
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
    "String",
    "PathBuf",
    "Path",
    "Instant",
    "Duration",
    "Mutex",
    "RwLock",
    "OrderedMutex",
    "OrderedRwLock",
    "Condvar",
    "AtomicU64",
    "AtomicUsize",
    "AtomicBool",
    "AtomicU32",
    "Cell",
    "RefCell",
    "JoinHandle",
    "Sender",
    "Receiver",
    "Cas",
    "SeqNo",
    "VbId",
    "NodeId",
];

/// Best-effort `field_name -> TypeIdent` pairs from `ident: Type`-shaped
/// lines (struct fields and struct-literal fields; fn parameters on their
/// own lines also match, which only adds harmless extra candidates).
fn scan_field_types(lines: &[String], test_lines: &[bool]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if test_lines.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let t = line.trim();
        if t.contains("=>") {
            continue;
        }
        let t = t.strip_prefix("pub(crate) ").unwrap_or(t);
        let t = t.strip_prefix("pub ").unwrap_or(t);
        let Some(id) = ident_starting_at(t, 0) else { continue };
        if !id.chars().next().is_some_and(|c| c.is_lowercase() || c == '_') {
            continue;
        }
        let rest = t[id.len()..].trim_start();
        if !rest.starts_with(':') || rest.starts_with("::") {
            continue;
        }
        // Every uppercase-initial ident in the type/value expression that
        // isn't a known wrapper is a candidate payload type.
        let ty_expr = &rest[1..];
        let bytes = ty_expr.as_bytes();
        let mut i = 0;
        while i < ty_expr.len() {
            let c = bytes[i] as char;
            if c.is_uppercase() && (i == 0 || !is_ident_char(bytes[i - 1] as char)) {
                if let Some(ty) = ident_starting_at(ty_expr, i) {
                    if !TYPE_WRAPPERS.contains(&ty) {
                        let pair = (id.to_string(), ty.to_string());
                        if !out.contains(&pair) {
                            out.push(pair);
                        }
                    }
                    i += ty.len();
                    continue;
                }
            }
            i += 1;
        }
    }
    out
}

/// First pass over a crate's files: just the lock-field discovery, so
/// guard tracking in *other* files of the crate knows the field names.
pub fn scan_fields(m: &Masked) -> (Vec<RankedField>, Vec<String>) {
    let (ranked, raw, _) = scan_ctors(&m.lines, &m.test_lines);
    (ranked, raw)
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Read the identifier ending at byte offset `end` (exclusive) in `s`.
fn ident_ending_at(s: &str, end: usize) -> Option<&str> {
    let bytes = s.as_bytes();
    let mut start = end;
    while start > 0 && is_ident_char(bytes[start - 1] as char) {
        start -= 1;
    }
    if start == end {
        None
    } else {
        Some(&s[start..end])
    }
}

/// Read the identifier starting at byte offset `start` in `s`.
fn ident_starting_at(s: &str, start: usize) -> Option<&str> {
    let mut end = start;
    let bytes = s.as_bytes();
    while end < s.len() && is_ident_char(bytes[end] as char) {
        end += 1;
    }
    if end == start {
        None
    } else {
        Some(&s[start..end])
    }
}

/// Lock constructor scan: associate `OrderedMutex::new(rank::X, ...)` /
/// `OrderedRwLock::new(...)` sites with their owning binding, and record
/// raw `Mutex::new` / `RwLock::new` escapes.
fn scan_ctors(
    lines: &[String],
    test_lines: &[bool],
) -> (Vec<RankedField>, Vec<String>, Vec<RawCtor>) {
    // Work on the joined masked text so constructor argument scans can
    // cross line boundaries (rustfmt splits long constructor calls).
    let mut flat = String::new();
    let mut line_starts = Vec::with_capacity(lines.len());
    for l in lines {
        line_starts.push(flat.len());
        flat.push_str(l);
        flat.push('\n');
    }
    let line_of = |off: usize| match line_starts.binary_search(&off) {
        Ok(i) => i + 1,
        Err(i) => i, // i is the insertion point; the line index is i-1, 1-based i
    };

    let mut ranked = Vec::new();
    let mut raw_fields = Vec::new();
    let mut raw_ctors = Vec::new();

    for (needle, ordered, what) in [
        ("OrderedMutex::new(", true, "Mutex"),
        ("OrderedRwLock::new(", true, "RwLock"),
        ("Mutex::new(", false, "Mutex"),
        ("RwLock::new(", false, "RwLock"),
    ] {
        let mut from = 0;
        while let Some(p) = flat[from..].find(needle) {
            let at = from + p;
            from = at + needle.len();
            // Word boundary: `OrderedMutex::new(` also contains
            // `Mutex::new(`; require the char before to be a non-ident,
            // non-path continuation.
            if !ordered {
                let pre = &flat[..at];
                if pre.ends_with("Ordered") {
                    continue;
                }
                if let Some(c) = pre.chars().last() {
                    if is_ident_char(c) {
                        continue;
                    }
                }
            }
            let line = line_of(at);
            if test_lines.get(line - 1).copied().unwrap_or(false) {
                continue;
            }
            let binding = binding_before(&flat, at);
            if ordered {
                let rank_const = rank_const_in_args(&flat, at + needle.len());
                ranked.push(RankedField {
                    field: binding.clone().unwrap_or_else(|| "?".to_string()),
                    rank_const,
                    line,
                });
            } else {
                if let Some(b) = binding {
                    raw_fields.push(b);
                }
                raw_ctors.push(RawCtor { line, what });
            }
        }
    }
    (ranked, raw_fields, raw_ctors)
}

/// Find the `rank::CONST` constant inside the balanced argument list
/// starting at `open` (just past the `(`).
fn rank_const_in_args(flat: &str, args_start: usize) -> Option<String> {
    let bytes = flat.as_bytes();
    let mut depth = 1i32;
    let mut i = args_start;
    while i < flat.len() && depth > 0 {
        match bytes[i] as char {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            'r' if flat[i..].starts_with("rank::")
                && (i == 0 || !is_ident_char(bytes[i - 1] as char)) =>
            {
                return ident_starting_at(flat, i + "rank::".len()).map(str::to_string);
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// The binding a constructor call initializes: the nearest preceding
/// `ident:` (struct literal field) or `let [mut] ident =` within the
/// same statement, scanning backwards a bounded window.
fn binding_before(flat: &str, at: usize) -> Option<String> {
    let window_start = at.saturating_sub(300);
    let w = &flat[window_start..at];
    // Closest preceding `let [mut] ident =` or `ident:` wins. Scan
    // backwards over candidate positions.
    let mut best: Option<(usize, String)> = None;
    // `ident:` — a struct-literal or struct-definition field.
    for (i, c) in w.char_indices() {
        if c == ':' {
            // `::` path separators are not field labels.
            if w[..i].ends_with(':') || w[i + 1..].starts_with(':') {
                continue;
            }
            if let Some(id) = ident_ending_at(w, i) {
                if !KEYWORDS.contains(&id) {
                    best = match best {
                        Some((bi, b)) if bi > i => Some((bi, b)),
                        _ => Some((i, id.to_string())),
                    };
                }
            }
        }
    }
    // `let [mut] ident =`
    let mut from = 0;
    while let Some(p) = w[from..].find("let ") {
        let s = from + p;
        from = s + 4;
        let rest = w[s + 4..].trim_start();
        let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
        if let Some(id) = ident_starting_at(rest, 0) {
            let after = rest[id.len()..].trim_start();
            if after.starts_with('=') {
                best = match best {
                    Some((bi, b)) if bi > s => Some((bi, b)),
                    _ => Some((s, id.to_string())),
                };
            }
        }
    }
    // A statement boundary between the binding and the constructor breaks
    // the association (e.g. the previous field's `,` or `;`) — but only a
    // boundary *after* the candidate. Struct literals separate fields with
    // `,`, so accept the candidate only if no `;` and no unbalanced `,`
    // intervenes at nesting depth 0 relative to the candidate.
    let (bi, name) = best?;
    let between = &w[bi..];
    let mut depth = 0i32;
    for c in between.chars() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            ';' if depth <= 0 => return None,
            ',' if depth <= 0 => return None,
            _ => {}
        }
    }
    Some(name)
}

/// The structural pass: functions, guards, acquires, calls, blocking ops.
fn scan_fns(
    lines: &[String],
    test_lines: &[bool],
    known_ranked: &[String],
    known_raw: &[String],
) -> Vec<FnModel> {
    struct ActiveFn {
        model: FnModel,
        body_depth: i32,
        guards: Vec<Guard>,
    }
    struct Guard {
        binding: String,
        field: String,
        depth: i32,
        line: usize,
    }

    let mut depth = 0i32;
    let mut impl_stack: Vec<(String, i32)> = Vec::new();
    let mut fn_stack: Vec<ActiveFn> = Vec::new();
    let mut done: Vec<FnModel> = Vec::new();
    // A signature seen but whose body `{` has not arrived yet.
    let mut pending_fn: Option<(String, usize)> = None;
    let mut pending_impl: Option<String> = None;

    let is_lock_field =
        |f: &str| known_ranked.iter().any(|k| k == f) || known_raw.iter().any(|k| k == f);

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let in_test = test_lines.get(idx).copied().unwrap_or(false);

        // Find this line's tokens first (positions), then walk characters
        // so brace depth and guard lifetimes interleave correctly.
        let toks = if in_test { Vec::new() } else { line_tokens(line) };
        let mut tok_iter = toks.into_iter().peekable();

        // Signature starts (only meaningful outside test regions).
        if !in_test {
            if let Some(p) = find_kw(line, "impl") {
                if let Some(ty) = impl_type(&line[p..]) {
                    pending_impl = Some(ty);
                }
            }
            if let Some(p) = find_kw(line, "fn") {
                if let Some(name) = ident_starting_at(line, skip_ws(line, p + 2)) {
                    pending_fn = Some((name.to_string(), lineno));
                }
            }
        }

        for (ci, c) in line.char_indices() {
            // Emit tokens positioned before this character.
            while tok_iter.peek().is_some_and(|t| t.pos() <= ci) {
                let t = tok_iter.next().unwrap();
                apply_token(t, lineno, depth, &mut fn_stack, is_lock_field);
            }
            match c {
                '{' => {
                    depth += 1;
                    if let Some(ty) = pending_impl.take() {
                        impl_stack.push((ty, depth));
                        pending_fn = None;
                    } else if let Some((name, fline)) = pending_fn.take() {
                        let qual = impl_stack.last().map(|(t, _)| format!("{t}::{name}"));
                        fn_stack.push(ActiveFn {
                            model: FnModel { name, qual, line: fline, steps: Vec::new() },
                            body_depth: depth,
                            guards: Vec::new(),
                        });
                    }
                }
                '}' => {
                    depth -= 1;
                    while fn_stack.last().is_some_and(|f| depth < f.body_depth) {
                        let f = fn_stack.pop().unwrap();
                        // Nested fn steps belong to the nested fn only;
                        // the enclosing fn keeps its own.
                        done.push(f.model);
                    }
                    if let Some(f) = fn_stack.last_mut() {
                        f.guards.retain(|g| g.depth <= depth);
                    }
                    while impl_stack.last().is_some_and(|(_, d)| depth < *d) {
                        impl_stack.pop();
                    }
                }
                ';' => {
                    // A `;` at signature paren-depth cancels a bodyless
                    // trait-method declaration. (Paren nesting is not
                    // tracked; `fn` signatures in this repo do not carry
                    // `;` inside argument lists.)
                    pending_fn = None;
                }
                _ => {}
            }
        }
        for t in tok_iter {
            apply_token(t, lineno, depth, &mut fn_stack, is_lock_field);
        }
    }
    while let Some(f) = fn_stack.pop() {
        done.push(f.model);
    }
    done.sort_by_key(|f| f.line);
    return done;

    fn apply_token(
        t: Tok,
        lineno: usize,
        depth: i32,
        fn_stack: &mut [ActiveFn],
        is_lock_field: impl Fn(&str) -> bool,
    ) {
        let Some(f) = fn_stack.last_mut() else { return };
        let held: Vec<HeldGuard> =
            f.guards.iter().map(|g| HeldGuard { field: g.field.clone(), line: g.line }).collect();
        match t {
            Tok::Lock { pos: _, field, binding } => {
                if !is_lock_field(&field) {
                    return;
                }
                f.model.steps.push(Step::Acquire { field: field.clone(), line: lineno, held });
                if let Some(b) = binding {
                    f.guards.push(Guard { binding: b, field, depth, line: lineno });
                }
            }
            Tok::Drop { pos: _, binding } => {
                f.guards.retain(|g| g.binding != binding);
            }
            Tok::Call { pos: _, callee } => {
                f.model.steps.push(Step::Call { callee, line: lineno, held });
            }
            Tok::Blocking { pos: _, what, waive } => {
                let mut held = held;
                if let Some(w) = waive {
                    held.retain(|g| {
                        !f.guards.iter().any(|fg| fg.binding == w && fg.field == g.field)
                    });
                }
                f.model.steps.push(Step::Blocking { what, line: lineno, held });
            }
        }
    }
}

enum Tok {
    Lock { pos: usize, field: String, binding: Option<String> },
    Drop { pos: usize, binding: String },
    Call { pos: usize, callee: Callee },
    Blocking { pos: usize, what: String, waive: Option<String> },
}

impl Tok {
    fn pos(&self) -> usize {
        match self {
            Tok::Lock { pos, .. }
            | Tok::Drop { pos, .. }
            | Tok::Call { pos, .. }
            | Tok::Blocking { pos, .. } => *pos,
        }
    }
}

fn skip_ws(s: &str, mut i: usize) -> usize {
    let b = s.as_bytes();
    while i < s.len() && (b[i] as char).is_whitespace() {
        i += 1;
    }
    i
}

/// Position of keyword `kw` used as a word at the start of a statement-ish
/// context (preceded by start-of-line/whitespace/`(`), or None.
fn find_kw(line: &str, kw: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(p) = line[from..].find(kw) {
        let at = from + p;
        from = at + kw.len();
        let before_ok = at == 0 || !is_ident_char(line.as_bytes()[at - 1] as char);
        let after = at + kw.len();
        let after_ok = after < line.len() && (line.as_bytes()[after] as char).is_whitespace();
        if before_ok && after_ok {
            return Some(at);
        }
    }
    None
}

/// The self type of an `impl` header: `impl Foo {` → Foo,
/// `impl<T> Trait for Bar<T> {` → Bar.
fn impl_type(after_impl: &str) -> Option<String> {
    let s = after_impl.strip_prefix("impl")?;
    // Skip generic parameters.
    let s = s.trim_start();
    let s = if let Some(rest) = s.strip_prefix('<') {
        let mut depth = 1;
        let mut i = 0;
        let b = rest.as_bytes();
        while i < rest.len() && depth > 0 {
            match b[i] as char {
                '<' => depth += 1,
                '>' => depth -= 1,
                _ => {}
            }
            i += 1;
        }
        rest[i..].trim_start()
    } else {
        s
    };
    // `A for B` → B; otherwise A. Take the segment before `{`/`where`.
    let head = s.split('{').next().unwrap_or(s);
    let head = head.split(" where").next().unwrap_or(head);
    let target = match head.find(" for ") {
        Some(p) => &head[p + 5..],
        None => head,
    };
    let target = target.trim();
    // Strip generics and leading path segments: `a::b::Foo<T>` → Foo.
    let no_generics = target.split('<').next().unwrap_or(target).trim();
    let last = no_generics.rsplit("::").next().unwrap_or(no_generics).trim();
    let id = ident_starting_at(last, 0)?;
    // Trait impls for external types (`impl fmt::Display for …`) still
    // return the type name; references/tuples are skipped.
    if id.chars().next().is_some_and(|c| c.is_uppercase()) {
        Some(id.to_string())
    } else {
        None
    }
}

/// Tokenize one masked line into lock/call/blocking events, in order.
fn line_tokens(line: &str) -> Vec<Tok> {
    let mut toks = Vec::new();
    let bytes = line.as_bytes();

    // Lock acquisitions.
    for needle in [".lock()", ".read()", ".write()"] {
        let mut from = 0;
        while let Some(p) = line[from..].find(needle) {
            let at = from + p;
            from = at + needle.len();
            let Some(field) = lock_receiver(line, at) else { continue };
            // A guard persists only when bound by a plain
            // `let <binding> = <recv>.lock();` statement — anything
            // chained (`.lock().take()`) is a statement temporary.
            let after = line[at + needle.len()..].trim_start();
            let trimmed = line.trim_start();
            let binding = if after.starts_with(';') && trimmed.starts_with("let ") {
                let rest = trimmed[4..].trim_start();
                let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
                ident_starting_at(rest, 0).filter(|id| *id != "_").map(str::to_string)
            } else {
                None
            };
            toks.push(Tok::Lock { pos: at, field, binding });
        }
    }

    // drop(guard)
    let mut from = 0;
    while let Some(p) = line[from..].find("drop(") {
        let at = from + p;
        from = at + 5;
        if at > 0 && is_ident_char(bytes[at - 1] as char) {
            continue;
        }
        if let Some(arg) = ident_starting_at(line, at + 5) {
            toks.push(Tok::Drop { pos: at, binding: arg.to_string() });
        }
    }

    // Blocking ops: fs namespace ops, sleeps, condvar waits.
    for op in FS_NAMESPACE_OPS {
        let mut from = 0;
        while let Some(p) = line[from..].find(op) {
            let at = from + p;
            from = at + op.len();
            toks.push(Tok::Blocking { pos: at, what: (*op).to_string(), waive: None });
        }
    }
    for op in ["thread::sleep(", "thread::park("] {
        if let Some(p) = line.find(op) {
            toks.push(Tok::Blocking {
                pos: p,
                what: op.trim_end_matches('(').to_string(),
                waive: None,
            });
        }
    }
    for op in [".wait(", ".wait_for(", ".wait_while(", ".wait_until("] {
        let mut from = 0;
        while let Some(p) = line[from..].find(op) {
            let at = from + p;
            from = at + op.len();
            // The waited mutex guard is *released* during the wait; its
            // first argument names it, so that guard is waived.
            let arg_start = skip_ws(line, at + op.len());
            let arg =
                line[arg_start..].trim_start_matches(['&', '*', ' ']).trim_start_matches("mut ");
            let waive = ident_starting_at(arg, 0).map(str::to_string);
            toks.push(Tok::Blocking {
                pos: at,
                what: format!("Condvar{}", op.trim_end_matches('(')),
                waive,
            });
        }
    }

    // Calls.
    let mut i = 0;
    while i < line.len() {
        let c = bytes[i] as char;
        if !(c.is_alphabetic() || c == '_') {
            i += 1;
            continue;
        }
        let Some(id) = ident_starting_at(line, i) else {
            i += 1;
            continue;
        };
        let start = i;
        i += id.len();
        // Must be directly followed by `(` (macros use `!(`).
        if i >= line.len() || bytes[i] as char != '(' {
            continue;
        }
        if KEYWORDS.contains(&id) {
            continue;
        }
        // Skip tokens already classified.
        if [
            "lock",
            "read",
            "write",
            "drop",
            "wait",
            "wait_for",
            "wait_while",
            "wait_until",
            "sleep",
            "park",
        ]
        .contains(&id)
        {
            continue;
        }
        let before = &line[..start];
        if before.ends_with('.') {
            if id.chars().next().is_some_and(char::is_uppercase) || SKIP_METHODS.contains(&id) {
                continue;
            }
            // Inspect the receiver: `self.f.m(` resolves through field
            // `f`'s type; `local.m(` / `self.m(` resolve same-crate;
            // chained receivers (`x.y.z.m(`, `f()?.m(`, a bare `.m(` line
            // continuing a previous line) get the fallback only.
            let rdot = start - 1;
            let (via_field, chained) = match ident_ending_at(line, rdot) {
                Some("self") => (None, false),
                Some(r) => {
                    let rstart = rdot - r.len();
                    if line[..rstart].ends_with('.') || line[..rstart].ends_with('?') {
                        (Some(r.to_string()), true)
                    } else {
                        (None, false)
                    }
                }
                None => (None, true),
            };
            toks.push(Tok::Call {
                pos: start,
                callee: Callee::Method { name: id.to_string(), via_field, chained },
            });
        } else if before.ends_with("::") {
            // Walk the path backwards: `a::b::id(`.
            let mut segs = vec![id.to_string()];
            let mut end = start - 2;
            while let Some(seg) = ident_ending_at(line, end) {
                segs.push(seg.to_string());
                let seg_start = end - seg.len();
                if seg_start >= 2 && line[..seg_start].ends_with("::") {
                    end = seg_start - 2;
                } else {
                    break;
                }
            }
            segs.reverse();
            let head = segs[0].clone();
            if EXTERNAL_PATH_HEADS.contains(&head.as_str()) {
                continue;
            }
            let func = segs.last().unwrap().clone();
            if let Some(krate) = head.strip_prefix("cbs_") {
                toks.push(Tok::Call {
                    pos: start,
                    callee: Callee::CratePath { krate: krate.to_string(), func },
                });
            } else if segs.len() == 2
                && head.chars().next().is_some_and(char::is_uppercase)
                && head != "Self"
            {
                if SKIP_BARE.contains(&func.as_str()) && head == "Self" {
                    continue;
                }
                toks.push(Tok::Call { pos: start, callee: Callee::Qual { ty: head, func } });
            } else if !SKIP_BARE.contains(&func.as_str()) {
                // `Self::f(`, `self::f(`, `module::f(` — same-crate.
                toks.push(Tok::Call { pos: start, callee: Callee::Bare(func) });
            }
        } else {
            if id.chars().next().is_some_and(char::is_uppercase) || SKIP_BARE.contains(&id) {
                continue;
            }
            toks.push(Tok::Call { pos: start, callee: Callee::Bare(id.to_string()) });
        }
    }

    toks.sort_by_key(Tok::pos);
    // Deduplicate overlapping classifications at the same position
    // (a blocking `File::open` also parses as a Qual call): blocking wins.
    let mut out: Vec<Tok> = Vec::new();
    for t in toks {
        if let Some(prev) = out.last() {
            if prev.pos() == t.pos() {
                if matches!(prev, Tok::Blocking { .. }) {
                    continue;
                }
                if matches!(t, Tok::Blocking { .. }) {
                    out.pop();
                }
            }
        }
        out.push(t);
    }
    out
}

/// The receiver field of a lock call: scan back from the `.` over an
/// optional index expression to the nearest identifier.
/// `self.vbs[item.vb.index()].lock()` → `vbs`.
fn lock_receiver(line: &str, dot_at: usize) -> Option<String> {
    let bytes = line.as_bytes();
    let mut i = dot_at;
    // Skip a balanced `[...]` (or several).
    loop {
        if i > 0 && bytes[i - 1] as char == ']' {
            let mut depth = 1;
            i -= 1;
            while i > 0 && depth > 0 {
                i -= 1;
                match bytes[i] as char {
                    ']' => depth += 1,
                    '[' => depth -= 1,
                    _ => {}
                }
            }
        } else if i > 0 && bytes[i - 1] as char == ')' {
            // A call result (`self.vbs().lock()`) — the method name before
            // the parens is not a field; bail.
            return None;
        } else {
            break;
        }
    }
    let id = ident_ending_at(line, i)?;
    if id == "self" {
        return None;
    }
    Some(id.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str, ranked: &[&str], raw: &[&str]) -> FileModel {
        let ranked: Vec<String> = ranked.iter().map(|s| s.to_string()).collect();
        let raw: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
        parse_file("t.rs", "t", Tree::Lib, crate::scan::mask(src), &ranked, &raw)
    }

    #[test]
    fn ctor_association_struct_field_and_vec_map() {
        let src = r#"
struct H { vbs: Vec<OrderedMutex<C>>, raw: parking_lot::Mutex<u32> }
impl H {
    fn new(n: u16) -> H {
        H {
            vbs: (0..n).map(|_| OrderedMutex::new(rank::DCP_CHANNEL, C::default())).collect(),
            raw: parking_lot::Mutex::new(0),
        }
    }
}
"#;
        let m = model(src, &[], &[]);
        assert_eq!(m.ranked_fields.len(), 1, "{:?}", m.ranked_fields);
        assert_eq!(m.ranked_fields[0].field, "vbs");
        assert_eq!(m.ranked_fields[0].rank_const.as_deref(), Some("DCP_CHANNEL"));
        assert_eq!(scan_fields(&crate::scan::mask(src)).1, ["raw"]);
        assert_eq!(m.raw_ctors.len(), 1);
    }

    #[test]
    fn guard_lifetimes_scope_drop_and_chained_temporaries() {
        let src = r#"
impl E {
    fn f(&self) {
        let g = self.meta.lock();
        self.publish(1);
        drop(g);
        self.publish(2);
        {
            let h = self.meta.lock();
            self.publish(3);
        }
        self.publish(4);
        let keys = self.dirty.lock().take();
        self.publish(5);
    }
}
"#;
        let m = model(src, &["meta", "dirty"], &[]);
        let f = &m.fns[0];
        let held_at_publish: Vec<usize> = f
            .steps
            .iter()
            .filter_map(|s| match s {
                Step::Call { callee: Callee::Method { name, .. }, held, .. }
                    if name == "publish" =>
                {
                    Some(held.len())
                }
                _ => None,
            })
            .collect();
        // publish(1): g held; publish(2): dropped; publish(3): h held;
        // publish(4): scope closed; publish(5): chained temporary not held.
        assert_eq!(held_at_publish, vec![1, 0, 1, 0, 0]);
        let acquires = f.steps.iter().filter(|s| matches!(s, Step::Acquire { .. })).count();
        assert_eq!(acquires, 3, "chained temporary still records an acquire event");
    }

    #[test]
    fn call_classification() {
        let src = r#"
fn f(&self) {
    helper();
    obj.method();
    self.tick();
    self.store.vb(3);
    self.store.vb(3)?.persist_batch(b);
    DataEngine::open_thing(1);
    cbs_storage::wal::replay_wals(d);
    std::fs::canonicalize(p);
    format!("x");
    Vec::new();
    x.unwrap();
}
"#;
        let m = model(src, &[], &[]);
        let calls: Vec<&Callee> = m.fns[0]
            .steps
            .iter()
            .filter_map(|s| match s {
                Step::Call { callee, .. } => Some(callee),
                _ => None,
            })
            .collect();
        let mth = |name: &str, via: Option<&str>, chained: bool| Callee::Method {
            name: name.into(),
            via_field: via.map(str::to_string),
            chained,
        };
        assert_eq!(
            calls,
            vec![
                &Callee::Bare("helper".into()),
                &mth("method", None, false),
                &mth("tick", None, false),
                &mth("vb", Some("store"), true),
                &mth("vb", Some("store"), true),
                &mth("persist_batch", None, true),
                &Callee::Qual { ty: "DataEngine".into(), func: "open_thing".into() },
                &Callee::CratePath { krate: "storage".into(), func: "replay_wals".into() },
            ],
            "{calls:?}"
        );
    }

    #[test]
    fn field_types_extracted_from_decls_and_literals() {
        let src = r#"
pub struct Engine {
    cache: ObjectCache,
    store: Arc<BucketStore>,
    n: usize,
}
impl Engine {
    fn new() -> Engine {
        Engine { cache: ObjectCache::new(1), store: Arc::new(BucketStore::open(d)), n: 0 }
    }
}
"#;
        let m = model(src, &[], &[]);
        assert!(
            m.field_types.contains(&("cache".into(), "ObjectCache".into())),
            "{:?}",
            m.field_types
        );
        assert!(
            m.field_types.contains(&("store".into(), "BucketStore".into())),
            "{:?}",
            m.field_types
        );
        // `Arc` is a wrapper, `usize` lowercase: neither appears as a type.
        assert!(m.field_types.iter().all(|(_, t)| t != "Arc"), "{:?}", m.field_types);
    }

    #[test]
    fn blocking_ops_and_condvar_waiver() {
        let src = r#"
impl F {
    fn w(&self) {
        let mut sig = self.signal.lock();
        self.cv.wait(sig.inner_mut());
        let g = self.wal.lock();
        std::fs::remove_file(p);
        std::thread::sleep(d);
    }
}
"#;
        let m = model(src, &["signal", "wal"], &[]);
        let f = &m.fns[0];
        let blocking: Vec<(String, usize)> = f
            .steps
            .iter()
            .filter_map(|s| match s {
                Step::Blocking { what, held, .. } => Some((what.clone(), held.len())),
                _ => None,
            })
            .collect();
        // The condvar wait waives its own seat guard (held 0); the fs op
        // and sleep hold both sig and g / remain held.
        assert_eq!(blocking[0], ("Condvar.wait".to_string(), 0));
        assert_eq!(blocking[1], ("fs::remove_file".to_string(), 2));
        assert_eq!(blocking[2], ("thread::sleep".to_string(), 2));
    }

    #[test]
    fn impl_context_gives_qualified_names() {
        let src = r#"
impl DcpHub {
    fn publish(&self) {}
}
impl BackfillSource for DataEngine {
    fn backfill(&self) {}
}
fn free() {}
"#;
        let m = model(src, &[], &[]);
        let quals: Vec<(String, Option<String>)> =
            m.fns.iter().map(|f| (f.name.clone(), f.qual.clone())).collect();
        assert_eq!(
            quals,
            vec![
                ("publish".to_string(), Some("DcpHub::publish".to_string())),
                ("backfill".to_string(), Some("DataEngine::backfill".to_string())),
                ("free".to_string(), None),
            ]
        );
    }

    #[test]
    fn test_regions_are_skipped() {
        let src = r#"
fn prod() { x.field.lock(); }
#[cfg(test)]
mod tests {
    fn t() { let m = parking_lot::Mutex::new(0); std::fs::remove_file(p); }
}
"#;
        let m = model(src, &["field"], &[]);
        assert_eq!(m.fns.len(), 1, "test fns not modeled");
        assert!(m.raw_ctors.is_empty(), "test-region raw ctor ignored");
    }
}
