//! N1QL abstract syntax.
//!
//! A path — in an expression, an UPDATE's SET/UNSET target or a CREATE
//! INDEX key — is parsed once into a [`JsonPath`], the type the index
//! service and sub-document writes use too: a backtick-quoted name is one
//! [`cbs_json::PathStep::Field`], whatever characters it holds.

use cbs_json::{JsonPath, Value};

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal constant.
    Literal(Value),
    /// Identifier chain with optional array subscripts: `alias.a.b[0]`.
    /// The first step, always a field, is resolved against the row's
    /// aliases, falling back to the sole FROM alias's document fields.
    Path(JsonPath),
    /// `META(alias).id` (alias optional when unambiguous).
    MetaId(Option<String>),
    /// Positional parameter `$n` (1-based).
    PosParam(usize),
    /// Named parameter `$name`.
    NamedParam(String),
    /// Unary operator.
    Unary(UnaryOp, Box<Expr>),
    /// Binary operator.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `x IS NULL` / `IS NOT NULL` / `IS MISSING` / `IS NOT MISSING` /
    /// `IS VALUED`.
    IsCheck(IsCheck, Box<Expr>),
    /// `expr BETWEEN low AND high`.
    Between { expr: Box<Expr>, low: Box<Expr>, high: Box<Expr>, negated: bool },
    /// `expr IN [..]` (right side any expression evaluating to an array).
    In { expr: Box<Expr>, list: Box<Expr>, negated: bool },
    /// `expr LIKE pattern` (SQL `%`/`_` wildcards).
    Like { expr: Box<Expr>, pattern: Box<Expr>, negated: bool },
    /// Scalar or aggregate function call.
    Func { name: String, args: Vec<Expr>, distinct: bool },
    /// `COUNT(*)`.
    CountStar,
    /// Array constructor `[e1, e2, ...]`.
    ArrayLit(Vec<Expr>),
    /// Object constructor `{"k": e, ...}`.
    ObjectLit(Vec<(String, Expr)>),
    /// `CASE WHEN c THEN v [WHEN ...] [ELSE e] END`.
    Case { arms: Vec<(Expr, Expr)>, else_: Option<Box<Expr>> },
    /// `ANY var IN source SATISFIES cond END` (and EVERY).
    AnyEvery { any: bool, var: String, source: Box<Expr>, cond: Box<Expr> },
    /// `ARRAY expr FOR var IN source [WHEN cond] END` comprehension.
    ArrayComp { expr: Box<Expr>, var: String, source: Box<Expr>, when: Option<Box<Expr>> },
}

impl Expr {
    /// The expressions this one is computed from, in order. The bodies of
    /// ANY/EVERY … SATISFIES and ARRAY … FOR see a bound variable, not the
    /// row, so they are not listed, nor is their source.
    pub(crate) fn operands(&self) -> Vec<&Expr> {
        match self {
            Expr::Unary(_, a) | Expr::IsCheck(_, a) => vec![a],
            Expr::Binary(_, a, b)
            | Expr::In { expr: a, list: b, .. }
            | Expr::Like { expr: a, pattern: b, .. } => vec![a, b],
            Expr::Between { expr, low, high, .. } => vec![expr, low, high],
            Expr::Func { args, .. } | Expr::ArrayLit(args) => args.iter().collect(),
            Expr::ObjectLit(pairs) => pairs.iter().map(|(_, v)| v).collect(),
            Expr::Case { arms, else_ } => {
                arms.iter().flat_map(|(c, v)| [c, v]).chain(else_.as_deref()).collect()
            }
            _ => Vec::new(),
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Numeric negation.
    Neg,
    /// Logical NOT.
    Not,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `=` / `==`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `||` string concatenation.
    Concat,
}

/// IS-family checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsCheck {
    /// `IS NULL`
    Null,
    /// `IS NOT NULL`
    NotNull,
    /// `IS MISSING`
    Missing,
    /// `IS NOT MISSING`
    NotMissing,
    /// `IS VALUED` (neither null nor missing)
    Valued,
}

/// A projected column.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*` — the whole row object.
    Star,
    /// `alias.*` — all fields of one keyspace alias.
    AliasStar(String),
    /// `expr [AS name]`.
    Expr { expr: Expr, alias: Option<String> },
}

/// `FROM` term modifiers applied left-to-right.
#[derive(Debug, Clone, PartialEq)]
pub enum FromOp {
    /// `JOIN ks [AS a] ON KEYS expr` — key join only (§3.2.4); LEFT OUTER
    /// keeps unmatched outer rows.
    Join { keyspace: String, alias: String, on_keys: Expr, left_outer: bool },
    /// `NEST ks [AS a] ON KEYS expr`: matching inner documents are
    /// collected into an array-valued field (§3.2.3).
    Nest { keyspace: String, alias: String, on_keys: Expr, left_outer: bool },
    /// `UNNEST path [AS a]`: flatten a nested array, repeating the parent
    /// per element.
    Unnest { path: Expr, alias: String, left_outer: bool },
}

/// An ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Sort expression.
    pub expr: Expr,
    /// Descending?
    pub desc: bool,
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Select {
    /// DISTINCT?
    pub distinct: bool,
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// FROM keyspace (None for `SELECT 1+1`-style expression queries).
    pub from: Option<FromClause>,
    /// WHERE predicate.
    pub where_: Option<Expr>,
    /// GROUP BY keys.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderKey>,
    /// LIMIT (expression evaluated at plan time).
    pub limit: Option<Expr>,
    /// OFFSET.
    pub offset: Option<Expr>,
}

/// The FROM clause: a primary keyspace plus chained join-like operations.
#[derive(Debug, Clone, PartialEq)]
pub struct FromClause {
    /// Primary keyspace (bucket) name.
    pub keyspace: String,
    /// Alias (defaults to the keyspace name).
    pub alias: String,
    /// `USE KEYS expr` — the key-value bridge clause (§3.2.3).
    pub use_keys: Option<Expr>,
    /// Chained JOIN / NEST / UNNEST operations.
    pub ops: Vec<FromOp>,
}

/// DML / DDL / query statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// SELECT.
    Select(Select),
    /// `INSERT INTO ks (KEY, VALUE) VALUES (k, v), ...`.
    Insert { keyspace: String, values: Vec<(Expr, Expr)> },
    /// UPSERT (same shape as INSERT).
    Upsert { keyspace: String, values: Vec<(Expr, Expr)> },
    /// `UPDATE ks [USE KEYS e] SET path = expr, ... [UNSET path, ...] [WHERE e] [LIMIT n]`.
    Update {
        keyspace: String,
        use_keys: Option<Expr>,
        set: Vec<(JsonPath, Expr)>,
        unset: Vec<JsonPath>,
        where_: Option<Expr>,
        limit: Option<Expr>,
    },
    /// `DELETE FROM ks [USE KEYS e] [WHERE e] [LIMIT n]`.
    Delete { keyspace: String, use_keys: Option<Expr>, where_: Option<Expr>, limit: Option<Expr> },
    /// `CREATE INDEX name ON ks(expr, ...) [WHERE cond] [USING GSI|VIEW] [WITH {...}]`.
    CreateIndex {
        name: String,
        keyspace: String,
        keys: Vec<IndexKeySpec>,
        where_: Option<Expr>,
        defer_build: bool,
        num_partitions: usize,
    },
    /// `CREATE PRIMARY INDEX [name] ON ks [USING ...] [WITH ...]`.
    CreatePrimaryIndex { name: String, keyspace: String, defer_build: bool },
    /// `DROP INDEX ks.name`.
    DropIndex { keyspace: String, name: String },
    /// `BUILD INDEX ON ks(name, ...)`.
    BuildIndex { keyspace: String, names: Vec<String> },
    /// `PREPARE <name> FROM <statement>` — plan once, register under a
    /// name for later `EXECUTE` (the entry holds the plan). `text` is the
    /// inner statement's source, which a re-plan parses again.
    Prepare { name: String, stmt: Box<Statement>, text: String },
    /// `EXECUTE <name>` — run a previously prepared statement, binding
    /// this request's positional/named parameters.
    Execute { name: String },
    /// `EXPLAIN <statement>`.
    Explain(Box<Statement>),
    /// `PROFILE <statement>` — execute, returning the EXPLAIN-shaped plan
    /// annotated with per-operator runtime stats and phase timings.
    Profile(Box<Statement>),
}

/// One indexed key in CREATE INDEX: a path, optionally `DISTINCT ARRAY x
/// FOR x IN path END` for array indexes.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexKeySpec {
    /// Path being indexed.
    pub path: JsonPath,
    /// True for array indexes (`DISTINCT ARRAY v FOR v IN <path> END`).
    pub array: bool,
}
