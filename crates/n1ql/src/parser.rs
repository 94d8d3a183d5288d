//! Recursive-descent N1QL parser.

use cbs_common::{Error, Result};
use cbs_json::{JsonPath, PathStep, Value, MAX_DEPTH};

use crate::ast::*;
use crate::lexer::{tokenize_with_offsets, Token};

/// Parse one statement (optionally terminated by `;`).
pub fn parse_statement(input: &str) -> Result<Statement> {
    let mut p = Parser::new(input)?;
    let stmt = p.parse_statement()?;
    p.eat_punct(";");
    if p.pos < p.tokens.len() {
        return Err(p.err("trailing tokens after statement"));
    }
    Ok(*stmt)
}

/// Parse a stand-alone expression (used by tests and the view/index DDL).
pub fn parse_expression(input: &str) -> Result<Expr> {
    let mut p = Parser::new(input)?;
    let e = p.parse_expr()?;
    if p.pos < p.tokens.len() {
        return Err(p.err("trailing tokens after expression"));
    }
    Ok(e)
}

/// Reserved words cannot start an expression (matches N1QL's
/// reserved-keyword rules; quote with backticks to use them as field
/// names).
const RESERVED: &str = "select from where group by having order limit offset and or not join \
    inner left outer nest unnest on keys as use set unset into values between like when then else \
    end is in satisfies distinct asc desc insert upsert update delete create drop build index explain";

fn is_reserved(word: &str) -> bool {
    RESERVED.split_whitespace().any(|k| word.eq_ignore_ascii_case(k))
}

/// The path of one field: where every path starts.
fn field_path(name: String) -> JsonPath {
    JsonPath { steps: vec![PathStep::Field(name)] }
}

/// A primary that holds expressions (see `Parser::compound_at`).
enum Compound {
    Paren,
    ArrayLit,
    ObjectLit,
    Case,
    /// ANY (`true`) or EVERY (`false`) … SATISFIES.
    AnyEvery(bool),
    /// ARRAY … FOR.
    ArrayFor,
    /// A function call, by name.
    Call(String),
}

struct Parser<'a> {
    input: &'a str,
    tokens: Vec<Token>,
    /// The byte offset in `input` each token starts at.
    offsets: Vec<usize>,
    pos: usize,
    /// How deeply the production being parsed nests (see `enter`).
    depth: usize,
}

// Binding powers, loosest first. A loop that parses at power `min` takes
// every operator of power `min` or more.
const BP_OR: u8 = 1;
const BP_AND: u8 = 2;
/// Prefix NOT: its operand may hold a comparison, not an AND.
const BP_NOT: u8 = 3;
/// `=` `!=` `<` …, `IS`, `[NOT] BETWEEN | IN | LIKE`: non-associative.
const BP_COMPARE: u8 = 4;
const BP_CONCAT: u8 = 5;
const BP_ADD: u8 = 6;
const BP_MUL: u8 = 7;
/// Prefix minus: its operand is a postfix expression.
const BP_NEG: u8 = 8;

/// The binary operators: keyword or punctuation, operator, power.
const BINARY: [(&str, BinOp, u8); 16] = [
    ("or", BinOp::Or, BP_OR),
    ("and", BinOp::And, BP_AND),
    ("==", BinOp::Eq, BP_COMPARE),
    ("=", BinOp::Eq, BP_COMPARE),
    ("!=", BinOp::Ne, BP_COMPARE),
    ("<>", BinOp::Ne, BP_COMPARE),
    ("<=", BinOp::Le, BP_COMPARE),
    (">=", BinOp::Ge, BP_COMPARE),
    ("<", BinOp::Lt, BP_COMPARE),
    (">", BinOp::Gt, BP_COMPARE),
    ("||", BinOp::Concat, BP_CONCAT),
    ("+", BinOp::Add, BP_ADD),
    ("-", BinOp::Sub, BP_ADD),
    ("*", BinOp::Mul, BP_MUL),
    ("/", BinOp::Div, BP_MUL),
    ("%", BinOp::Mod, BP_MUL),
];

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Result<Parser<'a>> {
        let (tokens, offsets) = tokenize_with_offsets(input)?;
        Ok(Parser { input, tokens, offsets, pos: 0, depth: 0 })
    }

    fn err(&self, msg: &str) -> Error {
        Error::Parse(format!("{msg} (at token {} of {})", self.pos, self.tokens.len()))
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_kw(&self, kw: &str) -> bool {
        self.peek().is_some_and(|t| t.is_kw(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(&format!("expected keyword {kw}, found {:?}", self.peek())))
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_punct(p)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{p}', found {:?}", self.peek())))
        }
    }

    /// Any identifier (keyword-insensitive) or quoted identifier.
    fn expect_ident(&mut self) -> Result<String> {
        match self.bump() {
            Some(Token::Ident(s)) => Ok(s),
            Some(Token::QuotedIdent(s)) => Ok(s),
            other => Err(self.err(&format!("expected identifier, found {other:?}"))),
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    /// A statement, boxed: EXPLAIN, PROFILE and PREPARE recurse here once
    /// per level, and a `Statement` is large enough that holding one by
    /// value would make each level's frame several times bigger.
    fn parse_statement(&mut self) -> Result<Box<Statement>> {
        let Some(kind) = ["explain", "profile", "prepare"].into_iter().find(|kw| self.eat_kw(kw))
        else {
            return self.parse_leaf_statement();
        };
        let name = if kind == "prepare" {
            let name = self.expect_ident()?;
            self.expect_kw("from")?;
            name
        } else {
            String::new()
        };
        self.enter()?;
        let start = self.offsets.get(self.pos).copied().unwrap_or(self.input.len());
        let stmt = self.parse_statement()?;
        self.depth -= 1;
        let end = self.offsets.get(self.pos).copied().unwrap_or(self.input.len());
        Ok(Box::new(match kind {
            "explain" => Statement::Explain(stmt),
            "profile" => Statement::Profile(stmt),
            _ => Statement::Prepare { name, stmt, text: self.input[start..end].trim_end().into() },
        }))
    }

    /// A statement that holds no other statement.
    fn parse_leaf_statement(&mut self) -> Result<Box<Statement>> {
        let stmt = if self.at_kw("select") {
            Statement::Select(self.parse_select()?)
        } else if self.at_kw("insert") || self.at_kw("upsert") {
            self.parse_insert_upsert()?
        } else if self.at_kw("update") {
            self.parse_update()?
        } else if self.at_kw("delete") {
            self.parse_delete()?
        } else if self.at_kw("create") {
            self.parse_create_index()?
        } else if self.at_kw("drop") {
            self.parse_drop_index()?
        } else if self.at_kw("build") {
            self.parse_build_index()?
        } else if self.eat_kw("execute") {
            Statement::Execute { name: self.expect_ident()? }
        } else {
            return Err(self.err(&format!("unsupported statement start: {:?}", self.peek())));
        };
        Ok(Box::new(stmt))
    }

    fn parse_select(&mut self) -> Result<Select> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        let mut items = Vec::new();
        loop {
            items.push(self.parse_select_item()?);
            if !self.eat_punct(",") {
                break;
            }
        }
        let from = if self.eat_kw("from") { Some(self.parse_from()?) } else { None };
        let where_ = if self.eat_kw("where") { Some(self.parse_expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.parse_expr()?);
                if !self.eat_punct(",") {
                    break;
                }
            }
        }
        let having = if self.eat_kw("having") { Some(self.parse_expr()?) } else { None };
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.parse_expr()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push(OrderKey { expr, desc });
                if !self.eat_punct(",") {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") { Some(self.parse_expr()?) } else { None };
        let offset = if self.eat_kw("offset") { Some(self.parse_expr()?) } else { None };
        Ok(Select { distinct, items, from, where_, group_by, having, order_by, limit, offset })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem> {
        if self.eat_punct("*") {
            return Ok(SelectItem::Star);
        }
        // alias.* form.
        if let (Some(Token::Ident(_) | Token::QuotedIdent(_)), Some(t2)) =
            (self.peek(), self.peek2())
        {
            if t2.is_punct(".") && self.tokens.get(self.pos + 2).is_some_and(|t| t.is_punct("*")) {
                let alias = self.expect_ident()?;
                self.expect_punct(".")?;
                self.expect_punct("*")?;
                return Ok(SelectItem::AliasStar(alias));
            }
        }
        let expr = self.parse_expr()?;
        let alias = if self.eat_kw("as") { Some(self.expect_ident()?) } else { None };
        Ok(SelectItem::Expr { expr, alias })
    }

    /// A keyspace name, wherever a statement names one, with its default
    /// alias. `system:<catalog>` — the lexer yields `system` `:` `name` —
    /// folds into one lower-cased name whose default alias is the bare
    /// catalog name, so `SELECT state FROM system:active_requests` resolves
    /// paths against `active_requests`.
    fn parse_keyspace(&mut self) -> Result<(String, String)> {
        let name = self.expect_ident()?;
        if name.eq_ignore_ascii_case("system") && self.eat_punct(":") {
            let catalog = self.expect_ident()?;
            return Ok((format!("system:{}", catalog.to_ascii_lowercase()), catalog));
        }
        Ok((name.clone(), name))
    }

    fn parse_from(&mut self) -> Result<FromClause> {
        let (keyspace, default_alias) = self.parse_keyspace()?;
        let alias = self.parse_opt_alias(&default_alias)?;
        let use_keys = if self.eat_kw("use") {
            self.expect_kw("keys")?;
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut ops = Vec::new();
        loop {
            let left_outer = if self.at_kw("left") {
                // LEFT [OUTER] prefix.
                self.pos += 1;
                self.eat_kw("outer");
                true
            } else {
                self.eat_kw("inner");
                false
            };
            if self.eat_kw("join") {
                let (ks, default_alias) = self.parse_keyspace()?;
                let alias = self.parse_opt_alias(&default_alias)?;
                self.expect_kw("on")?;
                self.expect_kw("keys")?;
                ops.push(FromOp::Join {
                    keyspace: ks,
                    alias,
                    on_keys: self.parse_expr()?,
                    left_outer,
                });
            } else if self.eat_kw("nest") {
                let (ks, default_alias) = self.parse_keyspace()?;
                let alias = self.parse_opt_alias(&default_alias)?;
                self.expect_kw("on")?;
                self.expect_kw("keys")?;
                ops.push(FromOp::Nest {
                    keyspace: ks,
                    alias,
                    on_keys: self.parse_expr()?,
                    left_outer,
                });
            } else if self.eat_kw("unnest") {
                let path = self.parse_expr()?;
                let alias = match &path {
                    Expr::Path(p) => match p.steps.last() {
                        Some(PathStep::Field(f)) => self.parse_opt_alias(f)?,
                        _ => self.parse_opt_alias("unnested")?,
                    },
                    _ => self.parse_opt_alias("unnested")?,
                };
                ops.push(FromOp::Unnest { path, alias, left_outer });
            } else if left_outer {
                return Err(self.err("LEFT must be followed by JOIN, NEST or UNNEST"));
            } else {
                // Reject general joins explicitly (§3.2.4): `JOIN ... ON
                // <expr>` without KEYS never parses here, and comma-joins
                // are not in the grammar at all.
                break;
            }
        }
        Ok(FromClause { keyspace, alias, use_keys, ops })
    }

    fn parse_opt_alias(&mut self, default: &str) -> Result<String> {
        if self.eat_kw("as") {
            return self.expect_ident();
        }
        // Bare alias: an identifier that isn't a clause keyword.
        if let Some(Token::Ident(s)) = self.peek() {
            const CLAUSE_KWS: &[&str] = &[
                "use", "where", "group", "having", "order", "limit", "offset", "join", "nest",
                "unnest", "left", "inner", "on", "set", "unset", "as", "from", "select",
            ];
            if !CLAUSE_KWS.iter().any(|k| s.eq_ignore_ascii_case(k)) {
                let s = s.clone();
                self.pos += 1;
                return Ok(s);
            }
        }
        Ok(default.to_string())
    }

    fn parse_insert_upsert(&mut self) -> Result<Statement> {
        let upsert = self.eat_kw("upsert");
        if !upsert {
            self.expect_kw("insert")?;
        }
        self.expect_kw("into")?;
        let (keyspace, _) = self.parse_keyspace()?;
        self.expect_punct("(")?;
        self.expect_kw("key")?;
        self.expect_punct(",")?;
        self.expect_kw("value")?;
        self.expect_punct(")")?;
        self.expect_kw("values")?;
        let mut values = Vec::new();
        loop {
            self.expect_punct("(")?;
            let k = self.parse_expr()?;
            self.expect_punct(",")?;
            let v = self.parse_expr()?;
            self.expect_punct(")")?;
            values.push((k, v));
            if !self.eat_punct(",") {
                break;
            }
        }
        Ok(if upsert {
            Statement::Upsert { keyspace, values }
        } else {
            Statement::Insert { keyspace, values }
        })
    }

    fn parse_update(&mut self) -> Result<Statement> {
        self.expect_kw("update")?;
        let (keyspace, _) = self.parse_keyspace()?;
        let use_keys = if self.eat_kw("use") {
            self.expect_kw("keys")?;
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut set = Vec::new();
        if self.eat_kw("set") {
            loop {
                let path = self.parse_bare_path()?;
                self.expect_punct("=")?;
                set.push((path, self.parse_expr()?));
                if !self.eat_punct(",") {
                    break;
                }
            }
        }
        let mut unset = Vec::new();
        if self.eat_kw("unset") {
            loop {
                unset.push(self.parse_bare_path()?);
                if !self.eat_punct(",") {
                    break;
                }
            }
        }
        if set.is_empty() && unset.is_empty() {
            return Err(self.err("UPDATE requires SET or UNSET"));
        }
        let where_ = if self.eat_kw("where") { Some(self.parse_expr()?) } else { None };
        let limit = if self.eat_kw("limit") { Some(self.parse_expr()?) } else { None };
        Ok(Statement::Update { keyspace, use_keys, set, unset, where_, limit })
    }

    fn parse_delete(&mut self) -> Result<Statement> {
        self.expect_kw("delete")?;
        self.expect_kw("from")?;
        let (keyspace, _) = self.parse_keyspace()?;
        let use_keys = if self.eat_kw("use") {
            self.expect_kw("keys")?;
            Some(self.parse_expr()?)
        } else {
            None
        };
        let where_ = if self.eat_kw("where") { Some(self.parse_expr()?) } else { None };
        let limit = if self.eat_kw("limit") { Some(self.parse_expr()?) } else { None };
        Ok(Statement::Delete { keyspace, use_keys, where_, limit })
    }

    /// A path on its own: an UPDATE's SET or UNSET target, or an index
    /// key.
    fn parse_bare_path(&mut self) -> Result<JsonPath> {
        let first = field_path(self.expect_ident()?);
        self.parse_path_steps(first)
    }

    fn parse_create_index(&mut self) -> Result<Statement> {
        self.expect_kw("create")?;
        if self.eat_kw("primary") {
            self.expect_kw("index")?;
            // Optional name.
            let name = match self.peek() {
                Some(Token::Ident(s)) if !s.eq_ignore_ascii_case("on") => {
                    let s = s.clone();
                    self.pos += 1;
                    s
                }
                Some(Token::QuotedIdent(s)) => {
                    let s = s.clone();
                    self.pos += 1;
                    s
                }
                _ => "#primary".to_string(),
            };
            self.expect_kw("on")?;
            let (keyspace, _) = self.parse_keyspace()?;
            let (defer_build, _parts) = self.parse_index_tail()?;
            return Ok(Statement::CreatePrimaryIndex { name, keyspace, defer_build });
        }
        self.expect_kw("index")?;
        let name = self.expect_ident()?;
        self.expect_kw("on")?;
        let (keyspace, _) = self.parse_keyspace()?;
        self.expect_punct("(")?;
        let mut keys = Vec::new();
        loop {
            if self.eat_kw("distinct") {
                // DISTINCT ARRAY v FOR v IN path END — array index (§6.1.2).
                self.expect_kw("array")?;
                let var = self.expect_ident()?;
                self.expect_kw("for")?;
                let var2 = self.expect_ident()?;
                if !var.eq_ignore_ascii_case(&var2) {
                    return Err(self.err("array index variable mismatch"));
                }
                self.expect_kw("in")?;
                let path = self.parse_bare_path()?;
                self.expect_kw("end")?;
                keys.push(IndexKeySpec { path, array: true });
            } else {
                keys.push(IndexKeySpec { path: self.parse_bare_path()?, array: false });
            }
            if !self.eat_punct(",") {
                break;
            }
        }
        self.expect_punct(")")?;
        let where_ = if self.eat_kw("where") { Some(self.parse_expr()?) } else { None };
        let (defer_build, num_partitions) = self.parse_index_tail()?;
        Ok(Statement::CreateIndex { name, keyspace, keys, where_, defer_build, num_partitions })
    }

    /// `[USING GSI|VIEW] [WITH {...}]` — returns (defer_build,
    /// num_partitions). Both index types build the same Standard GSI.
    fn parse_index_tail(&mut self) -> Result<(bool, usize)> {
        if self.eat_kw("using") && !self.eat_kw("view") {
            self.expect_kw("gsi")?;
        }
        let mut defer_build = false;
        let mut num_partitions = 1usize;
        if self.eat_kw("with") {
            // A small JSON object literal of options.
            let v = self.parse_expr()?;
            if let Expr::ObjectLit(pairs) = v {
                for (k, expr) in pairs {
                    match (k.as_str(), expr) {
                        ("defer_build", Expr::Literal(Value::Bool(b))) => defer_build = b,
                        ("num_partitions", Expr::Literal(v2)) => {
                            num_partitions = v2.as_i64().unwrap_or(1).max(1) as usize;
                        }
                        _ => {}
                    }
                }
            } else {
                return Err(self.err("WITH requires an object literal"));
            }
        }
        Ok((defer_build, num_partitions))
    }

    fn parse_drop_index(&mut self) -> Result<Statement> {
        self.expect_kw("drop")?;
        self.expect_kw("index")?;
        let (keyspace, _) = self.parse_keyspace()?;
        self.expect_punct(".")?;
        let name = self.expect_ident()?;
        Ok(Statement::DropIndex { keyspace, name })
    }

    fn parse_build_index(&mut self) -> Result<Statement> {
        self.expect_kw("build")?;
        self.expect_kw("index")?;
        self.expect_kw("on")?;
        let (keyspace, _) = self.parse_keyspace()?;
        self.expect_punct("(")?;
        let mut names = Vec::new();
        loop {
            names.push(self.expect_ident()?);
            if !self.eat_punct(",") {
                break;
            }
        }
        self.expect_punct(")")?;
        Ok(Statement::BuildIndex { keyspace, names })
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ------------------------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_bp(BP_OR)
    }

    /// One level deeper in the statement's tree. Every level is a frame
    /// of recursion here and in the planner and executor, so past
    /// [`MAX_DEPTH`] levels the statement is refused rather than the
    /// thread's stack overrun.
    fn enter(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(&format!("statement nests deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    /// An expression whose operators all bind at least `min` tightly: a
    /// prefix operand, then a loop over the infix operators. A chain of
    /// left-associative operators is built by the loop, one tree level
    /// per operator, and each level counts against the depth budget until
    /// the chain ends.
    ///
    /// Every nested production recurses through here, `parse_prefix`,
    /// `parse_postfix` and `parse_primary`, so those four do little
    /// themselves: the work of each production is in a function of its
    /// own, whose frame is on the stack only while that production is.
    fn parse_bp(&mut self, min: u8) -> Result<Expr> {
        let depth = self.depth;
        let mut left = self.parse_prefix(min)?;
        let mut compared = false;
        while let Some((power, op)) = self.infix().filter(|&(power, _)| power >= min) {
            // A comparison is not an operand of another comparison, nor of
            // anything tighter: `a = b = c` and `a IS NULL || b` are errors.
            if compared && power >= BP_COMPARE {
                return Err(self.err("a comparison cannot be an operand here; parenthesize it"));
            }
            compared = power == BP_COMPARE;
            left = self.parse_infix(left, power, op)?;
        }
        self.depth = depth;
        Ok(left)
    }

    /// A prefix NOT or minus and its operand, one level deeper, or else a
    /// postfix expression.
    fn parse_prefix(&mut self, min: u8) -> Result<Expr> {
        let (op, power) = if min <= BP_NOT && self.eat_kw("not") {
            (UnaryOp::Not, BP_NOT)
        } else if self.eat_punct("-") {
            (UnaryOp::Neg, BP_NEG)
        } else {
            return self.parse_postfix();
        };
        self.enter()?;
        Ok(Expr::Unary(op, Box::new(self.parse_bp(power)?)))
    }

    /// The infix operator at the cursor applied to `left`, one level
    /// deeper.
    fn parse_infix(&mut self, left: Expr, power: u8, op: Option<BinOp>) -> Result<Expr> {
        self.enter()?;
        let Some(op) = op else { return self.parse_suffix(left) };
        self.pos += 1;
        // Left-associative: the right operand binds one step tighter.
        let right = self.parse_bp(power + 1)?;
        Ok(Expr::Binary(op, Box::new(left), Box::new(right)))
    }

    /// The infix operator at the cursor, if any: its binding power, and
    /// the binary operator it is (`None` for the comparison suffixes).
    fn infix(&self) -> Option<(u8, Option<BinOp>)> {
        let t = self.peek()?;
        if let Some(&(_, op, power)) = BINARY.iter().find(|(s, ..)| t.is_kw(s) || t.is_punct(s)) {
            return Some((power, Some(op)));
        }
        let suffix = |t: &Token| t.is_kw("between") || t.is_kw("in") || t.is_kw("like");
        let negated = t.is_kw("not") && self.peek2().is_some_and(suffix);
        (t.is_kw("is") || suffix(t) || negated).then_some((BP_COMPARE, None))
    }

    /// The comparison suffix at the cursor, applied to `left`: `IS [NOT]
    /// NULL | MISSING | VALUED` or `[NOT] BETWEEN | IN | LIKE …`.
    fn parse_suffix(&mut self, left: Expr) -> Result<Expr> {
        let left = Box::new(left);
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            let word = ["null", "missing", "valued"].into_iter().find(|w| self.eat_kw(w));
            let check = match (word, negated) {
                (Some("null"), false) => IsCheck::Null,
                (Some("null"), true) => IsCheck::NotNull,
                (Some("missing"), false) => IsCheck::Missing,
                (Some("missing"), true) => IsCheck::NotMissing,
                (Some(_), false) => IsCheck::Valued,
                (Some(_), true) => {
                    let msg = "IS NOT VALUED is not supported; use IS NULL OR IS MISSING";
                    return Err(self.err(msg));
                }
                (None, _) => return Err(self.err("expected NULL, MISSING or VALUED after IS")),
            };
            return Ok(Expr::IsCheck(check, left));
        }
        // `infix` takes a NOT only before BETWEEN, IN or LIKE.
        let negated = self.eat_kw("not");
        if self.eat_kw("between") {
            let low = Box::new(self.parse_bp(BP_CONCAT)?);
            self.expect_kw("and")?;
            let high = Box::new(self.parse_bp(BP_CONCAT)?);
            return Ok(Expr::Between { expr: left, low, high, negated });
        }
        if self.eat_kw("in") {
            let list = Box::new(self.parse_bp(BP_CONCAT)?);
            return Ok(Expr::In { expr: left, list, negated });
        }
        self.expect_kw("like")?;
        let pattern = Box::new(self.parse_bp(BP_CONCAT)?);
        Ok(Expr::Like { expr: left, pattern, negated })
    }

    fn parse_postfix(&mut self) -> Result<Expr> {
        match self.parse_primary()? {
            Expr::Path(path) => self.parse_path_steps(path).map(Expr::Path),
            _ if self.peek().is_some_and(|t| t.is_punct(".")) => {
                Err(self.err("field access on non-path expressions is unsupported"))
            }
            e => Ok(e),
        }
    }

    /// The `.field` and `[index]` steps after a path's first field: the
    /// one path grammar, for expressions, SET/UNSET targets and index keys.
    fn parse_path_steps(&mut self, mut path: JsonPath) -> Result<JsonPath> {
        let depth = self.depth;
        loop {
            if self.eat_punct(".") {
                path.steps.push(PathStep::Field(self.expect_ident()?));
            } else if self.eat_punct("[") {
                // A subscript steps one level into a value.
                self.enter()?;
                let idx = match self.bump() {
                    Some(Token::Int(i)) => i,
                    Some(Token::Punct("-")) => match self.bump() {
                        Some(Token::Int(i)) => -i,
                        other => return Err(self.err(&format!("bad subscript: {other:?}"))),
                    },
                    other => return Err(self.err(&format!("bad subscript: {other:?}"))),
                };
                self.expect_punct("]")?;
                path.steps.push(PathStep::Index(idx));
            } else {
                self.depth = depth;
                return Ok(path);
            }
        }
    }

    /// A primary; one that holds expressions is one level deeper.
    fn parse_primary(&mut self) -> Result<Expr> {
        let Some(compound) = self.compound_at() else { return self.parse_leaf_primary() };
        self.enter()?;
        let e = match compound {
            Compound::Paren => self.parse_paren(),
            Compound::ArrayLit => self.parse_array_lit(),
            Compound::ObjectLit => self.parse_object_lit(),
            Compound::Case => self.parse_case(),
            Compound::AnyEvery(any) => self.parse_any_every(any),
            Compound::ArrayFor => self.parse_array_comp(),
            Compound::Call(name) => self.parse_call(name),
        };
        self.depth -= 1;
        e
    }

    /// The primary at the cursor if it holds expressions, its opening
    /// token(s) consumed; `None`, consuming nothing, for any other.
    fn compound_at(&mut self) -> Option<Compound> {
        let compound = match self.peek()? {
            Token::Punct("(") => Compound::Paren,
            Token::Punct("[") => Compound::ArrayLit,
            Token::Punct("{") => Compound::ObjectLit,
            Token::Ident(word) => {
                let is = |kw: &str| word.eq_ignore_ascii_case(kw);
                let next_is = |p: &str| self.peek2().is_some_and(|t| t.is_punct(p));
                // Words `parse_ident_primary` reads whatever follows them.
                let count_star = self.tokens.get(self.pos + 2).is_some_and(|t| t.is_punct("*"));
                let leaf = is_reserved(word)
                    || (is("count") && count_star)
                    || ["true", "false", "null", "missing", "meta"].into_iter().any(is);
                if is("case") {
                    Compound::Case
                } else if is("any") || is("every") {
                    Compound::AnyEvery(is("any"))
                } else if is("array") && !(next_is("(") || next_is(".") || next_is("[")) {
                    Compound::ArrayFor
                } else if next_is("(") && !leaf {
                    Compound::Call(word.clone())
                } else {
                    return None;
                }
            }
            _ => return None,
        };
        self.pos += if matches!(compound, Compound::Call(_)) { 2 } else { 1 };
        Some(compound)
    }

    /// A primary that holds no expression: a literal, a parameter,
    /// `META().id`, `COUNT(*)` or the start of a path.
    fn parse_leaf_primary(&mut self) -> Result<Expr> {
        match self.peek().cloned() {
            Some(Token::Int(i)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::int(i)))
            }
            Some(Token::Float(f)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::float(f)))
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::from(s)))
            }
            Some(Token::PosParam(n)) => {
                self.pos += 1;
                Ok(Expr::PosParam(n))
            }
            Some(Token::NamedParam(n)) => {
                self.pos += 1;
                Ok(Expr::NamedParam(n))
            }
            Some(Token::QuotedIdent(s)) => {
                self.pos += 1;
                Ok(Expr::Path(field_path(s)))
            }
            Some(Token::Ident(word)) => self.parse_ident_primary(word),
            other => Err(self.err(&format!("unexpected token {other:?}"))),
        }
    }

    /// A parenthesized expression, its `(` consumed.
    fn parse_paren(&mut self) -> Result<Expr> {
        let e = self.parse_expr()?;
        self.expect_punct(")")?;
        Ok(e)
    }

    /// An array literal, its `[` consumed.
    fn parse_array_lit(&mut self) -> Result<Expr> {
        let mut items = Vec::new();
        if !self.eat_punct("]") {
            loop {
                items.push(self.parse_expr()?);
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct("]")?;
        }
        Ok(Expr::ArrayLit(items))
    }

    /// An object literal, its `{` consumed.
    fn parse_object_lit(&mut self) -> Result<Expr> {
        let mut pairs = Vec::new();
        if !self.eat_punct("}") {
            loop {
                let key = match self.bump() {
                    Some(Token::Str(s)) => s,
                    Some(Token::Ident(s)) | Some(Token::QuotedIdent(s)) => s,
                    other => return Err(self.err(&format!("bad object key: {other:?}"))),
                };
                self.expect_punct(":")?;
                pairs.push((key, self.parse_expr()?));
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct("}")?;
        }
        Ok(Expr::ObjectLit(pairs))
    }

    fn parse_ident_primary(&mut self, word: String) -> Result<Expr> {
        if is_reserved(&word) {
            return Err(self.err(&format!("reserved word '{word}' cannot start an expression")));
        }
        // Keyword literals.
        if word.eq_ignore_ascii_case("true") {
            self.pos += 1;
            return Ok(Expr::Literal(Value::Bool(true)));
        }
        if word.eq_ignore_ascii_case("false") {
            self.pos += 1;
            return Ok(Expr::Literal(Value::Bool(false)));
        }
        if word.eq_ignore_ascii_case("null") {
            self.pos += 1;
            return Ok(Expr::Literal(Value::Null));
        }
        if word.eq_ignore_ascii_case("missing") {
            self.pos += 1;
            // MISSING as a literal: modeled as an IS MISSING-only construct;
            // evaluate to MISSING via a dedicated function.
            return Ok(Expr::Func { name: "MISSING".to_string(), args: vec![], distinct: false });
        }
        // `compound_at` takes every other call.
        if self.peek2().is_some_and(|t| t.is_punct("(")) {
            self.pos += 2; // ident + '('
            if word.eq_ignore_ascii_case("meta") {
                // META() / META(alias) followed by .id
                let alias = if self.eat_punct(")") {
                    None
                } else {
                    let a = self.expect_ident()?;
                    self.expect_punct(")")?;
                    Some(a)
                };
                self.expect_punct(".")?;
                let field = self.expect_ident()?;
                if !field.eq_ignore_ascii_case("id") {
                    return Err(self.err("only META().id is supported"));
                }
                return Ok(Expr::MetaId(alias));
            }
            self.expect_punct("*")?;
            self.expect_punct(")")?;
            return Ok(Expr::CountStar);
        }
        // Plain path start.
        self.pos += 1;
        Ok(Expr::Path(field_path(word)))
    }

    /// A function call's arguments, its name and `(` consumed.
    fn parse_call(&mut self, name: String) -> Result<Expr> {
        let distinct = self.eat_kw("distinct");
        let mut args = Vec::new();
        if !self.eat_punct(")") {
            loop {
                args.push(self.parse_expr()?);
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
        }
        Ok(Expr::Func { name: name.to_uppercase(), args, distinct })
    }

    fn parse_case(&mut self) -> Result<Expr> {
        let mut arms = Vec::new();
        while self.eat_kw("when") {
            let cond = self.parse_expr()?;
            self.expect_kw("then")?;
            let val = self.parse_expr()?;
            arms.push((cond, val));
        }
        if arms.is_empty() {
            return Err(self.err("CASE requires at least one WHEN"));
        }
        let else_ = if self.eat_kw("else") { Some(Box::new(self.parse_expr()?)) } else { None };
        self.expect_kw("end")?;
        Ok(Expr::Case { arms, else_ })
    }

    fn parse_any_every(&mut self, any: bool) -> Result<Expr> {
        let var = self.expect_ident()?;
        self.expect_kw("in")?;
        let source = self.parse_expr()?;
        self.expect_kw("satisfies")?;
        let cond = self.parse_expr()?;
        self.expect_kw("end")?;
        Ok(Expr::AnyEvery { any, var, source: Box::new(source), cond: Box::new(cond) })
    }

    fn parse_array_comp(&mut self) -> Result<Expr> {
        let expr = self.parse_expr()?;
        self.expect_kw("for")?;
        let var = self.expect_ident()?;
        self.expect_kw("in")?;
        let source = self.parse_expr()?;
        let when = if self.eat_kw("when") { Some(Box::new(self.parse_expr()?)) } else { None };
        self.expect_kw("end")?;
        Ok(Expr::ArrayComp { expr: Box::new(expr), var, source: Box::new(source), when })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_json::parse_path;

    fn sel(s: &str) -> Select {
        match parse_statement(s).unwrap() {
            Statement::Select(sel) => sel,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn simple_select() {
        let s =
            sel("SELECT name, age FROM profiles WHERE age >= 21 ORDER BY name LIMIT 10 OFFSET 5");
        assert_eq!(s.items.len(), 2);
        let f = s.from.unwrap();
        assert_eq!(f.keyspace, "profiles");
        assert_eq!(f.alias, "profiles");
        assert!(s.where_.is_some());
        assert_eq!(s.order_by.len(), 1);
        assert_eq!(s.limit, Some(Expr::Literal(Value::int(10))));
        assert_eq!(s.offset, Some(Expr::Literal(Value::int(5))));
    }

    #[test]
    fn use_keys_forms() {
        // The paper's §3.2.3 examples.
        let s = sel(r#"SELECT * FROM profiles USE KEYS "acme-uuid-1234-5678""#);
        assert!(matches!(s.from.unwrap().use_keys, Some(Expr::Literal(Value::String(_)))));
        let s = sel(r#"SELECT * FROM profiles USE KEYS ["a", "b"]"#);
        assert!(matches!(s.from.unwrap().use_keys, Some(Expr::ArrayLit(v)) if v.len() == 2));
    }

    #[test]
    fn paper_nest_query_shape() {
        let s = sel("SELECT PO.personal_details, orders FROM profiles_orders PO \
             USE KEYS 'borkar123' \
             NEST profiles_orders AS orders \
             ON KEYS ARRAY s.order_id FOR s IN PO.shipped_order_history END");
        let from = s.from.unwrap();
        assert_eq!(from.alias, "PO");
        assert_eq!(from.ops.len(), 1);
        match &from.ops[0] {
            FromOp::Nest { alias, on_keys, .. } => {
                assert_eq!(alias, "orders");
                assert!(matches!(on_keys, Expr::ArrayComp { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn paper_unnest_query() {
        let s = sel(
            "SELECT DISTINCT (categories) FROM product UNNEST product.categories AS categories",
        );
        assert!(s.distinct);
        let from = s.from.unwrap();
        assert!(matches!(&from.ops[0], FromOp::Unnest { alias, .. } if alias == "categories"));
    }

    #[test]
    fn key_join() {
        let s = sel("SELECT * FROM ORDERS O INNER JOIN CUSTOMER C ON KEYS O.O_C_ID");
        let from = s.from.unwrap();
        assert_eq!(from.alias, "O");
        match &from.ops[0] {
            FromOp::Join { keyspace, alias, left_outer, .. } => {
                assert_eq!(keyspace, "CUSTOMER");
                assert_eq!(alias, "C");
                assert!(!left_outer);
            }
            other => panic!("{other:?}"),
        }
        let s = sel("SELECT * FROM a LEFT OUTER JOIN b ON KEYS a.bid");
        assert!(matches!(&s.from.unwrap().ops[0], FromOp::Join { left_outer: true, .. }));
    }

    #[test]
    fn general_joins_rejected() {
        // §3.2.4: joins must be ON KEYS.
        assert!(parse_statement("SELECT * FROM a JOIN b ON a.x = b.y").is_err());
    }

    #[test]
    fn group_having_aggregates() {
        let s =
            sel("SELECT city, COUNT(*) AS n, AVG(age) FROM p GROUP BY city HAVING COUNT(*) > 2");
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert!(matches!(
            &s.items[1],
            SelectItem::Expr { expr: Expr::CountStar, alias: Some(a) } if a == "n"
        ));
    }

    #[test]
    fn dml_statements() {
        let st = parse_statement(
            r#"INSERT INTO b (KEY, VALUE) VALUES ("k1", {"a": 1}), ("k2", {"a": 2})"#,
        )
        .unwrap();
        assert!(matches!(st, Statement::Insert { values, .. } if values.len() == 2));

        let st = parse_statement(r#"UPSERT INTO b (KEY, VALUE) VALUES ($1, $2)"#).unwrap();
        assert!(matches!(st, Statement::Upsert { .. }));

        let st = parse_statement(
            "UPDATE b USE KEYS 'k' SET a.x = 1, y = 'z' UNSET old WHERE a > 0 LIMIT 1",
        )
        .unwrap();
        match st {
            Statement::Update { set, unset, use_keys, where_, limit, .. } => {
                assert_eq!(set.len(), 2);
                assert_eq!(set[0].0, parse_path("a.x").unwrap());
                assert_eq!(unset, vec![parse_path("old").unwrap()]);
                assert!(use_keys.is_some());
                assert!(where_.is_some());
                assert!(limit.is_some());
            }
            other => panic!("{other:?}"),
        }

        let st = parse_statement("DELETE FROM b WHERE age < 0").unwrap();
        assert!(matches!(st, Statement::Delete { where_: Some(_), .. }));
    }

    #[test]
    fn index_ddl() {
        // §3.3 examples.
        let view = parse_statement("CREATE INDEX email ON `Profile` (email) USING VIEW").unwrap();
        let st = parse_statement("CREATE INDEX email ON `Profile` (email) USING GSI").unwrap();
        assert_eq!(view, st, "USING VIEW builds the same index as USING GSI");
        match st {
            Statement::CreateIndex { name, keyspace, keys, .. } => {
                assert_eq!(name, "email");
                assert_eq!(keyspace, "Profile");
                assert_eq!(keys[0].path, parse_path("email").unwrap());
            }
            other => panic!("{other:?}"),
        }

        let st = parse_statement("CREATE INDEX over21 ON `Profile`(age) WHERE age > 21 USING GSI")
            .unwrap();
        assert!(matches!(st, Statement::CreateIndex { where_: Some(_), .. }));

        let st = parse_statement(
            r#"CREATE PRIMARY INDEX profile_pk_gsi ON Profile USING GSI WITH {"defer_build": true}"#,
        )
        .unwrap();
        assert!(matches!(
            st,
            Statement::CreatePrimaryIndex { defer_build: true, name, .. } if name == "profile_pk_gsi"
        ));

        let st = parse_statement(
            "CREATE INDEX cats ON product(DISTINCT ARRAY c FOR c IN categories END)",
        )
        .unwrap();
        assert!(matches!(st, Statement::CreateIndex { keys, .. } if keys[0].array));

        let st = parse_statement("DROP INDEX Profile.email").unwrap();
        assert!(matches!(st, Statement::DropIndex { .. }));

        let st = parse_statement("BUILD INDEX ON Profile(email, over21)").unwrap();
        assert!(matches!(st, Statement::BuildIndex { names, .. } if names.len() == 2));
    }

    #[test]
    fn explain_wraps() {
        let st = parse_statement("EXPLAIN SELECT title FROM catalog ORDER BY title").unwrap();
        assert!(matches!(st, Statement::Explain(inner) if matches!(*inner, Statement::Select(_))));
    }

    #[test]
    fn expression_forms() {
        let e = parse_expression("a.b[0].c").unwrap();
        assert_eq!(
            e,
            Expr::Path(JsonPath {
                steps: vec![
                    PathStep::Field("a".to_string()),
                    PathStep::Field("b".to_string()),
                    PathStep::Index(0),
                    PathStep::Field("c".to_string()),
                ]
            })
        );
        assert!(matches!(parse_expression("META().id").unwrap(), Expr::MetaId(None)));
        assert!(matches!(
            parse_expression("META(b).id").unwrap(),
            Expr::MetaId(Some(a)) if a == "b"
        ));
        assert!(matches!(parse_expression("x BETWEEN 1 AND 5").unwrap(), Expr::Between { .. }));
        assert!(matches!(
            parse_expression("x NOT IN [1,2]").unwrap(),
            Expr::In { negated: true, .. }
        ));
        assert!(matches!(parse_expression("name LIKE 'D%'").unwrap(), Expr::Like { .. }));
        assert!(matches!(
            parse_expression("x IS NOT MISSING").unwrap(),
            Expr::IsCheck(IsCheck::NotMissing, _)
        ));
        assert!(matches!(
            parse_expression("CASE WHEN a > 1 THEN 'big' ELSE 'small' END").unwrap(),
            Expr::Case { .. }
        ));
        assert!(matches!(
            parse_expression("ANY t IN tags SATISFIES t = 'new' END").unwrap(),
            Expr::AnyEvery { any: true, .. }
        ));
    }

    #[test]
    fn operator_precedence() {
        // 1 + 2 * 3 = 7, not 9.
        let e = parse_expression("1 + 2 * 3").unwrap();
        assert_eq!(
            e,
            Expr::Binary(
                BinOp::Add,
                Box::new(Expr::Literal(Value::int(1))),
                Box::new(Expr::Binary(
                    BinOp::Mul,
                    Box::new(Expr::Literal(Value::int(2))),
                    Box::new(Expr::Literal(Value::int(3))),
                )),
            )
        );
        // AND binds tighter than OR.
        let e = parse_expression("a OR b AND c").unwrap();
        assert!(matches!(e, Expr::Binary(BinOp::Or, _, _)));
    }

    #[test]
    fn select_star_variants() {
        let s = sel("SELECT * FROM b");
        assert_eq!(s.items, vec![SelectItem::Star]);
        let s = sel("SELECT p.* FROM b p");
        assert_eq!(s.items, vec![SelectItem::AliasStar("p".to_string())]);
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "",
            "SELECT",
            "SELECT FROM b",
            "FROM b SELECT *",
            "SELECT * FROM b WHERE",
            "INSERT INTO b VALUES (1)",
            "UPDATE b",
            "CREATE INDEX ON b(x)",
            "SELECT * FROM a JOIN b ON a.x = b.x",
            "SELECT * FROM b; SELECT * FROM b",
        ] {
            assert!(parse_statement(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn workload_e_query_parses() {
        // The appendix's YCSB workload E query (§10.1.2).
        let s = sel("SELECT meta().id AS id FROM `bucket` WHERE meta().id >= $1 LIMIT $2");
        assert!(matches!(
            &s.items[0],
            SelectItem::Expr { expr: Expr::MetaId(None), alias: Some(a) } if a == "id"
        ));
        assert_eq!(s.limit, Some(Expr::PosParam(2)));
    }
}
