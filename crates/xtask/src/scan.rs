//! A masking scanner for Rust source.
//!
//! The analyzer's passes ([`crate::analyze`]) are textual: they look for
//! tokens (`Instant::now`, `.lock()`, `fs::rename`, ...) in *code*.
//! To avoid false positives on comments and string literals, this module
//! produces a **masked** copy of each file — same shape (identical line
//! count and column positions), but with every comment and every string /
//! char literal blanked to spaces. Rules then match against the mask and
//! report positions that are valid in the original file.
//!
//! While masking we also collect:
//!
//! - `// lint:allow(<rule>): <reason>` directives (the suppression
//!   mechanism — see [`Allow`]);
//! - which lines sit inside a `#[cfg(test)]` block, so rules can exempt
//!   unit-test modules.
//!
//! This is deliberately *not* a full lexer (no `syn` in the approved
//! dependency set). It handles the constructs that would otherwise corrupt
//! a textual match: line and nested block comments, string escapes, raw
//! strings with hash fences, byte strings, and char literals (including
//! `'{'`, which would otherwise unbalance brace tracking) while leaving
//! lifetimes alone.

/// A `lint:allow` suppression directive found in a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// 1-based line the directive appears on.
    pub line: usize,
    /// 1-based line the directive *covers*: the directive's own line if it
    /// trails code, otherwise the first following line with any code on it
    /// (so multi-line explanation comments work).
    pub target_line: usize,
    /// Rule name inside the parentheses.
    pub rule: String,
    /// Whether a non-empty `: reason` followed. Reasons are mandatory; the
    /// driver reports reason-less allows as findings.
    pub has_reason: bool,
}

/// The masked view of one source file.
pub struct Masked {
    /// Source lines with comments and literals blanked to spaces.
    pub lines: Vec<String>,
    /// All `lint:allow` directives, in file order.
    pub allows: Vec<Allow>,
    /// `test_lines[i]` is true when line `i+1` is inside a `#[cfg(test)]`
    /// braced block (the attribute line itself is not included).
    pub test_lines: Vec<bool>,
}

/// Scan `src`, producing the masked line set plus allow directives and the
/// `#[cfg(test)]` line map.
pub fn mask(src: &str) -> Masked {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut out = String::with_capacity(src.len());
    let mut raw_allows: Vec<(usize, String, bool)> = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;

    // Emit `count` blanks for consumed source chars (newlines preserved).
    macro_rules! blank {
        ($ch:expr) => {
            if $ch == '\n' {
                out.push('\n');
                line += 1;
            } else {
                out.push(' ');
            }
        };
    }

    while i < n {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match c {
            '/' if next == Some('/') => {
                // Line comment: consume to end of line, remember the text so
                // lint:allow directives can be parsed out of it.
                let start = line;
                let mut text = String::new();
                while i < n && chars[i] != '\n' {
                    text.push(chars[i]);
                    out.push(' ');
                    i += 1;
                }
                parse_allow(&text, start, &mut raw_allows);
            }
            '/' if next == Some('*') => {
                // Block comment; Rust block comments nest.
                let mut depth = 1usize;
                let mut text_line = line;
                let mut text = String::new();
                out.push(' ');
                out.push(' ');
                i += 2;
                while i < n && depth > 0 {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        out.push(' ');
                        out.push(' ');
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        out.push(' ');
                        out.push(' ');
                        i += 2;
                    } else {
                        if chars[i] == '\n' {
                            parse_allow(&text, text_line, &mut raw_allows);
                            text.clear();
                            text_line = line + 1;
                        } else {
                            text.push(chars[i]);
                        }
                        blank!(chars[i]);
                        i += 1;
                    }
                }
                parse_allow(&text, text_line, &mut raw_allows);
            }
            '"' => {
                // String literal with escapes (multi-line allowed).
                blank!(c);
                i += 1;
                while i < n {
                    if chars[i] == '\\' && i + 1 < n {
                        blank!(chars[i]);
                        blank!(chars[i + 1]);
                        i += 2;
                    } else if chars[i] == '"' {
                        blank!(chars[i]);
                        i += 1;
                        break;
                    } else {
                        blank!(chars[i]);
                        i += 1;
                    }
                }
            }
            'r' | 'b' if is_raw_string_start(&chars, i) => {
                // r"...", r#"..."#, br"..." — no escapes; closed by a quote
                // followed by the same number of hashes.
                let mut j = i;
                if chars[j] == 'b' {
                    blank!(chars[j]);
                    j += 1;
                }
                blank!(chars[j]); // the 'r'
                j += 1;
                let mut hashes = 0usize;
                while chars.get(j) == Some(&'#') {
                    blank!(chars[j]);
                    hashes += 1;
                    j += 1;
                }
                blank!(chars[j]); // opening quote
                j += 1;
                'raw: while j < n {
                    if chars[j] == '"' {
                        let mut k = 0usize;
                        while k < hashes && chars.get(j + 1 + k) == Some(&'#') {
                            k += 1;
                        }
                        if k == hashes {
                            for _ in 0..=hashes {
                                blank!(chars[j]);
                                j += 1;
                            }
                            break 'raw;
                        }
                    }
                    blank!(chars[j]);
                    j += 1;
                }
                i = j;
            }
            'b' if next == Some('"') && !prev_is_ident(&chars, i) => {
                // Byte string: same escape rules as a normal string.
                blank!(c);
                i += 1;
                // Falls through to the '"' arm logic on the next iteration.
            }
            '\'' => {
                // Char literal vs lifetime. A char literal is '\'' followed
                // by an escape, or a single char then a closing quote;
                // anything else (e.g. `'a` in `&'a str`) is a lifetime and
                // stays in the code mask.
                if next == Some('\\') {
                    blank!(c);
                    i += 1;
                    while i < n {
                        if chars[i] == '\\' && i + 1 < n {
                            blank!(chars[i]);
                            blank!(chars[i + 1]);
                            i += 2;
                        } else if chars[i] == '\'' {
                            blank!(chars[i]);
                            i += 1;
                            break;
                        } else {
                            blank!(chars[i]);
                            i += 1;
                        }
                    }
                } else if chars.get(i + 2) == Some(&'\'') && next != Some('\'') {
                    blank!(c);
                    blank!(chars[i + 1]);
                    blank!(chars[i + 2]);
                    i += 3;
                } else {
                    out.push(c);
                    i += 1;
                }
            }
            _ => {
                blank!(c);
                if c != '\n' {
                    // Keep the char in the mask (blank! pushed a space for
                    // non-newline — undo and push the real char).
                    out.pop();
                    out.push(c);
                }
                i += 1;
            }
        }
    }

    let lines: Vec<String> = out.lines().map(str::to_string).collect();
    let test_lines = mark_test_lines(&lines);
    let allows = raw_allows
        .into_iter()
        .map(|(aline, rule, has_reason)| {
            // The directive covers its own line if code shares it, else the
            // next line that has any code. Attribute-only lines (`#[...]`)
            // are skipped too: findings anchor to expressions, so a
            // directive above `#[allow(...)]` must reach past it.
            let skip = |l: &str| {
                let t = l.trim();
                t.is_empty() || (t.starts_with("#[") || t.starts_with("#![")) && t.ends_with(']')
            };
            let mut target = aline;
            let blank_own = lines.get(aline - 1).map(|l| l.trim().is_empty()).unwrap_or(true);
            if blank_own {
                target = aline + 1;
                while target <= lines.len() && skip(&lines[target - 1]) {
                    target += 1;
                }
            }
            Allow { line: aline, target_line: target, rule, has_reason }
        })
        .collect();
    Masked { lines, allows, test_lines }
}

/// Does a raw-string literal (`r"`, `r#"`, `br"`, ...) start at `i`? Must
/// distinguish from raw identifiers (`r#match`) and plain idents ending in
/// `r`/`b`.
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    if prev_is_ident(chars, i) {
        return false;
    }
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
        if chars.get(j) != Some(&'r') {
            return false;
        }
    }
    j += 1; // past 'r'
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// Parse `lint:allow(<rule>)` or `lint:allow(<rule>): <reason>` out of one
/// comment line.
fn parse_allow(comment: &str, line: usize, out: &mut Vec<(usize, String, bool)>) {
    const TAG: &str = "lint:allow(";
    let Some(pos) = comment.find(TAG) else { return };
    let rest = &comment[pos + TAG.len()..];
    let Some(close) = rest.find(')') else { return };
    let rule = rest[..close].trim().to_string();
    let after = rest[close + 1..].trim_start();
    let has_reason = after.strip_prefix(':').map(|r| !r.trim().is_empty()).unwrap_or(false);
    out.push((line, rule, has_reason));
}

/// Mark lines inside `#[cfg(test)] { ... }` blocks (test modules, gated
/// impls). The attribute arms on sight of `cfg(test`; the next `{` opens
/// the exempt region, which closes when brace depth returns. A file that
/// gates itself with the inner attribute `#![cfg(test)]` (a unit-test
/// module in a file of its own) is exempt from that line on.
fn mark_test_lines(lines: &[String]) -> Vec<bool> {
    let mut flags = vec![false; lines.len()];
    if let Some(gate) = lines.iter().position(|l| l.trim_start().starts_with("#![cfg(test)]")) {
        flags[gate..].fill(true);
        return flags;
    }
    let mut depth = 0i32;
    let mut armed = false;
    let mut skip_above: Option<i32> = None;
    for (idx, l) in lines.iter().enumerate() {
        if l.contains("cfg(test") || l.contains("cfg(all(test") || l.contains("cfg(any(test") {
            armed = true;
        }
        let mut in_test = skip_above.is_some();
        for ch in l.chars() {
            match ch {
                '{' => {
                    if armed && skip_above.is_none() {
                        skip_above = Some(depth);
                        armed = false;
                        in_test = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if let Some(d) = skip_above {
                        if depth <= d {
                            skip_above = None;
                        }
                    }
                }
                _ => {}
            }
        }
        flags[idx] = in_test || skip_above.is_some();
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let m = mask("let x = \"a.unwrap()\"; // .unwrap() here\nlet y = 1;\n");
        assert!(!m.lines[0].contains("unwrap"));
        assert!(m.lines[0].contains("let x ="));
        assert_eq!(m.lines[1], "let y = 1;");
    }

    #[test]
    fn raw_strings_and_bytes_are_blanked() {
        let m = mask("let p = r#\"std::sync::Mutex\"#; let q = b\"Instant::now\";\n");
        assert!(!m.lines[0].contains("Mutex"));
        assert!(!m.lines[0].contains("Instant"));
    }

    #[test]
    fn raw_identifier_is_not_a_string() {
        let m = mask("let r#type = 1; let s = r\"x\";\n");
        assert!(m.lines[0].contains("r#type"));
        assert!(!m.lines[0].contains('x'));
    }

    #[test]
    fn nested_block_comment() {
        let m = mask("a /* one /* two */ still comment */ b\n");
        assert_eq!(m.lines[0].trim_start().chars().next(), Some('a'));
        assert!(!m.lines[0].contains("still"));
        assert!(m.lines[0].contains('b'));
    }

    #[test]
    fn char_literal_with_brace_keeps_depth_sane() {
        let m = mask("if c == '{' { x(); }\n");
        assert!(!m.lines[0].contains('{') || m.lines[0].matches('{').count() == 1);
        // lifetime survives in the mask
        let m2 = mask("fn f<'a>(x: &'a str) {}\n");
        assert!(m2.lines[0].contains("'a"));
    }

    #[test]
    fn multiline_string_preserves_line_count() {
        let src = "let s = \"line one\nline two\";\nlet z = 0;\n";
        let m = mask(src);
        assert_eq!(m.lines.len(), 3);
        assert_eq!(m.lines[2], "let z = 0;");
    }

    #[test]
    fn allow_directive_parsed_with_reason() {
        let m = mask("// lint:allow(unwrap): trusted invariant\nfoo.unwrap();\n");
        assert_eq!(m.allows.len(), 1);
        let a = &m.allows[0];
        assert_eq!(a.rule, "unwrap");
        assert!(a.has_reason);
        assert_eq!(a.line, 1);
        assert_eq!(a.target_line, 2);
    }

    #[test]
    fn allow_without_reason_flagged() {
        let m = mask("// lint:allow(unwrap)\nfoo.unwrap();\n");
        assert!(!m.allows[0].has_reason);
    }

    #[test]
    fn allow_target_skips_comment_continuation_lines() {
        let src = "// lint:allow(guard-blocking): the rename must happen under the\n// compaction lock because concurrent writers append to it\nstd::fs::rename(a, b);\n";
        let m = mask(src);
        assert_eq!(m.allows[0].target_line, 3);
    }

    #[test]
    fn allow_target_skips_attribute_lines() {
        let src = "// lint:allow(unwrap): scaffolding\n#[allow(clippy::expect_used)]\nfoo.expect(\"x\");\n";
        let m = mask(src);
        assert_eq!(m.allows[0].target_line, 3);
    }

    #[test]
    fn trailing_allow_targets_its_own_line() {
        let m = mask("foo.unwrap(); // lint:allow(unwrap): startup only\n");
        assert_eq!(m.allows[0].target_line, 1);
    }

    #[test]
    fn cfg_test_region_marked() {
        let src = "\
fn hot() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { y.unwrap(); }
}
fn also_hot() {}
";
        let m = mask(src);
        assert!(!m.test_lines[0]);
        assert!(m.test_lines[3]);
        assert!(!m.test_lines[5]);
    }

    #[test]
    fn file_gated_by_inner_cfg_test_is_all_test() {
        let m =
            mask("//! A unit-test module.\n#![cfg(test)]\nuse x::{A};\nfn t() { y.unwrap(); }\n");
        assert_eq!(m.test_lines, [false, true, true, true]);
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = "#[cfg(not(test))]\nfn hot() { x.unwrap(); }\n";
        let m = mask(src);
        assert!(!m.test_lines[1]);
    }
}
