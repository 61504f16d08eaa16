//! A small hand-rolled Rust lexer.
//!
//! Just enough lexing to run the project rules reliably: it is exact about
//! what is *not* code — line/block comments (nested), string literals,
//! raw strings with any `#` arity, byte strings, char literals vs.
//! lifetimes — and it records comment text so allow directives (see the
//! crate docs) can be attached to lines. It does not build an AST; rules
//! work on the flat token stream plus the `in_test` flag computed for
//! `#[cfg(test)]` regions.

/// What a token is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal.
    Int,
    /// Float literal (has a fractional part, exponent, or f32/f64 suffix).
    Float,
    /// Any string-ish literal (string, raw string, byte string).
    Str,
    /// Char or byte-char literal.
    Char,
    /// A lifetime like `'a`.
    Lifetime,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// `..` or `..=`
    DotDot,
    /// `::`
    PathSep,
    /// `->`
    Arrow,
    /// `=>`
    FatArrow,
    /// Any other single punctuation character.
    Punct(char),
}

/// One token with its 1-based source line and column.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token kind (and text for identifiers).
    pub kind: Kind,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column (in chars) of the token start.
    pub col: u32,
    /// True when the token sits inside a `#[cfg(test)]` item.
    pub in_test: bool,
}

/// A comment's text and the line it starts on.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line number of the comment start.
    pub line: u32,
    /// Comment text without the `//` / `/*` markers.
    pub text: String,
    /// True when nothing but whitespace precedes the comment on its line.
    pub own_line: bool,
}

/// Lexer output: the token stream plus all comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

/// Tokenize `src`. Never fails: unterminated constructs consume the rest of
/// the input, which is the forgiving behaviour a linter wants.
pub fn lex(src: &str) -> Lexed {
    let bytes: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut line_start = 0usize;
    let mut line_has_code = false;

    // Push a token with the line/col captured *before* its consumption (a
    // string may span newlines, mutating `line` while being consumed).
    macro_rules! push {
        ($kind:expr, $line:expr, $col:expr) => {
            out.tokens.push(Token { kind: $kind, line: $line, col: $col, in_test: false })
        };
    }
    // Re-anchor `line_start` after consuming a construct that may contain
    // newlines (multi-line strings, block comments).
    macro_rules! resync_line_start {
        () => {
            if let Some(p) = bytes[..i].iter().rposition(|c| *c == '\n') {
                line_start = p + 1;
            }
        };
    }

    while i < bytes.len() {
        let c = bytes[i];
        let tok_line = line;
        let tok_col = (i - line_start + 1) as u32;
        match c {
            '\n' => {
                line += 1;
                line_start = i + 1;
                line_has_code = false;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if bytes.get(i + 1) == Some(&'/') => {
                let start = i + 2;
                let mut j = start;
                while j < bytes.len() && bytes[j] != '\n' {
                    j += 1;
                }
                out.comments.push(Comment {
                    line,
                    text: bytes[start..j].iter().collect(),
                    own_line: !line_has_code,
                });
                i = j;
            }
            '/' if bytes.get(i + 1) == Some(&'*') => {
                let comment_line = i;
                let own_line = !line_has_code;
                let start_line = line;
                let mut depth = 1;
                let mut j = i + 2;
                while j < bytes.len() && depth > 0 {
                    if bytes[j] == '\n' {
                        line += 1;
                        line_has_code = false;
                    } else if bytes[j] == '/' && bytes.get(j + 1) == Some(&'*') {
                        depth += 1;
                        j += 1;
                    } else if bytes[j] == '*' && bytes.get(j + 1) == Some(&'/') {
                        depth -= 1;
                        j += 1;
                    }
                    j += 1;
                }
                // Strip the closing `*/` only when the comment actually
                // terminated; an unterminated comment runs to EOF and its
                // last two chars are ordinary text (possibly a directive's).
                let text_end = if depth == 0 { j.saturating_sub(2) } else { j };
                out.comments.push(Comment {
                    line: start_line,
                    text: bytes[comment_line + 2..text_end.max(comment_line + 2)]
                        .iter()
                        .collect(),
                    own_line,
                });
                i = j;
                resync_line_start!();
            }
            '"' => {
                line_has_code = true;
                i = consume_string(&bytes, i + 1, &mut line);
                resync_line_start!();
                push!(Kind::Str, tok_line, tok_col);
            }
            'r' | 'b' if is_raw_or_byte_string(&bytes, i) => {
                line_has_code = true;
                i = consume_prefixed_string(&bytes, i, &mut line);
                resync_line_start!();
                push!(Kind::Str, tok_line, tok_col);
            }
            'b' if bytes.get(i + 1) == Some(&'\'') => {
                line_has_code = true;
                i = consume_char_literal(&bytes, i + 2);
                push!(Kind::Char, tok_line, tok_col);
            }
            '\'' => {
                line_has_code = true;
                // Char literal or lifetime?
                if bytes.get(i + 1) == Some(&'\\') {
                    i = consume_char_literal(&bytes, i + 1);
                    push!(Kind::Char, tok_line, tok_col);
                } else if bytes.get(i + 2) == Some(&'\'')
                    && bytes.get(i + 1).is_some_and(|c| *c != '\'')
                {
                    i += 3;
                    push!(Kind::Char, tok_line, tok_col);
                } else {
                    // Lifetime: consume ident chars.
                    let mut j = i + 1;
                    while j < bytes.len() && (bytes[j].is_alphanumeric() || bytes[j] == '_') {
                        j += 1;
                    }
                    i = j;
                    push!(Kind::Lifetime, tok_line, tok_col);
                }
            }
            c if c.is_ascii_digit() => {
                line_has_code = true;
                let (next, is_float) = consume_number(&bytes, i);
                i = next;
                push!(if is_float { Kind::Float } else { Kind::Int }, tok_line, tok_col);
            }
            c if c.is_alphabetic() || c == '_' => {
                line_has_code = true;
                let mut j = i;
                while j < bytes.len() && (bytes[j].is_alphanumeric() || bytes[j] == '_') {
                    j += 1;
                }
                let ident: String = bytes[i..j].iter().collect();
                i = j;
                push!(Kind::Ident(ident), tok_line, tok_col);
            }
            _ => {
                line_has_code = true;
                let two: String = bytes[i..(i + 2).min(bytes.len())].iter().collect();
                let (kind, advance) = match two.as_str() {
                    "==" => (Kind::EqEq, 2),
                    "!=" => (Kind::Ne, 2),
                    "::" => (Kind::PathSep, 2),
                    "->" => (Kind::Arrow, 2),
                    "=>" => (Kind::FatArrow, 2),
                    ".." => {
                        if bytes.get(i + 2) == Some(&'=') {
                            (Kind::DotDot, 3)
                        } else {
                            (Kind::DotDot, 2)
                        }
                    }
                    _ => (Kind::Punct(c), 1),
                };
                i += advance;
                push!(kind, tok_line, tok_col);
            }
        }
    }

    mark_test_regions(&mut out.tokens);
    out
}

fn is_raw_or_byte_string(bytes: &[char], i: usize) -> bool {
    // r"..", r#"..."#, br".."/rb is not a thing, b"..", br#"..."#
    let mut j = i;
    if bytes[j] == 'b' {
        j += 1;
    }
    if bytes.get(j) == Some(&'r') {
        j += 1;
        while bytes.get(j) == Some(&'#') {
            j += 1;
        }
        return bytes.get(j) == Some(&'"');
    }
    bytes[i] == 'b' && bytes.get(j) == Some(&'"')
}

fn consume_string(bytes: &[char], mut i: usize, line: &mut u32) -> usize {
    while i < bytes.len() {
        match bytes[i] {
            '\\' => {
                // An escaped newline (line continuation) still ends a
                // source line; and a trailing backslash at EOF must not
                // step past the buffer.
                if bytes.get(i + 1) == Some(&'\n') {
                    *line += 1;
                }
                i = (i + 2).min(bytes.len());
            }
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

fn consume_prefixed_string(bytes: &[char], mut i: usize, line: &mut u32) -> usize {
    if bytes.get(i) == Some(&'b') {
        i += 1;
    }
    if bytes.get(i) == Some(&'r') {
        i += 1;
        let mut hashes = 0;
        while bytes.get(i) == Some(&'#') {
            hashes += 1;
            i += 1;
        }
        i += 1; // opening quote
        // Scan for `"` followed by `hashes` hash marks.
        while i < bytes.len() {
            if bytes[i] == '\n' {
                *line += 1;
            }
            if bytes[i] == '"' {
                let mut k = 0;
                while k < hashes && bytes.get(i + 1 + k) == Some(&'#') {
                    k += 1;
                }
                if k == hashes {
                    return i + 1 + hashes;
                }
            }
            i += 1;
        }
        i
    } else {
        // b"..."
        consume_string(bytes, i + 1, line)
    }
}

fn consume_char_literal(bytes: &[char], mut i: usize) -> usize {
    // `i` points just after the opening quote (or at the backslash).
    while i < bytes.len() {
        match bytes[i] {
            '\\' => i = (i + 2).min(bytes.len()),
            '\'' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

fn consume_number(bytes: &[char], mut i: usize) -> (usize, bool) {
    let mut is_float = false;
    if bytes[i] == '0' && matches!(bytes.get(i + 1), Some('x' | 'o' | 'b')) {
        i += 2;
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
            i += 1;
        }
        return (i, false);
    }
    while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == '_') {
        i += 1;
    }
    // Fraction: a dot NOT followed by another dot (range) or an identifier
    // start (method call on a literal).
    if bytes.get(i) == Some(&'.')
        && !matches!(bytes.get(i + 1), Some(&'.'))
        && !bytes.get(i + 1).is_some_and(|c| c.is_alphabetic() || *c == '_')
    {
        is_float = true;
        i += 1;
        while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == '_') {
            i += 1;
        }
    }
    // Exponent.
    if matches!(bytes.get(i), Some('e' | 'E'))
        && (bytes.get(i + 1).is_some_and(|c| c.is_ascii_digit())
            || (matches!(bytes.get(i + 1), Some('+' | '-'))
                && bytes.get(i + 2).is_some_and(|c| c.is_ascii_digit())))
    {
        is_float = true;
        i += 1;
        if matches!(bytes.get(i), Some('+' | '-')) {
            i += 1;
        }
        while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == '_') {
            i += 1;
        }
    }
    // Suffix (u8, usize, f64, ...).
    let suffix_start = i;
    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
        i += 1;
    }
    let suffix: String = bytes[suffix_start..i].iter().collect();
    if suffix == "f32" || suffix == "f64" {
        is_float = true;
    }
    (i, is_float)
}

/// Mark tokens inside `#[cfg(test)]` items (attribute plus the following
/// braced item, or up to `;` for statement-like items).
fn mark_test_regions(tokens: &mut [Token]) {
    let mut i = 0;
    while i < tokens.len() {
        if is_cfg_test_attr(tokens, i) {
            // Find the end of the attribute: the `]` closing `#[`.
            let mut j = i + 1;
            let mut depth = 0i32;
            while j < tokens.len() {
                match tokens[j].kind {
                    Kind::Punct('[') => depth += 1,
                    Kind::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            // Walk forward to the first `{` or `;` at brace depth 0.
            let mut k = j + 1;
            let mut end = tokens.len();
            while k < tokens.len() {
                match tokens[k].kind {
                    Kind::Punct('{') => {
                        let mut depth = 0i32;
                        let mut m = k;
                        while m < tokens.len() {
                            match tokens[m].kind {
                                Kind::Punct('{') => depth += 1,
                                Kind::Punct('}') => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            m += 1;
                        }
                        end = (m + 1).min(tokens.len());
                        break;
                    }
                    Kind::Punct(';') => {
                        end = k + 1;
                        break;
                    }
                    _ => k += 1,
                }
            }
            for t in &mut tokens[i..end] {
                t.in_test = true;
            }
            i = end;
        } else {
            i += 1;
        }
    }
}

/// Does `#[cfg(test)]` or `#[cfg(any(test, ...))]` start at index `i`?
fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    if tokens[i].kind != Kind::Punct('#') {
        return false;
    }
    if tokens.get(i + 1).map(|t| &t.kind) != Some(&Kind::Punct('[')) {
        return false;
    }
    let is_ident = |idx: usize, s: &str| {
        matches!(tokens.get(idx).map(|t| &t.kind), Some(Kind::Ident(id)) if id == s)
    };
    if !is_ident(i + 2, "cfg") {
        return false;
    }
    // Scan the attribute's token window for a `test` ident.
    let mut j = i + 3;
    let mut depth = 0i32;
    while let Some(t) = tokens.get(j) {
        match &t.kind {
            Kind::Punct('(') => depth += 1,
            Kind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            Kind::Ident(id) if id == "test" => return true,
            _ => {}
        }
        j += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                Kind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_code() {
        let src = r##"
            let a = "unwrap() == 1.0"; // unwrap() here is comment
            let b = r#"panic!("x")"#;
            /* .unwrap() */
            let c = 'x';
        "##;
        let toks = lex(src);
        assert!(!idents(src).iter().any(|s| s == "unwrap" || s == "panic"));
        assert_eq!(toks.comments.len(), 2);
        assert!(toks.comments[0].text.contains("unwrap() here"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }";
        let toks = lex(src);
        assert_eq!(
            toks.tokens.iter().filter(|t| t.kind == Kind::Lifetime).count(),
            3
        );
        assert!(!toks.tokens.iter().any(|t| t.kind == Kind::Char));
    }

    #[test]
    fn ranges_are_not_floats() {
        let src = "let v = &x[0..10]; let f = 1.5; let g = 2.0e-3; let h = 3f64; let i = 1.min(2);";
        let toks = lex(src);
        let floats = toks.tokens.iter().filter(|t| t.kind == Kind::Float).count();
        assert_eq!(floats, 3, "{:?}", toks.tokens);
        assert!(toks.tokens.iter().any(|t| t.kind == Kind::DotDot));
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "
fn real() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { y.unwrap(); }
}
fn after() { z.unwrap(); }
";
        let toks = lex(src);
        let unwraps: Vec<bool> = toks
            .tokens
            .iter()
            .filter(|t| matches!(&t.kind, Kind::Ident(s) if s == "unwrap"))
            .map(|t| t.in_test)
            .collect();
        assert_eq!(unwraps, vec![false, true, false]);
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let src = "let a = \"multi\nline\";\nlet b = 1;";
        let toks = lex(src);
        let b_line = toks
            .tokens
            .iter()
            .find(|t| matches!(&t.kind, Kind::Ident(s) if s == "b"))
            .map(|t| t.line);
        assert_eq!(b_line, Some(3));
    }

    #[test]
    fn own_line_comments_are_flagged() {
        let src = "// top\nlet x = 1; // trailing\n";
        let toks = lex(src);
        assert!(toks.comments[0].own_line);
        assert!(!toks.comments[1].own_line);
    }

    #[test]
    fn nested_block_comments_track_depth() {
        let src = "/* outer /* inner */ still comment */ let x = 1;\n/* a /* b /* c */ */ */ let y = 2;";
        let toks = lex(src);
        assert_eq!(idents(src), vec!["let", "x", "let", "y"]);
        assert!(toks.comments[0].text.contains("inner"));
        assert!(toks.comments[0].text.contains("still comment"));
        // Nothing inside the nesting leaks out as code.
        assert!(!toks.tokens.iter().any(|t| matches!(&t.kind, Kind::Ident(s) if s == "b")));
    }

    #[test]
    fn unterminated_block_comment_keeps_its_full_text() {
        // The closing `*/` never arrives; the comment runs to EOF and the
        // last two characters are real text — a directive there must
        // survive (it used to be clipped).
        let src = "/* ixp-lint: allow(panic-path) ok";
        let toks = lex(src);
        assert_eq!(toks.comments.len(), 1);
        assert!(toks.comments[0].text.ends_with("allow(panic-path) ok"), "{:?}", toks.comments[0]);
        assert!(toks.tokens.is_empty());
    }

    #[test]
    fn raw_strings_with_hash_arities_and_embedded_quotes() {
        let src = "let a = r##\"says \"#hello\"# here\"##; let b = br#\"bytes \"x\" too\"#; let c = 1;";
        let toks = lex(src);
        assert_eq!(idents(src), vec!["let", "a", "let", "b", "let", "c"]);
        assert_eq!(toks.tokens.iter().filter(|t| t.kind == Kind::Str).count(), 2);
    }

    #[test]
    fn raw_string_newlines_count_lines() {
        let src = "let a = r#\"one\ntwo\nthree\"#;\nlet b = 1;";
        let toks = lex(src);
        let b_line = toks
            .tokens
            .iter()
            .find(|t| matches!(&t.kind, Kind::Ident(s) if s == "b"))
            .map(|t| t.line);
        assert_eq!(b_line, Some(4));
    }

    #[test]
    fn trailing_backslash_at_eof_does_not_panic() {
        // Each used to drive the scan index past the buffer (an
        // out-of-bounds slice in the line resync).
        for src in ["let a = \"x\\", "let a = b\"x\\", "let c = '\\", "let c = b'\\"] {
            let _ = lex(src);
        }
    }

    #[test]
    fn escaped_newline_in_string_counts_the_line() {
        let src = "let a = \"one\\\ntwo\";\nlet b = 1;";
        let toks = lex(src);
        let b_line = toks
            .tokens
            .iter()
            .find(|t| matches!(&t.kind, Kind::Ident(s) if s == "b"))
            .map(|t| t.line);
        assert_eq!(b_line, Some(3));
    }
}
