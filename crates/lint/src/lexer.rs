//! A hand-rolled Rust tokenizer.
//!
//! Not a full lexer for the language — a *lossless* one for static
//! analysis: every byte of the input lands in exactly one token, token
//! spans tile the input in order, and no input (including truncated or
//! malformed source) can make it panic. The hard cases it must survive:
//!
//! * raw strings with arbitrary hash fences (`r##"…"##`, `br#"…"#`);
//! * nested block comments (`/* a /* b */ c */`);
//! * the `'` ambiguity between char literals (`'a'`, `'\n'`,
//!   `'\u{1F600}'`) and lifetimes/labels (`'static`, `'outer:`);
//! * unterminated strings and comments (consumed to end of input).
//!
//! Numeric literals are tokenized approximately (`1e-5` splits into
//! `1e`, `-`, `5`): the rules only care that digits never merge with
//! the identifiers and punctuation around them, and approximation keeps
//! the lexer total.

/// Classification of one source token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw identifiers like `r#fn`).
    Ident,
    /// Lifetime or loop label (`'a`, `'static`).
    Lifetime,
    /// Character or byte literal (`'x'`, `b'\n'`).
    CharLit,
    /// String literal of any flavor: `"…"`, `b"…"`, `r#"…"#`, `br"…"`.
    StrLit,
    /// Numeric literal (integers, floats, any radix).
    NumLit,
    /// `// …` to end of line (newline not included).
    LineComment,
    /// `/* … */` with nesting; unterminated runs to end of input.
    BlockComment,
    /// Whitespace run.
    Whitespace,
    /// Any other character — single, except the structural two-char
    /// operators `::`, `=>`, and `->`, which lex as one token.
    Punct,
}

/// One token: kind, exact source text, byte offset, and 1-based line of
/// its first character.
#[derive(Clone, Copy, Debug)]
pub struct Token<'a> {
    pub kind: TokKind,
    pub text: &'a str,
    pub start: usize,
    pub line: u32,
}

impl Token<'_> {
    /// Whether the rule engine should see this token (comments and
    /// whitespace are carried separately).
    pub fn is_significant(&self) -> bool {
        !matches!(
            self.kind,
            TokKind::Whitespace | TokKind::LineComment | TokKind::BlockComment
        )
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Cursor over the source; all advances are by whole chars, so slices
/// taken at recorded offsets are always on char boundaries.
struct Cursor<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn peek_at(&self, n: usize) -> Option<char> {
        self.src[self.pos..].chars().nth(n)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn eat_while(&mut self, f: impl Fn(char) -> bool) {
        while let Some(c) = self.peek() {
            if !f(c) {
                break;
            }
            self.bump();
        }
    }

    /// Consume `prefix` if the remaining input starts with it.
    fn eat_str(&mut self, prefix: &str) -> bool {
        if self.src[self.pos..].starts_with(prefix) {
            self.pos += prefix.len();
            true
        } else {
            false
        }
    }
}

/// Tokenize `src`. The returned tokens tile the input: concatenating
/// `token.text` in order reproduces `src` exactly.
pub fn lex(src: &str) -> Vec<Token<'_>> {
    let mut cur = Cursor { src, pos: 0 };
    let mut out = Vec::new();
    let mut line: u32 = 1;
    while cur.pos < src.len() {
        let start = cur.pos;
        let start_line = line;
        let kind = next_kind(&mut cur);
        debug_assert!(cur.pos > start, "lexer must always make progress");
        if cur.pos == start {
            // Defensive: never loop forever even if a case above failed
            // to advance (release builds have no debug_assert).
            cur.bump();
        }
        let text = &src[start..cur.pos];
        line += text.bytes().filter(|&b| b == b'\n').count() as u32;
        out.push(Token {
            kind,
            text,
            start,
            line: start_line,
        });
    }
    out
}

fn next_kind(cur: &mut Cursor<'_>) -> TokKind {
    let Some(c) = cur.peek() else {
        return TokKind::Punct;
    };
    if c.is_whitespace() {
        cur.eat_while(|c| c.is_whitespace());
        return TokKind::Whitespace;
    }
    if cur.eat_str("//") {
        cur.eat_while(|c| c != '\n');
        return TokKind::LineComment;
    }
    if cur.eat_str("/*") {
        let mut depth = 1usize;
        while depth > 0 && cur.pos < cur.src.len() {
            if cur.eat_str("/*") {
                depth += 1;
            } else if cur.eat_str("*/") {
                depth -= 1;
            } else {
                cur.bump();
            }
        }
        return TokKind::BlockComment;
    }
    match c {
        'r' | 'b' => prefixed(cur),
        '\'' => quote(cur),
        '"' => {
            cur.bump();
            eat_string_body(cur);
            TokKind::StrLit
        }
        c if c.is_ascii_digit() => {
            number(cur);
            TokKind::NumLit
        }
        c if is_ident_start(c) => {
            cur.eat_while(is_ident_continue);
            TokKind::Ident
        }
        _ => {
            let first = cur.bump();
            // The structural two-char operators the rule engine keys on
            // lex as single tokens: `::` (path separator, so a path
            // never reads as a field declaration `name: T`), `=>` (match
            // arms in the CFG builder), `->` (return types). Everything else stays
            // single-char; no rule needs `==`, `&&`, or the compound
            // assignments, and splitting them keeps the lexer total.
            match (first, cur.peek()) {
                (Some(':'), Some(':')) | (Some('='), Some('>')) | (Some('-'), Some('>')) => {
                    cur.bump();
                }
                _ => {}
            }
            TokKind::Punct
        }
    }
}

/// Tokens starting with `r` or `b`: raw strings, byte strings, byte
/// chars, raw identifiers, or plain identifiers.
fn prefixed(cur: &mut Cursor<'_>) -> TokKind {
    let save = cur.pos;
    let first = cur.bump().unwrap_or('r');
    // `br…` — only string flavors follow a `br` prefix.
    if first == 'b' && cur.peek() == Some('r') {
        let save_b = cur.pos;
        cur.bump();
        if eat_raw_string(cur) {
            return TokKind::StrLit;
        }
        cur.pos = save_b; // plain identifier starting with `br`
    }
    if first == 'b' {
        match cur.peek() {
            Some('"') => {
                cur.bump();
                eat_string_body(cur);
                return TokKind::StrLit;
            }
            Some('\'') => {
                cur.bump();
                eat_char_body(cur);
                return TokKind::CharLit;
            }
            _ => {}
        }
    }
    if first == 'r' {
        if eat_raw_string(cur) {
            return TokKind::StrLit;
        }
        // Raw identifier `r#name`.
        if cur.peek() == Some('#') && cur.peek_at(1).is_some_and(is_ident_start) {
            cur.bump();
            cur.eat_while(is_ident_continue);
            return TokKind::Ident;
        }
    }
    cur.pos = save;
    cur.bump();
    cur.eat_while(is_ident_continue);
    TokKind::Ident
}

/// At a position just past `r` (or `br`): consume `#*"…"#*` if present.
/// Restores the cursor and returns false if this is not a raw string.
fn eat_raw_string(cur: &mut Cursor<'_>) -> bool {
    let save = cur.pos;
    let mut hashes = 0usize;
    while cur.peek() == Some('#') {
        cur.bump();
        hashes += 1;
    }
    if cur.peek() != Some('"') {
        cur.pos = save;
        return false;
    }
    cur.bump();
    // Scan for `"` followed by `hashes` hashes; unterminated → EOF.
    while cur.pos < cur.src.len() {
        if cur.bump() == Some('"') {
            let mut seen = 0usize;
            while seen < hashes && cur.peek() == Some('#') {
                cur.bump();
                seen += 1;
            }
            if seen == hashes {
                return true;
            }
        }
    }
    true
}

/// Past an opening `"`: consume the body and closing quote, honoring
/// backslash escapes; unterminated → EOF.
fn eat_string_body(cur: &mut Cursor<'_>) {
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump();
            }
            '"' => return,
            _ => {}
        }
    }
}

/// Past an opening `'` known to start a char literal: consume through
/// the closing `'` (same line), honoring escapes; give up at newline or
/// EOF so a stray quote cannot swallow the rest of the file.
fn eat_char_body(cur: &mut Cursor<'_>) {
    while let Some(c) = cur.peek() {
        match c {
            '\\' => {
                cur.bump();
                cur.bump();
            }
            '\'' => {
                cur.bump();
                return;
            }
            '\n' => return,
            _ => {
                cur.bump();
            }
        }
    }
}

/// `'` — the char-vs-lifetime ambiguity. `'\…` is always a char;
/// `'ident` is a lifetime unless a `'` closes it (`'a'`); any other
/// single char followed by `'` is a char literal; a lone `'` is punct.
fn quote(cur: &mut Cursor<'_>) -> TokKind {
    cur.bump(); // the opening '
    match cur.peek() {
        Some('\\') => {
            eat_char_body(cur);
            TokKind::CharLit
        }
        Some(c) if is_ident_start(c) => {
            let save = cur.pos;
            cur.eat_while(is_ident_continue);
            if cur.peek() == Some('\'') {
                // `'a'` (or the malformed-but-tokenizable `'abc'`).
                cur.bump();
                TokKind::CharLit
            } else {
                // Lifetime or label; keep only the identifier chars.
                let _ = save;
                TokKind::Lifetime
            }
        }
        Some(c) if c != '\'' && c != '\n' => {
            // `'+'`, `'🦀'`, … — char literal iff a quote closes it.
            if cur.peek_at(1) == Some('\'') {
                cur.bump();
                cur.bump();
                TokKind::CharLit
            } else {
                TokKind::Punct
            }
        }
        _ => TokKind::Punct,
    }
}

/// Numeric literal: digits plus alphanumerics/underscore (covers hex,
/// octal, suffixes) and one embedded `.` when followed by a digit.
fn number(cur: &mut Cursor<'_>) {
    cur.eat_while(|c| c.is_ascii_alphanumeric() || c == '_');
    if cur.peek() == Some('.') && cur.peek_at(1).is_some_and(|c| c.is_ascii_digit()) {
        cur.bump();
        cur.eat_while(|c| c.is_ascii_alphanumeric() || c == '_');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, &str)> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind != TokKind::Whitespace)
            .map(|t| (t.kind, t.text))
            .collect()
    }

    fn tiles(src: &str) {
        let toks = lex(src);
        let mut joined = String::new();
        let mut pos = 0;
        for t in &toks {
            assert_eq!(t.start, pos, "span gap before {:?}", t.text);
            pos += t.text.len();
            joined.push_str(t.text);
        }
        assert_eq!(joined, src, "tokens must tile the input");
    }

    #[test]
    fn raw_strings_with_fences() {
        let src = r####"let s = r#"a "quoted" thing"#; let t = r##"x"#y"##;"####;
        tiles(src);
        let k = kinds(src);
        assert!(k
            .iter()
            .any(|(kind, text)| *kind == TokKind::StrLit && text.contains("quoted")));
        assert!(k
            .iter()
            .any(|(kind, text)| *kind == TokKind::StrLit && text.contains("x\"#y")));
    }

    #[test]
    fn nested_block_comments() {
        let src = "a /* one /* two */ still comment */ b";
        tiles(src);
        let k = kinds(src);
        assert_eq!(k.len(), 3);
        assert_eq!(k[1].0, TokKind::BlockComment);
        assert!(k[1].1.ends_with("comment */"));
    }

    #[test]
    fn char_vs_lifetime() {
        let src =
            "fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; 'outer: loop { break 'outer; } }";
        tiles(src);
        let k = kinds(src);
        let lifetimes: Vec<_> = k
            .iter()
            .filter(|(kk, _)| *kk == TokKind::Lifetime)
            .collect();
        let chars: Vec<_> = k.iter().filter(|(kk, _)| *kk == TokKind::CharLit).collect();
        assert_eq!(lifetimes.len(), 4, "{lifetimes:?}");
        assert_eq!(chars.len(), 2, "{chars:?}");
    }

    #[test]
    fn unterminated_inputs_consume_to_eof() {
        for src in [
            "\"never closed",
            "/* open forever",
            "r#\"raw tail",
            "b\"bytes",
        ] {
            tiles(src);
            assert_eq!(lex(src).len(), 1, "{src:?}");
        }
    }

    #[test]
    fn byte_and_raw_identifiers() {
        let src = "let b = b'x'; let r#fn = br\"raw bytes\"; broke(r, b);";
        tiles(src);
        let k = kinds(src);
        assert!(k
            .iter()
            .any(|(kk, t)| *kk == TokKind::CharLit && *t == "b'x'"));
        assert!(k
            .iter()
            .any(|(kk, t)| *kk == TokKind::Ident && *t == "r#fn"));
        assert!(k
            .iter()
            .any(|(kk, t)| *kk == TokKind::StrLit && t.starts_with("br\"")));
        assert!(k
            .iter()
            .any(|(kk, t)| *kk == TokKind::Ident && *t == "broke"));
    }

    #[test]
    fn line_numbers_track_newlines() {
        let src = "a\nbb\n\nccc";
        let toks: Vec<_> = lex(src).into_iter().filter(Token::is_significant).collect();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 4);
    }

    #[test]
    fn strings_hide_code_from_rules() {
        let src = r#"let s = "self.inner.lock() // not code";"#;
        let k = kinds(src);
        assert!(!k.iter().any(|(_, t)| *t == "lock"));
    }
}
