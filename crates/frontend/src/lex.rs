//! Lexer for the OpenCL-C subset.

use std::fmt;

/// Byte-offset span into the source, used for error reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    pub start: usize,
    pub end: usize,
}

impl Span {
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// 1-based (line, column) of the span start within `src`.
    pub fn line_col(&self, src: &str) -> (usize, usize) {
        let mut line = 1;
        let mut col = 1;
        for (i, c) in src.char_indices() {
            if i >= self.start {
                break;
            }
            if c == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        (line, col)
    }
}

/// Token kinds. Keywords are distinguished from identifiers here so the
/// parser stays simple.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    Ident(String),
    IntLit(i64),
    FloatLit(f32),
    StrLit(String),
    // Keywords.
    Kernel,
    Global,
    Local,
    Const,
    Int,
    Uint,
    Float,
    BoolKw,
    Void,
    If,
    Else,
    For,
    While,
    Do,
    Return,
    Break,
    Continue,
    True,
    False,
    // Punctuation / operators.
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Semi,
    Question,
    Colon,
    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    PercentAssign,
    AmpAssign,
    PipeAssign,
    CaretAssign,
    ShlAssign,
    ShrAssign,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Bang,
    Shl,
    Shr,
    Lt,
    Le,
    Gt,
    Ge,
    EqEq,
    NotEq,
    AndAnd,
    OrOr,
    PlusPlus,
    MinusMinus,
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::IntLit(v) => write!(f, "integer literal `{v}`"),
            Tok::FloatLit(v) => write!(f, "float literal `{v}`"),
            Tok::StrLit(s) => write!(f, "string literal {s:?}"),
            Tok::Eof => write!(f, "end of input"),
            other => write!(f, "`{}`", token_text(other)),
        }
    }
}

fn token_text(t: &Tok) -> &'static str {
    match t {
        Tok::Kernel => "__kernel",
        Tok::Global => "__global",
        Tok::Local => "__local",
        Tok::Const => "const",
        Tok::Int => "int",
        Tok::Uint => "uint",
        Tok::Float => "float",
        Tok::BoolKw => "bool",
        Tok::Void => "void",
        Tok::If => "if",
        Tok::Else => "else",
        Tok::For => "for",
        Tok::While => "while",
        Tok::Do => "do",
        Tok::Return => "return",
        Tok::Break => "break",
        Tok::Continue => "continue",
        Tok::True => "true",
        Tok::False => "false",
        Tok::LParen => "(",
        Tok::RParen => ")",
        Tok::LBrace => "{",
        Tok::RBrace => "}",
        Tok::LBracket => "[",
        Tok::RBracket => "]",
        Tok::Comma => ",",
        Tok::Semi => ";",
        Tok::Question => "?",
        Tok::Colon => ":",
        Tok::Assign => "=",
        Tok::PlusAssign => "+=",
        Tok::MinusAssign => "-=",
        Tok::StarAssign => "*=",
        Tok::SlashAssign => "/=",
        Tok::PercentAssign => "%=",
        Tok::AmpAssign => "&=",
        Tok::PipeAssign => "|=",
        Tok::CaretAssign => "^=",
        Tok::ShlAssign => "<<=",
        Tok::ShrAssign => ">>=",
        Tok::Plus => "+",
        Tok::Minus => "-",
        Tok::Star => "*",
        Tok::Slash => "/",
        Tok::Percent => "%",
        Tok::Amp => "&",
        Tok::Pipe => "|",
        Tok::Caret => "^",
        Tok::Tilde => "~",
        Tok::Bang => "!",
        Tok::Shl => "<<",
        Tok::Shr => ">>",
        Tok::Lt => "<",
        Tok::Le => "<=",
        Tok::Gt => ">",
        Tok::Ge => ">=",
        Tok::EqEq => "==",
        Tok::NotEq => "!=",
        Tok::AndAnd => "&&",
        Tok::OrOr => "||",
        Tok::PlusPlus => "++",
        Tok::MinusMinus => "--",
        _ => "?",
    }
}

impl Tok {
    /// The variant's name, as `{:?}` spells it: all of the Debug form of a
    /// token without a payload, and its head (`Ident` of `Ident("x")`)
    /// otherwise. The compile cache hashes this spelling.
    pub fn variant_name(&self) -> &'static str {
        match self {
            Tok::Ident(_) => "Ident",
            Tok::IntLit(_) => "IntLit",
            Tok::FloatLit(_) => "FloatLit",
            Tok::StrLit(_) => "StrLit",
            Tok::Kernel => "Kernel",
            Tok::Global => "Global",
            Tok::Local => "Local",
            Tok::Const => "Const",
            Tok::Int => "Int",
            Tok::Uint => "Uint",
            Tok::Float => "Float",
            Tok::BoolKw => "BoolKw",
            Tok::Void => "Void",
            Tok::If => "If",
            Tok::Else => "Else",
            Tok::For => "For",
            Tok::While => "While",
            Tok::Do => "Do",
            Tok::Return => "Return",
            Tok::Break => "Break",
            Tok::Continue => "Continue",
            Tok::True => "True",
            Tok::False => "False",
            Tok::LParen => "LParen",
            Tok::RParen => "RParen",
            Tok::LBrace => "LBrace",
            Tok::RBrace => "RBrace",
            Tok::LBracket => "LBracket",
            Tok::RBracket => "RBracket",
            Tok::Comma => "Comma",
            Tok::Semi => "Semi",
            Tok::Question => "Question",
            Tok::Colon => "Colon",
            Tok::Assign => "Assign",
            Tok::PlusAssign => "PlusAssign",
            Tok::MinusAssign => "MinusAssign",
            Tok::StarAssign => "StarAssign",
            Tok::SlashAssign => "SlashAssign",
            Tok::PercentAssign => "PercentAssign",
            Tok::AmpAssign => "AmpAssign",
            Tok::PipeAssign => "PipeAssign",
            Tok::CaretAssign => "CaretAssign",
            Tok::ShlAssign => "ShlAssign",
            Tok::ShrAssign => "ShrAssign",
            Tok::Plus => "Plus",
            Tok::Minus => "Minus",
            Tok::Star => "Star",
            Tok::Slash => "Slash",
            Tok::Percent => "Percent",
            Tok::Amp => "Amp",
            Tok::Pipe => "Pipe",
            Tok::Caret => "Caret",
            Tok::Tilde => "Tilde",
            Tok::Bang => "Bang",
            Tok::Shl => "Shl",
            Tok::Shr => "Shr",
            Tok::Lt => "Lt",
            Tok::Le => "Le",
            Tok::Gt => "Gt",
            Tok::Ge => "Ge",
            Tok::EqEq => "EqEq",
            Tok::NotEq => "NotEq",
            Tok::AndAnd => "AndAnd",
            Tok::OrOr => "OrOr",
            Tok::PlusPlus => "PlusPlus",
            Tok::MinusMinus => "MinusMinus",
            Tok::Eof => "Eof",
        }
    }
}

/// A token with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub tok: Tok,
    pub span: Span,
}

/// A lexing failure.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    pub message: String,
    pub span: Span,
}

/// Tokenize `src`. Comments and whitespace are skipped; preprocessor
/// directives must have been handled already (see [`crate::preprocess`]).
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let bytes = src.as_bytes();
    let mut toks = Vec::with_capacity(src.len() / 4);
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        // Whitespace.
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < bytes.len() {
            if bytes[i + 1] == b'/' {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            if bytes[i + 1] == b'*' {
                let start = i;
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(LexError {
                            message: "unterminated block comment".into(),
                            span: Span::new(start, bytes.len()),
                        });
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
                continue;
            }
        }
        let start = i;
        // Identifiers / keywords.
        if c.is_ascii_alphabetic() || c == '_' {
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let text = &src[start..i];
            let tok = keyword(text).unwrap_or_else(|| Tok::Ident(text.to_string()));
            toks.push(Token {
                tok,
                span: Span::new(start, i),
            });
            continue;
        }
        // Numbers.
        if c.is_ascii_digit() || (c == '.' && i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit())
        {
            let (tok, len) = lex_number(&src[start..]).map_err(|m| LexError {
                message: m,
                span: Span::new(start, start + 1),
            })?;
            i += len;
            toks.push(Token {
                tok,
                span: Span::new(start, i),
            });
            continue;
        }
        // Strings. Everything between escapes is copied as text, so
        // non-ASCII characters arrive whole.
        if c == '"' {
            i += 1;
            let mut s = String::new();
            loop {
                if i >= bytes.len() {
                    return Err(LexError {
                        message: "unterminated string literal".into(),
                        span: Span::new(start, bytes.len()),
                    });
                }
                match bytes[i] {
                    b'"' => {
                        i += 1;
                        break;
                    }
                    b'\\' if i + 1 < bytes.len() => {
                        let e = char_at(src, i + 1);
                        s.push(match e {
                            'n' => '\n',
                            't' => '\t',
                            '0' => '\0',
                            other => other,
                        });
                        i += 1 + e.len_utf8();
                    }
                    _ => {
                        let end = bytes[i + 1..]
                            .iter()
                            .position(|&b| b == b'"' || b == b'\\')
                            .map_or(bytes.len(), |n| i + 1 + n);
                        s.push_str(&src[i..end]);
                        i = end;
                    }
                }
            }
            toks.push(Token {
                tok: Tok::StrLit(s),
                span: Span::new(start, i),
            });
            continue;
        }
        // Operators / punctuation, longest match first.
        let Some((tok, len)) = punct(&bytes[i..]) else {
            let c = char_at(src, i);
            return Err(LexError {
                message: format!("unexpected character `{c}`"),
                span: Span::new(start, start + c.len_utf8()),
            });
        };
        i += len;
        toks.push(Token {
            tok,
            span: Span::new(start, i),
        });
    }
    toks.push(Token {
        tok: Tok::Eof,
        span: Span::new(src.len(), src.len()),
    });
    Ok(toks)
}

/// The character starting at byte `i`, which the lexer only ever leaves on
/// a character boundary.
fn char_at(src: &str, i: usize) -> char {
    src[i..]
        .chars()
        .next()
        .expect("lexer position inside the source")
}

/// The operator or punctuation token `b` starts with, and its byte length.
fn punct(b: &[u8]) -> Option<(Tok, usize)> {
    let next = |k: usize| b.get(k).copied().unwrap_or(0);
    Some(match (b[0], next(1)) {
        (b'<', b'<') if next(2) == b'=' => (Tok::ShlAssign, 3),
        (b'>', b'>') if next(2) == b'=' => (Tok::ShrAssign, 3),
        (b'<', b'<') => (Tok::Shl, 2),
        (b'>', b'>') => (Tok::Shr, 2),
        (b'<', b'=') => (Tok::Le, 2),
        (b'>', b'=') => (Tok::Ge, 2),
        (b'=', b'=') => (Tok::EqEq, 2),
        (b'!', b'=') => (Tok::NotEq, 2),
        (b'&', b'&') => (Tok::AndAnd, 2),
        (b'|', b'|') => (Tok::OrOr, 2),
        (b'+', b'+') => (Tok::PlusPlus, 2),
        (b'-', b'-') => (Tok::MinusMinus, 2),
        (b'+', b'=') => (Tok::PlusAssign, 2),
        (b'-', b'=') => (Tok::MinusAssign, 2),
        (b'*', b'=') => (Tok::StarAssign, 2),
        (b'/', b'=') => (Tok::SlashAssign, 2),
        (b'%', b'=') => (Tok::PercentAssign, 2),
        (b'&', b'=') => (Tok::AmpAssign, 2),
        (b'|', b'=') => (Tok::PipeAssign, 2),
        (b'^', b'=') => (Tok::CaretAssign, 2),
        (c, _) => (
            match c {
                b'(' => Tok::LParen,
                b')' => Tok::RParen,
                b'{' => Tok::LBrace,
                b'}' => Tok::RBrace,
                b'[' => Tok::LBracket,
                b']' => Tok::RBracket,
                b',' => Tok::Comma,
                b';' => Tok::Semi,
                b'?' => Tok::Question,
                b':' => Tok::Colon,
                b'=' => Tok::Assign,
                b'+' => Tok::Plus,
                b'-' => Tok::Minus,
                b'*' => Tok::Star,
                b'/' => Tok::Slash,
                b'%' => Tok::Percent,
                b'&' => Tok::Amp,
                b'|' => Tok::Pipe,
                b'^' => Tok::Caret,
                b'~' => Tok::Tilde,
                b'!' => Tok::Bang,
                b'<' => Tok::Lt,
                b'>' => Tok::Gt,
                _ => return None,
            },
            1,
        ),
    })
}

fn keyword(text: &str) -> Option<Tok> {
    Some(match text {
        "__kernel" | "kernel" => Tok::Kernel,
        "__global" | "global" => Tok::Global,
        "__local" | "local" => Tok::Local,
        "const" | "restrict" | "volatile" => Tok::Const,
        "int" | "long" | "short" | "char" => Tok::Int,
        "uint" | "unsigned" | "size_t" | "uchar" | "ushort" | "ulong" => Tok::Uint,
        "float" => Tok::Float,
        "bool" => Tok::BoolKw,
        "void" => Tok::Void,
        "if" => Tok::If,
        "else" => Tok::Else,
        "for" => Tok::For,
        "while" => Tok::While,
        "do" => Tok::Do,
        "return" => Tok::Return,
        "break" => Tok::Break,
        "continue" => Tok::Continue,
        "true" => Tok::True,
        "false" => Tok::False,
        _ => return None,
    })
}

/// Lex a numeric literal from the start of `s`; returns the token and its
/// byte length.
fn lex_number(s: &str) -> Result<(Tok, usize), String> {
    let bytes = s.as_bytes();
    // Hex.
    if s.starts_with("0x") || s.starts_with("0X") {
        let mut i = 2;
        while i < bytes.len() && bytes[i].is_ascii_hexdigit() {
            i += 1;
        }
        if i == 2 {
            return Err("malformed hex literal".into());
        }
        let v = i64::from_str_radix(&s[2..i], 16).map_err(|e| e.to_string())?;
        // Optional u/U suffix.
        if i < bytes.len() && (bytes[i] == b'u' || bytes[i] == b'U') {
            i += 1;
        }
        return Ok((Tok::IntLit(v), i));
    }
    let mut i = 0;
    let mut is_float = false;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    if i < bytes.len() && bytes[i] == b'.' {
        is_float = true;
        i += 1;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
    }
    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
        let mut j = i + 1;
        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
            j += 1;
        }
        if j < bytes.len() && bytes[j].is_ascii_digit() {
            is_float = true;
            i = j;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
    }
    let body = &s[..i];
    // Suffixes.
    if i < bytes.len() && (bytes[i] == b'f' || bytes[i] == b'F') {
        let v: f32 = body
            .parse()
            .map_err(|_| "malformed float literal".to_string())?;
        return Ok((Tok::FloatLit(v), i + 1));
    }
    if i < bytes.len() && (bytes[i] == b'u' || bytes[i] == b'U') {
        let v: i64 = body
            .parse()
            .map_err(|_| "malformed integer literal".to_string())?;
        return Ok((Tok::IntLit(v), i + 1));
    }
    if is_float {
        let v: f32 = body
            .parse()
            .map_err(|_| "malformed float literal".to_string())?;
        Ok((Tok::FloatLit(v), i))
    } else {
        let v: i64 = body
            .parse()
            .map_err(|_| "malformed integer literal".to_string())?;
        Ok((Tok::IntLit(v), i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_kernel_signature() {
        let t = kinds("__kernel void vecadd(__global float* a)");
        assert_eq!(
            t,
            vec![
                Tok::Kernel,
                Tok::Void,
                Tok::Ident("vecadd".into()),
                Tok::LParen,
                Tok::Global,
                Tok::Float,
                Tok::Star,
                Tok::Ident("a".into()),
                Tok::RParen,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(kinds("42")[0], Tok::IntLit(42));
        assert_eq!(kinds("0x1F")[0], Tok::IntLit(31));
        assert_eq!(kinds("1.5")[0], Tok::FloatLit(1.5));
        assert_eq!(kinds("2.0f")[0], Tok::FloatLit(2.0));
        assert_eq!(kinds("1e3")[0], Tok::FloatLit(1000.0));
        assert_eq!(kinds("3u")[0], Tok::IntLit(3));
        assert_eq!(kinds(".5f")[0], Tok::FloatLit(0.5));
    }

    #[test]
    fn distinguishes_compound_operators() {
        assert_eq!(
            kinds("a <<= b >> c <= d"),
            vec![
                Tok::Ident("a".into()),
                Tok::ShlAssign,
                Tok::Ident("b".into()),
                Tok::Shr,
                Tok::Ident("c".into()),
                Tok::Le,
                Tok::Ident("d".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn skips_comments() {
        let t = kinds("a // line\n /* block\n comment */ b");
        assert_eq!(
            t,
            vec![Tok::Ident("a".into()), Tok::Ident("b".into()), Tok::Eof]
        );
    }

    #[test]
    fn string_escapes() {
        let t = kinds(r#""x=%d\n""#);
        assert_eq!(t[0], Tok::StrLit("x=%d\n".into()));
    }

    #[test]
    fn unterminated_comment_errors() {
        assert!(lex("/* oops").is_err());
    }

    #[test]
    fn unexpected_char_errors() {
        let e = lex("a @ b").unwrap_err();
        assert!(e.message.contains('@'));
    }

    #[test]
    fn string_literals_keep_utf8_characters() {
        let t = kinds("printf(\"café\\n\")");
        assert_eq!(t[2], Tok::StrLit("café\n".into()));
        // An escaped non-ASCII character is itself, whole.
        assert_eq!(kinds("\"\\µ\"")[0], Tok::StrLit("µ".into()));
    }

    #[test]
    fn unexpected_non_ascii_character_is_named_and_spanned_whole() {
        let src = "o[0] = 1 µ 2;";
        let e = lex(src).unwrap_err();
        assert_eq!(e.message, "unexpected character `µ`");
        assert_eq!(&src[e.span.start..e.span.end], "µ");
    }

    #[test]
    fn every_punctuation_token_lexes_from_its_spelling() {
        let spellings = "<<= >>= << >> <= >= == != && || ++ -- += -= *= /= %= &= |= ^= \
                         ( ) { } [ ] , ; ? : = + - * / % & | ^ ~ ! < >";
        assert_eq!(spellings.split_whitespace().count(), 43);
        for text in spellings.split_whitespace() {
            let t = kinds(text);
            assert_eq!((t.len(), token_text(&t[0])), (2, text));
            // Followed by an identifier, the token still ends where it should.
            assert_eq!(kinds(&format!("{text}x"))[0], t[0], "{text}x");
        }
    }

    #[test]
    fn variant_name_is_the_debug_spelling() {
        let src = "__kernel __global __local const int uint float bool void if else for \
                   while do return break continue true false \
                   <<= >>= << >> <= >= == != && || ++ -- += -= *= /= %= &= |= ^= \
                   ( ) { } [ ] , ; ? : = + - * / % & | ^ ~ ! < > x 7 1.5f \"s\"";
        let toks = kinds(src);
        let mut seen = std::collections::BTreeSet::new();
        for t in &toks {
            let debug = format!("{t:?}");
            match t {
                Tok::Ident(_) | Tok::IntLit(_) | Tok::FloatLit(_) | Tok::StrLit(_) => {
                    assert!(
                        debug.starts_with(&format!("{}(", t.variant_name())),
                        "{debug}"
                    )
                }
                _ => assert_eq!(t.variant_name(), debug),
            }
            seen.insert(t.variant_name());
        }
        // Every variant of `Tok` occurs.
        assert_eq!((toks.len(), seen.len()), (67, 67));
    }

    #[test]
    fn line_col_from_span() {
        let src = "ab\ncd";
        let toks = lex(src).unwrap();
        // `cd` starts line 2 col 1.
        assert_eq!(toks[1].span.line_col(src), (2, 1));
    }

    #[test]
    fn type_aliases_map_to_subset_types() {
        assert_eq!(kinds("size_t")[0], Tok::Uint);
        assert_eq!(kinds("unsigned")[0], Tok::Uint);
        assert_eq!(kinds("char")[0], Tok::Int);
    }
}
