//! Tokens and source positions for the mini-C language.

use std::fmt;

/// A half-open byte range into the source, with 1-based line/column of the
/// start for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// 1-based source line of `start`.
    pub line: u32,
    /// 1-based source column of `start`.
    pub col: u32,
}

impl Span {
    /// A span covering `start..end` at the given position.
    pub fn new(start: usize, end: usize, line: u32, col: u32) -> Self {
        Span {
            start,
            end,
            line,
            col,
        }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn merge(self, other: Span) -> Span {
        let (first, last) = if self.start <= other.start {
            (self, other)
        } else {
            (other, self)
        };
        Span {
            start: first.start,
            end: last.end.max(first.end),
            line: first.line,
            col: first.col,
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Reserved words of mini-C.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keyword {
    /// `int` — 32-bit integer.
    Int,
    /// `short` — 16-bit integer.
    Short,
    /// `char` — 8-bit integer.
    Char,
    /// `long` — 64-bit integer.
    Long,
    /// `void` — function return type only.
    Void,
    /// `if`
    If,
    /// `else`
    Else,
    /// `while`
    While,
    /// `do`
    Do,
    /// `for`
    For,
    /// `return`
    Return,
    /// `break`
    Break,
    /// `continue`
    Continue,
}

impl Keyword {
    /// Look up a keyword by its source spelling.
    pub fn parse(s: &str) -> Option<Keyword> {
        Some(match s {
            "int" => Keyword::Int,
            "short" => Keyword::Short,
            "char" => Keyword::Char,
            "long" => Keyword::Long,
            "void" => Keyword::Void,
            "if" => Keyword::If,
            "else" => Keyword::Else,
            "while" => Keyword::While,
            "do" => Keyword::Do,
            "for" => Keyword::For,
            "return" => Keyword::Return,
            "break" => Keyword::Break,
            "continue" => Keyword::Continue,
            _ => return None,
        })
    }

    /// Source spelling of the keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            Keyword::Int => "int",
            Keyword::Short => "short",
            Keyword::Char => "char",
            Keyword::Long => "long",
            Keyword::Void => "void",
            Keyword::If => "if",
            Keyword::Else => "else",
            Keyword::While => "while",
            Keyword::Do => "do",
            Keyword::For => "for",
            Keyword::Return => "return",
            Keyword::Break => "break",
            Keyword::Continue => "continue",
        }
    }
}

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// A reserved word.
    Keyword(Keyword),
    /// An identifier.
    Ident(String),
    /// An integer literal (decimal or `0x` hexadecimal).
    IntLit(i64),
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `~`
    Tilde,
    /// `!`
    Bang,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// `&&`
    AmpAmp,
    /// `||`
    PipePipe,
    /// `=`
    Assign,
    /// `+=`
    PlusAssign,
    /// `-=`
    MinusAssign,
    /// `*=`
    StarAssign,
    /// `<<=`
    ShlAssign,
    /// `>>=`
    ShrAssign,
    /// `&=`
    AmpAssign,
    /// `|=`
    PipeAssign,
    /// `^=`
    CaretAssign,
    /// `++`
    PlusPlus,
    /// `--`
    MinusMinus,
    /// `?`
    Question,
    /// `:`
    Colon,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Keyword(k) => write!(f, "'{}'", k.as_str()),
            TokenKind::Ident(s) => write!(f, "identifier '{s}'"),
            TokenKind::IntLit(v) => write!(f, "integer {v}"),
            TokenKind::Plus => f.write_str("'+'"),
            TokenKind::Minus => f.write_str("'-'"),
            TokenKind::Star => f.write_str("'*'"),
            TokenKind::Slash => f.write_str("'/'"),
            TokenKind::Percent => f.write_str("'%'"),
            TokenKind::Amp => f.write_str("'&'"),
            TokenKind::Pipe => f.write_str("'|'"),
            TokenKind::Caret => f.write_str("'^'"),
            TokenKind::Tilde => f.write_str("'~'"),
            TokenKind::Bang => f.write_str("'!'"),
            TokenKind::Shl => f.write_str("'<<'"),
            TokenKind::Shr => f.write_str("'>>'"),
            TokenKind::Lt => f.write_str("'<'"),
            TokenKind::Le => f.write_str("'<='"),
            TokenKind::Gt => f.write_str("'>'"),
            TokenKind::Ge => f.write_str("'>='"),
            TokenKind::EqEq => f.write_str("'=='"),
            TokenKind::Ne => f.write_str("'!='"),
            TokenKind::AmpAmp => f.write_str("'&&'"),
            TokenKind::PipePipe => f.write_str("'||'"),
            TokenKind::Assign => f.write_str("'='"),
            TokenKind::PlusAssign => f.write_str("'+='"),
            TokenKind::MinusAssign => f.write_str("'-='"),
            TokenKind::StarAssign => f.write_str("'*='"),
            TokenKind::ShlAssign => f.write_str("'<<='"),
            TokenKind::ShrAssign => f.write_str("'>>='"),
            TokenKind::AmpAssign => f.write_str("'&='"),
            TokenKind::PipeAssign => f.write_str("'|='"),
            TokenKind::CaretAssign => f.write_str("'^='"),
            TokenKind::PlusPlus => f.write_str("'++'"),
            TokenKind::MinusMinus => f.write_str("'--'"),
            TokenKind::Question => f.write_str("'?'"),
            TokenKind::Colon => f.write_str("':'"),
            TokenKind::LParen => f.write_str("'('"),
            TokenKind::RParen => f.write_str("')'"),
            TokenKind::LBrace => f.write_str("'{'"),
            TokenKind::RBrace => f.write_str("'}'"),
            TokenKind::LBracket => f.write_str("'['"),
            TokenKind::RBracket => f.write_str("']'"),
            TokenKind::Semi => f.write_str("';'"),
            TokenKind::Comma => f.write_str("','"),
            TokenKind::Eof => f.write_str("end of input"),
        }
    }
}

/// A token with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// Where it was lexed.
    pub span: Span,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_round_trip() {
        for kw in [
            Keyword::Int,
            Keyword::Short,
            Keyword::Char,
            Keyword::Long,
            Keyword::Void,
            Keyword::If,
            Keyword::Else,
            Keyword::While,
            Keyword::Do,
            Keyword::For,
            Keyword::Return,
            Keyword::Break,
            Keyword::Continue,
        ] {
            assert_eq!(Keyword::parse(kw.as_str()), Some(kw));
        }
        assert_eq!(Keyword::parse("float"), None);
    }

    #[test]
    fn span_merge_orders_endpoints() {
        let a = Span::new(10, 14, 2, 3);
        let b = Span::new(2, 6, 1, 1);
        let m = a.merge(b);
        assert_eq!((m.start, m.end, m.line, m.col), (2, 14, 1, 1));
    }

    #[test]
    fn token_display() {
        assert_eq!(TokenKind::Keyword(Keyword::For).to_string(), "'for'");
        assert_eq!(TokenKind::Ident("x".into()).to_string(), "identifier 'x'");
        assert_eq!(TokenKind::Shl.to_string(), "'<<'");
    }
}
