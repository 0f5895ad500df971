//! Multi-statement scripts: `;`-separated batches of queries.
//!
//! The language itself is single-statement; a REPL line or script file
//! holds several statements separated by `;`. [`split_statements`] does
//! the split (respecting single-quoted object names, where a `;` is
//! literal text).
//!
//! The splitter agrees with the lexer on string literals: an
//! unterminated `'` is a [`LexError`] for the whole script (at the
//! offset of the opening quote, like [`crate::lex`]) rather than a
//! silent swallow of every later `;` into one statement.
//!
//! `modb-server`'s query engine uses this split to run a batch in order
//! against one clone of the database, one verdict per statement.

use crate::lexer::LexError;

/// Splits a script on `;` separators that sit outside single-quoted
/// string literals. Statements are trimmed; empty statements (leading,
/// trailing, or doubled separators) are dropped.
///
/// Fails with a [`LexError`] at the opening quote if a string literal
/// is still open at end of input — the same verdict the lexer would
/// reach on the statement, surfaced for the whole script so a typo'd
/// quote cannot silently fuse every later statement into one.
pub fn split_statements(src: &str) -> Result<Vec<&str>, LexError> {
    let mut statements = Vec::new();
    let mut start = 0;
    let mut string_open: Option<usize> = None;
    for (i, c) in src.char_indices() {
        match c {
            '\'' => match string_open {
                Some(_) => string_open = None,
                None => string_open = Some(i),
            },
            ';' if string_open.is_none() => {
                let stmt = src[start..i].trim();
                if !stmt.is_empty() {
                    statements.push(stmt);
                }
                start = i + 1;
            }
            _ => {}
        }
    }
    if let Some(offset) = string_open {
        return Err(LexError {
            offset,
            message: "unterminated string literal".into(),
        });
    }
    let tail = src[start..].trim();
    if !tail.is_empty() {
        statements.push(tail);
    }
    Ok(statements)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_semicolons_dropping_empties() {
        assert_eq!(
            split_statements("a; b ;;\n c ;").unwrap(),
            vec!["a", "b", "c"]
        );
        assert_eq!(split_statements("").unwrap(), Vec::<&str>::new());
        assert_eq!(split_statements(" ;; ").unwrap(), Vec::<&str>::new());
        assert_eq!(split_statements("single").unwrap(), vec!["single"]);
    }

    #[test]
    fn semicolon_inside_string_literal_is_text() {
        assert_eq!(
            split_statements("RETRIEVE POSITION OF OBJECT 'a;b' AT TIME 1; next").unwrap(),
            vec!["RETRIEVE POSITION OF OBJECT 'a;b' AT TIME 1", "next"]
        );
    }

    #[test]
    fn unterminated_literal_is_an_error_not_a_swallow() {
        // The old splitter returned one fused statement here, silently
        // ignoring the second `;` — and the lexer would then reject the
        // fused text anyway. Now the script itself is rejected, at the
        // opening quote.
        let err = split_statements("RETRIEVE POSITION OF OBJECT 'oops AT TIME 1; next; more")
            .unwrap_err();
        assert_eq!(err.offset, 28);
        assert!(err.message.contains("unterminated string literal"));
        // A lone open quote at end of input is the same error.
        assert!(split_statements("a; b'").is_err());
    }

    /// The splitter and the lexer must agree on what a string literal
    /// is: every statement the splitter emits must lex without an
    /// unterminated-literal error, and a script the splitter rejects
    /// must contain a statement the lexer also rejects.
    #[test]
    fn splitter_agrees_with_lexer_on_literals() {
        let good = [
            "RETRIEVE POSITION OF OBJECT 'a;b' AT TIME 1; x",
            "'a' ; 'b;c' ; 'd'",
            "no quotes at all; still fine",
        ];
        for script in good {
            for stmt in split_statements(script).unwrap() {
                if let Err(e) = crate::lex(stmt) {
                    assert!(
                        !e.message.contains("unterminated"),
                        "splitter emitted {stmt:?} which the lexer sees as unterminated"
                    );
                }
            }
        }
        let bad = ["'open", "a; 'b;c", "quote at 'the;very;end"];
        for script in bad {
            let err = split_statements(script).unwrap_err();
            // The tail from the reported quote must be exactly what the
            // lexer rejects as unterminated.
            let lex_err = crate::lex(&script[err.offset..]).unwrap_err();
            assert!(lex_err.message.contains("unterminated string literal"));
        }
    }

    fn one_route_db() -> modb_core::Database {
        use modb_geom::Point;
        use modb_routes::{Route, RouteId, RouteNetwork};
        let network = RouteNetwork::from_routes([Route::from_vertices(
            RouteId(1),
            "main",
            vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)],
        )
        .unwrap()])
        .unwrap();
        modb_core::Database::new(network, modb_core::DatabaseConfig::default())
    }

    /// Each statement the splitter emits runs on its own: one bad
    /// statement gets its own parse verdict and does not take the
    /// good one before it down with it.
    #[test]
    fn run_batch_gives_per_statement_verdicts() {
        let db = one_route_db();
        let results: Vec<_> = split_statements(
            "RETRIEVE OBJECTS INSIDE RECT (0, 0, 10, 10) AT TIME 5; nonsense;",
        )
        .unwrap()
        .into_iter()
        .map(|stmt| crate::run(&db, stmt))
        .collect();
        assert_eq!(results.len(), 2);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(crate::QueryError::Parse(_))));
    }

    /// An unterminated literal rejects the whole script once, at the
    /// same offset at which running the unsplit script would fail to
    /// parse — so the one batch verdict is that parse error.
    #[test]
    fn run_batch_surfaces_unterminated_literal_as_one_parse_error() {
        let db = one_route_db();
        let script = "RETRIEVE POSITION OF OBJECT 'oops AT TIME 1; next";
        let split_err = split_statements(script).unwrap_err();
        match crate::run(&db, script) {
            Err(crate::QueryError::Parse(crate::ParseError::Lex(e))) => assert_eq!(e, split_err),
            other => panic!("expected one lex-level parse error, got {other:?}"),
        }
    }
}
