//! # modb-query — a textual query language for the moving-objects DBMS
//!
//! The paper lists "developing query languages and user interfaces for
//! these databases" as future work (§5, §6) and motivates three query
//! shapes in §1; this crate provides a small language covering all of
//! them:
//!
//! ```text
//! RETRIEVE POSITION OF OBJECT 'ABT312' AT TIME 30
//! RETRIEVE OBJECTS INSIDE RECT (0, 0, 10, 10) AT TIME 5
//! RETRIEVE OBJECTS INSIDE POLYGON ((0,0), (4,0), (4,4)) DURING 0 TO 15
//! RETRIEVE OBJECTS WITHIN 1 OF POINT (5, 6) AT TIME 10      -- taxi query
//! RETRIEVE OBJECTS WITHIN 3 OF OBJECT 'ABT312' AT TIME 30   -- trucking query
//! ```
//!
//! Use [`run`] for parse-and-execute in one step, or [`parse`] +
//! [`execute`] separately. Range answers carry the may/must split and
//! position answers the deviation bound, exactly as the underlying
//! [`modb_core::Database`] API returns them.

#![warn(missing_docs)]

mod ast;
mod batch;
mod exec;
mod lexer;
mod parser;

pub use ast::{ObjectRef, Query, RegionSpec, TimeSpec};
pub use batch::split_statements;
pub use exec::{execute, run, run_lagging, ExecError, QueryResult};
pub use lexer::{lex, LexError, Token, TokenKind};
pub use parser::{parse, ParseError};

/// Either phase of query processing can fail.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The text did not parse.
    Parse(ParseError),
    /// The parsed query could not be evaluated.
    Exec(ExecError),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "parse error: {e}"),
            QueryError::Exec(e) => write!(f, "execution error: {e}"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Parse(e) => Some(e),
            QueryError::Exec(e) => Some(e),
        }
    }
}
