//! Error type for the data substrate.

use std::fmt;

/// Errors produced by df-data.
#[derive(Debug)]
pub enum DataError {
    /// Propagated from the probability substrate.
    Prob(df_prob::ProbError),
    /// I/O failure while reading or writing files.
    Io(std::io::Error),
    /// Malformed CSV input.
    Csv {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// A named column was not found.
    UnknownColumn(String),
    /// Column has the wrong type for the requested operation.
    WrongColumnType {
        /// Column name.
        column: String,
        /// Expected kind.
        expected: &'static str,
    },
    /// Generic invalid-argument error.
    Invalid(String),
    /// Malformed or truncated DFRL replay-log bytes (untrusted input).
    Replay {
        /// Byte offset into the log where decoding failed.
        offset: u64,
        /// Description of the corruption.
        message: String,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::Prob(e) => write!(f, "probability substrate: {e}"),
            DataError::Io(e) => write!(f, "i/o: {e}"),
            DataError::Csv { line, message } => {
                write!(f, "csv parse error at line {line}: {message}")
            }
            DataError::UnknownColumn(name) => write!(f, "unknown column `{name}`"),
            DataError::WrongColumnType { column, expected } => {
                write!(f, "column `{column}` is not {expected}")
            }
            DataError::Invalid(msg) => write!(f, "{msg}"),
            DataError::Replay { offset, message } => {
                write!(f, "corrupt replay log at byte {offset}: {message}")
            }
        }
    }
}

impl std::error::Error for DataError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DataError::Prob(e) => Some(e),
            DataError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<df_prob::ProbError> for DataError {
    fn from(e: df_prob::ProbError) -> Self {
        DataError::Prob(e)
    }
}

/// A wire error inside a DFRL log keeps its offset and text.
impl From<df_prob::wire::WireError> for DataError {
    fn from(e: df_prob::wire::WireError) -> Self {
        DataError::Replay {
            offset: e.offset,
            message: e.message,
        }
    }
}

impl From<std::io::Error> for DataError {
    fn from(e: std::io::Error) -> Self {
        DataError::Io(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, DataError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DataError::Csv {
            line: 7,
            message: "unterminated quote".into(),
        };
        assert!(e.to_string().contains("line 7"));
        let e = DataError::WrongColumnType {
            column: "age".into(),
            expected: "categorical",
        };
        assert!(e.to_string().contains("age"));
    }
}
