//! Error type for the differential-fairness core.

use std::fmt;

/// Errors produced by df-core.
#[derive(Debug, Clone, PartialEq)]
pub enum DfError {
    /// A propagated error from the probability substrate.
    Prob(df_prob::ProbError),
    /// A named attribute was not part of the protected space.
    UnknownAttribute(String),
    /// An operation needed at least the given number of groups/outcomes.
    NotEnoughCategories {
        /// What was being counted.
        what: &'static str,
        /// Minimum required.
        needed: usize,
        /// Actually present.
        present: usize,
    },
    /// A counts table held a NaN, infinite, or negative cell — ε over such
    /// a table would silently propagate NaN instead of certifying anything.
    CorruptCounts {
        /// Flat (row-major) index of the first offending cell.
        cell: usize,
        /// The offending value.
        value: f64,
    },
    /// A bounded wait (e.g. a fleet consistent-cut round) did not finish
    /// before its deadline. The operation may still complete in the
    /// background; retrying later is safe.
    Timeout {
        /// What was being waited on.
        what: &'static str,
        /// The budget that elapsed, in milliseconds.
        waited_ms: u64,
    },
    /// An invalid argument with a description.
    Invalid(String),
}

impl fmt::Display for DfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfError::Prob(e) => write!(f, "probability substrate: {e}"),
            DfError::UnknownAttribute(name) => {
                write!(f, "unknown protected attribute `{name}`")
            }
            DfError::NotEnoughCategories {
                what,
                needed,
                present,
            } => write!(f, "need at least {needed} {what}, got {present}"),
            DfError::CorruptCounts { cell, value } => write!(
                f,
                "counts table holds invalid value {value} at flat cell {cell}; \
                 counts must be finite and non-negative"
            ),
            DfError::Timeout { what, waited_ms } => {
                write!(f, "{what} did not complete within {waited_ms} ms")
            }
            DfError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for DfError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DfError::Prob(e) => Some(e),
            _ => None,
        }
    }
}

impl From<df_prob::ProbError> for DfError {
    fn from(e: df_prob::ProbError) -> Self {
        DfError::Prob(e)
    }
}

/// df-core's one binary format is the DFLT snapshot frame, so a wire
/// error is a malformed frame: an invalid argument that names the field
/// and the byte offset where decoding stopped.
impl From<df_prob::wire::WireError> for DfError {
    fn from(e: df_prob::wire::WireError) -> Self {
        DfError::Invalid(format!("corrupt snapshot frame {e}"))
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, DfError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let e = DfError::UnknownAttribute("race".into());
        assert!(e.to_string().contains("race"));
        let e = DfError::NotEnoughCategories {
            what: "groups",
            needed: 2,
            present: 1,
        };
        assert!(e.to_string().contains("2"));
        let e: DfError = df_prob::ProbError::EmptyTable("x").into();
        assert!(e.to_string().contains("probability substrate"));
        let e = DfError::CorruptCounts {
            cell: 3,
            value: f64::NAN,
        };
        assert!(e.to_string().contains("cell 3"));
        let e = DfError::Timeout {
            what: "fleet snapshot",
            waited_ms: 250,
        };
        assert!(e.to_string().contains("250 ms"));
    }
}
