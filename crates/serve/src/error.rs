//! Typed serving-plane errors.
//!
//! The session's contract is *rejection over collapse*: a request the
//! plane cannot take on right now comes back immediately as a typed
//! [`Error::Overloaded`] — never an unbounded queue, never a panic —
//! so callers can shed load, retry with backoff, or route elsewhere. A
//! request its tables cannot answer comes back as
//! [`Error::InvalidRequest`] before any work.

use std::fmt;

/// `Result` specialised to serving-plane errors.
pub type Result<T> = std::result::Result<T, Error>;

/// Everything that can go wrong between `submit` and a response.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Admission control turned the request away: the session already
    /// holds `capacity` in-flight requests (queued plus executing).
    /// This is back-pressure, not failure — the request was never
    /// enqueued and holds no session memory.
    Overloaded {
        /// Requests in flight when admission was refused.
        in_flight: usize,
        /// The session's configured in-flight bound.
        capacity: usize,
    },
    /// The request does not fit its tables: a column index past a
    /// table's width, a column of the wrong type for the query family, a
    /// right table on a unary query (or none on a JOIN), or a query that
    /// reads no column. Checked at admission, so the request was never
    /// enqueued and no thread ran it.
    InvalidRequest {
        /// What is wrong, in one line.
        reason: String,
    },
    /// The session is shutting down (or its driver dropped the request
    /// mid-shutdown); no result will ever arrive for this submission.
    SessionClosed,
    /// The execution layer itself failed; carries the engine's typed
    /// error unchanged.
    Exec(cheetah_core::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Overloaded { in_flight, capacity } => write!(
                f,
                "session overloaded: {in_flight} requests in flight at capacity {capacity}"
            ),
            Error::InvalidRequest { reason } => write!(f, "invalid request: {reason}"),
            Error::SessionClosed => write!(f, "session closed before the request completed"),
            Error::Exec(e) => write!(f, "execution failed: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Exec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cheetah_core::Error> for Error {
    fn from(e: cheetah_core::Error) -> Self {
        Error::Exec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_displays_its_numbers() {
        let e = Error::Overloaded { in_flight: 7, capacity: 4 };
        let s = e.to_string();
        assert!(s.contains('7') && s.contains('4'), "{s}");
    }

    #[test]
    fn exec_errors_chain_their_source() {
        use std::error::Error as _;
        let e = Error::from(cheetah_core::Error::MissingStream { stream: 1 });
        assert!(e.source().is_some());
        assert_eq!(e, Error::Exec(cheetah_core::Error::MissingStream { stream: 1 }));
    }

    #[test]
    fn invalid_request_displays_its_reason() {
        let e = Error::InvalidRequest { reason: "distinct reads column 9".into() };
        assert!(e.to_string().contains("column 9"), "{e}");
    }

    #[test]
    fn closed_session_has_no_source() {
        use std::error::Error as _;
        assert!(Error::SessionClosed.source().is_none());
    }
}
