use std::error::Error;
use std::fmt;

/// Errors produced by the heartbeats framework.
#[derive(Debug, Clone, PartialEq)]
pub enum HeartbeatError {
    /// A target band was constructed with `min > max`, a non-positive
    /// bound, or a non-finite value.
    InvalidTarget {
        /// Lower bound of the offending band.
        min: f64,
        /// Upper bound of the offending band.
        max: f64,
    },
    /// A heartbeat was emitted with a timestamp earlier than the previous
    /// heartbeat. Time must be monotone.
    NonMonotonicTime {
        /// Timestamp of the previously accepted heartbeat.
        previous_ns: u64,
        /// Offending timestamp.
        offered_ns: u64,
    },
}

impl fmt::Display for HeartbeatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeartbeatError::InvalidTarget { min, max } => {
                write!(f, "invalid performance target band [{min}, {max}]")
            }
            HeartbeatError::NonMonotonicTime {
                previous_ns,
                offered_ns,
            } => write!(
                f,
                "heartbeat timestamp {offered_ns} ns precedes previous {previous_ns} ns"
            ),
        }
    }
}

impl Error for HeartbeatError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            HeartbeatError::InvalidTarget { min: 2.0, max: 1.0 },
            HeartbeatError::NonMonotonicTime {
                previous_ns: 5,
                offered_ns: 3,
            },
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HeartbeatError>();
    }
}
