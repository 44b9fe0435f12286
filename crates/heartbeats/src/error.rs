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
}

impl fmt::Display for HeartbeatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeartbeatError::InvalidTarget { min, max } => {
                write!(f, "invalid performance target band [{min}, {max}]")
            }
        }
    }
}

impl Error for HeartbeatError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let msg = HeartbeatError::InvalidTarget { min: 2.0, max: 1.0 }.to_string();
        assert!(!msg.is_empty());
        assert!(msg.chars().next().unwrap().is_lowercase());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HeartbeatError>();
    }
}
