use std::error::Error;
use std::fmt;

use crate::cpuset::CoreId;
use crate::freq::FreqKhz;

/// Errors produced by the HMP simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The referenced application id is not part of this engine.
    UnknownApp(u64),
    /// The referenced thread index does not exist in the application.
    UnknownThread {
        /// Application the thread was looked up in.
        app: u64,
        /// Offending thread index.
        thread: usize,
    },
    /// The requested frequency is not a level of the cluster's ladder.
    InvalidFrequency {
        /// Requested frequency.
        freq: FreqKhz,
        /// Name of the cluster whose ladder was consulted.
        cluster: String,
    },
    /// An affinity mask with no core in it was supplied.
    EmptyCpuSet,
    /// The affinity mask references a core the board does not have.
    CoreOutOfRange {
        /// Offending core id.
        core: CoreId,
        /// Number of cores on the board.
        ncores: usize,
    },
    /// An application specification failed validation.
    InvalidSpec(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownApp(id) => write!(f, "unknown application id {id}"),
            SimError::UnknownThread { app, thread } => {
                write!(f, "application {app} has no thread {thread}")
            }
            SimError::InvalidFrequency { freq, cluster } => {
                write!(f, "frequency {freq} is not on the {cluster} cluster ladder")
            }
            SimError::EmptyCpuSet => write!(f, "affinity mask contains no cores"),
            SimError::CoreOutOfRange { core, ncores } => {
                write!(f, "core {core} out of range for a {ncores}-core board")
            }
            SimError::InvalidSpec(msg) => write!(f, "invalid application spec: {msg}"),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_nonempty() {
        let errors = [
            SimError::UnknownApp(1),
            SimError::UnknownThread { app: 0, thread: 9 },
            SimError::InvalidFrequency {
                freq: FreqKhz::new(123),
                cluster: "big".to_string(),
            },
            SimError::EmptyCpuSet,
            SimError::CoreOutOfRange {
                core: CoreId(9),
                ncores: 8,
            },
            SimError::InvalidSpec("x".into()),
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn sim_error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
