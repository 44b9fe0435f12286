//! # heartbeats — the Application Heartbeats framework
//!
//! A reproduction of the Application Heartbeats framework (Hoffmann et al.,
//! ICAC 2010) used by HARS as its observation channel: a self-adaptive
//! application emits a *heartbeat* each time it completes a unit of work,
//! and an external runtime reads the heartbeat *rate* as the
//! application-level performance signal.
//!
//! The crate is deliberately free of any simulator or OS dependency so it
//! can monitor both simulated applications (driven by a virtual clock) and
//! real ones (driven by wall-clock nanosecond timestamps).
//!
//! ## Quickstart
//!
//! ```
//! use heartbeats::{HeartbeatMonitor, PerfTarget};
//!
//! // Target band: 45..=55 heartbeats/sec, centered on 50.
//! let target = PerfTarget::from_center(50.0, 0.10)?;
//! let mut monitor = HeartbeatMonitor::with_target(target, 8);
//!
//! // The application emits one heartbeat every 20 ms of (virtual) time.
//! for i in 0..100u64 {
//!     monitor.emit(i * 20_000_000); // timestamps in nanoseconds
//! }
//! let rate = monitor.window_rate().unwrap();
//! assert!((rate.heartbeats_per_sec() - 50.0).abs() < 1e-6);
//! assert!(monitor.target().unwrap().satisfied_by(rate.heartbeats_per_sec()));
//! # Ok::<(), heartbeats::HeartbeatError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod app_id;
mod error;
mod monitor;
mod record;
mod target;
mod window;

pub use app_id::AppId;
pub use error::HeartbeatError;
pub use monitor::HeartbeatMonitor;
pub use record::{HeartbeatRate, HeartbeatRecord};
pub use target::PerfTarget;
pub use window::RateWindow;

/// Nanoseconds per second, the time base of the whole framework.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;
