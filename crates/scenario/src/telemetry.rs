//! Scenario-side telemetry sinks: JSON-lines streaming over any
//! writer.
//!
//! The core crate defines the event vocabulary and the in-memory sinks
//! ([`hars_core::telemetry`]); this module adds the on-disk format the
//! ops surface uses — one [`TelemetryEvent::to_json`] object per line,
//! replayable and diffable. Writes are best-effort: a full disk never
//! perturbs the simulation (sinks must not influence outcomes), but
//! dropped lines are counted so the caller can notice. Transient
//! errors (`WouldBlock` / `TimedOut`, e.g. a non-blocking pipe under
//! backpressure) are retried a bounded number of times with
//! exponential backoff before a drop is counted; `Interrupted` writes
//! retry for free, as `write_all` would.

use std::io;
use std::time::Duration;

use hars_core::{TelemetryEvent, TelemetrySink};

/// A sink writing one JSON object per line to any [`io::Write`].
///
/// ```
/// use hars_core::{TelemetryEvent, TelemetrySink};
/// use hars_scenario::JsonlSink;
///
/// let mut sink = JsonlSink::new(Vec::new());
/// sink.emit(&TelemetryEvent::ConfigApplied { t_ns: 5, version: 1 });
/// let bytes = sink.into_inner();
/// assert_eq!(
///     String::from_utf8(bytes).unwrap(),
///     "{\"event\":\"config_applied\",\"t_ns\":5,\"version\":1}\n"
/// );
/// ```
pub struct JsonlSink<W: io::Write> {
    writer: W,
    written: u64,
    dropped: u64,
}

/// Transient-error retries per line before a drop is counted.
const MAX_TRANSIENT_RETRIES: u32 = 3;
/// First-retry backoff; doubles per retry (50µs, 100µs, 200µs).
const BASE_BACKOFF_US: u64 = 50;

impl<W: io::Write> JsonlSink<W> {
    /// A sink over `writer`.
    pub fn new(writer: W) -> Self {
        Self {
            writer,
            written: 0,
            dropped: 0,
        }
    }

    /// Lines successfully written so far.
    pub fn events_written(&self) -> u64 {
        self.written
    }

    /// Events whose write failed (best-effort: the simulation never
    /// sees the error).
    pub fn events_dropped(&self) -> u64 {
        self.dropped
    }

    /// Unwraps the writer (without flushing beyond the per-line
    /// writes already issued).
    pub fn into_inner(self) -> W {
        self.writer
    }

    /// Writes one line, retrying transient failures. Returns whether
    /// the whole line landed. A line abandoned mid-write may leave a
    /// partial record in the stream — the accounting is exact either
    /// way (each emitted event is counted written XOR dropped), and
    /// the replay parser reports the damaged line by number.
    fn write_line(&mut self, mut buf: &[u8]) -> bool {
        let mut retries = 0u32;
        while !buf.is_empty() {
            match self.writer.write(buf) {
                Ok(0) => {
                    // A zero-length write makes no progress; treat it
                    // like a transient stall (bounded, then drop).
                    if !backoff(&mut retries) {
                        return false;
                    }
                }
                Ok(n) => {
                    buf = &buf[n..];
                    retries = 0;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if !backoff(&mut retries) {
                        return false;
                    }
                }
                Err(_) => return false,
            }
        }
        true
    }

    /// Closes the sink: flushes the writer, warns on stderr when any
    /// event was dropped (best-effort writes make drops silent at emit
    /// time — this is where they become visible), and returns
    /// `(written, dropped, writer)`. The warning goes to stderr, never
    /// into the stream, so a capture with drops stays parseable.
    pub fn finish(mut self) -> (u64, u64, W) {
        let _ = self.writer.flush();
        if self.dropped > 0 {
            eprintln!(
                "warning: telemetry capture incomplete: {} of {} events dropped (write failures)",
                self.dropped,
                self.written + self.dropped
            );
        }
        (self.written, self.dropped, self.writer)
    }
}

// Manual Debug: the offline serde/io landscape has no blanket derives
// for generic writers, and dumping the writer itself is useless —
// report the counters.
impl<W: io::Write> std::fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("written", &self.written)
            .field("dropped", &self.dropped)
            .finish_non_exhaustive()
    }
}

/// Sleeps the exponential-backoff step for `retries`, or reports the
/// budget spent. Hot-path free: only ever reached on write errors.
fn backoff(retries: &mut u32) -> bool {
    if *retries >= MAX_TRANSIENT_RETRIES {
        return false;
    }
    std::thread::sleep(Duration::from_micros(BASE_BACKOFF_US << *retries));
    *retries += 1;
    true
}

impl<W: io::Write> TelemetrySink for JsonlSink<W> {
    fn emit(&mut self, event: &TelemetryEvent) {
        let mut line = event.to_json();
        line.push('\n');
        if self.write_line(line.as_bytes()) {
            self.written += 1;
        } else {
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(&TelemetryEvent::ConfigApplied {
            t_ns: 1,
            version: 1,
        });
        sink.emit(&TelemetryEvent::ConfigRejected {
            t_ns: 2,
            reason: "zero-budget".into(),
        });
        assert_eq!(sink.events_written(), 2);
        assert_eq!(sink.events_dropped(), 0);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    /// A writer that always fails, to exercise the best-effort path.
    struct Broken;

    impl io::Write for Broken {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("disk full"))
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn failed_writes_are_counted_not_fatal() {
        let mut sink = JsonlSink::new(Broken);
        sink.emit(&TelemetryEvent::ConfigApplied {
            t_ns: 1,
            version: 1,
        });
        assert_eq!(sink.events_written(), 0);
        assert_eq!(sink.events_dropped(), 1);
    }

    /// A writer that accepts `ok` writes, then fails every one after.
    struct FlakyWriter {
        ok: usize,
        buf: Vec<u8>,
    }

    impl io::Write for FlakyWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.ok == 0 {
                return Err(io::Error::other("disk full"));
            }
            self.ok -= 1;
            self.buf.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A writer stalling with `WouldBlock` for `stalls` calls before
    /// each successful write (a non-blocking pipe under backpressure).
    struct StallingWriter {
        stalls: usize,
        left: usize,
        calls: usize,
        buf: Vec<u8>,
    }

    impl StallingWriter {
        fn new(stalls: usize) -> Self {
            Self {
                stalls,
                left: stalls,
                calls: 0,
                buf: Vec::new(),
            }
        }
    }

    impl io::Write for StallingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.left > 0 {
                self.left -= 1;
                return Err(io::Error::from(io::ErrorKind::WouldBlock));
            }
            self.left = self.stalls;
            self.buf.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn transient_stalls_are_retried_within_budget() {
        // Two WouldBlocks per line is inside the 3-retry budget, so
        // every event lands and nothing is dropped.
        let mut sink = JsonlSink::new(StallingWriter::new(2));
        for v in 0..3 {
            sink.emit(&TelemetryEvent::ConfigApplied {
                t_ns: v,
                version: v,
            });
        }
        assert_eq!(sink.events_written(), 3);
        assert_eq!(sink.events_dropped(), 0);
        let (_, _, writer) = sink.finish();
        let text = String::from_utf8(writer.buf).unwrap();
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn persistent_stall_exhausts_retries_then_drops() {
        // Stalls forever: the retry budget bounds the attempts (one
        // initial + MAX_TRANSIENT_RETRIES) and the event is dropped.
        let mut sink = JsonlSink::new(StallingWriter::new(usize::MAX));
        sink.emit(&TelemetryEvent::ConfigApplied {
            t_ns: 1,
            version: 1,
        });
        assert_eq!(sink.events_written(), 0);
        assert_eq!(sink.events_dropped(), 1);
        let (_, _, writer) = sink.finish();
        assert_eq!(writer.calls as u32, 1 + MAX_TRANSIENT_RETRIES);
        assert!(writer.buf.is_empty());
    }

    /// A writer delivering lines in short chunks, with an interrupt
    /// before each chunk — exercises partial-write resumption.
    struct ChunkedWriter {
        interrupt_next: bool,
        buf: Vec<u8>,
    }

    impl io::Write for ChunkedWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.interrupt_next {
                self.interrupt_next = false;
                return Err(io::Error::from(io::ErrorKind::Interrupted));
            }
            self.interrupt_next = true;
            let n = buf.len().min(7);
            self.buf.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_writes_and_interrupts_still_deliver_whole_lines() {
        let mut sink = JsonlSink::new(ChunkedWriter {
            interrupt_next: false,
            buf: Vec::new(),
        });
        let event = TelemetryEvent::ConfigApplied {
            t_ns: 42,
            version: 7,
        };
        sink.emit(&event);
        assert_eq!(sink.events_written(), 1);
        assert_eq!(sink.events_dropped(), 0);
        let (_, _, writer) = sink.finish();
        let text = String::from_utf8(writer.buf).unwrap();
        assert_eq!(text, event.to_json() + "\n");
    }

    #[test]
    fn finish_reports_drop_counts_and_keeps_written_lines() {
        let mut sink = JsonlSink::new(FlakyWriter {
            ok: 2,
            buf: Vec::new(),
        });
        for v in 0..5 {
            sink.emit(&TelemetryEvent::ConfigApplied {
                t_ns: v,
                version: v,
            });
        }
        assert_eq!(sink.events_written(), 2);
        assert_eq!(sink.events_dropped(), 3);
        let (written, dropped, writer) = sink.finish();
        assert_eq!((written, dropped), (2, 3));
        let text = String::from_utf8(writer.buf).unwrap();
        assert_eq!(text.lines().count(), 2, "successful lines intact");
    }
}
