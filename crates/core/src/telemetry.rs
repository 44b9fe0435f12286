//! Streaming telemetry: the serializable event vocabulary the runtime
//! emits, its JSON line format in both directions, and the
//! [`TelemetrySink`] trait consumers implement.
//!
//! The runtime's observability surface is a flat stream of
//! [`TelemetryEvent`]s — per-decision search cost stamped with the
//! [`ConfigVersion`](crate::config::ConfigVersion) that made the
//! decision, per-tenant satisfaction transitions, per-cluster power,
//! admission verdicts and config accept/reject diagnostics. Producers
//! (the scenario driver, benches) push events into a `&mut dyn
//! TelemetrySink`; the [`NullSink`] default makes telemetry free and
//! keeps every golden output bit-identical, [`VecSink`] captures
//! streams for tests, and the scenario crate's `JsonlSink` writes one
//! JSON object per line for dashboards and replay.
//!
//! The vocabulary is declared once, in the event table below: each row
//! gives an event's variant, its stable kind string and its documented
//! fields in wire order. The table generates the enum, the schema text
//! ([`schema_text`]) whose hash CI pins, the accessors, the encoder
//! ([`TelemetryEvent::to_json`]) and the strict parser
//! ([`TelemetryEvent::from_json`], [`parse_capture`]), so the two
//! directions of the format cannot drift apart. The format is
//! hand-rolled because the workspace's offline serde shim has no-op
//! derives.

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::search::SearchStats;
use crate::state::SystemState;

/// Declares the event vocabulary. Every event carries the emission
/// instant `t_ns` first; each row lists the fields after it.
macro_rules! events {
    // `tenant()` passes each field binding twice: the first copy is
    // matched against the name `tenant`, the second is the binding read.
    (@tenant tenant $binding:ident) => { return Some(*$binding) };
    (@tenant $field:ident $binding:ident) => {};
    ($(
        $(#[$doc:meta])*
        $variant:ident = $kind:literal {
            $( $(#[$field_doc:meta])* $field:ident: $ty:ty, )*
        }
    )*) => {
        /// One telemetry event. Every variant carries the emission
        /// instant `t_ns` (engine clock); [`TelemetryEvent::kind`] is the
        /// stable discriminator the JSON lines lead with.
        #[derive(Debug, Clone, PartialEq)]
        pub enum TelemetryEvent {
            $(
                $(#[$doc])*
                $variant {
                    /// Emission instant (engine ns).
                    t_ns: u64,
                    $( $(#[$field_doc])* $field: $ty, )*
                },
            )*
        }

        /// The canonical schema text (one `kind: field,field,...` line
        /// per event, in wire order) whose SHA-256 is the CI schema
        /// golden (`ci/telemetry_schema.sha256`). Adding an event or a
        /// field changes it; value changes do not.
        pub fn schema_text() -> String {
            let mut text = String::from("hars telemetry schema v1\n");
            $({
                let mut names = vec!["t_ns"];
                $( <$ty as Codec>::names(stringify!($field), &mut names); )*
                let _ = writeln!(text, "{}: {}", $kind, names.join(","));
            })*
            text
        }

        impl TelemetryEvent {
            /// The stable discriminator (`"decision"`, `"config_applied"`, ...).
            pub fn kind(&self) -> &'static str {
                match self {
                    $( Self::$variant { .. } => $kind, )*
                }
            }

            /// The emission instant (engine ns).
            pub fn t_ns(&self) -> u64 {
                match self {
                    $( Self::$variant { t_ns, .. } )|* => *t_ns,
                }
            }

            /// The tenant a tenant-scoped event refers to (arrival-order
            /// index), `None` for run-scoped events. The observability
            /// layer's per-tenant timelines key on this.
            #[allow(unused_variables)] // every field is bound; only `tenant` is read
            pub fn tenant(&self) -> Option<u64> {
                match self {
                    $( Self::$variant { $($field,)* .. } => {
                        $( events!(@tenant $field $field); )*
                    } )*
                }
                None
            }

            /// One JSON object (no trailing newline): `"event"` first,
            /// then the fields in [`schema_text`] order.
            pub fn to_json(&self) -> String {
                let mut out = format!("{{\"event\":\"{}\"", self.kind());
                match self {
                    $( Self::$variant { t_ns, $($field,)* } => {
                        t_ns.encode("t_ns", &mut out);
                        $( $field.encode(stringify!($field), &mut out); )*
                    } )*
                }
                out.push('}');
                out
            }

            /// Parses one capture line — the inverse of
            /// [`to_json`](Self::to_json). Strict: an unknown kind, a
            /// missing, extra or reordered field, a value of the wrong
            /// type, or content after the object is an error (with
            /// `line` 0; [`parse_capture`] numbers it).
            pub fn from_json(line: &str) -> Result<Self, ParseError> {
                Self::read(&mut Reader { rest: line }).map_err(|message| ParseError {
                    line: 0,
                    message,
                })
            }

            fn read(r: &mut Reader<'_>) -> Result<Self, String> {
                let kind = r.open()?;
                let event = match kind.as_str() {
                    $( $kind => Self::$variant {
                        t_ns: Codec::decode(r, "t_ns")?,
                        $( $field: Codec::decode(r, stringify!($field))?, )*
                    }, )*
                    _ => return Err(format!("unknown event kind {kind:?}")),
                };
                r.close(&kind)?;
                Ok(event)
            }
        }
    };
}

events! {
    /// A runtime-manager decision: which app re-pinned, under which
    /// config version, at what modeled search cost.
    Decision = "decision" {
        /// The deciding application's id.
        app: u64,
        /// The manager's config version at decision time.
        config_version: u64,
        /// The decision's search-cost accounting (six wire fields).
        stats: SearchStats,
    }
    /// A [`ConfigDelta`](crate::config::ConfigDelta) was accepted.
    ConfigApplied = "config_applied" {
        /// The version the manager moved to.
        version: u64,
    }
    /// A [`ConfigDelta`](crate::config::ConfigDelta) was rejected.
    ConfigRejected = "config_rejected" {
        /// The stable [`RejectReason::code`](crate::config::RejectReason::code).
        reason: Cow<'static, str>,
    }
    /// An admission verdict for one arriving (or queue-drained) tenant.
    AdmissionVerdict = "admission" {
        /// Tenant index in arrival order.
        tenant: u64,
        /// `"admit"`, `"queue"` or `"reject"`.
        verdict: Cow<'static, str>,
    }
    /// The admission policy was swapped mid-run.
    AdmissionSwapped = "admission_swapped" {
        /// The new policy's display name.
        policy: Cow<'static, str>,
    }
    /// The scenario's SLO guard band changed mid-run (applies to
    /// tenants registered from now on).
    GuardChanged = "guard_changed" {
        /// The new guard fraction.
        target_guard: f64,
    }
    /// A tenant's windowed rate crossed its target minimum (either
    /// direction). Emitted on transitions only, not per heartbeat.
    SatisfactionFlip = "satisfaction" {
        /// Tenant index in arrival order.
        tenant: u64,
        /// `true`: now meeting the target minimum.
        satisfied: bool,
    }
    /// One cluster's average power so far (reported at reconfigure
    /// instants and at scenario end).
    ClusterPower = "cluster_power" {
        /// Cluster index.
        cluster: usize,
        /// Average power over [0, `t_ns`] (W).
        watts: f64,
    }
    /// The initial system state a single-app manager applied (emitted
    /// by drivers that wire a sink through `initial_decision`).
    InitialState = "initial_state" {
        /// The applied state.
        state: SystemState,
    }
    /// A solo-rate calibration lookup was served from the cache: the
    /// tenant's target resolved without an isolated calibration run.
    CacheHit = "cache_hit" {
        /// The benchmark whose solo rate was requested.
        bench: Cow<'static, str>,
        /// The requested thread count.
        threads: u64,
    }
    /// A solo-rate calibration lookup missed: an isolated calibration
    /// run was paid for and its result inserted into the cache.
    CacheMiss = "cache_miss" {
        /// The benchmark whose solo rate was requested.
        bench: Cow<'static, str>,
        /// The requested thread count.
        threads: u64,
    }
    /// A fleet placement decision: which board an arriving tenant was
    /// routed to, at what estimated-load score. Emitted by the fleet
    /// placement tier; `board` is `u64::MAX` for fleet-rejected
    /// tenants (every board's admission gate refused the arrival).
    Placement = "placement" {
        /// Tenant index in fleet arrival order.
        tenant: u64,
        /// The chosen board's shard index (`u64::MAX` = rejected).
        board: u64,
        /// The chosen board's placement score (estimated load plus
        /// penalties; lower is better). Infinity for rejections.
        score: f64,
    }
    /// A tenant crossed from the admission gate into the runtime: its
    /// target band is resolved and the app is registered. Carries the
    /// class identity (benchmark) the observability layer's SLO
    /// rollups group by, and the admission-queue wait the
    /// queue-percentile histograms fold in.
    TenantAdmitted = "tenant_admitted" {
        /// Tenant index in arrival order.
        tenant: u64,
        /// The tenant's benchmark (its template class).
        bench: Cow<'static, str>,
        /// The tenant's thread count.
        threads: u64,
        /// The resolved target band minimum (hb/s).
        target_min: f64,
        /// Time spent waiting for admission (ns; 0 when admitted on
        /// arrival).
        queue_wait_ns: u64,
    }
    /// A tenant finished its heartbeat budget and left the runtime.
    /// Closes the tenant's timeline; tenants still running at the
    /// scenario horizon never emit one.
    TenantDeparted = "tenant_departed" {
        /// Tenant index in arrival order.
        tenant: u64,
        /// Heartbeats the tenant emitted over its whole tenancy.
        heartbeats: u64,
    }
    /// One rated heartbeat: the tenant's windowed rate at this
    /// instant, and whether it cleared the tenant's own target-band
    /// minimum. This is the per-tenant heartbeat-latency series —
    /// high-volume by design (one event per rated heartbeat), which
    /// the free [`NullSink`] default makes costless.
    HeartbeatRate = "heartbeat_rate" {
        /// Tenant index in arrival order.
        tenant: u64,
        /// The windowed heartbeat rate (hb/s).
        rate_hz: f64,
        /// `true` when `rate_hz` meets the tenant's target minimum.
        satisfied: bool,
    }
    /// A platform fault was injected by the deterministic fault plane
    /// (`hmp_sim::FaultPlan`). `cluster` is `-1` for board-scoped
    /// faults; `until_ns` is `u64::MAX` for permanent ones.
    FaultInjected = "fault_injected" {
        /// The fault's stable discriminator (`"board_fail"`,
        /// `"cluster_cap"`, `"sensor_dropout"`, ...).
        fault: Cow<'static, str>,
        /// Affected cluster index, `-1` when board-scoped.
        cluster: i64,
        /// Recovery instant (exclusive; `u64::MAX` = permanent).
        until_ns: u64,
    }
    /// The runtime quarantined a cluster in reaction to a thermal-cap
    /// or offline fault: the manager's search space no longer grows
    /// onto it and its frequency is pinned.
    ClusterQuarantined = "cluster_quarantined" {
        /// Quarantined cluster index.
        cluster: usize,
        /// `"cap"` (frequency pinned at the floor) or `"offline"`
        /// (additionally evicted from the core search space).
        mode: Cow<'static, str>,
        /// Quarantine expiry (exclusive; `u64::MAX` = permanent).
        until_ns: u64,
    }
    /// A cluster's quarantine expired: the runtime returned it to the
    /// search space.
    ClusterRestored = "cluster_restored" {
        /// Restored cluster index.
        cluster: usize,
    }
    /// The board died mid-run: serving stops, in-flight tenants are
    /// marked for failover by the fleet supervisor.
    BoardFailed = "board_failed" {
        /// Tenants that were in flight (admitted, budget incomplete).
        tenants_in_flight: u64,
    }
    /// Degraded-mode calibration: a sensor-fault window was active at
    /// admission, so the tenant's target was resolved from the
    /// last-known-good solo rate instead of a fresh calibration run.
    DegradedCalibration = "degraded_calibration" {
        /// Tenant index in arrival order.
        tenant: u64,
        /// The benchmark whose stale solo rate was reused.
        bench: Cow<'static, str>,
        /// Staleness of the reused rate (ns since it was calibrated).
        age_ns: u64,
    }
    /// The fleet supervisor failed a tenant over from a dead board onto
    /// a surviving one (capped retries, deterministic backoff); `t_ns`
    /// is the rescheduled arrival.
    TenantFailedOver = "tenant_failed_over" {
        /// Tenant index in fleet arrival order.
        tenant: u64,
        /// The dead board's shard index.
        from_board: u64,
        /// The surviving destination's shard index (`u64::MAX` = no
        /// feasible destination; the tenant is lost).
        to_board: u64,
        /// Failover attempt number (1-based).
        attempt: u64,
    }
}

/// A capture line that does not parse, with enough context to find it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number in the capture (0 for a lone line).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a whole capture (one JSON object per non-blank line), failing
/// on the first bad line with its 1-based number.
pub fn parse_capture(text: &str) -> Result<Vec<TelemetryEvent>, ParseError> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            TelemetryEvent::from_json(line).map_err(|e| ParseError { line: i + 1, ..e })
        })
        .collect()
}

/// How one table field travels on the wire, in both directions.
trait Codec: Sized {
    /// Appends the wire names the field occupies: its own name, unless
    /// the type flattens into several.
    fn names(field: &'static str, out: &mut Vec<&'static str>) {
        out.push(field);
    }

    /// Appends the field's entry (`,"field":value`).
    fn encode(&self, field: &str, out: &mut String);

    /// Reads the field's entry back, checking its name.
    fn decode(r: &mut Reader<'_>, field: &str) -> Result<Self, String>;
}

/// A field whose value is one JSON token.
trait Scalar: Sized {
    fn write(&self, out: &mut String);
    fn read(r: &mut Reader<'_>) -> Result<Self, String>;
}

impl<T: Scalar> Codec for T {
    fn encode(&self, field: &str, out: &mut String) {
        let _ = write!(out, ",\"{field}\":");
        self.write(out);
    }

    fn decode(r: &mut Reader<'_>, field: &str) -> Result<Self, String> {
        r.key(field)?;
        T::read(r).map_err(|e| format!("field {field}: {e}"))
    }
}

macro_rules! integer_scalars {
    ($($ty:ty),*) => {$(
        impl Scalar for $ty {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }

            fn read(r: &mut Reader<'_>) -> Result<Self, String> {
                let token = r.token();
                token
                    .parse()
                    .map_err(|_| format!("expected {}, got {token:?}", stringify!($ty)))
            }
        }
    )*};
}

integer_scalars!(u64, usize, i64);

/// Shortest round-trip digits (`{:?}` keeps the decimal point: `1.0`).
/// Non-finite values are written as `null`, since bare `inf` is not
/// JSON, and read back as +∞: a fleet rejection's placement score.
impl Scalar for f64 {
    fn write(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self:?}");
        } else {
            out.push_str("null");
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, String> {
        match r.token() {
            "null" => Ok(f64::INFINITY),
            token => token
                .parse()
                .ok()
                .filter(|v: &f64| v.is_finite())
                .ok_or_else(|| format!("expected a number, got {token:?}")),
        }
    }
}

impl Scalar for bool {
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, String> {
        match r.token() {
            "true" => Ok(true),
            "false" => Ok(false),
            token => Err(format!("expected true or false, got {token:?}")),
        }
    }
}

/// Emitters pass their `&'static str` vocabulary borrowed, so the hot
/// path never allocates; parsed events own their strings.
impl Scalar for Cow<'static, str> {
    fn write(&self, out: &mut String) {
        write_quoted(self, out);
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, String> {
        r.string().map(Cow::Owned)
    }
}

/// Through its `Display` form and the inverse `FromStr`.
impl Scalar for SystemState {
    fn write(&self, out: &mut String) {
        write_quoted(&self.to_string(), out);
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, String> {
        r.string()?.parse()
    }
}

/// Writes a struct's fields as entries of the enclosing object, in
/// declaration order.
macro_rules! flattened {
    ($ty:ident { $($field:ident),* }) => {
        impl Codec for $ty {
            fn names(_: &'static str, out: &mut Vec<&'static str>) {
                out.extend([$(stringify!($field)),*]);
            }

            fn encode(&self, _: &str, out: &mut String) {
                $( self.$field.encode(stringify!($field), out); )*
            }

            fn decode(r: &mut Reader<'_>, _: &str) -> Result<Self, String> {
                Ok($ty { $( $field: Codec::decode(r, stringify!($field))?, )* })
            }
        }
    };
}

flattened!(SearchStats {
    explored,
    evaluated,
    best_rank_changes,
    wall_ns,
    nodes,
    truncated
});

/// Quotes `s`, escaping the characters [`Reader::string`] unescapes.
fn write_quoted(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A cursor over one capture line. Whitespace between tokens is
/// skipped; everything else must be exactly where the schema puts it.
struct Reader<'a> {
    rest: &'a str,
}

impl<'a> Reader<'a> {
    fn eat(&mut self, token: char) -> Result<(), String> {
        self.rest = self.rest.trim_start();
        match self.rest.strip_prefix(token) {
            Some(rest) => {
                self.rest = rest;
                Ok(())
            }
            None => Err(format!("expected '{token}' at {:?}", self.rest)),
        }
    }

    /// Consumes `{"event":"<kind>"` and returns the kind.
    fn open(&mut self) -> Result<String, String> {
        self.eat('{')?;
        let lead = self.string()?;
        if lead != "event" {
            return Err(format!("first field must be \"event\", got {lead:?}"));
        }
        self.eat(':')?;
        self.string()
    }

    /// Consumes `,"<field>":`.
    fn key(&mut self, field: &str) -> Result<(), String> {
        self.eat(',')
            .map_err(|_| format!("missing field {field:?} at {:?}", self.rest))?;
        let got = self.string()?;
        if got != field {
            return Err(format!("expected field {field:?}, got {got:?}"));
        }
        self.eat(':')
    }

    /// Consumes the closing `}`; nothing but whitespace may follow.
    fn close(&mut self, kind: &str) -> Result<(), String> {
        self.eat('}').map_err(|_| {
            format!(
                "{kind}: extra content after the last field: {:?}",
                self.rest
            )
        })?;
        match self.rest.trim() {
            "" => Ok(()),
            rest => Err(format!("trailing content after the object: {rest:?}")),
        }
    }

    /// Consumes a quoted string, resolving the escapes [`write_quoted`]
    /// writes.
    fn string(&mut self) -> Result<String, String> {
        self.eat('"')?;
        let mut s = String::new();
        let mut chars = self.rest.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.rest = &self.rest[i + 1..];
                    return Ok(s);
                }
                '\\' => s.push(match chars.next() {
                    Some((_, '"')) => '"',
                    Some((_, '\\')) => '\\',
                    Some((_, 'n')) => '\n',
                    Some((_, 't')) => '\t',
                    other => return Err(format!("unsupported escape {other:?}")),
                }),
                c => s.push(c),
            }
        }
        Err("unterminated string".to_string())
    }

    /// Consumes one bare token: a number, `true`, `false` or `null`.
    fn token(&mut self) -> &'a str {
        self.rest = self.rest.trim_start();
        let end = self
            .rest
            .find(|c: char| c == ',' || c == '}' || c.is_ascii_whitespace())
            .unwrap_or(self.rest.len());
        let (token, rest) = self.rest.split_at(end);
        self.rest = rest;
        token
    }
}

/// A telemetry consumer. Sinks must be cheap when idle — the driver
/// calls [`TelemetrySink::emit`] on the hot path — and must never
/// influence the simulation (events are read-only borrows).
pub trait TelemetrySink: std::fmt::Debug {
    /// Consumes one event.
    fn emit(&mut self, event: &TelemetryEvent);
}

// A `&mut` to any sink is itself a sink, so composing sinks (a metrics
// fold teeing into a JSONL writer, say) never forces a move: wrappers
// can borrow their inner sink for the run and hand it back after.
impl<T: TelemetrySink + ?Sized> TelemetrySink for &mut T {
    fn emit(&mut self, event: &TelemetryEvent) {
        (**self).emit(event);
    }
}

/// The default sink: drops everything. With it, a telemetry-threaded
/// run is bit-identical to a pre-telemetry run — the golden contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    fn emit(&mut self, _event: &TelemetryEvent) {}
}

/// An in-memory sink for tests and replay checks.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    /// Every event emitted, in order.
    pub events: Vec<TelemetryEvent>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TelemetrySink for VecSink {
    fn emit(&mut self, event: &TelemetryEvent) {
        self.events.push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmp_sim::FreqKhz;

    /// One example per kind (and per wire edge case) with its exact
    /// bytes: the pin every encoder change must reproduce.
    fn examples() -> Vec<(TelemetryEvent, &'static str)> {
        let mhz = FreqKhz::from_mhz;
        vec![
            (
                TelemetryEvent::Decision {
                    t_ns: 12,
                    app: 3,
                    config_version: 4,
                    stats: SearchStats {
                        explored: 10,
                        evaluated: 8,
                        best_rank_changes: 2,
                        wall_ns: 12_345,
                        nodes: 99,
                        truncated: true,
                    },
                },
                r#"{"event":"decision","t_ns":12,"app":3,"config_version":4,"explored":10,"evaluated":8,"best_rank_changes":2,"wall_ns":12345,"nodes":99,"truncated":true}"#,
            ),
            (
                TelemetryEvent::ConfigApplied {
                    t_ns: 1,
                    version: 7,
                },
                r#"{"event":"config_applied","t_ns":1,"version":7}"#,
            ),
            (
                TelemetryEvent::ConfigRejected {
                    t_ns: 2,
                    reason: "zero-budget".into(),
                },
                r#"{"event":"config_rejected","t_ns":2,"reason":"zero-budget"}"#,
            ),
            (
                TelemetryEvent::AdmissionVerdict {
                    t_ns: 3,
                    tenant: 1,
                    verdict: "queue".into(),
                },
                r#"{"event":"admission","t_ns":3,"tenant":1,"verdict":"queue"}"#,
            ),
            (
                TelemetryEvent::AdmissionSwapped {
                    t_ns: 4,
                    policy: "bounded-queue".into(),
                },
                r#"{"event":"admission_swapped","t_ns":4,"policy":"bounded-queue"}"#,
            ),
            (
                TelemetryEvent::GuardChanged {
                    t_ns: 5,
                    target_guard: 0.125,
                },
                r#"{"event":"guard_changed","t_ns":5,"target_guard":0.125}"#,
            ),
            (
                TelemetryEvent::SatisfactionFlip {
                    t_ns: 6,
                    tenant: 2,
                    satisfied: false,
                },
                r#"{"event":"satisfaction","t_ns":6,"tenant":2,"satisfied":false}"#,
            ),
            (
                // `{:?}` keeps the decimal point: "1.0", not "1".
                TelemetryEvent::ClusterPower {
                    t_ns: 7,
                    cluster: 2,
                    watts: 1.0,
                },
                r#"{"event":"cluster_power","t_ns":7,"cluster":2,"watts":1.0}"#,
            ),
            (
                // Shortest round-trip digits, exponent form included.
                TelemetryEvent::ClusterPower {
                    t_ns: 7,
                    cluster: 0,
                    watts: 0.1 + 0.2,
                },
                r#"{"event":"cluster_power","t_ns":7,"cluster":0,"watts":0.30000000000000004}"#,
            ),
            (
                TelemetryEvent::GuardChanged {
                    t_ns: 5,
                    target_guard: 1e-7,
                },
                r#"{"event":"guard_changed","t_ns":5,"target_guard":1e-7}"#,
            ),
            (
                TelemetryEvent::InitialState {
                    t_ns: 0,
                    state: SystemState::new(&[(2, mhz(1_300)), (4, mhz(1_600))]),
                },
                r#"{"event":"initial_state","t_ns":0,"state":"4B@1600 MHz + 2L@1300 MHz"}"#,
            ),
            (
                TelemetryEvent::InitialState {
                    t_ns: 9,
                    state: SystemState::new(&[
                        (4, mhz(600)),
                        (2, mhz(800)),
                        (1, mhz(2_600)),
                        (0, FreqKhz::new(1_450_500)),
                    ]),
                },
                r#"{"event":"initial_state","t_ns":9,"state":"4xcluster0@600 MHz + 2xcluster1@800 MHz + 1xcluster2@2600 MHz + 0xcluster3@1450500 kHz"}"#,
            ),
            (
                TelemetryEvent::CacheHit {
                    t_ns: 8,
                    bench: "swaptions".into(),
                    threads: 4,
                },
                r#"{"event":"cache_hit","t_ns":8,"bench":"swaptions","threads":4}"#,
            ),
            (
                TelemetryEvent::CacheMiss {
                    t_ns: 9,
                    bench: "fluidanimate".into(),
                    threads: 2,
                },
                r#"{"event":"cache_miss","t_ns":9,"bench":"fluidanimate","threads":2}"#,
            ),
            (
                TelemetryEvent::Placement {
                    t_ns: 10,
                    tenant: 5,
                    board: 2,
                    score: 0.75,
                },
                r#"{"event":"placement","t_ns":10,"tenant":5,"board":2,"score":0.75}"#,
            ),
            (
                // A fleet rejection: no board, infinite score as `null`.
                TelemetryEvent::Placement {
                    t_ns: 11,
                    tenant: 6,
                    board: u64::MAX,
                    score: f64::INFINITY,
                },
                r#"{"event":"placement","t_ns":11,"tenant":6,"board":18446744073709551615,"score":null}"#,
            ),
            (
                TelemetryEvent::TenantAdmitted {
                    t_ns: 11,
                    tenant: 5,
                    bench: "ferret".into(),
                    threads: 4,
                    target_min: 6.5,
                    queue_wait_ns: 250,
                },
                r#"{"event":"tenant_admitted","t_ns":11,"tenant":5,"bench":"ferret","threads":4,"target_min":6.5,"queue_wait_ns":250}"#,
            ),
            (
                TelemetryEvent::TenantDeparted {
                    t_ns: 12,
                    tenant: 5,
                    heartbeats: 60,
                },
                r#"{"event":"tenant_departed","t_ns":12,"tenant":5,"heartbeats":60}"#,
            ),
            (
                TelemetryEvent::HeartbeatRate {
                    t_ns: 13,
                    tenant: 5,
                    rate_hz: 7.25,
                    satisfied: true,
                },
                r#"{"event":"heartbeat_rate","t_ns":13,"tenant":5,"rate_hz":7.25,"satisfied":true}"#,
            ),
            (
                // Board-scoped and permanent: cluster -1, until u64::MAX.
                TelemetryEvent::FaultInjected {
                    t_ns: 14,
                    fault: "board_fail".into(),
                    cluster: -1,
                    until_ns: u64::MAX,
                },
                r#"{"event":"fault_injected","t_ns":14,"fault":"board_fail","cluster":-1,"until_ns":18446744073709551615}"#,
            ),
            (
                TelemetryEvent::ClusterQuarantined {
                    t_ns: 15,
                    cluster: 1,
                    mode: "offline".into(),
                    until_ns: 9_000_000_000,
                },
                r#"{"event":"cluster_quarantined","t_ns":15,"cluster":1,"mode":"offline","until_ns":9000000000}"#,
            ),
            (
                TelemetryEvent::ClusterRestored {
                    t_ns: 16,
                    cluster: 1,
                },
                r#"{"event":"cluster_restored","t_ns":16,"cluster":1}"#,
            ),
            (
                TelemetryEvent::BoardFailed {
                    t_ns: 17,
                    tenants_in_flight: 4,
                },
                r#"{"event":"board_failed","t_ns":17,"tenants_in_flight":4}"#,
            ),
            (
                TelemetryEvent::DegradedCalibration {
                    t_ns: 18,
                    tenant: 6,
                    bench: "facesim".into(),
                    age_ns: 250_000_000,
                },
                r#"{"event":"degraded_calibration","t_ns":18,"tenant":6,"bench":"facesim","age_ns":250000000}"#,
            ),
            (
                TelemetryEvent::TenantFailedOver {
                    t_ns: 19,
                    tenant: 6,
                    from_board: 1,
                    to_board: 3,
                    attempt: 2,
                },
                r#"{"event":"tenant_failed_over","t_ns":19,"tenant":6,"from_board":1,"to_board":3,"attempt":2}"#,
            ),
        ]
    }

    #[test]
    fn every_reconstructable_event_round_trips() {
        // Every example encodes to its pinned bytes and parses back to
        // itself, alone and as one capture.
        let examples = examples();
        for (ev, json) in &examples {
            assert_eq!(ev.to_json(), *json);
            assert_eq!(TelemetryEvent::from_json(json).as_ref(), Ok(ev), "{json}");
        }
        let capture: String = examples
            .iter()
            .map(|(_, json)| format!("{json}\n"))
            .collect();
        let events: Vec<TelemetryEvent> = examples.into_iter().map(|(ev, _)| ev).collect();
        assert_eq!(parse_capture(&capture), Ok(events));
    }

    #[test]
    fn kinds_match_schema() {
        // A new event kind cannot ship without a pinned example, and
        // each example's wire keys are its schema row, in order.
        let examples = examples();
        for row in schema_text().lines().skip(1) {
            let (kind, fields) = row.split_once(": ").expect("kind: fields");
            let Some((ev, json)) = examples.iter().find(|(ev, _)| ev.kind() == kind) else {
                panic!("no pinned example for {kind}");
            };
            let fields: Vec<&str> = fields.split(',').collect();
            let keys: Vec<&str> = json
                .split('"')
                .collect::<Vec<_>>()
                .windows(2)
                .filter(|w| w[1].starts_with(':'))
                .map(|w| w[0])
                .collect();
            assert_eq!(keys[0], "event");
            assert_eq!(keys[1..], fields[..], "{json}");
            assert!(json.contains(&format!("\"t_ns\":{},", ev.t_ns())));
            assert_eq!(ev.tenant().is_some(), fields.contains(&"tenant"), "{kind}");
        }
    }

    #[test]
    fn unknown_kind_and_field_drift_are_errors() {
        let bad = [
            ("{\"event\":\"nope\",\"t_ns\":1}", "unknown event kind"),
            ("{\"event\":\"config_applied\",\"t_ns\":1}", "missing field"),
            (
                "{\"event\":\"config_applied\",\"t_ns\":1,\"version\":2,\"x\":3}",
                "extra content",
            ),
            (
                "{\"event\":\"config_applied\",\"version\":2,\"t_ns\":1}",
                "expected field",
            ),
            (
                "{\"event\":\"config_applied\",\"t_ns\":1,\"version\":\"2\"}",
                "expected u64",
            ),
            (
                "{\"event\":\"satisfaction\",\"t_ns\":1,\"tenant\":2,\"satisfied\":1}",
                "expected true or false",
            ),
            (
                "{\"event\":\"guard_changed\",\"t_ns\":1,\"target_guard\":inf}",
                "expected a number",
            ),
            (
                "{\"event\":\"cluster_power\",\"t_ns\":1,\"cluster\":-1,\"watts\":1.0}",
                "expected usize",
            ),
            (
                "{\"event\":\"config_applied\",\"t_ns\":1,\"version\":2} {}",
                "trailing content",
            ),
            ("{\"t_ns\":1,\"event\":\"config_applied\"}", "first field"),
            (
                "{\"event\":\"initial_state\",\"t_ns\":0,\"state\":\"9Q@1 MHz\"}",
                "invalid system state",
            ),
            (
                "{\"event\":\"config_rejected\",\"t_ns\":1,\"reason\":\"x",
                "unterminated",
            ),
        ];
        for (line, why) in bad {
            let err = TelemetryEvent::from_json(line).expect_err(line);
            assert!(err.message.contains(why), "{line}: {err}");
            assert_eq!(err.line, 0);
        }
    }

    #[test]
    fn rejected_placement_null_score_round_trips_to_infinity() {
        let ev = TelemetryEvent::Placement {
            t_ns: 1,
            tenant: 0,
            board: u64::MAX,
            score: f64::INFINITY,
        };
        assert_eq!(TelemetryEvent::from_json(&ev.to_json()), Ok(ev));
    }

    #[test]
    fn capture_errors_carry_line_numbers() {
        let text = "{\"event\":\"config_applied\",\"t_ns\":1,\"version\":2}\n\nnot json\n";
        let err = parse_capture(text).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().starts_with("line 3: "), "{err}");
    }

    #[test]
    fn parsed_strings_are_owned_and_escapes_round_trip() {
        let ev = TelemetryEvent::AdmissionSwapped {
            t_ns: 1,
            policy: "odd \"name\"\\with\ttabs\nand lines".into(),
        };
        let json = ev.to_json();
        let parsed = TelemetryEvent::from_json(&json).expect("parses");
        assert_eq!(parsed, ev);
        let TelemetryEvent::AdmissionSwapped { policy, .. } = parsed else {
            unreachable!()
        };
        assert!(
            matches!(policy, Cow::Owned(_)),
            "parsed strings own their bytes"
        );
    }

    #[test]
    fn whitespace_between_tokens_is_tolerated() {
        let line = " { \"event\" : \"config_applied\" , \"t_ns\" : 1 , \"version\" : 2 } ";
        assert_eq!(
            TelemetryEvent::from_json(line),
            Ok(TelemetryEvent::ConfigApplied {
                t_ns: 1,
                version: 2
            })
        );
    }

    #[test]
    fn tenant_accessor_covers_tenant_scoped_events() {
        let scoped = TelemetryEvent::HeartbeatRate {
            t_ns: 1,
            tenant: 9,
            rate_hz: 3.0,
            satisfied: false,
        };
        assert_eq!(scoped.tenant(), Some(9));
        let unscoped = TelemetryEvent::ConfigApplied {
            t_ns: 1,
            version: 2,
        };
        assert_eq!(unscoped.tenant(), None);
    }

    #[test]
    fn mut_refs_compose_as_sinks() {
        let mut inner = VecSink::new();
        {
            let mut as_dyn: &mut dyn TelemetrySink = &mut inner;
            as_dyn.emit(&TelemetryEvent::ConfigApplied {
                t_ns: 1,
                version: 1,
            });
            let reborrow = &mut as_dyn;
            reborrow.emit(&TelemetryEvent::ConfigApplied {
                t_ns: 2,
                version: 2,
            });
        }
        assert_eq!(inner.events.len(), 2);
    }

    #[test]
    fn rejected_placement_scores_serialize_as_null() {
        let ev = TelemetryEvent::Placement {
            t_ns: 5,
            tenant: 2,
            board: u64::MAX,
            score: f64::INFINITY,
        };
        assert!(ev.to_json().contains("\"score\":null"), "{}", ev.to_json());
    }

    #[test]
    fn float_fields_are_valid_json_numbers() {
        let ev = TelemetryEvent::ClusterPower {
            t_ns: 7,
            cluster: 2,
            watts: 1.0,
        };
        // `{:?}` keeps the decimal point: "1.0", not "1".
        assert_eq!(
            ev.to_json(),
            "{\"event\":\"cluster_power\",\"t_ns\":7,\"cluster\":2,\"watts\":1.0}"
        );
    }

    #[test]
    fn vec_sink_captures_in_order_and_null_sink_drops() {
        let a = TelemetryEvent::ConfigApplied {
            t_ns: 1,
            version: 1,
        };
        let b = TelemetryEvent::ConfigApplied {
            t_ns: 2,
            version: 2,
        };
        let mut vec = VecSink::new();
        vec.emit(&a);
        vec.emit(&b);
        assert_eq!(vec.events, vec![a.clone(), b]);
        let mut null = NullSink;
        null.emit(&a); // no observable effect, and no panic
    }

    #[test]
    fn schema_text_is_deterministic_and_covers_every_kind() {
        let text = schema_text();
        assert_eq!(text, schema_text());
        assert_eq!(text.lines().count(), 22, "header + 21 kinds");
        let mut kinds: Vec<&str> = text
            .lines()
            .skip(1)
            .map(|l| &l[..l.find(':').unwrap()])
            .collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), 21, "kinds are unique");
        // SearchStats flattens into its six wire fields.
        assert!(text.contains(
            "\ndecision: t_ns,app,config_version,explored,evaluated,best_rank_changes,wall_ns,nodes,truncated\n"
        ));
    }
}
