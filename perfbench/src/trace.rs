//! In-memory span recorder and self-time ledger.
//!
//! A span is one timed call into a layer: its name (`layer.call`), host
//! start and end in nanoseconds since the recorder's epoch, and the span
//! that caused it. Spans are buffered per thread and written out once
//! the run ends, so recording costs two clock reads and a `Vec` push per
//! call. A layer's self time is the
//! duration of its spans minus the part of each covered by child spans.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the causing span, 0 for a root.
    pub parent: u64,
    /// `layer.call` name; the layer is the part before the first dot.
    pub name: &'static str,
    /// Host time since the recorder epoch (ns).
    pub start_ns: u64,
    /// Host time since the recorder epoch (ns).
    pub end_ns: u64,
}

impl Span {
    /// Wall duration (ns).
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static DONE: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
}

/// Host nanoseconds since the process-wide recorder epoch.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// An open span; it closes and is recorded when dropped.
#[must_use = "a span measures until it is dropped"]
#[derive(Debug)]
pub struct Guard {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

impl Guard {
    /// This span's id, for parenting spans opened on other threads.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        OPEN.with(|o| o.borrow_mut().pop());
        DONE.with(|d| {
            d.borrow_mut().push(Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
            })
        });
    }
}

/// Opens a span whose parent is the innermost open span on this thread.
pub fn enter(name: &'static str) -> Guard {
    let parent = OPEN.with(|o| o.borrow().last().copied().unwrap_or(0));
    enter_under(name, parent)
}

/// Opens a span under an explicit parent (a span open on another
/// thread, for work fanned out to a worker pool).
pub fn enter_under(name: &'static str, parent: u64) -> Guard {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    OPEN.with(|o| o.borrow_mut().push(id));
    Guard {
        id,
        parent,
        name,
        start_ns: now_ns(),
    }
}

/// Takes every span this thread finished so far.
pub fn take_thread_spans() -> Vec<Span> {
    DONE.with(|d| std::mem::take(&mut *d.borrow_mut()))
}

/// Self time per span name (ns): each span's duration minus the union
/// of its children's intervals clipped to it. Children that ran in
/// parallel on other threads are covered once, not once per thread.
pub fn self_ns_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map(|c| covered_ns(c, s.start_ns, s.end_ns))
            .unwrap_or(0);
        *out.entry(s.name).or_default() += s.dur_ns() - covered;
    }
    out
}

/// Length of the union of `intervals` inside `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Durations (ns) of every span called `name`, in recording order.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect()
}

/// Writes `spans` as JSON lines, one object per span tagged with the
/// workload.
pub fn write_jsonl(path: &std::path::Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"workload\":\"{workload}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "root", 0, 100),
            // Two overlapping children (parallel workers) cover 10..70.
            span(2, 1, "pool.worker", 10, 60),
            span(3, 1, "pool.worker", 20, 70),
            span(4, 2, "scenario.shard", 15, 45),
        ];
        let s = self_ns_by_name(&spans);
        assert_eq!(s["root"], 40);
        assert_eq!(s["pool.worker"], (50 - 30) + 50);
        assert_eq!(s["scenario.shard"], 30);
    }

    #[test]
    fn guards_nest_on_one_thread() {
        {
            let outer = enter("outer");
            {
                let _inner = enter("inner");
            }
            drop(outer);
        }
        let spans = take_thread_spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
    }
}
