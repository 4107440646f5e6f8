//! The benchmark's tracing sink. It records the benchmark's own spans
//! around each public call plus the events the library already emits
//! (`IterSpan`, `AdvanceEvent`, `DirectionEvent`, `FilterEvent`,
//! `RequestEvent`), keeps them in memory, and writes them out as JSON lines
//! when the run ends.

use std::cell::Cell;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use essentials_core::obs::{
    AdvanceEvent, DirectionEvent, FilterEvent, IterSpan, ObsSink, OpKind, RequestEvent,
};

thread_local! {
    /// Benchmark request id of the call the current thread is making, so
    /// library events can be joined to the benchmark span that caused them.
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// Marks the calling thread as working on benchmark request `id`.
pub fn set_current(id: u64) {
    CURRENT.with(|c| c.set(id));
}

#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// A benchmark span around one public call.
    Span {
        name: &'static str,
        parent: u64,
        end_ns: u64,
    },
    Iter {
        wall_ns: u64,
        frontier_in: usize,
    },
    Advance {
        op: OpKind,
        inspected: u64,
        admitted: u64,
        dedup: u64,
        /// Largest per-worker push count over the mean (1 = balanced);
        /// 0 when the operator reported no per-worker tallies.
        skew: f64,
        /// Vertices pushed over all workers.
        pushed: u64,
    },
    Direction {
        pull: bool,
    },
    Filter {
        input: usize,
        output: usize,
    },
    Request {
        kind: &'static str,
        outcome: &'static str,
        queue_ns: u64,
        service_ns: u64,
    },
}

#[derive(Clone, Copy, Debug)]
pub struct Record {
    /// Nanoseconds since the sink was created (span start for spans).
    pub t_ns: u64,
    /// Benchmark request id the record belongs to (0: none).
    pub id: u64,
    pub kind: Kind,
}

pub struct BenchSink {
    epoch: Instant,
    records: Mutex<Vec<Record>>,
}

impl BenchSink {
    pub fn new() -> Self {
        BenchSink {
            epoch: Instant::now(),
            records: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, kind: Kind) {
        let rec = Record {
            t_ns: self.ns(Instant::now()),
            id: CURRENT.with(Cell::get),
            kind,
        };
        self.records.lock().expect("trace lock poisoned").push(rec);
    }

    /// Records a benchmark span `[start, end]` for request `id`.
    pub fn span(&self, name: &'static str, id: u64, parent: u64, start: Instant, end: Instant) {
        let rec = Record {
            t_ns: self.ns(start),
            id,
            kind: Kind::Span {
                name,
                parent,
                end_ns: self.ns(end),
            },
        };
        self.records.lock().expect("trace lock poisoned").push(rec);
    }

    pub fn len(&self) -> usize {
        self.records.lock().expect("trace lock poisoned").len()
    }

    /// Copies of the records appended since index `from`.
    pub fn since(&self, from: usize) -> Vec<Record> {
        self.records.lock().expect("trace lock poisoned")[from..].to_vec()
    }

    /// Writes every record as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let records = self.records.lock().expect("trace lock poisoned");
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for r in records.iter() {
            write!(w, "{{\"t_ns\":{},\"id\":{},", r.t_ns, r.id)?;
            match r.kind {
                Kind::Span {
                    name,
                    parent,
                    end_ns,
                } => writeln!(
                    w,
                    "\"ev\":\"span\",\"name\":\"{name}\",\"parent\":{parent},\"end_ns\":{end_ns}}}"
                )?,
                Kind::Iter {
                    wall_ns,
                    frontier_in,
                } => writeln!(
                    w,
                    "\"ev\":\"iter\",\"wall_ns\":{wall_ns},\"frontier_in\":{frontier_in}}}"
                )?,
                Kind::Advance {
                    op,
                    inspected,
                    admitted,
                    dedup,
                    skew,
                    pushed,
                } => writeln!(
                    w,
                    "\"ev\":\"advance\",\"op\":\"{}\",\"inspected\":{inspected},\"admitted\":{admitted},\"dedup\":{dedup},\"skew\":{skew},\"pushed\":{pushed}}}",
                    op.name()
                )?,
                Kind::Direction { pull } => {
                    writeln!(w, "\"ev\":\"direction\",\"pull\":{pull}}}")?
                }
                Kind::Filter { input, output } => writeln!(
                    w,
                    "\"ev\":\"filter\",\"input\":{input},\"output\":{output}}}"
                )?,
                Kind::Request {
                    kind,
                    outcome,
                    queue_ns,
                    service_ns,
                } => writeln!(
                    w,
                    "\"ev\":\"request\",\"kind\":\"{kind}\",\"outcome\":\"{outcome}\",\"queue_ns\":{queue_ns},\"service_ns\":{service_ns}}}"
                )?,
            }
        }
        w.flush()
    }
}

impl ObsSink for BenchSink {
    fn on_advance(&self, ev: &AdvanceEvent<'_>) {
        let total: usize = ev.per_worker.iter().sum();
        let max = ev.per_worker.iter().copied().max().unwrap_or(0);
        let skew = if total == 0 {
            0.0
        } else {
            max as f64 * ev.per_worker.len() as f64 / total as f64
        };
        self.push(Kind::Advance {
            op: ev.kind,
            inspected: ev.edges_inspected,
            admitted: ev.admitted,
            dedup: ev.dedup_hits,
            skew,
            pushed: total as u64,
        });
    }

    fn on_filter(&self, ev: &FilterEvent) {
        self.push(Kind::Filter {
            input: ev.input_len,
            output: ev.output_len,
        });
    }

    fn on_iteration(&self, ev: &IterSpan) {
        self.push(Kind::Iter {
            wall_ns: ev.wall_ns,
            frontier_in: ev.frontier_in,
        });
    }

    fn on_direction(&self, ev: &DirectionEvent) {
        self.push(Kind::Direction { pull: ev.pull });
    }

    fn on_request(&self, ev: &RequestEvent) {
        self.push(Kind::Request {
            kind: ev.kind,
            outcome: ev.outcome,
            queue_ns: ev.queue_ns,
            service_ns: ev.service_ns,
        });
    }
}

/// True for the operators that traverse in the push direction.
pub fn is_push(op: OpKind) -> bool {
    matches!(
        op,
        OpKind::Advance | OpKind::AdvanceUnique | OpKind::AdvanceDense | OpKind::AdvanceEdges
    )
}
