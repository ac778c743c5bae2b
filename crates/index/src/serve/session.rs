//! The persistent serving loop behind `distperm serve`.
//!
//! [`serve_session`] reads protocol lines ([`super::protocol`]) from any
//! `BufRead`, groups them into batches, and serves each batch through
//! the resilient engine ([`super::steal`]), writing one reply line per
//! event.  The loop is built not to die:
//!
//! - a **reader thread** parses input and never blocks on a full queue —
//!   **admission control** is a bounded batch queue, and a batch that
//!   arrives while the queue is full is *shed* with an explicit
//!   `shed <id> reason=queue-full` reply (visible backpressure) rather
//!   than queued without bound or silently dropped;
//! - malformed lines get `error line=<n> <diagnostic>` replies and the
//!   session keeps reading — garbage cannot kill the connection;
//! - query panics and deadline overruns are contained per query by the
//!   engine and reported as `failed`/degraded reply lines;
//! - EOF (even mid-batch) shuts the session down cleanly with a `bye`
//!   summary line.
//!
//! Reply grammar (one line per event, all counts in decimal):
//!
//! ```text
//! ready dim=<d> threads=<t> queue=<cap> max-batch=<m>
//! batch <id> queries=<n> depth=<queue depth> queued_us=<wait>
//! error line=<input line> <diagnostic>
//! ok <i> evals=<metric evals> <id>:<dist> ...
//! ok <i> degraded frac=<served frac> evals=<metric evals> <id>:<dist> ...
//! failed <i> <panic message>
//! done <id> ok=<a> degraded=<b> failed=<c> elapsed_us=<t>
//! shed <id> reason=queue-full|batch-too-large
//! bye batches=<served> queries=<answered> shed=<n> errors=<n>
//! ```

use crate::api::{ApproxSearcher, ProximityIndex};
use crate::serve::deadline::{Outcome, ServeRequest};
use crate::serve::isolate::FaultPlan;
use crate::serve::protocol::{Frame, LineParser, ProtocolError, QueryKind};
use crate::serve::steal::{serve_resilient, BatchOptions};
use crate::serve::{ApproxRequest, Request};
use dp_metric::F64Dist;
use std::borrow::Borrow;
use std::collections::VecDeque;
use std::io::{self, BufRead, Write};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Serving-loop policy: worker pool, admission bounds, and degradation
/// defaults (per-batch `begin` options may tighten, never widen, the
/// batch limits).
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Worker threads per batch.
    pub threads: usize,
    /// Batches admitted but not yet served before shedding starts.
    pub queue_capacity: usize,
    /// Maximum queries per batch; larger batches are shed.
    pub max_batch: usize,
    /// Default soft deadline for batches that don't set `deadline-ms=`.
    pub soft_deadline: Option<Duration>,
    /// Scan fraction served after the deadline expires (overridable per
    /// batch via `frac=` on `begin`).
    pub degrade_frac: f64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            queue_capacity: 4,
            max_batch: 4096,
            soft_deadline: None,
            degrade_frac: 0.25,
        }
    }
}

/// End-of-session accounting, also rendered as the `bye` line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionSummary {
    /// Batches served (admitted and answered).
    pub batches: usize,
    /// Queries answered as requested.
    pub ok: usize,
    /// Queries answered in degraded mode.
    pub degraded: usize,
    /// Queries that failed (contained panics).
    pub failed: usize,
    /// Batches shed by admission control.
    pub shed: usize,
    /// Malformed lines answered with `error` replies.
    pub parse_errors: usize,
}

impl SessionSummary {
    /// Queries that produced an answer.
    pub fn answered(&self) -> usize {
        self.ok + self.degraded
    }
}

/// Why a batch was shed instead of served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShedReason {
    QueueFull,
    BatchTooLarge,
}

impl ShedReason {
    fn as_str(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue-full",
            ShedReason::BatchTooLarge => "batch-too-large",
        }
    }
}

/// A fully read batch waiting in the admission queue.
struct PendingBatch {
    id: String,
    deadline_ms: Option<u64>,
    frac: Option<f64>,
    requests: Vec<ServeRequest<F64Dist>>,
    points: Vec<Vec<f64>>,
    /// Parse errors raised by lines inside this batch, replied with it.
    errors: Vec<(usize, ProtocolError)>,
    /// Queue depth at admission (for the `batch` reply line).
    depth: usize,
    enqueued: Instant,
}

/// Reader-to-server events, in input order.
enum Event {
    Batch(Box<PendingBatch>),
    LineError { line: usize, error: ProtocolError },
    Shed { id: String, reason: ShedReason },
    Eof { truncated: Option<(String, usize)> },
}

/// The bounded admission queue: reader pushes, serving loop pops.
///
/// Only admitted batches count against `capacity`; control events
/// (errors, sheds, EOF) always enqueue so the reply stream stays in
/// input order.  The reader never blocks — a full queue sheds.
struct Admission {
    state: Mutex<AdmissionState>,
    ready: Condvar,
}

struct AdmissionState {
    queue: VecDeque<Event>,
    admitted: usize,
}

impl Admission {
    fn new() -> Self {
        Self {
            state: Mutex::new(AdmissionState { queue: VecDeque::new(), admitted: 0 }),
            ready: Condvar::new(),
        }
    }

    /// Locks the admission state, recovering from poisoning: the state
    /// is a plain queue + counter, mutated only by non-panicking pushes
    /// and pops, so it is consistent even if a holder ever panicked —
    /// and a session that keeps serving beats one that dies on a
    /// bookkeeping lock.
    fn state(&self) -> MutexGuard<'_, AdmissionState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits `batch` unless the queue is at `capacity`; returns whether
    /// it was admitted (shedding is the caller's move).
    fn offer_batch(&self, capacity: usize, mut batch: Box<PendingBatch>) -> bool {
        let mut st = self.state();
        if st.admitted >= capacity.max(1) {
            return false;
        }
        st.admitted += 1;
        batch.depth = st.admitted;
        batch.enqueued = Instant::now();
        st.queue.push_back(Event::Batch(batch));
        self.ready.notify_one();
        true
    }

    /// Enqueues a control event (never shed, never counted).
    fn push_event(&self, event: Event) {
        let mut st = self.state();
        st.queue.push_back(event);
        self.ready.notify_one();
    }

    /// Blocks until an event is available and pops it.
    fn next(&self) -> Event {
        let mut st = self.state();
        loop {
            if let Some(event) = st.queue.pop_front() {
                return event;
            }
            // Condvar::wait re-acquires the same lock; recover from
            // poisoning for the same reason as `state()`.
            st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Releases one admission slot after a batch is served.
    fn batch_done(&self) {
        self.state().admitted -= 1;
    }
}

/// A batch being accumulated by the reader between `begin` and `end`.
struct OpenBatch {
    id: String,
    deadline_ms: Option<u64>,
    frac: Option<f64>,
    requests: Vec<ServeRequest<F64Dist>>,
    points: Vec<Vec<f64>>,
    errors: Vec<(usize, ProtocolError)>,
    /// Total query lines seen, including ones dropped after the batch
    /// went over `max_batch`.
    query_lines: usize,
}

impl OpenBatch {
    fn new(id: String, deadline_ms: Option<u64>, frac: Option<f64>) -> Self {
        Self {
            id,
            deadline_ms,
            frac,
            requests: Vec::new(),
            points: Vec::new(),
            errors: Vec::new(),
            query_lines: 0,
        }
    }
}

fn request_of_frame(kind: QueryKind, frac: Option<f64>) -> ServeRequest<F64Dist> {
    match (kind, frac) {
        (QueryKind::Knn { k }, None) => ServeRequest::Exact(Request::Knn { k }),
        (QueryKind::Knn { k }, Some(frac)) => ServeRequest::Approx(ApproxRequest::Knn { k, frac }),
        (QueryKind::Range { radius }, None) => {
            ServeRequest::Exact(Request::Range { radius: F64Dist::new(radius) })
        }
        (QueryKind::Range { radius }, Some(frac)) => {
            ServeRequest::Approx(ApproxRequest::Range { radius: F64Dist::new(radius), frac })
        }
    }
}

/// The reader side: parses lines, accumulates batches, and feeds the
/// admission queue.  Runs on its own thread so slow serving backs up
/// into explicit sheds, not into the input pipe.
fn read_input<R: BufRead>(
    input: R,
    parser: &LineParser,
    config: &SessionConfig,
    admission: &Admission,
) {
    let mut open: Option<OpenBatch> = None;
    for (lineno, line) in input.lines().enumerate() {
        let lineno = lineno + 1;
        let line = match line {
            Ok(line) => line,
            // Undecodable input: report and keep reading — the protocol
            // is line-delimited, so the next line resynchronises.
            Err(e) => {
                let error = ProtocolError::BadNumber { what: "input line", token: e.to_string() };
                match &mut open {
                    Some(batch) => batch.errors.push((lineno, error)),
                    None => admission.push_event(Event::LineError { line: lineno, error }),
                }
                continue;
            }
        };
        let frame = parser.parse(&line);
        match (frame, &mut open) {
            (Ok(Frame::Blank), _) => {}
            (Ok(Frame::Begin { id, deadline_ms, frac }), slot @ None) => {
                *slot = Some(OpenBatch::new(id, deadline_ms, frac));
            }
            (Ok(Frame::Begin { .. }), Some(batch)) => {
                batch.errors.push((lineno, ProtocolError::NestedBegin));
            }
            (Ok(Frame::Query { kind, frac, point }), Some(batch)) => {
                batch.query_lines += 1;
                if batch.query_lines <= config.max_batch {
                    batch.requests.push(request_of_frame(kind, frac));
                    batch.points.push(point);
                } else if batch.query_lines == config.max_batch + 1 {
                    // Over the limit: the batch will be shed at `end`;
                    // stop buffering points so a hostile batch cannot
                    // grow memory without bound.
                    batch.requests.clear();
                    batch.points.clear();
                }
            }
            (Ok(Frame::Query { .. }), None) => {
                admission.push_event(Event::LineError {
                    line: lineno,
                    error: ProtocolError::StrayQuery,
                });
            }
            (Ok(Frame::End), slot @ Some(_)) => {
                // dplint: allow(panic-boundary, reason = "the arm pattern just matched
                // Some on this very slot; take() observing None is unreachable")
                let batch = slot.take().expect("matched Some");
                if batch.query_lines > config.max_batch {
                    admission.push_event(Event::Shed {
                        id: batch.id,
                        reason: ShedReason::BatchTooLarge,
                    });
                    continue;
                }
                let pending = Box::new(PendingBatch {
                    id: batch.id,
                    deadline_ms: batch.deadline_ms,
                    frac: batch.frac,
                    requests: batch.requests,
                    points: batch.points,
                    errors: batch.errors,
                    depth: 0,
                    enqueued: Instant::now(),
                });
                let id = pending.id.clone();
                if !admission.offer_batch(config.queue_capacity, pending) {
                    admission.push_event(Event::Shed { id, reason: ShedReason::QueueFull });
                }
            }
            (Ok(Frame::End), None) => {
                admission
                    .push_event(Event::LineError { line: lineno, error: ProtocolError::StrayEnd });
            }
            (Err(error), Some(batch)) => batch.errors.push((lineno, error)),
            (Err(error), None) => admission.push_event(Event::LineError { line: lineno, error }),
        }
    }
    let truncated = open.take().map(|b| (b.id, b.query_lines));
    admission.push_event(Event::Eof { truncated });
}

/// Runs a serving session to EOF: reads protocol lines from `input`,
/// serves batches over `index`, writes reply lines to `out`.
///
/// The returned summary matches the final `bye` line.  The only errors
/// that escape are I/O errors on `out` — input garbage, query panics,
/// deadline overruns, and overload all stay inside the session as reply
/// lines.  `faults` injects test-only failures into every batch
/// ([`FaultPlan::none`] in production).
pub fn serve_session<'i, P, I, R, W>(
    index: &'i I,
    dim: usize,
    input: R,
    out: &mut W,
    config: &SessionConfig,
    faults: &FaultPlan,
) -> io::Result<SessionSummary>
where
    P: ?Sized + Sync,
    Vec<f64>: Borrow<P>,
    I: ProximityIndex<P, Dist = F64Dist>,
    I::Searcher<'i>: ApproxSearcher<P>,
    R: BufRead + Send,
    W: Write + ?Sized,
{
    let parser = LineParser::new(dim);
    let admission = Admission::new();
    writeln!(
        out,
        "ready dim={dim} threads={} queue={} max-batch={}",
        config.threads, config.queue_capacity, config.max_batch
    )?;
    out.flush()?;

    std::thread::scope(|scope| {
        scope.spawn(|| read_input(input, &parser, config, &admission));
        serve_events(index, out, config, faults, &admission)
    })
}

/// The single-writer serving loop: pops events, serves batches, writes
/// replies in event order.
fn serve_events<'i, P, I, W>(
    index: &'i I,
    out: &mut W,
    config: &SessionConfig,
    faults: &FaultPlan,
    admission: &Admission,
) -> io::Result<SessionSummary>
where
    P: ?Sized + Sync,
    Vec<f64>: Borrow<P>,
    I: ProximityIndex<P, Dist = F64Dist>,
    I::Searcher<'i>: ApproxSearcher<P>,
    W: Write + ?Sized,
{
    let mut summary = SessionSummary::default();
    loop {
        match admission.next() {
            Event::Batch(batch) => {
                let queued = batch.enqueued.elapsed();
                writeln!(
                    out,
                    "batch {} queries={} depth={} queued_us={}",
                    batch.id,
                    batch.points.len(),
                    batch.depth,
                    queued.as_micros()
                )?;
                for (line, error) in &batch.errors {
                    summary.parse_errors += 1;
                    writeln!(out, "error line={line} {error}")?;
                }
                let options = BatchOptions {
                    threads: config.threads,
                    soft_deadline: batch
                        .deadline_ms
                        .map(Duration::from_millis)
                        .or(config.soft_deadline),
                    degrade_frac: batch.frac.unwrap_or(config.degrade_frac),
                };
                let report =
                    serve_resilient(index, &batch.points, |i| batch.requests[i], &options, faults);
                admission.batch_done();
                for (i, outcome) in report.outcomes.iter().enumerate() {
                    match outcome {
                        Outcome::Ok((neighbors, stats)) => {
                            summary.ok += 1;
                            write!(out, "ok {i} evals={}", stats.metric_evals)?;
                            for n in neighbors {
                                write!(out, " {}:{}", n.id, n.dist)?;
                            }
                            writeln!(out)?;
                        }
                        Outcome::Degraded { response: (neighbors, stats), frac } => {
                            summary.degraded += 1;
                            write!(
                                out,
                                "ok {i} degraded frac={frac} evals={}",
                                stats.metric_evals
                            )?;
                            for n in neighbors {
                                write!(out, " {}:{}", n.id, n.dist)?;
                            }
                            writeln!(out)?;
                        }
                        Outcome::Failed(err) => {
                            summary.failed += 1;
                            writeln!(out, "failed {i} {}", err.message)?;
                        }
                    }
                }
                summary.batches += 1;
                writeln!(
                    out,
                    "done {} ok={} degraded={} failed={} elapsed_us={}",
                    batch.id,
                    report.outcomes.len() - report.degraded() - report.failed(),
                    report.degraded(),
                    report.failed(),
                    report.elapsed.as_micros()
                )?;
                out.flush()?;
            }
            Event::LineError { line, error } => {
                summary.parse_errors += 1;
                writeln!(out, "error line={line} {error}")?;
                out.flush()?;
            }
            Event::Shed { id, reason } => {
                summary.shed += 1;
                writeln!(out, "shed {id} reason={}", reason.as_str())?;
                out.flush()?;
            }
            Event::Eof { truncated } => {
                if let Some((id, queued)) = truncated {
                    summary.parse_errors += 1;
                    let error = ProtocolError::TruncatedBatch { id, queued };
                    writeln!(out, "error line=eof {error}")?;
                }
                writeln!(
                    out,
                    "bye batches={} queries={} shed={} errors={}",
                    summary.batches,
                    summary.answered() + summary.failed,
                    summary.shed,
                    summary.parse_errors
                )?;
                out.flush()?;
                return Ok(summary);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laesa::PivotSelection;
    use crate::DistPermIndex;
    use dp_metric::L2;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn small_index() -> DistPermIndex<Vec<f64>, L2> {
        let mut rng = StdRng::seed_from_u64(42);
        let pts: Vec<Vec<f64>> =
            (0..100).map(|_| (0..2).map(|_| rng.random::<f64>()).collect()).collect();
        DistPermIndex::build(L2, pts, 5, PivotSelection::MaxMin)
    }

    fn run(input: &str, config: &SessionConfig) -> (String, SessionSummary) {
        let index = small_index();
        let mut out = Vec::new();
        let summary = serve_session::<Vec<f64>, _, _, _>(
            &index,
            2,
            input.as_bytes(),
            &mut out,
            config,
            &FaultPlan::none(),
        )
        .expect("in-memory io");
        (String::from_utf8(out).expect("utf8 replies"), summary)
    }

    #[test]
    fn clean_batch_round_trip() {
        let input = "begin b1\nknn 2 0.5 0.5\nrange 0.4 0.1 0.9\nend\n";
        let (replies, summary) = run(input, &SessionConfig::default());
        assert!(replies.starts_with("ready dim=2 "), "{replies}");
        assert!(replies.contains("batch b1 queries=2 depth=1"), "{replies}");
        assert!(replies.contains("\nok 0 evals="), "{replies}");
        assert!(replies.contains("\nok 1 evals="), "{replies}");
        assert!(replies.contains("done b1 ok=2 degraded=0 failed=0"), "{replies}");
        assert!(replies.contains("bye batches=1 queries=2 shed=0 errors=0"), "{replies}");
        assert_eq!(summary.ok, 2);
        assert_eq!(summary.batches, 1);
    }

    #[test]
    fn garbage_lines_get_error_replies_and_session_survives() {
        let input = "wat\nknn 1 0.5 0.5\nbegin b1\nknn zero 1 2\nknn 1 0.3 0.3\nend\nend\n";
        let (replies, summary) = run(input, &SessionConfig::default());
        // Loose garbage, stray query, in-batch parse error, stray end —
        // all replied, and the valid query still serves.
        assert!(replies.contains("error line=1 unknown verb"), "{replies}");
        assert!(replies.contains("error line=2 query outside begin/end"), "{replies}");
        assert!(replies.contains("error line=4 bad knn k"), "{replies}");
        assert!(replies.contains("error line=7 end without an open batch"), "{replies}");
        assert!(replies.contains("done b1 ok=1"), "{replies}");
        assert!(replies.ends_with("bye batches=1 queries=1 shed=0 errors=4\n"), "{replies}");
        assert_eq!(summary.parse_errors, 4);
        assert_eq!(summary.ok, 1);
    }

    #[test]
    fn truncated_batch_reports_and_says_bye() {
        let input = "begin b1\nknn 1 0.5 0.5\n";
        let (replies, summary) = run(input, &SessionConfig::default());
        assert!(replies.contains("error line=eof input ended inside batch \"b1\""), "{replies}");
        assert!(replies.contains("bye batches=0 queries=0"), "{replies}");
        assert_eq!(summary.batches, 0);
        assert_eq!(summary.parse_errors, 1);
    }

    #[test]
    fn oversized_batch_is_shed() {
        let config = SessionConfig { max_batch: 2, ..SessionConfig::default() };
        let input =
            "begin big\nknn 1 0 0\nknn 1 0 0\nknn 1 0 0\nend\nbegin ok1\nknn 1 0.2 0.2\nend\n";
        let (replies, summary) = run(input, &config);
        assert!(replies.contains("shed big reason=batch-too-large"), "{replies}");
        assert!(replies.contains("done ok1 ok=1"), "{replies}");
        assert_eq!(summary.shed, 1);
        assert_eq!(summary.batches, 1);
    }

    #[test]
    fn per_batch_deadline_degrades() {
        let input = "begin slow deadline-ms=0 frac=0.2\nknn 2 0.5 0.5\nend\n";
        let (replies, summary) = run(input, &SessionConfig::default());
        assert!(replies.contains("ok 0 degraded frac=0.2 evals="), "{replies}");
        assert!(replies.contains("done slow ok=0 degraded=1 failed=0"), "{replies}");
        assert_eq!(summary.degraded, 1);
    }

    #[test]
    fn injected_fault_is_contained() {
        let index = small_index();
        let mut out = Vec::new();
        let input = "begin f\nknn 1 0.1 0.1\nknn 1 0.2 0.2\nend\n";
        let summary = serve_session::<Vec<f64>, _, _, _>(
            &index,
            2,
            input.as_bytes(),
            &mut out,
            &SessionConfig::default(),
            &FaultPlan::none().panic_on(1),
        )
        .expect("in-memory io");
        let replies = String::from_utf8(out).expect("utf8");
        assert!(replies.contains("\nok 0 evals="), "{replies}");
        assert!(replies.contains("failed 1 injected fault at query 1"), "{replies}");
        assert!(replies.contains("done f ok=1 degraded=0 failed=1"), "{replies}");
        assert!(replies.contains("bye batches=1 queries=2"), "{replies}");
        assert_eq!(summary.failed, 1);
        assert_eq!(summary.ok, 1);
    }

    #[test]
    fn explicit_budgeted_query_stays_at_client_budget() {
        let input = "begin b\nknn 2 frac=0.3 0.5 0.5\nend\n";
        let (replies, summary) = run(input, &SessionConfig::default());
        // A client budget is not deadline degradation: the reply is a
        // plain ok.
        assert!(replies.contains("done b ok=1 degraded=0 failed=0"), "{replies}");
        assert_eq!(summary.ok, 1);
    }
}
