//! Deadline-aware graceful degradation and the per-query outcome
//! envelope.
//!
//! A batch may carry a **soft deadline**.  Workers check it for each
//! query of a run as they claim the run, before serving any of it: once
//! it has passed, remaining exact queries downgrade to
//! budgeted approximate queries ([`crate::ApproxSearcher`]) at the
//! batch's degrade fraction — the paper's §4 candidate-budget machinery
//! repurposed as a principled degraded mode — instead of making a late
//! batch later.  Every downgraded answer is flagged
//! [`Outcome::Degraded`] with the fraction actually served, so callers
//! can tell a full answer from a best-effort one.
//!
//! The deadline is *soft*: a query already admitted when it expires is
//! not interrupted (metric evaluations are not cancellable), so a batch
//! can overrun by at most one run of queries (eight at most) per
//! worker.

use crate::query::QueryStats;
use crate::serve::isolate::QueryError;
use crate::serve::{ApproxRequest, Request, Response};
use std::time::{Duration, Instant};

/// A batch's soft deadline: a fixed instant after which remaining
/// queries degrade.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// No deadline: queries never degrade.
    pub fn unlimited() -> Self {
        Self { at: None }
    }

    /// A deadline `soft` from now (`None` = unlimited).
    pub fn after(soft: Option<Duration>) -> Self {
        Self { at: soft.map(|d| Instant::now() + d) }
    }

    /// True iff the deadline exists and has passed.
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }
}

/// One query's request as the serving engine sees it: exact or
/// explicitly budgeted.
///
/// Exact requests run through [`crate::Searcher::knn`]/`range` — the
/// same code path as [`crate::serve::query_batch_parallel`], so the
/// zero-fault, no-deadline serve path is bit-identical to it.  Budgeted
/// requests run through the [`crate::ApproxSearcher`] surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServeRequest<D> {
    /// Exact k-NN or range query.
    Exact(Request<D>),
    /// Budgeted query at the client's requested fraction.
    Approx(ApproxRequest<D>),
}

impl<D: Copy> ServeRequest<D> {
    /// The scan fraction this request is asking for (exact = 1.0).
    pub fn requested_frac(&self) -> f64 {
        match self {
            ServeRequest::Exact(_) => 1.0,
            ServeRequest::Approx(r) => r.frac(),
        }
    }

    /// The degraded form of this request: the same query shape at
    /// `min(requested, degrade_frac)` — degradation never *increases* a
    /// client's budget.
    pub(crate) fn degraded(&self, degrade_frac: f64) -> ApproxRequest<D> {
        match *self {
            ServeRequest::Exact(Request::Knn { k }) => ApproxRequest::Knn { k, frac: degrade_frac },
            ServeRequest::Exact(Request::Range { radius }) => {
                ApproxRequest::Range { radius, frac: degrade_frac }
            }
            ServeRequest::Approx(ApproxRequest::Knn { k, frac }) => {
                ApproxRequest::Knn { k, frac: frac.min(degrade_frac) }
            }
            ServeRequest::Approx(ApproxRequest::Range { radius, frac }) => {
                ApproxRequest::Range { radius, frac: frac.min(degrade_frac) }
            }
        }
    }
}

/// One query's outcome in a resiliently served batch: the extended
/// response envelope of the serving subsystem.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome<D> {
    /// Served as requested (exact, or at the client's own budget).
    Ok(Response<D>),
    /// Served in degraded mode after the batch's soft deadline expired;
    /// `frac` is the scan fraction actually used.
    Degraded {
        /// The budgeted answer.
        response: Response<D>,
        /// The scan fraction actually served.
        frac: f64,
    },
    /// The query panicked; the failure is contained to this slot.
    Failed(QueryError),
}

impl<D> Outcome<D> {
    /// The answer, if the query produced one (ok or degraded).
    pub fn response(&self) -> Option<&Response<D>> {
        match self {
            Outcome::Ok(r) | Outcome::Degraded { response: r, .. } => Some(r),
            Outcome::Failed(_) => None,
        }
    }

    /// True iff served below the requested budget.
    pub fn is_degraded(&self) -> bool {
        matches!(self, Outcome::Degraded { .. })
    }

    /// True iff the query failed.
    pub fn is_failed(&self) -> bool {
        matches!(self, Outcome::Failed(_))
    }

    /// The error, if the query failed.
    pub fn error(&self) -> Option<&QueryError> {
        match self {
            Outcome::Failed(e) => Some(e),
            _ => None,
        }
    }
}

/// A resiliently served batch: one [`Outcome`] per query, in query
/// order, plus batch-level accounting.
#[derive(Debug, Clone)]
pub struct BatchReport<D> {
    /// Per-query outcomes, indexed like the input batch.
    pub outcomes: Vec<Outcome<D>>,
    /// Wall-clock time spent serving the batch.
    pub elapsed: Duration,
}

impl<D> BatchReport<D> {
    /// Number of queries that produced an answer (ok + degraded).
    pub fn served(&self) -> usize {
        self.outcomes.iter().filter(|o| o.response().is_some()).count()
    }

    /// Number of degraded answers.
    pub fn degraded(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_degraded()).count()
    }

    /// Number of failed queries.
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_failed()).count()
    }

    /// Sums the stats of every answered query.
    pub fn total_stats(&self) -> QueryStats {
        self.outcomes.iter().filter_map(|o| o.response()).map(|(_, s)| *s).sum()
    }

    /// The plain responses, provided every query was served as
    /// requested — `None` if anything degraded or failed.  This is the
    /// bridge to the strict batch API: with no faults and no deadline,
    /// the vector equals [`crate::serve::query_batch_parallel`]'s
    /// output bit for bit.
    pub fn ok_responses(&self) -> Option<Vec<Response<D>>>
    where
        D: Copy,
    {
        self.outcomes
            .iter()
            .map(|o| match o {
                Outcome::Ok(r) => Some(r.clone()),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Neighbor;

    fn resp(id: usize) -> Response<u32> {
        (vec![Neighbor { id, dist: 1u32 }], QueryStats::new(3))
    }

    #[test]
    fn unlimited_deadline_never_expires() {
        assert!(!Deadline::unlimited().expired());
        assert!(!Deadline::after(None).expired());
    }

    #[test]
    fn zero_deadline_expires_immediately() {
        assert!(Deadline::after(Some(Duration::ZERO)).expired());
    }

    #[test]
    fn degraded_request_never_raises_the_budget() {
        let exact: ServeRequest<u32> = ServeRequest::Exact(Request::Knn { k: 3 });
        assert_eq!(exact.requested_frac(), 1.0);
        assert_eq!(exact.degraded(0.25), ApproxRequest::Knn { k: 3, frac: 0.25 });

        let tight: ServeRequest<u32> = ServeRequest::Approx(ApproxRequest::Knn { k: 3, frac: 0.1 });
        assert_eq!(tight.degraded(0.25), ApproxRequest::Knn { k: 3, frac: 0.1 });

        let range: ServeRequest<u32> = ServeRequest::Exact(Request::Range { radius: 9 });
        assert_eq!(range.degraded(0.5), ApproxRequest::Range { radius: 9, frac: 0.5 });
    }

    #[test]
    fn report_counts_and_strict_bridge() {
        let report = BatchReport {
            outcomes: vec![
                Outcome::Ok(resp(0)),
                Outcome::Degraded { response: resp(1), frac: 0.25 },
                Outcome::Failed(QueryError { index: 2, message: "x".into() }),
            ],
            elapsed: Duration::ZERO,
        };
        assert_eq!(report.served(), 2);
        assert_eq!(report.degraded(), 1);
        assert_eq!(report.failed(), 1);
        assert_eq!(report.total_stats(), QueryStats::new(6));
        assert!(report.ok_responses().is_none(), "degraded/failed batches are not strict");

        let clean = BatchReport {
            outcomes: vec![Outcome::Ok(resp(0)), Outcome::Ok(resp(1))],
            elapsed: Duration::ZERO,
        };
        assert_eq!(clean.ok_responses().unwrap(), vec![resp(0), resp(1)]);
    }
}
