//! Build-by-name: [`IndexSpec`] parsing and the [`AnyIndex`] dispatcher.
//!
//! Experiment harnesses and the CLI want to construct "any index type"
//! from a string like `laesa:16` or `distperm:12` and then serve queries
//! through one uniform surface.  [`IndexSpec`] is the parsed name;
//! [`AnyIndex`] is the built product — an enum over the generic index
//! types that itself implements [`ProximityIndex`] (with an enum
//! searcher), so one generic loop covers every variant and the per-type
//! match statements that used to live in `search_eval`, the `indexes`
//! bench and the CLI collapse into a single `AnyIndex::build` call.
//!
//! Two index types cannot live in the generic enum and are handled by
//! their callers directly: [`crate::BkTree`] requires an integer-valued
//! metric (`Dist = u32`), and [`crate::FlatDistPermIndex`] requires flat
//! [`dp_datasets::VectorSet`] storage.  [`IndexSpec`] still parses both
//! so front ends can dispatch on the spec.

use crate::api::{ApproxSearcher, ProximityIndex, Searcher};
use crate::laesa::PivotSelection;
use crate::query::{Neighbor, QueryStats};
use crate::{
    Aesa, AesaSearcher, DistPermIndex, DistPermSearcher, GhSearcher, GhTree, IAesa, IAesaSearcher,
    Laesa, LaesaSearcher, LinearScan, LinearSearcher, PrefixPermIndex, PrefixPermSearcher,
    VpSearcher, VpTree,
};
use dp_metric::Metric;
use dp_permutation::MAX_K;
use std::fmt;

/// Default site/pivot count for specs given without an explicit `:k`.
pub const DEFAULT_K: usize = 12;

/// A parsed index specification: which structure to build, with its
/// structural parameters (site counts, prefix lengths).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexSpec {
    /// `linear` — the n-evaluation baseline.
    Linear,
    /// `aesa` — full-matrix AESA.
    Aesa,
    /// `laesa:<k>` — k-pivot LAESA.
    Laesa {
        /// Pivot count.
        k: usize,
    },
    /// `iaesa:<k>` — permutation-ordered AESA with k sites.
    IAesa {
        /// Site count.
        k: usize,
    },
    /// `distperm:<k>` — the paper's distance-permutation index.
    DistPerm {
        /// Site count.
        k: usize,
    },
    /// `prefixperm:<k>:<l>` — length-l permutation prefixes over k sites.
    PrefixPerm {
        /// Site count.
        k: usize,
        /// Stored prefix length (≤ k).
        prefix_len: usize,
    },
    /// `flatperm:<k>` — distperm over flat vector storage
    /// ([`crate::FlatDistPermIndex`]; vector databases only).
    FlatDistPerm {
        /// Site count.
        k: usize,
    },
    /// `vptree` — vantage-point tree.
    VpTree,
    /// `ghtree` — generalised-hyperplane tree.
    GhTree,
    /// `bktree` — Burkhard–Keller tree (integer metrics only).
    BkTree,
}

/// Error from [`IndexSpec::parse`] or [`AnyIndex::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(String);

impl SpecError {
    fn new(msg: impl Into<String>) -> Self {
        SpecError(msg.into())
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

fn parse_param(spec: &str, name: &str, value: &str) -> Result<usize, SpecError> {
    value
        .parse::<usize>()
        .map_err(|e| SpecError::new(format!("bad {name} in index spec `{spec}`: {e}")))
}

impl IndexSpec {
    /// Parses a spec string: a structure name, optionally followed by
    /// `:`-separated parameters.
    ///
    /// Accepted forms: `linear`, `aesa`, `laesa[:k]`, `iaesa[:k]`,
    /// `distperm[:k]`, `prefixperm[:k[:l]]`, `flatperm[:k]`, `vptree`,
    /// `ghtree`, `bktree`.  Omitted `k` defaults to [`DEFAULT_K`]; an
    /// omitted prefix length defaults to `k / 2` (rounded up).
    pub fn parse(spec: &str) -> Result<IndexSpec, SpecError> {
        let mut parts = spec.split(':');
        let name = parts.next().unwrap_or_default();
        let params: Vec<&str> = parts.collect();
        let arity = |max: usize| {
            if params.len() > max {
                Err(SpecError::new(format!("too many parameters in index spec `{spec}`")))
            } else {
                Ok(())
            }
        };
        let k_param = |idx: usize| -> Result<usize, SpecError> {
            match params.get(idx) {
                None => Ok(DEFAULT_K),
                Some(v) => parse_param(spec, "site count", v),
            }
        };
        let parsed = match name {
            "linear" | "scan" => {
                arity(0)?;
                IndexSpec::Linear
            }
            "aesa" => {
                arity(0)?;
                IndexSpec::Aesa
            }
            "laesa" => {
                arity(1)?;
                IndexSpec::Laesa { k: k_param(0)? }
            }
            "iaesa" => {
                arity(1)?;
                IndexSpec::IAesa { k: k_param(0)? }
            }
            "distperm" => {
                arity(1)?;
                IndexSpec::DistPerm { k: k_param(0)? }
            }
            "prefixperm" => {
                arity(2)?;
                let k = k_param(0)?;
                let prefix_len = match params.get(1) {
                    None => k.div_ceil(2),
                    Some(v) => parse_param(spec, "prefix length", v)?,
                };
                IndexSpec::PrefixPerm { k, prefix_len }
            }
            "flatperm" => {
                arity(1)?;
                IndexSpec::FlatDistPerm { k: k_param(0)? }
            }
            "vptree" | "vp" => {
                arity(0)?;
                IndexSpec::VpTree
            }
            "ghtree" | "gh" => {
                arity(0)?;
                IndexSpec::GhTree
            }
            "bktree" | "bk" => {
                arity(0)?;
                IndexSpec::BkTree
            }
            other => {
                return Err(SpecError::new(format!(
                    "unknown index type `{other}` (want linear, aesa, laesa[:k], iaesa[:k], \
                     distperm[:k], prefixperm[:k[:l]], flatperm[:k], vptree, ghtree, bktree)"
                )))
            }
        };
        parsed.validate(spec)?;
        Ok(parsed)
    }

    fn validate(self, spec: &str) -> Result<(), SpecError> {
        let perm_k = match self {
            IndexSpec::IAesa { k }
            | IndexSpec::DistPerm { k }
            | IndexSpec::FlatDistPerm { k }
            | IndexSpec::PrefixPerm { k, .. } => Some(k),
            _ => None,
        };
        if let Some(k) = perm_k {
            if k > MAX_K {
                return Err(SpecError::new(format!(
                    "site count {k} exceeds MAX_K = {MAX_K} in index spec `{spec}`"
                )));
            }
        }
        if let IndexSpec::PrefixPerm { k, prefix_len } = self {
            if prefix_len > k {
                return Err(SpecError::new(format!(
                    "prefix length {prefix_len} exceeds site count {k} in index spec `{spec}`"
                )));
            }
        }
        Ok(())
    }

    /// Canonical display name (`laesa:16`, `prefixperm:12:6`, …).
    pub fn name(&self) -> String {
        match *self {
            IndexSpec::Linear => "linear".into(),
            IndexSpec::Aesa => "aesa".into(),
            IndexSpec::Laesa { k } => format!("laesa:{k}"),
            IndexSpec::IAesa { k } => format!("iaesa:{k}"),
            IndexSpec::DistPerm { k } => format!("distperm:{k}"),
            IndexSpec::PrefixPerm { k, prefix_len } => format!("prefixperm:{k}:{prefix_len}"),
            IndexSpec::FlatDistPerm { k } => format!("flatperm:{k}"),
            IndexSpec::VpTree => "vptree".into(),
            IndexSpec::GhTree => "ghtree".into(),
            IndexSpec::BkTree => "bktree".into(),
        }
    }

    /// Number of pivots/sites this spec asks for, if the structure uses
    /// any (for validating against the database size).
    pub fn pivot_count(&self) -> Option<usize> {
        match *self {
            IndexSpec::Laesa { k }
            | IndexSpec::IAesa { k }
            | IndexSpec::DistPerm { k }
            | IndexSpec::FlatDistPerm { k }
            | IndexSpec::PrefixPerm { k, .. } => Some(k),
            _ => None,
        }
    }

    /// True iff the built index honours a query-time scan budget
    /// (`frac < 1` changes its answers).
    pub fn supports_budget(&self) -> bool {
        matches!(
            self,
            IndexSpec::DistPerm { .. }
                | IndexSpec::PrefixPerm { .. }
                | IndexSpec::FlatDistPerm { .. }
        )
    }
}

impl fmt::Display for IndexSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// Any generic proximity index, built from an [`IndexSpec`].
///
/// Covers the eight structures that work over an owned `Vec<P>` with an
/// arbitrary metric.  Implements [`ProximityIndex`] by dispatching to
/// the wrapped index, so generic serving and evaluation code does not
/// care which structure it got.
#[derive(Debug, Clone)]
pub enum AnyIndex<P, M: Metric<P>> {
    /// Linear scan.
    Linear(LinearScan<P, M>),
    /// AESA.
    Aesa(Aesa<P, M>),
    /// LAESA.
    Laesa(Laesa<P, M>),
    /// iAESA.
    IAesa(IAesa<P, M>),
    /// Distance-permutation index.
    DistPerm(DistPermIndex<P, M>),
    /// Prefix-permutation index.
    PrefixPerm(PrefixPermIndex<P, M>),
    /// Vantage-point tree.
    VpTree(VpTree<P, M>),
    /// GH-tree.
    GhTree(GhTree<P, M>),
}

macro_rules! dispatch_index {
    ($self:expr, $idx:ident => $body:expr) => {
        match $self {
            AnyIndex::Linear($idx) => $body,
            AnyIndex::Aesa($idx) => $body,
            AnyIndex::Laesa($idx) => $body,
            AnyIndex::IAesa($idx) => $body,
            AnyIndex::DistPerm($idx) => $body,
            AnyIndex::PrefixPerm($idx) => $body,
            AnyIndex::VpTree($idx) => $body,
            AnyIndex::GhTree($idx) => $body,
        }
    };
}

impl<P: Clone, M: Metric<P>> AnyIndex<P, M> {
    /// Builds the structure named by `spec` over `points`.
    ///
    /// `strategy` selects pivots/sites for the structures that use them.
    /// Returns an error for specs that need a different storage or
    /// metric shape (`flatperm`, `bktree`) or ask for more pivots than
    /// there are points — build-by-name is a front-end path, so those
    /// are reported, not panicked.
    pub fn build(
        spec: IndexSpec,
        metric: M,
        points: Vec<P>,
        strategy: PivotSelection,
    ) -> Result<Self, SpecError> {
        if let Some(k) = spec.pivot_count() {
            if k > points.len() {
                return Err(SpecError::new(format!(
                    "index spec `{spec}` asks for {k} pivots from {} points",
                    points.len()
                )));
            }
        }
        Ok(match spec {
            IndexSpec::Linear => AnyIndex::Linear(LinearScan::new(metric, points)),
            IndexSpec::Aesa => AnyIndex::Aesa(Aesa::build(metric, points)),
            IndexSpec::Laesa { k } => AnyIndex::Laesa(Laesa::build(metric, points, k, strategy)),
            IndexSpec::IAesa { k } => AnyIndex::IAesa(IAesa::build(metric, points, k, strategy)),
            IndexSpec::DistPerm { k } => {
                AnyIndex::DistPerm(DistPermIndex::build(metric, points, k, strategy))
            }
            IndexSpec::PrefixPerm { k, prefix_len } => AnyIndex::PrefixPerm(
                PrefixPermIndex::build(metric, points, k, prefix_len, strategy),
            ),
            IndexSpec::VpTree => AnyIndex::VpTree(VpTree::build(metric, points)),
            IndexSpec::GhTree => AnyIndex::GhTree(GhTree::build(metric, points)),
            IndexSpec::FlatDistPerm { .. } => {
                return Err(SpecError::new(
                    "index spec `flatperm` requires flat vector storage; build \
                     FlatDistPermIndex directly",
                ))
            }
            IndexSpec::BkTree => {
                return Err(SpecError::new(
                    "index spec `bktree` requires an integer-valued metric; build BkTree \
                     directly",
                ))
            }
        })
    }
}

impl<P, M: Metric<P>> AnyIndex<P, M> {
    /// The spec this index was built from (modulo pivot strategy).
    pub fn spec(&self) -> IndexSpec {
        match self {
            AnyIndex::Linear(_) => IndexSpec::Linear,
            AnyIndex::Aesa(_) => IndexSpec::Aesa,
            AnyIndex::Laesa(i) => IndexSpec::Laesa { k: i.pivots().len() },
            AnyIndex::IAesa(i) => IndexSpec::IAesa { k: i.site_ids().len() },
            AnyIndex::DistPerm(i) => IndexSpec::DistPerm { k: i.k() },
            AnyIndex::PrefixPerm(i) => {
                IndexSpec::PrefixPerm { k: i.k(), prefix_len: i.prefix_len() }
            }
            AnyIndex::VpTree(_) => IndexSpec::VpTree,
            AnyIndex::GhTree(_) => IndexSpec::GhTree,
        }
    }

    /// Database size.
    pub fn len(&self) -> usize {
        dispatch_index!(self, i => i.len())
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True iff queries honour a scan budget (see
    /// [`IndexSpec::supports_budget`]).
    pub fn supports_budget(&self) -> bool {
        self.spec().supports_budget()
    }
}

/// Query session over an [`AnyIndex`], dispatching to the wrapped
/// searcher.
#[derive(Debug, Clone)]
pub enum AnySearcher<'a, P, M: Metric<P>> {
    /// Linear-scan session.
    Linear(LinearSearcher<'a, P, M>),
    /// AESA session.
    Aesa(AesaSearcher<'a, P, M>),
    /// LAESA session.
    Laesa(LaesaSearcher<'a, P, M>),
    /// iAESA session.
    IAesa(IAesaSearcher<'a, P, M>),
    /// distperm session.
    DistPerm(DistPermSearcher<'a, P, M>),
    /// prefixperm session.
    PrefixPerm(PrefixPermSearcher<'a, P, M>),
    /// VP-tree session.
    VpTree(VpSearcher<'a, P, M>),
    /// GH-tree session.
    GhTree(GhSearcher<'a, P, M>),
}

macro_rules! dispatch_searcher {
    ($self:expr, $s:ident => $body:expr) => {
        match $self {
            AnySearcher::Linear($s) => $body,
            AnySearcher::Aesa($s) => $body,
            AnySearcher::Laesa($s) => $body,
            AnySearcher::IAesa($s) => $body,
            AnySearcher::DistPerm($s) => $body,
            AnySearcher::PrefixPerm($s) => $body,
            AnySearcher::VpTree($s) => $body,
            AnySearcher::GhTree($s) => $body,
        }
    };
}

impl<P: Sync, M: Metric<P> + Sync> ProximityIndex<P> for AnyIndex<P, M> {
    type Dist = M::Dist;
    type Searcher<'s>
        = AnySearcher<'s, P, M>
    where
        Self: 's;

    fn size(&self) -> usize {
        self.len()
    }

    fn searcher(&self) -> AnySearcher<'_, P, M> {
        match self {
            AnyIndex::Linear(i) => AnySearcher::Linear(i.session()),
            AnyIndex::Aesa(i) => AnySearcher::Aesa(i.session()),
            AnyIndex::Laesa(i) => AnySearcher::Laesa(i.session()),
            AnyIndex::IAesa(i) => AnySearcher::IAesa(i.session()),
            AnyIndex::DistPerm(i) => AnySearcher::DistPerm(i.session()),
            AnyIndex::PrefixPerm(i) => AnySearcher::PrefixPerm(i.session()),
            AnyIndex::VpTree(i) => AnySearcher::VpTree(i.session()),
            AnyIndex::GhTree(i) => AnySearcher::GhTree(i.session()),
        }
    }
}

impl<P: Sync, M: Metric<P> + Sync> Searcher<P> for AnySearcher<'_, P, M> {
    type Dist = M::Dist;

    fn knn(&mut self, query: &P, k: usize) -> (Vec<Neighbor<M::Dist>>, QueryStats) {
        dispatch_searcher!(self, s => Searcher::knn(s, query, k))
    }

    fn range(&mut self, query: &P, radius: M::Dist) -> (Vec<Neighbor<M::Dist>>, QueryStats) {
        dispatch_searcher!(self, s => Searcher::range(s, query, radius))
    }
}

/// Budgeted queries through the dispatcher.
///
/// Only the permutation-family variants honour `frac`; the exact
/// structures have no scan-budget knob, so for them the budgeted calls
/// fall back to the exact query (their answers do not depend on
/// `frac`).  Callers that need to distinguish should consult
/// [`AnyIndex::supports_budget`].
impl<P: Sync, M: Metric<P> + Sync> ApproxSearcher<P> for AnySearcher<'_, P, M> {
    fn knn_approx(
        &mut self,
        query: &P,
        k: usize,
        frac: f64,
    ) -> (Vec<Neighbor<M::Dist>>, QueryStats) {
        // Validate uniformly so a bad budget fails on every variant, not
        // just the ones that consume it (the ApproxSearcher contract).
        assert!((0.0..=1.0).contains(&frac), "frac must be in [0,1], got {frac}");
        match self {
            AnySearcher::DistPerm(s) => s.knn_approx(query, k, frac),
            AnySearcher::PrefixPerm(s) => s.knn_approx(query, k, frac),
            other => Searcher::knn(other, query, k),
        }
    }

    fn range_approx(
        &mut self,
        query: &P,
        radius: M::Dist,
        frac: f64,
    ) -> (Vec<Neighbor<M::Dist>>, QueryStats) {
        assert!((0.0..=1.0).contains(&frac), "frac must be in [0,1], got {frac}");
        match self {
            AnySearcher::DistPerm(s) => s.range_approx(query, radius, frac),
            AnySearcher::PrefixPerm(s) => s.range_approx(query, radius, frac),
            other => Searcher::range(other, query, radius),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_metric::L2;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_points(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..d).map(|_| rng.random::<f64>()).collect()).collect()
    }

    #[test]
    fn parse_roundtrips_canonical_names() {
        for spec in [
            "linear",
            "aesa",
            "laesa:16",
            "iaesa:8",
            "distperm:12",
            "prefixperm:12:6",
            "flatperm:10",
            "vptree",
            "ghtree",
            "bktree",
        ] {
            let parsed = IndexSpec::parse(spec).unwrap();
            assert_eq!(parsed.name(), spec, "canonical roundtrip");
            assert_eq!(IndexSpec::parse(&parsed.name()).unwrap(), parsed);
        }
    }

    #[test]
    fn parse_applies_defaults_and_aliases() {
        assert_eq!(IndexSpec::parse("laesa").unwrap(), IndexSpec::Laesa { k: DEFAULT_K });
        assert_eq!(
            IndexSpec::parse("prefixperm:9").unwrap(),
            IndexSpec::PrefixPerm { k: 9, prefix_len: 5 }
        );
        assert_eq!(IndexSpec::parse("vp").unwrap(), IndexSpec::VpTree);
        assert_eq!(IndexSpec::parse("bk").unwrap(), IndexSpec::BkTree);
        assert_eq!(IndexSpec::parse("scan").unwrap(), IndexSpec::Linear);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in ["frobnicate", "laesa:x", "laesa:1:2", "aesa:3", "prefixperm:4:9", "distperm:99"]
        {
            assert!(IndexSpec::parse(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn build_rejects_wrong_shape_specs_gracefully() {
        let pts = random_points(20, 2, 1);
        let err = AnyIndex::build(IndexSpec::BkTree, L2, pts.clone(), PivotSelection::Prefix)
            .unwrap_err();
        assert!(err.to_string().contains("bktree"), "{err}");
        let err = AnyIndex::build(
            IndexSpec::FlatDistPerm { k: 4 },
            L2,
            pts.clone(),
            PivotSelection::Prefix,
        )
        .unwrap_err();
        assert!(err.to_string().contains("flatperm"), "{err}");
        let err = AnyIndex::build(IndexSpec::Laesa { k: 30 }, L2, pts, PivotSelection::Prefix)
            .unwrap_err();
        assert!(err.to_string().contains("30 pivots"), "{err}");
    }

    #[test]
    fn every_generic_variant_is_exact_through_the_dispatcher() {
        let pts = random_points(150, 3, 2);
        let queries = random_points(10, 3, 3);
        let truth = LinearScan::new(L2, pts.clone());
        let specs = [
            IndexSpec::Linear,
            IndexSpec::Aesa,
            IndexSpec::Laesa { k: 6 },
            IndexSpec::IAesa { k: 6 },
            IndexSpec::DistPerm { k: 6 },
            IndexSpec::PrefixPerm { k: 6, prefix_len: 3 },
            IndexSpec::VpTree,
            IndexSpec::GhTree,
        ];
        for spec in specs {
            let idx = AnyIndex::build(spec, L2, pts.clone(), PivotSelection::MaxMin).unwrap();
            assert_eq!(idx.spec(), spec);
            assert_eq!(idx.size(), 150);
            let mut searcher = idx.searcher();
            for q in &queries {
                let (got, stats) = searcher.knn(q, 4);
                assert_eq!(got, truth.knn(q, 4), "{spec}");
                assert!(stats.metric_evals > 0, "{spec} reported no work");
            }
        }
    }

    #[test]
    fn k_zero_returns_empty_on_every_variant() {
        let pts = random_points(60, 2, 5);
        let q = vec![0.5, 0.5];
        let specs = [
            IndexSpec::Linear,
            IndexSpec::Aesa,
            IndexSpec::Laesa { k: 4 },
            IndexSpec::IAesa { k: 4 },
            IndexSpec::DistPerm { k: 4 },
            IndexSpec::PrefixPerm { k: 4, prefix_len: 2 },
            IndexSpec::VpTree,
            IndexSpec::GhTree,
        ];
        for spec in specs {
            let idx = AnyIndex::build(spec, L2, pts.clone(), PivotSelection::Prefix).unwrap();
            let (out, stats) = idx.searcher().knn(&q, 0);
            assert!(out.is_empty(), "{spec}: k = 0 must return no neighbours");
            assert_eq!(stats, QueryStats::default(), "{spec}: k = 0 must do no work");
        }
    }

    #[test]
    #[should_panic(expected = "frac must be in [0,1]")]
    fn out_of_range_frac_panics_even_on_exact_variants() {
        let pts = random_points(30, 2, 6);
        let vp = AnyIndex::build(IndexSpec::VpTree, L2, pts, PivotSelection::Prefix).unwrap();
        let _ = vp.searcher().knn_approx(&vec![0.5, 0.5], 2, 7.0);
    }

    #[test]
    fn budget_falls_back_to_exact_on_non_budget_variants() {
        let pts = random_points(100, 2, 4);
        let q = vec![0.5, 0.5];
        let vp =
            AnyIndex::build(IndexSpec::VpTree, L2, pts.clone(), PivotSelection::Prefix).unwrap();
        assert!(!vp.supports_budget());
        let mut s = vp.searcher();
        assert_eq!(s.knn_approx(&q, 3, 0.05).0, s.knn(&q, 3).0);
        let dp =
            AnyIndex::build(IndexSpec::DistPerm { k: 5 }, L2, pts, PivotSelection::Prefix).unwrap();
        assert!(dp.supports_budget());
        let (_, stats) = dp.searcher().knn_approx(&q, 3, 0.1);
        assert_eq!(stats.metric_evals, 5 + 10);
    }
}
