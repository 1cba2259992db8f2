//! Online (streaming) counterparts of the stationary estimator menu.
//!
//! The estimators of §3 are all per-record sums, so each has an
//! incremental form: [`Online<K>`] accepts records one at a time via
//! `push` and produces an estimate at any point via `estimate`. It runs
//! the estimator's own per-row kernel through the same row-from-record
//! driver and the same fold as the scalar [`crate::Estimator::estimate`],
//! so replaying a full trace in order yields exactly the bits of
//! [`crate::Estimator::estimate`] / [`crate::BatchEstimator::estimate_batch`],
//! including the [`WeightDiagnostics`] and the error surface (first
//! missing propensity, SNIPS with zero weight mass) — property-tested in
//! `tests/online_parity.rs`.
//!
//! Every value is a ratio of running left folds — `Σ Γ / n`, SNIPS's
//! `Σ w·r / Σ w`, the adaptive family's `Σ h·Γ / Σ h` — so `estimate` and
//! the saved state are O(1) in the records ingested. The one exception
//! is [`OnlineSeqDr`], which holds the steps of its unfinished trajectory
//! (fewer than `horizon`).
//!
//! Beyond the estimate, every online estimator keeps Welford moments of
//! its folded terms — the variance early-warning the §2.2.2 discussion
//! asks for, available *during* ingest instead of after the trace
//! closes — surfaced through `health_metrics` along with the running ESS
//! / max-weight diagnostics.
//!
//! For non-stationarity (§4.1), [`SlidingWindow`] bounds any online
//! estimator to the last `capacity` records: the windowed estimate equals
//! the batch estimate over exactly those records.

use crate::adaptive::{AdaptiveDr, AdaptiveIps, AdaptiveWeights};
use crate::dm::DirectMethod;
use crate::dr::DoublyRobust;
use crate::estimate::{check_space, EstimatorError, WeightDiagnostics};
use crate::ips::{ClippedIps, Ips, SelfNormalizedIps};
use crate::kernel::{check_kind, field, state_err, uint, Fold, Kernel, RecordRow};
use crate::marginalized::{ActionEmbedding, MarginalizedDr};
use crate::seq::SeqDr;
use ddn_models::RewardModel;
use ddn_policy::Policy;
use ddn_stats::Json;
use ddn_trace::{DecisionSpace, TraceRecord};
use std::collections::VecDeque;

/// The output of an online estimator: the batch-identical value and
/// diagnostics, without the O(n) per-record vector an offline
/// [`crate::Estimate`] carries.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineEstimate {
    /// The estimated expected reward `V̂(μ_new)` — bit-identical to the
    /// batch [`crate::Estimate::value`] over the same records in the same
    /// order.
    pub value: f64,
    /// Number of units folded into the value: records, or completed
    /// trajectories for SeqDR.
    pub n: usize,
    /// Importance-weight diagnostics, bit-identical to the batch path.
    pub diagnostics: WeightDiagnostics,
}

/// The streaming-estimator interface shared by the online menu, designed
/// to be object-safe so a serving layer can hold a heterogeneous bank of
/// `Box<dyn OnlineEstimator>` per session.
pub trait OnlineEstimator {
    /// Short name matching the batch twin ("DM", "IPS", "SNIPS", …).
    fn name(&self) -> &str;

    /// Ingests one record. Errors (e.g. a missing propensity) reject the
    /// record *without* corrupting accumulated state: a failed push leaves
    /// the estimator exactly as it was.
    fn push(&mut self, rec: &TraceRecord) -> Result<(), EstimatorError>;

    /// The estimate over everything pushed so far.
    /// `Err(NoUsableRecords)` before the first record (and, for the ratio
    /// estimators, whenever the normalizing mass is not positive — same
    /// as the batch).
    fn estimate(&self) -> Result<OnlineEstimate, EstimatorError>;

    /// Number of records accepted so far.
    fn len(&self) -> usize;

    /// Whether no records have been accepted yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clears accumulated records/statistics, keeping the configuration
    /// (policy, model, thresholds). [`SlidingWindow`] relies on this.
    fn reset(&mut self);

    /// Streaming health metrics: the running weight diagnostics plus the
    /// Welford contribution moments. Safe to call at any time, including
    /// before the first record (returns `n = 0` only).
    fn health_metrics(&self) -> Vec<(&'static str, f64)>;

    /// Serializes the accumulated state (counts, running sums, weight
    /// accumulators, contribution moments) as JSON. Configuration — the
    /// policy, model, clip threshold — is *not* included: state belongs
    /// to the stream, configuration to the constructor.
    ///
    /// Every f64 is encoded as its raw bit pattern, so
    /// `state_save` → JSON text → [`OnlineEstimator::state_load`] is
    /// bit-identical: the restored estimator produces exactly the bits an
    /// unbroken estimator would, including the `-0.0` sum identity and
    /// `-inf` max-weight sentinel. This is the durability hook a serving
    /// layer's snapshot/crash-resume path builds on.
    fn state_save(&self) -> Json;

    /// Replaces this estimator's accumulated state with state captured by
    /// [`OnlineEstimator::state_save`] on an identically-configured
    /// estimator. On error (wrong estimator kind, corrupt field) the
    /// current state is left untouched.
    fn state_load(&mut self, state: &Json) -> Result<(), EstimatorError>;
}

impl<E: OnlineEstimator + ?Sized> OnlineEstimator for Box<E> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn push(&mut self, rec: &TraceRecord) -> Result<(), EstimatorError> {
        (**self).push(rec)
    }
    fn estimate(&self) -> Result<OnlineEstimate, EstimatorError> {
        (**self).estimate()
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn reset(&mut self) {
        (**self).reset()
    }
    fn health_metrics(&self) -> Vec<(&'static str, f64)> {
        (**self).health_metrics()
    }
    fn state_save(&self) -> Json {
        (**self).state_save()
    }
    fn state_load(&mut self, state: &Json) -> Result<(), EstimatorError> {
        (**self).state_load(state)
    }
}

/// A streaming estimator: kernel `K` evaluating `policy`, folded one
/// record at a time. State is O(1) in the records pushed.
pub struct Online<K> {
    kernel: K,
    policy: Target,
    fold: Fold,
}

impl<K: Kernel> Online<K> {
    /// Fails like the batch path when `policy`'s (or the kernel's own)
    /// decision space does not match `space`.
    fn with(space: DecisionSpace, policy: Target, kernel: K) -> Result<Self, EstimatorError> {
        check_space(&space, policy.space())?;
        kernel.check(&space)?;
        Ok(Self {
            kernel,
            policy,
            fold: Fold::streaming(),
        })
    }
}

impl<K: Kernel> OnlineEstimator for Online<K> {
    fn name(&self) -> &str {
        K::NAME
    }

    fn push(&mut self, rec: &TraceRecord) -> Result<(), EstimatorError> {
        let row = RecordRow::new(rec, self.policy.as_ref(), self.fold.seen);
        self.fold.push(&self.kernel, &row).map(drop)
    }

    fn estimate(&self) -> Result<OnlineEstimate, EstimatorError> {
        Ok(OnlineEstimate {
            value: self.fold.value(self.kernel.norm())?,
            n: self.fold.n,
            diagnostics: self.fold.diagnostics(),
        })
    }

    fn len(&self) -> usize {
        self.fold.seen
    }

    fn reset(&mut self) {
        self.fold = Fold::streaming();
    }

    fn health_metrics(&self) -> Vec<(&'static str, f64)> {
        self.fold.health(self.kernel.extras(&self.fold))
    }

    fn state_save(&self) -> Json {
        self.fold.state_save(K::NAME)
    }

    fn state_load(&mut self, state: &Json) -> Result<(), EstimatorError> {
        self.fold = Fold::state_load(state, K::NAME, self.kernel.horizon())?;
        Ok(())
    }
}

type Model = Box<dyn RewardModel + Send + Sync>;
type Target = Box<dyn Policy + Send + Sync>;

/// Streaming Direct Method. Never needs propensities.
pub type OnlineDm = Online<DirectMethod<Model>>;
/// Streaming plain IPS.
pub type OnlineIps = Online<Ips>;
/// Streaming self-normalized IPS: `Σ w·r / Σ w` from two running sums.
pub type OnlineSnips = Online<SelfNormalizedIps>;
/// Streaming weight-clipped IPS.
pub type OnlineClippedIps = Online<ClippedIps>;
/// Streaming Doubly Robust.
pub type OnlineDr = Online<DoublyRobust<Model>>;
/// Streaming adaptively-weighted IPS ([`crate::AdaptiveIps`]).
pub type OnlineAdaptiveIps = Online<AdaptiveIps>;
/// Streaming adaptively-weighted DR ([`crate::AdaptiveDr`]).
pub type OnlineAdaptiveDr = Online<AdaptiveDr<Model>>;
/// Streaming marginalized DR ([`crate::MarginalizedDr`]). Never reads
/// recorded propensities.
pub type OnlineMarginalizedDr = Online<MarginalizedDr<Model>>;
/// Streaming per-decision sequential DR ([`crate::SeqDr`]). Records
/// buffer into the pending trajectory; when it reaches `horizon` steps it
/// folds through the backward recursion. Weight diagnostics cover
/// completed trajectories only, matching the batch path.
pub type OnlineSeqDr = Online<SeqDr<Model>>;

impl OnlineDm {
    /// Creates a streaming DM over `space`, evaluating `policy` through
    /// `model`. Fails like the batch path when the policy's decision space
    /// does not match the trace's.
    pub fn new(space: DecisionSpace, policy: Target, model: Model) -> Result<Self, EstimatorError> {
        Online::with(space, policy, DirectMethod::new(model))
    }
}

impl OnlineIps {
    /// Creates a streaming IPS evaluator of `policy` over `space`.
    pub fn new(space: DecisionSpace, policy: Target) -> Result<Self, EstimatorError> {
        Online::with(space, policy, Ips)
    }
}

impl OnlineSnips {
    /// Creates a streaming SNIPS evaluator of `policy` over `space`.
    pub fn new(space: DecisionSpace, policy: Target) -> Result<Self, EstimatorError> {
        Online::with(space, policy, SelfNormalizedIps)
    }
}

impl OnlineClippedIps {
    /// Creates a streaming clipped-IPS evaluator with the given weight cap.
    ///
    /// # Panics
    /// Panics unless `max_weight > 0` and finite, like
    /// [`crate::ClippedIps::new`].
    pub fn new(
        space: DecisionSpace,
        policy: Target,
        max_weight: f64,
    ) -> Result<Self, EstimatorError> {
        Online::with(space, policy, ClippedIps::new(max_weight))
    }
}

impl OnlineDr {
    /// Creates a streaming DR evaluator of `policy` over `space` with the
    /// given (pre-fitted) reward model.
    pub fn new(space: DecisionSpace, policy: Target, model: Model) -> Result<Self, EstimatorError> {
        Online::with(space, policy, DoublyRobust::new(model))
    }
}

impl OnlineAdaptiveIps {
    /// Creates a streaming adaptive-IPS evaluator of `policy` over
    /// `space` with the given stabilizer schedule.
    pub fn new(
        space: DecisionSpace,
        policy: Target,
        mode: AdaptiveWeights,
    ) -> Result<Self, EstimatorError> {
        Online::with(space, policy, AdaptiveIps::new(mode))
    }
}

impl OnlineAdaptiveDr {
    /// Creates a streaming adaptive-DR evaluator of `policy` over
    /// `space` with the given (pre-fitted) reward model and stabilizer
    /// schedule.
    pub fn new(
        space: DecisionSpace,
        policy: Target,
        model: Model,
        mode: AdaptiveWeights,
    ) -> Result<Self, EstimatorError> {
        Online::with(space, policy, AdaptiveDr::new(model, mode))
    }
}

impl OnlineMarginalizedDr {
    /// Creates a streaming marginalized-DR evaluator of `policy` over
    /// `space`, with the logging policy supplying marginal denominators
    /// over `embedding`'s groups.
    ///
    /// # Panics
    /// Panics if the embedding does not cover exactly `space`'s arms.
    pub fn new(
        space: DecisionSpace,
        policy: Target,
        logging: Target,
        model: Model,
        embedding: ActionEmbedding,
    ) -> Result<Self, EstimatorError> {
        Online::with(
            space,
            policy,
            MarginalizedDr::new(model, embedding, logging),
        )
    }
}

impl OnlineSeqDr {
    /// Creates a streaming sequential-DR evaluator of `policy` over
    /// `space` for trajectories of exactly `horizon` steps.
    ///
    /// # Panics
    /// Panics if `horizon == 0`.
    pub fn new(
        space: DecisionSpace,
        policy: Target,
        model: Model,
        horizon: usize,
    ) -> Result<Self, EstimatorError> {
        Online::with(space, policy, SeqDr::new(model, horizon))
    }
}

/// Bounds any online estimator to the most recent `capacity` records —
/// the streaming answer to §4.1 non-stationarity: when the logged world
/// drifts, only the recent regime should vote.
///
/// `push` is O(1) (it only maintains the window); `estimate` replays the
/// window through the inner estimator, so the windowed estimate is exactly
/// the batch estimate over the window's records. `estimate` therefore
/// takes `&mut self` here — it is not part of [`OnlineEstimator`].
pub struct SlidingWindow<E: OnlineEstimator> {
    inner: E,
    window: VecDeque<TraceRecord>,
    capacity: usize,
    evicted: u64,
}

impl<E: OnlineEstimator> SlidingWindow<E> {
    /// Wraps `inner`, keeping at most `capacity` records.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(inner: E, capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        Self {
            inner,
            window: VecDeque::with_capacity(capacity),
            capacity,
            evicted: 0,
        }
    }

    /// Name of the wrapped estimator.
    pub fn name(&self) -> &str {
        self.inner.name()
    }

    /// Appends a record, evicting the oldest when the window is full.
    pub fn push(&mut self, rec: &TraceRecord) {
        if self.window.len() == self.capacity {
            self.window.pop_front();
            self.evicted += 1;
        }
        self.window.push_back(rec.clone());
    }

    /// Estimate over exactly the windowed records, computed by replaying
    /// them through the inner estimator (after a reset). Equal to the
    /// batch estimate over the same records.
    pub fn estimate(&mut self) -> Result<OnlineEstimate, EstimatorError> {
        self.inner.reset();
        for rec in &self.window {
            self.inner.push(rec)?;
        }
        self.inner.estimate()
    }

    /// Records currently in the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether the window holds no records.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Window capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of records evicted so far (total pushed − window size).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Serializes the window's state: the retained records (the inner
    /// estimator's accumulated state is immaterial — [`Self::estimate`]
    /// resets and replays it) plus the eviction count. The record round
    /// trip goes through [`TraceRecord::to_json`], whose float formatting
    /// is bit-exact, so a restored window estimates identically.
    pub fn state_save(&self) -> Json {
        Json::Object(vec![
            ("est".into(), Json::str(self.inner.name())),
            (
                "window".into(),
                Json::Array(self.window.iter().map(|r| r.to_json()).collect()),
            ),
            ("evicted".into(), Json::Int(self.evicted as i64)),
        ])
    }

    /// Restores window state captured by [`Self::state_save`] on a window
    /// around an identically-configured inner estimator. On error the
    /// current window is left untouched.
    pub fn state_load(&mut self, state: &Json) -> Result<(), EstimatorError> {
        check_kind(state, self.inner.name())?;
        let raw = field(state, "window")?
            .as_array()
            .ok_or_else(|| state_err("field `window` must be an array"))?;
        if raw.len() > self.capacity {
            return Err(state_err(format!(
                "window holds {} records but capacity is {}",
                raw.len(),
                self.capacity
            )));
        }
        let mut window = VecDeque::with_capacity(self.capacity);
        for rec in raw {
            window.push_back(
                TraceRecord::from_json(rec)
                    .map_err(|e| state_err(format!("bad window record: {e}")))?,
            );
        }
        self.evicted = uint(state, "evicted")?;
        self.window = window;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClippedIps, DirectMethod, DoublyRobust, Estimator, Ips, SelfNormalizedIps};
    use ddn_models::FnModel;
    use ddn_policy::{EpsilonSmoothedPolicy, LookupPolicy, UniformRandomPolicy};
    use ddn_stats::rng::{Rng, Xoshiro256};
    use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace, Trace, TraceRecord};

    fn schema() -> ContextSchema {
        ContextSchema::builder().categorical("g", 2).build()
    }

    fn space() -> DecisionSpace {
        DecisionSpace::of(&["a", "b"])
    }

    fn skewed_trace(n: usize, seed: u64) -> Trace {
        let s = schema();
        let logger = EpsilonSmoothedPolicy::new(Box::new(LookupPolicy::constant(space(), 0)), 0.5);
        let mut rng = Xoshiro256::seed_from(seed);
        let recs = (0..n)
            .map(|_| {
                let g = rng.index(2) as u32;
                let c = Context::build(&s).set_cat("g", g).finish();
                let (d, p) = logger.sample_with_prob(&c, &mut rng);
                let r = 2.0 + g as f64 + 3.0 * d.index() as f64;
                TraceRecord::new(c, d, r).with_propensity(p)
            })
            .collect();
        Trace::from_records(s, space(), recs).unwrap()
    }

    fn model() -> FnModel<fn(&Context, Decision) -> f64> {
        fn f(c: &Context, d: Decision) -> f64 {
            1.5 + c.cat(0) as f64 + 2.0 * d.index() as f64
        }
        FnModel::new(f)
    }

    fn target() -> LookupPolicy {
        LookupPolicy::constant(space(), 1)
    }

    fn replay<E: OnlineEstimator>(online: &mut E, trace: &Trace) {
        for rec in trace.records() {
            online.push(rec).unwrap();
        }
    }

    #[test]
    fn ips_replay_is_bit_identical() {
        let t = skewed_trace(300, 7);
        let batch = Ips::new().estimate(&t, &target()).unwrap();
        let mut online = OnlineIps::new(space(), Box::new(target())).unwrap();
        replay(&mut online, &t);
        let e = online.estimate().unwrap();
        assert_eq!(e.value.to_bits(), batch.value.to_bits());
        assert_eq!(e.diagnostics, batch.diagnostics);
    }

    #[test]
    fn snips_replay_is_bit_identical() {
        let t = skewed_trace(300, 8);
        let batch = SelfNormalizedIps::new().estimate(&t, &target()).unwrap();
        let mut online = OnlineSnips::new(space(), Box::new(target())).unwrap();
        replay(&mut online, &t);
        let e = online.estimate().unwrap();
        assert_eq!(e.value.to_bits(), batch.value.to_bits());
        assert_eq!(e.diagnostics, batch.diagnostics);
    }

    #[test]
    fn clipped_ips_replay_is_bit_identical() {
        let t = skewed_trace(300, 9);
        let batch = ClippedIps::new(2.0).estimate(&t, &target()).unwrap();
        let mut online = OnlineClippedIps::new(space(), Box::new(target()), 2.0).unwrap();
        replay(&mut online, &t);
        let e = online.estimate().unwrap();
        assert_eq!(e.value.to_bits(), batch.value.to_bits());
        assert_eq!(e.diagnostics, batch.diagnostics);
        let clip_rate = online
            .health_metrics()
            .into_iter()
            .find(|(k, _)| *k == "clip_rate")
            .map(|(_, v)| v);
        assert!(clip_rate > Some(0.0), "weight-4 records must clip");
    }

    #[test]
    fn dm_and_dr_replay_are_bit_identical() {
        let t = skewed_trace(300, 10);
        let batch_dm = DirectMethod::new(model()).estimate(&t, &target()).unwrap();
        let mut online_dm = OnlineDm::new(space(), Box::new(target()), Box::new(model())).unwrap();
        replay(&mut online_dm, &t);
        let e = online_dm.estimate().unwrap();
        assert_eq!(e.value.to_bits(), batch_dm.value.to_bits());

        let batch_dr = DoublyRobust::new(model()).estimate(&t, &target()).unwrap();
        let mut online_dr = OnlineDr::new(space(), Box::new(target()), Box::new(model())).unwrap();
        replay(&mut online_dr, &t);
        let e = online_dr.estimate().unwrap();
        assert_eq!(e.value.to_bits(), batch_dr.value.to_bits());
        assert_eq!(e.diagnostics, batch_dr.diagnostics);
    }

    #[test]
    fn missing_propensity_fails_at_the_offending_record() {
        let s = schema();
        let good = TraceRecord::new(
            Context::build(&s).set_cat("g", 0).finish(),
            Decision::from_index(0),
            1.0,
        )
        .with_propensity(0.5);
        let bad = TraceRecord::new(
            Context::build(&s).set_cat("g", 1).finish(),
            Decision::from_index(1),
            2.0,
        );
        let mut online = OnlineIps::new(space(), Box::new(target())).unwrap();
        online.push(&good).unwrap();
        let err = online.push(&bad).unwrap_err();
        assert!(
            matches!(
                err,
                EstimatorError::Trace(ddn_trace::TraceError::MissingPropensity { record: 1 })
            ),
            "{err:?}"
        );
        // The failed push left state untouched: the estimator still
        // reports exactly one record.
        assert_eq!(online.len(), 1);
        assert!(online.estimate().is_ok());
    }

    #[test]
    fn empty_stream_has_no_estimate() {
        let online = OnlineIps::new(space(), Box::new(target())).unwrap();
        assert!(matches!(
            online.estimate(),
            Err(EstimatorError::NoUsableRecords)
        ));
        let health = online.health_metrics();
        assert_eq!(health, vec![("n", 0.0)]);
    }

    #[test]
    fn snips_zero_weight_mass_errors() {
        let s = schema();
        let rec = TraceRecord::new(
            Context::build(&s).set_cat("g", 0).finish(),
            Decision::from_index(0),
            1.0,
        )
        .with_propensity(0.5);
        let mut online = OnlineSnips::new(space(), Box::new(target())).unwrap();
        online.push(&rec).unwrap();
        assert!(matches!(
            online.estimate(),
            Err(EstimatorError::NoUsableRecords)
        ));
        // Plain IPS over the same stream is defined (value 0).
        let mut ips = OnlineIps::new(space(), Box::new(target())).unwrap();
        ips.push(&rec).unwrap();
        let e = ips.estimate().unwrap();
        assert_eq!(e.value, 0.0);
        assert_eq!(e.diagnostics.zero_weight_fraction, 1.0);
    }

    #[test]
    fn space_mismatch_rejected_at_construction() {
        let wide = DecisionSpace::of(&["a", "b", "c"]);
        let err = match OnlineIps::new(wide, Box::new(target())) {
            Err(e) => e,
            Ok(_) => panic!("mismatched space must be rejected"),
        };
        assert!(matches!(
            err,
            EstimatorError::SpaceMismatch {
                trace: 3,
                policy: 2
            }
        ));
    }

    #[test]
    fn health_metrics_stream_with_the_records() {
        let t = skewed_trace(100, 11);
        let mut online = OnlineIps::new(space(), Box::new(target())).unwrap();
        replay(&mut online, &t);
        let metrics = online.health_metrics();
        let get = |name: &str| {
            metrics
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        assert_eq!(get("n"), 100.0);
        assert!(get("ess") > 0.0 && get("ess") <= 100.0);
        assert_eq!(get("max_weight"), 4.0);
        assert!(get("standard_error") > 0.0);
    }

    #[test]
    fn sliding_window_matches_batch_over_the_window() {
        let t = skewed_trace(200, 12);
        let mut window =
            SlidingWindow::new(OnlineIps::new(space(), Box::new(target())).unwrap(), 50);
        for rec in t.records() {
            window.push(rec);
        }
        assert_eq!(window.len(), 50);
        assert_eq!(window.evicted(), 150);
        let windowed = window.estimate().unwrap();
        // The window is the last 50 records: estimate equals the batch
        // estimate over exactly that sub-trace.
        let tail = Trace::from_records(
            t.schema().clone(),
            t.space().clone(),
            t.records()[150..].to_vec(),
        )
        .unwrap();
        let batch = Ips::new().estimate(&tail, &target()).unwrap();
        assert_eq!(windowed.value.to_bits(), batch.value.to_bits());
        assert_eq!(windowed.diagnostics, batch.diagnostics);
    }

    #[test]
    fn sliding_window_tracks_regime_change() {
        // Reward doubles mid-stream: the windowed estimate follows the new
        // regime while the unwindowed estimate stays blended.
        let s = schema();
        let mk = |r: f64| {
            TraceRecord::new(
                Context::build(&s).set_cat("g", 0).finish(),
                Decision::from_index(1),
                r,
            )
            .with_propensity(0.5)
        };
        let mut full =
            OnlineIps::new(space(), Box::new(UniformRandomPolicy::new(space()))).unwrap();
        let mut window = SlidingWindow::new(
            OnlineIps::new(space(), Box::new(UniformRandomPolicy::new(space()))).unwrap(),
            40,
        );
        for _ in 0..100 {
            let rec = mk(1.0);
            full.push(&rec).unwrap();
            window.push(&rec);
        }
        for _ in 0..40 {
            let rec = mk(2.0);
            full.push(&rec).unwrap();
            window.push(&rec);
        }
        let blended = full.estimate().unwrap().value;
        let recent = window.estimate().unwrap().value;
        assert!(
            (recent - 2.0).abs() < 1e-12,
            "window sees only the new regime"
        );
        assert!(blended < recent, "full stream stays blended: {blended}");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_window_panics() {
        let _ = SlidingWindow::new(OnlineIps::new(space(), Box::new(target())).unwrap(), 0);
    }

    #[test]
    fn adaptive_replay_is_bit_identical() {
        use crate::adaptive::{AdaptiveDr, AdaptiveIps, AdaptiveWeights};
        let t = skewed_trace(300, 14);
        for mode in [AdaptiveWeights::Stabilized, AdaptiveWeights::Constant] {
            let batch = AdaptiveIps::new(mode).estimate(&t, &target()).unwrap();
            let mut online = OnlineAdaptiveIps::new(space(), Box::new(target()), mode).unwrap();
            replay(&mut online, &t);
            let e = online.estimate().unwrap();
            assert_eq!(e.value.to_bits(), batch.value.to_bits());
            assert_eq!(e.diagnostics, batch.diagnostics);

            let batch = AdaptiveDr::new(model(), mode)
                .estimate(&t, &target())
                .unwrap();
            let mut online =
                OnlineAdaptiveDr::new(space(), Box::new(target()), Box::new(model()), mode)
                    .unwrap();
            replay(&mut online, &t);
            let e = online.estimate().unwrap();
            assert_eq!(e.value.to_bits(), batch.value.to_bits());
            assert_eq!(e.diagnostics, batch.diagnostics);
        }
    }

    #[test]
    fn marginalized_replay_is_bit_identical() {
        use crate::marginalized::{ActionEmbedding, MarginalizedDr};
        let t = skewed_trace(300, 15);
        let logger =
            || EpsilonSmoothedPolicy::new(Box::new(LookupPolicy::constant(space(), 0)), 0.5);
        let emb = ActionEmbedding::identity(2);
        let batch = MarginalizedDr::new(model(), emb.clone(), Box::new(logger()))
            .estimate(&t, &target())
            .unwrap();
        let mut online = OnlineMarginalizedDr::new(
            space(),
            Box::new(target()),
            Box::new(logger()),
            Box::new(model()),
            emb,
        )
        .unwrap();
        replay(&mut online, &t);
        let e = online.estimate().unwrap();
        assert_eq!(e.value.to_bits(), batch.value.to_bits());
        assert_eq!(e.diagnostics, batch.diagnostics);
    }

    #[test]
    fn seq_replay_is_bit_identical() {
        use crate::seq::SeqDr;
        let t = skewed_trace(300, 16);
        for horizon in [1, 5] {
            let batch = SeqDr::new(model(), horizon)
                .estimate(&t, &target())
                .unwrap();
            let mut online =
                OnlineSeqDr::new(space(), Box::new(target()), Box::new(model()), horizon).unwrap();
            replay(&mut online, &t);
            let e = online.estimate().unwrap();
            assert_eq!(e.value.to_bits(), batch.value.to_bits());
            assert_eq!(e.diagnostics, batch.diagnostics);
            assert_eq!(e.n, 300 / horizon);
        }
    }

    #[test]
    fn seq_pending_trajectory_stays_out_of_the_estimate() {
        let t = skewed_trace(10, 17);
        let mut online =
            OnlineSeqDr::new(space(), Box::new(target()), Box::new(model()), 4).unwrap();
        for rec in &t.records()[..3] {
            online.push(rec).unwrap();
        }
        // Three steps of a four-step trajectory: no estimate yet.
        assert_eq!(online.len(), 3);
        assert!(matches!(
            online.estimate(),
            Err(EstimatorError::NoUsableRecords)
        ));
        online.push(&t.records()[3]).unwrap();
        assert_eq!(online.estimate().unwrap().n, 1);
    }

    #[test]
    fn reset_clears_state_but_keeps_config() {
        let t = skewed_trace(50, 13);
        let mut online = OnlineClippedIps::new(space(), Box::new(target()), 2.0).unwrap();
        replay(&mut online, &t);
        assert_eq!(online.len(), 50);
        online.reset();
        assert_eq!(online.len(), 0);
        replay(&mut online, &t);
        let again = online.estimate().unwrap();
        let batch = ClippedIps::new(2.0).estimate(&t, &target()).unwrap();
        assert_eq!(again.value.to_bits(), batch.value.to_bits());
    }
}
