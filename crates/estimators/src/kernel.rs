//! One formula per estimator, two drivers, one fold.
//!
//! Every stationary estimator of the menu is a per-record sum. A
//! [`Kernel`] states what one record contributes — a [`Row`] carrying its
//! importance weight and its contribution `Γ_k` — and nothing else. Two
//! drivers hand kernels a [`Source`] for each record:
//!
//! - [`RecordRow`] evaluates the policy and model live for one record and
//!   computes only what the kernel reads. It backs the scalar
//!   [`Estimator::estimate`] and every online `push`.
//! - [`BatchRow`] reads the same quantities from an [`EvalBatch`]'s
//!   columns, behind [`BatchEstimator::estimate_batch`].
//!
//! Both fold rows into a [`Fold`]: left folds from `-0.0` in record order,
//! so the scalar, columnar, online and served engines agree bit for bit
//! by construction. The value is a ratio of two running sums: `Σ Γ / n`
//! for the averaging estimators, `Σ w·r / Σ w` for SNIPS, and
//! `Σ h·Γ / Σ h` for the adaptive family.

use crate::adaptive::AdaptiveWeights;
use crate::batch::{note_reuse, BatchEstimator, EvalBatch, ModelScores};
use crate::estimate::{
    check_space, emit_weight_health, Estimate, Estimator, EstimatorError, WeightDiagnostics,
};
use ddn_models::RewardModel;
use ddn_policy::Policy;
use ddn_stats::{Json, Welford};
use ddn_trace::{Decision, DecisionSpace, Trace, TraceRecord};
use std::cell::{Cell, OnceCell};
use std::ops::Range;

/// How a fold turns its running sums into a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Norm {
    /// `Σ Γ / n`: the averaging estimators.
    Count,
    /// `Σ Γ / Σ w`: self-normalized IPS.
    Weight,
    /// `Σ h·Γ / Σ h`, with stabilizers `h` that see only past weights.
    Stabilized(AdaptiveWeights),
}

/// What one record contributes to a fold.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Importance weight entering the diagnostics (after clipping or
    /// switching).
    pub w: f64,
    /// The contribution `Γ`.
    pub gamma: f64,
    /// The model term `Σ_d μ_new(d|c)·r̂(c, d)`; `0` outside the DR family.
    pub dm: f64,
    /// The model residual at the logged decision; `0` outside the DR family.
    pub residual: f64,
    /// Whether the raw weight crossed a clip or switch threshold.
    pub clipped: bool,
}

/// The per-record quantities a kernel may read. Each is computed or
/// fetched on demand, so a kernel pays only for what it reads.
pub trait Source {
    /// The logged record.
    fn record(&self) -> &TraceRecord;
    /// The logged reward.
    fn reward(&self) -> f64;
    /// The importance weight `μ_new(d|c) / μ_old(d|c)`. A missing
    /// propensity errors with the first offending record's position.
    fn weight(&self) -> Result<f64, EstimatorError>;
    /// The target policy's probability row `μ_new(·|c)`.
    fn probs(&self) -> &[f64];
    /// The DM term `Σ_d μ_new(d|c)·r̂(c, d)` under `model`.
    fn dm_term<M: RewardModel>(&self, model: &M) -> f64;
    /// `model`'s prediction at the logged decision.
    fn q_logged<M: RewardModel>(&self, model: &M) -> f64;
}

/// A stationary estimator's per-row formula.
pub trait Kernel {
    /// Short name ("IPS", "DR", …) used in reports and snapshots.
    const NAME: &'static str;

    /// The fold's value normalization.
    fn norm(&self) -> Norm {
        Norm::Count
    }

    /// Records per unit: a unit's rows fold together through
    /// [`Kernel::finish`]. Only SeqDR's trajectories span more than one.
    fn horizon(&self) -> usize {
        1
    }

    /// Configuration checks against the trace's decision space, beyond the
    /// target policy's (which every driver checks).
    fn check(&self, _space: &DecisionSpace) -> Result<(), EstimatorError> {
        Ok(())
    }

    /// Record `s`'s row, or `None` when the kernel does not use the record.
    fn row<S: Source>(&self, s: &S) -> Result<Option<Row>, EstimatorError>;

    /// The contribution of a completed multi-row unit (called only when
    /// `horizon() > 1`).
    fn finish(&self, steps: &[Row]) -> f64 {
        steps[0].gamma
    }

    /// Estimator-specific health metrics read off the fold.
    fn extras(&self, _fold: &Fold) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// `Σ_d probs[d]·q(d)` in ascending decision order — the DM term, shared by
/// every live path and by [`EvalBatch`]'s cached column.
pub(crate) fn dm_term(probs: &[f64], mut q: impl FnMut(Decision) -> f64) -> f64 {
    probs
        .iter()
        .enumerate()
        .map(|(d, p)| p * q(Decision::from_index(d)))
        .sum()
}

/// Row-from-record source: evaluates the policy and model live.
pub struct RecordRow<'a> {
    rec: &'a TraceRecord,
    policy: &'a dyn Policy,
    k: usize,
    probs: OnceCell<Vec<f64>>,
}

impl<'a> RecordRow<'a> {
    /// The record at stream position `k`, evaluated under `policy`.
    pub(crate) fn new(rec: &'a TraceRecord, policy: &'a dyn Policy, k: usize) -> Self {
        Self {
            rec,
            policy,
            k,
            probs: OnceCell::new(),
        }
    }
}

impl Source for RecordRow<'_> {
    #[inline]
    fn record(&self) -> &TraceRecord {
        self.rec
    }

    #[inline]
    fn reward(&self) -> f64 {
        self.rec.reward
    }

    #[inline]
    fn weight(&self) -> Result<f64, EstimatorError> {
        let p_old = self.rec.require_propensity(self.k)?;
        Ok(self.policy.prob(&self.rec.context, self.rec.decision) / p_old)
    }

    #[inline]
    fn probs(&self) -> &[f64] {
        self.probs
            .get_or_init(|| self.policy.probabilities(&self.rec.context))
    }

    fn dm_term<M: RewardModel>(&self, model: &M) -> f64 {
        dm_term(self.probs(), |d| model.predict(&self.rec.context, d))
    }

    fn q_logged<M: RewardModel>(&self, model: &M) -> f64 {
        model.predict(&self.rec.context, self.rec.decision)
    }
}

/// Row-from-batch source: reads record `i`'s scores from the columns,
/// predicting live only when the batch holds no scores for the model.
/// Counts the scores it served (`hits`) and predicted live (`misses`).
pub struct BatchRow<'a> {
    batch: &'a EvalBatch,
    scores: Option<&'a ModelScores>,
    rec: &'a TraceRecord,
    i: usize,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl BatchRow<'_> {
    #[inline]
    fn note(&self, hit: bool) {
        let c = if hit { &self.hits } else { &self.misses };
        c.set(c.get() + 1);
    }
}

impl Source for BatchRow<'_> {
    #[inline]
    fn record(&self) -> &TraceRecord {
        self.rec
    }

    #[inline]
    fn reward(&self) -> f64 {
        self.batch.rewards()[self.i]
    }

    #[inline]
    fn weight(&self) -> Result<f64, EstimatorError> {
        let w = self.batch.weights()?[self.i];
        self.note(true);
        Ok(w)
    }

    #[inline]
    fn probs(&self) -> &[f64] {
        self.note(true);
        self.batch.probs_row(self.i)
    }

    fn dm_term<M: RewardModel>(&self, model: &M) -> f64 {
        match self.scores {
            Some(s) => {
                self.note(true);
                s.dm_terms()[self.i]
            }
            None => {
                self.note(false);
                dm_term(self.probs(), |d| model.predict(&self.rec.context, d))
            }
        }
    }

    fn q_logged<M: RewardModel>(&self, model: &M) -> f64 {
        self.note(self.scores.is_some());
        match self.scores {
            Some(s) => s.q_logged()[self.i],
            None => model.predict(&self.rec.context, self.rec.decision),
        }
    }
}

/// Row-from-record driver: folds `records` (the stream from position
/// `fold.seen` on) through `kernel` under `policy`, and appends each
/// finished unit's term to `out`.
pub(crate) fn fold_records<K: Kernel>(
    kernel: &K,
    fold: &mut Fold,
    out: &mut Vec<f64>,
    policy: &dyn Policy,
    records: &[TraceRecord],
) -> Result<(), EstimatorError> {
    for rec in records {
        let row = RecordRow::new(rec, policy, fold.seen);
        if let Some(term) = fold.push(kernel, &row)? {
            out.push(term);
        }
    }
    Ok(())
}

/// Row-from-batch driver: folds records `range` of `trace` through
/// `kernel`, reading `batch`'s columns and `scores` (pass `None` to
/// predict live with the kernel's own model), and appends each finished
/// unit's term to `out`. Returns the `(hits, misses)` score-reuse counts.
pub(crate) fn fold_batch<K: Kernel>(
    kernel: &K,
    fold: &mut Fold,
    out: &mut Vec<f64>,
    trace: &Trace,
    batch: &EvalBatch,
    scores: Option<&ModelScores>,
    range: Range<usize>,
) -> Result<(u64, u64), EstimatorError> {
    let (mut hits, mut misses) = (0, 0);
    for i in range {
        let row = BatchRow {
            batch,
            scores,
            rec: &trace.records()[i],
            i,
            hits: Cell::new(0),
            misses: Cell::new(0),
        };
        if let Some(term) = fold.push(kernel, &row)? {
            out.push(term);
        }
        hits += row.hits.get();
        misses += row.misses.get();
    }
    Ok((hits, misses))
}

/// Turns a finished fold into an [`Estimate`] and emits its health.
/// `per_record` holds the folded terms; each is rescaled by `n / den` so
/// a ratio estimator's contributions average to (about) its value.
pub(crate) fn estimate_of(
    name: &str,
    norm: Norm,
    fold: &Fold,
    mut per_record: Vec<f64>,
    extras: &[(&'static str, f64)],
) -> Result<Estimate, EstimatorError> {
    let value = fold.value(norm)?;
    let scale = fold.n as f64 / fold.den(norm);
    for x in &mut per_record {
        *x *= scale;
    }
    let diagnostics = fold.diagnostics();
    emit_weight_health(name, &diagnostics, extras);
    Ok(Estimate {
        value,
        per_record,
        diagnostics,
    })
}

impl<K: Kernel> Estimator for K {
    fn name(&self) -> &str {
        K::NAME
    }

    fn estimate(&self, trace: &Trace, new_policy: &dyn Policy) -> Result<Estimate, EstimatorError> {
        check_space(trace.space(), new_policy.space())?;
        self.check(trace.space())?;
        let mut fold = Fold::new();
        let mut out = Vec::with_capacity(trace.len());
        fold_records(self, &mut fold, &mut out, new_policy, trace.records())?;
        estimate_of(K::NAME, self.norm(), &fold, out, &self.extras(&fold))
    }
}

impl<K: Kernel> BatchEstimator for K {
    fn estimate_batch(&self, trace: &Trace, batch: &EvalBatch) -> Result<Estimate, EstimatorError> {
        batch.check_trace(trace);
        self.check(trace.space())?;
        let mut fold = Fold::new();
        let mut out = Vec::with_capacity(trace.len());
        let scores = batch.model_scores();
        let (hits, misses) = fold_batch(
            self,
            &mut fold,
            &mut out,
            trace,
            batch,
            scores,
            0..trace.len(),
        )?;
        note_reuse(K::NAME, hits, misses);
        estimate_of(K::NAME, self.norm(), &fold, out, &self.extras(&fold))
    }
}

// ---- the fold ----------------------------------------------------------
//
// `state_save`/`state_load` must round-trip *bits*, not values: the sums
// start at `-0.0` (the float `Sum` identity) and the running max starts
// at `-inf`, and JSON number formatting renders neither faithfully. Every
// f64 therefore travels as its `to_bits()` pattern in a JSON integer.

pub(crate) fn state_err(msg: impl Into<String>) -> EstimatorError {
    EstimatorError::State(msg.into())
}

fn bits(x: f64) -> Json {
    Json::Int(x.to_bits() as i64)
}

pub(crate) fn field<'a>(state: &'a Json, key: &str) -> Result<&'a Json, EstimatorError> {
    state
        .get(key)
        .ok_or_else(|| state_err(format!("missing field `{key}`")))
}

fn unbits(state: &Json, key: &str) -> Result<f64, EstimatorError> {
    field(state, key)?
        .as_i64()
        .map(|b| f64::from_bits(b as u64))
        .ok_or_else(|| state_err(format!("field `{key}` must hold f64 bits")))
}

pub(crate) fn uint(state: &Json, key: &str) -> Result<u64, EstimatorError> {
    field(state, key)?
        .as_u64()
        .ok_or_else(|| state_err(format!("field `{key}` must be a non-negative integer")))
}

pub(crate) fn check_kind(state: &Json, want: &str) -> Result<(), EstimatorError> {
    let got = field(state, "est")?
        .as_str()
        .ok_or_else(|| state_err("field `est` must be a string"))?;
    if got != want {
        return Err(state_err(format!(
            "state is for estimator {got:?}, not {want:?}"
        )));
    }
    Ok(())
}

/// Running left folds behind [`WeightDiagnostics`] — `Σw`, `Σw²`, the
/// zero count and the running max — in push order.
#[derive(Debug, Clone)]
pub(crate) struct WeightAcc {
    n: usize,
    sum: f64,
    sum_sq: f64,
    zeros: usize,
    max: f64,
}

impl WeightAcc {
    pub(crate) fn new() -> Self {
        Self {
            n: 0,
            sum: -0.0,
            sum_sq: -0.0,
            zeros: 0,
            max: f64::NEG_INFINITY,
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, w: f64) {
        self.n += 1;
        self.sum += w;
        self.sum_sq += w * w;
        self.zeros += usize::from(w == 0.0);
        self.max = f64::max(self.max, w);
    }

    pub(crate) fn diagnostics(&self) -> WeightDiagnostics {
        WeightDiagnostics {
            n: self.n,
            mean_weight: self.sum / self.n as f64,
            max_weight: self.max,
            effective_sample_size: if self.sum_sq > 0.0 {
                self.sum * self.sum / self.sum_sq
            } else {
                0.0
            },
            zero_weight_fraction: self.zeros as f64 / self.n as f64,
        }
    }

    fn state_save(&self) -> Json {
        Json::object(vec![
            ("n", Json::Int(self.n as i64)),
            ("sum", bits(self.sum)),
            ("sum_sq", bits(self.sum_sq)),
            ("zeros", Json::Int(self.zeros as i64)),
            ("max", bits(self.max)),
        ])
    }

    fn state_load(state: &Json) -> Result<Self, EstimatorError> {
        Ok(Self {
            n: uint(state, "n")? as usize,
            sum: unbits(state, "sum")?,
            sum_sq: unbits(state, "sum_sq")?,
            zeros: uint(state, "zeros")? as usize,
            max: unbits(state, "max")?,
        })
    }
}

/// The accumulator every engine folds rows into. Each sum is a left fold
/// in record order, so the state is O(1) in the records folded; only a
/// multi-row unit still in flight (fewer than `horizon` SeqDR steps) is
/// kept row by row.
#[derive(Debug, Clone)]
pub struct Fold {
    /// Records offered, including skipped ones and pending steps.
    pub(crate) seen: usize,
    /// Units folded into the value: records, or SeqDR trajectories.
    pub(crate) n: usize,
    /// `Σ` of the folded terms (`Γ`, or `h·Γ` when stabilized).
    sum: f64,
    /// Weight diagnostics over the folded rows.
    acc: WeightAcc,
    /// Welford moments of the folded terms: the streaming engine's
    /// any-time variance view (offline folds skip it).
    moments: Option<Welford>,
    abs_residual_sum: f64,
    clipped: usize,
    /// `Σ h` and the EMA of past squared weights behind the next `h`.
    hsum: f64,
    ema: f64,
    pending: Vec<Row>,
}

impl Fold {
    /// An empty offline fold.
    pub(crate) fn new() -> Self {
        Self {
            seen: 0,
            n: 0,
            sum: -0.0,
            acc: WeightAcc::new(),
            moments: None,
            abs_residual_sum: 0.0,
            clipped: 0,
            hsum: -0.0,
            ema: 1.0,
            pending: Vec::new(),
        }
    }

    /// An empty streaming fold, which also tracks the term moments.
    pub(crate) fn streaming() -> Self {
        Self {
            moments: Some(Welford::new()),
            ..Self::new()
        }
    }

    /// Offers record `s` to `kernel`. Returns the term of the unit it
    /// completed, if any. An error leaves the fold untouched.
    #[inline]
    pub(crate) fn push<K: Kernel, S: Source>(
        &mut self,
        kernel: &K,
        s: &S,
    ) -> Result<Option<f64>, EstimatorError> {
        let row = kernel.row(s)?;
        self.seen += 1;
        let Some(row) = row else { return Ok(None) };
        let norm = kernel.norm();
        if kernel.horizon() == 1 {
            return Ok(Some(self.fold_unit(&[row], row.gamma, norm)));
        }
        self.pending.push(row);
        if self.pending.len() < kernel.horizon() {
            return Ok(None);
        }
        let mut steps = std::mem::take(&mut self.pending);
        let term = self.fold_unit(&steps, kernel.finish(&steps), norm);
        steps.clear();
        self.pending = steps;
        Ok(Some(term))
    }

    /// Folds one completed unit with contribution `gamma`; returns the
    /// term added to the value sum.
    #[inline]
    pub(crate) fn fold_unit(&mut self, steps: &[Row], gamma: f64, norm: Norm) -> f64 {
        for r in steps {
            self.acc.push(r.w);
            self.abs_residual_sum += r.residual.abs();
            self.clipped += usize::from(r.clipped);
        }
        let term = match norm {
            Norm::Stabilized(mode) => {
                // h sees only past weights; the tracker advances afterward.
                let h = mode.h_at(self.ema);
                self.ema = AdaptiveWeights::advance(self.ema, steps[0].w);
                self.hsum += h;
                h * gamma
            }
            Norm::Count | Norm::Weight => gamma,
        };
        self.sum += term;
        if let Some(m) = &mut self.moments {
            m.push(term);
        }
        self.n += 1;
        term
    }

    fn den(&self, norm: Norm) -> f64 {
        match norm {
            Norm::Count => self.n as f64,
            Norm::Weight => self.acc.sum,
            Norm::Stabilized(_) => self.hsum,
        }
    }

    /// `Σ term / den`, or `NoUsableRecords` when nothing was folded or the
    /// normalizing mass is not positive.
    pub(crate) fn value(&self, norm: Norm) -> Result<f64, EstimatorError> {
        let den = self.den(norm);
        if self.n == 0 || den <= 0.0 {
            return Err(EstimatorError::NoUsableRecords);
        }
        Ok(self.sum / den)
    }

    /// Weight diagnostics over the folded rows.
    pub(crate) fn diagnostics(&self) -> WeightDiagnostics {
        self.acc.diagnostics()
    }

    /// `Σ|residual|` per folded row.
    pub(crate) fn mean_abs_residual(&self) -> f64 {
        self.abs_residual_sum / self.acc.n.max(1) as f64
    }

    /// Fraction of folded rows whose raw weight crossed the threshold.
    pub(crate) fn clip_rate(&self) -> f64 {
        self.clipped as f64 / self.acc.n.max(1) as f64
    }

    /// The stabilizer mass `Σ h`.
    pub(crate) fn hsum(&self) -> f64 {
        self.hsum
    }

    /// Running weight diagnostics and term moments, then `extras`; just
    /// `n = 0` before the first folded row.
    pub(crate) fn health(&self, extras: Vec<(&'static str, f64)>) -> Vec<(&'static str, f64)> {
        if self.acc.n == 0 {
            return vec![("n", 0.0)];
        }
        let d = self.acc.diagnostics();
        let mut metrics = vec![
            ("n", self.acc.n as f64),
            ("ess", d.effective_sample_size),
            ("max_weight", d.max_weight),
            ("mean_weight", d.mean_weight),
            ("zero_weight_fraction", d.zero_weight_fraction),
        ];
        if let Some(m) = &self.moments {
            let count = m.count();
            let standard_error = if count < 2 {
                0.0
            } else {
                (m.variance() / count as f64).sqrt()
            };
            metrics.extend([
                ("contribution_mean", m.mean()),
                ("contribution_variance", m.variance()),
                ("standard_error", standard_error),
            ]);
        }
        metrics.extend(extras);
        metrics
    }

    /// Serializes the fold, tagged with the estimator's name.
    pub(crate) fn state_save(&self, est: &str) -> Json {
        let pending = self.pending.iter().map(|r| {
            Json::Array(vec![
                bits(r.w),
                bits(r.gamma),
                bits(r.dm),
                bits(r.residual),
                Json::Bool(r.clipped),
            ])
        });
        Json::object(vec![
            ("est", Json::str(est)),
            ("seen", Json::Int(self.seen as i64)),
            ("n", Json::Int(self.n as i64)),
            ("sum", bits(self.sum)),
            ("acc", self.acc.state_save()),
            (
                "moments",
                self.moments.as_ref().map_or(Json::Null, |m| {
                    let (n, mean, m2, min, max) = m.to_raw();
                    Json::object(vec![
                        ("n", Json::Int(n as i64)),
                        ("mean", bits(mean)),
                        ("m2", bits(m2)),
                        ("min", bits(min)),
                        ("max", bits(max)),
                    ])
                }),
            ),
            ("abs_residual_sum", bits(self.abs_residual_sum)),
            ("clipped", Json::Int(self.clipped as i64)),
            ("hsum", bits(self.hsum)),
            ("ema", bits(self.ema)),
            ("pending", Json::Array(pending.collect())),
        ])
    }

    /// Parses a fold saved by [`Fold::state_save`] for estimator `est`,
    /// whose units span `horizon` rows.
    pub(crate) fn state_load(
        state: &Json,
        est: &str,
        horizon: usize,
    ) -> Result<Self, EstimatorError> {
        check_kind(state, est)?;
        let row = |v: &Json| -> Option<Row> {
            let a = v.as_array()?;
            let f = |i: usize| a.get(i)?.as_i64().map(|b| f64::from_bits(b as u64));
            Some(Row {
                w: f(0)?,
                gamma: f(1)?,
                dm: f(2)?,
                residual: f(3)?,
                clipped: a.get(4)?.as_bool()?,
            })
        };
        let pending = field(state, "pending")?
            .as_array()
            .ok_or_else(|| state_err("field `pending` must be an array"))?
            .iter()
            .map(|v| row(v).ok_or_else(|| state_err("`pending` entries must be rows")))
            .collect::<Result<Vec<_>, _>>()?;
        if pending.len() >= horizon {
            return Err(state_err(format!(
                "pending unit holds {} steps but the horizon is {horizon}",
                pending.len()
            )));
        }
        let m = field(state, "moments")?;
        Ok(Self {
            seen: uint(state, "seen")? as usize,
            n: uint(state, "n")? as usize,
            sum: unbits(state, "sum")?,
            acc: WeightAcc::state_load(field(state, "acc")?)?,
            moments: Some(Welford::from_raw(
                uint(m, "n")?,
                unbits(m, "mean")?,
                unbits(m, "m2")?,
                unbits(m, "min")?,
                unbits(m, "max")?,
            )),
            abs_residual_sum: unbits(state, "abs_residual_sum")?,
            clipped: uint(state, "clipped")? as usize,
            hsum: unbits(state, "hsum")?,
            ema: unbits(state, "ema")?,
            pending,
        })
    }
}
