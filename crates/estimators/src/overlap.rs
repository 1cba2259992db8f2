//! Pre-estimation overlap analysis: can this trace answer this question?
//!
//! Every §2.2.2/§4.1 failure is visible *before* estimating: if the new
//! policy concentrates on decisions the logging policy rarely took, the
//! importance weights are already determined and so is the variance.
//! [`OverlapReport`] computes that forecast — weight distribution,
//! effective sample size, unsupported mass — from just the trace and the
//! candidate policy, so an operator can refuse to trust (or to run) an
//! evaluation the data cannot support, and instead go collect the
//! randomized data the paper asks for.

use crate::estimate::{check_space, EstimatorError};
use ddn_policy::Policy;
use ddn_stats::summary::{quantile, Histogram};
use ddn_trace::Trace;

/// Overlap diagnostics between a logged trace and a candidate policy.
#[derive(Debug, Clone)]
pub struct OverlapReport {
    /// Number of records analyzed.
    pub n: usize,
    /// Forecast effective sample size `(Σw)²/Σw²` of an IPS/DR run.
    pub effective_sample_size: f64,
    /// Largest importance weight.
    pub max_weight: f64,
    /// Median importance weight.
    pub median_weight: f64,
    /// 99th-percentile importance weight.
    pub p99_weight: f64,
    /// Fraction of records with weight 0 (the new policy never takes the
    /// logged decision there).
    pub zero_weight_fraction: f64,
    /// Probability mass the new policy places on decisions **never seen**
    /// in the trace, averaged over logged contexts. Any non-zero value
    /// means part of the estimand is invisible to IPS-style correction.
    pub unsupported_mass: f64,
    /// Histogram of the weights on `[0, 10·median)` for display.
    pub weight_histogram: Histogram,
}

impl OverlapReport {
    /// Analyzes `trace` against `new_policy`.
    ///
    /// Errors if the trace lacks propensities or the decision spaces
    /// disagree.
    pub fn analyze(trace: &Trace, new_policy: &dyn Policy) -> Result<Self, EstimatorError> {
        check_space(trace.space(), new_policy.space())?;
        let k = trace.space().len();
        let mut seen = vec![false; k];
        for r in trace.records() {
            seen[r.decision.index()] = true;
        }
        let mut weights = Vec::with_capacity(trace.len());
        let mut unsupported = 0.0;
        for (i, r) in trace.records().iter().enumerate() {
            let p_old = r.require_propensity(i)?;
            weights.push(new_policy.prob(&r.context, r.decision) / p_old);
            let probs = new_policy.probabilities(&r.context);
            unsupported += probs
                .iter()
                .enumerate()
                .filter(|(d, _)| !seen[*d])
                .map(|(_, p)| p)
                .sum::<f64>();
        }
        let n = weights.len();
        let sum: f64 = weights.iter().sum();
        let sum_sq: f64 = weights.iter().map(|w| w * w).sum();
        let median = quantile(&weights, 0.5);
        let hist_hi = (10.0 * median).max(1.0);
        let mut weight_histogram = Histogram::new(0.0, hist_hi, 20);
        for &w in &weights {
            weight_histogram.record(w);
        }
        Ok(Self {
            n,
            effective_sample_size: if sum_sq > 0.0 {
                sum * sum / sum_sq
            } else {
                0.0
            },
            max_weight: weights.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            median_weight: median,
            p99_weight: quantile(&weights, 0.99),
            zero_weight_fraction: weights.iter().filter(|&&w| w == 0.0).count() as f64 / n as f64,
            unsupported_mass: unsupported / n as f64,
            weight_histogram,
        })
    }

    /// A coarse verdict: `true` when IPS/DR on this pair is statistically
    /// sane — decent effective sample size, no invisible decision mass.
    pub fn healthy(&self) -> bool {
        self.effective_sample_size >= 30.0
            && self.effective_sample_size >= 0.01 * self.n as f64
            && self.unsupported_mass < 1e-9
    }

    /// Renders the report as text.
    pub fn render(&self) -> String {
        let mut out = format!(
            "overlap over {} records:\n\
             \x20 effective sample size: {:.0} ({:.1}% of trace)\n\
             \x20 weights: median {:.3}, p99 {:.3}, max {:.3}\n\
             \x20 zero-weight fraction: {:.1}%\n\
             \x20 unsupported decision mass: {:.2}%\n",
            self.n,
            self.effective_sample_size,
            100.0 * self.effective_sample_size / self.n as f64,
            self.median_weight,
            self.p99_weight,
            self.max_weight,
            100.0 * self.zero_weight_fraction,
            100.0 * self.unsupported_mass,
        );
        out.push_str(if self.healthy() {
            "  verdict: healthy — IPS/DR estimates are statistically supportable\n"
        } else {
            "  verdict: UNHEALTHY — collect more (or more randomized) data before trusting \
             IPS/DR here\n"
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddn_policy::{EpsilonSmoothedPolicy, LookupPolicy, UniformRandomPolicy};
    use ddn_stats::rng::{Rng, Xoshiro256};
    use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace, TraceRecord};

    fn schema() -> ContextSchema {
        ContextSchema::builder().categorical("g", 2).build()
    }

    fn space() -> DecisionSpace {
        DecisionSpace::of(&["a", "b", "c"])
    }

    fn logged(policy: &dyn Policy, n: usize, seed: u64) -> Trace {
        let s = schema();
        let mut rng = Xoshiro256::seed_from(seed);
        let recs = (0..n)
            .map(|_| {
                let g = rng.index(2) as u32;
                let c = Context::build(&s).set_cat("g", g).finish();
                let (d, p) = policy.sample_with_prob(&c, &mut rng);
                TraceRecord::new(c, d, 1.0).with_propensity(p)
            })
            .collect();
        Trace::from_records(s, space(), recs).unwrap()
    }

    #[test]
    fn uniform_on_uniform_is_maximally_healthy() {
        let uni = UniformRandomPolicy::new(space());
        let t = logged(&uni, 600, 1);
        let r = OverlapReport::analyze(&t, &uni).unwrap();
        assert!((r.effective_sample_size - 600.0).abs() < 1e-6);
        assert_eq!(r.zero_weight_fraction, 0.0);
        assert_eq!(r.unsupported_mass, 0.0);
        assert!(r.healthy());
        assert!(r.render().contains("healthy"));
    }

    #[test]
    fn deterministic_target_shrinks_ess() {
        let uni = UniformRandomPolicy::new(space());
        let t = logged(&uni, 600, 2);
        let det = LookupPolicy::constant(space(), 1);
        let r = OverlapReport::analyze(&t, &det).unwrap();
        // Only ~1/3 of records match; those carry weight 3.
        assert!((r.zero_weight_fraction - 2.0 / 3.0).abs() < 0.06);
        assert!((r.max_weight - 3.0).abs() < 1e-9);
        assert!(r.effective_sample_size < 250.0);
    }

    #[test]
    fn unsupported_mass_detected() {
        // Log only decisions 0 and 1; the candidate puts weight on 2.
        let s = schema();
        let mut rng = Xoshiro256::seed_from(3);
        let recs: Vec<TraceRecord> = (0..200)
            .map(|_| {
                let c = Context::build(&s).set_cat("g", 0).finish();
                let d = rng.index(2);
                TraceRecord::new(c, Decision::from_index(d), 1.0).with_propensity(0.5)
            })
            .collect();
        let t = Trace::from_records(s, space(), recs).unwrap();
        let candidate = UniformRandomPolicy::new(space());
        let r = OverlapReport::analyze(&t, &candidate).unwrap();
        assert!((r.unsupported_mass - 1.0 / 3.0).abs() < 1e-9);
        assert!(!r.healthy());
        assert!(r.render().contains("UNHEALTHY"));
    }

    #[test]
    fn tiny_epsilon_logging_is_flagged() {
        // Production pinned to decision 0 with epsilon 0.01; candidate
        // wants decision 2: forecast ESS collapses.
        let old = EpsilonSmoothedPolicy::new(Box::new(LookupPolicy::constant(space(), 0)), 0.01);
        let t = logged(&old, 2_000, 4);
        let cand = LookupPolicy::constant(space(), 2);
        let r = OverlapReport::analyze(&t, &cand).unwrap();
        assert!(
            r.effective_sample_size < 0.01 * t.len() as f64 || !r.healthy(),
            "ess {} of {}",
            r.effective_sample_size,
            t.len()
        );
    }
}
