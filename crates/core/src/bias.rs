//! Sampling-bias cross-check.
//!
//! The study leans on the fact that the IXP's 1-in-16K random sampling is
//! unbiased (paper §2.1, deferring to the Anatomy paper). A deployment can
//! check that property itself: the switches also export **interface
//! counters** — exact per-port octet totals — against which the
//! sample-scaled estimates can be compared. This module runs that
//! comparison over a week's feed: for every member port, the flow-sample
//! estimate of sourced octets vs. the port's own `if_in_octets`.

#![deny(clippy::disallowed_types)]

use std::collections::BTreeMap;

use ixp_netmodel::Week;
use ixp_sflow::Datagram;
use ixp_wire::dissect::Dissection;

use crate::analyzer::Analyzer;
use crate::scan::member_of;

/// Outcome of the bias check for one week.
#[derive(Debug, Clone)]
pub struct BiasReport {
    /// Per member port: (estimated octets, true counter octets).
    pub ports: Vec<(u32, u64, u64)>,
    /// Mean absolute relative error over ports with counters.
    pub mean_abs_rel_error: f64,
    /// Worst port's relative error.
    pub max_abs_rel_error: f64,
    /// Signed mean relative error (≈ 0 for an unbiased sampler).
    pub mean_signed_rel_error: f64,
}

/// Compare flow-sample estimates against interface counters for one week.
pub fn sampling_bias_check(analyzer: &Analyzer<'_>, week: Week) -> BiasReport {
    let mut estimates: BTreeMap<u32, u64> = BTreeMap::new();
    let mut truth: BTreeMap<u32, u64> = BTreeMap::new();
    for bytes in analyzer.feed(week) {
        let Ok(dg) = Datagram::decode(&bytes) else { continue };
        for sample in &dg.samples {
            let Ok(d) = Dissection::parse(&sample.record.header) else { continue };
            if let Some(m) = member_of(d.src_mac) {
                *estimates.entry(m.0).or_default() +=
                    u64::from(sample.sampling_rate) * u64::from(sample.record.frame_length);
            }
        }
        for counter in &dg.counters {
            let slot = truth.entry(counter.source_id).or_default();
            *slot = (*slot).max(counter.if_in_octets);
        }
    }

    let mut ports = Vec::new();
    let mut abs_sum = 0.0;
    let mut signed_sum = 0.0;
    let mut max_abs = 0.0f64;
    for (port, true_octets) in &truth {
        let est = estimates.get(port).copied().unwrap_or(0);
        let rel = (est as f64 - *true_octets as f64) / (*true_octets as f64).max(1.0);
        abs_sum += rel.abs();
        signed_sum += rel;
        max_abs = max_abs.max(rel.abs());
        ports.push((*port, est, *true_octets));
    }
    ports.sort_by_key(|(p, ..)| *p);
    let n = ports.len().max(1) as f64;
    BiasReport {
        ports,
        mean_abs_rel_error: abs_sum / n,
        max_abs_rel_error: max_abs,
        mean_signed_rel_error: signed_sum / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    #[test]
    fn sampling_is_unbiased_within_tolerance() {
        let report = sampling_bias_check(testutil::analyzer(), Week::REFERENCE);
        assert!(!report.ports.is_empty(), "no counters in the feed");
        // The per-sample frame-count realization is uniform around the
        // rate, so the aggregate estimate must be nearly unbiased...
        assert!(
            report.mean_signed_rel_error.abs() < 0.05,
            "signed bias {:.4}",
            report.mean_signed_rel_error
        );
        // ...and the per-port spread stays modest for busy ports.
        assert!(
            report.mean_abs_rel_error < 0.20,
            "mean abs error {:.4}",
            report.mean_abs_rel_error
        );
    }

    #[test]
    fn estimates_and_truth_are_correlated() {
        let report = sampling_bias_check(testutil::analyzer(), Week::REFERENCE);
        // The busiest port by estimate is also the busiest by counters.
        let by_est = report.ports.iter().max_by_key(|(_, e, _)| *e).unwrap();
        let by_truth = report.ports.iter().max_by_key(|(_, _, t)| *t).unwrap();
        assert_eq!(by_est.0, by_truth.0, "head ports disagree");
    }
}
