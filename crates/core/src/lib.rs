//! # ixp-core
//!
//! The analysis pipeline of *"On the Benefits of Using a Large IXP as an
//! Internet Vantage Point"* (IMC 2013), reimplemented end-to-end:
//!
//! | Paper | Module |
//! |---|---|
//! | §2.2.1 filtering cascade (Fig. 1) | [`scan`] |
//! | §2.2.2 HTTP string matching | [`http`] |
//! | §2.2.2 HTTPS crawl + validation funnel | [`census`] (with `ixp-cert`) |
//! | §2.4 meta-data assembly | [`census`] |
//! | §3 visibility (Tables 1–3, Figs 2–3) | [`snapshot`], [`visibility`] |
//! | §4 longitudinal churn (Figs 4–5) | [`longitudinal`] |
//! | §4.2 change detection (HTTPS drift, EC2, Sandy, resellers) | [`changes`] |
//! | §5.1 organization clustering | [`cluster`] |
//! | §5.2/§5.3 heterogeneity (Figs 6–7) | [`hetero`] |
//! | §3.3 blind spots | [`blindspots`] |
//! | §2.1 sampling-bias cross-check (extension) | [`bias`] |
//! | §6 baselines (port classification, AS-to-org) | [`baseline`] |
//!
//! ## Epistemic discipline
//!
//! The pipeline's inputs are the sFlow byte stream and *public* data only
//! (routing snapshot, member directory, AS graph, popularity list,
//! published range lists) plus active-measurement instruments (DNS,
//! crawler, resolvers). The synthetic model's ground truth — who owns which
//! server — is consulted exclusively by functions whose name starts with
//! `validate_`, mirroring how the authors validated against Akamai's
//! published footprint and hand-checked clusters.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::unreachable, clippy::let_underscore_must_use, clippy::unused_result_ok))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyzer;
pub mod baseline;
pub mod bias;
pub mod blindspots;
pub mod census;
pub mod changes;
pub mod cluster;
pub mod hetero;
pub mod http;
pub mod longitudinal;
pub mod report;
pub mod scan;
pub mod snapshot;
pub mod visibility;

pub use analyzer::{Analyzer, StudyReport, WeeklyReport};
pub use census::{ServerCensus, ServerRecord};
pub use scan::{Category, FilterReport, IngestHealth, WeekScan};
pub use snapshot::WeeklySnapshot;

/// Shared, lazily built fixtures so the test suite constructs the tiny
/// model / 17-week study exactly once.
#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::OnceLock;

    use ixp_faults::{FaultConfig, FaultPlan};
    use ixp_netmodel::{InternetModel, Week};

    use crate::analyzer::{Analyzer, StudyReport, WeeklyReport};
    use crate::census::ServerCensus;
    use crate::cluster::Clusters;
    use crate::scan::WeekScan;

    /// The shared tiny model.
    pub(crate) fn model() -> &'static InternetModel {
        static MODEL: OnceLock<InternetModel> = OnceLock::new();
        MODEL.get_or_init(|| InternetModel::tiny(31))
    }

    /// The shared analyzer over the tiny model.
    pub(crate) fn analyzer() -> &'static Analyzer<'static> {
        static ANALYZER: OnceLock<Analyzer<'static>> = OnceLock::new();
        ANALYZER.get_or_init(|| Analyzer::new(model()))
    }

    /// The shared full 17-week study.
    pub(crate) fn study() -> &'static StudyReport {
        static STUDY: OnceLock<StudyReport> = OnceLock::new();
        STUDY.get_or_init(|| analyzer().run_study(8))
    }

    /// The shared reference-week report.
    pub(crate) fn reference() -> &'static WeeklyReport {
        study().week(Week::REFERENCE)
    }

    /// The reference week scanned clean and through the hostile fault plan
    /// of `tests/fault_tolerance.rs`, each with its census: the inputs the
    /// report path's frozen references are compared on.
    pub(crate) fn scanned_weeks() -> &'static [(WeekScan, ServerCensus)] {
        static WEEKS: OnceLock<Vec<(WeekScan, ServerCensus)>> = OnceLock::new();
        WEEKS.get_or_init(|| {
            let a = analyzer();
            let hostile = FaultConfig {
                seed: 31,
                drop: 0.05,
                duplicate: 0.02,
                reorder: 0.02,
                truncate: 0.01,
                corrupt: 0.01,
                restarts: vec![(0, 300)],
                counter_wrap: true,
                ..FaultConfig::default()
            };
            let faulty = FaultPlan::new(a.feed(Week::REFERENCE), hostile);
            [a.scan_week(Week::REFERENCE), a.scan_week_from(Week::REFERENCE, faulty)]
                .into_iter()
                .map(|scan| {
                    let census = ServerCensus::identify(&scan, a.model, &a.dns, &a.crawl);
                    (scan, census)
                })
                .collect()
        })
    }

    /// Assert that two values render alike under their derived `Debug`
    /// (every field, floats to the last digit), naming the first line of
    /// the pretty form that differs.
    pub(crate) fn assert_same_debug<T: std::fmt::Debug>(new: &T, old: &T) {
        let (new, old) = (format!("{new:#?}"), format!("{old:#?}"));
        for (n, (new, old)) in new.lines().zip(old.lines()).enumerate() {
            assert_eq!(new, old, "line {n}");
        }
        assert_eq!(new.lines().count(), old.lines().count());
    }

    /// The shared reference-week clustering.
    pub(crate) fn clusters() -> &'static Clusters {
        static CLUSTERS: OnceLock<Clusters> = OnceLock::new();
        CLUSTERS.get_or_init(|| crate::cluster::cluster(reference(), &analyzer().dns))
    }
}
