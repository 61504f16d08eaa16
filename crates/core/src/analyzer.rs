//! Orchestration: run the full measurement pipeline for a week or for the
//! whole 17-week study.
//!
//! The [`Analyzer`] owns the measurement instruments (DNS database, HTTPS
//! crawler, open-resolver pool) and consumes the sFlow feed produced by
//! `ixp-traffic` — the byte-level stand-in for the IXP's collector. The
//! analysis itself only ever sees encoded datagrams plus public data;
//! ground truth is used exclusively by the `validate` APIs, which are
//! clearly named as such.

use std::sync::atomic::{AtomicUsize, Ordering};

use ixp_cert::CrawlSim;
use ixp_dns::{DnsDb, ResolverPool};
use ixp_netmodel::{InternetModel, Week};
use ixp_obs::Obs;
use ixp_traffic::{MixConfig, WeekStream};

use crate::census::{ServerCensus, ServerRecord};
use crate::scan::{IngestHealth, WeekScan};
use crate::snapshot::{ServerGeo, WeeklySnapshot};

/// Registry name of one pipeline stage's duration histogram
/// (`core_stage_duration_ns{stage="..."}`). Exposed so orchestration code
/// outside this crate (the `repro` harness, benches) can time its own
/// stages — longitudinal churn, clustering, visibility tables — into the
/// same family.
pub fn stage_metric(stage: &str) -> String {
    format!("core_stage_duration_ns{{stage=\"{stage}\"}}")
}

/// The result of analysing one week.
#[derive(Debug)]
pub struct WeeklyReport {
    /// Aggregates for the tables/figures.
    pub snapshot: WeeklySnapshot,
    /// The identified servers with their meta-data.
    pub census: ServerCensus,
    /// Ingest-stream health (loss, duplicates, restarts, decode errors).
    pub health: IngestHealth,
}

impl WeeklyReport {
    /// Each identified server with its geo attributes, in census order: the
    /// one walk that pairs `census.records` with `snapshot.server_geo`.
    pub(crate) fn servers(&self) -> impl Iterator<Item = (&ServerRecord, Option<ServerGeo>)> {
        self.census.records.iter().zip(self.snapshot.server_geo.iter().copied())
    }
}

/// The full study: one report per week, in week order.
#[derive(Debug)]
pub struct StudyReport {
    /// Weekly reports for weeks 35–51.
    pub weeks: Vec<WeeklyReport>,
}

impl StudyReport {
    /// Report for one week, if the study reaches it.
    pub(crate) fn week(&self, week: Week) -> Option<&WeeklyReport> {
        self.weeks.get(week.index())
    }

    /// The reference-week report (week 45), if the study reaches it.
    pub fn reference(&self) -> Option<&WeeklyReport> {
        self.week(Week::REFERENCE)
    }
}

/// The analysis harness.
pub struct Analyzer<'m> {
    /// The synthetic Internet (public fields only, except in `validate`).
    pub model: &'m InternetModel,
    /// The live-DNS stand-in.
    pub dns: DnsDb,
    /// The HTTPS crawler.
    pub crawl: CrawlSim,
    /// The vetted open-resolver pool.
    pub resolvers: ResolverPool,
    /// Traffic mix used when regenerating the feed.
    pub mix: MixConfig,
    /// The observability bundle every stage publishes into: per-week scans
    /// (`sflow_*`/`wire_*`), the crawler and resolver pool (`cert_*`/
    /// `dns_*`), and the pipeline's own stage timings
    /// (`core_stage_duration_ns{stage="..."}`).
    pub obs: Obs,
}

impl<'m> Analyzer<'m> {
    /// Build the instruments for a model, with a deterministic (frozen
    /// test clock) observability bundle.
    pub fn new(model: &'m InternetModel) -> Analyzer<'m> {
        Analyzer::with_obs(model, Obs::deterministic())
    }

    /// Build the instruments for a model, publishing metrics into `obs`.
    pub fn with_obs(model: &'m InternetModel, obs: Obs) -> Analyzer<'m> {
        let mut crawl = CrawlSim::build(model, model.seed);
        crawl.bind_obs(&obs);
        let mut resolvers = ResolverPool::build(model, model.seed);
        resolvers.bind_obs(&obs);
        Analyzer {
            model,
            dns: DnsDb::build(model),
            crawl,
            resolvers,
            mix: MixConfig::default(),
            obs,
        }
    }

    /// The sFlow feed for a week (deterministic; can be re-streamed for
    /// second-pass analyses such as Fig. 7).
    pub fn feed(&self, week: Week) -> WeekStream<'m> {
        WeekStream::new(self.model, self.mix.clone(), week, self.model.seed)
    }

    /// Scan one week's feed.
    pub fn scan_week(&self, week: Week) -> WeekScan {
        self.scan_week_from(week, self.feed(week))
    }

    /// Scan a week from an arbitrary datagram stream — the hook for
    /// perturbed feeds (`ixp-faults::FaultPlan`) and replay harnesses. The
    /// collector inside [`WeekScan`] absorbs whatever the stream does.
    pub fn scan_week_from<I>(&self, week: Week, feed: I) -> WeekScan
    where
        I: Iterator<Item = Vec<u8>>,
    {
        let members = self.model.registry.members_at(week).len() as u32;
        let mut scan = WeekScan::with_obs(week, members, &self.obs);
        self.obs.time(&stage_metric("scan"), || {
            for datagram in feed {
                scan.ingest(&datagram);
            }
        });
        scan.publish();
        scan
    }

    /// Finish the weekly pipeline from a completed scan: identify →
    /// aggregate → health. A helper thread starts the snapshot's peering
    /// walk while the caller runs the census, and the caller then takes a
    /// share of what is left of the walk; the server view, which needs the
    /// census, follows on the caller. So the `snapshot` stage spans the
    /// `census` one.
    pub fn report_from_scan(&self, scan: WeekScan) -> WeeklyReport {
        let (snapshot, census) = self.obs.time(&stage_metric("snapshot"), || {
            WeeklySnapshot::build_beside(&scan, self.model, || {
                self.obs.time(&stage_metric("census"), || {
                    ServerCensus::identify(&scan, self.model, &self.dns, &self.crawl)
                })
            })
        });
        WeeklyReport { snapshot, census, health: scan.ingest_health() }
    }

    /// Run the full weekly pipeline: scan → identify → aggregate.
    pub fn run_week(&self, week: Week) -> WeeklyReport {
        self.report_from_scan(self.scan_week(week))
    }

    /// Run all 17 weeks, processing up to `parallelism` weeks concurrently.
    /// The week list is fixed up front, so workers claim the next index
    /// from a shared counter and return their `(index, report)` pairs
    /// through their join handles; a worker panic is re-raised here.
    pub fn run_study(&self, parallelism: usize) -> StudyReport {
        let weeks: Vec<Week> = Week::all().collect();
        let next = AtomicUsize::new(0);
        let mut reports: Vec<(usize, WeeklyReport)> = std::thread::scope(|scope| {
            let pool: Vec<_> = (0..parallelism.max(1).min(weeks.len()))
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(week) = weeks.get(i) else { break mine };
                            mine.push((i, self.run_week(*week)));
                        }
                    })
                })
                .collect();
            pool.into_iter()
                .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        reports.sort_by_key(|(i, _)| *i);
        StudyReport { weeks: reports.into_iter().map(|(_, report)| report).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::Category;
    use crate::testutil;

    #[test]
    fn weekly_pipeline_produces_coherent_report() {
        let report = testutil::reference();

        // The cascade saw traffic in every major category.
        let total = report.snapshot.filter.total();
        assert!(total.bytes > 0);
        let peering = report.snapshot.filter.peering();
        assert!(peering.bytes > 0);
        // Peering dominates (paper: ≈ 98.5 %).
        let share = peering.share_of(&total);
        assert!(share > 90.0, "peering share {share:.1}");

        // Servers were identified and carry traffic.
        assert!(!report.census.is_empty());
        assert!(report.snapshot.server.ips > 0);
        assert!(report.snapshot.server.bytes > 0);

        // TCP beats UDP.
        let tcp = report.snapshot.filter.get(Category::PeeringTcp);
        let udp = report.snapshot.filter.get(Category::PeeringUdp);
        assert!(tcp.bytes > udp.bytes);

        // HTTPS funnel shrinks monotonically.
        let h = report.snapshot.https;
        assert!(h.candidates >= h.responders);
        assert!(h.responders >= h.confirmed);
        assert!(h.confirmed > 0, "no HTTPS servers confirmed");

        // Meta-data coverage is partial but substantial.
        let cov = report.snapshot.coverage;
        assert!(cov.any <= cov.total);
        assert!(cov.pct(cov.any) > 50.0);
        assert!(cov.pct(cov.dns) > 30.0);
    }

    #[test]
    fn localities_partition_each_metric() {
        let report = testutil::reference();
        let s = &report.snapshot;
        assert_eq!(s.peering_locality.ips.iter().sum::<u64>(), s.peering.ips);
        assert_eq!(s.peering_locality.ases.iter().sum::<u64>(), s.peering.ases);
        assert_eq!(s.peering_locality.prefixes.iter().sum::<u64>(), s.peering.prefixes);
        assert_eq!(s.server_locality.ips.iter().sum::<u64>(), s.server.ips);
        let shares = s.peering_locality.shares(|l| l.ips);
        assert!((shares.iter().sum::<f64>() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn study_runs_all_weeks_and_is_deterministic_per_week() {
        let study = testutil::study();
        assert_eq!(study.weeks.len(), Week::COUNT);
        // Parallel study result for the reference week matches a direct run.
        let direct = testutil::analyzer().run_week(Week::REFERENCE);
        let via_study = study.reference().unwrap();
        assert_eq!(direct.census.len(), via_study.census.len());
        assert_eq!(direct.snapshot.peering.ips, via_study.snapshot.peering.ips);
        assert_eq!(direct.snapshot.filter.total(), via_study.snapshot.filter.total());
    }

    #[test]
    fn reports_of_one_scan_render_alike_however_the_walk_splits() {
        // Every restore draws a new hasher, so each report walks the table
        // in another order and the two workers split it differently.
        let a = testutil::analyzer();
        let state = testutil::scanned_weeks()[1].0.save_state();
        let render =
            |r: &WeeklyReport| format!("{:#?}{:#?}{:#?}", r.snapshot, r.census.records, r.health);
        let first = render(&a.report_from_scan(WeekScan::restore_state(&state).unwrap()));
        for _ in 1..20 {
            let again = a.report_from_scan(WeekScan::restore_state(&state).unwrap());
            assert!(render(&again) == first, "a report of the same scan rendered differently");
        }
    }

    #[test]
    fn clean_feed_reports_healthy_ingest() {
        let report = testutil::reference();
        let h = &report.health;
        assert!(h.fully_accounted());
        assert!(h.collector.datagrams > 0);
        assert_eq!(h.collector.lost, 0);
        assert_eq!(h.collector.duplicates, 0);
        assert_eq!(h.collector.restarts, 0);
        assert_eq!(h.collector.decode_errors.total(), 0);
        assert!(h.loss_pct().abs() < 1e-9);
        assert!((h.compensation_factor() - 1.0).abs() < 1e-9);
        assert!(h.collector.sources > 0);
    }

    #[test]
    fn member_count_tracks_growth() {
        let study = testutil::study();
        let a = study.week(Week::FIRST).unwrap();
        let b = study.week(Week::LAST).unwrap();
        assert!(b.snapshot.member_count > a.snapshot.member_count);
    }
}
