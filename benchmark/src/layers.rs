//! The traced run (`--trace 1`): the per-layer metrics.
//!
//! Each round calls every layer alone, from here, over the same
//! pre-materialised bytes the end-to-end run ingests, with a span around
//! each call (one per segment per layer). A layer's `ns_per_*` is
//! fastest-by-segment over its spans, like the end-to-end values. Counts
//! (allocations, ledger buckets, sizes) are exact and taken once, outside
//! the timed rounds. The spans go to `out/trace-<workload>.json`.
//!
//! The decomposition of `WeekScan::ingest` — `Collector::ingest`, then
//! `WeekScan::ingest_sample` per sample — is made of the same public calls
//! `ingest` itself makes, phase by phase over a segment instead of datagram
//! by datagram; `trace.overhead_pct` is what that costs.

use std::hint::black_box;

use ixp_core::scan::member_of;
use ixp_core::{cluster, http, ServerCensus, WeekScan, WeeklyReport, WeeklySnapshot};
use ixp_netmodel::Week;
use ixp_obs::{AuditScope, Auditor, Journal, Obs};
use ixp_sflow::{Collector, Datagram, Ingest};
use ixp_supervisor::{envelope, IntakeRing, Supervisor, SupervisorConfig};
use ixp_transport::{
    ipfix, netflow5, netflow9, Drained, Link as _, MemLink, TransportConfig, TransportIntake,
};
use ixp_wire::dissect::{Dissection, Network, Transport};

use crate::alloc;
use crate::e2e::{Outcome, RunConfig};
use crate::pipeline::{render, segments, Pipeline, Sealed, Tables};
use crate::timing::{now_ns, schedstat};
use crate::trace::{SpanId, Tracer};
use crate::workload::{generate_model, setup_once, Inputs, SetupTimes, Workload};

/// Back-to-back calls per span of a microsecond-scale operation.
const SMALL_REPS: usize = 32;

/// A span around [`SMALL_REPS`] back-to-back calls of a microsecond-scale
/// `f`; the last result is returned.
fn small_span<T>(
    tracer: &mut Tracer,
    name: &'static str,
    parent: Option<SpanId>,
    mut f: impl FnMut() -> T,
) -> T {
    tracer.span(name, 0, parent, || {
        for _ in 1..SMALL_REPS {
            black_box(f());
        }
        f()
    })
}

/// Packets offered to a bare intake between drains (the live path pumps 64
/// at a time; a few more per span keeps clock reads out of the numbers).
const OFFER_BATCH: usize = 256;

/// One row of the layer table `--render` prints.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub layer: &'static str,
    /// Time per datagram offered at the workload's entry point.
    pub ns_per_datagram: f64,
    /// Share of the whole untraced pass.
    pub share_pct: f64,
    pub allocs_per_datagram: f64,
    /// The end-to-end metric the layer feeds.
    pub feeds: &'static str,
}

/// The protocols the intake dispatches on: span name of the per-protocol
/// drain, the metric it yields, and the leading version tag.
const PROTOCOLS: [(&str, &str, u16); 4] = [
    (
        "transport.drain_sflow",
        "transport.drain_sflow_ns_per_packet",
        0,
    ),
    (
        "transport.drain_v5",
        "transport.drain_v5_ns_per_packet",
        netflow5::VERSION,
    ),
    (
        "transport.drain_v9",
        "transport.drain_v9_ns_per_packet",
        netflow9::VERSION,
    ),
    (
        "transport.drain_ipfix",
        "transport.drain_ipfix_ns_per_packet",
        ipfix::VERSION,
    ),
];

/// The leading version field the intake dispatches on.
fn version_tag(packet: &[u8]) -> Option<u16> {
    packet.get(..2).map(|b| u16::from_be_bytes([b[0], b[1]]))
}

/// The payload `WeekScan::ingest_sample` hands to `http::classify`: that of
/// a TCP frame between two distinct active member ports (a mirror of the
/// scan's private peering test, so the isolated classify loop sees exactly
/// the payloads the scan classifies).
fn classified_payload<'a>(d: &Dissection<'a>, members: u32) -> Option<&'a [u8]> {
    let Network::Ipv4 {
        transport: Transport::Tcp { .. },
        payload,
        ..
    } = &d.network
    else {
        return None;
    };
    let src = member_of(d.src_mac).filter(|m| m.0 < members)?;
    let dst = member_of(d.dst_mac).filter(|m| m.0 < members)?;
    (src != dst).then_some(*payload)
}

/// Exact counts, taken once over whole untimed passes.
#[derive(Default)]
struct Counts {
    sflow_datagrams: u64,
    samples: u64,
    dissect_ok: u64,
    payloads: u64,
    http_matches: u64,
    collector_allocs: (u64, u64),
    sample_allocs: u64,
    scan_allocs: u64,
    scan_heap_bytes: u64,
    transport_allocs: (u64, u64),
    supervisor_allocs: u64,
    proto_packets: [u64; 4],
    flows: u64,
}

/// The sFlow datagrams that reach the collector: the whole feed on the
/// direct path, what the intake passes through on the live path.
fn sflow_of<'a>(inputs: &'a Inputs<'_>, live: bool, passed: &'a mut Vec<Vec<u8>>) -> Vec<&'a [u8]> {
    if !live {
        return inputs.feed.iter().map(|(_, d)| d.as_slice()).collect();
    }
    let mut intake = TransportIntake::new(TransportConfig::default());
    for batch in inputs.feed.chunks(OFFER_BATCH) {
        for (peer, packet) in batch {
            intake.offer(*peer, packet);
        }
        for unit in intake.drain(usize::MAX) {
            if let Drained::Sflow { datagram, .. } = unit {
                passed.push(datagram);
            }
        }
    }
    passed.iter().map(Vec::as_slice).collect()
}

fn count_everything(inputs: &Inputs<'_>, sflow: &[&[u8]], live: bool) -> Counts {
    let mut c = Counts {
        sflow_datagrams: sflow.len() as u64,
        ..Counts::default()
    };
    let week = Week::REFERENCE;

    let mut collector = Collector::new();
    let (decoded, allocs, bytes) = alloc::count(|| {
        let mut decoded = Vec::with_capacity(sflow.len());
        for bytes in sflow {
            if let Ingest::Accepted(dg) = collector.ingest(bytes) {
                decoded.push(dg);
            }
        }
        decoded
    });
    c.collector_allocs = (allocs, bytes);

    let mut scan = WeekScan::new(week, inputs.members);
    let ((), allocs, _) = alloc::count(|| {
        for s in decoded.iter().flat_map(|dg| &dg.samples) {
            scan.ingest_sample(s.sampling_rate, s.record.frame_length, &s.record.header);
        }
    });
    c.sample_allocs = allocs;
    drop(scan);

    for s in decoded.iter().flat_map(|dg| &dg.samples) {
        c.samples += 1;
        if let Ok(d) = Dissection::parse(&s.record.header) {
            c.dissect_ok += 1;
            if let Some(payload) = classified_payload(&d, inputs.members) {
                c.payloads += 1;
                c.http_matches += u64::from(http::classify(payload) != http::HttpEvidence::None);
            }
        }
    }
    drop(decoded);

    let before = alloc::read().live;
    let (scan, allocs, _) = alloc::count(|| {
        let mut scan = WeekScan::new(week, inputs.members);
        for bytes in sflow {
            scan.ingest(bytes);
        }
        scan
    });
    c.scan_allocs = allocs;
    c.scan_heap_bytes = alloc::read().live.saturating_sub(before);
    drop(scan);

    if live {
        let mut intake = TransportIntake::new(TransportConfig::default());
        let ((), allocs, bytes) = alloc::count(|| {
            for batch in inputs.feed.chunks(OFFER_BATCH) {
                for (peer, packet) in batch {
                    intake.offer(*peer, packet);
                }
                black_box(intake.drain(usize::MAX));
            }
        });
        c.transport_allocs = (allocs, bytes);
        c.flows = intake.finish().flows;
        for (_, packet) in &inputs.feed {
            if let Some(i) = PROTOCOLS
                .iter()
                .position(|(.., tag)| version_tag(packet) == Some(*tag))
            {
                c.proto_packets[i] += 1;
            }
        }

        let owned: Vec<Vec<u8>> = sflow.iter().map(|d| d.to_vec()).collect();
        let mut sup = Supervisor::new(
            WeekScan::new(week, inputs.members),
            SupervisorConfig::default(),
        );
        let ((), allocs, _) = alloc::count(|| {
            for datagram in owned {
                sup.offer(datagram);
            }
            sup.finish();
        });
        // The supervisor's own allocations: what the pass adds to the scan's.
        c.supervisor_allocs = allocs.saturating_sub(c.scan_allocs);
    }
    c
}

/// The state one round leaves behind for the checks.
struct RoundState {
    /// The real entry-path pipeline of this round, fed and sealed.
    sealed: Sealed,
    breaches: u64,
    /// Unique IPs the decomposed (traced) scan found; must match the real one.
    traced_unique_ips: usize,
    /// Size of `WeekScan::save_state` of the complete scan.
    scan_state_bytes: usize,
}

/// One traced round: every layer alone, segment by segment, then the
/// unsegmented state and analysis operations.
fn traced_round(
    inputs: &Inputs<'_>,
    sflow: &[&[u8]],
    live: bool,
    tracer: &mut Tracer,
) -> Result<RoundState, String> {
    let week = Week::REFERENCE;
    let members = inputs.members;
    let config = SupervisorConfig::default();
    let root = tracer.open("round", 0, None);
    let top = Some(root);

    // The untraced pass over the workload's real entry point.
    let mut real = Pipeline::new(inputs, live);
    // The decomposed pass, and the scans and supervisors compared with it.
    let mut collector = Collector::new();
    let mut traced_scan = WeekScan::new(week, members);
    let mut plain_scan = WeekScan::new(week, members);
    let mut twin_scan = WeekScan::new(week, members);
    let attached_obs = Obs::real();
    let mut attached_scan = WeekScan::with_obs(week, members, &attached_obs);
    let mut sup = Supervisor::new(WeekScan::new(week, members), config);
    let mut twin_sup = Supervisor::new(WeekScan::new(week, members), config);
    let mut journal_sup = Supervisor::new(WeekScan::new(week, members), config);
    let journal = Journal::with_capacity(
        ixp_obs::journal::DEFAULT_CAPACITY,
        attached_obs.clock.clone(),
    );
    journal_sup.bind_journal(journal);
    let mut ring = IntakeRing::new(config.ring_capacity);
    let mut intake = TransportIntake::new(TransportConfig::default());
    let mut by_protocol: Vec<TransportIntake> = PROTOCOLS
        .iter()
        .map(|_| TransportIntake::new(TransportConfig::default()))
        .collect();

    let feed_segments: Vec<&[(u64, Vec<u8>)]> = segments(&inputs.feed).collect();
    let sflow_segments: Vec<&[&[u8]]> = segments(sflow).collect();
    for (seg, packets) in feed_segments.iter().enumerate() {
        let pass = tracer.open("pass.untraced", seg, top);
        let ns = real.ingest_timed(packets);
        tracer.close_timed(pass, ns);

        if live {
            let mut link = MemLink::new();
            for (peer, packet) in packets.iter() {
                link.send(*peer, packet).expect("MemLink::send cannot fail");
            }
            tracer.span("transport.link_recv", seg, top, || {
                while let Ok(Some(unit)) = link.recv() {
                    black_box(unit);
                }
            });
            for batch in packets.chunks(OFFER_BATCH) {
                tracer.span("transport.offer", seg, top, || {
                    for (peer, packet) in batch {
                        intake.offer(*peer, packet);
                    }
                });
                tracer.span("transport.drain", seg, top, || {
                    black_box(intake.drain(usize::MAX))
                });
            }
            for ((name, _, tag), intake) in PROTOCOLS.iter().zip(&mut by_protocol) {
                let mine: Vec<&(u64, Vec<u8>)> = packets
                    .iter()
                    .filter(|(_, p)| version_tag(p) == Some(*tag))
                    .collect();
                for batch in mine.chunks(OFFER_BATCH) {
                    for (peer, packet) in batch {
                        intake.offer(*peer, packet);
                    }
                    tracer.span(name, seg, top, || black_box(intake.drain(usize::MAX)));
                }
            }
        }
    }

    for (seg, datagrams) in sflow_segments.iter().enumerate() {
        let last = seg + 1 == sflow_segments.len();
        // WeekScan::ingest, decomposed: collector, then samples.
        let whole = tracer.open("pass.traced", seg, top);
        let decoded: Vec<Datagram> = tracer.span("sflow.collector", seg, Some(whole), || {
            let mut decoded = Vec::with_capacity(datagrams.len());
            for bytes in datagrams.iter() {
                if let Ingest::Accepted(dg) = collector.ingest(bytes) {
                    decoded.push(dg);
                }
            }
            decoded
        });
        tracer.span("core.scan.ingest_sample", seg, Some(whole), || {
            for s in decoded.iter().flat_map(|dg| &dg.samples) {
                traced_scan.ingest_sample(s.sampling_rate, s.record.frame_length, &s.record.header);
            }
        });
        tracer.close(whole);

        // The layers below the scan, alone.
        tracer.span("wire.dissect", seg, top, || {
            for s in decoded.iter().flat_map(|dg| &dg.samples) {
                let _ = black_box(Dissection::parse(&s.record.header));
            }
        });
        let payloads: Vec<&[u8]> = decoded
            .iter()
            .flat_map(|dg| &dg.samples)
            .filter_map(|s| Dissection::parse(&s.record.header).ok())
            .filter_map(|d| classified_payload(&d, members))
            .collect();
        tracer.span("core.http.classify", seg, top, || {
            for payload in &payloads {
                black_box(http::classify(payload));
            }
        });
        drop(payloads);
        drop(decoded);
        tracer.span("sflow.decode", seg, top, || {
            for bytes in datagrams.iter() {
                let _ = black_box(Datagram::decode(bytes));
            }
        });

        // WeekScan::ingest itself; on the live workload also its twin (the
        // A/A noise of the comparison) and the obs-attached scan.
        let ingest = |scan: &mut WeekScan| {
            for bytes in datagrams.iter() {
                scan.ingest(bytes);
            }
        };
        tracer.span("core.scan.ingest", seg, top, || ingest(&mut plain_scan));
        if live {
            tracer.span("obs.scan_twin", seg, top, || ingest(&mut twin_scan));
            tracer.span("obs.scan_attached", seg, top, || ingest(&mut attached_scan));

            // The supervisor around the same bytes (its own copies, made
            // outside the spans: `offer` takes ownership), its twin, and
            // one with a live journal; then the ring alone.
            let offer_all = |name, sup: &mut Supervisor, tracer: &mut Tracer| {
                let owned: Vec<Vec<u8>> = datagrams.iter().map(|d| d.to_vec()).collect();
                tracer.span(name, seg, top, || {
                    for datagram in owned {
                        sup.offer(datagram);
                    }
                    if last {
                        sup.finish();
                    }
                });
            };
            offer_all("supervisor.offer", &mut sup, tracer);
            offer_all("obs.supervisor_twin", &mut twin_sup, tracer);
            offer_all("obs.supervisor_journal", &mut journal_sup, tracer);
            let owned: Vec<Vec<u8>> = datagrams.iter().map(|d| d.to_vec()).collect();
            tracer.span("supervisor.ring", seg, top, || {
                for (i, datagram) in owned.into_iter().enumerate() {
                    ring.offer(datagram);
                    if (i + 1) % config.arrivals_per_tick as usize == 0 {
                        for _ in 0..config.drain_budget {
                            if black_box(ring.pop()).is_none() {
                                break;
                            }
                        }
                    }
                }
                while black_box(ring.pop()).is_some() {}
            });
        }
    }

    // State codecs, on the complete plain scan.
    let scan = plain_scan;
    let state = tracer.span("core.scan.save_state", 0, top, || scan.save_state());
    tracer
        .span("core.scan.restore_state", 0, top, || {
            WeekScan::restore_state(&state).map(drop)
        })
        .map_err(|e| format!("scan state rejected: {e}"))?;
    let sealed_state = tracer.span("supervisor.seal", 0, top, || envelope::seal(&state));
    tracer
        .span("supervisor.open", 0, top, || {
            envelope::open(&sealed_state).map(drop)
        })
        .map_err(|e| format!("envelope rejected: {e}"))?;
    let collector_state = small_span(tracer, "sflow.save_state", top, || {
        scan.collector().save_state()
    });
    small_span(tracer, "sflow.restore_state", top, || {
        Collector::restore_state(&collector_state).is_ok()
    });

    // Analysis, stage by stage as `report_from_scan` and the renderers run.
    let a = &inputs.analyzer;
    let census = tracer.span("core.census.identify", 0, top, || {
        ServerCensus::identify(&scan, a.model, &a.dns, &a.crawl)
    });
    let snapshot = tracer.span("core.snapshot.build", 0, top, || {
        WeeklySnapshot::build(&scan, &census, a.model)
    });
    let weekly = WeeklyReport {
        snapshot,
        census,
        health: scan.ingest_health(),
    };
    let tables = tracer.span("core.visibility.tables", 0, top, || {
        Tables::build(&weekly, a.model)
    });
    tracer.span("core.report.render", 0, top, || {
        black_box(render(&weekly, &tables, a.model))
    });
    tracer.span("core.cluster", 0, top, || {
        black_box(cluster::cluster(&weekly, &a.dns))
    });

    // The live pipeline's own state and exposition.
    let (sealed, breaches) = real.seal();
    if let Sealed::Live { sup, parts } = &sealed {
        let image = tracer.span("supervisor.checkpoint", 0, top, || sup.checkpoint());
        tracer
            .span("supervisor.restore", 0, top, || {
                Supervisor::restore(&image, config).map(drop)
            })
            .map_err(|e| format!("supervisor checkpoint rejected: {e}"))?;
        let side = small_span(tracer, "transport.save_state", top, || {
            parts.intake.save_state()
        });
        small_span(tracer, "transport.restore", top, || {
            TransportIntake::restore_from(&side).is_ok()
        });
        let snapshot = small_span(tracer, "obs.snapshot", top, || parts.obs.snapshot());
        small_span(tracer, "obs.prometheus_render", top, || {
            ixp_obs::prometheus::render(&snapshot).is_ok()
        });
        small_span(tracer, "obs.json_render", top, || {
            ixp_obs::json::render(&snapshot)
        });
        let auditor = Auditor::new(parts.obs.registry.clone(), parts.journal.clone());
        small_span(tracer, "obs.audit_run", top, || {
            auditor.run(AuditScope::Steady).is_ok()
        });
    }
    tracer.close(root);
    Ok(RoundState {
        sealed,
        breaches,
        traced_unique_ips: traced_scan.unique_ips(),
        scan_state_bytes: state.len(),
    })
}

/// Run `workload` traced.
pub fn run(workload: &Workload, cfg: RunConfig) -> (Outcome, Tracer) {
    let mut out = Outcome::default();
    let mut tracer = Tracer::default();
    let scale = workload.scale(cfg.smoke);
    let live = workload.live;
    let sched_start = schedstat();

    let mut setup = SetupTimes::default();
    let t0 = now_ns();
    let model = generate_model(scale.clone(), &mut setup);
    let inputs = Inputs::build(&model, cfg.seed, live, &mut setup);
    setup.total_ns = now_ns() - t0;
    let mut setups = vec![setup];

    let mut passed = Vec::new();
    let sflow = sflow_of(&inputs, live, &mut passed);
    let counts = count_everything(&inputs, &sflow, live);
    let datagrams = inputs.feed.len() as u64;

    // Round 0 warms up and is checked like any other; its spans are kept in
    // the trace but not in the timings.
    let budget_ns = (cfg.seconds * 1e9) as u64;
    let phase_start = now_ns();
    let mut round = 0usize;
    let mut longest_round = 0u64;
    let mut reference: Option<crate::pipeline::Finished> = None;
    let mut state_bytes = (0usize, 0usize, 0usize);
    loop {
        let elapsed = now_ns() - phase_start;
        let reserve = if setups.len() < 2 { setup.total_ns } else { 0 };
        if round >= 3 && elapsed + longest_round + reserve > budget_ns {
            break;
        }
        tracer.set_round(round);
        let t = now_ns();
        out.attempted += datagrams + 1;
        match traced_round(&inputs, &sflow, live, &mut tracer) {
            Err(e) => out.fail(1, e),
            Ok(state) => {
                if state.breaches > 0 {
                    out.fail(
                        datagrams,
                        format!("{} steady-state ledger audits breached", state.breaches),
                    );
                }
                if round == 0 {
                    let image = state.sealed.checkpoint();
                    state_bytes = (
                        image.supervisor.len(),
                        image.transport.as_ref().map_or(0, Vec::len),
                        state.scan_state_bytes,
                    );
                }
                let finished = state.sealed.finish_report(&inputs);
                if finished.facts.get("scan.unique_ips") != Some(&(state.traced_unique_ips as u64))
                {
                    out.fail(
                        datagrams,
                        "the decomposed pass and the real pipeline found different IPs".into(),
                    );
                }
                if !finished.accounted {
                    out.fail(
                        datagrams,
                        "a ledger did not close (fully_accounted / final audit)".into(),
                    );
                }
                match &reference {
                    None => reference = Some(finished),
                    Some(first) if first.rendered != finished.rendered => {
                        out.fail(
                            datagrams,
                            "a pass rendered different report bytes than the first pass".into(),
                        );
                    }
                    Some(_) => {}
                }
            }
        }
        longest_round = longest_round.max(now_ns() - t);
        round += 1;
        if setups.len() < 2 && (now_ns() - phase_start) * 2 >= budget_ns {
            setups.push(setup_once(scale.clone(), cfg.seed, live));
        }
    }
    if setups.len() < 2 {
        setups.push(setup_once(scale.clone(), cfg.seed, live));
    }

    let t = tracer.timings(1);
    let Some(reference) = reference else {
        return (out, tracer);
    };
    let fact = |name: &str| reference.facts.get(name).copied().unwrap_or(0) as f64;
    let per = |op: &str, n: u64| {
        if n == 0 {
            0.0
        } else {
            t.fastest(op) as f64 / n as f64
        }
    };
    let ms = |op: &str| t.fastest(op) as f64 / 1e6;
    let small_us = |op: &str| t.fastest(op) as f64 / SMALL_REPS as f64 / 1e3;
    let pct = |part: f64, whole: f64| {
        if whole == 0.0 {
            0.0
        } else {
            100.0 * part / whole
        }
    };
    let fastest_setup = |f: fn(&SetupTimes) -> u64| setups.iter().map(f).min().unwrap_or(0) as f64;
    let c = &counts;

    // Whole-pass times of the layers on the entry path. A layer the workload
    // does not use recorded no spans and reads 0; the two that are differences
    // against `WeekScan::ingest` need the guard.
    let whole = t.fastest("pass.untraced") as f64;
    let scan_ns = t.fastest("core.scan.ingest") as f64;
    let transport_ns = (t.fastest("transport.link_recv")
        + t.fastest("transport.offer")
        + t.fastest("transport.drain")) as f64;
    let supervisor_ns = if live {
        t.fastest("supervisor.offer") as f64 - scan_ns
    } else {
        0.0
    };
    let obs_ns = if live {
        t.fastest("obs.scan_attached") as f64 - scan_ns
    } else {
        0.0
    };
    let decomposed =
        t.fastest("sflow.collector") as f64 + t.fastest("core.scan.ingest_sample") as f64;
    let unattributed_ns = whole - transport_ns - supervisor_ns - decomposed;

    // → setup_s
    out.metric(
        "netmodel.generate_ms",
        fastest_setup(|s| s.generate_ns) / 1e6,
    );
    out.metric(
        "core.analyzer_build_ms",
        fastest_setup(|s| s.analyzer_ns) / 1e6,
    );
    out.metric(
        "traffic.gen_ns_per_datagram",
        fastest_setup(|s| s.traffic_ns) / setup.traffic_datagrams.max(1) as f64,
    );
    out.metric(
        "faults.plan_ns_per_packet",
        fastest_setup(|s| s.faults_ns) / setup.faults_packets.max(1) as f64,
    );
    out.metric(
        "transport.gen_ns_per_packet",
        fastest_setup(|s| s.flowgen_ns) / setup.flowgen_packets.max(1) as f64,
    );

    // ixp-transport
    out.metric(
        "transport.link_recv_ns_per_packet",
        per("transport.link_recv", datagrams),
    );
    out.metric(
        "transport.offer_ns_per_packet",
        per("transport.offer", datagrams),
    );
    for ((span, metric, _), packets) in PROTOCOLS.iter().zip(c.proto_packets) {
        out.metric(metric, per(span, packets));
    }
    let flow_drain: u64 = PROTOCOLS[1..]
        .iter()
        .map(|(span, ..)| t.fastest(span))
        .sum();
    out.metric(
        "transport.ns_per_flow_record",
        if c.flows == 0 {
            0.0
        } else {
            flow_drain as f64 / c.flows as f64
        },
    );
    out.metric(
        "transport.allocs_per_packet",
        c.transport_allocs.0 as f64 / datagrams as f64,
    );
    out.metric(
        "transport.alloc_bytes_per_packet",
        c.transport_allocs.1 as f64 / datagrams as f64,
    );
    out.metric(
        "transport.accepted_share",
        pct(fact("transport.accepted"), fact("transport.offered")),
    );
    for name in [
        "transport.duplicates",
        "transport.decode_errors",
        "transport.template_missing_dropped",
        "transport.shed",
        "transport.template_installs",
        "transport.template_refreshes",
        "transport.template_evictions",
    ] {
        out.metric(name, fact(name));
    }
    out.metric("transport.save_state_us", small_us("transport.save_state"));
    out.metric("transport.restore_us", small_us("transport.restore"));
    out.metric("transport.state_bytes", state_bytes.1 as f64);

    // ixp-supervisor
    let n_sflow = c.sflow_datagrams;
    out.metric(
        "supervisor.self_ns_per_datagram",
        supervisor_ns / n_sflow.max(1) as f64,
    );
    out.metric(
        "supervisor.ring_ns_per_datagram",
        per("supervisor.ring", n_sflow),
    );
    out.metric(
        "supervisor.allocs_per_datagram",
        c.supervisor_allocs as f64 / n_sflow.max(1) as f64,
    );
    for name in [
        "supervisor.ticks",
        "supervisor.deadline_misses",
        "supervisor.ring_high_water",
        "supervisor.shed",
        "supervisor.health_transitions",
    ] {
        out.metric(name, fact(name));
    }
    out.metric("supervisor.checkpoint_ms", ms("supervisor.checkpoint"));
    out.metric("supervisor.restore_ms", ms("supervisor.restore"));
    out.metric("supervisor.seal_ms", ms("supervisor.seal"));
    out.metric("supervisor.open_ms", ms("supervisor.open"));
    out.metric(
        "supervisor.checkpoint_bytes",
        if live { state_bytes.0 as f64 } else { 0.0 },
    );

    // ixp-sflow
    out.metric("sflow.decode_ns_per_datagram", per("sflow.decode", n_sflow));
    out.metric(
        "sflow.collector_ns_per_datagram",
        per("sflow.collector", n_sflow),
    );
    out.metric(
        "sflow.seqtrack_ns_per_datagram",
        per("sflow.collector", n_sflow) - per("sflow.decode", n_sflow),
    );
    out.metric(
        "sflow.allocs_per_datagram",
        c.collector_allocs.0 as f64 / n_sflow.max(1) as f64,
    );
    out.metric(
        "sflow.alloc_bytes_per_datagram",
        c.collector_allocs.1 as f64 / n_sflow.max(1) as f64,
    );
    for name in [
        "sflow.accepted",
        "sflow.duplicates",
        "sflow.decode_errors",
        "sflow.lost_estimate",
        "sflow.restarts",
        "sflow.sources",
    ] {
        out.metric(name, fact(name));
    }
    out.metric("sflow.save_state_us", small_us("sflow.save_state"));
    out.metric("sflow.restore_state_us", small_us("sflow.restore_state"));

    // ixp-wire
    out.metric("wire.dissect_ns_per_sample", per("wire.dissect", c.samples));
    out.metric(
        "wire.dissect_ok_share",
        pct(c.dissect_ok as f64, c.samples as f64),
    );

    // ixp-core scan
    out.metric(
        "core.http.classify_ns_per_payload",
        per("core.http.classify", c.payloads),
    );
    out.metric(
        "core.http.match_share",
        pct(c.http_matches as f64, c.payloads as f64),
    );
    out.metric(
        "core.scan.ingest_ns_per_datagram",
        per("core.scan.ingest", n_sflow),
    );
    out.metric(
        "core.scan.ingest_sample_ns_per_sample",
        per("core.scan.ingest_sample", c.samples),
    );
    let table_ns = t.fastest("core.scan.ingest_sample") as f64
        - t.fastest("wire.dissect") as f64
        - t.fastest("core.http.classify") as f64;
    out.metric(
        "core.scan.table_ns_per_sample",
        table_ns / c.samples.max(1) as f64,
    );
    out.metric(
        "core.scan.allocs_per_sample",
        c.sample_allocs as f64 / c.samples.max(1) as f64,
    );
    out.metric("core.scan.unique_ips", fact("scan.unique_ips"));
    out.metric("core.scan.domains", fact("scan.domains"));
    out.metric(
        "core.scan.heap_bytes_per_ip",
        c.scan_heap_bytes as f64 / fact("scan.unique_ips").max(1.0),
    );
    out.metric("core.scan.save_state_ms", ms("core.scan.save_state"));
    out.metric("core.scan.restore_state_ms", ms("core.scan.restore_state"));
    out.metric("core.scan.state_bytes", state_bytes.2 as f64);

    // ixp-core analysis
    out.metric("core.census.identify_ms", ms("core.census.identify"));
    out.metric("core.census.servers", fact("census.servers"));
    out.metric("core.snapshot.build_ms", ms("core.snapshot.build"));
    out.metric("core.visibility.tables_ms", ms("core.visibility.tables"));
    out.metric("core.cluster.ms", ms("core.cluster"));
    out.metric("core.report.render_ms", ms("core.report.render"));

    // ixp-obs: attached against detached, each beside its own A/A noise.
    let versus = |with: &str, without: &str| {
        pct(
            t.fastest(with) as f64 - t.fastest(without) as f64,
            t.fastest(without) as f64,
        )
    };
    let (attach_noise, journal, journal_noise) = if live {
        (
            versus("obs.scan_twin", "core.scan.ingest").abs(),
            versus("obs.supervisor_journal", "supervisor.offer"),
            versus("obs.supervisor_twin", "supervisor.offer").abs(),
        )
    } else {
        (0.0, 0.0, 0.0)
    };
    out.metric("obs.attach_overhead_pct", pct(obs_ns, scan_ns));
    out.metric("obs.attach_noise_pct", attach_noise);
    out.metric("obs.journal_overhead_pct", journal);
    out.metric("obs.journal_noise_pct", journal_noise);
    out.metric("obs.snapshot_us", small_us("obs.snapshot"));
    out.metric(
        "obs.prometheus_render_us",
        small_us("obs.prometheus_render"),
    );
    out.metric("obs.json_render_us", small_us("obs.json_render"));
    out.metric("obs.audit_run_us", small_us("obs.audit_run"));
    out.metric("obs.journal_events", fact("obs.journal_events"));
    out.metric("obs.journal_dropped", fact("obs.journal_dropped"));

    // The harness itself.
    out.metric(
        "trace.overhead_pct",
        pct(t.fastest("pass.traced") as f64 - scan_ns, scan_ns),
    );
    out.metric("trace.unattributed_pct", pct(unattributed_ns, whole));
    out.metric("trace.spans", tracer.spans().len() as f64);
    let waited = match (sched_start, schedstat()) {
        (Some((run0, wait0)), Some((run1, wait1))) => {
            pct((wait1 - wait0) as f64, (run1 - run0 + wait1 - wait0) as f64)
        }
        _ => 0.0,
    };
    out.metric("bench.runqueue_wait_pct", waited);
    out.metric("bench.slow_unit_share", 100.0 * t.slow_share());

    // The layer table, per datagram offered at the entry point.
    let row = |layer, ns: f64, allocs: f64, feeds| LayerRow {
        layer,
        ns_per_datagram: ns / datagrams as f64,
        share_pct: pct(ns, whole),
        allocs_per_datagram: allocs / datagrams as f64,
        feeds,
    };
    let samples_alone = t.fastest("wire.dissect") as f64 + t.fastest("core.http.classify") as f64;
    out.layer_table = vec![
        row(
            "ixp-transport",
            transport_ns,
            c.transport_allocs.0 as f64,
            "datagrams_per_s, checkpoint_ms, restore_ms",
        ),
        row(
            "ixp-supervisor",
            supervisor_ns,
            c.supervisor_allocs as f64,
            "datagrams_per_s, checkpoint_ms, restore_ms",
        ),
        row(
            "ixp-sflow",
            t.fastest("sflow.collector") as f64,
            c.collector_allocs.0 as f64,
            "datagrams_per_s",
        ),
        row(
            "ixp-wire",
            t.fastest("wire.dissect") as f64,
            0.0,
            "datagrams_per_s",
        ),
        row(
            "ixp-core http",
            t.fastest("core.http.classify") as f64,
            0.0,
            "datagrams_per_s",
        ),
        row(
            "ixp-core scan table",
            t.fastest("core.scan.ingest_sample") as f64 - samples_alone,
            c.sample_allocs as f64,
            "datagrams_per_s, checkpoint_ms, restore_ms, peak_heap_mb",
        ),
        row("ixp-obs", obs_ns, 0.0, "datagrams_per_s, restore_ms"),
        row("unattributed", unattributed_ns - obs_ns, 0.0, "-"),
        row("whole pass", whole, 0.0, "datagrams_per_s"),
    ];

    for op in t.ops().map(str::to_string).collect::<Vec<_>>() {
        if let Some(s) = t.spread(&op) {
            out.notes.push(format!(
                "{op}: median {:.3} ms, p{} {:.3} ms, fastest-by-segment {:.3} ms over {} rounds",
                s.median_ns / 1e6,
                s.high_pct,
                s.high_ns / 1e6,
                t.fastest(&op) as f64 / 1e6,
                s.n,
            ));
        }
    }
    out.facts = reference.golden_facts(datagrams, state_bytes.0 + state_bytes.1);
    (out, tracer)
}
