//! Transport chaos-soak acceptance gate: the wire front-end must survive
//! combined UDP-level faults (5 % loss, duplication, reordering,
//! truncation), template churn (withhold windows, layout flaps, exporter
//! restarts), and a mid-stream kill-and-resume of both the transport
//! intake and the supervisor — with byte-identical recovery, exact
//! extended conservation, and Table 1 drift under the row's bound. The
//! wire plan, ring, kill and tolerance are the `transport_soak` row of
//! `ixp_bench::scenario`; the workload is this file's. A last test holds
//! the real loopback socket to the in-memory path, byte for byte.

mod common;

use std::sync::OnceLock;

use common::{analyzer, clean};
use ixp_bench::pipeline::{Images, Pipeline, ResumeError, SFLOW_PEER};
use ixp_bench::scenario::{self, Feed};
use ixp_vantage::netmodel::Week;
use ixp_vantage::obs::Obs;
use ixp_vantage::transport::{generate, FlowGenConfig, TransportConfig, TransportIntake};
use ixp_vantage::{faults, transport};

const SEED: u64 = 1313;

/// Flow-export packets mixed into the week feed.
const FLOW_PACKETS: u64 = 400;

/// The flow-export half of the workload: NetFlow v5/v9/IPFIX with
/// seeded withhold/flap windows and exporter restarts — a withhold
/// window at the very start so the first templated packets must park —
/// plus a small *orphan* workload from exporters (remapped to their own
/// peer identities) whose templates are withheld for the whole stream:
/// their packets can never resolve, so `finish` must flush them into
/// `template_missing_dropped` — the soak asserts that bucket moves.
/// A few leading-0xFF garbage packets keep the decode-error path hot.
fn flow_workload() -> Vec<(u64, Vec<u8>)> {
    let mut withhold = faults::withhold_windows(SEED, FLOW_PACKETS, 2, 50);
    withhold.insert(0, (0, 20));
    let cfg = FlowGenConfig {
        seed: SEED,
        packets: FLOW_PACKETS,
        withhold,
        flap: faults::flap_windows(SEED, FLOW_PACKETS, 1, 30),
        restarts: faults::exporter_restart_offsets(SEED, FLOW_PACKETS, 2),
        ..FlowGenConfig::default()
    };
    let mut out = generate(&cfg);
    let orphans = FlowGenConfig {
        seed: SEED ^ 0x0DD,
        packets: 24,
        exporters: 2, // v9 and IPFIX only — both templated
        withhold: vec![(0, 24)],
        ..FlowGenConfig::default()
    };
    // Remap the orphans onto distinct peers: the template cache keys
    // domains by (peer, odid), so the main exporters' templates can
    // never adopt these packets.
    out.extend(generate(&orphans).into_iter().map(|(peer, p)| (peer + 0x0DD0_0000, p)));
    for i in 0..6u8 {
        out.push((0x6A4Bu64, vec![0xFF; 9 + usize::from(i)]));
    }
    out
}

/// The reference week's sFlow datagrams with flow-export packets
/// interleaved at a fixed stride, through the row's wire plan —
/// materialized once so every arm sees identical bytes.
fn feed() -> &'static Feed {
    static F: OnceLock<Feed> = OnceLock::new();
    F.get_or_init(|| {
        let sflow: Vec<(u64, Vec<u8>)> =
            analyzer().feed(Week::REFERENCE).map(|d| (SFLOW_PEER, d)).collect();
        let mut flows = flow_workload().into_iter();
        let stride = (sflow.len() / usize::try_from(FLOW_PACKETS).unwrap_or(1)).max(1);
        let mut out = Vec::with_capacity(sflow.len() + FLOW_PACKETS as usize);
        for (i, dg) in sflow.into_iter().enumerate() {
            out.push(dg);
            if (i + 1) % stride == 0 {
                out.extend(flows.next());
            }
        }
        out.extend(flows);
        scenario::transport_soak().feed_from(out.into_iter())
    })
}

#[test]
fn soak_holds_conservation_and_drift_under_combined_chaos() {
    let row = scenario::transport_soak();
    let outcome = row.run(analyzer(), clean(), feed());
    let s = outcome.supervised.transport;

    // The chaos actually happened: templates were withheld past the end,
    // flow packets were duplicated on the wire, and decoders saw damage.
    assert!(s.template_missing_dropped > 0, "no template-missing drops: {s:?}");
    assert!(s.duplicates > 0, "no duplicates suppressed: {s:?}");
    assert!(s.decode_errors > 0, "no decode errors: {s:?}");
    assert!(s.v5_packets > 0 && s.v9_packets > 0 && s.ipfix_packets > 0, "{s:?}");

    // Exact extended conservation — at the kill point and after finish,
    // with no transient terms left.
    assert!(outcome.ledger, "{s:?}");
    assert_eq!(s.offered, feed().packets.len() as u64);
    assert_eq!(s.offered, s.received + s.shed);
    assert_eq!(
        s.received,
        s.accepted + s.duplicates + s.decode_errors + s.template_missing_dropped
    );
    assert_eq!(s.decode_errors, s.truncated + s.bad_version + s.inconsistent);
    assert_eq!(s.pending, 0);
    assert_eq!(s.pending_bytes, 0);

    // Table 1 stays within the chaos drift tolerance.
    assert_eq!(row.check(&outcome), Ok(()));
}

#[test]
fn kill_and_resume_mid_stream_is_byte_identical() {
    let row = scenario::transport_soak();
    let (whole, _) = row.supervise(analyzer(), feed(), &[]);
    // Die halfway through, inside the live part of the stream, where
    // dedup windows, the template cache, and parked packets are all hot.
    let (resumed, _) =
        row.supervise(analyzer(), feed(), &row.kill_points(feed().packets.len() as u64));
    assert_eq!(resumed.resumes.len(), 1, "the halfway kill was never reached");
    assert_eq!(whole.images, resumed.images, "checkpoint or transport state diverged");
    assert_eq!(whole.metrics, resumed.metrics, "metrics snapshot diverged across kill-and-resume");
    assert_eq!(whole.transport, resumed.transport);
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let row = scenario::transport_soak();
    let (a, _) = row.supervise(analyzer(), feed(), &[]);
    let (b, _) = row.supervise(analyzer(), feed(), &[]);
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.images, b.images);
}

#[test]
fn overload_sheds_visibly_never_silently() {
    // A deliberately tiny inbox with a lazy drain cadence: the front
    // door must shed, and every shed packet must be counted.
    let mut intake =
        TransportIntake::new(TransportConfig { inbox_capacity: 16, ..TransportConfig::default() });
    for (i, (peer, packet)) in flow_workload().iter().enumerate() {
        intake.offer(*peer, packet);
        if i % 8 == 7 {
            intake.drain(2);
        }
    }
    intake.drain(usize::MAX);
    let s = intake.finish();
    assert!(s.shed > 0, "tiny inbox never shed: {s:?}");
    assert!(intake.fully_accounted(), "{s:?}");
    assert_eq!(s.offered, s.received + s.shed);
}

/// A mid-stream kill of the transport front-end leaves a flight dump whose
/// body carries the transport-side journal traffic (template churn,
/// parking, replay, sheds) and whose tail is the kill edge: the intake's
/// cursor, which NetFlow, duplicates and drops keep from the supervisor's
/// count, with `sub_agent` 1.
#[test]
fn kill_leaves_a_flight_dump_naming_the_cut() {
    use ixp_vantage::obs::journal::{self, EventKind};

    let row = scenario::transport_soak();
    let kill_at = row.kill_points(feed().packets.len() as u64)[0];
    let journal = ixp_vantage::obs::Journal::deterministic();
    let mut p = row.pipeline(analyzer());
    p.attach(&Obs::deterministic(), &journal);
    assert!(!p.drive(feed().units(), Some(kill_at), |_| {}), "the cut was never reached");
    assert_eq!(p.cursor(), kill_at);
    assert_ne!(p.cursor(), p.supervisor().offered(), "the two counts agree at the cut");
    p.kill();
    // The whole ring goes into the dump so the early template churn —
    // parked during the opening withhold window — is kept beside the kill
    // edge.
    let events = journal.tail(journal::DEFAULT_CAPACITY);
    let tail = events.last().expect("flight dump holds the journal tail");
    assert_eq!(tail.kind, EventKind::Kill);
    assert_eq!(tail.sub_agent, 1, "kill edge must name the transport side");
    assert_eq!(tail.a, kill_at, "flight tail must name the intake's cursor");
    assert!(
        events.iter().any(|e| matches!(
            e.kind,
            EventKind::TemplateInstall | EventKind::Park | EventKind::Replay | EventKind::Shed
        )),
        "flight dump carries no transport-side context: {events:?}"
    );
}

/// Damaged images fail closed: a resume of the pair refuses a bit-flipped
/// or truncated side file or a bit-flipped checkpoint, naming the image.
#[test]
fn damaged_transport_state_fails_closed() {
    let row = scenario::transport_soak();
    let (whole, _) = row.supervise(analyzer(), feed(), &[]);
    let Images { checkpoint, transport } = whole.images;
    let state = transport.expect("an intake is in front");
    let resume = |checkpoint: &[u8], state: &[u8]| {
        let images = Images { checkpoint: checkpoint.to_vec(), transport: Some(state.to_vec()) };
        Pipeline::resume(&images, row.config()).err()
    };
    assert_eq!(resume(&checkpoint, &state), None, "the undamaged pair must resume");
    let mut flipped = state.clone();
    faults::chaos::flip_bit(&mut flipped, SEED);
    for damaged in [flipped, faults::chaos::truncate_at_random(&state, SEED)] {
        let err = resume(&checkpoint, &damaged);
        assert!(matches!(err, Some(ResumeError::Transport(_))), "damaged side file: {err:?}");
    }
    let mut flipped = checkpoint.clone();
    faults::chaos::flip_bit(&mut flipped, SEED);
    let err = resume(&flipped, &state);
    assert!(matches!(err, Some(ResumeError::Checkpoint(_))), "damaged checkpoint: {err:?}");
    // And the stream's FIN sentinel is never a valid packet.
    let mut t = TransportIntake::new(TransportConfig::default());
    t.offer(1, transport::FIN);
    t.drain(1);
    assert_eq!(t.stats().decode_errors + t.stats().shed, 1);
}

/// The clean reference week offered through a fresh intake into a fresh
/// supervisor, each datagram handed over by `deliver` as `(peer, bytes)`;
/// returns the final supervisor checkpoint.
fn week_checkpoint(mut deliver: impl FnMut(&[u8]) -> (u64, Vec<u8>)) -> Vec<u8> {
    let mut p = scenario::transport_soak().pipeline(analyzer());
    p.drive(analyzer().feed(Week::REFERENCE).map(|dg| deliver(&dg)), None, |_| {});
    let s = p.intake().expect("an intake is in front").stats();
    assert!(p.balances(), "{s:?}");
    assert_eq!((s.shed, s.duplicates, s.decode_errors), (0, 0, 0), "{s:?}");
    p.supervisor().checkpoint()
}

/// The week sent over a real loopback socket, lockstep (one datagram out,
/// the same one received, then offered and drained), checkpoints exactly
/// as the week offered through an intake with no socket: the socket path
/// neither loses nor alters a datagram. Where binding is denied the test
/// says why and passes, as `scripts/ci.sh` does for its UDP smoke.
#[test]
fn the_week_over_a_socket_checkpoints_as_the_memory_path() {
    use ixp_vantage::transport::{Link as _, UdpLink};

    let link = UdpLink::bind("127.0.0.1:0").and_then(|rx| {
        let target = rx.local_addr()?.to_string();
        Ok((rx, UdpLink::connect(&target)?))
    });
    let (mut rx, mut tx) = match link {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("loopback UDP denied here ({e}); the memory path stands alone");
            return;
        }
    };
    let over_socket = week_checkpoint(|dg| {
        tx.send(0, dg).expect("send on loopback");
        // The socket polls at 50 ms: a few seconds of patience per datagram.
        (0..100)
            .find_map(|_| rx.recv().expect("receive on loopback"))
            .expect("a loopback datagram never arrived")
    });
    let in_memory = week_checkpoint(|dg| (SFLOW_PEER, dg.to_vec()));
    assert!(
        over_socket == in_memory,
        "the week over a socket checkpoints differently from the memory path"
    );
}
