//! One corruption suite for the two sealed formats built on this crate's
//! trailer: the checkpoint envelope (`IXPCKPT1`) and the magic-less
//! transport state. Each keeps its own framing in its own crate; what they
//! share — and what this loop holds for both at once — is that damage of
//! any kind is a typed rejection before a single payload field is trusted:
//! every truncation, every single-bit flip, trailing bytes, and a hostile
//! length field. So is a record of the version before the trailer changed:
//! there is no reader for it, and it is refused, not misread.

use ixp_codec::{append_trailer, fnv64};
use ixp_supervisor::envelope;
use ixp_transport::{generate, FlowGenConfig, TransportConfig, TransportIntake};

/// One sealed format: a valid record, how to open it, and where its first
/// length or count field sits.
struct Framing {
    name: &'static str,
    sealed: Vec<u8>,
    /// Opens a record; the error is its `Debug` rendering.
    open: fn(&[u8]) -> Result<(), String>,
    /// What one byte appended after the trailer is rejected as.
    trailing: &'static str,
    /// Byte range of the first length/count field.
    length: std::ops::Range<usize>,
    /// Byte range of the `u32` format version.
    version: std::ops::Range<usize>,
    /// What a version-1 record — same fields, FNV-1a-64 trailer — is
    /// rejected as.
    version_1: &'static str,
}

fn open_checkpoint(bytes: &[u8]) -> Result<(), String> {
    envelope::open(bytes).map(drop).map_err(|e| format!("{e:?}"))
}

fn open_transport(bytes: &[u8]) -> Result<(), String> {
    TransportIntake::restore_from(bytes).map(drop).map_err(|e| format!("{e:?}"))
}

fn framings() -> Vec<Framing> {
    // A transport state with every section populated: templates withheld
    // so packets park, and a partial drain so the inbox is not empty.
    let mut intake = TransportIntake::new(TransportConfig::default());
    let packets = FlowGenConfig { packets: 12, withhold: vec![(0, 6)], ..FlowGenConfig::default() };
    for (peer, packet) in generate(&packets) {
        intake.offer(peer, &packet);
    }
    intake.drain(5);
    assert!(intake.stats().pending > 0, "nothing parked: {:?}", intake.stats());

    vec![
        Framing {
            name: "checkpoint envelope",
            sealed: envelope::seal(b"some payload bytes"),
            open: open_checkpoint,
            trailing: "TrailingBytes",
            length: 12..20, // magic 8, version 4, then the u64 payload length
            version: 8..12,
            version_1: "BadVersion(1)",
        },
        Framing {
            name: "transport state",
            sealed: intake.save_state(),
            open: open_transport,
            // No length field frames the blob, so an extension moves the
            // trailer and fails its check.
            trailing: "Invalid(\"state checksum mismatch\")",
            length: 180..188, // version 4, 5 bounds, 17 stats, then the dedup-key count
            version: 0..4,
            // No magic and no length frame this blob, so its seal is the
            // outermost check and fails before the version is read.
            version_1: "Invalid(\"state checksum mismatch\")",
        },
    ]
}

#[test]
fn every_sealed_format_fails_closed_under_every_kind_of_damage() {
    for f in framings() {
        let Framing { name, sealed, open, trailing, length, .. } = f;
        assert_eq!(open(&sealed), Ok(()), "{name}: the undamaged record must open");

        for cut in 0..sealed.len() {
            assert!(open(&sealed[..cut]).is_err(), "{name}: cut at {cut} opened");
        }

        for i in 0..sealed.len() {
            for bit in 0..8 {
                let mut bad = sealed.clone();
                bad[i] ^= 1 << bit;
                assert!(open(&bad).is_err(), "{name}: flip at byte {i} bit {bit} opened");
            }
        }

        let mut extended = sealed.clone();
        extended.push(0);
        assert_eq!(open(&extended), Err(trailing.to_string()), "{name}: trailing byte");

        // A length claiming more than the record holds, under a valid
        // trailer so that the checksum is not what rejects it: the bound
        // check must, before anything is allocated for it.
        let mut hostile = sealed.clone();
        hostile[length].fill(0xFF);
        hostile.truncate(hostile.len() - 8);
        append_trailer(&mut hostile);
        assert_eq!(open(&hostile), Err("Truncated".to_string()), "{name}: hostile length");
    }
}

/// What the parent of the version bump wrote: the same fields under
/// version 1, closed by big-endian FNV-1a-64. Each format refuses it with a
/// typed error — and refuses it still when the old version number sits
/// under a valid new trailer.
#[test]
fn version_1_records_are_refused_not_read() {
    for f in framings() {
        let Framing { name, sealed, open, version, version_1, .. } = f;
        let mut old = sealed.clone();
        old.truncate(old.len() - 8);
        old[version].copy_from_slice(&1u32.to_be_bytes());
        let mut resealed = old.clone();
        old.extend_from_slice(&fnv64(&old).to_be_bytes());
        assert_eq!(open(&old), Err(version_1.to_string()), "{name}: version-1 record");

        append_trailer(&mut resealed);
        assert_eq!(open(&resealed), Err("BadVersion(1)".to_string()), "{name}: version 1 resealed");
    }
}

/// A fresh intake is a valid record (the envelope's empty payload is
/// covered beside `seal` itself).
#[test]
fn empty_records_round_trip() {
    let fresh = TransportIntake::new(TransportConfig::default()).save_state();
    let restored = TransportIntake::restore_from(&fresh).expect("fresh state restores");
    assert_eq!(restored.save_state(), fresh);
}
