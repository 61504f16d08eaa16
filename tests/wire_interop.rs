//! Cross-crate wire interop: everything the generator emits must be
//! consumable by the collector-side crates, byte for byte, including under
//! corruption.

use ixp_vantage::netmodel::{InternetModel, ScaleConfig, Week};
use ixp_vantage::sflow::Datagram;
use ixp_vantage::traffic::{MixConfig, WeekStream};
use ixp_vantage::wire::dissect::{Dissection, Network};

#[test]
fn generator_output_survives_full_decode_path() {
    let model = InternetModel::generate(ScaleConfig::tiny(), 99);
    let stream = WeekStream::with_budget(&model, MixConfig::default(), Week(40), 99, 3_000);
    let mut samples = 0usize;
    let mut dissected = 0usize;
    for bytes in stream {
        let dg = Datagram::decode(&bytes).expect("valid sFlow from the generator");
        // Re-encode must round-trip.
        assert_eq!(Datagram::decode(&dg.encode()).unwrap(), dg);
        for s in &dg.samples {
            samples += 1;
            assert!(s.record.header.len() <= 128);
            if Dissection::parse(&s.record.header).is_ok() {
                dissected += 1;
            }
        }
    }
    assert_eq!(samples, 3_000);
    assert_eq!(dissected, samples, "every generated snippet must dissect");
}

#[test]
fn ipv4_headers_in_generated_frames_are_checksum_valid() {
    let model = InternetModel::generate(ScaleConfig::tiny(), 98);
    let stream = WeekStream::with_budget(&model, MixConfig::default(), Week(45), 98, 1_500);
    let mut checked = 0usize;
    for bytes in stream {
        let dg = Datagram::decode(&bytes).unwrap();
        for s in &dg.samples {
            let d = Dissection::parse(&s.record.header).unwrap();
            if let Network::Ipv4 { .. } = d.network {
                let l3 = &s.record.header[14..];
                let packet = ixp_vantage::wire::ipv4::Packet::new_snippet(l3).unwrap();
                assert!(packet.verify_checksum(), "bad IPv4 checksum in generated frame");
                checked += 1;
            }
        }
    }
    assert!(checked > 1_000);
}

#[test]
fn corrupted_datagrams_never_panic_the_scan() {
    use ixp_vantage::core::WeekScan;
    let model = InternetModel::generate(ScaleConfig::tiny(), 97);
    let mut scan = WeekScan::new(Week(45), 46);
    let stream = WeekStream::with_budget(&model, MixConfig::default(), Week(45), 97, 700);
    for (i, mut bytes) in stream.enumerate() {
        // Flip a byte in every second datagram.
        if i % 2 == 0 && !bytes.is_empty() {
            let idx = (i * 37) % bytes.len();
            bytes[idx] ^= 0xA5;
        }
        scan.ingest(&bytes); // must not panic
    }
    // The scan still produced something from the intact half.
    assert!(scan.filter.total().bytes > 0);
}
