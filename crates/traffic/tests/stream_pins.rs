//! Pins of the bytes [`WeekStream`] emits, computed at the commit before
//! the generator's lookups and sample path were rewritten.
//!
//! `tests/format_pins.rs` and `benchmark/golden.json` pin what the pipeline
//! *derives* from the stream, and `deterministic_across_runs` compares a
//! build with itself; only these constants notice a generator that draws
//! one random number more, less or elsewhere. Weeks 35 and 51 take other
//! branches than the reference week (the Sandy window, the EC2 ramp, the
//! member count); the budgeted stream ends in a datagram that is not full.
//!
//! A failure here means the generator's output moved: every golden file
//! downstream moves with it. Do not re-pin without saying so.

use ixp_codec::fnv64;
use ixp_netmodel::{InternetModel, Week};
use ixp_traffic::{MixConfig, WeekStream};

/// `fnv64` of the concatenated datagrams, and how many there were.
fn digest(stream: WeekStream<'_>) -> (u64, usize) {
    let mut bytes = Vec::new();
    let mut datagrams = 0;
    for datagram in stream {
        bytes.extend_from_slice(&datagram);
        datagrams += 1;
    }
    (fnv64(&bytes), datagrams)
}

/// `(seed, week, fnv64, datagrams)` of the whole `tiny` week.
const WEEKS: [(u64, u8, u64, usize); 6] = [
    (2012, 35, 0x265f_d950_673c_61f4, 8_572),
    (2012, 45, 0x3b00_d323_63b9_9b21, 8_572),
    (2012, 51, 0x6081_55e2_9ed3_3008, 8_572),
    (99, 35, 0x6c33_fdbe_f4ef_55e8, 8_572),
    (99, 45, 0xa730_7157_7ae1_e8fb, 8_572),
    (99, 51, 0x03ba_e0fc_a048_9b41, 8_572),
];

/// Samples of the budgeted stream: 142 full datagrams and one of six
/// samples that also carries the closing counters.
const BUDGET: u64 = 1_000;

/// `(seed, fnv64, datagrams)` of the budgeted reference week.
const BUDGETED: [(u64, u64, usize); 2] = [(2012, 0x2b39_76f1_6524_e7d2, 143), (99, 0xe1b0_cc00_fc99_0b25, 143)];

#[test]
fn whole_tiny_weeks_are_byte_stable_across_commits() {
    for (seed, week, fnv, datagrams) in WEEKS {
        let model = InternetModel::tiny(seed);
        let got = digest(WeekStream::new(&model, MixConfig::default(), Week(week), seed));
        assert_eq!(
            got,
            (fnv, datagrams),
            "seed {seed} week {week}: got ({:#018x}, {})",
            got.0,
            got.1
        );
    }
}

#[test]
fn a_stream_that_ends_mid_datagram_is_byte_stable_across_commits() {
    for (seed, fnv, datagrams) in BUDGETED {
        let model = InternetModel::tiny(seed);
        let stream =
            WeekStream::with_budget(&model, MixConfig::default(), Week::REFERENCE, seed, BUDGET);
        let got = digest(stream);
        assert_eq!(got, (fnv, datagrams), "seed {seed}: got ({:#018x}, {})", got.0, got.1);
    }
}
