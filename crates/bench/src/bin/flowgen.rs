//! `flowgen` — the loopback sFlow replayer.
//!
//! Regenerates the reference week's sFlow feed from the same model `repro`
//! builds (same `--scale`, same `--seed`) and sends it over a real UDP
//! socket to a `repro --transport udp` receiver, which takes it through
//! socket → intake → supervisor → report:
//!
//! ```text
//! cargo run --release -p ixp-bench --bin flowgen -- --target 127.0.0.1:9995
//!     [--scale tiny|small|paper:<divisor>] [--seed N] [--pace-us N] [--probe]
//! ```
//!
//! After the week it sends a few out-of-band [`FIN`] sentinels so the
//! receiver stops promptly. `--probe` only checks whether this environment
//! allows binding a loopback UDP socket (exit 0 yes, 1 no) — `scripts/ci.sh`
//! uses it to decide whether to run the UDP smoke. `flowgen --help` prints
//! the usage line, [`USAGE`], and exits 0; an argument it cannot parse is
//! refused with one line naming it and the usage, exit 2, as the tests of
//! [`parse_args`] hold.

use std::time::Duration;

use ixp_core::analyzer::Analyzer;
use ixp_netmodel::{InternetModel, ScaleConfig, Week};
use ixp_transport::{Link as _, UdpLink, FIN};

struct Args {
    target: String,
    scale: ScaleConfig,
    seed: u64,
    pace_us: u64,
    probe: bool,
}

const USAGE: &str = "usage: flowgen [--target <addr>] [--scale tiny|small|paper:<divisor>] \
    [--seed N] [--pace-us N] [--probe]";

/// The run `argv` asks for, `None` for `--help`, or the refusal, which names
/// the flag at fault.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        target: "127.0.0.1:9995".to_string(),
        scale: ScaleConfig::small(),
        seed: 2012,
        pace_us: 200,
        probe: false,
    };
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        let bad = |value: &str| format!("{arg} does not take {value:?}");
        let number = |value: String| value.parse::<u64>().map_err(|_| bad(&value));
        match arg.as_str() {
            "--help" => return Ok(None),
            "--target" => args.target = value()?,
            "--seed" => args.seed = value().and_then(number)?,
            "--pace-us" => args.pace_us = value().and_then(number)?,
            "--scale" => {
                let name = value()?;
                args.scale = ixp_bench::parse_scale(&name).ok_or(bad(&name))?;
            }
            "--probe" => args.probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Some(args))
}

fn main() {
    let Some(args) = parse_args(std::env::args().skip(1)).unwrap_or_else(|refusal| {
        eprintln!("flowgen: {refusal}; {USAGE}");
        std::process::exit(2);
    }) else {
        println!("{USAGE}");
        return;
    };
    if args.probe {
        // Can this environment open a loopback UDP socket at all? ci.sh
        // keys the flowgen → repro smoke on the exit code; say why on
        // stderr either way.
        match UdpLink::bind("127.0.0.1:0") {
            Ok(_) => {
                eprintln!("flowgen: UDP loopback binding available");
                return;
            }
            Err(e) => {
                eprintln!("flowgen: UDP loopback binding denied: {e}");
                std::process::exit(1);
            }
        }
    }

    let model = InternetModel::generate(args.scale, args.seed);
    let analyzer = Analyzer::new(&model);
    let mut link = match UdpLink::connect(&args.target) {
        Ok(link) => link,
        Err(e) => {
            eprintln!("flowgen: cannot open a sending socket for {}: {e}", args.target);
            std::process::exit(1);
        }
    };
    let mut sent = 0u64;
    let mut bytes = 0u64;
    for datagram in analyzer.feed(Week::REFERENCE) {
        if let Err(e) = link.send(0, &datagram) {
            eprintln!("flowgen: send failed after {sent} datagrams: {e}");
            std::process::exit(1);
        }
        sent += 1;
        bytes += datagram.len() as u64;
        if args.pace_us > 0 {
            // Loopback has no congestion control; pace so the receiver's
            // bounded inbox is a policy choice, not an artifact of burst
            // scheduling.
            std::thread::sleep(Duration::from_micros(args.pace_us));
        }
    }
    // A few FIN sentinels: UDP may drop one, the receiver stops at the
    // first it sees and never offers them to the intake.
    for _ in 0..3 {
        let _ = link.send(0, FIN);
        std::thread::sleep(Duration::from_millis(10));
    }
    eprintln!(
        "flowgen: sent {sent} sFlow datagrams ({bytes} bytes) of week {} to {} (seed {})",
        Week::REFERENCE.0,
        args.target,
        args.seed,
    );
}

#[cfg(test)]
mod tests {
    /// A scale under the smallest divisor, a value a flag does not take and
    /// an unknown argument are each refused with a line naming the flag;
    /// `--help` is no run.
    #[test]
    fn a_refused_argv_is_an_error_naming_its_flag() {
        let parse = |argv: &str| super::parse_args(argv.split_whitespace().map(String::from));
        for (argv, flag) in
            [("--scale paper:10", "--scale"), ("--bogus", "--bogus"), ("--pace-us -1", "--pace-us")]
        {
            let refusal = parse(argv).err().unwrap_or_else(|| panic!("{argv} was not refused"));
            assert!(refusal.contains(flag), "{argv}: {refusal}");
        }
        let argv = "--target 127.0.0.1:9 --scale paper:20 --seed 99 --pace-us 0 --probe";
        assert!(matches!(parse(argv), Ok(Some(_))), "{argv} was refused");
        assert!(matches!(parse("--help --bogus"), Ok(None)));
    }
}
