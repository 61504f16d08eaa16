//! Measuring the benchmark's own noise: `--selfcheck` (do repeated sets of
//! runs agree within the bounds?) and `--probe` (how does this machine's
//! speed wander?). NOISE.md is their output.

use std::collections::BTreeMap;
use std::process::Command;

use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END};
use crate::timing::{calibration_unit, median, now_ns, quartile_spread, CALIBRATION_NOMINAL_NS};
use crate::workload::Workload;

/// Run `sets` complete sets back to back — a set is `runs` runs of every
/// workload, run `r` at seed `seed + r`, each in a fresh process like the
/// driver's — and print, per workload × end-to-end metric, the set medians,
/// the largest disagreement between them and the largest quartile spread
/// inside a set, beside the bound. True when every pairing is within it.
pub fn selfcheck(
    workloads: &[&Workload],
    sets: usize,
    runs: usize,
    seed: u64,
    seconds: f64,
) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    // values[workload][metric][set] = one value per run
    let mut values: BTreeMap<&str, BTreeMap<String, Vec<Vec<f64>>>> = BTreeMap::new();
    let mut ok = true;
    for set in 0..sets {
        for run in 0..runs {
            for w in workloads {
                let started = now_ns();
                let output = Command::new(&exe)
                    .args(["--workload", w.name, "--trace", "0"])
                    .args(["--seed", &(seed + run as u64).to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .output()
                    .expect("spawn a child run");
                let stdout = String::from_utf8_lossy(&output.stdout);
                let result = stdout.lines().last().and_then(json::parse);
                let correct = result
                    .as_ref()
                    .and_then(|r| r.get("correct"))
                    .and_then(Value::as_bool);
                eprintln!(
                    "selfcheck: set {} run {} {} seed {} took {:.1} s{}",
                    set + 1,
                    run + 1,
                    w.name,
                    seed + run as u64,
                    (now_ns() - started) as f64 / 1e9,
                    if correct == Some(true) {
                        ""
                    } else {
                        " — FAILED"
                    },
                );
                for line in stdout
                    .lines()
                    .filter(|l| l.contains("machine speed") || l.contains("WARNING"))
                {
                    eprintln!("selfcheck:   {line}");
                }
                if correct != Some(true) || !output.status.success() {
                    ok = false;
                    continue;
                }
                let metrics = result.as_ref().and_then(|r| r.get("metrics"));
                for (name, m) in metrics.into_iter().flat_map(Value::members) {
                    if let Some(v) = m.get("value").and_then(Value::as_f64) {
                        eprintln!("selfcheck:   {name} {v}");
                        let per_set = values
                            .entry(w.name)
                            .or_default()
                            .entry(name.to_string())
                            .or_default();
                        per_set.resize(sets, Vec::new());
                        per_set[set].push(v);
                    }
                }
            }
        }
    }

    println!("{sets} sets of {runs} run(s) per workload (seeds {seed}..{}), {seconds} s timed phase each.", seed + runs as u64 - 1);
    println!("Disagreement: how much worse the worst set median is than the best. Spread: (Q3 - Q1) / median of one set's runs.\n");
    println!("| workload | metric | set medians | largest disagreement | largest spread | bound | verdict |");
    println!("|---|---|---|---:|---:|---:|---|");
    for (workload, metrics) in &values {
        for (name, _, better, bound) in END_TO_END {
            let Some(per_set) = metrics.get(name) else {
                continue;
            };
            let medians: Vec<f64> = per_set
                .iter()
                .filter(|s| !s.is_empty())
                .map(|s| median(s))
                .collect();
            let (lo, hi) = medians
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), m| (lo.min(*m), hi.max(*m)));
            // Worse-than-best as a share of the best, in the metric's direction.
            let disagreement = match better {
                Better::Lower => (hi - lo) / lo,
                Better::Higher => (hi - lo) / hi,
            };
            let spread = per_set
                .iter()
                .filter_map(|s| quartile_spread(s))
                .fold(f64::NAN, f64::max);
            // The driver holds every spread but setup_s's to the bound.
            let within =
                disagreement <= bound && (name == "setup_s" || spread.is_nan() || spread <= bound);
            ok &= within;
            println!(
                "| {workload} | `{name}` | {} | {:.2} % | {} | {:.0} % | {} |",
                medians
                    .iter()
                    .map(|m| format!("{m:.4}"))
                    .collect::<Vec<_>>()
                    .join(" / "),
                100.0 * disagreement,
                if spread.is_nan() {
                    "-".to_string()
                } else {
                    format!("{:.2} %", 100.0 * spread)
                },
                100.0 * bound,
                if within { "within" } else { "EXCEEDS" },
            );
        }
    }
    ok
}

/// The fixed-work probe: the calibration unit (25 ms of fixed work) repeated
/// for `seconds`; per 10 s window, the median and the minimum unit time.
/// The minimum is what fastest-by-segment relies on — and what the
/// calibration follows when it, too, drifts.
pub fn probe(seconds: f64) {
    const WINDOW_NS: u64 = 10_000_000_000;
    let start = now_ns();
    let mut windows: Vec<Vec<f64>> = Vec::new(); // unit times, ms
    while ((now_ns() - start) as f64) < seconds * 1e9 {
        let window = ((now_ns() - start) / WINDOW_NS) as usize;
        if windows.len() <= window {
            windows.resize(window + 1, Vec::new());
        }
        windows[window].push(calibration_unit() as f64 / 1e6);
    }
    println!(
        "The calibration unit (nominal {} ms of fixed work) repeated for {seconds} s.\n",
        CALIBRATION_NOMINAL_NS / 1_000_000
    );
    println!("| 10 s window | units | median ms | minimum ms |\n|---|---:|---:|---:|");
    let mut medians = Vec::new();
    let mut minima = Vec::new();
    for (i, w) in windows.iter().enumerate().filter(|(_, w)| !w.is_empty()) {
        let (mid, min) = (median(w), w.iter().copied().fold(f64::MAX, f64::min));
        medians.push(mid);
        minima.push(min);
        println!("| {} | {} | {mid:.2} | {min:.2} |", i + 1, w.len());
    }
    let swing = |v: &[f64]| {
        let (lo, hi) = v
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(*x), hi.max(*x)));
        100.0 * (hi - lo) / lo
    };
    println!(
        "\nWindow medians swing {:.1} %, window minima {:.1} %.",
        swing(&medians),
        swing(&minima)
    );
}
