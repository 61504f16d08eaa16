//! `ixp-benchmark`: the measurement spine of ixp-vantage — three workloads,
//! six end-to-end metrics each, and a layer-by-layer traced run. README.md
//! in this directory documents every metric, workload and flag.

mod alloc;
mod e2e;
mod golden;
mod json;
mod layers;
mod metrics;
mod noise;
mod pipeline;
mod results;
#[cfg(test)]
mod tests;
mod timing;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use e2e::RunConfig;
use workload::{Workload, MODEL_SEED, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Length of the timed phase unless `--seconds` says otherwise; equal to
/// `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 30.0;

const USAGE: &str = "\
usage: ixp-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
                     [--write-golden] [--out PATH]
       ixp-benchmark --selfcheck [K] [--runs R] [--workload NAME] [--seed N] [--seconds S]
       ixp-benchmark --render PATH
       ixp-benchmark --probe [S]
  --workload NAME  direct-small | direct-paper400 | live-faulty-small (default: all three)
  --seed N         seed of the traffic, fault, wire and flow generators (default 2012)
  --seconds S      length of the timed phase per workload (default 30)
  --trace 1        the layer-by-layer run: every per-layer metric, spans to out/trace-<workload>.json
  --smoke          every workload at tiny scale, about a second each, checks on, timings not comparable
  --write-golden   pin this run's counts and digests in golden.json (default seed only)
  --out PATH       where the results document goes (default benchmark/out/results.json)
  --selfcheck K    K sets (default 3) of R runs (default 1) per workload; do the sets agree within the bounds?
  --render PATH    print the results document at PATH as Markdown tables; measures nothing
  --probe S        the calibration unit of fixed work for S seconds (default 120): window medians against window minima";

struct Args {
    workloads: Vec<&'static Workload>,
    cfg: RunConfig,
    traced: bool,
    write_golden: bool,
    out: PathBuf,
    selfcheck: Option<usize>,
    runs: usize,
    render: Option<PathBuf>,
    probe: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.iter().collect(),
        cfg: RunConfig {
            seed: MODEL_SEED,
            seconds: DEFAULT_SECONDS,
            smoke: false,
        },
        traced: false,
        write_golden: false,
        out: results::out_dir().join("results.json"),
        selfcheck: None,
        runs: 1,
        render: None,
        probe: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        // An optional numeric operand: taken only if the next word is one.
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workloads =
                    vec![Workload::by_name(&name).ok_or(format!("unknown workload {name}"))?];
            }
            "--seed" => {
                args.cfg.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.cfg.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.cfg.seconds > 0.0 && args.cfg.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace 0|1, got {other}")),
                }
            }
            "--runs" => {
                args.runs = value("a count")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--smoke" => args.cfg.smoke = true,
            "--write-golden" => args.write_golden = true,
            "--out" => args.out = PathBuf::from(value("a path")?),
            "--render" => args.render = Some(PathBuf::from(value("a path")?)),
            "--selfcheck" => {
                let k = it.next_if(|w| !w.starts_with("--"));
                let k = k.map_or(Ok(3), |k| {
                    k.parse().map_err(|e| format!("--selfcheck: {e}"))
                })?;
                if k < 2 {
                    return Err("--selfcheck needs at least 2 sets to compare".into());
                }
                args.selfcheck = Some(k);
            }
            "--probe" => {
                let s = it.next_if(|w| !w.starts_with("--"));
                args.probe = Some(s.map_or(Ok(120.0), |s| {
                    s.parse().map_err(|e| format!("--probe: {e}"))
                })?);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.write_golden && (args.cfg.seed != MODEL_SEED || args.cfg.smoke) {
        return Err("--write-golden pins the default seed at full scale only".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            if !why.is_empty() {
                eprintln!("ixp-benchmark: {why}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.render {
        return match results::render(path) {
            Ok(markdown) => {
                print!("{markdown}");
                ExitCode::SUCCESS
            }
            Err(why) => {
                eprintln!("ixp-benchmark: {why}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(seconds) = args.probe {
        noise::probe(seconds);
        return ExitCode::SUCCESS;
    }
    if let Some(sets) = args.selfcheck {
        let ok = noise::selfcheck(
            &args.workloads,
            sets,
            args.runs,
            args.cfg.seed,
            args.cfg.seconds,
        );
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let mut all_correct = true;
    for w in &args.workloads {
        println!("# {}: {}", w.name, w.why);
        let mut out = if args.traced {
            let (out, tracer) = layers::run(w, args.cfg);
            match results::write_trace(w.name, &tracer) {
                Ok(path) => eprintln!(
                    "{}: {} spans written to {}",
                    w.name,
                    tracer.spans().len(),
                    path.display()
                ),
                Err(e) => eprintln!("{}: could not write the span file: {e}", w.name),
            }
            out
        } else {
            e2e::run(w, args.cfg)
        };
        // The default seed at full scale is pinned; any seed is checked for
        // closed ledgers, repeatable report bytes and checkpoint round trips.
        if args.cfg.seed == MODEL_SEED && !args.cfg.smoke {
            if args.write_golden {
                if let Err(e) = golden::write(w.name, &out.facts) {
                    out.fail(1, format!("could not write golden.json: {e}"));
                }
            } else {
                golden::check(w.name, &mut out);
            }
        }
        let expected = if args.traced {
            metrics::PER_LAYER.len()
        } else {
            metrics::END_TO_END.len()
        };
        if out.failed == 0 && out.metrics.len() != expected {
            out.fail(
                1,
                format!(
                    "{} metrics reported, the catalogue has {expected}",
                    out.metrics.len()
                ),
            );
        }
        results::print(w.name, &out, args.cfg.smoke);
        if let Err(e) = results::merge(&args.out, w.name, args.traced, args.cfg, &out) {
            eprintln!("{}: could not write {}: {e}", w.name, args.out.display());
        }
        all_correct &= out.failed == 0;
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
