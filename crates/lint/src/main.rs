//! The `ixp-lint` command-line entry point.
//!
//! ```text
//! cargo run -p ixp-lint                      # lint the workspace
//! cargo run -p ixp-lint -- --format json     # machine-readable report
//! cargo run -p ixp-lint -- --explain no-index
//! cargo run -p ixp-lint -- --only error-sink # report one rule/family
//! cargo run -p ixp-lint -- --changed         # report only edited files
//! cargo run -p ixp-lint -- --update-baseline # rewrite lint-baseline.toml
//! cargo run -p ixp-lint -- --root <dir>      # lint another checkout
//! ```
//!
//! Exit codes: 0 clean, 1 violations above baseline, 2 usage/I-O error.
//! `--format json` keeps the same exit codes and writes the report
//! documented in `crates/lint/src/json.rs` to stdout.
//!
//! Scans are cached under `target/lint-cache/` keyed by file content
//! digests (see `crates/lint/src/cache.rs`); an unchanged workspace
//! re-lints from the cache without re-running any analysis. `--no-cache`
//! forces a full run. `--only` and `--changed` filter the *report*, not
//! the analysis — cross-file passes always see the whole workspace, so
//! the filtered output is exactly the matching subset of the full run.

use std::collections::HashSet;
use std::path::PathBuf;
use std::process::ExitCode;

const BASELINE_FILE: &str = "lint-baseline.toml";

fn usage() -> &'static str {
    "usage: ixp-lint [--root <dir>] [--format text|json] [--update-baseline]\n\
     \x20             [--only <rule>] [--changed] [--no-cache]\n\
     \x20      ixp-lint --explain <rule>\n\
     \n\
     Lints every workspace .rs file against the project rules, families\n\
     L1-L11 (see crates/lint/src/rules.rs). Violations are tolerated only\n\
     up to the counts recorded in lint-baseline.toml; --update-baseline\n\
     rewrites that file from the current tree. --format json emits the\n\
     schema documented in crates/lint/src/json.rs; --explain prints the\n\
     rationale for one rule or family alias (l1..l11). --only restricts\n\
     the report to one rule or family; --changed restricts it to files\n\
     with uncommitted git changes; --no-cache bypasses the content-hash\n\
     cache in target/lint-cache/."
}

enum Format {
    Text,
    Json,
}

struct Args {
    root: Option<PathBuf>,
    update_baseline: bool,
    format: Format,
    explain: Option<String>,
    only: Option<String>,
    changed: bool,
    no_cache: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        update_baseline: false,
        format: Format::Text,
        explain: None,
        only: None,
        changed: false,
        no_cache: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let v = it.next().ok_or("--root requires a directory argument")?;
                args.root = Some(PathBuf::from(v));
            }
            "--update-baseline" => args.update_baseline = true,
            "--format" => {
                let v = it.next().ok_or("--format requires `text` or `json`")?;
                args.format = match v.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--explain" => {
                let v = it.next().ok_or("--explain requires a rule name")?;
                args.explain = Some(v);
            }
            "--only" => {
                let v = it.next().ok_or("--only requires a rule or family name")?;
                args.only = Some(v);
            }
            "--changed" => args.changed = true,
            "--no-cache" => args.no_cache = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.update_baseline && (args.only.is_some() || args.changed) {
        return Err("--update-baseline cannot be combined with --only/--changed \
                    (the baseline must describe the whole tree)"
            .to_string());
    }
    Ok(args)
}

/// Workspace-relative paths with uncommitted git changes (modified
/// tracked files plus untracked files), forward-slashed to match the
/// scanner's path form.
fn changed_files(root: &std::path::Path) -> Result<HashSet<String>, String> {
    let mut out = HashSet::new();
    for git_args in [
        &["diff", "--name-only", "HEAD"][..],
        &["ls-files", "--others", "--exclude-standard"][..],
    ] {
        let run = std::process::Command::new("git")
            .arg("-C")
            .arg(root)
            .args(git_args)
            .output()
            .map_err(|e| format!("running git: {e}"))?;
        if !run.status.success() {
            return Err(format!(
                "git {} failed: {}",
                git_args.join(" "),
                String::from_utf8_lossy(&run.stderr).trim()
            ));
        }
        for line in String::from_utf8_lossy(&run.stdout).lines() {
            let line = line.trim();
            if !line.is_empty() {
                out.insert(line.replace('\\', "/"));
            }
        }
    }
    Ok(out)
}

/// Where the content-hash cache for a scan of `root` lives: under *this*
/// workspace's `target/`, keyed by the scanned root so `--root` runs
/// against fixture trees never write inside them (and never collide).
fn cache_dir_for(root: &std::path::Path) -> Option<PathBuf> {
    let cwd = std::env::current_dir().ok()?;
    let home = ixp_lint::find_workspace_root(&cwd)?;
    let canon = root.canonicalize().unwrap_or_else(|_| root.to_path_buf());
    let key = ixp_codec::fnv64(canon.to_string_lossy().as_bytes());
    Some(home.join("target").join("lint-cache").join(format!("{key:016x}")))
}

/// Print the registry entry for a rule id or family alias.
fn explain(name: &str) -> Result<(), String> {
    let rules = ixp_lint::rules::resolve_rule(name)
        .ok_or_else(|| format!("unknown rule or family `{name}`"))?;
    for (i, id) in rules.iter().enumerate() {
        // Every id in ALL_RULES has a registry entry; enforced by a test.
        let Some(info) = ixp_lint::rules::rule_info(id) else { continue };
        if i > 0 {
            println!();
        }
        println!("{} [{} / {}]", info.id, info.family, info.severity);
        println!("  {}", info.summary);
        println!();
        for line in textwrap(info.explain, 76) {
            println!("  {line}");
        }
    }
    Ok(())
}

/// Minimal greedy word wrap for --explain output.
fn textwrap(text: &str, width: usize) -> Vec<String> {
    let mut lines = Vec::new();
    let mut cur = String::new();
    for word in text.split_whitespace() {
        if !cur.is_empty() && cur.len() + 1 + word.len() > width {
            lines.push(std::mem::take(&mut cur));
        }
        if !cur.is_empty() {
            cur.push(' ');
        }
        cur.push_str(word);
    }
    if !cur.is_empty() {
        lines.push(cur);
    }
    lines
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;

    if let Some(name) = &args.explain {
        explain(name)?;
        return Ok(true);
    }

    let root = match args.root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
            ixp_lint::find_workspace_root(&cwd)
                .ok_or("no workspace Cargo.toml found above the current directory")?
        }
    };

    // Resolve filters before the scan so a bad rule name fails fast.
    let only_rules: Option<Vec<&'static str>> = match &args.only {
        Some(name) => Some(
            ixp_lint::rules::resolve_rule(name)
                .ok_or_else(|| format!("unknown rule or family `{name}` in --only"))?,
        ),
        None => None,
    };
    let changed = if args.changed { Some(changed_files(&root)?) } else { None };

    let cache_dir = if args.no_cache { None } else { cache_dir_for(&root) };
    let findings = match &cache_dir {
        Some(dir) => ixp_lint::scan_workspace_cached(&root, dir)
            .map_err(|e| format!("scanning {}: {e}", root.display()))?
            .0,
        None => ixp_lint::scan_workspace(&root)
            .map_err(|e| format!("scanning {}: {e}", root.display()))?,
    };

    let baseline_path = root.join(BASELINE_FILE);
    if args.update_baseline {
        let text = ixp_lint::baseline::render(&findings);
        std::fs::write(&baseline_path, text)
            .map_err(|e| format!("writing {}: {e}", baseline_path.display()))?;
        let pairs = {
            let mut keys: Vec<_> = findings.iter().map(|f| (&f.file, f.rule)).collect();
            keys.sort();
            keys.dedup();
            keys.len()
        };
        println!(
            "ixp-lint: baseline updated: {} violation(s) across {} (file, rule) pair(s)",
            findings.len(),
            pairs
        );
        return Ok(true);
    }

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => ixp_lint::baseline::parse(&text)
            .map_err(|e| format!("{}: {e}", baseline_path.display()))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Default::default(),
        Err(e) => return Err(format!("reading {}: {e}", baseline_path.display())),
    };

    let (mut kept, notes) = ixp_lint::baseline::apply(findings, &baseline);
    // Report filters: the analysis above always covered the whole tree.
    if let Some(rules) = &only_rules {
        kept.retain(|f| rules.contains(&f.rule));
    }
    if let Some(files) = &changed {
        kept.retain(|f| files.contains(&f.file));
    }
    match args.format {
        Format::Json => {
            println!("{}", ixp_lint::json::report(&kept, &notes));
        }
        Format::Text => {
            for note in &notes {
                eprintln!("ixp-lint: note: {note}");
            }
            for f in &kept {
                println!("{}", f.render());
            }
        }
    }
    if kept.is_empty() {
        Ok(true)
    } else {
        if matches!(args.format, Format::Text) {
            eprintln!("ixp-lint: {} violation(s)", kept.len());
        }
        Ok(false)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::from(0),
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            if msg.is_empty() {
                println!("{}", usage());
                ExitCode::from(0)
            } else {
                eprintln!("ixp-lint: error: {msg}");
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        }
    }
}
