//! The `ixp-lint` command-line entry point.
//!
//! ```text
//! cargo run -p ixp-lint                      # lint the workspace
//! cargo run -p ixp-lint -- --root <dir>      # lint another checkout
//! cargo run -p ixp-lint -- --explain panic-path
//! ```
//!
//! Exit codes: 0 clean, 1 any violation, 2 usage/I-O error.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: ixp-lint [--root <dir>]\n\
     \x20      ixp-lint --explain <rule|family>\n\
     \n\
     Lints every workspace .rs file against the eight project rules no\n\
     compiler lint can state (families L4, L5, L6, L10 and the directive\n\
     checker; see crates/lint/src/rules.rs) and prints one\n\
     `file:line: rule: message` line per violation. --explain prints the\n\
     rationale for one rule or family alias (l4, l5, l6, l10).\n\
     unwrap/expect/panic/index, narrowing casts, float equality, hash order,\n\
     ambient time, dropped Results, atomic reads and channel merges are\n\
     clippy's, and drop accounting is a return type: see DESIGN.md section 8."
}

struct Args {
    root: Option<PathBuf>,
    explain: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { root: None, explain: None };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let v = it.next().ok_or("--root requires a directory argument")?;
                args.root = Some(PathBuf::from(v));
            }
            "--explain" => {
                let v = it.next().ok_or("--explain requires a rule name")?;
                args.explain = Some(v);
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Print the registry entry for a rule id or family alias.
fn explain(name: &str) -> Result<(), String> {
    let rules = ixp_lint::rules::resolve_rule(name)
        .ok_or_else(|| format!("unknown rule or family `{name}`"))?;
    for (i, info) in rules.iter().enumerate() {
        if i > 0 {
            println!();
        }
        println!("{} [{}]", info.id, info.family);
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

    let findings = ixp_lint::scan_workspace(&root)
        .map_err(|e| format!("scanning {}: {e}", root.display()))?;
    for f in &findings {
        println!("{}", f.render());
    }
    if !findings.is_empty() {
        eprintln!("ixp-lint: {} violation(s)", findings.len());
    }
    Ok(findings.is_empty())
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
