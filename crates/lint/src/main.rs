//! CLI for the workspace lint: `cargo run -p dmw-lint [ROOT] [FLAGS]`.
//!
//! Human mode prints `path:line: [rule] message` for every violation;
//! `--format json` emits the stable report of `dmw_lint::report`
//! (to stdout, or to `--out PATH`). Either way the exit code is
//! non-zero when any finding exists, so both modes slot directly into
//! `scripts/check.sh` and CI.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    root: Option<PathBuf>,
    json: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        root: None,
        json: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => return Ok(None),
            "--format" => match it.next().as_deref() {
                Some("json") => args.json = true,
                Some("human") => args.json = false,
                other => {
                    return Err(format!(
                        "--format expects `human` or `json`, got {:?}",
                        other.unwrap_or("nothing")
                    ))
                }
            },
            "--out" => {
                args.out = Some(PathBuf::from(it.next().ok_or("--out expects a file path")?));
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            root if args.root.is_none() => args.root = Some(PathBuf::from(root)),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    if args.out.is_some() && !args.json {
        return Err("--out requires --format json".to_owned());
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!(
                "dmw-lint — protocol-invariant static analysis for the DMW workspace\n\n\
                 USAGE: dmw-lint [ROOT] [--format human|json] [--out PATH]\n\n\
                 ROOT defaults to the workspace root found by walking up from\n\
                 the current directory to the first Cargo.toml containing\n\
                 `[workspace]`. `--format json` emits the stable report schema\n\
                 (`dmw-lint-report/v2`); `--out` writes it to a file instead of\n\
                 stdout. The rules are documented in docs/static_analysis.md."
            );
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("dmw-lint: {e}");
            return ExitCode::FAILURE;
        }
    };

    let root = match args.root.or_else(find_workspace_root) {
        Some(r) => r,
        None => {
            eprintln!("dmw-lint: no workspace root found (run inside the repo or pass ROOT)");
            return ExitCode::FAILURE;
        }
    };

    let findings = match dmw_lint::lint_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("dmw-lint: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.json {
        let json = dmw_lint::report::to_json(&findings);
        match &args.out {
            Some(path) => {
                if let Err(e) = std::fs::write(path, &json) {
                    eprintln!("dmw-lint: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                eprintln!(
                    "dmw-lint: wrote {} ({} finding(s))",
                    path.display(),
                    findings.len()
                );
            }
            None => print!("{json}"),
        }
    } else if findings.is_empty() {
        println!("dmw-lint: clean ({})", root.display());
    } else {
        for f in &findings {
            println!("{f}");
        }
        eprintln!("dmw-lint: {} violation(s)", findings.len());
    }

    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Walks up from the current directory to the first `Cargo.toml` that
/// declares a `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        dir = Path::new(&dir).parent()?.to_path_buf();
    }
}
