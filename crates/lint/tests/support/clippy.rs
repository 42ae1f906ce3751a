//! Test support: runs `clippy-driver` over one source text at chosen
//! lint levels and returns what it reports as `(line, lint)` pairs.
//!
//! Rules L1, L3, L4, L5 and L7 are clippy lints whose levels are set in
//! source (see `docs/static_analysis.md`). These helpers pin each mapping
//! at exactly those levels, under the `clippy.toml` of the crate in
//! question, and [`levels_in_source`] reads the levels back out of the
//! crate roots so the tests can check that the source still sets them.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// L1: the levels `crates/core/src/lib.rs` sets on the protocol-critical
/// modules (and `crates/crypto/src/lib.rs` at its crate root).
pub const L1: &[&str] = &[
    "-Dclippy::unwrap_used",
    "-Dclippy::expect_used",
    "-Dclippy::panic",
    "-Dclippy::unreachable",
    "-Dclippy::todo",
    "-Dclippy::unimplemented",
    "-Dclippy::indexing_slicing",
];

/// L3: the levels `crates/core/src/lib.rs` sets on `codec` and `runner`.
pub const L3: &[&str] = &[
    "-Fclippy::wildcard_enum_match_arm",
    "-Fclippy::match_wildcard_for_single_variants",
];

/// L5: the cast levels of the `modmath` and `crypto` crate roots.
pub const L5: &[&str] = &[
    "-Dclippy::cast_possible_truncation",
    "-Dclippy::cast_possible_wrap",
    "-Dclippy::cast_sign_loss",
];

/// L7: the crate-root level of `core`, `simnet`, `crypto` and `obs`.
pub const L7: &[&str] = &["-Fclippy::disallowed_types"];

/// The workspace level of `disallowed_types` (root `Cargo.toml`), which
/// is what the bench harness runs under.
pub const WORKSPACE_L4: &[&str] = &["-Dclippy::disallowed_types"];

/// The workspace root, whose `clippy.toml` governs every crate but the
/// bench harness and `vendor/`.
pub fn root_conf() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The bench harness's own `clippy.toml` directory.
pub fn bench_conf() -> PathBuf {
    root_conf().join("crates/bench")
}

/// Compiles `source` as a library crate with `--cfg test` (so the
/// test-code exemptions of `clippy.toml` are exercised), every lint
/// allowed except `levels`, and the `clippy.toml` found in `conf_dir`.
/// Returns the reported `(line, lint)` pairs, sorted; a compile error
/// reports under its code (e.g. `E0453`), or as `error` if it has none
/// (a parse error, say), so a snippet that fails to compile never reads
/// as clean.
pub fn clippy(source: &str, levels: &[&str], conf_dir: &Path) -> Vec<(u32, String)> {
    let mut child = Command::new(driver())
        .args([
            "--edition=2021",
            "--crate-type=lib",
            "--crate-name=fixture",
            "--cfg=test",
            "--emit=metadata=-",
            "--error-format=json",
            "-Awarnings",
        ])
        .args(levels)
        .arg("-")
        .env("CLIPPY_CONF_DIR", conf_dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("clippy-driver runs (install the clippy component)");
    child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(source.as_bytes())
        .expect("source is written to clippy-driver");
    let out = child.wait_with_output().expect("clippy-driver exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let mut found: Vec<_> = stderr.lines().filter_map(diagnostic).collect();
    assert!(
        out.status.success() || !found.is_empty(),
        "clippy-driver failed without a diagnostic:\n{stderr}"
    );
    found.sort();
    found
}

/// `(line, lint)` of one JSON diagnostic: the lint or error code, or
/// `error` for a code-less error. `None` for the closing "aborting due
/// to …" summary and anything that is not an error-level diagnostic.
fn diagnostic(json: &str) -> Option<(u32, String)> {
    let (_, rest) = json.split_once("\"code\":")?;
    let lint = match rest.strip_prefix("{\"code\":\"") {
        Some(coded) => {
            let code = coded.split('"').next()?;
            code.strip_prefix("clippy::").unwrap_or(code)
        }
        None if rest.starts_with("null,\"level\":\"error\"")
            && !json.contains("\"message\":\"aborting due to") =>
        {
            "error"
        }
        None => return None,
    };
    let line = rest
        .split_once("\"line_start\":")
        .and_then(|(_, rest)| rest.split(',').next()?.parse().ok())
        .unwrap_or(0);
    Some((line, lint.to_owned()))
}

/// The clippy lint levels `source` sets, as sorted flags in the form of
/// the constants above (`-D` for `deny`, `-F` for `forbid`): with
/// `Some(module)`, the outer attributes on its `pub mod module;` line;
/// with `None`, the inner attributes at the crate root. Comments are
/// ignored, as are `warn`, `allow` and `expect`.
pub fn levels_in_source(source: &str, module: Option<&str>) -> Vec<String> {
    let code = source
        .lines()
        .filter(|line| !line.trim_start().starts_with("//"))
        .collect::<Vec<_>>()
        .join("\n");
    let (scope, opener) = match module {
        Some(name) => {
            let item = format!("pub mod {name};");
            let end = code
                .find(&item)
                .unwrap_or_else(|| panic!("no `{item}` in the source"));
            let head = &code[..end];
            // The attributes between the previous item and this one.
            (&head[head.rfind(';').map_or(0, |i| i + 1)..], "#[")
        }
        None => (code.as_str(), "#!["),
    };
    let mut flags = Vec::new();
    for (level, flag) in [("deny", "-D"), ("forbid", "-F")] {
        for attr in scope.split(&format!("{opener}{level}(")).skip(1) {
            let list = attr.split(')').next().unwrap_or_default();
            flags.extend(
                list.split(',')
                    .map(str::trim)
                    .filter(|lint| lint.starts_with("clippy::"))
                    .map(|lint| format!("{flag}{lint}")),
            );
        }
    }
    flags.sort();
    flags
}

/// `levels` as [`levels_in_source`] returns them: concatenated, sorted.
pub fn sorted(levels: &[&[&str]]) -> Vec<String> {
    let mut flags: Vec<String> = levels.concat().into_iter().map(str::to_owned).collect();
    flags.sort();
    flags
}

/// `clippy-driver` from the toolchain running this test: cargo sets
/// `$CARGO` for the processes it runs, and the driver ships beside it.
fn driver() -> PathBuf {
    std::env::var_os("CARGO")
        .map(|cargo| PathBuf::from(cargo).with_file_name("clippy-driver"))
        .filter(|path| path.exists())
        .unwrap_or_else(|| PathBuf::from("clippy-driver"))
}
