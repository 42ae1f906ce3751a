//! Tier-1 enforcement of the protocol invariants: `cargo test` fails if
//! any workspace source violates a clippy lint at the level set in
//! source (L1, L2, L3, L4, L5, L7, L10; see `docs/static_analysis.md`),
//! so a violation cannot merge even when the `scripts/check.sh` gate is
//! skipped. This suite also pins those levels to the attributes in
//! source and checks that an injected hash iteration (L10) fails; the
//! fixture tests in `fixtures.rs` pin what each level catches. The other
//! rules are types and tests: L6 is the agent's private `PhaseClock`,
//! L8 the `Retry` type of `dmw::reliable`, L9 the `compile_fail`
//! doctests of `dmw::messages`, and L11 the phase walk in
//! `dmw::phases`'s tests and `fixtures.rs`.

#[path = "support/clippy.rs"]
mod clippy_probe;

use clippy_probe::{
    at, bench_conf, clippy, crate_root, levels_in_source, read, root_conf, sorted, L1, L2, L3, L5,
    L7, WORKSPACE_L4, WORKSPACE_WAIVERS,
};
use std::process::Command;

#[test]
fn workspace_passes_clippy_at_the_levels_set_in_source() {
    // `-A warnings` keeps the advisory `warn` tier quiet; every `deny`
    // and `forbid` set in source or in `[workspace.lints]` still fails,
    // and so does an `#[expect]` waiver that no longer suppresses
    // anything. A separate target directory keeps this nested build from
    // waiting on the lock of the one running the tests.
    let root = root_conf();
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", root.join("target/clippy-tier1"))
        .args([
            "clippy",
            "--offline",
            "--quiet",
            "--workspace",
            "--all-targets",
        ])
        .args([
            "--",
            "-A",
            "warnings",
            "-D",
            "unfulfilled_lint_expectations",
        ])
        .output()
        .expect("cargo clippy runs (tier 1 needs the clippy component)");
    assert!(
        out.status.success(),
        "clippy rejected the workspace:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn an_injected_l10_violation_fails() {
    // Hash iteration order is unspecified: clippy's `disallowed_types`
    // rejects the collection itself, at the deterministic crates'
    // `forbid` under the root clippy.toml and at the workspace `deny`
    // under the bench harness's.
    let source = "use std::collections::HashMap;\n\
                  pub fn f(m: &HashMap<u64, u64>) -> u64 { m.values().sum() }\n";
    let expected = at(&[(1, "disallowed_types"), (2, "disallowed_types")]);
    assert_eq!(clippy(source, L7, &root_conf()), expected);
    assert_eq!(clippy(source, WORKSPACE_L4, &bench_conf()), expected);
    // The ordered map stays legal.
    let ordered = source.replace("HashMap", "BTreeMap");
    assert!(clippy(&ordered, L7, &root_conf()).is_empty());
}

#[test]
fn l4_applies_everywhere() {
    // L4's `SystemTime` ban and L10's hash-collection ban are clippy's
    // `disallowed_types`: denied in every workspace member through
    // `[workspace.lints]`, and listed in both clippy.toml files (root and
    // bench harness).
    let manifest = read("Cargo.toml");
    assert!(manifest.contains("disallowed_types = \"deny\""));
    let members = manifest
        .lines()
        .filter_map(|l| l.trim().strip_prefix('"')?.strip_suffix("\","))
        .filter(|m| !m.starts_with("vendor/"));
    for member in members {
        let crate_manifest = read(&format!("{member}/Cargo.toml"));
        assert!(
            crate_manifest.contains("[lints]\nworkspace = true"),
            "{member} must opt into the workspace lints"
        );
    }
    for conf in ["clippy.toml", "crates/bench/clippy.toml"] {
        let listed = read(conf);
        for ty in [
            "std::time::SystemTime",
            "std::collections::HashMap",
            "std::collections::HashSet",
        ] {
            assert!(listed.contains(&format!("\"{ty}\"")), "{conf}: {ty}");
        }
    }
}

#[test]
fn lint_levels_set_in_source_are_the_probed_levels() {
    // The fixture tests compile at the probe's levels; this pins those
    // levels to the attributes in source, so dropping one from a
    // `pub mod` line or a crate root fails here.
    let core = &crate_root("core");
    let modules: Vec<&str> = core
        .lines()
        .filter_map(|line| line.strip_prefix("pub mod ")?.strip_suffix(';'))
        .collect();
    assert!(modules.contains(&"messages"), "{modules:?}");
    for module in modules {
        let expected = match module {
            "agent" | "payment" | "phases" => sorted(&[L1, L2]),
            "runner" => sorted(&[L1, L2, L3]),
            "codec" => sorted(&[L1, L3]),
            _ => Vec::new(),
        };
        assert_eq!(
            levels_in_source(core, Some(module)),
            expected,
            "`pub mod {module}` in crates/core/src/lib.rs"
        );
    }
    let modmath_l1 = &[
        "-Dclippy::unwrap_used",
        "-Dclippy::expect_used",
        "-Dclippy::indexing_slicing",
    ][..];
    for (name, expected) in [
        ("core", sorted(&[L7])),
        ("simnet", sorted(&[L7])),
        ("obs", sorted(&[L7])),
        ("crypto", sorted(&[L1, L2, L5, L7])),
        ("modmath", sorted(&[modmath_l1, L5])),
        ("bench", Vec::new()),
    ] {
        assert_eq!(
            levels_in_source(&crate_root(name), None),
            expected,
            "crate root of {name}"
        );
    }
    let manifest = read("Cargo.toml");
    for flag in WORKSPACE_WAIVERS {
        let lint = flag.trim_start_matches("-Dclippy::");
        assert!(
            manifest.contains(&format!("\n{lint} = \"deny\"")),
            "`{lint}` in [workspace.lints.clippy]"
        );
    }
}
