// Fixture: every L7 shape. Checked by tests/fixtures.rs with clippy at
// the crate-root level of the deterministic crates (core, simnet, crypto,
// obs) under the root clippy.toml, and under the bench harness's
// clippy.toml, which allows `Instant` but not `SystemTime`.

use std::time::SystemTime;

pub fn wall_clock_reads() -> u64 {
    let started = std::time::Instant::now();
    let epoch = SystemTime::now();
    u64::from(epoch.elapsed().is_ok()) + started.elapsed().as_secs()
}
