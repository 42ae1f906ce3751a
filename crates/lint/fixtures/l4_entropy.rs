// Fixture: the L4 shape clippy owns, the `SystemTime` read. Checked by
// tests/fixtures.rs under both clippy.toml files (root and bench
// harness); the ambient RNG shapes (`thread_rng`, `from_entropy`,
// `OsRng`) do not compile at all, see the doctests of vendor/rand.

use std::time::SystemTime;

pub fn ambient_time() -> u64 {
    let now = SystemTime::now();
    let later = std::time::SystemTime::now();
    u64::from(later >= now)
}
