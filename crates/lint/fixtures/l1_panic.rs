// Fixture: every L1 shape. Checked by tests/fixtures.rs with clippy at
// the L1 levels of crates/core/src/lib.rs, under the root clippy.toml.

pub fn panic_paths(x: Option<u64>, v: &[u64]) -> u64 {
    let a = x.unwrap();
    let b = x.expect("present");
    if a == 0 {
        panic!("zero");
    }
    if b == 1 {
        unreachable!();
    }
    a + v[0]
}

pub fn unfinished() -> u64 {
    todo!()
}

pub fn unwritten() -> u64 {
    unimplemented!()
}

#[cfg(test)]
mod tests {
    // Test code is exempt (the root clippy.toml's `allow-*-in-tests`).
    fn in_tests(x: Option<u64>, v: &[u64]) -> u64 {
        if v.is_empty() {
            panic!("fine in tests");
        }
        x.unwrap() + x.expect("present") + v[0]
    }
}
