// Fixture: protocol-critical code that satisfies every rule. Scanned by
// tests/fixtures.rs as if it lived at crates/crypto/src/fixture.rs, and
// checked with clippy at the crypto crate's levels.

pub fn well_behaved(zp: &Zp, zq: &Zq, shares: &[u64], i: usize) -> Result<u64, Error> {
    // "unwrap" and panic! in strings and comments are invisible.
    let label = "do not unwrap or panic! here";
    let value = shares.get(i).copied().ok_or(Error::Missing)?;
    let product = zp.mul(value, zp.pow(value, 3));
    let sum = zq.add(product, value);
    match classify(sum, label) {
        Class::Low => Ok(sum),
        Class::High => Err(Error::TooHigh),
    }
}

// Stand-ins for the field API, so the fixture compiles.
pub struct Zp;
pub struct Zq;
pub enum Error {
    Missing,
    TooHigh,
}
enum Class {
    Low,
    High,
}

impl Zp {
    fn mul(&self, a: u64, b: u64) -> u64 {
        a.max(b)
    }
    fn pow(&self, base: u64, _exp: u64) -> u64 {
        base
    }
}

impl Zq {
    fn add(&self, a: u64, b: u64) -> u64 {
        a.min(b)
    }
}

fn classify(v: u64, label: &str) -> Class {
    if v > label.len() as u64 {
        Class::High
    } else {
        Class::Low
    }
}

#[cfg(test)]
mod tests {
    // Tests may unwrap freely: dmw-lint strips test modules, and the root
    // clippy.toml exempts test code from the panic-path lints.
    fn in_tests() {
        let x: Option<u64> = Some(1);
        let _ = x.unwrap();
        let v = vec![1, 2, 3];
        let _ = v[0];
        panic!("fine in tests");
    }
}
