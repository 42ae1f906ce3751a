// Fixture: every L2 shape. Checked by tests/fixtures.rs with clippy at
// the L2 levels of the crypto crate root, under the root clippy.toml.

pub fn raw_field_arithmetic(zp: &Zp, a: u64, b: u64, p: u64) -> [u64; 4] {
    let reduced = (a * b) % p;
    let powed = a.pow(3);
    let wrapped = a.wrapping_mul(b);
    let off_by_one = zp.mul(a, b) + 1;
    [reduced, powed, wrapped, off_by_one]
}

// Legal under L2: index and count arithmetic on `usize`, and residues
// composed through the field API.
pub fn field_api(zp: &Zp, shares: &[u64], i: usize) -> Option<u64> {
    let next = shares.get(i + 1)?;
    let last = shares.get(shares.len() - 1)?;
    Some(zp.add(zp.mul(*next, zp.pow(*last, 3)), 1))
}

// A stand-in for the field API, so the fixture compiles.
pub struct Zp;
impl Zp {
    fn mul(&self, a: u64, b: u64) -> u64 { a.max(b) }
    fn add(&self, a: u64, b: u64) -> u64 { a.min(b) }
    fn pow(&self, base: u64, _exp: u64) -> u64 { base }
}
