// Fixture: L5 truncating, wrapping and sign-losing casts. Checked by tests/fixtures.rs
// with clippy at the cast levels of the modmath and crypto crate roots.

pub fn narrow(residue: u64, small: u32, delta: i32) -> usize {
    let short = residue as u32;
    let index = residue as usize;
    let signed = small as i32;
    let wide = residue as u128 + u128::from(short); // widening: legal
    let reduced = (wide >> 1) as u64;
    let magnitude = delta as u32;
    index + usize::from(signed > 0) + usize::from(reduced > 0) + usize::from(magnitude > 0)
}
