//! Binary wire codec for protocol messages.
//!
//! The communication-cost experiment should count *real* bytes, not
//! estimates, so every [`Body`] encodes to a compact binary form: a tag
//! byte, little-endian `u64` residues, and `u32`-length-prefixed vectors
//! (participation masks are bit-packed). `Body::size_bytes` — the
//! quantity the network statistics accumulate — is the exact encoded
//! length, and a round-trip property test pins `encode ∘ decode` to the
//! identity.

use crate::error::AbortReason;
use crate::messages::Body;
use dmw_crypto::polynomials::ShareBundle;
use dmw_crypto::resolution::LambdaPsi;
use dmw_crypto::{BidEncoding, Commitments};
use std::error::Error;
use std::fmt;

/// Errors produced when decoding a wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The buffer ended before the message was complete.
    Truncated,
    /// Unknown message or abort-reason tag.
    BadTag {
        /// The offending byte.
        tag: u8,
    },
    /// A length prefix exceeded the sanity limit.
    LengthOverflow {
        /// The claimed element count.
        len: u32,
    },
    /// Trailing bytes after a complete message.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// Commitment vectors did not match the supplied encoding's `σ`.
    WrongCommitmentShape,
    /// Sequence ranges violated their invariants: a selective-ack or
    /// repair set that is empty where it may not be, descending, or
    /// overlapping, or a nack range with `lo > hi`.
    MalformedRanges,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "message truncated"),
            DecodeError::BadTag { tag } => write!(f, "unknown tag {tag:#04x}"),
            DecodeError::LengthOverflow { len } => write!(f, "length {len} exceeds sanity limit"),
            DecodeError::TrailingBytes { extra } => write!(f, "{extra} trailing bytes"),
            DecodeError::WrongCommitmentShape => {
                write!(f, "commitment vectors do not match the encoding")
            }
            DecodeError::MalformedRanges => {
                write!(f, "sequence ranges are empty, descending, or overlapping")
            }
        }
    }
}

impl Error for DecodeError {}

/// Sanity cap on decoded vector lengths (the protocol never exceeds the
/// agent count, far below this).
const MAX_VEC: u32 = 1 << 20;

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer {
            buf: Vec::with_capacity(64),
        }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64s(&mut self, vs: &[u64]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.u64(v);
        }
    }

    /// Writes `body` nested in a container that may not carry the
    /// `forbidden` tags (building one is a programming error), behind a
    /// `u32` length prefix when `prefixed`.
    fn nested(&mut self, body: &Body, forbidden: &[u8], prefixed: bool) {
        let encoded = body.encode();
        assert!(
            !encoded.first().is_some_and(|tag| forbidden.contains(tag)),
            "batches never nest and sealing is outermost"
        );
        if prefixed {
            self.u32(encoded.len() as u32);
        }
        self.buf.extend_from_slice(&encoded);
    }

    fn bools(&mut self, vs: &[bool]) {
        self.u32(vs.len() as u32);
        let mut byte = 0u8;
        for (i, &b) in vs.iter().enumerate() {
            if b {
                byte |= 1 << (i % 8);
            }
            if i % 8 == 7 {
                self.buf.push(byte);
                byte = 0;
            }
        }
        if !vs.len().is_multiple_of(8) {
            self.buf.push(byte);
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        let v = *self.buf.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(v)
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let bytes: [u8; 4] = self
            .buf
            .get(self.pos..self.pos + 4)
            .and_then(|s| s.try_into().ok())
            .ok_or(DecodeError::Truncated)?;
        self.pos += 4;
        Ok(u32::from_le_bytes(bytes))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let bytes: [u8; 8] = self
            .buf
            .get(self.pos..self.pos + 8)
            .and_then(|s| s.try_into().ok())
            .ok_or(DecodeError::Truncated)?;
        self.pos += 8;
        Ok(u64::from_le_bytes(bytes))
    }

    fn u64s(&mut self) -> Result<Vec<u64>, DecodeError> {
        let len = self.u32()?;
        if len > MAX_VEC {
            return Err(DecodeError::LengthOverflow { len });
        }
        (0..len).map(|_| self.u64()).collect()
    }

    /// Reads a body nested in a container that may not carry the
    /// `forbidden` tags: behind a `u32` length prefix when `prefixed`,
    /// else the rest of the buffer.
    fn nested(
        &mut self,
        encoding: &BidEncoding,
        forbidden: &[u8],
        prefixed: bool,
    ) -> Result<Body, DecodeError> {
        let len = if prefixed {
            self.u32()? as usize
        } else {
            self.buf.len() - self.pos
        };
        let end = self.pos.saturating_add(len);
        let slice = self.buf.get(self.pos..end).ok_or(DecodeError::Truncated)?;
        if let Some(&tag) = slice.first().filter(|tag| forbidden.contains(tag)) {
            return Err(DecodeError::BadTag { tag });
        }
        let body = Body::decode(slice, encoding)?;
        self.pos += slice.len();
        Ok(body)
    }

    fn bools(&mut self) -> Result<Vec<bool>, DecodeError> {
        let len = self.u32()?;
        if len > MAX_VEC {
            return Err(DecodeError::LengthOverflow { len });
        }
        let bytes = len.div_ceil(8) as usize;
        let slice = self
            .buf
            .get(self.pos..self.pos + bytes)
            .ok_or(DecodeError::Truncated)?;
        self.pos += bytes;
        // Bit i lives in byte i / 8 at position i % 8; expanding every
        // byte and truncating to `len` avoids indexed access entirely.
        Ok(slice
            .iter()
            .flat_map(|&byte| (0u32..8).map(move |bit| byte & (1 << bit) != 0))
            .take(len as usize)
            .collect())
    }

    fn finish(self) -> Result<(), DecodeError> {
        let extra = self.buf.len() - self.pos;
        if extra != 0 {
            return Err(DecodeError::TrailingBytes { extra });
        }
        Ok(())
    }
}

const TAG_SHARES: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_LAMBDA: u8 = 3;
const TAG_DISCLOSE: u8 = 4;
const TAG_EXCLUDED: u8 = 5;
const TAG_PAYMENT: u8 = 6;
const TAG_ABORT: u8 = 7;
const TAG_BATCH: u8 = 8;
const TAG_WINNER_CLAIM: u8 = 9;
const TAG_SEALED: u8 = 10;
const TAG_ACK: u8 = 11;
const TAG_SUSPECT_DEAD: u8 = 12;
const TAG_NACK: u8 = 13;
const TAG_REPAIR: u8 = 14;

/// What a batch may not carry: batches never nest, and sealing (plain
/// or repair) is outermost.
const BATCH_FORBIDS: &[u8] = &[TAG_BATCH, TAG_SEALED, TAG_REPAIR];
/// What a sealed or repair envelope may not carry: another sealing
/// layer.
const SEALED_FORBIDS: &[u8] = &[TAG_SEALED, TAG_REPAIR];

fn encode_abort(reason: &AbortReason, w: &mut Writer) {
    match reason {
        AbortReason::InvalidShares { sender } => {
            w.u8(0);
            w.u32(*sender as u32);
        }
        AbortReason::InvalidLambdaPsi { publisher } => {
            w.u8(1);
            w.u32(*publisher as u32);
        }
        AbortReason::InconsistentMask { publisher } => {
            w.u8(2);
            w.u32(*publisher as u32);
        }
        AbortReason::InvalidDisclosure { discloser } => {
            w.u8(3);
            w.u32(*discloser as u32);
        }
        AbortReason::InvalidExcluded { publisher } => {
            w.u8(4);
            w.u32(*publisher as u32);
        }
        AbortReason::Unresolvable => w.u8(5),
        AbortReason::NoWinner => w.u8(6),
        AbortReason::TooManyFaults {
            observed,
            tolerated,
        } => {
            w.u8(7);
            w.u32(*observed as u32);
            w.u32(*tolerated as u32);
        }
        AbortReason::PaymentDisagreement => w.u8(8),
        AbortReason::PeerAborted { peer } => {
            w.u8(9);
            w.u32(*peer as u32);
        }
    }
}

fn decode_abort(r: &mut Reader<'_>) -> Result<AbortReason, DecodeError> {
    Ok(match r.u8()? {
        0 => AbortReason::InvalidShares {
            sender: r.u32()? as usize,
        },
        1 => AbortReason::InvalidLambdaPsi {
            publisher: r.u32()? as usize,
        },
        2 => AbortReason::InconsistentMask {
            publisher: r.u32()? as usize,
        },
        3 => AbortReason::InvalidDisclosure {
            discloser: r.u32()? as usize,
        },
        4 => AbortReason::InvalidExcluded {
            publisher: r.u32()? as usize,
        },
        5 => AbortReason::Unresolvable,
        6 => AbortReason::NoWinner,
        7 => AbortReason::TooManyFaults {
            observed: r.u32()? as usize,
            tolerated: r.u32()? as usize,
        },
        8 => AbortReason::PaymentDisagreement,
        9 => AbortReason::PeerAborted {
            peer: r.u32()? as usize,
        },
        tag => return Err(DecodeError::BadTag { tag }),
    })
}

impl Body {
    /// Encodes the message to its wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Body::Shares { task, bundle } => {
                w.u8(TAG_SHARES);
                w.u32(*task as u32);
                w.u64(bundle.e);
                w.u64(bundle.f);
                w.u64(bundle.g);
                w.u64(bundle.h);
            }
            Body::Commit { task, commitments } => {
                w.u8(TAG_COMMIT);
                w.u32(*task as u32);
                w.u64s(commitments.o());
                w.u64s(commitments.q());
                w.u64s(commitments.r());
            }
            Body::Lambda {
                task,
                pair,
                included,
            } => {
                w.u8(TAG_LAMBDA);
                w.u32(*task as u32);
                w.u64(pair.lambda);
                w.u64(pair.psi);
                w.bools(included);
            }
            Body::Disclose { task, f_values } => {
                w.u8(TAG_DISCLOSE);
                w.u32(*task as u32);
                w.u64s(f_values);
            }
            Body::WinnerClaim { task, points } => {
                w.u8(TAG_WINNER_CLAIM);
                w.u32(*task as u32);
                w.u32(points.len() as u32);
                for &(agent, f, h) in points {
                    w.u32(agent as u32);
                    w.u64(f);
                    w.u64(h);
                }
            }
            Body::Excluded { task, pair } => {
                w.u8(TAG_EXCLUDED);
                w.u32(*task as u32);
                w.u64(pair.lambda);
                w.u64(pair.psi);
            }
            Body::PaymentClaim { payments } => {
                w.u8(TAG_PAYMENT);
                w.u64s(payments);
            }
            Body::Abort { reason } => {
                w.u8(TAG_ABORT);
                encode_abort(reason, &mut w);
            }
            Body::Batch(bodies) => {
                w.u8(TAG_BATCH);
                w.u32(bodies.len() as u32);
                for body in bodies {
                    w.nested(body, BATCH_FORBIDS, true);
                }
            }
            Body::Sealed { seq, ack, inner } => {
                w.u8(TAG_SEALED);
                w.u64(*seq);
                w.u64(*ack);
                w.nested(inner, SEALED_FORBIDS, false);
            }
            Body::Ack { ack, sack } => {
                assert!(
                    sack.len() <= crate::reliable::SACK_MAX_RANGES,
                    "selective-ack range set exceeds the wire bound"
                );
                w.u8(TAG_ACK);
                w.u64(*ack);
                w.u8(sack.len() as u8);
                for &(lo, hi) in sack {
                    w.u64(lo);
                    w.u64(hi);
                }
            }
            Body::Nack { lo, hi } => {
                w.u8(TAG_NACK);
                w.u64(*lo);
                w.u64(*hi);
            }
            Body::Repair { ack, items } => {
                w.u8(TAG_REPAIR);
                w.u64(*ack);
                w.u32(items.len() as u32);
                for (seq, body) in items {
                    w.u64(*seq);
                    w.nested(body, SEALED_FORBIDS, true);
                }
            }
            Body::SuspectDead { peer } => {
                w.u8(TAG_SUSPECT_DEAD);
                w.u32(*peer as u32);
            }
        }
        w.buf
    }

    /// The exact wire size in bytes, computed without allocating.
    pub fn encoded_len(&self) -> usize {
        match self {
            Body::Shares { .. } => 1 + 4 + 4 * 8,
            Body::Commit { commitments, .. } => {
                1 + 4
                    + 3 * 4
                    + (commitments.o().len() + commitments.q().len() + commitments.r().len()) * 8
            }
            Body::Lambda { included, .. } => 1 + 4 + 2 * 8 + 4 + included.len().div_ceil(8),
            Body::Disclose { f_values, .. } => 1 + 4 + 4 + f_values.len() * 8,
            Body::WinnerClaim { points, .. } => 1 + 4 + 4 + points.len() * (4 + 2 * 8),
            Body::Excluded { .. } => 1 + 4 + 2 * 8,
            Body::PaymentClaim { payments } => 1 + 4 + payments.len() * 8,
            Body::Abort { reason } => {
                1 + 1
                    + match reason {
                        AbortReason::Unresolvable
                        | AbortReason::NoWinner
                        | AbortReason::PaymentDisagreement => 0,
                        AbortReason::TooManyFaults { .. } => 8,
                        AbortReason::InvalidShares { .. }
                        | AbortReason::InvalidLambdaPsi { .. }
                        | AbortReason::InconsistentMask { .. }
                        | AbortReason::InvalidDisclosure { .. }
                        | AbortReason::InvalidExcluded { .. }
                        | AbortReason::PeerAborted { .. } => 4,
                    }
            }
            Body::Batch(bodies) => {
                1 + 4 + bodies.iter().map(|b| 4 + b.encoded_len()).sum::<usize>()
            }
            Body::Sealed { inner, .. } => 1 + 8 + 8 + inner.encoded_len(),
            Body::Ack { sack, .. } => 1 + 8 + 1 + sack.len() * 16,
            Body::Nack { .. } => 1 + 8 + 8,
            Body::Repair { items, .. } => {
                1 + 8
                    + 4
                    + items
                        .iter()
                        .map(|(_, b)| 8 + 4 + b.encoded_len())
                        .sum::<usize>()
            }
            Body::SuspectDead { .. } => 1 + 4,
        }
    }

    /// Decodes a message from its wire form. Commitment vectors are
    /// validated against `encoding` (all three must have `σ` entries).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for truncated input, unknown tags,
    /// oversized length prefixes, trailing bytes, or commitment vectors
    /// that do not match the encoding.
    pub fn decode(bytes: &[u8], encoding: &BidEncoding) -> Result<Body, DecodeError> {
        let mut r = Reader::new(bytes);
        let body = match r.u8()? {
            TAG_SHARES => Body::Shares {
                task: r.u32()? as usize,
                bundle: ShareBundle {
                    e: r.u64()?,
                    f: r.u64()?,
                    g: r.u64()?,
                    h: r.u64()?,
                },
            },
            TAG_COMMIT => {
                let task = r.u32()? as usize;
                let o = r.u64s()?;
                let q = r.u64s()?;
                let rr = r.u64s()?;
                let commitments = Commitments::from_parts(encoding, o, q, rr)
                    .map_err(|_| DecodeError::WrongCommitmentShape)?;
                Body::Commit { task, commitments }
            }
            TAG_LAMBDA => Body::Lambda {
                task: r.u32()? as usize,
                pair: LambdaPsi {
                    lambda: r.u64()?,
                    psi: r.u64()?,
                },
                included: r.bools()?,
            },
            TAG_DISCLOSE => Body::Disclose {
                task: r.u32()? as usize,
                f_values: r.u64s()?,
            },
            TAG_WINNER_CLAIM => {
                let task = r.u32()? as usize;
                let count = r.u32()?;
                if count > MAX_VEC {
                    return Err(DecodeError::LengthOverflow { len: count });
                }
                let mut points = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    points.push((r.u32()? as usize, r.u64()?, r.u64()?));
                }
                Body::WinnerClaim { task, points }
            }
            TAG_EXCLUDED => Body::Excluded {
                task: r.u32()? as usize,
                pair: LambdaPsi {
                    lambda: r.u64()?,
                    psi: r.u64()?,
                },
            },
            TAG_PAYMENT => Body::PaymentClaim {
                payments: r.u64s()?,
            },
            TAG_ABORT => Body::Abort {
                reason: decode_abort(&mut r)?,
            },
            TAG_BATCH => {
                let count = r.u32()?;
                if count > MAX_VEC {
                    return Err(DecodeError::LengthOverflow { len: count });
                }
                let mut bodies = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    bodies.push(r.nested(encoding, BATCH_FORBIDS, true)?);
                }
                Body::Batch(bodies)
            }
            TAG_SEALED => {
                let seq = r.u64()?;
                let ack = r.u64()?;
                let inner = Box::new(r.nested(encoding, SEALED_FORBIDS, false)?);
                Body::Sealed { seq, ack, inner }
            }
            TAG_ACK => {
                let ack = r.u64()?;
                let count = r.u8()?;
                if usize::from(count) > crate::reliable::SACK_MAX_RANGES {
                    return Err(DecodeError::LengthOverflow { len: count.into() });
                }
                let mut sack = Vec::with_capacity(count.into());
                // Ranges must sit beyond the cumulative ack, each run
                // non-empty, ascending and non-adjacent (an adjacent or
                // overlapping pair should have been one range).
                let mut floor = ack;
                for _ in 0..count {
                    let lo = r.u64()?;
                    let hi = r.u64()?;
                    if lo <= floor.saturating_add(1) || hi < lo {
                        return Err(DecodeError::MalformedRanges);
                    }
                    floor = hi;
                    sack.push((lo, hi));
                }
                Body::Ack { ack, sack }
            }
            TAG_NACK => {
                let lo = r.u64()?;
                let hi = r.u64()?;
                if lo > hi {
                    return Err(DecodeError::MalformedRanges);
                }
                Body::Nack { lo, hi }
            }
            TAG_REPAIR => {
                let ack = r.u64()?;
                let count = r.u32()?;
                if count > MAX_VEC {
                    return Err(DecodeError::LengthOverflow { len: count });
                }
                if count == 0 {
                    return Err(DecodeError::MalformedRanges);
                }
                let mut items = Vec::with_capacity(count as usize);
                let mut prev_seq = 0u64;
                for _ in 0..count {
                    let seq = r.u64()?;
                    if seq <= prev_seq {
                        return Err(DecodeError::MalformedRanges);
                    }
                    prev_seq = seq;
                    items.push((seq, r.nested(encoding, SEALED_FORBIDS, true)?));
                }
                Body::Repair { ack, items }
            }
            TAG_SUSPECT_DEAD => Body::SuspectDead {
                peer: r.u32()? as usize,
            },
            tag => return Err(DecodeError::BadTag { tag }),
        };
        r.finish()?;
        Ok(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmw_crypto::polynomials::{BidPolynomials, SecretBid};
    use dmw_modmath::SchnorrGroup;
    use rand::SeedableRng;

    fn sample_bodies() -> (BidEncoding, Vec<Body>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        let group = SchnorrGroup::generate(40, 16, &mut rng).unwrap();
        let encoding = BidEncoding::new(5, 1).unwrap();
        let polys =
            BidPolynomials::generate(&group, &encoding, &SecretBid::new(2), &mut rng).unwrap();
        let commitments = Commitments::commit(&group, &encoding, &polys);
        let bodies = vec![
            Body::Shares {
                task: 3,
                bundle: ShareBundle {
                    e: 1,
                    f: 2,
                    g: 3,
                    h: u64::MAX - 1,
                },
            },
            Body::Commit {
                task: 0,
                commitments,
            },
            Body::Lambda {
                task: 7,
                pair: LambdaPsi {
                    lambda: 42,
                    psi: 99,
                },
                included: vec![true, false, true, true, false],
            },
            Body::Disclose {
                task: 1,
                f_values: vec![5, 6, 7, 8, 9],
            },
            Body::WinnerClaim {
                task: 0,
                points: vec![(3, 11, 12), (4, 13, u64::MAX)],
            },
            Body::Excluded {
                task: 2,
                pair: LambdaPsi {
                    lambda: 10,
                    psi: 20,
                },
            },
            Body::PaymentClaim {
                payments: vec![0, 3, 0, 2, 0],
            },
            Body::Abort {
                reason: AbortReason::InvalidShares { sender: 4 },
            },
            Body::Abort {
                reason: AbortReason::Unresolvable,
            },
            Body::Abort {
                reason: AbortReason::TooManyFaults {
                    observed: 3,
                    tolerated: 1,
                },
            },
            Body::Abort {
                reason: AbortReason::PeerAborted { peer: 2 },
            },
            Body::Sealed {
                seq: 17,
                ack: u64::MAX - 3,
                inner: Box::new(Body::Disclose {
                    task: 1,
                    f_values: vec![5, 6, 7],
                }),
            },
            Body::Ack {
                ack: 41,
                sack: vec![],
            },
            Body::Ack {
                ack: 41,
                sack: vec![(43, 45), (47, 47), (50, u64::MAX)],
            },
            Body::Nack { lo: 7, hi: 9 },
            Body::Repair {
                ack: 12,
                items: vec![
                    (
                        3,
                        Body::Disclose {
                            task: 1,
                            f_values: vec![5, 6, 7],
                        },
                    ),
                    (
                        5,
                        Body::Batch(vec![Body::Excluded {
                            task: 2,
                            pair: LambdaPsi {
                                lambda: 10,
                                psi: 20,
                            },
                        }]),
                    ),
                ],
            },
            Body::SuspectDead { peer: 3 },
        ];
        (encoding, bodies)
    }

    #[test]
    fn round_trips_every_variant() {
        let (encoding, bodies) = sample_bodies();
        for body in bodies {
            let bytes = body.encode();
            let decoded = Body::decode(&bytes, &encoding).unwrap_or_else(|e| {
                panic!("decode failed for {}: {e}", body.kind());
            });
            assert_eq!(decoded, body, "{} round trip", body.kind());
        }
    }

    #[test]
    fn encoded_len_is_exact() {
        let (_, bodies) = sample_bodies();
        for body in bodies {
            assert_eq!(body.encoded_len(), body.encode().len(), "{}", body.kind());
        }
    }

    #[test]
    fn truncation_is_detected() {
        let (encoding, bodies) = sample_bodies();
        for body in bodies {
            let bytes = body.encode();
            for cut in 0..bytes.len() {
                let err = Body::decode(&bytes[..cut], &encoding);
                assert!(
                    err.is_err(),
                    "{} decoded from {cut} of {} bytes",
                    body.kind(),
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn corrupt_bytes_never_panic_and_errors_are_typed() {
        // Flip bits at every byte position of every message type: decode
        // must stay total — either a typed `DecodeError` or a valid
        // reinterpretation, never a panic or a truncating crash.
        let (encoding, bodies) = sample_bodies();
        assert_eq!(
            Body::decode(&[], &encoding),
            Err(DecodeError::Truncated),
            "empty input"
        );
        for body in bodies {
            let bytes = body.encode();
            for i in 0..bytes.len() {
                for flip in [0x01u8, 0x80, 0xFF] {
                    let mut corrupt = bytes.clone();
                    corrupt[i] ^= flip;
                    if let Err(e) = Body::decode(&corrupt, &encoding) {
                        assert!(
                            !e.to_string().is_empty(),
                            "{} error must describe itself",
                            body.kind()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let (encoding, bodies) = sample_bodies();
        let mut bytes = bodies[0].encode();
        bytes.push(0);
        assert_eq!(
            Body::decode(&bytes, &encoding),
            Err(DecodeError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn bad_tags_are_rejected() {
        let (encoding, _) = sample_bodies();
        assert_eq!(
            Body::decode(&[200], &encoding),
            Err(DecodeError::BadTag { tag: 200 })
        );
        // Bad abort tag.
        assert_eq!(
            Body::decode(&[TAG_ABORT, 99], &encoding),
            Err(DecodeError::BadTag { tag: 99 })
        );
    }

    #[test]
    fn oversized_lengths_are_rejected() {
        let (encoding, _) = sample_bodies();
        let mut w = Writer::new();
        w.u8(TAG_DISCLOSE);
        w.u32(0);
        w.u32(u32::MAX); // absurd element count
        assert_eq!(
            Body::decode(&w.buf, &encoding),
            Err(DecodeError::LengthOverflow { len: u32::MAX })
        );
    }

    #[test]
    fn wrong_commitment_shape_is_rejected() {
        let (encoding, _) = sample_bodies();
        let mut w = Writer::new();
        w.u8(TAG_COMMIT);
        w.u32(0);
        w.u64s(&[1, 2]); // sigma is 5, not 2
        w.u64s(&[1, 2]);
        w.u64s(&[1, 2]);
        assert_eq!(
            Body::decode(&w.buf, &encoding),
            Err(DecodeError::WrongCommitmentShape)
        );
    }

    #[test]
    fn sealed_envelopes_reject_nesting() {
        let (encoding, bodies) = sample_bodies();
        // A crafted Sealed-in-Sealed is rejected at decode.
        let inner = Body::Sealed {
            seq: 1,
            ack: 0,
            inner: Box::new(bodies[0].clone()),
        }
        .encode();
        let mut w = Writer::new();
        w.u8(TAG_SEALED);
        w.u64(2);
        w.u64(0);
        w.buf.extend_from_slice(&inner);
        assert_eq!(
            Body::decode(&w.buf, &encoding),
            Err(DecodeError::BadTag { tag: TAG_SEALED })
        );
        // A Sealed inside a Batch is rejected too: sealing is outermost.
        let mut w = Writer::new();
        w.u8(TAG_BATCH);
        w.u32(1);
        w.u32(inner.len() as u32);
        w.buf.extend_from_slice(&inner);
        assert_eq!(
            Body::decode(&w.buf, &encoding),
            Err(DecodeError::BadTag { tag: TAG_SEALED })
        );
    }

    #[test]
    fn sealed_batch_round_trips() {
        // The real recovery-mode shape: coalesce first, seal second.
        let (encoding, bodies) = sample_bodies();
        let plain: Vec<Body> = bodies
            .iter()
            .filter(|b| !matches!(b, Body::Sealed { .. } | Body::Repair { .. }))
            .cloned()
            .collect();
        let sealed = Body::Sealed {
            seq: 9,
            ack: 4,
            inner: Box::new(Body::Batch(plain)),
        };
        let bytes = sealed.encode();
        assert_eq!(bytes.len(), sealed.encoded_len());
        assert_eq!(Body::decode(&bytes, &encoding).unwrap(), sealed);
    }

    #[test]
    fn batch_round_trips_and_rejects_nesting() {
        let (encoding, mut bodies) = sample_bodies();
        // Sealing is outermost, so the batch fixture excludes envelopes
        // of both sealing forms.
        bodies.retain(|b| !matches!(b, Body::Sealed { .. } | Body::Repair { .. }));
        let batch = Body::Batch(bodies.clone());
        let bytes = batch.encode();
        assert_eq!(bytes.len(), batch.encoded_len());
        assert_eq!(Body::decode(&bytes, &encoding).unwrap(), batch);
        // A crafted nested batch is rejected.
        let inner = Body::Batch(vec![bodies[0].clone()]).encode();
        let mut w = Writer::new();
        w.u8(TAG_BATCH);
        w.u32(1);
        w.u32(inner.len() as u32);
        w.buf.extend_from_slice(&inner);
        assert_eq!(
            Body::decode(&w.buf, &encoding),
            Err(DecodeError::BadTag { tag: TAG_BATCH })
        );
    }

    #[test]
    fn repair_envelopes_reject_nesting() {
        let (encoding, bodies) = sample_bodies();
        let inner = Body::Sealed {
            seq: 1,
            ack: 0,
            inner: Box::new(bodies[0].clone()),
        }
        .encode();
        // A Sealed inside a Repair item is rejected.
        let mut w = Writer::new();
        w.u8(TAG_REPAIR);
        w.u64(0);
        w.u32(1);
        w.u64(1);
        w.u32(inner.len() as u32);
        w.buf.extend_from_slice(&inner);
        assert_eq!(
            Body::decode(&w.buf, &encoding),
            Err(DecodeError::BadTag { tag: TAG_SEALED })
        );
        // A Repair inside a Sealed is rejected too.
        let repair = Body::Repair {
            ack: 0,
            items: vec![(1, bodies[0].clone())],
        }
        .encode();
        let mut w = Writer::new();
        w.u8(TAG_SEALED);
        w.u64(2);
        w.u64(0);
        w.buf.extend_from_slice(&repair);
        assert_eq!(
            Body::decode(&w.buf, &encoding),
            Err(DecodeError::BadTag { tag: TAG_REPAIR })
        );
        // And a Repair inside a Batch: sealing is outermost.
        let mut w = Writer::new();
        w.u8(TAG_BATCH);
        w.u32(1);
        w.u32(repair.len() as u32);
        w.buf.extend_from_slice(&repair);
        assert_eq!(
            Body::decode(&w.buf, &encoding),
            Err(DecodeError::BadTag { tag: TAG_REPAIR })
        );
        // Encode refuses to build either nesting that decode rejects.
        let repair = Body::Repair {
            ack: 0,
            items: vec![(1, bodies[0].clone())],
        };
        for container in [
            Body::Sealed {
                seq: 2,
                ack: 0,
                inner: Box::new(repair.clone()),
            },
            Body::Batch(vec![repair]),
        ] {
            let encoded = std::panic::catch_unwind(|| container.encode());
            assert!(encoded.is_err(), "{} of a repair encoded", container.kind());
        }
    }

    #[test]
    fn malformed_ranges_are_rejected() {
        let (encoding, bodies) = sample_bodies();
        // Nack with lo > hi.
        let mut w = Writer::new();
        w.u8(TAG_NACK);
        w.u64(9);
        w.u64(7);
        assert_eq!(
            Body::decode(&w.buf, &encoding),
            Err(DecodeError::MalformedRanges)
        );
        // Sack range adjacent to the cumulative ack (should have been
        // absorbed into it).
        let mut w = Writer::new();
        w.u8(TAG_ACK);
        w.u64(5);
        w.u8(1);
        w.u64(6);
        w.u64(8);
        assert_eq!(
            Body::decode(&w.buf, &encoding),
            Err(DecodeError::MalformedRanges)
        );
        // Descending sack ranges.
        let mut w = Writer::new();
        w.u8(TAG_ACK);
        w.u64(0);
        w.u8(2);
        w.u64(10);
        w.u64(12);
        w.u64(3);
        w.u64(4);
        assert_eq!(
            Body::decode(&w.buf, &encoding),
            Err(DecodeError::MalformedRanges)
        );
        // Sack range set over the wire bound.
        let mut w = Writer::new();
        w.u8(TAG_ACK);
        w.u64(0);
        w.u8((crate::reliable::SACK_MAX_RANGES + 1) as u8);
        assert_eq!(
            Body::decode(&w.buf, &encoding),
            Err(DecodeError::LengthOverflow {
                len: (crate::reliable::SACK_MAX_RANGES + 1) as u32
            })
        );
        // Empty repair.
        let mut w = Writer::new();
        w.u8(TAG_REPAIR);
        w.u64(0);
        w.u32(0);
        assert_eq!(
            Body::decode(&w.buf, &encoding),
            Err(DecodeError::MalformedRanges)
        );
        // Non-ascending repair sequence numbers.
        let item = bodies[0].encode();
        let mut w = Writer::new();
        w.u8(TAG_REPAIR);
        w.u64(0);
        w.u32(2);
        for seq in [4u64, 4] {
            w.u64(seq);
            w.u32(item.len() as u32);
            w.buf.extend_from_slice(&item);
        }
        assert_eq!(
            Body::decode(&w.buf, &encoding),
            Err(DecodeError::MalformedRanges)
        );
    }

    #[test]
    fn mask_bit_packing_handles_boundaries() {
        let (encoding, _) = sample_bodies();
        for len in [1usize, 7, 8, 9, 16, 17] {
            let included: Vec<bool> = (0..len).map(|i| i % 3 == 0).collect();
            let body = Body::Lambda {
                task: 0,
                pair: LambdaPsi { lambda: 1, psi: 2 },
                included: included.clone(),
            };
            let decoded = Body::decode(&body.encode(), &encoding).unwrap();
            assert_eq!(decoded, body, "mask length {len}");
        }
    }
}
