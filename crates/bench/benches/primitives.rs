//! Criterion micro-benchmarks for the cryptographic primitives behind
//! Table 1: share generation, commitment computation, share verification
//! (equations (7)–(9)), one item at a time and as Phase III.1's lockstep
//! batch, and degree resolution (equation (12)).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dmw_crypto::commitments::{powers_plan, verify_shares_batch, Commitments};
use dmw_crypto::polynomials::{BidPolynomials, SecretBid};
use dmw_crypto::resolution::{compute_lambda_psi, resolve_min_bid};
use dmw_crypto::BidEncoding;
use dmw_modmath::{lagrange, Poly, SchnorrGroup};
use rand::SeedableRng;

fn rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(777)
}

fn bench_polynomials(c: &mut Criterion) {
    let mut group = c.benchmark_group("polynomials");
    let field = dmw_modmath::PrimeField::new(0x7FFF_FFFF_FFFF_FFE7).unwrap();
    for degree in [8usize, 32, 128] {
        let mut r = rng();
        let poly = Poly::random_zero_constant(&field, degree, &mut r);
        group.bench_with_input(BenchmarkId::new("eval_horner", degree), &degree, |b, _| {
            b.iter(|| poly.eval(&field, 123_456_789))
        });
        let shares: Vec<(u64, u64)> = (1..=degree as u64 + 1)
            .map(|a| (a, poly.eval(&field, a)))
            .collect();
        group.bench_with_input(
            BenchmarkId::new("resolve_zero_degree", degree),
            &degree,
            |b, _| b.iter(|| lagrange::resolve_zero_degree(&field, &shares)),
        );
    }
    group.finish();
}

fn bench_protocol_primitives(c: &mut Criterion) {
    let mut bench = c.benchmark_group("protocol-primitives");
    for n in [4usize, 8, 16] {
        let mut r = rng();
        let group = SchnorrGroup::generate(48, 24, &mut r).unwrap();
        let encoding = BidEncoding::new(n, 1).unwrap();
        let zq = group.zq();
        let alphas = zq.rand_distinct_nonzero(n, &mut r);
        let bid = SecretBid::new(1);
        bench.bench_with_input(BenchmarkId::new("bid_polynomials", n), &n, |b, _| {
            b.iter(|| BidPolynomials::generate(&group, &encoding, &bid, &mut r).unwrap())
        });
        let polys = BidPolynomials::generate(&group, &encoding, &bid, &mut r).unwrap();
        bench.bench_with_input(BenchmarkId::new("commitments", n), &n, |b, _| {
            b.iter(|| Commitments::commit(&group, &encoding, &polys))
        });
        let commitments = Commitments::commit(&group, &encoding, &polys);
        let bundle = polys.share_for(&zq, alphas[0]);
        let plan = powers_plan(&group, alphas[0], encoding.sigma());
        bench.bench_with_input(BenchmarkId::new("verify_one_bundle", n), &n, |b, _| {
            b.iter(|| verify_shares_batch(&group, &plan, &[(&commitments, bundle)]).unwrap())
        });
        // Degree resolution over n published lambdas.
        let all: Vec<BidPolynomials> = (0..n)
            .map(|i| {
                let b = 1 + (i as u64 % encoding.w_max());
                BidPolynomials::generate(&group, &encoding, &SecretBid::new(b), &mut r).unwrap()
            })
            .collect();
        let lambdas: Vec<u64> = alphas
            .iter()
            .map(|&a| {
                let shares: Vec<_> = all.iter().map(|p| p.share_for(&zq, a)).collect();
                let e: Vec<u64> = shares.iter().map(|s| s.e).collect();
                let h: Vec<u64> = shares.iter().map(|s| s.h).collect();
                compute_lambda_psi(&group, &e, &h).lambda
            })
            .collect();
        let points = lagrange::ZeroCoefficients::from_points(&zq, &alphas).unwrap();
        bench.bench_with_input(BenchmarkId::new("resolve_min_bid", n), &n, |b, _| {
            b.iter(|| resolve_min_bid(&group, &encoding, &points, &lambdas).unwrap())
        });
    }
    bench.finish();
}

/// Phase III.1 at one verifier: the `m·(n − 1)` received bundles (eqs.
/// (7)–(9), `3·m·(n − 1)` products at the verifier's `α^ℓ`) checked as one
/// lockstep batch, and as one one-item batch per bundle, both on the
/// verifier's one plan. `m` is the task count of the perfbench workload
/// with that `n`.
fn bench_share_batch(c: &mut Criterion) {
    let mut bench = c.benchmark_group("share-batch");
    for (n, m) in [(8usize, 4usize), (32, 4), (64, 2)] {
        let mut r = rng();
        let group = SchnorrGroup::generate(48, 24, &mut r).unwrap();
        let encoding = BidEncoding::new(n, 1).unwrap();
        let zq = group.zq();
        let alpha = zq.rand_nonzero(&mut r);
        let plan = powers_plan(&group, alpha, encoding.sigma());
        let received: Vec<_> = (0..m * (n - 1))
            .map(|i| {
                let bid = SecretBid::new(1 + (i as u64 % encoding.w_max()));
                let polys = BidPolynomials::generate(&group, &encoding, &bid, &mut r).unwrap();
                let bundle = polys.share_for(&zq, alpha);
                (Commitments::commit(&group, &encoding, &polys), bundle)
            })
            .collect();
        let items: Vec<_> = received.iter().map(|(c, b)| (c, *b)).collect();
        bench.bench_with_input(BenchmarkId::new("verify_shares_batch", n), &n, |b, _| {
            b.iter(|| verify_shares_batch(&group, &plan, &items).unwrap())
        });
        bench.bench_with_input(BenchmarkId::new("verify_shares_each", n), &n, |b, _| {
            b.iter(|| {
                for item in &items {
                    verify_shares_batch(&group, &plan, std::slice::from_ref(item)).unwrap();
                }
            })
        });
    }
    bench.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_polynomials, bench_protocol_primitives, bench_share_batch
}
criterion_main!(benches);
