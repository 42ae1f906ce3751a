//! Privacy under collusion: measuring Theorem 10.
//!
//! A coalition pools the secret shares its members received from a target
//! agent and runs the strongest available attack (degree resolution on
//! both the `e` and `f` channels). For every bid value the example sweeps
//! the coalition size and prints the empirically measured exposure
//! threshold next to the predicted `min(n − c − y, y + c) + 1`.
//!
//! Run with: `cargo run -p dmw-examples --bin privacy_collusion`

use dmw::collusion::{pool_and_attack, predicted_exposure_threshold, AttackOutcome};
use dmw::config::DmwConfig;
use dmw_crypto::polynomials::{BidPolynomials, SecretBid};
use dmw_examples::{print_table, section};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let n = 10;
    let c = 2;
    let config = DmwConfig::generate(n, c, &mut rng)?;
    let zq = config.group().zq();

    section(&format!(
        "coalition attacks: n = {n}, c = {c}, W = {:?}",
        config.encoding().bid_set()
    ));

    let mut rows = Vec::new();
    for bid in config.encoding().bid_set() {
        // The target constructs its bid polynomials; coalition members pool
        // the shares the target sent them.
        let polys = BidPolynomials::generate(
            config.group(),
            config.encoding(),
            &SecretBid::new(bid),
            &mut rng,
        )?;
        let mut measured = None;
        for size in 1..n {
            let pooled: Vec<(u64, _)> = (0..size)
                .map(|k| {
                    let alpha = config.pseudonym(k);
                    (alpha, polys.share_for(&zq, alpha))
                })
                .collect();
            if let AttackOutcome::Exposed { bid: got } = pool_and_attack(&config, &pooled) {
                assert_eq!(got, bid, "attack recovered the wrong bid");
                measured = Some(size);
                break;
            }
        }
        let predicted = predicted_exposure_threshold(&config, bid).unwrap();
        rows.push(vec![
            bid.to_string(),
            predicted.to_string(),
            measured
                .map(|s| s.to_string())
                .unwrap_or_else(|| ">= n".into()),
            if measured == Some(predicted) {
                "match".into()
            } else {
                "MISMATCH".into()
            },
        ]);
    }
    print_table(
        &[
            "bid value",
            "predicted threshold",
            "measured threshold",
            "check",
        ],
        &rows,
    );

    println!();
    println!("reading the table:");
    println!("* a coalition strictly smaller than the threshold learns nothing (information-");
    println!("  theoretic hiding of the share scheme);");
    println!("* along the e-channel lower (better) bids need larger coalitions — the");
    println!("  'inversely proportional' remark under Theorem 10;");
    println!("* the f-channel caps protection of the very best bids at y + c + 1 members,");
    println!("  a refinement over the paper's blanket claim (see EXPERIMENTS.md).");

    Ok(())
}
