//! The shopping-cart checkout scenario (§1, §4a of the paper).
//!
//! A store tags every item with a backscatter node; a customer pushes a cart
//! with a couple dozen items through the checkout reader.  The reader must
//! (1) figure out *which* of the million item ids in the store are actually in
//! the cart, and (2) collect each item's payload — without ever scheduling the
//! tags individually.  The example compares Buzz against the EPC Gen-2 way of
//! doing the same thing (Framed Slotted Aloha identification + TDMA data
//! transfer).
//!
//! Run with: `cargo run --release --example shopping_cart`

use backscatter_baselines::identification::fsa_identification;
use backscatter_baselines::tdma::TdmaTransfer;
use backscatter_sim::scenario::ScenarioBuilder;
use buzz::protocol::{BuzzConfig, BuzzProtocol};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 20 items in the cart out of a store inventory of one million ids.
    let mut scenario = ScenarioBuilder::paper_uplink(20, 77)
        .global_id_space(1_000_000)
        .build()?;

    println!("cart contents: 20 items out of a 1000000-item store");
    println!(
        "item global ids: {:?}\n",
        scenario
            .tags()
            .iter()
            .map(|t| t.global_id)
            .collect::<Vec<_>>()
    );

    // --- Buzz: compressive-sensing identification + rateless transfer -------
    let buzz_outcome = BuzzProtocol::new(BuzzConfig::default())?.run(&mut scenario, 1)?;
    let ident = buzz_outcome.identification.as_ref().expect("event-driven");
    println!("== Buzz ==");
    println!(
        "identification: {:.2} ms ({} slots, exact = {})",
        ident.time_ms,
        ident.slots.total(),
        ident.is_exact()
    );
    println!(
        "data transfer : {:.2} ms ({} collision slots, {:.2} bits/symbol)",
        buzz_outcome.transfer.time_ms,
        buzz_outcome.transfer.slots_used,
        buzz_outcome.transfer.bits_per_symbol()
    );
    println!(
        "checkout total: {:.2} ms, {} / 20 items read correctly\n",
        buzz_outcome.total_time_ms(),
        buzz_outcome.correct_messages
    );

    // --- Gen-2 style: FSA identification + TDMA transfer --------------------
    let fsa = fsa_identification(&scenario, 3)?;
    let tdma = TdmaTransfer::new()?;
    let mut medium = scenario.medium(5)?;
    let tdma_out = tdma.run(scenario.tags(), &mut medium)?;
    println!("== EPC Gen-2 (FSA + TDMA) ==");
    println!(
        "identification: {:.2} ms ({} slots, {} identified)",
        fsa.time_ms, fsa.slots, fsa.identified
    );
    println!(
        "data transfer : {:.2} ms, {} / 20 items read correctly",
        tdma_out.time_ms,
        tdma_out.delivered_count()
    );
    let gen2_total = fsa.time_ms + tdma_out.time_ms;
    println!("checkout total: {gen2_total:.2} ms\n");

    println!(
        "Buzz speed-up over Gen-2 for this cart: {:.1}x",
        gen2_total / buzz_outcome.total_time_ms()
    );
    Ok(())
}
