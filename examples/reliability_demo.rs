//! The §7.2 reliability protocol under fire.
//!
//! Streams a DISTINCT query through the simulated rack (`RackSim` carrying
//! one entry per packet) while the links drop and corrupt packets
//! (smoltcp-style fault injection). The switch ACKs every packet it
//! prunes — that is how a worker tells "pruned" from "lost" —
//! retransmissions of already-pruned packets are forwarded unprocessed
//! (`Y ≤ X`), and gap packets wait for retransmission (`Y > X+1`). At the
//! end the master's DISTINCT output is verified identical to the lossless
//! ground truth.
//!
//! ```sh
//! cargo run --release --example reliability_demo            # 10% drop, 5% corrupt
//! cargo run --release --example reliability_demo -- 25 10   # harsher
//! ```

use cheetah::algorithms::{DistinctConfig, DistinctPruner, EvictionPolicy};
use cheetah::net::{FaultProfile, RackConfig, RackSim};
use cheetah::switch::hash::mix64;
use cheetah::switch::{PacketRef, ResourceLedger, SwitchProfile, SwitchProgram};
use std::collections::HashSet;

fn main() {
    let mut args = std::env::args().skip(1);
    let drop_pct: f64 = args.next().map(|s| s.parse().expect("drop %")).unwrap_or(10.0);
    let corrupt_pct: f64 = args.next().map(|s| s.parse().expect("corrupt %")).unwrap_or(5.0);

    // Three workers, ~50 distinct client ids repeated heavily.
    let workers = 3;
    let per_worker = 4_000u64;
    let mut x = 99u64;
    let streams: Vec<Vec<Vec<u64>>> = (0..workers)
        .map(|_| {
            (0..per_worker)
                .map(|_| {
                    x = mix64(x);
                    vec![x % 50]
                })
                .collect()
        })
        .collect();
    let ground_truth: HashSet<u64> = streams.iter().flatten().map(|v| v[0]).collect();

    // The switch runs a DISTINCT pruner.
    let mut ledger = ResourceLedger::new(SwitchProfile::tofino1());
    let mut pruner = DistinctPruner::build(
        DistinctConfig {
            rows: 512,
            cols: 2,
            policy: EvictionPolicy::Lru,
            fingerprint: None,
            seed: 1,
        },
        &mut ledger,
    )
    .expect("fits");
    let mut epoch = 0u64;

    let cfg = RackConfig {
        faults: FaultProfile {
            drop_prob: drop_pct / 100.0,
            corrupt_prob: corrupt_pct / 100.0,
            ..FaultProfile::lossless()
        },
        rto_ns: 300_000,
        window: Some(64),
        seed: 0x7AB5,
        ..Default::default()
    };
    println!(
        "transfer: {workers} workers × {per_worker} entries, {drop_pct}% drop, {corrupt_pct}% corrupt\n"
    );
    // The master completes the DISTINCT query from whatever arrives —
    // any superset of the unpruned entries yields the same output.
    let mut master_distinct: HashSet<u64> = HashSet::new();
    let report = RackSim::entries(cfg, streams, move |fid, values| {
        epoch += 1;
        pruner
            .on_packet(PacketRef { epoch, fid, values })
            .expect("pruner obeys the execution model")
    })
    .run(|entry| {
        master_distinct.insert(entry.values[0]);
    });

    assert!(report.completed, "transfer must terminate despite the losses");
    println!("completed in {:.3} simulated seconds", report.sim_seconds);
    println!("  delivered (unique)   : {}", report.delivered);
    println!("  switch prune-ACKs    : {}", report.switch_acks);
    println!("  retransmissions      : {}", report.retransmissions);
    println!("  stale forwards (Y≤X) : {}", report.forwarded_stale);
    println!("  gap drops (Y>X+1)    : {}", report.dropped_ahead);
    println!("  checksum rejections  : {}", report.malformed);
    println!("  master dedups        : {}", report.duplicates);

    assert_eq!(master_distinct, ground_truth, "DISTINCT output must survive the losses");
    println!(
        "\nmaster DISTINCT output: {} values — identical to the lossless ground truth ✓",
        master_distinct.len()
    );
}
