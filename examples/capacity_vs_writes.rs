//! The STT-RAM trade-off, end to end: 4x capacity vs 11x write
//! latency.
//!
//! Sweeps applications across the read/write-intensity spectrum and
//! shows where replacing SRAM by STT-RAM wins (read-heavy, reusable
//! working sets benefit from the 4 MB banks) and where it loses
//! (write-heavy applications queue behind 33-cycle writes) — the
//! crossover structure behind Figure 6. Also regenerates Table 2 from
//! the analytic model to show where the 3-vs-33-cycle asymmetry comes
//! from.
//!
//! ```sh
//! cargo run --release --example capacity_vs_writes
//! ```

use sttram_noc_repro::sim::experiments::{table2, Scale};
use sttram_noc_repro::sim::scenario::Scenario;
use sttram_noc_repro::sim::sweep::SweepRunner;
use sttram_noc_repro::sim::system::System;
use sttram_noc_repro::workload::table3;

fn main() {
    println!(
        "{}",
        SweepRunner::new().run(&table2::Table2Exp, Scale::Quick)
    );

    // From most read-intensive to most write-intensive.
    let apps = [
        "libqntm", "xalan", "omnet", "hmmer", "soplex", "sclust", "lbm", "tpcc",
    ];
    println!(
        "{:8} {:>11} {:>11} {:>9} {:>12}",
        "app", "read share", "SRAM IT", "STT IT", "STT/SRAM"
    );
    for name in apps {
        let p = table3::by_name(name).expect("known app");
        let run = |sc: Scenario| {
            let mut cfg = sc.config();
            cfg.warmup_cycles = 1_000;
            cfg.measure_cycles = 8_000;
            System::homogeneous(cfg, p).run().instruction_throughput()
        };
        let sram = run(Scenario::Sram64Tsb);
        let stt = run(Scenario::SttRam64Tsb);
        println!(
            "{:8} {:>10.0}% {:>11.2} {:>9.2} {:>11.2}x{}",
            name,
            p.read_share() * 100.0,
            sram,
            stt,
            stt / sram,
            if stt > sram { "  <- capacity wins" } else { "" }
        );
    }
    println!("\nRead-heavy applications with reusable working sets gain from the 4x");
    println!("capacity; write-heavy ones lose to the 33-cycle writes — exactly the");
    println!("tension the paper's NoC-level scheduling resolves.");
}
