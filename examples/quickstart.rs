//! Quickstart: design an EquiNox NoC for an 8×8 interposer GPU and run
//! one benchmark on it, next to the separate-network baseline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use equinox_core::{SchemeKind, System, SystemConfig};
use equinox_traffic::{profile::benchmark, Workload};

fn main() {
    // A benchmark profile from the paper's suite (Rodinia's kmeans is the
    // most network-hungry one) at a laptop-friendly scale.
    let profile = benchmark("kmeans").expect("kmeans is in the suite");
    let workload = Workload::new(profile, 0.25, 42);

    println!("designing + simulating — a few seconds in release mode…\n");
    for scheme in [SchemeKind::SeparateBase, SchemeKind::EquiNox] {
        let cfg = SystemConfig::new(scheme, 8, workload);
        let mut system = System::build(cfg);
        if scheme == SchemeKind::EquiNox {
            println!("EquiNox CB placement (N-Queen):\n{}", system.placement);
        }
        let m = system.run();
        println!(
            "{:14} {:>7} cycles | IPC {:5.2} | energy {:.2e} J | EDP {:.2e} Js | reply bits {:.1}%",
            m.scheme.name(),
            m.cycles,
            m.ipc,
            m.energy_j(),
            m.edp,
            m.reply_bit_fraction * 100.0
        );
    }
    println!("\nEquiNox turns the few-to-many reply injection into many-to-many;");
    println!("run `cargo run --release -p equinox-bench --bin equinox -- all` for every figure.");
}
