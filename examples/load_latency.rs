//! The classic NoC load–latency sweep on the reply network: where does
//! the few-to-many injection path saturate, and how far do EquiNox's
//! EIRs push the knee?
//!
//! ```text
//! cargo run --release --example load_latency
//! ```

use equinox_suite::core::loadlat::{load_latency_curve_cfg, ReplySide};
use equinox_suite::core::EquiNoxDesign;

fn main() {
    let design = EquiNoxDesign::search_k(8, 8, 800, 7, 2);
    let rates = [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0];
    println!("offered (pkts/CB/cyc) |  baseline lat (cyc) thr (flits/cyc) |  EquiNox lat thr");
    let curve = |side: &ReplySide| {
        load_latency_curve_cfg(&design.placement, side, &rates, 6_000, 1, None, true)
    };
    let base = curve(&ReplySide::Local);
    let eq = curve(&ReplySide::Equinox(design.clone()));
    for (b, e) in base.iter().zip(&eq) {
        println!(
            "            {:>5.2}     |   {:>8.1}      {:>6.2}          |  {:>8.1} {:>6.2}",
            b.offered, b.latency, b.throughput, e.latency, e.throughput
        );
    }
    println!(
        "\nThe baseline saturates at ~1 flit/cycle/CB; the EIRs roughly double the\nsustainable injection bandwidth and keep latency flat far past the old knee."
    );
}
