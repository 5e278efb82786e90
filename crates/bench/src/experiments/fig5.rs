//! Fig 5: traffic rate and packet-loss rate of a region served by
//! XGW-x86s across a festival week — loss reaches 10⁻⁵–10⁻⁴ at the worst
//! time (Day 6).

use sailfish::prelude::*;

use crate::record::ExperimentRecord;
use crate::scale::{x86_festival_region, Scale};
use crate::table::{one_in, print_series};

pub fn run(_scale: Scale) -> ExperimentRecord {
    let (region, flows) = x86_festival_region(350.0);

    let days = 8;
    let samples = 8;
    let mut rate = Vec::new();
    let mut loss = Vec::new();
    let mut worst: f64 = 0.0;
    let mut quiet: f64 = f64::INFINITY;
    for step in 0..days * samples {
        let day = step as f64 / samples as f64;
        let m = festival_profile(day);
        let report = region.offer(&flows, m);
        let tbps: f64 = flows.iter().map(|f| f.bps()).sum::<f64>() * m / 1e12;
        rate.push((day, tbps));
        let ratio = report.loss_ratio();
        loss.push((day, ratio));
        worst = worst.max(ratio);
        quiet = quiet.min(ratio);
    }
    print_series("Fig 5 traffic rate (Tbps, scaled region)", &rate, 16);
    print_series("Fig 5 packet loss ratio", &loss, 16);
    println!(
        "\nworst loss {worst:.2e} ({}), best {quiet:.2e}",
        one_in(worst)
    );

    // The paper's region carries ~15 Tbps; ours carries 0.35 Tbps with the
    // same few heavy hitters, so the heavy-hitter excess is divided by a
    // ~40x smaller denominator. Project to the paper's scale for the
    // absolute comparison (the mechanism — a couple of overloaded cores —
    // is identical).
    let projection = 0.35 / 15.0;
    let projected = worst * projection;
    println!("projected to a 15 Tbps region: {projected:.1e}");

    let mut rec = ExperimentRecord::new("fig5", "x86 region packet loss across a week");
    rec.compare(
        "worst-day loss ratio (projected to 15 Tbps region)",
        "~1e-5..1e-4 (Day 6)",
        format!("{projected:.1e} (raw {worst:.1e} at 0.35 Tbps)"),
        (1e-6..2e-3).contains(&projected),
    );
    rec.compare(
        "loss follows the traffic profile (worst at festival peak)",
        "yes",
        {
            let peak_idx = loss
                .iter()
                .enumerate()
                .max_by(|a, b| a.1 .1.partial_cmp(&b.1 .1).expect("finite"))
                .map(|(i, _)| i)
                .unwrap_or(0);
            let day = loss[peak_idx].0;
            format!("peak at day {day:.1}")
        },
        (5.0..7.0).contains(
            &loss
                .iter()
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .unwrap()
                .0,
        ),
    );
    rec
}
