//! Fig 23: regular (slow) and sudden (top-customer batch) updates of the
//! VXLAN routing table across clusters during a month.

use sailfish::prelude::*;

use crate::record::ExperimentRecord;
use crate::scale::Scale;
use crate::table::print_series;

pub fn run(_scale: Scale) -> ExperimentRecord {
    let series = Controller::update_timeline(2021, 4, 30, 4, 60_000);
    for s in &series {
        print_series(&format!("{} VXLAN entries", s.label), &s.points, 15);
    }

    let mut rec = ExperimentRecord::new("fig23", "Table update frequencies");
    for s in &series {
        let first = s.points.first().unwrap().1;
        let last = s.points.last().unwrap().1;
        let mut steps: Vec<f64> = s.points.windows(2).map(|w| w[1].1 - w[0].1).collect();
        steps.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = steps[steps.len() / 2];
        let max = *steps.last().unwrap();
        rec.compare(
            format!("{}: regular growth is slow", s.label),
            "near-flat between jumps",
            format!("median step {:.1} entries/6h", median),
            median < first * 0.001,
        );
        rec.compare(
            format!("{}: sudden batches occur", s.label),
            "step increases of many entries at once",
            format!(
                "largest step {:.0} entries ({}x median)",
                max,
                (max / median.max(1e-9)) as u64
            ),
            max > 50.0 * median && last > first,
        );
    }
    rec
}
