//! Ablation: pre-allocated tables vs a TEA-style cache (§6.2, §7).
//!
//! "Sailfish prefers pre-allocated table entries to the cache-based design
//! in TEA to avoid cache breakdown and sudden performance degradation in
//! extreme cases... We follow 'Occam's razor' to protect the simplicity
//! and reliability of our system."
//!
//! The cache design keeps only the hottest entries on chip and serves
//! misses from x86 DRAM. In steady state that looks great (Zipf traffic,
//! high hit ratio). This ablation applies a traffic *shift* — a fraction
//! of traffic suddenly moves to previously-cold entries (tenant failover
//! into the region, a flash crowd on cold tenants) — and measures the
//! miss traffic slamming the software tier versus Sailfish's static
//! split, which keeps every entry resident and is shift-invariant.

use sailfish_sim::zipf::{top_share, zipf_weights};

use crate::record::ExperimentRecord;
use crate::scale::Scale;
use crate::table::print_table;

/// Region-scale parameters for the comparison.
struct Scenario {
    /// Total entries.
    entries: usize,
    /// Fraction of entries the cache can hold (memory-equal to Sailfish's
    /// compressed full table — 5% of entries at full key width costs
    /// roughly what 100% costs compressed).
    cache_fraction: f64,
    /// Zipf exponent of steady-state entry popularity.
    skew: f64,
    /// Region packet rate at steady state, pps.
    region_pps: f64,
    /// Software tier capacity, pps (4 fallback nodes).
    sw_capacity_pps: f64,
    /// Sailfish's software-bound share (Fig 22).
    sailfish_punt_ratio: f64,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            entries: 229_300,
            cache_fraction: 0.05,
            skew: 1.5,
            region_pps: 3.0e9,
            sw_capacity_pps: 4.0 * 25.0e6,
            sailfish_punt_ratio: 0.0002,
        }
    }
}

/// Miss ratio of the cache under a shift: `shift` of the traffic now
/// targets entries drawn uniformly from the cold set; the rest keeps the
/// steady-state Zipf profile (for which the cache was provisioned).
fn cache_miss_ratio(s: &Scenario, shift: f64) -> f64 {
    let weights = zipf_weights(s.entries, s.skew);
    let cached = (s.cache_fraction * s.entries as f64) as usize;
    let steady_hit = top_share(&weights, cached);
    // Cold-set traffic misses essentially always (the cold set is 95% of
    // entries; a uniform draw hits the cache with prob. cache_fraction).
    let shifted_hit = s.cache_fraction;
    (1.0 - steady_hit) * (1.0 - shift) + (1.0 - shifted_hit) * shift
}

pub fn run(_scale: Scale) -> ExperimentRecord {
    let s = Scenario::default();
    let mut rows = Vec::new();
    let mut breakdown_shift = None;
    for shift_pct in [0.0f64, 2.0, 5.0, 10.0, 20.0, 30.0, 50.0] {
        let shift = shift_pct / 100.0;
        // Cache design: miss traffic goes to the software tier.
        let miss = cache_miss_ratio(&s, shift);
        let sw_pps_cache = miss * s.region_pps;
        let cache_loss = (sw_pps_cache - s.sw_capacity_pps).max(0.0) / s.region_pps;
        // Sailfish: every entry resident; the software share is the fixed
        // long-tail ratio regardless of shift.
        let sw_pps_static = s.sailfish_punt_ratio * s.region_pps;
        let static_loss: f64 = (sw_pps_static - s.sw_capacity_pps).max(0.0) / s.region_pps;
        if cache_loss > 0.0 && breakdown_shift.is_none() {
            breakdown_shift = Some(shift_pct);
        }
        rows.push(vec![
            format!("{shift_pct:.0}%"),
            format!("{:.2}%", miss * 100.0),
            format!("{:.2}", sw_pps_cache / 1e6),
            format!("{:.1e}", cache_loss.max(1e-11)),
            format!("{:.2}", sw_pps_static / 1e6),
            format!("{:.1e}", static_loss.max(1e-11)),
        ]);
    }
    print_table(
        "Cache-based (TEA-style) vs pre-allocated (Sailfish) under traffic shift",
        &[
            "Shift",
            "Cache miss",
            "Cache->sw Mpps",
            "Cache loss",
            "Static->sw Mpps",
            "Static loss",
        ],
        &rows,
    );
    println!(
        "\nsoftware tier capacity: {:.0} Mpps; region rate: {:.1} Gpps",
        s.sw_capacity_pps / 1e6,
        s.region_pps / 1e9
    );

    let steady_miss = cache_miss_ratio(&s, 0.0);
    let shifted_miss = cache_miss_ratio(&s, 0.2);
    let mut rec = ExperimentRecord::new(
        "ablation_cache_vs_prealloc",
        "Pre-allocated tables vs TEA-style cache (§6.2 lesson)",
    );
    rec.compare(
        "steady state: cache looks fine",
        "high hit ratio (the 80/20 rule favors caching)",
        format!("{:.1}% miss", steady_miss * 100.0),
        steady_miss < 0.1,
    );
    rec.compare(
        "20% traffic shift: cache breakdown",
        "sudden performance degradation (§6.2)",
        format!(
            "{:.0}% miss -> {:.0}x software capacity",
            shifted_miss * 100.0,
            shifted_miss * s.region_pps / s.sw_capacity_pps
        ),
        shifted_miss * s.region_pps > 2.0 * s.sw_capacity_pps,
    );
    rec.compare(
        "Sailfish under the same shift",
        "unaffected (deterministic lookup, no cache to break)",
        format!(
            "{:.2} Mpps to software, {:.0}% of its capacity",
            s.sailfish_punt_ratio * s.region_pps / 1e6,
            100.0 * s.sailfish_punt_ratio * s.region_pps / s.sw_capacity_pps
        ),
        s.sailfish_punt_ratio * s.region_pps < s.sw_capacity_pps,
    );
    rec.compare(
        "first losing shift for the cache design",
        "small shifts already break it",
        breakdown_shift
            .map(|p| format!("{p:.0}% shift"))
            .unwrap_or_else(|| "none up to 50%".into()),
        breakdown_shift.map(|p| p <= 10.0).unwrap_or(false),
    );
    rec
}
