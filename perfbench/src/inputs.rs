//! Seeded input generators shared by the workloads.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tgm_core::examples::example_1;
use tgm_events::gen::{stock_market, with_planted, StockMarketConfig};
use tgm_events::{EventSequence, TypeRegistry};
use tgm_granularity::{weekday_from_days, Calendar, Weekday};

const DAY: i64 = 86_400;

/// A 15-minute IBM/HP ticker over `days` calendar days with one planted
/// Example-1 occurrence per week (rise Monday 10:00, report Tuesday
/// 09:00, HP rise Thursday 06:00, IBM fall Thursday 11:00, each shifted
/// by a common jitter of under half an hour). Type names match
/// [`example_1`], so a registry built by it resolves the same names.
pub fn planted_stock_stream(days: i64, seed: u64) -> (TypeRegistry, EventSequence) {
    let mut registry = TypeRegistry::new();
    let (_, types) = example_1(&Calendar::standard(), &mut registry);
    let cfg = StockMarketConfig {
        days,
        seed,
        ..StockMarketConfig::default()
    };
    let background = stock_market(&cfg, &mut registry);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let groups: Vec<Vec<_>> = (0..days)
        .filter(|&d| weekday_from_days(d) == Weekday::Mon && d + 4 < days)
        .map(|d| {
            let monday = d * DAY + rng.gen_range(0i64..1_800);
            vec![
                (types.ibm_rise, monday + 10 * 3_600),
                (types.ibm_report, monday + DAY + 9 * 3_600),
                (types.hp_rise, monday + 3 * DAY + 6 * 3_600),
                (types.ibm_fall, monday + 3 * DAY + 11 * 3_600),
            ]
        })
        .collect();
    (registry, with_planted(&background, &groups))
}
