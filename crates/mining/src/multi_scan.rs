//! Shared-scan support counting for the §5 miner: run *all* surviving
//! candidate TAGs of a discovery problem together over each reference
//! occurrence with one [`MultiMatcher`] pass, instead of one full scan per
//! (candidate, reference) pair.
//!
//! Also home to the [`TemplateCache`]: candidate automata of one
//! discovery problem differ only in their `Exact` symbol payloads, so the
//! cross-product construction is done once per *structure* (keyed by a
//! structural fingerprint) and instantiated per assignment by symbol
//! relabelling — step 3-4 chain screening and step 5 stop rebuilding
//! identical automata for symmetric candidates.

use std::collections::HashMap;

use tgm_core::EventStructure;
use tgm_events::{Event, TickColumns};
use tgm_limits::{Interrupt, Limits};
use tgm_obs::ObsOptions;
use tgm_tag::{MatchOptions, MultiMatcher, MultiScratch, Tag, TagTemplate};

/// Memoized [`TagTemplate`]s keyed by a structural fingerprint of the
/// event structure (arcs with bounds and granularity identity). Within one
/// discovery problem the main structure and each induced screening
/// substructure is constructed once; every candidate assignment is then a
/// clone-and-relabel.
#[derive(Default)]
pub(crate) struct TemplateCache {
    by_key: HashMap<String, TagTemplate>,
}

/// A deterministic structural fingerprint: variable count plus every arc's
/// endpoints, TCG bounds, and granularity instance identity (granularities
/// compare by instance so cached automata share tick streams).
fn structure_key(s: &EventStructure) -> String {
    use std::fmt::Write as _;
    let mut k = String::new();
    let _ = write!(k, "n{};r{};", s.len(), s.root().index());
    for (a, b, tcgs) in s.arcs() {
        let _ = write!(k, "{}>{}:", a.index(), b.index());
        for c in tcgs {
            let _ = write!(k, "[{},{},{}]", c.lo(), c.hi(), c.gran().instance_id());
        }
        k.push(';');
    }
    k
}

impl TemplateCache {
    pub(crate) fn new() -> Self {
        TemplateCache::default()
    }

    /// The template for `s`, building it on first use.
    pub(crate) fn get(&mut self, s: &EventStructure) -> &TagTemplate {
        self.by_key
            .entry(structure_key(s))
            .or_insert_with(|| TagTemplate::new(s))
    }
}

/// The miner's matcher configuration (anchored, lazy updates, saturating)
/// applied to a whole candidate set.
pub(crate) fn anchored_multi<'t>(tags: &'t [Tag], obs: ObsOptions) -> MultiMatcher<'t> {
    MultiMatcher::with_options(
        tags.iter().collect(),
        MatchOptions::builder()
            .anchored(true)
            .strict_updates(false)
            .saturate(true)
            .obs(obs)
            .build(),
    )
}

/// Counts, for every candidate in `mm`, the distinct reference occurrences
/// from which its TAG accepts — the shared-scan analogue of
/// [`count_support`](crate::naive): one multi pass per reference instead
/// of one matcher run per (candidate, reference). Accumulates into
/// `supports` (length ≥ `mm.len()`); `tag_runs` counts *logical* anchored
/// runs (`mm.len()` per reference), one per (candidate, reference) pair as
/// the paper's step 5 defines them. `limits` (deadline/cancel; any budget should
/// already be stripped by the caller) is polled between references and
/// per event inside each pass.
#[allow(clippy::too_many_arguments)]
pub(crate) fn multi_count_support(
    mm: &MultiMatcher<'_>,
    events: &[Event],
    refs: &[usize],
    window: Option<i64>,
    cols: Option<&TickColumns>,
    scratch: &mut MultiScratch,
    tag_runs: &mut usize,
    limits: Option<&Limits>,
    supports: &mut [usize],
) -> Result<(), Interrupt> {
    for &idx in refs {
        if let Some(l) = limits {
            l.check()?;
        }
        let slice = match window {
            Some(w) => {
                let t0 = events[idx].time;
                let end = events.partition_point(|e| e.time <= t0.saturating_add(w));
                &events[idx..end]
            }
            None => &events[idx..],
        };
        *tag_runs += mm.len();
        let stats = match (cols, limits) {
            (Some(cols), Some(l)) => {
                let run = mm.run_columns_bounded(slice, cols, idx, true, scratch, l);
                if let Some(i) = run.verdict.interrupt() {
                    return Err(i);
                }
                run.stats
            }
            (Some(cols), None) => mm.run_columns_scratch(slice, cols, idx, true, scratch),
            (None, Some(l)) => {
                let run = mm.run_bounded(slice, true, scratch, l);
                if let Some(i) = run.verdict.interrupt() {
                    return Err(i);
                }
                run.stats
            }
            (None, None) => mm.run_scratch(slice, true, scratch),
        };
        for (c, s) in stats.iter().enumerate() {
            if s.accepted {
                supports[c] += 1;
            }
        }
    }
    Ok(())
}
