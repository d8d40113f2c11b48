//! The generic protocol-comparison runner behind every §9 figure.
//!
//! Every comparison in the paper has the same shape: a grid of
//! `parameters × locations` scenarios, a panel of schemes run back-to-back
//! over each scenario, and a fold of the per-cell outcomes into one table
//! row per parameter.  [`compare`] is that shape, written once:
//!
//! * **panel** — `&[&dyn Protocol]`: any scheme implementing the unified
//!   session API, run by [`run_panel`] in panel order within each cell
//!   (later schemes read earlier outcomes through [`Protocol::run_after`],
//!   which is how "FSA with Buzz's K̂" gets its estimate).
//! * **grid** — one scenario per `(parameter, location)` cell, built by a
//!   caller closure; one or more noise realizations ("traces") per cell.
//! * **execution** — cells shard across [`work_steal_map`] worker threads
//!   exactly as the hand-written experiments did, and the ordered per-cell
//!   results are folded in serial order, so report output stays
//!   byte-identical for every `--threads` value.
//!
//! Adding a figure is now a scenario closure plus a fold; adding a scheme to
//! every figure is one [`Protocol`] impl.

use backscatter_sim::scenario::Scenario;
use buzz::executor::work_steal_map;
use buzz::session::{run_panel, Protocol, SessionOutcome};

/// The outcomes of one `(parameter, location, trace)` cell, index-aligned
/// with the protocol panel that produced them.
#[derive(Debug, Clone)]
pub struct ComparisonCell {
    /// One outcome per panel protocol, in panel order.
    pub outcomes: Vec<SessionOutcome>,
}

impl ComparisonCell {
    /// The outcome of panel protocol `index`.
    #[must_use]
    pub fn outcome(&self, index: usize) -> &SessionOutcome {
        &self.outcomes[index]
    }
}

/// Runs `protocols` over a `params × locations` scenario grid and returns
/// the cells grouped per parameter, in `(location, trace)` order within each
/// group.
///
/// * `scenario_of(param, location)` builds the cell's scenario (channels,
///   messages, dynamics); it is called once per cell and every trace of the
///   cell reuses the same scenario instance, mirroring repeated trace
///   collection at one physical location.
/// * `trace_seeds_of(location)` lists the noise-realization seeds to run at
///   that location (most figures use one trace per location; Figs. 10–11
///   collect two).
/// * `threads` shards cells across worker threads; any value produces
///   byte-identical results to `threads = 1` because each cell is
///   self-contained and the fold order is the input order.
///
/// # Panics
///
/// Panics if a scenario cannot be built or a protocol run fails — grid
/// experiments treat both as harness bugs, as the hand-written figure
/// functions always have.
pub fn compare<P, S, T>(
    protocols: &[&dyn Protocol],
    params: &[P],
    locations: u64,
    threads: usize,
    scenario_of: S,
    trace_seeds_of: T,
) -> Vec<Vec<ComparisonCell>>
where
    P: Copy + Send,
    S: Fn(P, u64) -> Scenario + Sync,
    T: Fn(u64) -> Vec<u64> + Sync,
{
    let cells: Vec<(P, u64)> = params
        .iter()
        .flat_map(|&param| (0..locations).map(move |location| (param, location)))
        .collect();
    let per_cell: Vec<Vec<ComparisonCell>> = work_steal_map(threads, cells, |(param, location)| {
        let mut scenario = scenario_of(param, location);
        trace_seeds_of(location)
            .into_iter()
            .map(|seed| ComparisonCell {
                outcomes: run_panel(protocols, &mut scenario, seed)
                    .unwrap_or_else(|e| panic!("panel session failed: {e}")),
            })
            .collect()
    });
    // Always one group per parameter — with `--locations 0` every group is
    // empty and figures degrade to empty tables without panicking.  The
    // per-cell results are consumed by value: regrouping moves outcomes, it
    // never clones them.
    let per_param = locations as usize;
    let mut groups: Vec<Vec<ComparisonCell>> = Vec::with_capacity(params.len());
    let mut cells_iter = per_cell.into_iter();
    for _ in 0..params.len() {
        let mut group = Vec::new();
        for _ in 0..per_param {
            group.extend(cells_iter.next().expect("one result per grid cell"));
        }
        groups.push(group);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use backscatter_baselines::session::TdmaProtocol;
    use backscatter_sim::scenario::ScenarioBuilder;
    use buzz::protocol::{BuzzConfig, BuzzProtocol};

    fn quick_panel() -> (BuzzProtocol, TdmaProtocol) {
        (
            BuzzProtocol::new(BuzzConfig {
                periodic_mode: true,
                ..BuzzConfig::default()
            })
            .unwrap(),
            TdmaProtocol::paper_default().unwrap(),
        )
    }

    #[test]
    fn grid_shape_and_panel_order() {
        let (buzz, tdma) = quick_panel();
        let protocols: [&dyn Protocol; 2] = [&buzz, &tdma];
        let groups = compare(
            &protocols,
            &[4usize, 6],
            2,
            1,
            |k, location| {
                ScenarioBuilder::paper_uplink(k, 70 + location)
                    .build()
                    .unwrap()
            },
            |_| vec![0, 1],
        );
        assert_eq!(groups.len(), 2, "one group per parameter");
        for group in &groups {
            assert_eq!(group.len(), 4, "locations x traces cells per group");
            for cell in group {
                assert_eq!(cell.outcomes.len(), 2);
                assert_eq!(cell.outcome(0).scheme, "buzz");
                assert_eq!(cell.outcome(1).scheme, "tdma");
            }
        }
        // Parameter identity: group 0 ran K = 4, group 1 ran K = 6.
        assert_eq!(groups[0][0].outcome(0).total_messages(), 4);
        assert_eq!(groups[1][0].outcome(0).total_messages(), 6);
    }

    #[test]
    fn sharded_cells_match_serial_bit_for_bit() {
        let (buzz, tdma) = quick_panel();
        let protocols: [&dyn Protocol; 2] = [&buzz, &tdma];
        let run = |threads: usize| {
            compare(
                &protocols,
                &[4usize, 5],
                3,
                threads,
                |k, location| {
                    ScenarioBuilder::paper_uplink(k, 80 + location)
                        .build()
                        .unwrap()
                },
                |location| vec![location],
            )
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.len(), parallel.len());
        for (s_group, p_group) in serial.iter().zip(&parallel) {
            for (s, p) in s_group.iter().zip(p_group) {
                // SessionOutcome PartialEq compares floats exactly.
                assert_eq!(s.outcomes, p.outcomes);
            }
        }
    }

    #[test]
    fn zero_locations_degrade_to_empty_groups() {
        let (buzz, _) = quick_panel();
        let protocols: [&dyn Protocol; 1] = [&buzz];
        let groups = compare(
            &protocols,
            &[4usize, 8],
            0,
            2,
            |k, location| {
                ScenarioBuilder::paper_uplink(k, location + 1)
                    .build()
                    .unwrap()
            },
            |location| vec![location],
        );
        assert_eq!(groups.len(), 2);
        assert!(groups.iter().all(Vec::is_empty));
    }
}
