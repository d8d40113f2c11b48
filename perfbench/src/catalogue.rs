//! The screened locations `paper_mix` draws its sessions from.
//!
//! With the default configuration, identification cost is heavy-tailed: on
//! a 2-core x86-64 host most K = 16 sessions take 25–830 ms, but about one
//! in eight takes 7–11 s in the dense prune, and some run for many minutes.
//! One such session would decide a run's host metrics on its own, or push it
//! past its time limit.  So `paper_mix` runs a fixed catalogue of candidate
//! locations (scenario seed plus noise seed) from which every candidate
//! whose full session took longer than 2 s was removed once, by `screen.py`.
//! The workload seed sets the order of the sessions.  It does not pick a
//! subset: with the tail removed, a seeded subset moves the metrics that
//! depend on the few largest sessions (peak memory, the 95th percentile) by
//! more than their bounds.
//!
//! The catalogue holds 20 locations per K, so that one pass over it takes
//! about 5 s and a run repeats every session eight times or more: few
//! repeats left the host metrics at the mercy of the host's slow spells.
//!
//! `large_k` takes its locations from the same candidates: the first one at
//! each K, in an order the seed shuffles.  Drawing them from the seed made
//! peak memory and the median session depend on which K = 200 and K = 300
//! locations a seed drew (8.7 against 11.0 MB), beyond what five runs of
//! the same code could hold to one bound.

use crate::workloads::mix;

/// Master seed of the candidate locations.
pub const PANEL_SEED: u64 = 0x5ca1_ab1e_2012;

/// Shuffle stream of `large_k`'s session order (the catalogue's draws use
/// their tag count as the stream).
pub const LARGE_K_STREAM: u64 = 0x1a26_e000;

/// Admitted candidates per tag count.
pub const PER_K: usize = 20;

/// `(k, index)` of every candidate the screen removed.  The screen ran over
/// the first 46 candidates at K = 16 and 40 at K = 4 and 8 on a 2-core
/// x86-64 host: six at K = 16 ran past the limit, where the admitted ones
/// took at most 0.83 s; none at K = 4 or 8.  The first four fall among the
/// candidates the catalogue admits today; the last two lie beyond it.
pub const EXCLUDED: &[(usize, u64)] = &[(16, 2), (16, 12), (16, 17), (16, 22), (16, 26), (16, 41)];

/// The tag counts the catalogue covers.
pub const KS: [usize; 3] = [4, 8, 16];

/// Scenario seed and noise seed of candidate `index` at `k` tags.
#[must_use]
pub fn candidate(k: usize, index: u64) -> (u64, u64) {
    let scenario_seed = mix(PANEL_SEED, mix(k as u64, index));
    (scenario_seed, mix(scenario_seed, 0x0150_fade))
}

/// Indices of the admitted candidates at `k` tags.
#[must_use]
pub fn admitted(k: usize) -> Vec<u64> {
    (0..)
        .filter(|&i| !EXCLUDED.contains(&(k, i)))
        .take(PER_K)
        .collect()
}

/// Shuffles `items` in an order set by `seed` and `stream` (Fisher–Yates,
/// back to front).
pub fn shuffle<T>(items: &mut [T], seed: u64, stream: u64) {
    for i in (1..items.len()).rev() {
        let j = (mix(seed, mix(stream, i as u64)) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// `count` admitted candidates at `k` tags, chosen and ordered by `seed`.
///
/// # Errors
///
/// When `k` is not in the catalogue or `count` exceeds [`PER_K`].
pub fn draw(k: usize, count: usize, seed: u64) -> Result<Vec<(u64, u64)>, String> {
    if !KS.contains(&k) || count > PER_K {
        return Err(format!(
            "the catalogue holds {PER_K} locations at each K in {KS:?}, not {count} at K = {k}"
        ));
    }
    let mut indices = admitted(k);
    shuffle(&mut indices, seed, k as u64);
    Ok(indices
        .into_iter()
        .take(count)
        .map(|i| candidate(k, i))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_seeded_subsets_of_the_admitted_candidates() {
        for k in KS {
            let admitted: Vec<(u64, u64)> =
                admitted(k).into_iter().map(|i| candidate(k, i)).collect();
            assert_eq!(admitted.len(), PER_K);
            let a = draw(k, PER_K - 4, 1).unwrap();
            assert_eq!(a, draw(k, PER_K - 4, 1).unwrap());
            assert_ne!(a, draw(k, PER_K - 4, 2).unwrap());
            assert!(a.iter().all(|c| admitted.contains(c)));
            let mut unique = a.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), PER_K - 4);
        }
        for &(k, i) in EXCLUDED {
            assert!(!admitted(k).contains(&i));
        }
        assert!(draw(5, 1, 1).is_err());
        assert!(draw(4, PER_K + 1, 1).is_err());
    }
}
