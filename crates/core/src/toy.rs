//! The §3.2 toy example: collisions improve id distinguishability.
//!
//! Two nodes must obtain distinct identifiers using three time slots.
//! *Option 1* (today's approach): each node picks one of the three slots and
//! transmits in it — they become indistinguishable when they pick the same
//! slot (probability 1/3).  *Option 2* (designing for collisions): each node
//! picks one of the four patterns of Table 1 and transmits it over all three
//! slots; the reader observes the per-slot sum (Table 2) and can tell the two
//! patterns apart unless both nodes picked the *same* pattern (probability
//! 1/4).
//!
//! The functions here reproduce Table 1 and the cells of Table 2 and generalize the failure-
//! probability computation to arbitrary pattern sets, which the
//! `collision_patterns` example and the Table 1–2 harness entry use.

/// The transmit patterns of Table 1 (slot-major, one `Vec<bool>` per pattern).
#[must_use]
pub fn table1_patterns() -> Vec<Vec<bool>> {
    vec![
        vec![false, true, true],  // 011
        vec![true, false, false], // 100
        vec![true, false, true],  // 101
        vec![true, true, true],   // 111
    ]
}

/// The per-slot sum of two patterns — one cell of Table 2 (e.g. `[0,2,2]` for
/// patterns 011 + 011).
#[must_use]
pub fn collision_pattern(a: &[bool], b: &[bool]) -> Vec<u8> {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| u8::from(x) + u8::from(y))
        .collect()
}

/// Whether every *unordered pair* of distinct patterns produces a collision
/// sum that is unique across all unordered pairs — i.e. whether the reader can
/// always tell which two patterns were transmitted as long as the nodes picked
/// different patterns.
#[must_use]
pub fn pairs_are_distinguishable(patterns: &[Vec<bool>]) -> bool {
    let mut seen: Vec<(Vec<u8>, (usize, usize))> = Vec::new();
    for i in 0..patterns.len() {
        for j in i..patterns.len() {
            let sum = collision_pattern(&patterns[i], &patterns[j]);
            if let Some((_, existing)) = seen.iter().find(|(s, _)| *s == sum) {
                if *existing != (i, j) {
                    return false;
                }
            }
            seen.push((sum, (i, j)));
        }
    }
    true
}

/// Probability that two nodes fail to obtain distinguishable identifiers under
/// *Option 2*: both pick the same pattern (assuming the pattern set is
/// pairwise distinguishable, which [`pairs_are_distinguishable`] checks).
#[must_use]
pub fn option2_failure_probability(patterns: &[Vec<bool>]) -> f64 {
    if patterns.is_empty() {
        return 1.0;
    }
    1.0 / patterns.len() as f64
}

/// Probability that two nodes fail under *Option 1*: both pick the same slot
/// out of `slots`.
#[must_use]
pub fn option1_failure_probability(slots: usize) -> f64 {
    if slots == 0 {
        return 1.0;
    }
    1.0 / slots as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_four_three_slot_patterns() {
        let p = table1_patterns();
        assert_eq!(p.len(), 4);
        assert!(p.iter().all(|x| x.len() == 3));
        // Patterns are distinct.
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(p[i], p[j]);
            }
        }
    }

    #[test]
    fn table2_matches_paper_cells() {
        let p = table1_patterns();
        let t = |i: usize, j: usize| collision_pattern(&p[i], &p[j]);
        // Row/column order: 011, 100, 101, 111 — compare against the paper.
        assert_eq!(t(0, 0), vec![0, 2, 2]); // 011+011 = 022
        assert_eq!(t(0, 1), vec![1, 1, 1]); // 011+100 = 111
        assert_eq!(t(1, 2), vec![2, 0, 1]); // 100+101 = 201
        assert_eq!(t(3, 3), vec![2, 2, 2]); // 111+111 = 222
        assert_eq!(t(2, 3), vec![2, 1, 2]); // 101+111 = 212
    }

    #[test]
    fn paper_patterns_are_pairwise_distinguishable() {
        assert!(pairs_are_distinguishable(&table1_patterns()));
    }

    #[test]
    fn ambiguous_pattern_sets_are_detected() {
        // 01 + 10 = 11 = 11 + 00: the pairs {01,10} and {11,00} coincide.
        let bad = vec![
            vec![false, true],
            vec![true, false],
            vec![true, true],
            vec![false, false],
        ];
        assert!(!pairs_are_distinguishable(&bad));
    }

    #[test]
    fn failure_probabilities_match_paper() {
        // Option 1: 1/3.  Option 2: 1/4.  Designing for collisions wins.
        let p1 = option1_failure_probability(3);
        let p2 = option2_failure_probability(&table1_patterns());
        assert!((p1 - 1.0 / 3.0).abs() < 1e-12);
        assert!((p2 - 0.25).abs() < 1e-12);
        assert!(p2 < p1);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(option1_failure_probability(0), 1.0);
        assert_eq!(option2_failure_probability(&[]), 1.0);
    }
}
