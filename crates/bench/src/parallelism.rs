//! The harness's determinism contract across thread counts.
//!
//! Experiments shard their `locations × parameters` scenario matrix through
//! the repository's one executor, [`buzz::executor::work_steal_map`], then
//! fold the ordered partial results exactly as the serial loop would — which
//! is what keeps `reproduce --threads N` output byte-identical to
//! `--threads 1`.  This module defines no pool of its own: its tests pin the
//! properties of the executor that the harness's fold relies on.

#[cfg(test)]
mod tests {
    use buzz::executor::work_steal_map;

    #[test]
    fn preserves_input_order_for_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1usize, 2, 3, 8, 200] {
            let got = work_steal_map(threads, items.clone(), |x| x * x + 1);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_output_is_byte_identical_to_serial_for_float_work() {
        // Per-item work is float-heavy and order-sensitive internally; the
        // executor must not change any item's result or the output order.
        let work = |seed: u64| -> f64 {
            let mut acc = 0.0f64;
            let mut x = seed as f64 + 0.5;
            for _ in 0..1_000 {
                x = (x * 1.000_1).sin() + 1.01;
                acc += x;
            }
            acc
        };
        let items: Vec<u64> = (0..40).collect();
        let serial = work_steal_map(1, items.clone(), work);
        let parallel = work_steal_map(4, items, work);
        // Bitwise comparison, not approximate.
        let serial_bits: Vec<u64> = serial.iter().map(|f| f.to_bits()).collect();
        let parallel_bits: Vec<u64> = parallel.iter().map(|f| f.to_bits()).collect();
        assert_eq!(serial_bits, parallel_bits);
    }

    #[test]
    fn handles_empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(work_steal_map(4, empty, |x: u32| x).is_empty());
        assert_eq!(work_steal_map(4, vec![7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        assert_eq!(
            work_steal_map(64, vec![1u32, 2, 3], |x| x * 10),
            vec![10, 20, 30]
        );
    }
}
