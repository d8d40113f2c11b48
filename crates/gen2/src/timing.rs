//! Link timing: converting protocol events into air time.
//!
//! Fig. 14 of the paper reports identification *time* in milliseconds, so the
//! FSA baseline and Buzz's identification protocol both need a consistent
//! accounting of how long each command, reply, and turnaround gap occupies the
//! channel.  Every protocol runs at [`PAPER_TIMING`], the paper's setup: the
//! reader transmits queries at 27 kbps, tags backscatter at 80 kbps, and the
//! Gen-2 turnaround times T1/T2 are on the order of one uplink symbol each.

/// Air-interface timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkTiming {
    /// Reader → tag (downlink) bit rate in bits/second.
    pub downlink_bps: f64,
    /// Tag → reader (uplink, backscatter) bit rate in bits/second.
    pub uplink_bps: f64,
    /// Gap between a reader command and the tag reply (T1), seconds.
    pub t1_s: f64,
    /// Gap between a tag reply and the next reader command (T2), seconds.
    pub t2_s: f64,
    /// Uplink preamble length in bits (prepended to every tag reply).
    pub uplink_preamble_bits: usize,
}

/// The timing used throughout the paper's evaluation: 27 kbps downlink,
/// 80 kbps uplink, one-symbol turnarounds, 6-bit uplink preamble.
pub const PAPER_TIMING: LinkTiming = LinkTiming {
    downlink_bps: 27_000.0,
    uplink_bps: 80_000.0,
    t1_s: 62.5e-6,
    t2_s: 62.5e-6,
    uplink_preamble_bits: 6,
};

impl LinkTiming {
    /// Duration of a downlink transmission of `bits` bits, in seconds.
    #[must_use]
    pub fn downlink_s(&self, bits: usize) -> f64 {
        bits as f64 / self.downlink_bps
    }

    /// Duration of an uplink (tag) transmission of `bits` payload bits
    /// including the preamble, in seconds.
    #[must_use]
    pub fn uplink_s(&self, bits: usize) -> f64 {
        (bits + self.uplink_preamble_bits) as f64 / self.uplink_bps
    }

    /// Duration of one uplink symbol (one bit period) in seconds — the length
    /// of a Buzz identification time slot, which carries a single bit.
    #[must_use]
    pub fn uplink_symbol_s(&self) -> f64 {
        1.0 / self.uplink_bps
    }

    /// A complete command/reply exchange: downlink command, T1, uplink reply,
    /// T2.  Either part may be zero bits (e.g. a slot with no reply).
    #[must_use]
    pub fn exchange_s(&self, downlink_bits: usize, uplink_bits: usize) -> f64 {
        let mut total = 0.0;
        if downlink_bits > 0 {
            total += self.downlink_s(downlink_bits);
        }
        total += self.t1_s;
        if uplink_bits > 0 {
            total += self.uplink_s(uplink_bits);
        }
        total += self.t2_s;
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_scale_with_bits() {
        let t = PAPER_TIMING;
        assert!((t.downlink_s(27) - 0.001).abs() < 1e-12);
        // 16-bit RN16 + 6-bit preamble at 80 kbps = 275 µs.
        assert!((t.uplink_s(16) - 275e-6).abs() < 1e-9);
        assert!((t.uplink_symbol_s() - 12.5e-6).abs() < 1e-12);
    }

    #[test]
    fn exchange_includes_gaps() {
        let t = PAPER_TIMING;
        let full = t.exchange_s(22, 16);
        let expected = t.downlink_s(22) + t.t1_s + t.uplink_s(16) + t.t2_s;
        assert!((full - expected).abs() < 1e-12);
        // An empty slot still pays the turnaround gaps.
        let empty = t.exchange_s(4, 0);
        assert!((empty - (t.downlink_s(4) + t.t1_s + t.t2_s)).abs() < 1e-12);
    }
}
