//! Deterministic single-event-upset fault injection (DESIGN.md §15).
//!
//! The injection engine models a transient bit flip landing in one of
//! four state classes at a chosen cycle:
//!
//! * **RST entries** — pair-sharing / merge-provenance bits of the
//!   Register Sharing Table. Timing-and-categorization state only: the
//!   oracle-functional pipeline commits each thread's own functionally
//!   executed result, so a corrupt RST can mis-merge or mis-split
//!   instructions but never change architectural results. Detectable by
//!   [`crate::Simulator::validate`] when the flip produces a state the
//!   hardware cannot reach (stray provenance, out-of-range pair bits);
//!   otherwise provably masked.
//! * **LVIP slots** — the Load Values Identical Predictor's mismatch
//!   table. Pure prediction state, verified against oracle values at
//!   dispatch, so always masked (timing may change; results cannot).
//! * **Architectural registers** — the per-thread register files. These
//!   *are* results: an upset that the program still reads shows up as a
//!   final-digest mismatch against a clean run (or as a typed
//!   [`crate::SimError::Exec`] when a corrupted address faults); one
//!   that is overwritten first is masked.
//! * **Checkpoint bytes** — the serialized [`crate::ArchState`] JSON.
//!   Applied to the document bytes, not a live simulator; the loader's
//!   integrity digest must reject the corrupt file.
//!
//! Campaigns draw faults from [`CampaignRng`], a seeded SplitMix64
//! stream, so every run of a campaign is exactly reproducible from its
//! seed. The engine lives in `mmt-sim` so `mmtgate --check fault` and
//! unit tests share one fault vocabulary; it deliberately has no
//! dependencies beyond the crate itself.

use mmt_isa::reg::NUM_REGS;

/// Seeded SplitMix64 stream — the campaign's source of deterministic
/// randomness. (Deliberately local to the core crate, which carries no
/// external dependencies; the constants are Vigna's reference ones.)
#[derive(Debug, Clone)]
pub struct CampaignRng {
    state: u64,
}

impl CampaignRng {
    /// A stream seeded with `seed`; equal seeds yield equal campaigns.
    pub fn new(seed: u64) -> CampaignRng {
        CampaignRng { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty draw range");
        self.next_u64() % n
    }
}

/// Where a single-event upset lands. All flips are XOR masks, so
/// applying the same target twice restores the original state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// Flip pair-sharing and/or merge-provenance bits of one Register
    /// Sharing Table entry.
    RstEntry {
        /// Architected register index (`1..NUM_REGS`; r0 is hardwired).
        reg: usize,
        /// XOR mask applied to the entry's pair-sharing bits.
        shared_xor: u8,
        /// XOR mask applied to the entry's merge-provenance bits.
        by_merge_xor: u8,
    },
    /// Flip bits of one LVIP slot's remembered mismatch PC (an empty
    /// slot becomes a bogus learned entry).
    LvipSlot {
        /// Table slot index (`< SimConfig::lvip_entries`).
        slot: usize,
        /// XOR mask applied to the slot's tag value.
        bits: u64,
    },
    /// Flip bits of one architectural register in one thread.
    ArchReg {
        /// Hardware thread index.
        thread: usize,
        /// Architected register index (`1..NUM_REGS`; r0 is hardwired).
        reg: usize,
        /// XOR mask applied to the register value.
        bits: u64,
    },
    /// Flip one bit of a serialized checkpoint document. Applied with
    /// [`flip_byte`] to the bytes, never to a live simulator.
    CheckpointByte {
        /// Byte offset into the document.
        offset: usize,
        /// Bit index within the byte (`0..8`).
        bit: u8,
    },
}

impl FaultTarget {
    /// Stable short name of the state class, for reports and traces.
    pub fn unit_name(&self) -> &'static str {
        match self {
            FaultTarget::RstEntry { .. } => "rst",
            FaultTarget::LvipSlot { .. } => "lvip",
            FaultTarget::ArchReg { .. } => "arch-reg",
            FaultTarget::CheckpointByte { .. } => "checkpoint",
        }
    }

    /// Human-readable description of the exact upset.
    pub fn describe(&self) -> String {
        match *self {
            FaultTarget::RstEntry {
                reg,
                shared_xor,
                by_merge_xor,
            } => format!("rst r{reg} shared^={shared_xor:#04x} by_merge^={by_merge_xor:#04x}"),
            FaultTarget::LvipSlot { slot, bits } => format!("lvip slot {slot} ^= {bits:#x}"),
            FaultTarget::ArchReg { thread, reg, bits } => {
                format!("thread {thread} r{reg} ^= {bits:#x}")
            }
            FaultTarget::CheckpointByte { offset, bit } => {
                format!("checkpoint byte {offset} bit {bit}")
            }
        }
    }

    /// Draw a random upset into *live* simulator state (RST, LVIP, or an
    /// architectural register — checkpoint faults need the serialized
    /// document and are drawn by the campaign harness instead).
    pub fn random_live(rng: &mut CampaignRng, threads: usize, lvip_entries: usize) -> FaultTarget {
        match rng.below(3) {
            0 => FaultTarget::RstEntry {
                reg: 1 + rng.below((NUM_REGS - 1) as u64) as usize,
                // Flip one of the 8 stored bits: 6 pair bits + the two
                // bytes' dead high bits (a flip there is exactly what
                // the audit's out-of-range check exists to catch).
                shared_xor: if rng.below(2) == 0 {
                    1 << rng.below(8)
                } else {
                    0
                },
                by_merge_xor: 1 << rng.below(8),
            },
            1 => FaultTarget::LvipSlot {
                slot: rng.below(lvip_entries as u64) as usize,
                bits: 1 << rng.below(64),
            },
            _ => FaultTarget::ArchReg {
                thread: rng.below(threads as u64) as usize,
                reg: 1 + rng.below((NUM_REGS - 1) as u64) as usize,
                bits: 1 << rng.below(64),
            },
        }
    }
}

/// A scheduled single-event upset: *what* flips and *when*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Cycle at which the upset is applied (between `step_cycle` calls).
    pub cycle: u64,
    /// The state bit(s) that flip.
    pub target: FaultTarget,
}

/// Flip `bit` of the byte at `offset` in a serialized document. Returns
/// `false` (and leaves the bytes untouched) when `offset` is out of
/// range or `bit > 7`.
pub fn flip_byte(bytes: &mut [u8], offset: usize, bit: u8) -> bool {
    if bit > 7 {
        return false;
    }
    match bytes.get_mut(offset) {
        Some(b) => {
            *b ^= 1 << bit;
            true
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_nondegenerate() {
        let mut a = CampaignRng::new(42);
        let mut b = CampaignRng::new(42);
        let draws: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        assert_eq!(draws, (0..16).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert!(draws.windows(2).any(|w| w[0] != w[1]));
        let mut c = CampaignRng::new(43);
        assert_ne!(draws[0], c.next_u64());
    }

    #[test]
    fn random_live_targets_are_in_range() {
        let mut rng = CampaignRng::new(7);
        for _ in 0..256 {
            match FaultTarget::random_live(&mut rng, 4, 4096) {
                FaultTarget::RstEntry { reg, .. } => assert!((1..NUM_REGS).contains(&reg)),
                FaultTarget::LvipSlot { slot, .. } => assert!(slot < 4096),
                FaultTarget::ArchReg { thread, reg, .. } => {
                    assert!(thread < 4);
                    assert!((1..NUM_REGS).contains(&reg));
                }
                FaultTarget::CheckpointByte { .. } => panic!("random_live never draws these"),
            }
        }
    }

    #[test]
    fn flip_byte_is_bounded_and_involutive() {
        let mut bytes = vec![0u8; 4];
        assert!(flip_byte(&mut bytes, 2, 3));
        assert_eq!(bytes, [0, 0, 8, 0]);
        assert!(flip_byte(&mut bytes, 2, 3));
        assert_eq!(bytes, [0, 0, 0, 0]);
        assert!(!flip_byte(&mut bytes, 4, 0));
        assert!(!flip_byte(&mut bytes, 0, 8));
        assert_eq!(bytes, [0, 0, 0, 0]);
    }
}
