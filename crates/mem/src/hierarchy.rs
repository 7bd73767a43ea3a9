//! The two-level cache hierarchy facade used by the timing model.

use crate::cache::{Cache, CacheConfig, CacheStats, Lookup};
use crate::mshr::MshrFile;

/// Which level serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// Serviced by the first-level cache.
    L1,
    /// Missed L1, hit L2.
    L2,
    /// Missed both caches; serviced by DRAM (through an MSHR).
    Mem,
}

/// Result of a hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Total latency in cycles from the access cycle.
    pub latency: u64,
    /// Absolute cycle at which the data is available.
    pub completes_at: u64,
    /// Deepest level that had to service the access.
    pub level: HitLevel,
}

/// Configuration of the full hierarchy (Table 4 defaults via
/// [`HierarchyConfig::paper`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Instruction L1.
    pub l1i: CacheConfig,
    /// Data L1.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// DRAM service latency in cycles.
    pub dram_latency: u64,
    /// Number of data MSHRs (outstanding data misses).
    pub mshrs: usize,
    /// Next-line prefetch into L2 on L2 misses (standard for the era;
    /// mainly de-emphasizes cold-start effects on sequential walks).
    pub prefetch: bool,
}

impl HierarchyConfig {
    /// The paper's Table 4 memory system: 64 KiB+64 KiB 4-way L1s (1 cy),
    /// 4 MiB 8-way L2 (6 cy), 200-cycle DRAM, 8 MSHRs (scaled with
    /// load/store ports in the Figure 7(b) sweep).
    pub const fn paper() -> HierarchyConfig {
        HierarchyConfig {
            l1i: CacheConfig::paper_l1(),
            l1d: CacheConfig::paper_l1(),
            l2: CacheConfig::paper_l2(),
            dram_latency: 200,
            mshrs: 8,
            prefetch: true,
        }
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig::paper()
    }
}

/// Fold an address-space id into a word address, producing the "physical"
/// byte address used for cache indexing.
///
/// Multi-execution processes have disjoint memories, so identical virtual
/// addresses in different processes must occupy distinct cache lines;
/// multi-threaded workloads pass the same `space` for every thread and
/// naturally share lines.
#[inline]
pub fn phys_addr(space: usize, word_addr: u64) -> u64 {
    // Word -> byte, then place each space in its own 1 TiB region. The
    // small odd word offset acts as page coloring: without it, every
    // process's identical virtual layout would map to the same cache
    // sets and multi-execution workloads would conflict-thrash the L1.
    ((word_addr + space as u64 * 8375) << 3) | ((space as u64) << 40)
}

/// The simulated memory system: shared L1I + L1D backed by a unified L2
/// and DRAM, with MSHR-limited miss parallelism on the data side and an
/// optional next-line L2 prefetcher.
///
/// All methods take the current cycle and return an [`AccessOutcome`];
/// the hierarchy never blocks the caller.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    cfg: HierarchyConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    mshrs: MshrFile,
    prefetches: u64,
}

impl MemoryHierarchy {
    /// Build an empty (cold) hierarchy.
    pub fn new(cfg: HierarchyConfig) -> MemoryHierarchy {
        MemoryHierarchy {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            mshrs: MshrFile::new(cfg.mshrs),
            prefetches: 0,
            cfg,
        }
    }

    /// Next-line prefetch: install the successor line in L2 with a
    /// completion slightly after the demand fill (it shares the open DRAM
    /// stream). Only issued for lines not already resident.
    fn prefetch_next(&mut self, addr: u64, ready_at: u64) {
        if !self.cfg.prefetch {
            return;
        }
        let next = addr + self.cfg.l2.line_bytes;
        if !self.l2.probe(next) {
            // The prefetch allocates via a normal (uncounted-by-demand)
            // access path: mark the line present and in flight.
            if let crate::cache::Lookup::Miss = self.l2.access(next, ready_at) {
                self.l2.set_fill_time(next, ready_at + 4);
                self.prefetches += 1;
            }
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Fetch an instruction cache line containing instruction index `pc`
    /// in address space `space` at cycle `now`.
    ///
    /// Instruction fetches are modeled without MSHR contention (the paper
    /// front-end uses a trace cache and reports insensitivity to it; what
    /// MMT saves is the *number* of fetch accesses, which [`CacheStats`]
    /// captures).
    pub fn access_inst(&mut self, space: usize, pc: u64, now: u64) -> AccessOutcome {
        let addr = phys_addr(space, pc);
        match self.l1i.access(addr, now) {
            Lookup::Hit { ready_at } => AccessOutcome {
                latency: ready_at - now,
                completes_at: ready_at,
                level: HitLevel::L1,
            },
            Lookup::Miss => match self.l2.access(addr, now) {
                Lookup::Hit { ready_at } => {
                    let done = ready_at + self.cfg.l1i.latency;
                    self.l1i.set_fill_time(addr, done);
                    AccessOutcome {
                        latency: done - now,
                        completes_at: done,
                        level: HitLevel::L2,
                    }
                }
                Lookup::Miss => {
                    let done =
                        now + self.cfg.l1i.latency + self.cfg.l2.latency + self.cfg.dram_latency;
                    self.l2.set_fill_time(addr, done);
                    self.l1i.set_fill_time(addr, done);
                    self.prefetch_next(addr, done);
                    AccessOutcome {
                        latency: done - now,
                        completes_at: done,
                        level: HitLevel::Mem,
                    }
                }
            },
        }
    }

    /// Access data word `word_addr` in address space `space` at cycle
    /// `now`. Stores are modeled write-allocate (they access the same
    /// structures as loads).
    pub fn access_data(
        &mut self,
        space: usize,
        word_addr: u64,
        now: u64,
        _is_store: bool,
    ) -> AccessOutcome {
        let addr = phys_addr(space, word_addr);
        match self.l1d.access(addr, now) {
            Lookup::Hit { ready_at } => AccessOutcome {
                latency: ready_at - now,
                completes_at: ready_at,
                level: HitLevel::L1,
            },
            Lookup::Miss => match self.l2.access(addr, now) {
                Lookup::Hit { ready_at } => {
                    let done = ready_at + self.cfg.l1d.latency;
                    self.l1d.set_fill_time(addr, done);
                    AccessOutcome {
                        latency: done - now,
                        completes_at: done,
                        level: HitLevel::L2,
                    }
                }
                Lookup::Miss => {
                    // DRAM misses contend for MSHRs.
                    let service =
                        self.cfg.l1d.latency + self.cfg.l2.latency + self.cfg.dram_latency;
                    let completes_at = self.mshrs.issue(now, service);
                    self.l2.set_fill_time(addr, completes_at);
                    self.l1d.set_fill_time(addr, completes_at);
                    self.prefetch_next(addr, completes_at);
                    AccessOutcome {
                        latency: completes_at - now,
                        completes_at,
                        level: HitLevel::Mem,
                    }
                }
            },
        }
    }

    /// Functionally warm the instruction line containing instruction
    /// index `pc`: residency and LRU movement through L1I/L2 (and the
    /// next-line prefetch's content effect) with no latency, statistic,
    /// or MSHR side effects. The sampled-run fast-forward executor calls
    /// this so detailed windows resume with the cache contents a
    /// full-detail run would have had (DESIGN.md §14).
    pub fn warm_inst(&mut self, space: usize, pc: u64) {
        let addr = phys_addr(space, pc);
        if !self.l1i.warm(addr) && !self.l2.warm(addr) {
            self.warm_prefetch_next(addr);
        }
    }

    /// Functionally warm the data line holding word `word_addr` (loads
    /// and stores alike — the demand path is write-allocate).
    pub fn warm_data(&mut self, space: usize, word_addr: u64) {
        let addr = phys_addr(space, word_addr);
        if !self.l1d.warm(addr) && !self.l2.warm(addr) {
            self.warm_prefetch_next(addr);
        }
    }

    /// Content effect of [`MemoryHierarchy::prefetch_next`] on the warm
    /// path (no counters, no timing).
    fn warm_prefetch_next(&mut self, addr: u64) {
        if self.cfg.prefetch {
            let next = addr + self.cfg.l2.line_bytes;
            if !self.l2.probe(next) {
                self.l2.warm(next);
            }
        }
    }

    /// Make every resident line immediately available and drop
    /// outstanding-miss timing, so the hierarchy can cross a mode switch
    /// where the cycle clock restarts. Residency, LRU order and
    /// statistics are kept. O(1) in the cache sizes: each cache starts a
    /// new fill-time epoch ([`Cache::quiesce`]) and the MSHRs drain.
    pub fn quiesce(&mut self) {
        self.l1i.quiesce();
        self.l1d.quiesce();
        self.l2.quiesce();
        self.mshrs.drain();
    }

    /// Instruction-cache statistics.
    pub fn l1i_stats(&self) -> CacheStats {
        self.l1i.stats()
    }

    /// Data-cache statistics.
    pub fn l1d_stats(&self) -> CacheStats {
        self.l1d.stats()
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Misses delayed by MSHR exhaustion (memory-bandwidth pressure).
    pub fn mshr_stalls(&self) -> u64 {
        self.mshrs.stall_count()
    }

    /// Next-line prefetches issued.
    pub fn prefetch_count(&self) -> u64 {
        self.prefetches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phys_addr_separates_spaces() {
        assert_ne!(phys_addr(0, 100), phys_addr(1, 100));
        assert_eq!(phys_addr(0, 100), 800);
        // Same space, consecutive words are 8 bytes apart.
        assert_eq!(phys_addr(2, 101) - phys_addr(2, 100), 8);
        // Page coloring: equal word addresses land in different cache
        // sets for different spaces (the low bits differ, not just the
        // space tag).
        let a = phys_addr(0, 100) & 0xffff;
        let b = phys_addr(1, 100) & 0xffff;
        assert_ne!(a, b);
    }

    #[test]
    fn inst_fetch_levels() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::paper());
        let cold = h.access_inst(0, 0, 0);
        assert_eq!(cold.level, HitLevel::Mem);
        assert_eq!(cold.latency, 1 + 6 + 200);
        let warm = h.access_inst(0, 0, 300);
        assert_eq!(warm.level, HitLevel::L1);
        assert_eq!(warm.latency, 1);
    }

    #[test]
    fn data_miss_fills_l2_then_l1() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::paper());
        assert_eq!(h.access_data(0, 5, 0, false).level, HitLevel::Mem);
        assert_eq!(h.access_data(0, 5, 300, false).level, HitLevel::L1);
        // Evicting from tiny L1 but not L2 would show L2 hits; here just
        // confirm stats moved.
        assert_eq!(h.l1d_stats().accesses, 2);
        // One demand access plus the next-line prefetch's allocation.
        assert_eq!(h.l2_stats().accesses, 2);
        assert_eq!(h.prefetch_count(), 1);
    }

    #[test]
    fn different_spaces_do_not_share_lines() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::paper());
        h.access_data(0, 5, 0, false);
        let other = h.access_data(1, 5, 300, false);
        assert_eq!(other.level, HitLevel::Mem, "space 1 must cold-miss");
        // Same space shares:
        let same = h.access_data(0, 6, 600, false);
        assert_eq!(same.level, HitLevel::L1, "word 6 is on word 5's line");
    }

    #[test]
    fn mshr_pressure_extends_latency() {
        let mut few = MemoryHierarchy::new(HierarchyConfig {
            mshrs: 1,
            ..HierarchyConfig::paper()
        });
        let mut many = MemoryHierarchy::new(HierarchyConfig {
            mshrs: 16,
            ..HierarchyConfig::paper()
        });
        // Issue 4 independent cold misses in the same cycle.
        let worst_few = (0..4)
            .map(|i| few.access_data(0, i * 1024, 0, false).completes_at)
            .max()
            .unwrap();
        let worst_many = (0..4)
            .map(|i| many.access_data(0, i * 1024, 0, false).completes_at)
            .max()
            .unwrap();
        assert!(worst_few > worst_many);
        assert!(few.mshr_stalls() > 0);
        assert_eq!(many.mshr_stalls(), 0);
    }

    #[test]
    fn quiesce_drains_mshrs_and_forgets_fill_times() {
        let mut h = MemoryHierarchy::new(HierarchyConfig {
            mshrs: 1,
            prefetch: false,
            ..HierarchyConfig::paper()
        });
        // Holds the only MSHR until cycle 207.
        assert_eq!(h.access_data(0, 0, 0, false).completes_at, 207);
        assert_eq!(h.access_inst(0, 1024, 0).completes_at, 207);
        let (l1d, l2) = (h.l1d_stats(), h.l2_stats());
        h.quiesce();
        assert_eq!((h.l1d_stats(), h.l2_stats()), (l1d, l2));
        // The clock restarts at 0: resident lines hit at hit latency ...
        let data = h.access_data(0, 0, 0, false);
        assert_eq!((data.level, data.latency), (HitLevel::L1, 1));
        let inst = h.access_inst(0, 1024, 0);
        assert_eq!((inst.level, inst.latency), (HitLevel::L1, 1));
        // ... and the old miss no longer holds the MSHR.
        assert_eq!(h.access_data(0, 4096, 0, false).completes_at, 207);
        assert_eq!(h.mshr_stalls(), 0);
    }

    #[test]
    fn stores_allocate() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::paper());
        h.access_data(0, 9, 0, true);
        assert_eq!(h.access_data(0, 9, 300, false).level, HitLevel::L1);
    }
}
