//! Set-associative cache with true-LRU replacement.

use std::fmt;

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Hit latency in cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// Table 4 L1: 64 KiB, 4-way, 64 B lines, 1-cycle.
    pub const fn paper_l1() -> CacheConfig {
        CacheConfig {
            size_bytes: 64 * 1024,
            assoc: 4,
            line_bytes: 64,
            latency: 1,
        }
    }

    /// Table 4 L2: 4 MiB, 8-way, 64 B lines, 6-cycle.
    pub const fn paper_l2() -> CacheConfig {
        CacheConfig {
            size_bytes: 4 * 1024 * 1024,
            assoc: 8,
            line_bytes: 64,
            latency: 6,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero or non-power-of-two
    /// parameters, or capacity smaller than one set).
    pub fn num_sets(&self) -> usize {
        assert!(self.line_bytes.is_power_of_two(), "line size power of two");
        assert!(self.assoc > 0, "associativity non-zero");
        let sets = self.size_bytes / self.line_bytes / self.assoc as u64;
        assert!(sets > 0, "capacity holds at least one set");
        assert!(sets.is_power_of_two(), "set count power of two");
        sets as usize
    }
}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses (reads + writes).
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}
mmt_obs::impl_json! { CacheStats { accesses, hits, misses } }

impl CacheStats {
    /// Miss ratio in `[0, 1]`; zero when no accesses occurred.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    /// The cache epoch in which `ready_at` was written. A stamp older
    /// than the cache's current epoch means a [`Cache::quiesce`] came
    /// since, and the line reads as ready at once.
    epoch: u32,
    last_used: u64,
    /// Cycle at which the line's fill completes (0 for long-resident
    /// lines). A hit on a line still in flight is a hit-under-fill: the
    /// data is available only when the fill arrives.
    ready_at: u64,
}

// The epoch stamp rides in the padding after `valid`.
const _: () = assert!(std::mem::size_of::<Line>() == 32);

/// Outcome of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The line is resident; data is available at `ready_at` (which may
    /// be in the future if the line's fill is still in flight —
    /// hit-under-fill).
    Hit {
        /// Cycle at which the data can be consumed.
        ready_at: u64,
    },
    /// The line was absent; it has been allocated, and the caller must
    /// report the fill-completion time via [`Cache::set_fill_time`].
    Miss,
}

/// A set-associative, true-LRU cache model.
///
/// Purely a presence/recency tracker: data contents live in the functional
/// memories (`mmt_isa::interp::Memory`); the cache decides *hit or miss*
/// and the hierarchy turns that into latency. Misses allocate the line
/// immediately but mark it in flight until [`Cache::set_fill_time`] is
/// called, so a second access to the same line waits for the first miss's
/// fill instead of getting a free hit.
///
/// # Examples
///
/// ```
/// use mmt_mem::{Cache, CacheConfig, cache::Lookup};
/// let mut c = Cache::new(CacheConfig::paper_l1());
/// assert_eq!(c.access(0x40, 0), Lookup::Miss); // cold miss
/// c.set_fill_time(0x40, 100);
/// // A later access to the in-flight line waits for the fill:
/// assert_eq!(c.access(0x7f, 5), Lookup::Hit { ready_at: 100 });
/// // Once the fill has landed, hits are at hit latency:
/// assert_eq!(c.access(0x40, 200), Lookup::Hit { ready_at: 201 });
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Vec<Line>>,
    set_mask: u64,
    line_shift: u32,
    stats: CacheStats,
    tick: u64,
    /// Bumped by [`Cache::quiesce`]; fill times stamped in an older
    /// epoch are void.
    epoch: u32,
}

impl Cache {
    /// Build an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry (see [`CacheConfig::num_sets`]).
    pub fn new(cfg: CacheConfig) -> Cache {
        let num_sets = cfg.num_sets();
        Cache {
            cfg,
            sets: vec![
                vec![
                    Line {
                        tag: 0,
                        valid: false,
                        epoch: 0,
                        last_used: 0,
                        ready_at: 0,
                    };
                    cfg.assoc
                ];
                num_sets
            ],
            set_mask: num_sets as u64 - 1,
            line_shift: cfg.line_bytes.trailing_zeros(),
            stats: CacheStats::default(),
            tick: 0,
            epoch: 0,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Access `addr` (byte address) at cycle `now`. Misses allocate the
    /// line (evicting the LRU way) and leave it in flight until
    /// [`Cache::set_fill_time`] reports when the fill lands. A hit waits
    /// for the line's fill only if that fill time was stamped after the
    /// last [`Cache::quiesce`].
    pub fn access(&mut self, addr: u64, now: u64) -> Lookup {
        // A strictly increasing tick breaks LRU ties between same-cycle
        // accesses deterministically.
        self.tick = self.tick.max(now << 8).wrapping_add(1);
        let line_addr = addr >> self.line_shift;
        let set_idx = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_mask.count_ones();
        self.stats.accesses += 1;

        let hit_latency = self.cfg.latency;
        let set = &mut self.sets[set_idx];
        if let Some(way) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            way.last_used = self.tick;
            self.stats.hits += 1;
            let fill = if way.epoch == self.epoch {
                way.ready_at
            } else {
                0
            };
            return Lookup::Hit {
                ready_at: (now + hit_latency).max(fill),
            };
        }
        self.stats.misses += 1;
        // Fill: prefer an invalid way, else evict LRU.
        let victim = set
            .iter_mut()
            .min_by_key(|l| (l.valid, l.last_used))
            .expect("associativity is non-zero");
        victim.tag = tag;
        victim.valid = true;
        victim.last_used = self.tick;
        victim.epoch = self.epoch;
        victim.ready_at = u64::MAX; // in flight until set_fill_time
        Lookup::Miss
    }

    /// Report when the fill for the (just-missed) line holding `addr`
    /// completes. No-op if the line was evicted in between.
    pub fn set_fill_time(&mut self, addr: u64, ready_at: u64) {
        let line_addr = addr >> self.line_shift;
        let set_idx = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_mask.count_ones();
        if let Some(way) = self.sets[set_idx]
            .iter_mut()
            .find(|l| l.valid && l.tag == tag)
        {
            way.epoch = self.epoch;
            way.ready_at = ready_at;
        }
    }

    /// Touch `addr` for *functional warming*: update residency and LRU
    /// recency exactly like [`Cache::access`], but count no statistics
    /// and leave no in-flight timing (a warmed line is immediately
    /// ready). Returns whether the line was already resident. Used by
    /// the sampled-run fast-forward warmer (DESIGN.md §14).
    pub fn warm(&mut self, addr: u64) -> bool {
        self.tick = self.tick.wrapping_add(1);
        let line_addr = addr >> self.line_shift;
        let set_idx = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_mask.count_ones();
        let set = &mut self.sets[set_idx];
        if let Some(way) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            way.last_used = self.tick;
            return true;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|l| (l.valid, l.last_used))
            .expect("associativity is non-zero");
        victim.tag = tag;
        victim.valid = true;
        victim.last_used = self.tick;
        victim.ready_at = 0;
        false
    }

    /// Make every resident line immediately available, dropping
    /// in-flight fill timing. Needed when a warmed cache crosses a mode
    /// switch where the cycle clock restarts (absolute `ready_at` times
    /// from the old clock would read as fills far in the future).
    /// Residency, LRU order and statistics are kept.
    ///
    /// O(1): it starts a new epoch, which voids every fill time stamped
    /// before it (see [`Cache::access`]). Only when the 32-bit epoch
    /// wraps to 0, once per 2^32 calls, does it walk the lines and zero
    /// their fill times, so no stamp from an earlier lap reads as
    /// current.
    pub fn quiesce(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.zero_fill_times();
        }
    }

    /// The per-line quiesce: forget every fill time.
    fn zero_fill_times(&mut self) {
        for line in self.sets.iter_mut().flatten() {
            line.ready_at = 0;
        }
    }

    /// Check residency without updating LRU state or statistics.
    pub fn probe(&self, addr: u64) -> bool {
        let line_addr = addr >> self.line_shift;
        let set_idx = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_mask.count_ones();
        self.sets[set_idx].iter().any(|l| l.valid && l.tag == tag)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Invalidate everything and zero the statistics.
    pub fn reset(&mut self) {
        for set in &mut self.sets {
            for line in set {
                line.valid = false;
                line.ready_at = 0;
            }
        }
        self.stats = CacheStats::default();
        self.tick = 0;
    }

    /// Jump to epoch `epoch`, so a test reaches the wrap in one step.
    #[cfg(test)]
    fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }
}

impl fmt::Display for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}B {}-way cache: {} accesses, {:.2}% miss",
            self.cfg.size_bytes,
            self.cfg.assoc,
            self.stats.accesses,
            self.stats.miss_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64B lines = 256 bytes.
        Cache::new(CacheConfig {
            size_bytes: 256,
            assoc: 2,
            line_bytes: 64,
            latency: 1,
        })
    }

    fn hit(c: &mut Cache, addr: u64, now: u64) -> bool {
        match c.access(addr, now) {
            Lookup::Hit { .. } => true,
            Lookup::Miss => {
                c.set_fill_time(addr, now); // instant fill for these tests
                false
            }
        }
    }

    #[test]
    fn geometry() {
        assert_eq!(CacheConfig::paper_l1().num_sets(), 256);
        assert_eq!(CacheConfig::paper_l2().num_sets(), 8192);
        assert_eq!(tiny().config().num_sets(), 2);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!hit(&mut c, 0, 0));
        assert!(hit(&mut c, 0, 1));
        assert!(hit(&mut c, 63, 2), "same line");
        assert!(!hit(&mut c, 64, 3), "next line is a different set");
        let s = c.stats();
        assert_eq!(s.accesses, 4);
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 2);
    }

    #[test]
    fn hit_under_fill_waits_for_the_line() {
        let mut c = tiny();
        assert_eq!(c.access(0, 0), Lookup::Miss);
        c.set_fill_time(0, 500);
        // Second access while the fill is in flight: hit, but not before
        // the fill lands.
        assert_eq!(c.access(32, 10), Lookup::Hit { ready_at: 500 });
        // After the fill, ordinary hit latency applies.
        assert_eq!(c.access(0, 600), Lookup::Hit { ready_at: 601 });
    }

    #[test]
    fn unreported_fill_blocks_forever_until_set() {
        let mut c = tiny();
        assert_eq!(c.access(0, 0), Lookup::Miss);
        // Caller forgot set_fill_time: the line is still "in flight".
        match c.access(0, 1) {
            Lookup::Hit { ready_at } => assert_eq!(ready_at, u64::MAX),
            Lookup::Miss => panic!("line was allocated"),
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        let a = 0u64; // set 0
        let b = 128; // set 0 (line 2)
        let d = 256; // set 0 (line 4)
        assert!(!hit(&mut c, a, 0));
        assert!(!hit(&mut c, b, 1));
        assert!(hit(&mut c, a, 2)); // a now MRU
        assert!(!hit(&mut c, d, 3)); // evicts b (LRU)
        assert!(hit(&mut c, a, 4), "a survived");
        assert!(!hit(&mut c, b, 5), "b was evicted");
    }

    #[test]
    fn probe_does_not_disturb() {
        let mut c = tiny();
        hit(&mut c, 0, 0);
        let stats_before = c.stats();
        assert!(c.probe(0));
        assert!(!c.probe(64));
        assert_eq!(c.stats(), stats_before);
    }

    #[test]
    fn reset_clears() {
        let mut c = tiny();
        hit(&mut c, 0, 0);
        c.reset();
        assert!(!c.probe(0));
        assert_eq!(c.stats().accesses, 0);
    }

    #[test]
    fn same_cycle_accesses_break_ties_deterministically() {
        let mut c1 = tiny();
        let mut c2 = tiny();
        for addr in [0u64, 128, 256, 0, 128, 256] {
            assert_eq!(hit(&mut c1, addr, 0), hit(&mut c2, addr, 0));
        }
        assert_eq!(c1.stats(), c2.stats());
    }

    #[test]
    fn quiesce_makes_in_flight_and_future_lines_ready() {
        let mut c = tiny();
        // Missed but never filled (in flight forever) ...
        assert_eq!(c.access(0, 0), Lookup::Miss);
        // ... and filled far in the future on the old clock.
        assert_eq!(c.access(64, 0), Lookup::Miss);
        c.set_fill_time(64, 1_000_000);
        c.quiesce();
        // The new clock starts at 0: both are plain hits.
        assert_eq!(c.access(0, 0), Lookup::Hit { ready_at: 1 });
        assert_eq!(c.access(64, 0), Lookup::Hit { ready_at: 1 });
        assert_eq!(c.access(32, 7), Lookup::Hit { ready_at: 8 });
    }

    #[test]
    fn fills_after_quiesce_keep_their_time() {
        let mut c = tiny();
        assert_eq!(c.access(0, 0), Lookup::Miss);
        c.set_fill_time(0, 1_000_000);
        c.quiesce();
        // A fill reported after the switch (here: re-reported for the
        // same line) is the line's fill time again.
        c.set_fill_time(0, 500);
        assert_eq!(c.access(0, 10), Lookup::Hit { ready_at: 500 });
        // A miss taken after the switch waits for its fill as usual.
        assert_eq!(c.access(64, 20), Lookup::Miss);
        assert_eq!(c.access(64, 21), Lookup::Hit { ready_at: u64::MAX });
        c.set_fill_time(64, 300);
        assert_eq!(c.access(64, 22), Lookup::Hit { ready_at: 300 });
        // Until the next switch.
        c.quiesce();
        assert_eq!(c.access(0, 3), Lookup::Hit { ready_at: 4 });
        assert_eq!(c.access(64, 3), Lookup::Hit { ready_at: 4 });
    }

    #[test]
    fn quiesce_keeps_stats_and_lru() {
        let mut c = tiny();
        let (a, b, d) = (0u64, 128, 256); // all in set 0
        for (addr, now) in [(a, 0), (b, 1)] {
            assert_eq!(c.access(addr, now), Lookup::Miss);
            c.set_fill_time(addr, 900);
        }
        assert_eq!(c.access(a, 2), Lookup::Hit { ready_at: 900 }); // b is LRU
        let stats = c.stats();
        c.quiesce();
        assert_eq!(c.stats(), stats);
        assert!(c.probe(a) && c.probe(b));
        assert_eq!(c.stats(), stats, "probe counts nothing");
        // Timing is forgotten, recency is not: d evicts b, a stays.
        assert_eq!(c.access(d, 3), Lookup::Miss);
        assert!(c.probe(a) && !c.probe(b));
        assert_eq!(c.access(a, 4), Lookup::Hit { ready_at: 5 });
    }

    #[test]
    fn quiesce_walks_the_lines_when_the_epoch_wraps() {
        let mut c = tiny();
        // Filled in epoch 0, far in the future.
        assert_eq!(c.access(0, 0), Lookup::Miss);
        c.set_fill_time(0, 1_000_000);
        c.set_epoch(u32::MAX);
        // Filled in the last epoch before the wrap.
        assert_eq!(c.access(64, 0), Lookup::Miss);
        c.set_fill_time(64, 1_000_000);
        assert_eq!(
            c.access(64, 1),
            Lookup::Hit {
                ready_at: 1_000_000
            }
        );
        c.quiesce();
        // Back in epoch 0, where line 0's stamp was written 2^32
        // switches ago: only the walk keeps it from reading as current.
        assert_eq!(c.access(0, 5), Lookup::Hit { ready_at: 6 });
        assert_eq!(c.access(64, 5), Lookup::Hit { ready_at: 6 });
    }

    /// Seeded differential test: the epoch cache against a reference
    /// whose quiesce walks every line (the pre-epoch implementation),
    /// over random accesses, fill reports, warms and quiesces on a tiny
    /// cache. Half the seeds jump to a few epochs before the wrap.
    #[test]
    fn epoch_quiesce_matches_a_walking_reference() {
        fn next(state: &mut u64) -> u64 {
            // splitmix64
            *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        let cfg = CacheConfig {
            size_bytes: 512,
            assoc: 2,
            line_bytes: 64,
            latency: 2,
        };
        let mut quiesces = 0;
        for seed in 0..64u64 {
            let mut rng = seed;
            let mut epoch = Cache::new(cfg);
            let mut reference = Cache::new(cfg);
            let mut now = 0u64;
            for step in 0..2_000 {
                if step == 40 && seed % 2 == 1 {
                    // Skip to a few quiesces before the wrap, as if
                    // about 2^32 windows had passed. Lines stamped in
                    // the first few epochs stay behind and read as
                    // current again after the wrap unless it walks
                    // them.
                    epoch.set_epoch(u32::MAX - (seed % 5) as u32);
                    reference.zero_fill_times();
                }
                // 16 lines over 4 sets: plenty of conflict evictions.
                let addr = (next(&mut rng) % 16) * 64 + next(&mut rng) % 64;
                match next(&mut rng) % 16 {
                    0..=8 => {
                        let got = epoch.access(addr, now);
                        let want = reference.access(addr, now);
                        assert_eq!(got, want, "seed {seed} step {step}: access({addr}, {now})");
                    }
                    9..=11 => {
                        let at = now + next(&mut rng) % 400;
                        epoch.set_fill_time(addr, at);
                        reference.set_fill_time(addr, at);
                    }
                    12..=13 => {
                        assert_eq!(
                            epoch.warm(addr),
                            reference.warm(addr),
                            "seed {seed} step {step}"
                        );
                    }
                    14 => {
                        epoch.quiesce();
                        reference.zero_fill_times();
                        quiesces += 1;
                        // The clock restarts, as at a window entry.
                        now = 0;
                    }
                    _ => now += next(&mut rng) % 50,
                }
                now += 1;
            }
            assert_eq!(epoch.stats(), reference.stats(), "seed {seed}");
            if seed % 2 == 1 {
                assert!(epoch.epoch < 1_000, "seed {seed} never wrapped");
            }
        }
        assert!(quiesces > 1_000, "{quiesces} quiesces exercised");
    }

    #[test]
    fn miss_rate_bounds() {
        let mut c = tiny();
        assert_eq!(c.stats().miss_rate(), 0.0);
        hit(&mut c, 0, 0);
        assert_eq!(c.stats().miss_rate(), 1.0);
        hit(&mut c, 0, 1);
        assert_eq!(c.stats().miss_rate(), 0.5);
    }
}
