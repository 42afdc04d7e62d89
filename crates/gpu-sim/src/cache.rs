//! Model of the Kepler 48 kB read-only data cache.
//!
//! §3.5 of the paper routes the DFA's query-position lists through this
//! cache (`const __restrict__` loads): the lists are reused heavily across
//! words but accessed irregularly, which the read-only cache tolerates
//! thanks to its relaxed coalescing rules. The model is a set-associative
//! LRU cache over 128-byte lines; hit/miss counts feed Fig. 17.

use crate::device::TRANSACTION_BYTES;

/// One way of a set: the cached line and when it was last touched.
#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    /// Value of the cache's access clock at the last touch; 0 = never
    /// (an empty way is therefore always the least recently used).
    touched: u64,
}

/// An empty way: a tag no line has (`u64::MAX / 128` is the largest).
const EMPTY_WAY: Way = Way {
    tag: u64::MAX,
    touched: 0,
};

/// Set-associative LRU cache over 128-byte lines.
///
/// Ways live in one flat array (`num_sets × ways`, a few kilobytes for
/// the Kepler configuration) and carry a last-touched stamp instead of
/// being kept in recency order — probed once per distinct line of every
/// read-only access, so a probe is one pass over the set that finds the
/// matching way and the least recently used one together, and a touch is
/// a single store.
#[derive(Debug, Clone)]
pub struct ReadOnlyCache {
    sets: Vec<Way>,
    ways: usize,
    num_sets: usize,
    clock: u64,
}

impl ReadOnlyCache {
    /// Build a cache of `size_bytes` capacity with `ways`-way
    /// associativity.
    pub fn new(size_bytes: u32, ways: usize) -> Self {
        let lines = (size_bytes as u64 / TRANSACTION_BYTES).max(1) as usize;
        let ways = ways.clamp(1, lines);
        let num_sets = (lines / ways).max(1);
        Self {
            sets: vec![EMPTY_WAY; num_sets * ways],
            ways,
            num_sets,
            clock: 0,
        }
    }

    /// Kepler's 48 kB read-only cache, modelled 4-way associative.
    pub fn kepler() -> Self {
        Self::new(48 * 1024, 4)
    }

    /// Access a byte address; returns `true` on hit. Misses install the
    /// line, evicting LRU.
    pub fn access(&mut self, addr: u64) -> bool {
        self.access_line(addr / TRANSACTION_BYTES)
    }

    /// [`Self::access`] by line number (`addr / 128`).
    #[inline]
    pub(crate) fn access_line(&mut self, line: u64) -> bool {
        let set = (line as usize) % self.num_sets;
        let entries = &mut self.sets[set * self.ways..(set + 1) * self.ways];
        let mut found = usize::MAX;
        let mut lru = 0usize;
        let mut oldest = u64::MAX;
        for (w, way) in entries.iter().enumerate() {
            found = if way.tag == line { w } else { found };
            lru = if way.touched < oldest { w } else { lru };
            oldest = oldest.min(way.touched);
        }
        let hit = found != usize::MAX;
        self.clock += 1;
        entries[if hit { found } else { lru }] = Way {
            tag: line,
            touched: self.clock,
        };
        hit
    }

    /// Drop all cached lines.
    pub fn clear(&mut self) {
        self.sets.fill(EMPTY_WAY);
    }

    /// Cache capacity in lines.
    pub fn capacity_lines(&self) -> usize {
        self.num_sets * self.ways
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kepler_capacity() {
        let c = ReadOnlyCache::kepler();
        assert_eq!(c.capacity_lines(), 384); // 48 kB / 128 B
    }

    #[test]
    fn repeat_access_hits() {
        let mut c = ReadOnlyCache::new(1024, 2);
        assert!(!c.access(0));
        assert!(c.access(64)); // same 128-byte line
        assert!(c.access(0));
    }

    #[test]
    fn lru_eviction_within_set() {
        // 2 ways, force three lines into the same set.
        let mut c = ReadOnlyCache::new(512, 2); // 4 lines, 2 sets
        let stride = 2 * TRANSACTION_BYTES; // same set every time
        assert!(!c.access(0));
        assert!(!c.access(stride));
        assert!(!c.access(2 * stride)); // evicts line 0
        assert!(!c.access(0), "line 0 must have been evicted");
        assert!(c.access(2 * stride));
    }

    #[test]
    fn mru_refresh_prevents_eviction() {
        let mut c = ReadOnlyCache::new(512, 2);
        let stride = 2 * TRANSACTION_BYTES;
        c.access(0);
        c.access(stride);
        c.access(0); // refresh line 0 to MRU
        c.access(2 * stride); // should evict `stride`, not 0
        assert!(c.access(0));
        assert!(!c.access(stride));
    }

    #[test]
    fn clear_empties() {
        let mut c = ReadOnlyCache::new(1024, 2);
        c.access(0);
        c.clear();
        assert!(!c.access(0));
    }

    #[test]
    fn agrees_with_a_recency_list_per_set() {
        use std::collections::VecDeque;
        // The textbook model: one recency-ordered list per set.
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for ways in [1usize, 2, 4] {
            let mut cache = ReadOnlyCache::new(2048, ways); // 16 lines
            let num_sets = cache.capacity_lines() / ways;
            let mut model: Vec<VecDeque<u64>> = vec![VecDeque::new(); num_sets];
            for step in 0..10_000 {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // 48 lines over 16 slots: hits, evictions and re-fetches.
                let addr = (rng >> 33) % (48 * TRANSACTION_BYTES);
                let line = addr / TRANSACTION_BYTES;
                let set = &mut model[line as usize % num_sets];
                let want = match set.iter().position(|&l| l == line) {
                    Some(pos) => {
                        set.remove(pos);
                        true
                    }
                    None => {
                        if set.len() == ways {
                            set.pop_front();
                        }
                        false
                    }
                };
                set.push_back(line);
                assert_eq!(cache.access(addr), want, "{ways}-way, access {step}");
            }
        }
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = ReadOnlyCache::new(1024, 2); // 8 lines
                                                 // Touch 64 distinct lines twice; second pass must still miss a lot.
        let mut second_pass_hits = 0;
        for pass in 0..2 {
            for i in 0..64u64 {
                if c.access(i * TRANSACTION_BYTES) && pass == 1 {
                    second_pass_hits += 1;
                }
            }
        }
        assert_eq!(second_pass_hits, 0, "8-line cache cannot hold 64 lines");
    }
}
