//! Hashed multi-query word index for grouped seeding.
//!
//! Per-query seeding scans every database block once *per query* through
//! that query's DFA. The grouped seeding engine inverts the loop: the
//! neighbourhood words of a whole *group* of queries are folded into one
//! hashed word → (query, position) index, and a single pass over the
//! subject stream probes the index instead of a per-query automaton — the
//! Chorus-style amortization (one database pass per query group).
//!
//! Layout follows the device structure the grouped kernel models:
//!
//! * an open-addressing **slot table** (Murmur-style finalizer hash,
//!   power-of-two capacity, linear probing) mapping a word code to a span
//!   of postings — one 8-byte slot per probe on the device;
//! * a flat **postings array** in word-major CSR order. Within a word the
//!   postings are sorted by `(query, qpos)` ascending, so filtering a
//!   word's span to one query yields exactly that query's
//!   [`WordNeighborhood::positions`] list — the invariant that makes the
//!   grouped hit set bit-identical to the per-query DFA scan;
//! * per-query entry counts, the capacity metadata the group scheduler
//!   packs rounds with.
//!
//! Capacity is bounded: the table allocates `2 × distinct words` slots
//! (rounded up to a power of two), keeping the load factor at or below
//! one half so linear probe chains stay short.

use crate::words::{WordNeighborhood, NUM_WORDS};

/// Key of an unoccupied slot.
const EMPTY_KEY: u32 = u32::MAX;

/// Minimum slot-table capacity (keeps tiny groups out of degenerate
/// all-collision tables).
const MIN_CAPACITY: usize = 16;

/// Murmur3 finalizer over a word code — the Chorus hash. Public so the
/// kernel cost model and tests agree on the probe sequence.
#[inline]
pub fn hash_word(code: u32) -> u32 {
    let mut k = code;
    k ^= k >> 16;
    k = k.wrapping_mul(0x85eb_ca6b);
    k ^= k >> 13;
    k = k.wrapping_mul(0xc2b2_ae35);
    k ^= k >> 16;
    k
}

/// One (query, position) posting. `query` is the group-local index of the
/// member; `qpos` the query position the word hits. Both fit 16 bits (the
/// same bound as the packed hit format), so a device posting is 4 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Posting {
    /// Group-local query index.
    pub query: u16,
    /// Query position hit by the word.
    pub qpos: u16,
}

/// Bytes of one posting in the modelled device layout.
pub const POSTING_BYTES: u64 = 4;

/// Bytes of one slot in the modelled device layout (key + packed span).
pub const SLOT_BYTES: u64 = 8;

#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u32,
    offset: u32,
    len: u32,
}

const EMPTY_SLOT: Slot = Slot {
    key: EMPTY_KEY,
    offset: 0,
    len: 0,
};

/// Result of probing the index with a subject word.
#[derive(Debug, Clone, Copy)]
pub struct Probe<'a> {
    /// Postings of the word, sorted by `(query, qpos)`; empty on a miss.
    pub postings: &'a [Posting],
    /// Flat postings offset of the span (device address = base +
    /// `offset × POSTING_BYTES`).
    pub offset: u32,
    /// Home slot of the probe sequence.
    pub home: u32,
    /// Slots examined, including the terminal hit or empty slot (≥ 1) —
    /// the number of slot reads the device pays.
    pub steps: u32,
}

/// The hashed word → (query, position) index of one query group.
#[derive(Debug, Clone)]
pub struct QueryIndex {
    slots: Vec<Slot>,
    postings: Vec<Posting>,
    per_query_entries: Vec<u32>,
    filled: usize,
    mask: u32,
}

impl QueryIndex {
    /// Build the index from the neighbourhoods of a query group, in group
    /// order.
    ///
    /// # Panics
    /// Panics when the group has ≥ 2¹⁶ members or a query position
    /// overflows 16 bits (beyond the packed hit format's own bound).
    pub fn build(group: &[&WordNeighborhood]) -> Self {
        assert!(
            group.len() < u16::MAX as usize,
            "query group of {} members overflows the 16-bit posting field",
            group.len()
        );
        let mut per_query_entries = vec![0u32; group.len()];
        let mut distinct = 0usize;
        for code in 0..NUM_WORDS {
            let mut any = false;
            for n in group {
                let p = n.positions(code);
                any |= !p.is_empty();
            }
            distinct += any as usize;
        }
        let capacity = (distinct * 2).next_power_of_two().max(MIN_CAPACITY);
        let mask = (capacity - 1) as u32;

        let mut slots = vec![EMPTY_SLOT; capacity];
        let mut postings = Vec::new();
        let mut filled = 0usize;
        for code in 0..NUM_WORDS {
            let offset = postings.len() as u32;
            for (q, n) in group.iter().enumerate() {
                for &qpos in n.positions(code) {
                    assert!(
                        qpos <= u16::MAX as u32,
                        "query position {qpos} overflows the 16-bit posting field"
                    );
                    postings.push(Posting {
                        query: q as u16,
                        qpos: qpos as u16,
                    });
                    per_query_entries[q] += 1;
                }
            }
            let len = postings.len() as u32 - offset;
            if len == 0 {
                continue;
            }
            // Linear-probe insertion; keys are unique, so the first empty
            // slot on the chain is ours.
            let mut i = hash_word(code as u32) & mask;
            while slots[i as usize].key != EMPTY_KEY {
                i = (i + 1) & mask;
            }
            slots[i as usize] = Slot {
                key: code as u32,
                offset,
                len,
            };
            filled += 1;
        }

        Self {
            slots,
            postings,
            per_query_entries,
            filled,
            mask,
        }
    }

    /// Probe the index with a subject word code.
    #[inline]
    pub fn probe(&self, code: usize) -> Probe<'_> {
        let home = hash_word(code as u32) & self.mask;
        let mut i = home;
        let mut steps = 1u32;
        loop {
            let slot = self.slots[i as usize];
            if slot.key == code as u32 {
                let lo = slot.offset as usize;
                return Probe {
                    postings: &self.postings[lo..lo + slot.len as usize],
                    offset: slot.offset,
                    home,
                    steps,
                };
            }
            if slot.key == EMPTY_KEY {
                return Probe {
                    postings: &[],
                    offset: 0,
                    home,
                    steps,
                };
            }
            i = (i + 1) & self.mask;
            steps += 1;
        }
    }

    /// Slot-table capacity (a power of two).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Occupied slots (distinct words in the group).
    pub fn filled_slots(&self) -> usize {
        self.filled
    }

    /// Load factor of the slot table.
    pub fn occupancy(&self) -> f64 {
        self.filled as f64 / self.slots.len() as f64
    }

    /// Total (word, query, position) postings.
    pub fn entries(&self) -> usize {
        self.postings.len()
    }

    /// Group size.
    pub fn num_queries(&self) -> usize {
        self.per_query_entries.len()
    }

    /// Postings contributed by group member `q` — the per-query capacity
    /// metadata the round scheduler budgets with.
    pub fn query_entries(&self, q: usize) -> usize {
        self.per_query_entries[q] as usize
    }

    /// Modelled device footprint of the index in bytes (slot table +
    /// postings).
    pub fn device_bytes(&self) -> u64 {
        self.slots.len() as u64 * SLOT_BYTES + self.postings.len() as u64 * POSTING_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use bio_seq::generate::make_query;
    use bio_seq::Sequence;

    fn hood(len: usize, t: i32) -> WordNeighborhood {
        WordNeighborhood::build(&make_query(len), &Matrix::blosum62(), t)
    }

    #[test]
    fn probe_reproduces_each_members_neighborhood() {
        let hoods = [hood(48, 11), hood(64, 11), hood(80, 12)];
        let group: Vec<&WordNeighborhood> = hoods.iter().collect();
        let idx = QueryIndex::build(&group);
        for code in 0..NUM_WORDS {
            let probe = idx.probe(code);
            for (q, n) in group.iter().enumerate() {
                let got: Vec<u32> = probe
                    .postings
                    .iter()
                    .filter(|p| p.query as usize == q)
                    .map(|p| p.qpos as u32)
                    .collect();
                assert_eq!(got, n.positions(code), "code {code} query {q}");
            }
        }
    }

    #[test]
    fn postings_sorted_by_query_then_position() {
        let hoods = [hood(40, 11), hood(40, 11)];
        let group: Vec<&WordNeighborhood> = hoods.iter().collect();
        let idx = QueryIndex::build(&group);
        for code in 0..NUM_WORDS {
            let p = idx.probe(code).postings;
            assert!(p.windows(2).all(|w| w[0] < w[1]), "code {code}: {p:?}");
        }
    }

    #[test]
    fn entries_and_metadata_match_neighborhood_sizes() {
        let hoods = [hood(48, 11), hood(96, 11)];
        let group: Vec<&WordNeighborhood> = hoods.iter().collect();
        let idx = QueryIndex::build(&group);
        assert_eq!(idx.num_queries(), 2);
        assert_eq!(idx.query_entries(0), group[0].total_entries());
        assert_eq!(idx.query_entries(1), group[1].total_entries());
        assert_eq!(
            idx.entries(),
            group[0].total_entries() + group[1].total_entries()
        );
        assert_eq!(
            idx.device_bytes(),
            idx.capacity() as u64 * SLOT_BYTES + idx.entries() as u64 * POSTING_BYTES
        );
    }

    #[test]
    fn load_factor_stays_at_or_below_half() {
        for len in [16, 48, 127, 300] {
            let h = hood(len, 11);
            let idx = QueryIndex::build(&[&h]);
            assert!(
                idx.occupancy() <= 0.5,
                "len {len}: occupancy {}",
                idx.occupancy()
            );
            assert!(idx.capacity().is_power_of_two());
        }
    }

    #[test]
    fn missing_words_probe_to_empty() {
        let h = hood(32, 11);
        let idx = QueryIndex::build(&[&h]);
        let mut misses = 0;
        for code in 0..NUM_WORDS {
            if h.positions(code).is_empty() {
                let p = idx.probe(code);
                assert!(p.postings.is_empty());
                assert!(p.steps >= 1);
                misses += 1;
            }
        }
        assert!(misses > 0);
    }

    #[test]
    fn empty_group_and_empty_query() {
        let idx = QueryIndex::build(&[]);
        assert_eq!(idx.entries(), 0);
        assert_eq!(idx.num_queries(), 0);
        assert!(idx.probe(0).postings.is_empty());

        let empty =
            WordNeighborhood::build(&Sequence::from_bytes("q", b"AR"), &Matrix::blosum62(), 11);
        let idx = QueryIndex::build(&[&empty]);
        assert_eq!(idx.entries(), 0);
        assert_eq!(idx.filled_slots(), 0);
    }

    #[test]
    fn probe_steps_count_the_chain() {
        // With a half-full table collisions exist but chains terminate;
        // every probe visits at least its home slot.
        let hoods = [hood(127, 10), hood(96, 10)];
        let group: Vec<&WordNeighborhood> = hoods.iter().collect();
        let idx = QueryIndex::build(&group);
        let mut max_steps = 0;
        for code in 0..NUM_WORDS {
            let p = idx.probe(code);
            assert!(p.steps >= 1);
            assert!(p.steps as usize <= idx.capacity());
            max_steps = max_steps.max(p.steps);
        }
        assert!(max_steps >= 1);
    }

    #[test]
    fn hash_scatters_adjacent_codes() {
        // Neighbouring word codes must not map to neighbouring slots, or
        // the probe traffic would be artificially coalesced.
        let distinct: std::collections::HashSet<u32> =
            (0..64u32).map(|c| hash_word(c) & 1023).collect();
        assert!(distinct.len() > 48, "hash clusters: {}", distinct.len());
    }
}
