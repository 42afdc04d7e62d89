//! The benchmark's own generator: SplitMix64. Workload inputs must be a
//! pure function of `--seed`, so the benchmark does not borrow the
//! program's (stubbed) `rand` for the choices it makes itself.

/// SplitMix64 — tiny, seedable, and good enough for drawing lengths,
/// residues and mutation sites.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be > 0.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Derive an independent stream seed from the run seed and a stream tag,
/// so workloads and their sub-generators never share a sequence.
pub fn derive(seed: u64, tag: u64) -> u64 {
    SplitMix64::new(seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}
