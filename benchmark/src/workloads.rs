//! Workload generator: every input the program sees is made here, from
//! `--seed` alone. The same seed gives byte-identical FASTA / `.cdb`
//! bytes; a different seed gives other residues everywhere — other
//! background sequences, other trims, offsets and mutations of every
//! query and homolog.
//!
//! What the seed does *not* move is each workload's shape: counts, the
//! multiset of sequence lengths, the base proteins the queries are
//! variants of, and how much of its query every homolog covers. The
//! contract compares runs at *different* seeds, so seed-to-seed variance
//! of the work is noise in every metric. Ten seeds of inputs drawn freely
//! (`bio_seq::generate::generate_db`: log-normal lengths, a coin per
//! subject for planting, 30–90 % coverage) moved the host time of
//! `align_stream` by 9–14 % (interquartile) and its modelled device time
//! by 5 %, while ten runs at one seed agreed within 2 %.
//!
//! Databases are built per query and concatenated, so *every* query has
//! planted homologs (the existing `crates/bench` workloads plant for the
//! first query only).

use crate::rng::{derive, SplitMix64};
use bio_seq::alphabet::{Residue, ROBINSON_FREQS};
use bio_seq::{Sequence, SequenceDb};
use cublastp::{GappedBackend, SeedMode};

/// How a workload drives the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `search_batch_with` over a FASTA-loaded database.
    FlatBatch {
        seed_mode: SeedMode,
        gapped: GappedBackend,
    },
    /// `search_sharded_batch` over a `.cdbset` opened from disk.
    ShardedBatch { devices: usize },
    /// Open loop through `cublastp_serve::Server` over a `.cdb` image.
    Served,
}

/// One of the six workloads: its name, why it exists, and how it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadDef {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` and the printed header.
    pub why: &'static str,
    pub driver: Driver,
}

pub const SCAN_STREAM: &str = "scan_stream";
pub const ALIGN_STREAM: &str = "align_stream";
pub const ALIGN_DEVICE: &str = "align_device";
pub const GROUPED_SHORT: &str = "grouped_short";
pub const SHARDED_SKEW: &str = "sharded_skew";
pub const SERVED_MIX: &str = "served_mix";

/// The workloads, in the order the suite runs them.
pub const WORKLOADS: [WorkloadDef; 6] = [
    // Loads: binning + reorder + extension on gpu-sim (≈ 90 % of host
    // time). Bypasses: grouped seeding, device gapped; the CPU gapped
    // layer is almost idle — simulator/hit-path work shows here and
    // gapped work must not.
    WorkloadDef {
        name: SCAN_STREAM,
        why: "8 paper-length queries vs 768 env_nr-shaped FASTA sequences with few homologs: the simulated hit path dominates, gapped work is idle",
        driver: Driver::FlatBatch {
            seed_mode: SeedMode::PerQuery,
            gapped: GappedBackend::Cpu,
        },
    },
    // Loads: blast-cpu gapped extension + traceback (every subject aligns
    // to every query). The inverse of scan_stream: a hit-path gain must
    // be small here, a gapped/traceback gain large.
    WorkloadDef {
        name: ALIGN_STREAM,
        why: "8 variants of one 1054-residue protein vs a 64-sequence family DB: CPU gapped extension and traceback dominate",
        driver: Driver::FlatBatch {
            seed_mode: SeedMode::PerQuery,
            gapped: GappedBackend::Cpu,
        },
    },
    // Same inputs as align_stream, other placement of the gapped layer:
    // gapped_device kernel + alignment D2H payload instead of blast-cpu.
    // A gain for one placement that costs the other shows as a pair.
    WorkloadDef {
        name: ALIGN_DEVICE,
        why: "align_stream inputs with GappedBackend::Gpu: the device gapped kernel and its D2H payload replace the CPU tail",
        driver: Driver::FlatBatch {
            seed_mode: SeedMode::PerQuery,
            gapped: GappedBackend::Gpu,
        },
    },
    // The only workload that runs grouped_seeding_kernel, QueryIndex build
    // and plan_rounds; per-query binning_kernel is bypassed.
    WorkloadDef {
        name: GROUPED_SHORT,
        why: "32 short queries with SeedMode::Grouped: the only user of the grouped seeding kernel, query index and round planner",
        driver: Driver::FlatBatch {
            seed_mode: SeedMode::Grouped,
            gapped: GappedBackend::Cpu,
        },
    },
    // The many-against-many load-imbalance regime: heavy-tailed query
    // lengths × skewed shard sizes give (query × shard) items whose costs
    // span 40:1. Exercises shard, scheduler and cublastp-db shard sets,
    // which no other batch workload touches. (The seed commit's schedule
    // absorbs the skew with hardly a steal; see README.)
    WorkloadDef {
        name: SHARDED_SKEW,
        why: "16 heavy-tailed queries vs a 60/20/10/10 % 4-shard .cdbset on 4 modelled devices: skewed items for the fleet schedule",
        driver: Driver::ShardedBatch { devices: 4 },
    },
    // The same search core used as a service: many small concurrent
    // requests under hooks, cancellation and admission, not a batch.
    WorkloadDef {
        name: SERVED_MIX,
        why: "open-loop interactive + bulk requests through the server at two fixed absolute rates: request latency and capacity, not batch throughput",
        driver: Driver::Served,
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Generated inputs of one workload.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub def: &'static WorkloadDef,
    /// Batch queries, or the interactive query pool of `served_mix`.
    pub queries: Vec<Sequence>,
    /// The bulk short-read pool (`served_mix` only).
    pub bulk_queries: Vec<Sequence>,
    pub db: SequenceDb,
    /// First global sequence index of shards 1.. (`sharded_skew` only).
    pub shard_boundaries: Vec<usize>,
    /// Sequences per database block (`CuBlastpConfig::db_block_size`).
    pub block_size: usize,
}

/// Inverse-CDF sampler over the Robinson–Robinson background.
struct Background([f64; 20]);

impl Background {
    fn new() -> Self {
        let mut cdf = [0.0; 20];
        let mut acc = 0.0;
        for (c, p) in cdf.iter_mut().zip(ROBINSON_FREQS) {
            acc += p;
            *c = acc;
        }
        cdf[19] = 1.0;
        Self(cdf)
    }

    fn residue(&self, rng: &mut SplitMix64) -> Residue {
        let u = rng.unit();
        self.0.partition_point(|&c| c < u).min(19) as Residue
    }

    fn other_than(&self, rng: &mut SplitMix64, r: Residue) -> Residue {
        loop {
            let s = self.residue(rng);
            if s != r {
                return s;
            }
        }
    }

    fn protein(&self, rng: &mut SplitMix64, len: usize) -> Vec<Residue> {
        (0..len).map(|_| self.residue(rng)).collect()
    }
}

fn named(id: String, description: &str, residues: Vec<Residue>) -> Sequence {
    let mut s = Sequence::from_residues(id, residues);
    s.description = description.to_string();
    s
}

/// Seed of the base proteins. It is a constant: `--seed` decides how each
/// base is trimmed and mutated, not what it is.
const BASE_SEED: u64 = 0x5EED_BA5E;

/// The `tag`-th base protein of length `len`, the same at every seed.
pub fn base_protein(tag: u64, len: usize) -> Vec<Residue> {
    Background::new().protein(&mut SplitMix64::new(derive(BASE_SEED, tag)), len)
}

/// Query lengths around `centres`, jittered by up to ±`jitter`
/// *antithetically*: neighbours come in pairs `a·(1+j)`, `b·(1−j)`, so
/// the total length — and with it the work of a pass — barely moves with
/// the seed while the individual lengths do.
pub fn paired_lengths(rng: &mut SplitMix64, centres: &[usize], jitter: f64) -> Vec<usize> {
    let mut out: Vec<f64> = centres.iter().map(|&c| c as f64).collect();
    for pair in out.chunks_mut(2) {
        let j = (rng.unit() * 2.0 - 1.0) * jitter;
        pair[0] *= 1.0 + j;
        if let Some(b) = pair.get_mut(1) {
            *b *= 1.0 - j;
        }
    }
    out.into_iter().map(|x| x.round() as usize).collect()
}

/// `n` lengths from a bounded Pareto (shape `alpha`) on `[lo, hi]`: the
/// midpoint quantile of each of `n` equal-probability strata — the same
/// heavy-tailed mix (many short, a few very long) whatever the seed. A
/// free draw from the tail would move the work of a pass by tens of
/// percent between seeds.
pub fn heavy_tailed_lengths(n: usize, lo: usize, hi: usize, alpha: f64) -> Vec<usize> {
    let (l, h) = (lo as f64, hi as f64);
    let ratio = (l / h).powf(alpha);
    (0..n)
        .map(|i| {
            let u = (i as f64 + 0.5) / n as f64;
            let x = l / (1.0 - u * (1.0 - ratio)).powf(1.0 / alpha);
            (x.round() as usize).clamp(lo, hi)
        })
        .collect()
}

/// A family variant of `base`: trimmed at both ends, point-mutated at
/// `mutation_rate`, with a few short indels — a homolog that still aligns
/// over most of its length.
pub fn family_variant(
    rng: &mut SplitMix64,
    base: &[Residue],
    trim_left: usize,
    trim_right: usize,
    mutation_rate: f64,
) -> Vec<Residue> {
    let bg = Background::new();
    let core = &base[trim_left.min(base.len())..base.len().saturating_sub(trim_right)];
    let mut out: Vec<Residue> = core
        .iter()
        .map(|&r| {
            if rng.unit() < mutation_rate {
                bg.other_than(rng, r)
            } else {
                r
            }
        })
        .collect();
    for _ in 0..3 {
        if out.len() < 40 {
            break;
        }
        let pos = 10 + rng.below(out.len() - 20);
        let len = 1 + rng.below(3);
        if rng.unit() < 0.5 {
            for _ in 0..len {
                out.insert(pos, bg.residue(rng));
            }
        } else {
            out.drain(pos..pos + len);
        }
    }
    out
}

/// `n` log-normal sequence lengths around `mean` (σ of the underlying
/// normal 0.45, as `bio_seq::generate` draws them), drawn once from a
/// constant: the same multiset at every seed.
pub fn subject_lengths(tag: u64, n: usize, mean: usize) -> Vec<usize> {
    const SIGMA: f64 = 0.45;
    let mu = (mean as f64).ln() - SIGMA * SIGMA / 2.0;
    let mut rng = SplitMix64::new(derive(BASE_SEED, tag));
    (0..n)
        .map(|_| {
            let (u1, u2) = (rng.unit().max(1e-12), rng.unit());
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            ((mu + SIGMA * z).exp().round() as usize).max(8)
        })
        .collect()
}

/// Mutation rate of a planted homolog against what it was copied from
/// (`bio_seq::generate` plants at the same ~60 % identity).
const HOMOLOG_MUTATION_RATE: f64 = 0.4;

/// The database of a workload: per query, `per_query - homologs`
/// background sequences (Robinson–Robinson residues), then `homologs`
/// sequences that carry a homolog of it; concatenated in query order.
///
/// A homolog is a window of the query — `coverage` of its length, at a
/// seed-chosen offset inside its own stratum of the query — mutated and
/// given a few indels like a family member, between two background flanks. The lengths are those of
/// [`subject_lengths`], the background's in seed-chosen order (a homolog
/// subject too short for its window is as long as the window plus flanks).
pub fn planted_db(
    name: &'static str,
    rng: &mut SplitMix64,
    queries: &[Sequence],
    per_query: usize,
    homologs: usize,
    coverage: f64,
    mean_length: usize,
) -> SequenceDb {
    let bg = Background::new();
    let mut all = Vec::with_capacity(per_query * queries.len());
    for (qi, q) in queries.iter().enumerate() {
        let background = per_query.saturating_sub(homologs);
        let mut lengths = subject_lengths(qi as u64, per_query, mean_length);
        rng.shuffle(&mut lengths[..background]);
        let window = ((q.len() as f64 * coverage).round() as usize).min(q.len());
        for (i, len) in lengths.into_iter().enumerate() {
            let mut residues = if i < background {
                bg.protein(rng, len)
            } else {
                // One window per stratum of the possible offsets, so the
                // homologs of a query cover it evenly at every seed.
                let stratum = (i - background) as f64 + rng.unit();
                let offset = (stratum / homologs as f64 * (q.len() - window + 1) as f64) as usize;
                let homolog = family_variant(
                    rng,
                    &q.residues()[offset..offset + window],
                    0,
                    0,
                    HOMOLOG_MUTATION_RATE,
                );
                let flanks = len.max(homolog.len() + 16) - homolog.len();
                let mut r = bg.protein(rng, flanks / 2);
                r.extend(homolog);
                r.extend(bg.protein(rng, flanks - flanks / 2));
                r
            };
            residues.shrink_to_fit();
            let mut s = Sequence::from_residues(format!("{name}_{:06}", all.len()), residues);
            if i >= background {
                s.description = format!("planted homolog of {}", q.id);
            }
            all.push(s);
        }
    }
    SequenceDb::new(name, all)
}

/// Shard boundaries (first global index of shards 1..) splitting `n`
/// sequences by `shares` (which should sum to 1).
pub fn skewed_boundaries(n: usize, shares: &[f64]) -> Vec<usize> {
    let mut acc = 0.0;
    shares[..shares.len() - 1]
        .iter()
        .map(|s| {
            acc += s;
            ((n as f64 * acc).round() as usize).min(n)
        })
        .collect()
}

/// Shard shares of `sharded_skew`: one long shard and three short ones.
pub const SHARD_SHARES: [f64; 4] = [0.6, 0.2, 0.1, 0.1];

fn scale(n: usize, smoke: bool) -> usize {
    if smoke {
        (n / 16).max(4)
    } else {
        n
    }
}

/// Mutation rate of query variants outside the family workloads: enough
/// that no two seeds share a query, little enough that the word
/// neighbourhood — and so the hit count — stays that of the base.
const QUERY_MUTATION_RATE: f64 = 0.04;

/// One query per centre: base protein `tag + i`, trimmed to a length
/// jittered around the centre (see [`paired_lengths`]) at a seed-chosen
/// offset, then point-mutated.
fn variant_queries(
    rng: &mut SplitMix64,
    tag: u64,
    prefix: &str,
    description: &str,
    centres: &[usize],
    jitter: f64,
) -> Vec<Sequence> {
    let lengths = paired_lengths(rng, centres, jitter);
    centres
        .iter()
        .zip(lengths)
        .enumerate()
        .map(|(i, (&centre, len))| {
            let base_len = (centre as f64 * (1.0 + jitter)).ceil() as usize;
            let base = base_protein(tag + i as u64, base_len);
            let trim = base_len.saturating_sub(len);
            let left = rng.below(trim + 1);
            let v = family_variant(rng, &base, left, trim - left, QUERY_MUTATION_RATE);
            named(format!("{prefix}{i:02}_{}", v.len()), description, v)
        })
        .collect()
}

/// Share of its query a planted homolog covers outside the family
/// workloads (`bio_seq::generate` plants 30–90 %; this is the middle).
const HOMOLOG_COVERAGE: f64 = 0.6;

/// Generate the inputs of `def` from `seed`. `smoke` shrinks databases
/// (and the larger query sets) so the whole suite runs in seconds.
pub fn generate(def: &'static WorkloadDef, seed: u64, smoke: bool) -> Inputs {
    let mut rng = SplitMix64::new(derive(seed, 0xC0FFEE));
    let mut db_rng = SplitMix64::new(derive(seed, 0xDB));
    let mut inputs = Inputs {
        def,
        queries: Vec::new(),
        bulk_queries: Vec::new(),
        db: SequenceDb::new(def.name, Vec::new()),
        shard_boundaries: Vec::new(),
        block_size: 128,
    };
    match def.name {
        SCAN_STREAM => {
            // Lengths around the paper's 127 / 517 / 1054 (§4), two of
            // each plus a second medium pair; 768 env_nr-shaped subjects
            // in six blocks, three homologs per query.
            let centres = [127, 127, 517, 517, 1054, 1054, 517, 517];
            inputs.queries = variant_queries(
                &mut rng,
                0x100,
                "scanq",
                "scan_stream query",
                &centres,
                0.04,
            );
            inputs.db = planted_db(
                "envnr",
                &mut db_rng,
                &inputs.queries,
                scale(96, smoke),
                3,
                HOMOLOG_COVERAGE,
                200,
            );
        }
        ALIGN_STREAM | ALIGN_DEVICE => {
            // Both align workloads draw from the same stream, so at one
            // seed they see identical inputs. Every one of the 64 family
            // members carries a 400-residue window of the base, so every
            // subject aligns to every query over about as much.
            let base = base_protein(0x200, 1054);
            let trims = paired_lengths(&mut rng, &[40; 16], 0.9);
            inputs.queries = (0..8)
                .map(|i| {
                    let v = family_variant(&mut rng, &base, trims[2 * i], trims[2 * i + 1], 0.2);
                    named(format!("famq{i:02}_{}", v.len()), "family variant", v)
                })
                .collect();
            let base_seq = named("fambase".to_string(), "family base", base);
            inputs.db = planted_db(
                "family",
                &mut db_rng,
                std::slice::from_ref(&base_seq),
                scale(64, smoke),
                scale(64, smoke),
                400.0 / 1054.0,
                450,
            );
            inputs.block_size = 16;
        }
        GROUPED_SHORT => {
            let n = if smoke { 8 } else { 32 };
            let centres: Vec<usize> = (0..n).map(|i| 64 + (2 * i + 1) * 48 / n).collect();
            inputs.queries = variant_queries(&mut rng, 0x300, "read", "short read", &centres, 0.05);
            rng.shuffle(&mut inputs.queries);
            inputs.db = planted_db(
                "envnr",
                &mut db_rng,
                &inputs.queries,
                scale(768, smoke) / n,
                1,
                HOMOLOG_COVERAGE,
                200,
            );
        }
        SHARDED_SKEW => {
            let n = if smoke { 6 } else { 16 };
            let centres = heavy_tailed_lengths(n, 80, 1300, 1.1);
            inputs.queries =
                variant_queries(&mut rng, 0x400, "mmq", "heavy-tailed query", &centres, 0.04);
            rng.shuffle(&mut inputs.queries);
            inputs.db = planted_db(
                "mm",
                &mut db_rng,
                &inputs.queries,
                scale(512, smoke) / n,
                2,
                HOMOLOG_COVERAGE,
                250,
            );
            inputs.shard_boundaries = skewed_boundaries(inputs.db.len(), &SHARD_SHARES);
            inputs.block_size = 64;
        }
        SERVED_MIX => {
            // Four interactive lengths a factor 2.3 apart, so the median and
            // the 90th percentile over them are different queries. Four of
            // them and fourteen bulk reads, seven to an interactive query,
            // make the arrival schedule repeat every 32 requests
            // (`served::period`): some fifty repetitions at `r_mid`.
            let centres = [300, 400, 500, 700];
            inputs.queries =
                variant_queries(&mut rng, 0x500, "iq", "interactive query", &centres, 0.05);
            inputs.bulk_queries =
                variant_queries(&mut rng, 0x600, "bq", "bulk short read", &[80; 14], 0.05);
            inputs.db = planted_db(
                "svc",
                &mut db_rng,
                &inputs.queries,
                scale(160, smoke) / 4,
                2,
                HOMOLOG_COVERAGE,
                200,
            );
        }
        other => unreachable!("workload {other} is not in WORKLOADS"),
    }
    inputs
}

/// FASTA text of the database, as `scan_stream` and friends load it.
pub fn db_fasta(inputs: &Inputs) -> String {
    bio_seq::fasta::to_fasta(inputs.db.sequences(), 60)
}
