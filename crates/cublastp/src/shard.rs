//! The sharded multi-device engine (DESIGN.md §3.10): the paper's §6
//! future work — scale-out for very large databases — as plans over the
//! search executor.
//!
//! A database is cut into contiguous [`DbShard`]s (mpiBLAST-style
//! segmentation) by one routine: an in-memory database's sequences move
//! into their shards and each shard is flattened once, while each shard of
//! a `.cdb` image is a zero-copy view of its sequence range in the one
//! mapping. A batch's (query-group × shard) work items are distributed
//! across N simulated devices by the fleet schedule in
//! [`crate::scheduler`]; a single query searches its shards one after
//! another and schedules no fleet.
//!
//! Statistical identity is the load-bearing contract: every searcher is
//! built with [`CuBlastp::with_db_stats`] over the *global* database's
//! residue and sequence totals, so Karlin–Altschul cutoffs and E-values
//! match a single-database run exactly even though each search only ever
//! touches a shard-local [`SequenceDb`]. Shard-local subject indices are
//! remapped by the shard's global start offset and the merged report is
//! re-ranked with the same `finalize` the single path uses — the merged
//! output is bit-identical at every shard count, which the differential
//! lattice (`lattice.rs`, the `equivalence` CI job) holds at every layout
//! and source.
//!
//! [`search_all_vs_all`] drives the many-against-many workload (PASTIS's
//! problem shape): above-threshold pairs land in a CSR
//! [`SparseSimMatrix`], best HSP per (query, subject) pair.

use crate::config::CuBlastpConfig;
use crate::devicedata::DeviceDb;
use crate::error::SearchError;
use crate::executor::{execute, Plan, ShardView};
use crate::scheduler::{schedule_fleet, FleetSchedule, DEFAULT_STEAL_SEED};
use crate::search::{CuBlastp, CuBlastpResult, SearchHooks};
use bio_seq::{Sequence, SequenceDb};
use blast_core::SearchParams;
use blast_cpu::report::SearchReport;
use cublastp_db::{even_split, DbImage};
use gpu_sim::{DeviceConfig, FaultInjector};
use std::ops::Range;
use std::sync::Arc;

/// One contiguous database shard with its resident device copy.
pub struct DbShard {
    /// Shard index within the [`ShardedDb`].
    pub index: usize,
    /// Global database index of the shard's first sequence — the offset
    /// added to every shard-local subject index at merge time.
    pub start: usize,
    /// The shard-local database the searches run against.
    pub db: SequenceDb,
    /// The shard flattened into device layout, shared by every query.
    pub dev: Arc<DeviceDb>,
}

impl DbShard {
    /// Sequences in the shard.
    pub fn len(&self) -> usize {
        self.db.len()
    }

    /// True for a shard holding no sequences (a ragged split's tail).
    pub fn is_empty(&self) -> bool {
        self.db.len() == 0
    }
}

/// Where a database arrives from: what [`ShardedDb::open`] makes resident.
pub enum DbSource<'a> {
    /// An in-memory database (parsed FASTA, a generated corpus).
    Inline(SequenceDb),
    /// One validated `.cdb` image.
    Image(&'a DbImage),
    /// A shard set: per-shard images in global database order (what
    /// `ShardSetManifest::open_images` returns) and the database's name.
    Set {
        /// Database name (the manifest's).
        name: &'a str,
        /// One image per shard.
        images: &'a [DbImage],
    },
    /// An already-open handle, passed through as stored — how a front
    /// end that opened the database hands it to another (the CLI to the
    /// server).
    Open(ShardedDb),
}

impl From<SequenceDb> for DbSource<'_> {
    fn from(db: SequenceDb) -> Self {
        Self::Inline(db)
    }
}

impl<'a> From<&'a DbImage> for DbSource<'a> {
    fn from(img: &'a DbImage) -> Self {
        Self::Image(img)
    }
}

impl From<ShardedDb> for DbSource<'_> {
    fn from(db: ShardedDb) -> Self {
        Self::Open(db)
    }
}

impl DbSource<'_> {
    /// Stable lowercase name of the source kind, for metrics labels.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Inline(_) => "inline",
            Self::Image(_) => "image",
            Self::Set { .. } => "set",
            Self::Open(_) => "open",
        }
    }

    /// Sequences in the source.
    fn len(&self) -> usize {
        match self {
            Self::Inline(db) => db.len(),
            Self::Image(img) => img.num_sequences(),
            Self::Set { images, .. } => images.iter().map(DbImage::num_sequences).sum(),
            Self::Open(db) => db.total_sequences(),
        }
    }
}

/// What a cut reads its shards from.
enum Whole<'a> {
    /// An in-memory database, whose sequences move into their shards.
    Owned(SequenceDb),
    /// A mapped image, whose shards are views of its sequence ranges.
    Image(&'a DbImage),
}

/// Sequences `seqs` of `img` as shard `name`: a zero-copy device view
/// ([`DeviceDb::from_image`]), the host sequences read out of it once.
fn mapped(img: &DbImage, seqs: Range<usize>, name: String) -> (SequenceDb, Arc<DeviceDb>) {
    let host = SequenceDb::new(name, seqs.clone().map(|i| img.sequence(i)).collect());
    (host, Arc::new(DeviceDb::from_image(img, seqs)))
}

/// The `.cdb` file(s) a [`ShardedDb`] was opened from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageOrigin {
    /// The image's source label (its path), or the set's name and size.
    pub label: String,
    /// On-disk format version of the image(s).
    pub format_version: u32,
    /// Device blocks the image(s) store (re-partitioning one image into
    /// more shards makes more resident blocks than this).
    pub blocks: usize,
}

/// `Err` when a caller asks for a layout (`asked`) other than the one the
/// file behind `origin` stores.
fn agree(
    what: &str,
    asked: Option<usize>,
    stored: usize,
    origin: Option<&ImageOrigin>,
) -> Result<(), SearchError> {
    match asked {
        Some(asked) if asked != stored => Err(SearchError::config(format!(
            "{what} {asked} contradicts {}, which stores {what} {stored}",
            origin.map_or("the open database", |o| &o.label),
        ))),
        _ => Ok(()),
    }
}

/// The resident-database handle: a database partitioned across shards —
/// a flat database is the one-shard case — with global statistics
/// retained for cross-shard Karlin–Altschul correction. Every front end
/// gets one through [`ShardedDb::open`].
pub struct ShardedDb {
    name: String,
    shards: Vec<DbShard>,
    block_size: usize,
    total_sequences: usize,
    total_residues: usize,
    origin: Option<ImageOrigin>,
}

impl ShardedDb {
    /// Make `source` resident — the one source → handle step (DESIGN.md
    /// §3.12). An inline database or an image is cut evenly into
    /// `shards` shards ([`even_split`]; see [`Self::from_boundaries`]).
    /// A set or an open handle is taken as stored, and `shards` = 1 there
    /// means "as stored". `block_size` = `None` means the stored size, or
    /// the engine default for an inline database. A `block_size` or
    /// `shards` that contradicts what a file stores is a `config` error.
    pub fn open(
        source: DbSource<'_>,
        shards: usize,
        block_size: Option<usize>,
    ) -> Result<Self, SearchError> {
        let stored = match source {
            DbSource::Set { name, images } => Self::from_images(name, images)?,
            DbSource::Open(db) => db,
            whole => {
                let starts = even_split(whole.len(), shards);
                return Self::from_boundaries(whole, &starts[1..], block_size);
            }
        };
        let origin = stored.origin.as_ref();
        agree("block size", block_size, stored.block_size, origin)?;
        let asked = (shards != 1).then_some(shards);
        agree("shard count", asked, stored.num_shards(), origin)?;
        Ok(stored)
    }

    /// Cut an inline database or an image before each of `boundaries`,
    /// clamped and sorted (`k` boundaries make `k + 1` shards; duplicates
    /// make empty ones); `block_size` as in [`Self::open`]. A set or an
    /// open handle keeps the cut it was stored with: a `config` error.
    pub fn from_boundaries(
        source: DbSource<'_>,
        boundaries: &[usize],
        block_size: Option<usize>,
    ) -> Result<Self, SearchError> {
        let mut starts: Vec<usize> = boundaries.iter().map(|&b| b.min(source.len())).collect();
        starts.push(0);
        starts.sort_unstable();
        let (whole, block_size, origin) = match source {
            DbSource::Inline(db) => {
                let engine_default = CuBlastpConfig::default().db_block_size;
                (Whole::Owned(db), block_size.unwrap_or(engine_default), None)
            }
            DbSource::Image(img) => {
                let origin = ImageOrigin {
                    label: img.region().source().to_string(),
                    format_version: img.format_version(),
                    blocks: img.num_blocks(),
                };
                agree("block size", block_size, img.block_size(), Some(&origin))?;
                (Whole::Image(img), img.block_size(), Some(origin))
            }
            stored => {
                let kind = stored.kind();
                let why = format!("a database opened as {kind} keeps the cut it was stored with");
                return Err(SearchError::config(why));
            }
        };
        let cut = Self::cut(whole, &starts, block_size);
        Ok(Self { origin, ..cut })
    }

    /// A flat database as one shard: `db` and its already-resident device
    /// copy (flattened, or mapped from a `.cdb` image) are moved in — no
    /// sequence is copied and no flatten pass runs.
    pub fn resident(db: SequenceDb, dev: Arc<DeviceDb>) -> Self {
        let (name, block_size) = (db.name().to_string(), dev.block_size());
        Self::assemble(name, vec![(db, dev)], block_size)
    }

    /// Cut `db` evenly into `num_shards` shards ([`even_split`]),
    /// flattening each at `block_size`. A split wider than the database
    /// keeps its empty tail shards, so per-shard telemetry always has
    /// `num_shards` entries.
    pub fn split(db: &SequenceDb, num_shards: usize, block_size: usize) -> Self {
        let starts = even_split(db.len(), num_shards);
        Self::cut(Whole::Owned(db.clone()), &starts, block_size)
    }

    /// Assemble a sharded database from per-shard `.cdb` images (the
    /// [`cublastp_db`] shard-set path): each image becomes one shard
    /// mapped whole — no flatten pass runs. Images must share one block
    /// size; shard order is image order and global starts are cumulative
    /// sequence counts.
    pub fn from_images(name: &str, images: &[DbImage]) -> Result<Self, SearchError> {
        let block_size = images.first().map_or(0, DbImage::block_size);
        let mut images_at = images.iter().enumerate();
        if let Some((index, img)) = images_at.find(|(_, img)| img.block_size() != block_size) {
            return Err(SearchError::config(format!(
                "shard {index} image has block size {}, shard set wants {block_size}",
                img.block_size()
            )));
        }
        let shards = (images.iter())
            .map(|img| mapped(img, 0..img.num_sequences(), img.name().to_string()))
            .collect();
        Ok(Self {
            origin: images.first().map(|first| ImageOrigin {
                label: format!("{name} ({} shard images)", images.len()),
                format_version: first.format_version(),
                blocks: images.iter().map(DbImage::num_blocks).sum(),
            }),
            ..Self::assemble(name.to_string(), shards, block_size)
        })
    }

    /// The cut: `whole` split before each of `starts` (ascending, the
    /// first 0), every shard resident at `block_size` once — an owned
    /// database's sequences moved into their shards and flattened, an
    /// image's ranges mapped ([`mapped`]). A one-shard cut keeps the
    /// database's name.
    fn cut(whole: Whole<'_>, starts: &[usize], block_size: usize) -> Self {
        let (name, len) = match &whole {
            Whole::Owned(db) => (db.name().to_string(), db.len()),
            Whole::Image(img) => (img.name().to_string(), img.num_sequences()),
        };
        let ends = starts.iter().skip(1).chain([&len]);
        let ranges = starts.iter().zip(ends).map(|(&s, &e)| s..e).enumerate();
        let shard_name = |index| match starts.len() {
            1 => name.clone(),
            _ => format!("{name}:{index}"),
        };
        let shards: Vec<_> = match whole {
            Whole::Owned(db) => {
                let mut rest = db.into_sequences().into_iter();
                let flatten = |(index, seqs): (usize, Range<usize>)| {
                    let seqs = rest.by_ref().take(seqs.len()).collect();
                    let db = SequenceDb::new(shard_name(index), seqs);
                    let dev = Arc::new(DeviceDb::upload(&db, block_size));
                    (db, dev)
                };
                ranges.map(flatten).collect()
            }
            Whole::Image(img) => {
                let map = |(index, seqs)| mapped(img, seqs, shard_name(index));
                ranges.map(map).collect()
            }
        };
        Self::assemble(name, shards, block_size)
    }

    /// The handle over resident shards in global order: a shard starts
    /// after the sequences before it, and the totals are their sums.
    fn assemble(name: String, shards: Vec<(SequenceDb, Arc<DeviceDb>)>, block_size: usize) -> Self {
        let mut start = 0;
        let shards: Vec<DbShard> = (shards.into_iter().enumerate())
            .map(|(index, (db, dev))| {
                let shard = DbShard {
                    index,
                    start,
                    db,
                    dev,
                };
                start += shard.len();
                shard
            })
            .collect();
        Self {
            name,
            total_sequences: start,
            total_residues: shards.iter().map(|s| s.db.total_residues()).sum(),
            shards,
            block_size,
            origin: None,
        }
    }

    /// The shards, in global database order.
    pub fn shards(&self) -> &[DbShard] {
        &self.shards
    }

    /// Number of shards (empty tail shards included).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Block size every shard was flattened at.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Database blocks over all shards — what one search streams, and the
    /// unit of its progress and deadline telemetry.
    pub fn num_blocks(&self) -> usize {
        self.shards.iter().map(|s| s.dev.num_blocks()).sum()
    }

    /// Global sequence count — the `db.len()` of the unsharded database.
    pub fn total_sequences(&self) -> usize {
        self.total_sequences
    }

    /// Global residue count — the Karlin–Altschul search-space input.
    pub fn total_residues(&self) -> usize {
        self.total_residues
    }

    /// Name of the underlying database.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The `.cdb` file(s) the database was opened from; `None` for an
    /// inline database.
    pub fn image_origin(&self) -> Option<&ImageOrigin> {
        self.origin.as_ref()
    }

    /// The sequence at global database index `global` — what a hit's
    /// `subject_index` names at any shard count. Panics past the end,
    /// like a slice.
    pub fn sequence(&self, global: usize) -> &Sequence {
        let shard = &self.shards[self
            .shards
            .partition_point(|s| s.start <= global)
            .saturating_sub(1)];
        &shard.db.sequences()[global - shard.start]
    }

    /// Build a searcher with *global* database statistics (the cross-shard
    /// correction): cutoffs and E-values are those of the unsharded
    /// database, whatever shard the searcher is pointed at.
    pub fn searcher(
        &self,
        query: Sequence,
        params: SearchParams,
        config: CuBlastpConfig,
        device: DeviceConfig,
    ) -> CuBlastp {
        CuBlastp::with_db_stats(
            query,
            params,
            config,
            device,
            self.total_residues,
            self.total_sequences,
        )
    }

    /// The shards as the search executor sees them: borrowed views.
    pub(crate) fn views(&self) -> Vec<ShardView<'_>> {
        self.shards
            .iter()
            .map(|s| ShardView {
                db: &s.db,
                dev: &s.dev,
                start: s.start,
            })
            .collect()
    }

    /// Indices of the shards that hold sequences — the ones that become
    /// work items.
    pub(crate) fn live_shards(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.shards.len()).filter(|&s| !self.shards[s].is_empty())
    }

    /// Modelled H2D upload cost of each shard on `device`, indexed by
    /// shard — the residence charge the scheduler bills per
    /// (device, shard) first touch.
    pub fn upload_ms(&self, device: &DeviceConfig) -> Vec<f64> {
        let upload = |s: &DbShard| device.transfer_ms(s.dev.upload_bytes());
        (self.shards.iter())
            .map(|s| if s.is_empty() { 0.0 } else { upload(s) })
            .collect()
    }
}

/// Fleet geometry of a sharded batch.
#[derive(Debug, Clone, Copy)]
pub struct ShardedOptions {
    /// Simulated devices the schedule distributes work across.
    pub devices: usize,
    /// Inert: the fleet schedule has no seed. Kept only because the
    /// `benchmark/` package spells this struct field by field; ROADMAP
    /// item 1 removes it.
    pub seed: u64,
}

impl Default for ShardedOptions {
    fn default() -> Self {
        Self {
            devices: 1,
            seed: DEFAULT_STEAL_SEED,
        }
    }
}

/// Search every shard with `searcher` and merge — the single-query plan:
/// one pass of the query's block loop over the blocks of every shard in
/// turn, as [`CuBlastp::search_resident`] makes over one database, with
/// no fleet scheduled. The searcher must carry global
/// statistics (build it with [`ShardedDb::searcher`], or against the full
/// database); a shard whose search fails fails the whole query, as
/// partial merges would break the identical-to-single-DB contract.
/// `charge_h2d` bills every block's upload to `h2d_ms` as it streams — a
/// standalone search pays it, a search over an already-resident handle
/// (the serving layer's) does not. The hooks' cancel token is polled at
/// every block boundary of every shard, and `on_block` fires once per
/// database block in global pipeline order (`blocks_total` =
/// [`ShardedDb::num_blocks`]) with the block's partial report in global
/// subject indices.
pub fn search_sharded(
    searcher: &CuBlastp,
    sharded: &ShardedDb,
    charge_h2d: bool,
    hooks: &SearchHooks<'_>,
) -> Result<CuBlastpResult, SearchError> {
    searcher
        .run_blocks(&sharded.views(), charge_h2d, None, hooks)
        .map(|s| s.result)
}

/// Options for a sharded batch.
#[derive(Debug, Clone, Default)]
pub struct ShardedBatchOptions {
    /// Schedule geometry (devices).
    pub sharded: ShardedOptions,
    /// Fault injector shared by every query of the stream, scoping specs
    /// by query index; disarmed when `None`.
    pub injector: Option<Arc<FaultInjector>>,
}

/// Outcome of a sharded multi-query batch: per-query merged results plus
/// the fleet schedule over every (query × shard) item. Item costs are
/// retained so scaling studies can re-simulate the same measured work at
/// other device counts without re-searching ([`Self::reschedule`]).
pub struct ShardedBatchOutcome {
    /// Per-query merged results, input order; a failed or panicked query
    /// is an `Err` in its slot and contributes no items to the schedule.
    pub per_query: Vec<Result<CuBlastpResult, SearchError>>,
    /// The fleet schedule at the requested device count.
    pub schedule: FleetSchedule,
    /// Makespan of the same items on one device.
    pub single_device_ms: f64,
    /// Devices the schedule ran with.
    pub devices: usize,
    /// Modelled cost of each (query × shard) item, schedule order.
    pub item_costs: Vec<f64>,
    /// Shard of each item (parallel to `item_costs`).
    pub item_shards: Vec<usize>,
    /// Per-shard upload charge the scheduler bills on first touch.
    pub shard_upload_ms: Vec<f64>,
    /// Measured host wall-clock of the whole batch.
    pub wall_ms: f64,
}

impl ShardedBatchOutcome {
    /// Makespan speedup over the single-device baseline.
    pub fn speedup(&self) -> f64 {
        self.schedule.speedup(self.single_device_ms)
    }

    /// Scaling efficiency at the schedule's device count.
    pub fn efficiency(&self) -> f64 {
        self.schedule.efficiency(self.single_device_ms)
    }

    /// Re-simulate the measured items at another device count — same
    /// costs, same uploads, no re-search. The scaling bench sweeps device
    /// counts through this.
    pub fn reschedule(&self, devices: usize) -> FleetSchedule {
        schedule_fleet(
            &self.item_costs,
            &self.item_shards,
            &self.shard_upload_ms,
            devices,
        )
    }

    /// Queries that completed successfully.
    pub fn succeeded(&self) -> usize {
        self.per_query.iter().filter(|r| r.is_ok()).count()
    }
}

/// The sharded batch plan over the search executor: every query searches
/// every shard, and the fleet schedules one item per `tile` consecutive
/// queries per non-empty shard (cost: the sum over the tile; a tile with
/// no successful query contributes none).
fn sharded_plan(
    queries: &[Sequence],
    params: SearchParams,
    config: CuBlastpConfig,
    device: DeviceConfig,
    sharded: &ShardedDb,
    opts: &ShardedBatchOptions,
    tile: usize,
) -> ShardedBatchOutcome {
    let plan = Plan {
        params,
        config,
        device,
        shards: &sharded.views(),
        grouped: None,
        injector: opts.injector.clone(),
        charge_h2d: false,
    };
    let run = execute(&plan, queries);
    let mut item_costs = Vec::new();
    let mut item_shards = Vec::new();
    for tile in run.per_query.chunks(tile) {
        let costs: Vec<&Vec<f64>> = tile.iter().flatten().map(|s| &s.shard_ms).collect();
        if costs.is_empty() {
            continue;
        }
        for shard in sharded.live_shards() {
            item_costs.push(costs.iter().map(|ms| ms[shard]).sum());
            item_shards.push(shard);
        }
    }
    // The fleet's schedule at the requested device count, the same items
    // on one device as the scaling baseline, and the fleet's per-device
    // gauges (disarmed-cheap like every obs call).
    let uploads = sharded.upload_ms(&device);
    let schedule = schedule_fleet(&item_costs, &item_shards, &uploads, opts.sharded.devices);
    let single_device_ms = schedule_fleet(&item_costs, &item_shards, &uploads, 1).makespan_ms;
    if obs::metrics_enabled() {
        for (d, tl) in schedule.per_device.iter().enumerate() {
            let label = d.to_string();
            obs::gauge("device_busy_ms", &[("device", &label)], tl.busy_ms);
        }
        obs::gauge("fleet_makespan_ms", &[], schedule.makespan_ms);
    }
    ShardedBatchOutcome {
        per_query: (run.per_query.into_iter())
            .map(|r| r.map(|searched| searched.result))
            .collect(),
        devices: schedule.per_device.len(),
        schedule,
        single_device_ms,
        item_costs,
        item_shards,
        shard_upload_ms: uploads,
        wall_ms: run.wall_ms,
    }
}

/// Search a batch of queries against a sharded database: every query
/// searches every shard (one (query × shard) work item each) and the
/// fleet schedule distributes the items across devices. Per-query merged
/// results are bit-identical to single-DB searches; queries are isolated
/// like the flat batch's.
pub fn search_sharded_batch(
    queries: &[Sequence],
    params: SearchParams,
    config: CuBlastpConfig,
    device: DeviceConfig,
    sharded: &ShardedDb,
    opts: &ShardedBatchOptions,
) -> ShardedBatchOutcome {
    sharded_plan(queries, params, config, device, sharded, opts, 1)
}

/// One above-threshold (query, subject) pair in the similarity matrix:
/// the best HSP of the pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimEntry {
    /// Global database index of the subject.
    pub subject: u32,
    /// Raw score of the pair's best HSP.
    pub score: i32,
    /// Bit score of that HSP.
    pub bit_score: f64,
    /// E-value of that HSP (global statistics).
    pub evalue: f64,
}

/// Sparse query × subject similarity matrix in CSR form: row `q` of the
/// matrix is `entries[row_offsets[q]..row_offsets[q + 1]]`, sorted by
/// subject index. Only above-threshold pairs are stored, one entry per
/// pair (best HSP), so a many-against-many sweep stays sparse.
#[derive(Debug, Clone, Default)]
pub struct SparseSimMatrix {
    /// Rows (queries) in the matrix.
    pub num_queries: usize,
    /// Columns (database sequences) the rows index into.
    pub num_subjects: usize,
    /// CSR row offsets, `num_queries + 1` entries.
    pub row_offsets: Vec<usize>,
    /// Above-threshold pairs, row-major, subject-sorted within a row.
    pub entries: Vec<SimEntry>,
}

impl SparseSimMatrix {
    /// Entries of row `q` (empty past the last row).
    pub fn row(&self, q: usize) -> &[SimEntry] {
        match (self.row_offsets.get(q), self.row_offsets.get(q + 1)) {
            (Some(&lo), Some(&hi)) => &self.entries[lo..hi],
            _ => &[],
        }
    }

    /// Stored (above-threshold) pairs.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// The entry for `(q, subject)`, if the pair scored above threshold.
    pub fn get(&self, q: usize, subject: usize) -> Option<&SimEntry> {
        let row = self.row(q);
        row.binary_search_by_key(&(subject as u32), |e| e.subject)
            .ok()
            .map(|i| &row[i])
    }
}

/// Queries per work item of the many-against-many sweep: the fleet
/// schedules (16-query tile × shard) items.
pub const ALL_VS_ALL_TILE_ROWS: usize = 16;

/// Outcome of a many-against-many sweep.
pub struct AllVsAllResult {
    /// The sparse similarity matrix (CSR over query rows).
    pub matrix: SparseSimMatrix,
    /// Fleet schedule over the (tile × shard) work items.
    pub schedule: FleetSchedule,
    /// Makespan of the same items on one device (the scaling baseline;
    /// see [`FleetSchedule::speedup`]).
    pub single_device_ms: f64,
    /// Query tiles the sweep streamed.
    pub tiles: usize,
}

/// One query's matrix row from its ranked report: best HSP per subject,
/// subject-sorted. The report arrives in canonical rank order (score
/// descending, subject ascending), so the first sighting of a subject is
/// its best HSP.
fn matrix_row(report: &SearchReport) -> Vec<SimEntry> {
    let mut row: Vec<SimEntry> = Vec::new();
    for hit in &report.hits {
        let subject = hit.subject_index as u32;
        if row.iter().all(|e| e.subject != subject) {
            row.push(SimEntry {
                subject,
                score: hit.alignment.score,
                bit_score: hit.bit_score,
                evalue: hit.evalue,
            });
        }
    }
    row.sort_by_key(|e| e.subject);
    row
}

/// Many-against-many search: every query against every shard, scheduled
/// as ([`ALL_VS_ALL_TILE_ROWS`]-query tile × shard) work items, emitting
/// the sparse similarity matrix of above-threshold pairs. A row is
/// reduced from the query's globally merged, globally ranked report —
/// best HSP per pair under global statistics — so the matrix equals what
/// per-query single-DB searches would produce at any partition (the
/// dense-reference property test). A query that fails fails the sweep.
pub fn search_all_vs_all(
    queries: &[Sequence],
    params: SearchParams,
    config: CuBlastpConfig,
    device: DeviceConfig,
    sharded: &ShardedDb,
    opts: &ShardedBatchOptions,
) -> Result<AllVsAllResult, SearchError> {
    let tile = ALL_VS_ALL_TILE_ROWS;
    let batch = sharded_plan(queries, params, config, device, sharded, opts, tile);
    let mut row_offsets = Vec::with_capacity(queries.len() + 1);
    row_offsets.push(0usize);
    let mut entries = Vec::new();
    for result in batch.per_query {
        entries.extend(matrix_row(&result?.report));
        row_offsets.push(entries.len());
    }
    Ok(AllVsAllResult {
        matrix: SparseSimMatrix {
            num_queries: queries.len(),
            num_subjects: sharded.total_sequences(),
            row_offsets,
            entries,
        },
        schedule: batch.schedule,
        single_device_ms: batch.single_device_ms,
        tiles: queries.len().div_ceil(tile),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bio_seq::generate::{generate_db, make_query, DbSpec};

    fn workload(seqs: usize) -> (Sequence, SequenceDb, CuBlastpConfig) {
        let q = make_query(80);
        let spec = DbSpec {
            name: "shardtest",
            num_sequences: seqs,
            mean_length: 120,
            homolog_fraction: 0.25,
            seed: 97,
        };
        let db = generate_db(&spec, &q).db;
        let cfg = CuBlastpConfig {
            db_block_size: 24,
            grid_blocks: 2,
            warps_per_block: 2,
            ..CuBlastpConfig::default()
        };
        (q, db, cfg)
    }

    /// The flat database is the one-shard case: moved into a resident
    /// handle, its search is the flat resident search in every modelled
    /// number, uncharged and charged alike — a charged upload is billed
    /// block by block to `h2d_ms`, as the flat search bills it.
    #[test]
    fn resident_handle_is_the_flat_search() {
        let (q, db, cfg) = workload(96);
        let device = DeviceConfig::k20c();
        let dev = Arc::new(DeviceDb::upload(&db, cfg.db_block_size));
        let searcher = CuBlastp::new(q, SearchParams::default(), cfg, device, &db);
        let flat = [false, true].map(|charge| {
            (searcher.search_resident(&db, &dev, charge)).expect("flat resident search")
        });
        let resident = ShardedDb::resident(db, dev);
        assert_eq!(resident.num_shards(), 1);
        assert_eq!(resident.num_blocks(), flat[0].block_timings.len());
        let modelled = |r: &CuBlastpResult| {
            let t = &r.timing;
            let blocks = r.block_timings.iter();
            let legs: Vec<_> = blocks.map(|b| (b.h2d_ms, b.gpu_ms, b.d2h_ms)).collect();
            let device_ms = (t.gpu_ms, t.h2d_ms, t.d2h_ms);
            let ledger = (r.kernels.clone(), r.kernel_ms.clone(), r.counts, r.recovery);
            (r.report.identity_key(), ledger, device_ms, legs)
        };
        for (charge, flat) in [false, true].into_iter().zip(&flat) {
            let hooks = SearchHooks::default();
            let sharded = search_sharded(&searcher, &resident, charge, &hooks).expect("resident");
            assert_eq!(modelled(&sharded), modelled(flat), "charge_h2d = {charge}");
            assert_eq!(sharded.timing.h2d_ms > 0.0, charge);
        }
    }

    #[test]
    fn batch_results_match_per_query_sharded_searches() {
        let (q, db, cfg) = workload(48);
        let device = DeviceConfig::k20c();
        let queries: Vec<Sequence> = (0..4)
            .map(|i| {
                let s = make_query(64 + 8 * i);
                Sequence::from_bytes(format!("q{i}"), s.residues())
            })
            .collect();
        let _ = q;
        let sharded = ShardedDb::split(&db, 4, cfg.db_block_size);
        let opts = ShardedBatchOptions {
            sharded: ShardedOptions {
                devices: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let batch = search_sharded_batch(
            &queries,
            SearchParams::default(),
            cfg,
            device,
            &sharded,
            &opts,
        );
        assert_eq!(batch.succeeded(), queries.len());
        assert_eq!(batch.item_costs.len(), queries.len() * 4);
        for (i, r) in batch.per_query.iter().enumerate() {
            let r = r.as_ref().expect("query ok");
            let single = CuBlastp::new(
                queries[i].clone(),
                SearchParams::default(),
                cfg,
                device,
                &db,
            )
            .search(&db)
            .expect("single");
            assert_eq!(r.report.identity_key(), single.report.identity_key());
        }
        // Re-simulating at 1 device reproduces the baseline makespan.
        assert_eq!(batch.reschedule(1).makespan_ms, batch.single_device_ms);
        assert!(batch.speedup() >= 1.0);
    }

    #[test]
    fn all_vs_all_matches_dense_reference() {
        let (_, db, cfg) = workload(33);
        let device = DeviceConfig::k20c();
        // Every sequence against the database: 33 queries make three
        // 16-row tiles.
        let queries: Vec<Sequence> = db.sequences().to_vec();
        let opts = ShardedBatchOptions {
            sharded: ShardedOptions {
                devices: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        // A report cap small enough to bite (3) must cut the same pairs at
        // every partition: rows come from the globally ranked report.
        for (max_reported, shard_counts) in [
            (SearchParams::default().max_reported, &[3usize][..]),
            (3, &[1, 3][..]),
        ] {
            let params = SearchParams {
                max_reported,
                ..SearchParams::default()
            };
            // Dense reference: per-query single-DB search, best HSP per pair.
            let expect: Vec<Vec<SimEntry>> = queries
                .iter()
                .map(|query| {
                    let single = CuBlastp::new(query.clone(), params, cfg, device, &db)
                        .search(&db)
                        .expect("single");
                    matrix_row(&single.report)
                })
                .collect();
            for &num_shards in shard_counts {
                let sharded = ShardedDb::split(&db, num_shards, cfg.db_block_size);
                let r = search_all_vs_all(&queries, params, cfg, device, &sharded, &opts)
                    .expect("all-vs-all");
                assert_eq!(r.matrix.num_queries, queries.len());
                assert_eq!(r.matrix.row_offsets.len(), queries.len() + 1);
                assert_eq!(r.tiles, 3);
                for (qi, expect) in expect.iter().enumerate() {
                    let row = r.matrix.row(qi);
                    assert_eq!(
                        row.len(),
                        expect.len(),
                        "query {qi} pair count, cap {max_reported}, {num_shards} shards"
                    );
                    for (a, b) in row.iter().zip(expect) {
                        assert_eq!(a.subject, b.subject);
                        assert_eq!(a.score, b.score);
                        assert_eq!(a.evalue.to_bits(), b.evalue.to_bits());
                    }
                    // Self-hit present: a query searched against a DB containing it.
                    assert!(r.matrix.get(qi, qi).is_some(), "query {qi} self pair");
                }
            }
        }
    }

    #[test]
    fn fleet_schedule_is_deterministic_and_scales() {
        let (q, db, cfg) = workload(96);
        let device = DeviceConfig::k20c();
        let queries: Vec<Sequence> = (0..3).map(|_| q.clone()).collect();
        let sharded = ShardedDb::split(&db, 8, cfg.db_block_size);
        let opts = ShardedBatchOptions {
            sharded: ShardedOptions {
                devices: 4,
                ..Default::default()
            },
            ..Default::default()
        };
        let a = search_sharded_batch(
            &queries,
            SearchParams::default(),
            cfg,
            device,
            &sharded,
            &opts,
        );
        // Determinism: the schedule is a pure function of the measured
        // items — re-simulating reproduces it exactly, timeline for
        // timeline — and the one-device baseline is the LPT left fold of
        // the same items, bit for bit.
        assert_eq!(a.reschedule(4), a.schedule, "same items, same schedule");
        let fold =
            crate::scheduler::tests::lpt_fold(&a.item_costs, &a.item_shards, &a.shard_upload_ms);
        assert_eq!(a.single_device_ms.to_bits(), fold.to_bits());
        assert_eq!(a.reschedule(1).makespan_ms.to_bits(), fold.to_bits());
        assert!(a.schedule.makespan_ms < a.single_device_ms);
        assert!(a.speedup() > 1.5, "4 devices over 24 items must scale");
    }
}
