//! Argument parsing for the `cublastp` binary (hand-rolled; no external
//! CLI dependency).

use blast_core::SearchParams;
use cublastp::{CuBlastpConfig, ExtensionStrategy, GappedBackend, SeedMode};
use gpu_sim::FaultPlan;

/// Usage text.
pub const USAGE: &str = "\
cublastp — protein sequence search (cuBLASTP reproduction)

USAGE:
    cublastp --query <fasta> --db <fasta> [options]
    cublastp --query <fasta> --db-image <cdb> [options]
    cublastp --demo [options]
    cublastp serve --demo [serve options]
    cublastp allvsall --db <fasta> [--shards <n> --devices <n>]
    cublastp db build --db <fasta> --out <path.cdb> [--block-size <n>]
    cublastp db verify <path.cdb>
    cublastp db shard --db <fasta> --out <dir> --shards <n>

OPTIONS:
    --query <path>       query FASTA (one search per record)
    --db <path>          database FASTA
    --db-image <path>    persistent database image (`.cdb`, from `db
                         build`): mapped and validated, searched with no
                         flatten pass; replaces --db
    --db-set <path>      shard-set manifest (`.cdbset`, from `db shard`):
                         every shard maps its own image zero-copy and the
                         search runs on the sharded engine; replaces --db
    --shards <n>         partition the database into n contiguous shards
                         and run the sharded engine (default 1: the flat
                         single-device path, or a --db-set as stored —
                         any other count than the set's is an error);
                         merged output is bit-identical at every shard
                         count
    --devices <n>        simulated devices the fleet schedule distributes
                         a batch's (query × shard) items across (default
                         1; cublastp engine, not serve)
    --block-size <n>     sequences per device block (default 1024); for
                         `db build` this is baked into the image, for a
                         FASTA search it sets the partitioning, and one
                         that contradicts a --db-image or --db-set is an
                         error
    --demo               use a built-in synthetic query + database
    --engine <name>      cublastp (default) | cpu | cuda-blastp | gpu-blastp
    --evalue <float>     e-value cutoff (default 10)
    --max-hits <n>       alignments shown per query (default 25)
    --threads <n>        threads that execute gapped extension + traceback
                         (Fig. 13; default 4), at most the cores this host
                         has: `--phase-table` says how many ran
    --strategy <name>    diagonal | hit | window (default window)
    --bins <n>           bins per warp (default 128)
    --mask               SEG-mask low-complexity query regions before seeding
    --comp-based-stats   composition-adjusted e-values for biased queries
    --no-overlap         disable the CPU–GPU pipeline overlap
    --seed-mode <name>   per-query (default) | grouped — grouped packs the
                         query stream into rounds sharing one device word
                         index and makes a single seeding pass per round
                         over each database block (cublastp engine only)
    --gapped-backend <name>
                         cpu (default) | gpu — where gapped extension +
                         traceback run; gpu moves them into the per-block
                         device timeline as a warp-per-seed banded-DP
                         kernel with constant-memory interval traceback
                         (cublastp engine only; output is identical)
    --alignments         print the aligned residues, not just the table
    --outfmt <name>      pairwise (default) | tab (BLAST outfmt-6 columns:
                         qseqid sseqid pident length mismatch gapopen
                         qstart qend sstart send evalue bitscore)
    --fault-plan <spec>  arm deterministic device faults (testing); spec is
                         comma-separated site[@b<N>][@q<N>][:x<K>|:perm],
                         sites: alloc launch h2d d2h h2d-timeout d2h-timeout
                         workspace panic gapped-launch gapped-d2h
    --max-retries <n>    attempts per block before degrading (default 3)
    --no-cpu-fallback    fail instead of re-running faulted blocks on CPU
    --trace-out <path>   write a Chrome trace_event JSON of the run (open
                         in Perfetto / chrome://tracing)
    --metrics-out <path> write pipeline metrics; .json extension selects
                         JSON, anything else Prometheus text format
    --phase-table        print a per-phase timing table (Fig. 11 style)
    --help               this text

ALLVSALL SUBCOMMAND (many-against-many, DESIGN.md §3.10): search every
query (default: the database against itself) against the sharded
database and print the sparse similarity matrix — one
`qseqid sseqid score bitscore evalue` line per above-threshold pair,
best HSP per pair, streamed per (query-tile × shard) work item.

DB SUBCOMMAND (persistent database images, DESIGN.md §3.9–3.10):
    db build             serialise a FASTA database (or --demo) into a
                         versioned, checksummed `.cdb` image at --out;
                         the write is atomic (tmp file + rename)
    db verify <path>     map and fully validate an image — header CRC,
                         section table CRC, per-section CRCs, layout
                         invariants — and print a section summary
    db shard             split a database into --shards per-shard `.cdb`
                         images plus a `shards.cdbset` manifest in the
                         --out directory (searchable via --db-set)
    --out <path>         output path for `db build` / directory for
                         `db shard`

SERVE OPTIONS (after the `serve` subcommand; the query stream is replayed
through the admission-controlled server, streaming per-block progress):
    --requests <n>       total requests to replay, round-robin over the
                         query FASTA, every fourth one bulk (default 8)
    --workers <n>        serve worker threads (default 2; one is reserved
                         for interactive traffic when more than one)
    --queue-capacity <n> bounded admission queue depth (default 16)
    --deadline-ms <n>    per-request deadline; queue wait counts against
                         it (default: none)

EXIT CODES:
    0 success   2 config error   3 input error   4 device error
    5 pipeline error   6 deadline exceeded   7 overloaded
    8 database image error (corrupt, truncated, or version-mismatched
    `.cdb` — every corruption is a typed error, never a panic)
    (serve mode exits 0 as long as any request completed; 6/7 report a
    run where every request missed its deadline / was shed)";

/// `db` subcommand verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbCmd {
    /// Serialise a database into a `.cdb` image.
    Build,
    /// Map and fully validate an image.
    Verify,
    /// Split a database into per-shard images plus a `.cdbset` manifest.
    Shard,
}

/// Output format of the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutFmt {
    /// Human-readable BLAST-style report (default).
    Pairwise,
    /// Tab-separated values, one line per hit (BLAST `-outfmt 6`).
    Tab,
}

/// Which search pipeline to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Fine-grained cuBLASTP on the simulated K20c.
    CuBlastp,
    /// CPU reference (FSA-BLAST / NCBI-BLAST stand-in).
    Cpu,
    /// Coarse-grained CUDA-BLASTP baseline.
    CudaBlastp,
    /// Coarse-grained GPU-BLASTP baseline.
    GpuBlastp,
}

impl Engine {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Engine::CuBlastp => "cublastp",
            Engine::Cpu => "cpu",
            Engine::CudaBlastp => "cuda-blastp",
            Engine::GpuBlastp => "gpu-blastp",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub query: Option<String>,
    pub db: Option<String>,
    /// `--db-image`: search a persistent `.cdb` image instead of a FASTA
    /// database (mapped, validated, zero flatten passes).
    pub db_image: Option<String>,
    /// `--db-set`: search a per-shard image set via its `.cdbset`
    /// manifest (sharded engine, every shard mapped zero-copy).
    pub db_set: Option<String>,
    /// `--shards`: shard count for the sharded engine (1 = flat path).
    pub shards: usize,
    /// `--devices`: simulated devices the fleet schedule spans.
    pub devices: usize,
    /// `allvsall` subcommand: many-against-many sparse-matrix search.
    pub allvsall: bool,
    /// `--block-size`: sequences per device block. `None` keeps the
    /// engine default (or, with `--db-image`, the image's stored size).
    pub block_size: Option<usize>,
    /// `db` subcommand verb, when the first token was `db`.
    pub db_cmd: Option<DbCmd>,
    /// `--out`: output path for `db build`.
    pub out: Option<String>,
    pub demo: bool,
    pub engine: Engine,
    pub evalue: f64,
    pub max_hits: usize,
    /// `--threads`: the threads the CPU tail executes on
    /// ([`CuBlastpConfig::cpu_threads`]; Fig. 13), and `--engine cpu`'s
    /// `search_parallel`. Clamped to `available_parallelism()`; the
    /// reports are identical at every value.
    pub threads: usize,
    pub strategy: ExtensionStrategy,
    pub bins: usize,
    pub mask: bool,
    pub comp_based_stats: bool,
    pub overlap: bool,
    pub seed_mode: SeedMode,
    pub gapped_backend: GappedBackend,
    pub alignments: bool,
    pub outfmt: OutFmt,
    pub fault_plan: FaultPlan,
    pub max_retries: u32,
    pub cpu_fallback: bool,
    pub trace_out: Option<String>,
    pub metrics_out: Option<String>,
    pub phase_table: bool,
    pub help: bool,
    /// `serve` subcommand: replay the query stream through the
    /// admission-controlled server (cublastp-serve).
    pub serve: bool,
    pub serve_requests: usize,
    pub serve_workers: usize,
    pub serve_queue_capacity: usize,
    pub serve_deadline_ms: Option<u64>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            query: None,
            db: None,
            db_image: None,
            db_set: None,
            shards: 1,
            devices: 1,
            allvsall: false,
            block_size: None,
            db_cmd: None,
            out: None,
            demo: false,
            engine: Engine::CuBlastp,
            evalue: 10.0,
            max_hits: 25,
            threads: 4,
            strategy: ExtensionStrategy::Window,
            bins: 128,
            mask: false,
            comp_based_stats: false,
            overlap: true,
            seed_mode: SeedMode::PerQuery,
            gapped_backend: GappedBackend::Cpu,
            alignments: false,
            outfmt: OutFmt::Pairwise,
            fault_plan: FaultPlan::none(),
            max_retries: 3,
            cpu_fallback: true,
            trace_out: None,
            metrics_out: None,
            phase_table: false,
            help: false,
            serve: false,
            serve_requests: 8,
            serve_workers: 2,
            serve_queue_capacity: 16,
            serve_deadline_ms: None,
        }
    }
}

impl Args {
    /// Parse an argument iterator (without the program name).
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args::default();
        let value = |argv: &mut dyn Iterator<Item = String>, flag: &str| {
            argv.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        let mut first = true;
        while let Some(arg) = argv.next() {
            match arg.as_str() {
                "serve" if first => args.serve = true,
                "allvsall" if first => args.allvsall = true,
                "db" if first => {
                    args.db_cmd = Some(match value(&mut argv, "db")?.as_str() {
                        "build" => DbCmd::Build,
                        "verify" => DbCmd::Verify,
                        "shard" => DbCmd::Shard,
                        other => {
                            return Err(format!(
                                "unknown db subcommand {other:?} (expected build, verify or shard)"
                            ))
                        }
                    })
                }
                "--db-image" => args.db_image = Some(value(&mut argv, "--db-image")?),
                "--db-set" => args.db_set = Some(value(&mut argv, "--db-set")?),
                "--shards" => {
                    args.shards = value(&mut argv, "--shards")?
                        .parse()
                        .map_err(|e| format!("--shards: {e}"))?
                }
                "--devices" => {
                    args.devices = value(&mut argv, "--devices")?
                        .parse()
                        .map_err(|e| format!("--devices: {e}"))?
                }
                "--block-size" => {
                    args.block_size = Some(
                        value(&mut argv, "--block-size")?
                            .parse()
                            .map_err(|e| format!("--block-size: {e}"))?,
                    )
                }
                "--out" => args.out = Some(value(&mut argv, "--out")?),
                "--requests" => {
                    args.serve_requests = value(&mut argv, "--requests")?
                        .parse()
                        .map_err(|e| format!("--requests: {e}"))?
                }
                "--workers" => {
                    args.serve_workers = value(&mut argv, "--workers")?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))?
                }
                "--queue-capacity" => {
                    args.serve_queue_capacity = value(&mut argv, "--queue-capacity")?
                        .parse()
                        .map_err(|e| format!("--queue-capacity: {e}"))?
                }
                "--deadline-ms" => {
                    args.serve_deadline_ms = Some(
                        value(&mut argv, "--deadline-ms")?
                            .parse()
                            .map_err(|e| format!("--deadline-ms: {e}"))?,
                    )
                }
                "--query" => args.query = Some(value(&mut argv, "--query")?),
                "--db" => args.db = Some(value(&mut argv, "--db")?),
                "--demo" => args.demo = true,
                "--engine" => {
                    args.engine = match value(&mut argv, "--engine")?.as_str() {
                        "cublastp" => Engine::CuBlastp,
                        "cpu" => Engine::Cpu,
                        "cuda-blastp" => Engine::CudaBlastp,
                        "gpu-blastp" => Engine::GpuBlastp,
                        other => return Err(format!("unknown engine {other:?}")),
                    }
                }
                "--evalue" => {
                    args.evalue = value(&mut argv, "--evalue")?
                        .parse()
                        .map_err(|e| format!("--evalue: {e}"))?
                }
                "--max-hits" => {
                    args.max_hits = value(&mut argv, "--max-hits")?
                        .parse()
                        .map_err(|e| format!("--max-hits: {e}"))?
                }
                "--threads" => {
                    args.threads = value(&mut argv, "--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?
                }
                "--strategy" => {
                    args.strategy = match value(&mut argv, "--strategy")?.as_str() {
                        "diagonal" => ExtensionStrategy::Diagonal,
                        "hit" => ExtensionStrategy::Hit,
                        "window" => ExtensionStrategy::Window,
                        other => return Err(format!("unknown strategy {other:?}")),
                    }
                }
                "--bins" => {
                    args.bins = value(&mut argv, "--bins")?
                        .parse()
                        .map_err(|e| format!("--bins: {e}"))?
                }
                "--mask" => args.mask = true,
                "--comp-based-stats" => args.comp_based_stats = true,
                "--no-overlap" => args.overlap = false,
                "--seed-mode" => {
                    args.seed_mode = match value(&mut argv, "--seed-mode")?.as_str() {
                        "per-query" => SeedMode::PerQuery,
                        "grouped" => SeedMode::Grouped,
                        other => return Err(format!("unknown seed mode {other:?}")),
                    }
                }
                "--gapped-backend" => {
                    args.gapped_backend = match value(&mut argv, "--gapped-backend")?.as_str() {
                        "cpu" => GappedBackend::Cpu,
                        "gpu" => GappedBackend::Gpu,
                        other => return Err(format!("unknown gapped backend {other:?}")),
                    }
                }
                "--alignments" => args.alignments = true,
                "--outfmt" => {
                    args.outfmt = match value(&mut argv, "--outfmt")?.as_str() {
                        "pairwise" => OutFmt::Pairwise,
                        "tab" | "6" => OutFmt::Tab,
                        other => return Err(format!("unknown output format {other:?}")),
                    }
                }
                "--fault-plan" => {
                    args.fault_plan = FaultPlan::parse(&value(&mut argv, "--fault-plan")?)
                        .map_err(|e| format!("--fault-plan: {e}"))?
                }
                "--max-retries" => {
                    args.max_retries = value(&mut argv, "--max-retries")?
                        .parse()
                        .map_err(|e| format!("--max-retries: {e}"))?
                }
                "--no-cpu-fallback" => args.cpu_fallback = false,
                "--trace-out" => args.trace_out = Some(value(&mut argv, "--trace-out")?),
                "--metrics-out" => args.metrics_out = Some(value(&mut argv, "--metrics-out")?),
                "--phase-table" => args.phase_table = true,
                "--help" | "-h" => args.help = true,
                other => {
                    // `db verify` takes the image as a positional path.
                    if args.db_cmd == Some(DbCmd::Verify)
                        && args.db_image.is_none()
                        && !other.starts_with('-')
                    {
                        args.db_image = Some(other.to_string());
                    } else {
                        return Err(format!("unknown option {other:?}"));
                    }
                }
            }
            first = false;
        }
        if !args.help {
            args.validate()?;
        }
        Ok(args)
    }

    /// Cross-flag validation (skipped under `--help`).
    fn validate(&self) -> Result<(), String> {
        let args = self;
        if matches!(args.db_cmd, Some(DbCmd::Build | DbCmd::Shard))
            && (args.db_image.is_some() || args.db_set.is_some())
        {
            return Err("db build / db shard read --db <fasta> (or --demo)".into());
        }
        match args.db_cmd {
            Some(DbCmd::Build) => {
                if !args.demo && args.db.is_none() {
                    return Err("db build needs --db <fasta> (or --demo)".into());
                }
                if args.out.is_none() {
                    return Err("db build needs --out <path.cdb>".into());
                }
                if args.block_size == Some(0) {
                    return Err("--block-size must be positive".into());
                }
                return Ok(());
            }
            Some(DbCmd::Verify) => {
                if args.db_image.is_none() {
                    return Err("db verify needs an image path".into());
                }
                return Ok(());
            }
            Some(DbCmd::Shard) => {
                if !args.demo && args.db.is_none() {
                    return Err("db shard needs --db <fasta> (or --demo)".into());
                }
                if args.out.is_none() {
                    return Err("db shard needs --out <dir>".into());
                }
                if args.shards == 0 {
                    return Err("--shards must be positive".into());
                }
                if args.block_size == Some(0) {
                    return Err("--block-size must be positive".into());
                }
                return Ok(());
            }
            None => {}
        }
        if args.shards == 0 {
            return Err("--shards must be positive".into());
        }
        if args.devices == 0 {
            return Err("--devices must be positive".into());
        }
        if args.db.is_some() && args.db_image.is_some() {
            return Err("--db and --db-image are mutually exclusive".into());
        }
        if args.db_set.is_some() && (args.db.is_some() || args.db_image.is_some()) {
            return Err("--db-set is mutually exclusive with --db and --db-image".into());
        }
        if args.block_size == Some(0) {
            return Err("--block-size must be positive".into());
        }
        let has_db = args.db.is_some() || args.db_image.is_some() || args.db_set.is_some();
        if args.allvsall {
            if args.serve {
                return Err("allvsall and serve are mutually exclusive".into());
            }
            if args.engine != Engine::CuBlastp {
                return Err("allvsall requires --engine cublastp".into());
            }
            if args.seed_mode == SeedMode::Grouped {
                return Err("allvsall drives its own tiling; drop --seed-mode grouped".into());
            }
            if !args.demo && !has_db {
                return Err("allvsall needs --db, --db-image or --db-set (or --demo)".into());
            }
        } else if !args.demo && (args.query.is_none() || !has_db) {
            return Err("need --query and --db, --db-image or --db-set (or --demo)".into());
        }
        if (args.shards > 1 || args.db_set.is_some()) && args.engine != Engine::CuBlastp {
            return Err("--shards / --db-set require --engine cublastp".into());
        }
        if (args.shards > 1 || args.db_set.is_some()) && args.seed_mode == SeedMode::Grouped {
            return Err("--seed-mode grouped is incompatible with sharded search".into());
        }
        if args.bins == 0 {
            return Err("--bins must be positive".into());
        }
        if args.max_retries == 0 {
            return Err("--max-retries must be positive".into());
        }
        if args.seed_mode == SeedMode::Grouped && args.engine != Engine::CuBlastp {
            return Err("--seed-mode grouped requires --engine cublastp".into());
        }
        if args.gapped_backend == GappedBackend::Gpu && args.engine != Engine::CuBlastp {
            return Err("--gapped-backend gpu requires --engine cublastp".into());
        }
        if args.serve {
            if args.engine != Engine::CuBlastp {
                return Err("serve requires --engine cublastp".into());
            }
            // A request is one query searching its shards in turn: nothing
            // reads the batch's seeding or fleet flags.
            for (flag, given) in [
                ("--seed-mode", args.seed_mode != SeedMode::PerQuery),
                ("--devices", args.devices != 1),
            ] {
                if given {
                    return Err(format!("serve does not take {flag}"));
                }
            }
            if args.serve_requests == 0 {
                return Err("--requests must be positive".into());
            }
            if args.serve_workers == 0 {
                return Err("--workers must be positive".into());
            }
            if args.serve_queue_capacity == 0 {
                return Err("--queue-capacity must be positive".into());
            }
        }
        Ok(())
    }

    /// Search parameters implied by the flags.
    pub fn params(&self) -> SearchParams {
        SearchParams {
            evalue_cutoff: self.evalue,
            max_reported: self.max_hits,
            mask_low_complexity: self.mask,
            composition_based_stats: self.comp_based_stats,
            ..SearchParams::default()
        }
    }

    /// cuBLASTP configuration implied by the flags.
    pub fn cublastp_config(&self) -> CuBlastpConfig {
        let mut config = CuBlastpConfig {
            extension: self.strategy,
            num_bins: self.bins,
            cpu_threads: self.threads,
            overlap: self.overlap,
            gapped_backend: self.gapped_backend,
            ..CuBlastpConfig::default()
        };
        config.recovery.max_attempts = self.max_retries;
        config.recovery.cpu_fallback = self.cpu_fallback;
        if let Some(block_size) = self.block_size {
            config.db_block_size = block_size;
        }
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn demo_alone_is_valid() {
        let a = parse(&["--demo"]).unwrap();
        assert!(a.demo);
        assert_eq!(a.engine, Engine::CuBlastp);
    }

    #[test]
    fn query_and_db_required_without_demo() {
        assert!(parse(&["--query", "q.fa"]).is_err());
        assert!(parse(&[]).is_err());
        assert!(parse(&["--query", "q.fa", "--db", "d.fa"]).is_ok());
    }

    #[test]
    fn full_flag_set() {
        let a = parse(&[
            "--demo",
            "--engine",
            "cpu",
            "--evalue",
            "0.001",
            "--max-hits",
            "7",
            "--threads",
            "2",
            "--strategy",
            "diagonal",
            "--bins",
            "64",
            "--mask",
            "--no-overlap",
            "--alignments",
        ])
        .unwrap();
        assert_eq!(a.engine, Engine::Cpu);
        assert_eq!(a.evalue, 0.001);
        assert_eq!(a.max_hits, 7);
        assert_eq!(a.threads, 2);
        assert_eq!(a.strategy, ExtensionStrategy::Diagonal);
        assert_eq!(a.bins, 64);
        assert!(a.mask && !a.overlap && a.alignments);
        let p = a.params();
        assert_eq!(p.evalue_cutoff, 0.001);
        assert!(p.mask_low_complexity);
        let c = a.cublastp_config();
        assert_eq!(c.num_bins, 64);
        assert!(!c.overlap);
    }

    #[test]
    fn outfmt_parses_and_rejects() {
        assert_eq!(
            parse(&["--demo", "--outfmt", "tab"]).unwrap().outfmt,
            OutFmt::Tab
        );
        assert_eq!(
            parse(&["--demo", "--outfmt", "6"]).unwrap().outfmt,
            OutFmt::Tab
        );
        assert_eq!(parse(&["--demo"]).unwrap().outfmt, OutFmt::Pairwise);
        assert!(parse(&["--demo", "--outfmt", "xml"]).is_err());
    }

    #[test]
    fn bad_values_rejected() {
        assert!(parse(&["--demo", "--engine", "warp9"]).is_err());
        assert!(parse(&["--demo", "--evalue", "abc"]).is_err());
        assert!(parse(&["--demo", "--bins", "0"]).is_err());
        assert!(parse(&["--demo", "--frobnicate"]).is_err());
        assert!(parse(&["--demo", "--evalue"]).is_err());
    }

    #[test]
    fn help_skips_validation() {
        assert!(parse(&["--help"]).unwrap().help);
    }

    #[test]
    fn seed_mode_parses_and_validates() {
        let d = parse(&["--demo"]).unwrap();
        assert_eq!(d.seed_mode, SeedMode::PerQuery);
        let a = parse(&["--demo", "--seed-mode", "grouped"]).unwrap();
        assert_eq!(a.seed_mode, SeedMode::Grouped);
        assert_eq!(
            parse(&["--demo", "--seed-mode", "per-query"])
                .unwrap()
                .seed_mode,
            SeedMode::PerQuery
        );
        assert!(parse(&["--demo", "--seed-mode", "psychic"]).is_err());
        assert!(parse(&["--demo", "--seed-mode", "grouped", "--engine", "cpu"]).is_err());
    }

    #[test]
    fn gapped_backend_parses_and_validates() {
        let d = parse(&["--demo"]).unwrap();
        assert_eq!(d.gapped_backend, GappedBackend::Cpu);
        assert_eq!(d.cublastp_config().gapped_backend, GappedBackend::Cpu);
        let a = parse(&["--demo", "--gapped-backend", "gpu"]).unwrap();
        assert_eq!(a.gapped_backend, GappedBackend::Gpu);
        assert_eq!(a.cublastp_config().gapped_backend, GappedBackend::Gpu);
        assert_eq!(
            parse(&["--demo", "--gapped-backend", "cpu"])
                .unwrap()
                .gapped_backend,
            GappedBackend::Cpu
        );
        assert!(parse(&["--demo", "--gapped-backend", "fpga"]).is_err());
        assert!(parse(&["--demo", "--gapped-backend", "gpu", "--engine", "cpu"]).is_err());
        // The new fault sites parse in a --fault-plan spec.
        let f = parse(&[
            "--demo",
            "--fault-plan",
            "gapped-launch@b0:x1,gapped-d2h:perm",
        ])
        .unwrap();
        assert_eq!(f.fault_plan.specs().len(), 2);
    }

    #[test]
    fn fault_flags_parse_and_reach_the_config() {
        let a = parse(&[
            "--demo",
            "--fault-plan",
            "launch@b1:x1,alloc:perm",
            "--max-retries",
            "5",
            "--no-cpu-fallback",
        ])
        .unwrap();
        assert_eq!(a.fault_plan.specs().len(), 2);
        assert_eq!(a.max_retries, 5);
        assert!(!a.cpu_fallback);
        let c = a.cublastp_config();
        assert_eq!(c.recovery.max_attempts, 5);
        assert!(!c.recovery.cpu_fallback);
    }

    #[test]
    fn observability_flags_parse() {
        let a = parse(&[
            "--demo",
            "--trace-out",
            "t.json",
            "--metrics-out",
            "m.prom",
            "--phase-table",
        ])
        .unwrap();
        assert_eq!(a.trace_out.as_deref(), Some("t.json"));
        assert_eq!(a.metrics_out.as_deref(), Some("m.prom"));
        assert!(a.phase_table);
        let d = parse(&["--demo"]).unwrap();
        assert!(d.trace_out.is_none() && d.metrics_out.is_none() && !d.phase_table);
        assert!(parse(&["--demo", "--trace-out"]).is_err());
    }

    #[test]
    fn serve_subcommand_parses_and_validates() {
        let d = parse(&["--demo"]).unwrap();
        assert!(!d.serve);
        let a = parse(&[
            "serve",
            "--demo",
            "--requests",
            "12",
            "--workers",
            "3",
            "--queue-capacity",
            "4",
            "--deadline-ms",
            "250",
        ])
        .unwrap();
        assert!(a.serve);
        assert_eq!(a.serve_requests, 12);
        assert_eq!(a.serve_workers, 3);
        assert_eq!(a.serve_queue_capacity, 4);
        assert_eq!(a.serve_deadline_ms, Some(250));
        // `serve` is a subcommand, not a flag: only the first token counts.
        assert!(parse(&["--demo", "serve"]).is_err());
        assert!(parse(&["serve", "--demo", "--requests", "0"]).is_err());
        assert!(parse(&["serve", "--demo", "--workers", "0"]).is_err());
        assert!(parse(&["serve", "--demo", "--queue-capacity", "0"]).is_err());
        assert!(parse(&["serve", "--demo", "--engine", "cpu"]).is_err());
        // Batch-only flags the server would silently ignore.
        assert!(parse(&["serve", "--demo", "--seed-mode", "grouped"]).is_err());
        assert!(parse(&["serve", "--demo", "--shards", "3", "--devices", "2"]).is_err());
    }

    #[test]
    fn db_subcommand_parses_and_validates() {
        let b = parse(&["db", "build", "--db", "d.fa", "--out", "d.cdb"]).unwrap();
        assert_eq!(b.db_cmd, Some(DbCmd::Build));
        assert_eq!(b.out.as_deref(), Some("d.cdb"));
        assert!(b.block_size.is_none());
        let b = parse(&[
            "db",
            "build",
            "--demo",
            "--out",
            "d.cdb",
            "--block-size",
            "64",
        ])
        .unwrap();
        assert_eq!(b.block_size, Some(64));
        let v = parse(&["db", "verify", "d.cdb"]).unwrap();
        assert_eq!(v.db_cmd, Some(DbCmd::Verify));
        assert_eq!(v.db_image.as_deref(), Some("d.cdb"));
        // `db` is a subcommand: only the first token counts.
        assert!(parse(&["--demo", "db", "build"]).is_err());
        assert!(parse(&["db", "explode"]).is_err());
        assert!(parse(&["db"]).is_err());
        assert!(parse(&["db", "build", "--out", "d.cdb"]).is_err()); // no --db/--demo
        assert!(parse(&["db", "build", "--db", "d.fa"]).is_err()); // no --out
        assert!(parse(&["db", "build", "--demo", "--out", "x", "--block-size", "0"]).is_err());
        assert!(parse(&["db", "verify"]).is_err()); // no path
    }

    #[test]
    fn db_shard_subcommand_parses_and_validates() {
        let s = parse(&[
            "db", "shard", "--db", "d.fa", "--out", "dir", "--shards", "4",
        ])
        .unwrap();
        assert_eq!(s.db_cmd, Some(DbCmd::Shard));
        assert_eq!(s.out.as_deref(), Some("dir"));
        assert_eq!(s.shards, 4);
        assert!(parse(&["db", "shard", "--out", "dir"]).is_err()); // no --db/--demo
        assert!(parse(&["db", "shard", "--demo"]).is_err()); // no --out
        assert!(parse(&["db", "shard", "--demo", "--out", "dir", "--shards", "0"]).is_err());
        // An image or a set beside the source would win in the opener.
        assert!(parse(&["db", "shard", "--demo", "--out", "dir", "--db-set", "s"]).is_err());
        assert!(parse(&["db", "build", "--db", "d", "--out", "x", "--db-image", "i"]).is_err());
    }

    #[test]
    fn shard_flags_parse_and_validate() {
        let d = parse(&["--demo"]).unwrap();
        assert_eq!(d.shards, 1);
        assert_eq!(d.devices, 1);
        let a = parse(&["--demo", "--shards", "4", "--devices", "2"]).unwrap();
        assert_eq!((a.shards, a.devices), (4, 2));
        assert!(parse(&["--demo", "--shards", "0"]).is_err());
        assert!(parse(&["--demo", "--devices", "0"]).is_err());
        assert!(parse(&["--demo", "--shards", "2", "--engine", "cpu"]).is_err());
        assert!(parse(&["--demo", "--shards", "2", "--seed-mode", "grouped"]).is_err());
    }

    #[test]
    fn db_set_flag_parses_and_validates() {
        let a = parse(&["--query", "q.fa", "--db-set", "s.cdbset"]).unwrap();
        assert_eq!(a.db_set.as_deref(), Some("s.cdbset"));
        assert!(parse(&["--query", "q.fa", "--db-set", "s", "--db", "d.fa"]).is_err());
        assert!(parse(&["--query", "q.fa", "--db-set", "s", "--db-image", "d.cdb"]).is_err());
        // Whether --block-size / --shards contradict the set is the
        // opener's call (it has to read the manifest): exit 2 from there.
        assert!(parse(&["--query", "q.fa", "--db-set", "s", "--block-size", "8"]).is_ok());
        assert!(parse(&["serve", "--query", "q.fa", "--db-set", "s"]).is_ok());
        assert!(parse(&["--query", "q.fa", "--db-set", "s", "--engine", "cpu"]).is_err());
    }

    #[test]
    fn allvsall_subcommand_parses_and_validates() {
        let a = parse(&[
            "allvsall",
            "--db",
            "d.fa",
            "--shards",
            "3",
            "--devices",
            "2",
        ])
        .unwrap();
        assert!(a.allvsall);
        assert!(a.query.is_none(), "query is optional for all-vs-all");
        assert_eq!(a.shards, 3);
        // `allvsall` is a subcommand: only the first token counts.
        assert!(parse(&["--demo", "allvsall"]).is_err());
        assert!(parse(&["allvsall"]).is_err()); // no db source
        assert!(parse(&["allvsall", "--demo"]).is_ok());
        assert!(parse(&["allvsall", "--db", "d.fa", "--engine", "cpu"]).is_err());
        assert!(parse(&["allvsall", "--db", "d.fa", "--seed-mode", "grouped"]).is_err());
    }

    #[test]
    fn db_image_search_flags_parse_and_validate() {
        let a = parse(&["--query", "q.fa", "--db-image", "d.cdb"]).unwrap();
        assert_eq!(a.db_image.as_deref(), Some("d.cdb"));
        assert!(a.db.is_none());
        // Overriding the block partitioning reaches the config.
        let a = parse(&["--demo", "--block-size", "96"]).unwrap();
        assert_eq!(a.cublastp_config().db_block_size, 96);
        assert_eq!(
            parse(&["--demo"]).unwrap().cublastp_config().db_block_size,
            CuBlastpConfig::default().db_block_size
        );
        assert!(parse(&["--demo", "--block-size", "0"]).is_err());
        assert!(parse(&["--query", "q.fa", "--db", "d.fa", "--db-image", "d.cdb"]).is_err());
        assert!(parse(&["--db-image", "d.cdb"]).is_err()); // still needs --query
    }

    #[test]
    fn bad_fault_flags_rejected() {
        assert!(parse(&["--demo", "--fault-plan", "warpcore:perm"]).is_err());
        assert!(parse(&["--demo", "--fault-plan", "launch@z9"]).is_err());
        assert!(parse(&["--demo", "--max-retries", "0"]).is_err());
        assert!(parse(&["--demo", "--max-retries", "many"]).is_err());
    }
}
