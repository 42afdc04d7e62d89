//! Per-shard image sets: one `.cdb` image per database shard plus a
//! small text manifest tying them together (DESIGN.md §3.10).
//!
//! A shard set is how the sharded engine loads a large database without
//! ever materialising it whole: each shard maps its own image zero-copy,
//! and the manifest carries the *global* sequence/residue totals the
//! cross-shard Karlin–Altschul correction needs — the statistics a lone
//! shard image cannot know. Format, one record per line:
//!
//! ```text
//! cdbset v1
//! name swissprot
//! block_size 1024
//! sequences 180000
//! residues 66000000
//! shard shard000.cdb 0 60000 22000000
//! shard shard001.cdb 60000 60000 22000000
//! shard shard002.cdb 120000 60000 22000000
//! ```
//!
//! `shard <file> <start> <sequences> <residues>`: file path relative to
//! the manifest, global index of the shard's first sequence, and the
//! shard's own counts. [`ShardSetManifest::validate`] checks the shards
//! tile the database exactly (contiguous starts, totals that sum); the
//! loader re-checks every image against its manifest line, so a swapped
//! or stale shard file is a typed error, not silent wrong statistics.

use crate::error::DbError;
use crate::format::build_to_file;
use crate::image::DbImage;
use bio_seq::{Sequence, SequenceDb};
use std::path::{Path, PathBuf};

/// Manifest version tag on the first line.
pub const SHARD_SET_VERSION: &str = "cdbset v1";

/// One shard's line in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// Image file path, relative to the manifest's directory.
    pub file: String,
    /// Global database index of the shard's first sequence.
    pub start: usize,
    /// Sequences in the shard.
    pub sequences: usize,
    /// Residues in the shard.
    pub residues: usize,
}

/// A parsed shard-set manifest: global statistics plus the shard roster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSetManifest {
    /// Database name.
    pub name: String,
    /// Block size every shard image was built at.
    pub block_size: usize,
    /// Global sequence count across all shards.
    pub sequences: usize,
    /// Global residue count across all shards — the Karlin–Altschul
    /// search-space the sharded engine distributes to every searcher.
    pub residues: usize,
    /// The shards, in global database order.
    pub shards: Vec<ShardEntry>,
}

fn layout(message: impl Into<String>) -> DbError {
    DbError::Layout {
        message: message.into(),
    }
}

impl ShardSetManifest {
    /// Render the manifest in its canonical text form (deterministic:
    /// byte-identical manifests for identical inputs).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(SHARD_SET_VERSION);
        out.push('\n');
        out.push_str(&format!("name {}\n", self.name));
        out.push_str(&format!("block_size {}\n", self.block_size));
        out.push_str(&format!("sequences {}\n", self.sequences));
        out.push_str(&format!("residues {}\n", self.residues));
        for s in &self.shards {
            out.push_str(&format!(
                "shard {} {} {} {}\n",
                s.file, s.start, s.sequences, s.residues
            ));
        }
        out
    }

    /// Parse a manifest from its text form. Malformed lines are
    /// [`DbError::Layout`] with a message naming the offending line.
    pub fn parse(text: &str) -> Result<Self, DbError> {
        let mut lines = text.lines();
        match lines.next() {
            Some(v) if v.trim() == SHARD_SET_VERSION => {}
            Some(v) => {
                return Err(layout(format!(
                "unsupported shard-set version line '{}' (this build reads '{SHARD_SET_VERSION}')",
                v.trim()
            )))
            }
            None => return Err(layout("empty shard-set manifest")),
        }
        let mut name = None;
        let mut block_size = None;
        let mut sequences = None;
        let mut residues = None;
        let mut shards = Vec::new();
        for (lineno, line) in lines.enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || layout(format!("malformed manifest line {}: '{line}'", lineno + 2));
            let mut parts = line.split_whitespace();
            let key = parts.next().ok_or_else(bad)?;
            match key {
                "name" => name = Some(parts.next().ok_or_else(bad)?.to_string()),
                "block_size" => {
                    block_size = Some(parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?)
                }
                "sequences" => {
                    sequences = Some(parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?)
                }
                "residues" => {
                    residues = Some(parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?)
                }
                "shard" => {
                    let file = parts.next().ok_or_else(bad)?.to_string();
                    let start = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                    let nseq = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                    let nres = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                    shards.push(ShardEntry {
                        file,
                        start,
                        sequences: nseq,
                        residues: nres,
                    });
                }
                other => return Err(layout(format!("unknown manifest key '{other}'"))),
            }
            if parts.next().is_some() {
                return Err(bad());
            }
        }
        let manifest = Self {
            name: name.ok_or_else(|| layout("manifest missing 'name'"))?,
            block_size: block_size.ok_or_else(|| layout("manifest missing 'block_size'"))?,
            sequences: sequences.ok_or_else(|| layout("manifest missing 'sequences'"))?,
            residues: residues.ok_or_else(|| layout("manifest missing 'residues'"))?,
            shards,
        };
        manifest.validate()?;
        Ok(manifest)
    }

    /// Check the shards tile the database exactly: contiguous starts from
    /// zero and per-shard counts that sum to the global totals.
    pub fn validate(&self) -> Result<(), DbError> {
        if self.shards.is_empty() {
            return Err(layout("shard set has no shards"));
        }
        let mut expect_start = 0usize;
        let mut residues = 0usize;
        for (i, s) in self.shards.iter().enumerate() {
            if s.start != expect_start {
                return Err(layout(format!(
                    "shard {i} starts at {}, expected {expect_start} (shards must tile contiguously)",
                    s.start
                )));
            }
            expect_start += s.sequences;
            residues += s.residues;
        }
        if expect_start != self.sequences {
            return Err(layout(format!(
                "shard sequence counts sum to {expect_start}, manifest says {}",
                self.sequences
            )));
        }
        if residues != self.residues {
            return Err(layout(format!(
                "shard residue counts sum to {residues}, manifest says {}",
                self.residues
            )));
        }
        Ok(())
    }

    /// Write the manifest next to its shard images (atomic
    /// write-then-rename, like the image writer).
    pub fn save(&self, path: &Path) -> Result<(), DbError> {
        let io_err = |e: std::io::Error| DbError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        };
        let tmp = path.with_extension("cdbset.tmp");
        std::fs::write(&tmp, self.to_text()).map_err(io_err)?;
        std::fs::rename(&tmp, path).map_err(io_err)?;
        Ok(())
    }

    /// Load and parse a manifest file.
    pub fn load(path: &Path) -> Result<Self, DbError> {
        let text = std::fs::read_to_string(path).map_err(|e| DbError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Self::parse(&text)
    }

    /// Absolute paths of the shard images, resolved against the
    /// manifest's directory.
    pub fn shard_paths(&self, manifest_path: &Path) -> Vec<PathBuf> {
        let dir = manifest_path.parent().unwrap_or_else(|| Path::new("."));
        self.shards.iter().map(|s| dir.join(&s.file)).collect()
    }

    /// Open every shard image, re-validating each against its manifest
    /// line (block size, sequence and residue counts) so a swapped or
    /// stale shard file fails loudly instead of corrupting statistics.
    pub fn open_images(&self, manifest_path: &Path) -> Result<Vec<DbImage>, DbError> {
        let mut images = Vec::with_capacity(self.shards.len());
        for (entry, path) in self.shards.iter().zip(self.shard_paths(manifest_path)) {
            let img = DbImage::open(&path)?;
            if img.block_size() != self.block_size {
                return Err(layout(format!(
                    "shard '{}' was built at block size {}, shard set wants {}",
                    entry.file,
                    img.block_size(),
                    self.block_size
                )));
            }
            if img.num_sequences() != entry.sequences || img.total_residues() != entry.residues {
                return Err(layout(format!(
                    "shard '{}' holds {} sequences / {} residues, manifest says {} / {}",
                    entry.file,
                    img.num_sequences(),
                    img.total_residues(),
                    entry.sequences,
                    entry.residues
                )));
            }
            images.push(img);
        }
        Ok(images)
    }
}

/// The even cut (mpiBLAST segmentation): the first index of each of
/// `num_shards` (at least one) contiguous near-equal shards of `len`
/// sequences; a cut wider than the database ends in empty shards.
pub fn even_split(len: usize, num_shards: usize) -> Vec<usize> {
    let n = num_shards.max(1);
    let shard_size = len.div_ceil(n).max(1);
    (0..n).map(|i| (i * shard_size).min(len)).collect()
}

/// Split `db` at [`even_split`] — the cut `ShardedDb::open` makes — and
/// write one `.cdb` image per shard into `dir` (`shard000.cdb`, …) plus
/// a `shards.cdbset` manifest; returns the manifest and its path.
pub fn build_shard_set(
    db: &SequenceDb,
    block_size: usize,
    num_shards: usize,
    dir: &Path,
) -> Result<(ShardSetManifest, PathBuf), DbError> {
    let starts = even_split(db.len(), num_shards);
    let mut shards = Vec::with_capacity(starts.len());
    for (index, &start) in starts.iter().enumerate() {
        let end = starts.get(index + 1).copied().unwrap_or(db.len());
        let seqs: Vec<Sequence> = db.sequences()[start..end].to_vec();
        let residues: usize = seqs.iter().map(|s| s.len()).sum();
        let local = SequenceDb::new(format!("{}:{index}", db.name()), seqs);
        let file = format!("shard{index:03}.cdb");
        build_to_file(&local, block_size, &dir.join(&file))?;
        shards.push(ShardEntry {
            file,
            start,
            sequences: end - start,
            residues,
        });
    }
    let manifest = ShardSetManifest {
        name: db.name().to_string(),
        block_size,
        sequences: db.len(),
        residues: db.total_residues(),
        shards,
    };
    let path = dir.join("shards.cdbset");
    manifest.save(&path)?;
    Ok((manifest, path))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_db(n: usize) -> SequenceDb {
        let seqs = (0..n)
            .map(|i| {
                Sequence::from_bytes(
                    format!("s{i}"),
                    b"MKVLWAARNDCQEGHILKMF".get(..10 + i % 10).unwrap(),
                )
            })
            .collect();
        SequenceDb::new("shardset-demo", seqs)
    }

    #[test]
    fn roundtrip_build_load_search_totals() {
        let db = demo_db(23);
        let dir = std::env::temp_dir().join(format!("cdbset-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let (manifest, path) = build_shard_set(&db, 4, 5, &dir).expect("build shard set");
        assert_eq!(manifest.shards.len(), 5);
        assert_eq!(manifest.sequences, 23);
        let loaded = ShardSetManifest::load(&path).expect("load manifest");
        assert_eq!(loaded, manifest);
        let images = loaded.open_images(&path).expect("open shards");
        assert_eq!(images.len(), 5);
        let total: usize = images.iter().map(|i| i.num_sequences()).sum();
        assert_eq!(total, db.len());
        // Reassembled sequences equal the original database, in order.
        let mut all = Vec::new();
        for img in &images {
            all.extend(img.to_sequence_db().sequences().to_vec());
        }
        assert_eq!(all, db.sequences());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn text_roundtrip_is_canonical() {
        let m = ShardSetManifest {
            name: "nr".into(),
            block_size: 1024,
            sequences: 10,
            residues: 900,
            shards: vec![
                ShardEntry {
                    file: "shard000.cdb".into(),
                    start: 0,
                    sequences: 6,
                    residues: 500,
                },
                ShardEntry {
                    file: "shard001.cdb".into(),
                    start: 6,
                    sequences: 4,
                    residues: 400,
                },
            ],
        };
        let text = m.to_text();
        let parsed = ShardSetManifest::parse(&text).expect("parse");
        assert_eq!(parsed, m);
        assert_eq!(parsed.to_text(), text, "canonical form is stable");
    }

    #[test]
    fn malformed_manifests_are_typed_layout_errors() {
        let cases = [
            ("", "empty"),
            ("cdbset v9\nname x\n", "version"),
            (
                "cdbset v1\nname x\nblock_size 4\nsequences 1\nresidues 5\n",
                "no shards",
            ),
            (
                "cdbset v1\nname x\nblock_size 4\nsequences 1\nresidues 5\nshard a.cdb 3 1 5\n",
                "bad start",
            ),
            (
                "cdbset v1\nname x\nblock_size 4\nsequences 2\nresidues 5\nshard a.cdb 0 1 5\n",
                "bad sum",
            ),
            (
                "cdbset v1\nname x\nblock_size nope\nsequences 1\nresidues 5\nshard a.cdb 0 1 5\n",
                "bad number",
            ),
            (
                "cdbset v1\nname x\nblock_size 4\nsequences 1\nresidues 5\nshard a.cdb 0 1\n",
                "short shard line",
            ),
        ];
        for (text, what) in cases {
            let err = ShardSetManifest::parse(text).expect_err(what);
            assert_eq!(err.kind(), "layout", "{what}: {err}");
        }
    }

    #[test]
    fn stale_shard_image_is_rejected() {
        let db = demo_db(9);
        let dir = std::env::temp_dir().join(format!("cdbset-stale-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let (_, path) = build_shard_set(&db, 4, 3, &dir).expect("build");
        // Overwrite shard 1 with an image of the wrong shape.
        let other = demo_db(2);
        crate::format::build_to_file(&other, 4, &dir.join("shard001.cdb")).expect("overwrite");
        let manifest = ShardSetManifest::load(&path).expect("manifest still fine");
        let err = manifest.open_images(&path).expect_err("stale shard");
        assert_eq!(err.kind(), "layout");
        std::fs::remove_dir_all(&dir).ok();
    }
}
