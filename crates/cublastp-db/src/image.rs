//! Reader side of the `.cdb` format: map, validate, and serve zero-copy
//! views of a database image.
//!
//! [`DbImage::open`] maps the file into a single [`MappedRegion`] arena
//! (the simulated analogue of `mmap`: one read into an immutable,
//! reference-counted buffer) and validates the whole image — magic,
//! version, header CRC, section-table CRC, section bounds, per-section
//! CRCs, and structural invariants. Every corruption becomes a typed
//! [`DbError`]; the loader never panics and never yields a wrong layout.
//!
//! Block residue views are subslices of the shared arena, so building a
//! resident `DeviceDb` from an image performs no flatten pass and no
//! copy of residue data. The arena is released ("unmapped") only when
//! the last `Arc` clone drops — observable through [`unmap_count`], which
//! the hot-swap tests use to pin down refcount-zero unmap ordering.

use crate::crc::crc32;
use crate::error::DbError;
use crate::format::{
    block_count, section, section_name, FORMAT_VERSION, HEADER_CRC_OFFSET, HEADER_LEN, MAGIC,
    SECTIONS, TOC_ENTRY_LEN,
};
use bio_seq::alphabet::ALPHABET_SIZE;
use bio_seq::{Sequence, SequenceDb};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static MAPS: AtomicU64 = AtomicU64::new(0);
static UNMAPS: AtomicU64 = AtomicU64::new(0);

#[cfg(test)]
thread_local! {
    /// The maps and unmaps this thread made. The crate's unit tests run
    /// on many threads of one process and map images concurrently, so
    /// there the counters read the calling thread's own.
    static OWN: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// Count one map (`map`) or unmap, and under test the calling thread's.
fn count(map: bool) {
    let counter = if map { &MAPS } else { &UNMAPS };
    counter.fetch_add(1, Ordering::SeqCst);
    #[cfg(test)]
    OWN.with(|own| {
        let (maps, unmaps) = own.get();
        own.set((maps + u64::from(map), unmaps + u64::from(!map)));
    });
}

/// Number of regions mapped since process start (under the crate's unit
/// tests, by the calling thread).
pub fn map_count() -> u64 {
    #[cfg(test)]
    return OWN.with(|own| own.get().0);
    #[cfg(not(test))]
    MAPS.load(Ordering::SeqCst)
}

/// Number of regions unmapped (dropped at refcount zero) since process
/// start (under the crate's unit tests, by the calling thread).
/// `map_count() - unmap_count()` is the number of live mappings.
pub fn unmap_count() -> u64 {
    #[cfg(test)]
    return OWN.with(|own| own.get().1);
    #[cfg(not(test))]
    UNMAPS.load(Ordering::SeqCst)
}

/// An immutable mapped database arena.
///
/// This is the process's view of one `.cdb` file. All block residue
/// views alias its bytes; dropping the last reference "unmaps" it and
/// bumps [`unmap_count`].
pub struct MappedRegion {
    bytes: Box<[u8]>,
    source: String,
}

impl MappedRegion {
    fn new(bytes: Vec<u8>, source: String) -> Self {
        count(true);
        Self {
            bytes: bytes.into_boxed_slice(),
            source,
        }
    }

    /// The mapped bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mapped length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the mapping is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Where the mapping came from (file path or an in-memory label).
    pub fn source(&self) -> &str {
        &self.source
    }
}

impl Drop for MappedRegion {
    fn drop(&mut self) {
        count(false);
    }
}

impl std::fmt::Debug for MappedRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedRegion")
            .field("source", &self.source)
            .field("len", &self.bytes.len())
            .finish()
    }
}

/// Per-section detail for [`DbImage::summary`] reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionReport {
    /// Stable section name.
    pub name: &'static str,
    /// Payload length in bytes.
    pub len: u64,
    /// CRC-32 recorded in the section table (verified at open).
    pub crc: u32,
}

/// Validated summary of an open image, for `db verify` output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifySummary {
    /// Format version of the image.
    pub format_version: u32,
    /// Device block size (sequences per block; 0 = single block).
    pub block_size: usize,
    /// Number of device blocks.
    pub blocks: usize,
    /// Number of sequences.
    pub sequences: usize,
    /// Total residues in the arena.
    pub residues: usize,
    /// Total image size in bytes.
    pub bytes: usize,
    /// Per-section lengths and CRCs.
    pub sections: Vec<SectionReport>,
}

/// A validated, mapped `.cdb` database image.
#[derive(Debug, Clone)]
pub struct DbImage {
    region: Arc<MappedRegion>,
    format_version: u32,
    block_size: usize,
    num_blocks: usize,
    residues: Range<usize>,
    seq_offsets: Vec<usize>,
    ids: Range<usize>,
    id_offsets: Vec<usize>,
    descs: Range<usize>,
    desc_offsets: Vec<usize>,
    name_range: Range<usize>,
    sections: Vec<SectionReport>,
}

fn range_of(
    file_len: u64,
    offset: u64,
    len: u64,
    what: impl Into<String>,
) -> Result<Range<usize>, DbError> {
    let end = offset.checked_add(len).ok_or_else(|| DbError::Layout {
        message: "section range overflows u64".into(),
    })?;
    if end > file_len {
        return Err(DbError::OffsetOutOfRange {
            what: what.into(),
            offset,
            len,
            bound: file_len,
        });
    }
    Ok(offset as usize..end as usize)
}

fn decode_offsets(
    bytes: &[u8],
    expected_entries: usize,
    payload_len: u64,
    what: &str,
) -> Result<Vec<usize>, DbError> {
    if bytes.len() != expected_entries * 8 {
        return Err(DbError::Layout {
            message: format!(
                "{what} holds {} bytes, expected {} ({expected_entries} u64 entries)",
                bytes.len(),
                expected_entries * 8
            ),
        });
    }
    let mut out = Vec::with_capacity(expected_entries);
    let mut prev = 0u64;
    for (i, chunk) in bytes.chunks_exact(8).enumerate() {
        let v = le_u64(chunk);
        if i == 0 && v != 0 {
            return Err(DbError::Layout {
                message: format!("{what} must start at 0, found {v}"),
            });
        }
        if v < prev {
            return Err(DbError::Layout {
                message: format!("{what} not monotone at entry {i}: {v} < {prev}"),
            });
        }
        if v > payload_len {
            return Err(DbError::OffsetOutOfRange {
                what: format!("{what} entry {i}"),
                offset: v,
                len: 0,
                bound: payload_len,
            });
        }
        prev = v;
        out.push(v as usize);
    }
    if prev != payload_len {
        return Err(DbError::Layout {
            message: format!("{what} ends at {prev}, payload holds {payload_len} bytes"),
        });
    }
    Ok(out)
}

fn validate_utf8(bytes: &[u8], what: &str) -> Result<(), DbError> {
    std::str::from_utf8(bytes)
        .map(|_| ())
        .map_err(|e| DbError::Layout {
            message: format!("{what} not valid UTF-8: {e}"),
        })
}

/// Infallible little-endian reads over already-bounds-checked slices.
/// A short slice zero-fills instead of panicking; the length and CRC
/// checks upstream make that state unreachable in practice, and the
/// no-panic contract (DESIGN.md §3.3) holds either way.
fn le_u32(bytes: &[u8]) -> u32 {
    let mut buf = [0u8; 4];
    for (d, s) in buf.iter_mut().zip(bytes) {
        *d = *s;
    }
    u32::from_le_bytes(buf)
}

fn le_u64(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    for (d, s) in buf.iter_mut().zip(bytes) {
        *d = *s;
    }
    u64::from_le_bytes(buf)
}

/// Read a string slice whose UTF-8 validity was checked at open; the
/// empty-string fallback is unreachable but keeps this panic-free.
fn validated_str(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).unwrap_or_default()
}

impl DbImage {
    /// Map and validate the image at `path`.
    pub fn open(path: &std::path::Path) -> Result<Self, DbError> {
        let bytes = std::fs::read(path).map_err(|e| DbError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Self::from_bytes(bytes, path.display().to_string())
    }

    /// Validate an in-memory image. `source` labels the mapping in
    /// diagnostics (use the file path, or a synthetic label in tests).
    pub fn from_bytes(bytes: Vec<u8>, source: impl Into<String>) -> Result<Self, DbError> {
        let file_len = bytes.len() as u64;

        // Header: presence, magic, version, self-consistency, CRC.
        if bytes.len() < HEADER_LEN {
            return Err(DbError::Truncated {
                what: "header",
                needed: HEADER_LEN as u64,
                actual: file_len,
            });
        }
        if bytes[0..8] != MAGIC {
            let mut found = [0u8; 8];
            found.copy_from_slice(&bytes[0..8]);
            return Err(DbError::BadMagic { found });
        }
        let rd_u32 = |off: usize| le_u32(&bytes[off..off + 4]);
        let rd_u64 = |off: usize| le_u64(&bytes[off..off + 8]);
        let version = rd_u32(8);
        if version != FORMAT_VERSION {
            return Err(DbError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let header_len = rd_u32(12);
        if header_len as usize != HEADER_LEN {
            return Err(DbError::HeaderCorrupt {
                message: format!("header length field {header_len}, expected {HEADER_LEN}"),
            });
        }
        let stored_hcrc = rd_u32(HEADER_CRC_OFFSET);
        let computed_hcrc = crc32(&bytes[..HEADER_CRC_OFFSET]);
        if stored_hcrc != computed_hcrc {
            return Err(DbError::HeaderCorrupt {
                message: format!(
                    "header CRC mismatch: stored {stored_hcrc:#010x}, computed {computed_hcrc:#010x}"
                ),
            });
        }
        let block_size = rd_u64(16) as usize;
        let num_blocks = rd_u64(24) as usize;
        let num_sequences = rd_u64(32) as usize;
        let total_residues = rd_u64(40) as usize;
        let section_count = rd_u32(48) as usize;
        let stored_toc_crc = rd_u32(52);
        if section_count != SECTIONS.len() {
            return Err(DbError::HeaderCorrupt {
                message: format!(
                    "section count {section_count}, version {FORMAT_VERSION} writes {}",
                    SECTIONS.len()
                ),
            });
        }
        if num_blocks != block_count(num_sequences, block_size) {
            return Err(DbError::HeaderCorrupt {
                message: format!(
                    "block count {num_blocks} inconsistent with {num_sequences} sequences at block size {block_size}"
                ),
            });
        }

        // Section table: presence, CRC, bounds, contiguity, per-section CRC.
        let toc_end = HEADER_LEN + section_count * TOC_ENTRY_LEN;
        if bytes.len() < toc_end {
            return Err(DbError::Truncated {
                what: "section table",
                needed: toc_end as u64,
                actual: file_len,
            });
        }
        let toc = &bytes[HEADER_LEN..toc_end];
        let computed_toc_crc = crc32(toc);
        if stored_toc_crc != computed_toc_crc {
            return Err(DbError::TocCorrupt {
                stored: stored_toc_crc,
                computed: computed_toc_crc,
            });
        }
        let mut ranges: Vec<Range<usize>> = Vec::with_capacity(section_count);
        let mut sections: Vec<SectionReport> = Vec::with_capacity(section_count);
        let mut expected_offset = toc_end as u64;
        for (i, entry) in toc.chunks_exact(TOC_ENTRY_LEN).enumerate() {
            let id = le_u32(&entry[0..4]);
            let stored_crc = le_u32(&entry[4..8]);
            let offset = le_u64(&entry[8..16]);
            let len = le_u64(&entry[16..24]);
            let (want_id, name) = SECTIONS[i];
            if id != want_id {
                return Err(DbError::Layout {
                    message: format!(
                        "section table entry {i} has id {id} ('{}'), expected {want_id} ('{name}')",
                        section_name(id)
                    ),
                });
            }
            let range = range_of(file_len, offset, len, format!("section '{name}'"))?;
            if offset != expected_offset {
                return Err(DbError::Layout {
                    message: format!(
                        "section '{name}' starts at {offset}, expected contiguous {expected_offset}"
                    ),
                });
            }
            expected_offset = range.end as u64;
            let computed_crc = crc32(&bytes[range.clone()]);
            if stored_crc != computed_crc {
                return Err(DbError::SectionCrc {
                    section: name,
                    stored: stored_crc,
                    computed: computed_crc,
                });
            }
            ranges.push(range);
            sections.push(SectionReport {
                name,
                len,
                crc: stored_crc,
            });
        }
        if expected_offset != file_len {
            return Err(DbError::Layout {
                message: format!(
                    "{} trailing bytes after last section",
                    file_len - expected_offset
                ),
            });
        }

        // Structural invariants across sections.
        let residues = ranges[0].clone();
        if residues.len() != total_residues {
            return Err(DbError::Layout {
                message: format!(
                    "residue arena holds {} bytes, header says {total_residues}",
                    residues.len()
                ),
            });
        }
        for (i, &r) in bytes[residues.clone()].iter().enumerate() {
            if (r as usize) >= ALPHABET_SIZE {
                return Err(DbError::Layout {
                    message: format!("residue {i} has encoding {r}, alphabet size {ALPHABET_SIZE}"),
                });
            }
        }
        let entries = num_sequences + 1;
        let seq_offsets = decode_offsets(
            &bytes[ranges[1].clone()],
            entries,
            residues.len() as u64,
            "seq-offsets",
        )?;
        let ids = ranges[2].clone();
        let id_offsets = decode_offsets(
            &bytes[ranges[3].clone()],
            entries,
            ids.len() as u64,
            "id-offsets",
        )?;
        let descs = ranges[4].clone();
        let desc_offsets = decode_offsets(
            &bytes[ranges[5].clone()],
            entries,
            descs.len() as u64,
            "desc-offsets",
        )?;
        let name_range = ranges[6].clone();
        validate_utf8(&bytes[ids.clone()], "id bytes")?;
        validate_utf8(&bytes[descs.clone()], "description bytes")?;
        validate_utf8(&bytes[name_range.clone()], "database name")?;

        Ok(Self {
            region: Arc::new(MappedRegion::new(bytes, source.into())),
            format_version: version,
            block_size,
            num_blocks,
            residues,
            seq_offsets,
            ids,
            id_offsets,
            descs,
            desc_offsets,
            name_range,
            sections,
        })
    }

    /// The shared mapped arena this image's views alias.
    pub fn region(&self) -> &Arc<MappedRegion> {
        &self.region
    }

    /// Format version of the image.
    pub fn format_version(&self) -> u32 {
        self.format_version
    }

    /// Device block size the image was built for (0 = single block).
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of device blocks.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Number of sequences.
    pub fn num_sequences(&self) -> usize {
        self.seq_offsets.len() - 1
    }

    /// Total residues across all sequences.
    pub fn total_residues(&self) -> usize {
        self.residues.len()
    }

    /// Database name stored in the image.
    pub fn name(&self) -> &str {
        validated_str(&self.region.bytes()[self.name_range.clone()])
    }

    /// Range of the residue arena within [`Self::region`]'s bytes.
    pub fn residues_range(&self) -> Range<usize> {
        self.residues.clone()
    }

    /// Arena-relative prefix offsets, `num_sequences + 1` entries.
    pub fn seq_offsets(&self) -> &[usize] {
        &self.seq_offsets
    }

    /// Residues of sequence `i`, zero-copy from the arena.
    pub fn seq_residues(&self, i: usize) -> &[u8] {
        let start = self.residues.start + self.seq_offsets[i];
        let end = self.residues.start + self.seq_offsets[i + 1];
        &self.region.bytes()[start..end]
    }

    /// Identifier of sequence `i`.
    pub fn seq_id(&self, i: usize) -> &str {
        let start = self.ids.start + self.id_offsets[i];
        let end = self.ids.start + self.id_offsets[i + 1];
        validated_str(&self.region.bytes()[start..end])
    }

    /// Description line of sequence `i`.
    pub fn seq_desc(&self, i: usize) -> &str {
        let start = self.descs.start + self.desc_offsets[i];
        let end = self.descs.start + self.desc_offsets[i + 1];
        validated_str(&self.region.bytes()[start..end])
    }

    /// Sequence `i`, its residues copied out of the arena.
    pub fn sequence(&self, i: usize) -> Sequence {
        let mut s = Sequence::from_residues(self.seq_id(i), self.seq_residues(i).to_vec());
        s.description = self.seq_desc(i).to_string();
        s
    }

    /// Rebuild an owned [`SequenceDb`] equal to the one the image was
    /// built from (same name, ids, descriptions, residues).
    pub fn to_sequence_db(&self) -> SequenceDb {
        let seqs = (0..self.num_sequences()).map(|i| self.sequence(i));
        SequenceDb::new(self.name(), seqs.collect())
    }

    /// Post-validation summary for `db verify` reporting. All checks ran
    /// at open; this reports what was verified.
    pub fn summary(&self) -> VerifySummary {
        VerifySummary {
            format_version: self.format_version,
            block_size: self.block_size,
            blocks: self.num_blocks,
            sequences: self.num_sequences(),
            residues: self.total_residues(),
            bytes: self.region.len(),
            sections: self.sections.clone(),
        }
    }
}

// Silence the unused-import lint for the section module: ids are consumed
// through `SECTIONS`, but the reader logic documents itself against them.
const _: u32 = section::RESIDUES;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::build_to_vec;

    fn tiny_db() -> SequenceDb {
        SequenceDb::new(
            "tiny",
            vec![
                Sequence::from_bytes("s0", b"ARNDCQ"),
                Sequence::from_bytes("s1", b"MKVLW"),
                Sequence::from_bytes("s2", b"GHILKMFPST"),
            ],
        )
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let db = tiny_db();
        let bytes = build_to_vec(&db, 2);
        let img = DbImage::from_bytes(bytes, "test").unwrap();
        assert_eq!(img.format_version(), FORMAT_VERSION);
        assert_eq!(img.block_size(), 2);
        assert_eq!(img.num_blocks(), 2);
        assert_eq!(img.num_sequences(), 3);
        assert_eq!(img.total_residues(), 21);
        assert_eq!(img.name(), "tiny");
        assert_eq!(img.seq_id(1), "s1");
        assert_eq!(img.seq_residues(1), db.sequences()[1].residues());
        let back = img.to_sequence_db();
        assert_eq!(back.name(), db.name());
        assert_eq!(back.sequences(), db.sequences());
    }

    #[test]
    fn map_and_unmap_are_counted() {
        let before_maps = map_count();
        let before_unmaps = unmap_count();
        let img = DbImage::from_bytes(build_to_vec(&tiny_db(), 0), "count-test").unwrap();
        assert_eq!(map_count(), before_maps + 1);
        let second = img.clone();
        drop(img);
        // A live clone still pins the mapping.
        assert_eq!(unmap_count(), before_unmaps);
        drop(second);
        assert_eq!(unmap_count(), before_unmaps + 1);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = build_to_vec(&tiny_db(), 2);
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x55;
            assert!(
                DbImage::from_bytes(corrupt, "flip").is_err(),
                "flip at byte {i} must be detected"
            );
        }
    }

    #[test]
    fn truncations_are_typed() {
        let bytes = build_to_vec(&tiny_db(), 2);
        for cut in [0usize, 1, 63, HEADER_LEN, HEADER_LEN + 10, bytes.len() - 1] {
            let err = DbImage::from_bytes(bytes[..cut].to_vec(), "trunc").unwrap_err();
            assert!(
                matches!(
                    err.kind(),
                    "truncated" | "offset-range" | "layout" | "section-crc"
                ),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn open_missing_file_is_io_error() {
        let err = DbImage::open(std::path::Path::new("/nonexistent/no.cdb")).unwrap_err();
        assert_eq!(err.kind(), "io");
    }
}
