//! Persistent database format (DESIGN.md §3.9): corruption matrix and
//! layout equivalence.
//!
//! Two contracts the on-disk `.cdb` format stands on:
//!
//! 1. **Every corruption is a typed error.** Truncation, a flipped
//!    magic, a future version, a damaged header, section table, or
//!    payload — each maps to a stable [`DbError::kind`], never a panic
//!    and never a silently wrong layout.
//! 2. **The mapped layout is the flattened layout.** A search on a
//!    device database installed from an image is bit-identical to one on
//!    the regenerate-and-flatten path, with zero flatten passes.

use std::sync::{Arc, OnceLock};

use bio_seq::{Sequence, SequenceDb};
use blast_core::SearchParams;
use cublastp::{CuBlastp, CuBlastpConfig, DeviceDb};
use cublastp_db::{build_to_vec, crc32, DbImage, HEADER_LEN};
use gpu_sim::DeviceConfig;
use integration_support::workload;

const BLOCK_SIZE: usize = 16;

struct Fixture {
    query: Sequence,
    db: SequenceDb,
    bytes: Vec<u8>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (query, db) = workload(120, 3 * BLOCK_SIZE, 180, 91);
        let bytes = build_to_vec(&db, BLOCK_SIZE);
        Fixture { query, db, bytes }
    })
}

fn config() -> CuBlastpConfig {
    CuBlastpConfig {
        db_block_size: BLOCK_SIZE,
        ..CuBlastpConfig::default()
    }
}

fn search_key(
    query: &Sequence,
    db: &SequenceDb,
    dev: &Arc<DeviceDb>,
) -> Vec<(usize, i32, u32, u32, u32, u32)> {
    CuBlastp::new(
        query.clone(),
        SearchParams::default(),
        config(),
        DeviceConfig::k20c(),
        db,
    )
    .search_resident(db, dev)
    .expect("fault-free search")
    .report
    .identity_key()
}

#[test]
fn roundtrip_preserves_database_and_search_results() {
    let fx = fixture();
    let img = DbImage::from_bytes(fx.bytes.clone(), "roundtrip").expect("valid image");
    let host = img.to_sequence_db();
    assert_eq!(host.len(), fx.db.len());
    assert_eq!(host.total_residues(), fx.db.total_residues());
    assert_eq!(host.name(), fx.db.name());
    assert_eq!(host.sequences(), fx.db.sequences());

    // The mapped device layout searches bit-identically to the flattened
    // one, without running the flatten loop.
    let flattened = Arc::new(DeviceDb::upload(&fx.db, BLOCK_SIZE));
    let flattens_before = cublastp::flatten_count();
    let mapped = Arc::new(DeviceDb::from_image(&img, 0..img.num_sequences()));
    assert_eq!(cublastp::flatten_count(), flattens_before);
    assert!(mapped.is_mapped());
    assert_eq!(
        search_key(&fx.query, &fx.db, &flattened),
        search_key(&fx.query, &host, &mapped),
        "mapped search diverged from flattened search"
    );
}

/// Patch a TOC entry's offset field to point past the file, recomputing
/// the TOC and header CRCs so only the offset-range check can fire.
fn patch_first_section_offset(bytes: &mut [u8], new_offset: u64) {
    let toc_start = HEADER_LEN;
    // Entry layout: id u32, crc u32, offset u64, len u64.
    bytes[toc_start + 8..toc_start + 16].copy_from_slice(&new_offset.to_le_bytes());
    let section_count = u32::from_le_bytes(bytes[48..52].try_into().expect("4 bytes")) as usize;
    let toc_len = section_count * 24;
    let toc_crc = crc32(&bytes[toc_start..toc_start + toc_len]);
    bytes[52..56].copy_from_slice(&toc_crc.to_le_bytes());
    let header_crc = crc32(&bytes[..60]);
    bytes[60..64].copy_from_slice(&header_crc.to_le_bytes());
}

#[test]
fn corruption_matrix_yields_typed_errors() {
    let good = &fixture().bytes;
    let kind_of = |bytes: Vec<u8>| {
        DbImage::from_bytes(bytes, "corrupt")
            .expect_err("corruption must not validate")
            .kind()
    };

    // Truncations at every structural boundary. Cuts inside the header
    // or TOC fail the length precheck; a cut inside the payload leaves a
    // well-formed TOC whose last section now runs past the file, which
    // the bounds check reports as offset-range — either way typed.
    for cut in [0, 1, HEADER_LEN - 1, HEADER_LEN + 5] {
        assert_eq!(kind_of(good[..cut].to_vec()), "truncated", "cut at {cut}");
    }
    let kind = kind_of(good[..good.len() - 1].to_vec());
    assert!(
        kind == "truncated" || kind == "offset-range",
        "payload truncation yielded {kind:?}"
    );
    // Flipped magic.
    let mut b = good.clone();
    b[0] ^= 0xFF;
    assert_eq!(kind_of(b), "bad-magic");
    // A future format version (otherwise intact header: CRC recomputed).
    let mut b = good.clone();
    b[8..12].copy_from_slice(&99u32.to_le_bytes());
    let header_crc = crc32(&b[..60]);
    b[60..64].copy_from_slice(&header_crc.to_le_bytes());
    assert_eq!(kind_of(b), "bad-version");
    // A damaged header field (CRC not recomputed).
    let mut b = good.clone();
    b[24] ^= 0x01; // num_blocks
    assert_eq!(kind_of(b), "header-corrupt");
    // A damaged section table.
    let mut b = good.clone();
    b[HEADER_LEN + 9] ^= 0x01; // first entry's offset
    assert_eq!(kind_of(b), "toc-crc");
    // A damaged payload byte.
    let mut b = good.clone();
    let last = b.len() - 1;
    b[last] ^= 0x01;
    assert_eq!(kind_of(b), "section-crc");
    // A section offset pointing past the file, CRCs made consistent.
    let mut b = good.clone();
    patch_first_section_offset(&mut b, good.len() as u64 + 1024);
    assert_eq!(kind_of(b), "offset-range");
}

#[test]
fn sampled_byte_flips_are_always_detected() {
    let good = &fixture().bytes;
    for i in (0..good.len()).step_by(101) {
        let mut b = good.clone();
        b[i] ^= 0x10;
        assert!(
            DbImage::from_bytes(b, "flip").is_err(),
            "flip at byte {i} validated"
        );
    }
}
