//! # cublastp-db
//!
//! Versioned on-disk format for the flattened cuBLASTP device layout
//! (DESIGN.md §3.9). A `.cdb` image stores exactly the byte layout
//! [`DeviceDb`](https://docs.rs/cublastp) holds after flattening — one
//! contiguous residue arena plus prefix-offset arrays — behind a
//! checksummed header, so a process can map it straight into the
//! resident cache with no generate and no flatten pass.
//!
//! * [`mod@format`] — magic / version constants and the deterministic writer
//!   ([`build_to_vec`], [`build_to_file`]).
//! * [`image`] — the validating reader ([`DbImage`]) and the shared
//!   mapped arena ([`MappedRegion`]) whose refcount governs unmap.
//! * [`error`] — the typed [`DbError`] taxonomy; every corruption class
//!   has a stable [`DbError::kind`] label the CI matrix asserts on.
//! * [`crc`] — in-crate CRC-32 (IEEE), zlib-compatible.
//!
//! ```
//! use bio_seq::{Sequence, SequenceDb};
//! use cublastp_db::{build_to_vec, DbImage};
//!
//! let db = SequenceDb::new("demo", vec![Sequence::from_bytes("s0", b"MKVLWAARND")]);
//! let bytes = build_to_vec(&db, 4);
//! let img = DbImage::from_bytes(bytes, "in-memory").expect("valid image");
//! assert_eq!(img.to_sequence_db().sequences(), db.sequences());
//! ```

// Library code returns typed errors instead of panicking (DESIGN.md §3.3);
// `cargo clippy -- -D warnings` in CI enforces it outside test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod error;
pub mod format;
pub mod image;
pub mod shards;

pub use crc::crc32;
pub use error::DbError;
pub use format::{
    block_count, build_to_file, build_to_vec, BuildSummary, FORMAT_VERSION, HEADER_LEN, MAGIC,
};
pub use image::{map_count, unmap_count, DbImage, MappedRegion, SectionReport, VerifySummary};
pub use shards::{build_shard_set, even_split, ShardEntry, ShardSetManifest, SHARD_SET_VERSION};
