//! Typed errors for the search pipeline.
//!
//! The pipeline distinguishes four failure categories, mirrored in the
//! CLI's exit codes: bad *configuration* (caller bug — reject before any
//! work), bad *input* (malformed query — fail that query alone), *device*
//! faults that survived the recovery policy (bounded retry, then CPU
//! degradation), and *pipeline* faults (a worker thread panicked or died).
//! Each variant carries enough context to print a one-line diagnostic
//! naming the failing site — no backtrace required to know what happened.

use gpu_sim::DeviceError;
use std::fmt;

/// A failure inside the per-block pipeline, the batch executor or the
/// server: a side panicked or a worker disappeared mid-stream. The panic
/// is caught where it happened and turned into this error instead of
/// unwinding through the caller or hanging a peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// A pipeline stage panicked; `side` names it ("gpu side": a block's
    /// device phases on the searching thread, "cpu tail": a block's
    /// gapped extension and traceback, or the device pass's DP and
    /// report, on whichever thread claimed the subject — both at any
    /// `overlap` setting; "batch query setup": building a batch query's
    /// searcher; "batch query": a query's admission check or merge, on
    /// whichever thread ran it; "serve worker": outside the board) and
    /// `payload` is the stringified panic message.
    WorkerPanicked {
        /// Which pipeline stage the panic escaped from.
        side: &'static str,
        /// The panic payload, stringified (best effort).
        payload: String,
    },
    /// A pipeline channel disconnected before the stream completed — the
    /// peer thread died without reporting a panic.
    ChannelClosed {
        /// Which stage observed the disconnect.
        side: &'static str,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::WorkerPanicked { side, payload } => {
                write!(f, "{side} worker panicked: {payload}")
            }
            PipelineError::ChannelClosed { side } => {
                write!(f, "pipeline channel closed early ({side} side)")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// Stringify a panic payload from [`std::panic::catch_unwind`] — the two
/// common shapes (`&str` and `String`) verbatim, anything else opaquely.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Top-level error of a search: what failed and in which category.
///
/// [`SearchError::category`] gives the stable class name the CLI maps to
/// exit codes (`config` → 2, `input` → 3, `device` → 4, `pipeline` → 5,
/// `deadline` → 6, `overloaded` → 7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchError {
    /// Invalid search configuration (e.g. zero block size, retry budget
    /// of zero with fallback disabled, engine/device block-size mismatch).
    Config {
        /// What is wrong with the configuration.
        message: String,
    },
    /// Invalid input (empty query, residues outside the alphabet, …).
    Input {
        /// What is wrong with the input.
        message: String,
    },
    /// A device fault that survived the full recovery policy — retries
    /// exhausted and CPU degradation disabled or impossible.
    Device {
        /// The final device error.
        source: DeviceError,
        /// Database block the fault occurred on.
        block: u32,
        /// Launch attempts made before giving up.
        attempts: u32,
    },
    /// A side of the per-block pipeline, the batch executor or a server
    /// worker failed.
    Pipeline(PipelineError),
    /// The request's deadline expired at a cancellation checkpoint: the
    /// search stopped between database blocks and freed its slot. Carries
    /// partial-phase telemetry — how far the pipeline got before the
    /// budget ran out.
    DeadlineExceeded {
        /// Wall-clock spent (queue wait + partial search) in milliseconds.
        elapsed_ms: u64,
        /// Database blocks fully processed before cancellation.
        blocks_completed: u32,
        /// Total database blocks the search would have covered.
        blocks_total: u32,
    },
    /// The serving layer refused admission: queues or the outstanding
    /// work budget are full (or a tenant exceeded its rate limit). The
    /// caller should retry after the suggested backoff.
    Overloaded {
        /// Suggested client backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// A persistent database image (`.cdb`) failed to build, map, or
    /// validate: truncation, bad magic, version mismatch, CRC failure, or
    /// an inconsistent layout. Corruption is always surfaced as this typed
    /// error — never a panic, never a silently wrong layout.
    Db(cublastp_db::DbError),
}

impl SearchError {
    /// Stable category label ("config" | "input" | "device" | "pipeline"
    /// | "deadline" | "overloaded" | "db").
    pub fn category(&self) -> &'static str {
        match self {
            SearchError::Config { .. } => "config",
            SearchError::Input { .. } => "input",
            SearchError::Device { .. } => "device",
            SearchError::Pipeline(_) => "pipeline",
            SearchError::DeadlineExceeded { .. } => "deadline",
            SearchError::Overloaded { .. } => "overloaded",
            SearchError::Db(_) => "db",
        }
    }

    /// Convenience constructor for configuration errors.
    pub fn config(message: impl Into<String>) -> Self {
        SearchError::Config {
            message: message.into(),
        }
    }

    /// Convenience constructor for input errors.
    pub fn input(message: impl Into<String>) -> Self {
        SearchError::Input {
            message: message.into(),
        }
    }
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::Config { message } => write!(f, "invalid configuration: {message}"),
            SearchError::Input { message } => write!(f, "invalid input: {message}"),
            SearchError::Device {
                source,
                block,
                attempts,
            } => write!(
                f,
                "device fault on block {block} after {attempts} attempt(s): {source}"
            ),
            SearchError::Pipeline(e) => write!(f, "pipeline failure: {e}"),
            SearchError::DeadlineExceeded {
                elapsed_ms,
                blocks_completed,
                blocks_total,
            } => write!(
                f,
                "deadline exceeded after {elapsed_ms} ms \
                 ({blocks_completed}/{blocks_total} blocks completed)"
            ),
            SearchError::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded, retry after {retry_after_ms} ms")
            }
            SearchError::Db(e) => write!(f, "database image [{}]: {e}", e.kind()),
        }
    }
}

impl std::error::Error for SearchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SearchError::Device { source, .. } => Some(source),
            SearchError::Pipeline(e) => Some(e),
            SearchError::Db(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PipelineError> for SearchError {
    fn from(e: PipelineError) -> Self {
        SearchError::Pipeline(e)
    }
}

impl From<cublastp_db::DbError> for SearchError {
    fn from(e: cublastp_db::DbError) -> Self {
        SearchError::Db(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_are_stable() {
        assert_eq!(SearchError::config("x").category(), "config");
        assert_eq!(SearchError::input("x").category(), "input");
        assert_eq!(
            SearchError::Device {
                source: DeviceError::TransferFailed {
                    dir: gpu_sim::TransferDir::DeviceToHost
                },
                block: 2,
                attempts: 3,
            }
            .category(),
            "device"
        );
        assert_eq!(
            SearchError::from(PipelineError::ChannelClosed { side: "cpu" }).category(),
            "pipeline"
        );
        assert_eq!(
            SearchError::DeadlineExceeded {
                elapsed_ms: 120,
                blocks_completed: 2,
                blocks_total: 5,
            }
            .category(),
            "deadline"
        );
        assert_eq!(
            SearchError::Overloaded { retry_after_ms: 50 }.category(),
            "overloaded"
        );
        assert_eq!(
            SearchError::from(cublastp_db::DbError::BadMagic { found: [0; 8] }).category(),
            "db"
        );
    }

    #[test]
    fn db_errors_display_their_kind() {
        let e = SearchError::from(cublastp_db::DbError::UnsupportedVersion {
            found: 9,
            supported: 1,
        });
        let s = e.to_string();
        assert!(
            s.contains("[bad-version]") && s.contains("version 9"),
            "{s}"
        );
        assert!(!s.contains('\n'));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn serving_errors_display_their_telemetry() {
        let d = SearchError::DeadlineExceeded {
            elapsed_ms: 120,
            blocks_completed: 2,
            blocks_total: 5,
        }
        .to_string();
        assert!(d.contains("120 ms") && d.contains("2/5"), "{d}");
        assert!(!d.contains('\n'));
        let o = SearchError::Overloaded { retry_after_ms: 50 }.to_string();
        assert!(o.contains("retry after 50 ms"), "{o}");
    }

    #[test]
    fn display_is_one_line_with_context() {
        let e = SearchError::Device {
            source: DeviceError::LaunchFailed {
                kernel: "hit_sorting".into(),
            },
            block: 5,
            attempts: 3,
        };
        let s = e.to_string();
        assert!(s.contains("block 5") && s.contains("hit_sorting") && s.contains("3 attempt"));
        assert!(!s.contains('\n'));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn panic_messages_stringify_common_payloads() {
        let caught = std::panic::catch_unwind(|| panic!("boom {}", 7)).expect_err("must panic");
        assert_eq!(panic_message(caught.as_ref()), "boom 7");
        let caught = std::panic::catch_unwind(|| panic!("static")).expect_err("must panic");
        assert_eq!(panic_message(caught.as_ref()), "static");
    }
}
