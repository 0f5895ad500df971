//! Errors raised by the durability layer.

use std::fmt;
use std::path::{Path, PathBuf};

use modb_core::CoreError;

/// Errors raised by the write-ahead log, snapshots, and recovery.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A value could not be decoded from its binary form (truncated
    /// buffer, unknown tag, invalid geometry, …).
    Decode(&'static str),
    /// A log segment is damaged somewhere other than its tail — recovery
    /// refuses to silently skip interior records — or a snapshot (a file
    /// of the same layout) is damaged anywhere.
    CorruptSegment {
        /// The damaged segment or snapshot file.
        path: PathBuf,
        /// Byte offset of the damage.
        offset: u64,
        /// What was wrong.
        reason: &'static str,
    },
    /// Recovery found no usable snapshot in the directory (the log alone
    /// cannot seed the route network and configuration).
    NoSnapshot(PathBuf),
    /// Two consecutive segments do not join up (a whole segment file is
    /// missing or misnamed).
    SegmentGap {
        /// LSN the previous segment ended at.
        expected: u64,
        /// Start LSN of the next segment found.
        found: u64,
    },
    /// The directory already holds a log (`create` refuses to clobber it;
    /// use recovery + `resume` instead).
    AlreadyExists(PathBuf),
    /// The database refused a mutation (a registration, removal or route
    /// insert is logged only once it is accepted).
    Core(CoreError),
    /// A message is larger than the frame ceiling its receiver enforces,
    /// refused by the sender before a byte was written; or a log or
    /// snapshot block is over [`crate::MAX_RECORD_BYTES`], refused before
    /// it was written.
    FrameTooLarge {
        /// Payload length of the refused message or block.
        len: u64,
        /// The ceiling it exceeded.
        max: u32,
    },
}

impl WalError {
    /// [`WalError::CorruptSegment`] at byte `offset` of the file at
    /// `path`.
    pub(crate) fn corrupt(path: &Path, offset: u64, reason: &'static str) -> Self {
        let path = path.to_path_buf();
        WalError::CorruptSegment {
            path,
            offset,
            reason,
        }
    }
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Decode(what) => write!(f, "wal decode error: {what}"),
            WalError::CorruptSegment {
                path,
                offset,
                reason,
            } => write!(
                f,
                "corrupt wal segment {} at byte {offset}: {reason}",
                path.display()
            ),
            WalError::NoSnapshot(dir) => {
                write!(f, "no usable snapshot in {}", dir.display())
            }
            WalError::SegmentGap { expected, found } => write!(
                f,
                "wal segment gap: expected a segment starting at lsn {expected}, found {found}"
            ),
            WalError::AlreadyExists(dir) => write!(
                f,
                "wal already exists in {} (recover and resume instead of create)",
                dir.display()
            ),
            WalError::Core(e) => write!(f, "database error: {e}"),
            WalError::FrameTooLarge { len, max } => write!(
                f,
                "message of {len} bytes exceeds the {max}-byte frame ceiling"
            ),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            WalError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<CoreError> for WalError {
    fn from(e: CoreError) -> Self {
        WalError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e: WalError = std::io::Error::other("disk on fire").into();
        assert!(e.to_string().contains("disk on fire"));
        assert!(e.source().is_some());
        let e = WalError::SegmentGap {
            expected: 10,
            found: 20,
        };
        assert!(e.to_string().contains("lsn 10"));
        assert!(e.source().is_none());
        let e = WalError::Decode("bad tag");
        assert!(e.to_string().contains("bad tag"));
    }
}
