//! Engine error types.

use std::fmt;
use std::sync::Arc;

/// Errors raised by the storage and execution layers.
///
/// `Clone` is kept (errors travel across reply channels in the serving
/// layer), which is why [`EngineError::Io`] holds its source behind an
/// [`Arc`]. Equality compares I/O errors by [`std::io::ErrorKind`].
#[derive(Clone, Debug)]
pub enum EngineError {
    /// A referenced table does not exist.
    NoSuchTable {
        /// The missing table's name.
        name: String,
    },
    /// A referenced column does not exist.
    NoSuchColumn {
        /// Table searched.
        table: String,
        /// Column looked up.
        column: String,
    },
    /// A row id does not refer to a live row.
    NoSuchRow {
        /// The dangling row id.
        id: usize,
    },
    /// A `Delete` or `Update` names an old row its table does not hold:
    /// no live row has its key, or the live row under that key differs
    /// (a replayed, reordered or stale modification). Rejected before
    /// anything is mutated.
    StaleRow {
        /// The modification's table.
        table: String,
        /// The old row it named.
        row: String,
    },
    /// A row does not match its table's schema.
    SchemaMismatch {
        /// The table whose schema was violated.
        table: String,
    },
    /// SQL text failed to parse.
    Parse {
        /// Human-readable description with position info.
        message: String,
    },
    /// A query or view definition is not supported by the engine.
    Unsupported {
        /// What was attempted.
        message: String,
    },
    /// A view maintenance invariant was violated (internal error).
    Maintenance {
        /// Description of the violated invariant.
        message: String,
    },
    /// An operating-system I/O failure (WAL append, checkpoint write,
    /// fsync).
    Io {
        /// What was being done when the failure hit (file, operation).
        context: String,
        /// The underlying OS error.
        source: Arc<std::io::Error>,
    },
    /// A persisted artifact (snapshot, WAL, checkpoint) failed to decode.
    Corrupt {
        /// Which artifact was being decoded (e.g. `"snapshot"`, `"wal"`).
        context: String,
        /// Byte offset into the artifact at which decoding failed.
        offset: u64,
        /// What was expected at that offset.
        message: String,
    },
}

impl EngineError {
    /// Convenience constructor wrapping an [`std::io::Error`] with
    /// context.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        EngineError::Io {
            context: context.into(),
            source: Arc::new(source),
        }
    }
}

impl PartialEq for EngineError {
    fn eq(&self, other: &Self) -> bool {
        use EngineError::*;
        match (self, other) {
            (NoSuchTable { name: a }, NoSuchTable { name: b }) => a == b,
            (
                NoSuchColumn {
                    table: t1,
                    column: c1,
                },
                NoSuchColumn {
                    table: t2,
                    column: c2,
                },
            ) => t1 == t2 && c1 == c2,
            (NoSuchRow { id: a }, NoSuchRow { id: b }) => a == b,
            (StaleRow { table: t1, row: r1 }, StaleRow { table: t2, row: r2 }) => {
                t1 == t2 && r1 == r2
            }
            (SchemaMismatch { table: a }, SchemaMismatch { table: b }) => a == b,
            (Parse { message: a }, Parse { message: b }) => a == b,
            (Unsupported { message: a }, Unsupported { message: b }) => a == b,
            (Maintenance { message: a }, Maintenance { message: b }) => a == b,
            (
                Io {
                    context: c1,
                    source: s1,
                },
                Io {
                    context: c2,
                    source: s2,
                },
            ) => c1 == c2 && s1.kind() == s2.kind(),
            (
                Corrupt {
                    context: c1,
                    offset: o1,
                    message: m1,
                },
                Corrupt {
                    context: c2,
                    offset: o2,
                    message: m2,
                },
            ) => c1 == c2 && o1 == o2 && m1 == m2,
            _ => false,
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NoSuchTable { name } => write!(f, "no such table: {name}"),
            EngineError::NoSuchColumn { table, column } => {
                write!(f, "no such column: {table}.{column}")
            }
            EngineError::NoSuchRow { id } => write!(f, "no live row with id {id}"),
            EngineError::StaleRow { table, row } => {
                write!(f, "stale modification: no live row {row} in table {table}")
            }
            EngineError::SchemaMismatch { table } => {
                write!(f, "row does not match schema of table {table}")
            }
            EngineError::Parse { message } => write!(f, "parse error: {message}"),
            EngineError::Unsupported { message } => write!(f, "unsupported: {message}"),
            EngineError::Maintenance { message } => {
                write!(f, "maintenance invariant violated: {message}")
            }
            EngineError::Io { context, source } => {
                write!(f, "i/o failure during {context}: {source}")
            }
            EngineError::Corrupt {
                context,
                offset,
                message,
            } => {
                write!(f, "corrupt {context} at byte offset {offset}: {message}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Io { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = EngineError::NoSuchTable { name: "foo".into() };
        assert!(e.to_string().contains("foo"));
        let e = EngineError::NoSuchColumn {
            table: "t".into(),
            column: "c".into(),
        };
        assert!(e.to_string().contains("t.c"));
    }

    #[test]
    fn io_errors_carry_context_and_source() {
        let e = EngineError::io(
            "wal append to serve.wal",
            std::io::Error::other("disk gone"),
        );
        let msg = e.to_string();
        assert!(
            msg.contains("serve.wal") && msg.contains("disk gone"),
            "{msg}"
        );
        assert!(std::error::Error::source(&e).is_some());
        // Clonable and comparable by kind.
        assert_eq!(e.clone(), e);
    }

    #[test]
    fn corrupt_errors_carry_offset_context() {
        let e = EngineError::Corrupt {
            context: "wal".into(),
            offset: 42,
            message: "record checksum".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("wal") && msg.contains("42"), "{msg}");
        assert_ne!(
            e,
            EngineError::Corrupt {
                context: "wal".into(),
                offset: 43,
                message: "record checksum".into(),
            }
        );
    }
}
