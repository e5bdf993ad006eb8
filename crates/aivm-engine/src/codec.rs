//! The byte codec: values, rows, modifications, database snapshots, and
//! the checksummed frame that cuts the write-ahead log and every
//! connection into payloads.
//!
//! One format serves every artifact. A database snapshot checkpoints a
//! [`Database`] (schemas, rows, indexes, key columns) so repeated
//! experiment runs skip regeneration; `aivm-serve`'s write-ahead log and
//! checkpoints and `aivm-net`'s wire protocol write their rows and
//! modifications with [`put_row`] / [`put_modification`] and cut their
//! streams with [`put_frame`] / [`split_frame`].
//!
//! Format (little-endian):
//!
//! ```text
//! snapshot: magic "AIVM" | version u16 | table_count u32
//! per table: name | arity u32 | per column: name, type u8
//!            key_column u32 (u32::MAX = none)
//!            index_count u32 | per index: kind u8, column u32
//!            row_count u64 | rows...
//! row: values in schema order (standalone rows prefix a u32 arity)
//! value: tag u8 (0 null, 1 int, 2 float, 3 str) | payload
//! str: len u32 | UTF-8 bytes
//! modification: tag u8 (0 insert, 1 delete, 2 update) | row(s)
//! frame: payload_len u32 | checksum(payload) u64 | payload
//! ```
//!
//! Encoders append to a `Vec<u8>`. Every decoder reads through one
//! bounds-checked [`Reader`]: a read past the end, a bad tag or a count
//! the remaining bytes cannot hold is an [`EngineError::Corrupt`] naming
//! the artifact and the byte offset at which decoding gave up — never a
//! panic, and never an allocation sized by an unchecked count.

use crate::db::Database;
use crate::delta::Modification;
use crate::error::EngineError;
use crate::index::IndexKind;
use crate::schema::{Column, Row, Schema};
use crate::value::{DataType, Value};
use aivm_core::fxhash::FxHasher;
use bytes::BufMut;
use std::hash::Hasher;
use std::ops::Range;

const MAGIC: &[u8; 4] = b"AIVM";
const VERSION: u16 = 1;

/// Bytes of framing before each payload (length + checksum).
pub const FRAME_HEADER_LEN: usize = 12;

/// Seedless content hash of a byte slice, stable across processes: the
/// checksum of every frame and checkpoint.
#[inline]
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// Appends one frame to `out`. `payload` writes the payload in place,
/// after the reserved header, which is then filled in — so a record is
/// encoded once, straight into its final buffer.
pub fn put_frame(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    payload(out);
    let body = start + FRAME_HEADER_LEN;
    let len = (out.len() - body) as u32;
    let sum = checksum(&out[body..]);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..body].copy_from_slice(&sum.to_le_bytes());
}

/// What [`split_frame`] found at the front of a byte slice.
#[derive(Debug)]
pub enum Split<'a> {
    /// A whole frame whose checksum matches: its payload. The frame
    /// spans `FRAME_HEADER_LEN + payload.len()` bytes.
    Frame(&'a [u8]),
    /// The frame is incomplete and spans at least this many bytes: the
    /// header until it has arrived, then the header plus the payload
    /// length it declares.
    NeedMore(usize),
    /// The whole frame arrived but its payload fails the checksum.
    ChecksumMismatch,
}

/// Splits the frame at the front of `bytes`: the one parser of the frame
/// header. Callers map the verdict to their own taxonomy — the log reads
/// an incomplete or mismatching frame as its torn tail, a connection as
/// a torn or corrupt stream.
#[inline]
pub fn split_frame(bytes: &[u8]) -> Split<'_> {
    let Some(header) = bytes.get(..FRAME_HEADER_LEN) else {
        return Split::NeedMore(FRAME_HEADER_LEN);
    };
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    let sum = u64::from_le_bytes(header[4..].try_into().expect("8 bytes"));
    match bytes.get(FRAME_HEADER_LEN..FRAME_HEADER_LEN + len) {
        None => Split::NeedMore(FRAME_HEADER_LEN + len),
        Some(payload) if checksum(payload) == sum => Split::Frame(payload),
        Some(_) => Split::ChecksumMismatch,
    }
}

/// A bounds-checked cursor over borrowed bytes: the one way any artifact
/// is read back. Every getter returns [`EngineError::Corrupt`] — the
/// reader's context, the offset of the failed read and what was expected
/// there — instead of panicking; borrowed results point into the input,
/// so decoding allocates only what it materializes.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
    context: &'static str,
}

impl<'a> Reader<'a> {
    /// A reader over `data`; `context` names the artifact in errors.
    pub fn new(data: &'a [u8], context: &'static str) -> Self {
        Reader {
            data,
            pos: 0,
            context,
        }
    }

    /// A reader over `data[range]` whose error offsets count from the
    /// start of `data` (a record inside a log).
    pub fn within(data: &'a [u8], range: Range<usize>, context: &'static str) -> Self {
        Reader {
            data: &data[..range.end],
            pos: range.start,
            context,
        }
    }

    /// Offset of the next unread byte.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// The error for a decode failure at the current offset.
    pub fn corrupt(&self, what: impl Into<String>) -> EngineError {
        EngineError::Corrupt {
            context: self.context.to_string(),
            offset: self.pos as u64,
            message: what.into(),
        }
    }

    /// Fails unless every byte was read.
    pub fn finish(&self) -> Result<(), EngineError> {
        match self.remaining() {
            0 => Ok(()),
            _ => Err(self.corrupt("trailing bytes")),
        }
    }

    /// Reads `n` raw bytes, borrowed.
    #[inline]
    pub fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], EngineError> {
        if self.remaining() < n {
            return Err(self.corrupt(what));
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    #[inline]
    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], EngineError> {
        let mut out = [0; N];
        out.copy_from_slice(self.bytes(N, what)?);
        Ok(out)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self, what: &str) -> Result<u8, EngineError> {
        Ok(self.array::<1>(what)?[0])
    }

    /// Reads one byte as a flag (non-zero = true).
    #[inline]
    pub fn flag(&mut self, what: &str) -> Result<bool, EngineError> {
        Ok(self.u8(what)? != 0)
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, what: &str) -> Result<u16, EngineError> {
        self.array(what).map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, what: &str) -> Result<u32, EngineError> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, what: &str) -> Result<u64, EngineError> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// Reads a little-endian `i64`.
    #[inline]
    pub fn i64(&mut self, what: &str) -> Result<i64, EngineError> {
        self.array(what).map(i64::from_le_bytes)
    }

    /// Reads a little-endian `f64`.
    #[inline]
    pub fn f64(&mut self, what: &str) -> Result<f64, EngineError> {
        self.array(what).map(f64::from_le_bytes)
    }

    /// Reads a `u32` count of items that take at least `min_size` bytes
    /// each, rejecting a count the unread bytes cannot hold before the
    /// caller allocates or loops on it.
    #[inline]
    pub fn count(&mut self, min_size: usize, what: &str) -> Result<usize, EngineError> {
        let n = self.u32(what)? as usize;
        if n.saturating_mul(min_size) > self.remaining() {
            return Err(self.corrupt(format!("{what} {n}")));
        }
        Ok(n)
    }

    /// Consumes an artifact header, `magic | version u16`: a wrong magic
    /// is corrupt, another version [`EngineError::Unsupported`].
    pub fn header(&mut self, magic: &[u8; 4], version: u16) -> Result<(), EngineError> {
        if !self.data[self.pos..].starts_with(magic) {
            return Err(self.corrupt("magic"));
        }
        self.pos += magic.len();
        match self.u16("version")? {
            v if v == version => Ok(()),
            v => Err(EngineError::Unsupported {
                message: format!("{} version {v} (supported: {version})", self.context),
            }),
        }
    }

    /// Reads a length-prefixed UTF-8 string, borrowed.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, EngineError> {
        let len = self.u32("string length")? as usize;
        let bytes = self.bytes(len, "string body")?;
        std::str::from_utf8(bytes).map_err(|_| self.corrupt("utf8"))
    }

    /// Reads one tagged [`Value`].
    #[inline]
    pub fn value(&mut self) -> Result<Value, EngineError> {
        match self.u8("value tag")? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int(self.i64("int")?)),
            2 => Ok(Value::Float(self.f64("float")?)),
            3 => Ok(Value::str(self.str()?)),
            other => Err(self.corrupt(format!("value tag {other}"))),
        }
    }

    /// Validates and skips one tagged value without allocating.
    #[inline]
    fn skip_value(&mut self) -> Result<(), EngineError> {
        match self.u8("value tag")? {
            0 => Ok(()),
            1 | 2 => self.bytes(8, "number").map(drop),
            3 => self.str().map(drop),
            other => Err(self.corrupt(format!("value tag {other}"))),
        }
    }

    /// Reads a row with a `u32` arity prefix.
    #[inline]
    pub fn row(&mut self) -> Result<Row, EngineError> {
        let arity = self.count(1, "row arity")?;
        let mut vals = Vec::with_capacity(arity);
        for _ in 0..arity {
            vals.push(self.value()?);
        }
        Ok(Row::new(vals))
    }

    #[inline]
    fn skip_row(&mut self) -> Result<(), EngineError> {
        for _ in 0..self.count(1, "row arity")? {
            self.skip_value()?;
        }
        Ok(())
    }

    /// Reads one tagged [`Modification`].
    #[inline]
    pub fn modification(&mut self) -> Result<Modification, EngineError> {
        match self.u8("modification tag")? {
            0 => Ok(Modification::Insert(self.row()?)),
            1 => Ok(Modification::Delete(self.row()?)),
            2 => Ok(Modification::Update {
                old: self.row()?,
                new: self.row()?,
            }),
            other => Err(self.corrupt(format!("modification tag {other}"))),
        }
    }

    /// Validates and skips one tagged [`Modification`] without
    /// allocating: a batch checked this way materializes later without
    /// error.
    #[inline]
    pub fn skip_modification(&mut self) -> Result<(), EngineError> {
        match self.u8("modification tag")? {
            0 | 1 => self.skip_row(),
            2 => {
                self.skip_row()?;
                self.skip_row()
            }
            other => Err(self.corrupt(format!("modification tag {other}"))),
        }
    }
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Appends one tagged [`Value`].
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.put_u8(0),
        Value::Int(i) => {
            buf.put_u8(1);
            buf.put_i64_le(*i);
        }
        Value::Float(f) => {
            buf.put_u8(2);
            buf.put_f64_le(*f);
        }
        Value::Str(s) => {
            buf.put_u8(3);
            put_str(buf, s);
        }
    }
}

/// Appends a row with a `u32` arity prefix (standalone framing, used by
/// WAL records, checkpoints and the wire, where no schema is in scope).
pub fn put_row(buf: &mut Vec<u8>, row: &Row) {
    buf.put_u32_le(row.len() as u32);
    for v in row.values() {
        put_value(buf, v);
    }
}

/// Appends one tagged [`Modification`].
pub fn put_modification(buf: &mut Vec<u8>, m: &Modification) {
    match m {
        Modification::Insert(r) => {
            buf.put_u8(0);
            put_row(buf, r);
        }
        Modification::Delete(r) => {
            buf.put_u8(1);
            put_row(buf, r);
        }
        Modification::Update { old, new } => {
            buf.put_u8(2);
            put_row(buf, old);
            put_row(buf, new);
        }
    }
}

/// Serializes a database snapshot. Row ids are not preserved (rows are
/// re-inserted densely); logical content, schemas, key columns and
/// indexes are.
pub fn snapshot(db: &Database) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4096);
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u32_le(db.table_count() as u32);
    for id in 0..db.table_count() {
        let table = db.table(id);
        put_str(&mut buf, table.name());
        let schema = table.schema();
        buf.put_u32_le(schema.arity() as u32);
        for col in schema.columns() {
            put_str(&mut buf, &col.name);
            buf.put_u8(match col.ty {
                DataType::Int => 1,
                DataType::Float => 2,
                DataType::Str => 3,
            });
        }
        buf.put_u32_le(db.key_column(id).map(|c| c as u32).unwrap_or(u32::MAX));
        let indexes = table.indexes();
        buf.put_u32_le(indexes.len() as u32);
        for idx in indexes {
            buf.put_u8(match idx.kind() {
                IndexKind::Hash => 0,
                IndexKind::BTree => 1,
            });
            buf.put_u32_le(idx.column() as u32);
        }
        buf.put_u64_le(table.len() as u64);
        for (_, row) in table.iter() {
            for v in row.values() {
                put_value(&mut buf, v);
            }
        }
    }
    buf
}

/// Restores a database from a snapshot produced by [`snapshot`].
///
/// Counts are checked against the unread bytes before anything is
/// allocated or looped on — every value takes at least its tag byte, so
/// no genuine snapshot trips the checks — and a key column must name a
/// column of its table.
pub fn restore(data: &[u8]) -> Result<Database, EngineError> {
    let mut r = Reader::new(data, "snapshot");
    r.header(MAGIC, VERSION)?;
    // A table takes at least its name length, arity, key column, index
    // count and row count.
    let table_count = r.count(4 + 4 + 4 + 4 + 8, "table count")?;
    let mut db = Database::new();
    for _ in 0..table_count {
        let name = r.str()?;
        // Errors name the table being decoded, so they say where in
        // the catalog the damage sits.
        restore_table(&mut r, &mut db, name).map_err(|e| match e {
            EngineError::Corrupt {
                offset, message, ..
            } => EngineError::Corrupt {
                context: format!("snapshot table {name}"),
                offset,
                message,
            },
            other => other,
        })?;
    }
    Ok(db)
}

/// Decodes one table of a snapshot, after its name.
fn restore_table(r: &mut Reader<'_>, db: &mut Database, name: &str) -> Result<(), EngineError> {
    // A column takes at least its name length and type tag.
    let arity = r.count(4 + 1, "arity")?;
    let mut cols = Vec::with_capacity(arity);
    for _ in 0..arity {
        let name = r.str()?.to_string();
        let ty = match r.u8("column type")? {
            1 => DataType::Int,
            2 => DataType::Float,
            3 => DataType::Str,
            other => return Err(r.corrupt(format!("type tag {other}"))),
        };
        cols.push(Column { name, ty });
    }
    let id = db.create_table(name, Schema::from_columns(cols))?;
    match r.u32("key column")? {
        u32::MAX => {}
        key if key as usize >= arity => {
            return Err(r.corrupt(format!("key column {key} of {arity}")));
        }
        key => db.set_key_column(id, key as usize),
    }
    let index_count = r.count(1 + 4, "index count")?;
    let mut indexes = Vec::with_capacity(index_count);
    for _ in 0..index_count {
        let kind = match r.u8("index kind")? {
            0 => IndexKind::Hash,
            1 => IndexKind::BTree,
            other => return Err(r.corrupt(format!("index kind {other}"))),
        };
        indexes.push((kind, r.u32("index column")? as usize));
    }
    // A row takes a tag byte per value; a row of a zero-column table is
    // still held to one byte, so its count cannot outrun the input.
    let row_count = r.u64("row count")?;
    if row_count.saturating_mul(arity.max(1) as u64) > r.remaining() as u64 {
        return Err(r.corrupt(format!("row count {row_count}")));
    }
    // Insert rows first (bulk), then build indexes once.
    for _ in 0..row_count {
        let vals = (0..arity).map(|_| r.value()).collect::<Result<_, _>>()?;
        db.table_mut(id).insert(Row::new(vals))?;
    }
    for (kind, col) in indexes {
        db.table_mut(id).create_index(kind, col)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn sample() -> Database {
        let mut db = Database::new();
        let t = db
            .create_table(
                "t",
                Schema::new(vec![
                    ("id", DataType::Int),
                    ("w", DataType::Float),
                    ("s", DataType::Str),
                ]),
            )
            .unwrap();
        db.set_key_column(t, 0);
        db.table_mut(t).create_index(IndexKind::Hash, 0).unwrap();
        db.table_mut(t).create_index(IndexKind::BTree, 1).unwrap();
        for i in 0..50i64 {
            db.table_mut(t)
                .insert(row![i, i as f64 / 3.0, format!("row-{i}")])
                .unwrap();
        }
        db
    }

    #[test]
    fn roundtrip_preserves_content_and_physical_design() {
        let db = sample();
        let bytes = snapshot(&db);
        let restored = restore(&bytes).unwrap();
        assert_eq!(restored.table_count(), 1);
        let t0 = db.table_by_name("t").unwrap();
        let t1 = restored.table_by_name("t").unwrap();
        assert_eq!(t0.schema(), t1.schema());
        assert_eq!(t0.len(), t1.len());
        let rows = |t: &crate::table::Table| {
            let mut v: Vec<_> = t.iter().map(|(_, r)| r.clone()).collect();
            v.sort();
            v
        };
        assert_eq!(rows(t0), rows(t1));
        // Indexes rebuilt with the same shape.
        assert_eq!(t1.indexes().len(), 2);
        assert_eq!(t1.index_on(0).unwrap().kind(), IndexKind::Hash);
        assert_eq!(t1.index_on(1).unwrap().kind(), IndexKind::BTree);
        assert_eq!(t1.index_on(0).unwrap().lookup(&Value::Int(7)).len(), 1);
        // Key column preserved (value-based deletes work).
        assert_eq!(restored.key_column(0), Some(0));
    }

    #[test]
    fn roundtrip_of_tpcr_database() {
        let data = crate::Database::new();
        let _ = data;
        // A multi-table database with tombstoned slots.
        let mut db = sample();
        let t = db.table_id("t").unwrap();
        let victim = db.table(t).find_by(0, &Value::Int(10)).unwrap();
        db.table_mut(t).delete(victim).unwrap();
        db.create_table("empty", Schema::new(vec![("z", DataType::Int)]))
            .unwrap();
        let restored = restore(&snapshot(&db)).unwrap();
        assert_eq!(restored.table_by_name("t").unwrap().len(), 49);
        assert_eq!(restored.table_by_name("empty").unwrap().len(), 0);
    }

    #[test]
    fn bad_snapshots_are_rejected_with_offsets() {
        assert!(restore(b"").is_err());
        assert!(restore(b"NOPE\x01\x00\x00\x00\x00\x00").is_err());
        // Truncated valid prefix: the error reports where decoding died.
        let db = sample();
        let full = snapshot(&db);
        let truncated = &full[..full.len() / 2];
        match restore(truncated) {
            Err(EngineError::Corrupt {
                context, offset, ..
            }) => {
                assert!(context.contains('t'), "context names the table: {context}");
                assert!(offset > 0 && offset <= (full.len() / 2) as u64);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Wrong version.
        let mut bad = full.clone();
        bad[4] = 99;
        assert!(matches!(
            restore(&bad),
            Err(EngineError::Unsupported { .. })
        ));
        // Table "t" of `arity` Int columns (at most one written): impossible
        // counts and key columns are corrupt before anything is allocated.
        let craft = |arity: u32, key: u32, indexes: u32, rows: u64| {
            let mut b = b"AIVM\x01\x00\x01\x00\x00\x00\x01\x00\x00\x00t".to_vec();
            b.put_u32_le(arity);
            b.put_slice(&b"\x01\x00\x00\x00c\x01"[..6 * arity.min(1) as usize]);
            b.put_u32_le(key);
            b.put_u32_le(indexes);
            b.put_u64_le(rows);
            b
        };
        assert!(restore(&craft(1, 0, 0, 0)).is_ok());
        for bad in [
            craft(1, 5, 0, 0),
            craft(0, u32::MAX, 0, 50_000_000),
            craft(u32::MAX, u32::MAX, 0, 0),
            craft(1, u32::MAX, u32::MAX, 0),
        ] {
            let got = restore(&bad);
            assert!(matches!(got, Err(EngineError::Corrupt { .. })), "{got:?}");
        }
    }

    #[test]
    fn null_values_survive() {
        let mut db = Database::new();
        let t = db
            .create_table("n", Schema::new(vec![("v", DataType::Int)]))
            .unwrap();
        db.table_mut(t).insert(Row::new(vec![Value::Null])).unwrap();
        let restored = restore(&snapshot(&db)).unwrap();
        let (_, row) = restored.table_by_name("n").unwrap().iter().next().unwrap();
        assert!(row.get(0).is_null());
    }

    #[test]
    fn modification_codec_round_trips_all_kinds() {
        let mods = vec![
            Modification::Insert(row![1i64, 2.5f64, "a"]),
            Modification::Delete(row![Value::Null]),
            Modification::Update {
                old: row![7i64],
                new: row![8i64],
            },
        ];
        let mut buf = Vec::new();
        for m in &mods {
            put_modification(&mut buf, m);
        }
        let mut rd = Reader::new(&buf, "test");
        for m in &mods {
            assert_eq!(&rd.modification().unwrap(), m);
        }
        rd.finish().unwrap();
        // Truncated stream reports a wal-style context + offset.
        match Reader::new(&buf[..8], "wal record").modification() {
            Err(EngineError::Corrupt { context, .. }) => assert_eq!(context, "wal record"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
