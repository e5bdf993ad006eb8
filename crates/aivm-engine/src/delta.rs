//! Base-table modifications and pending delta tables.
//!
//! Following §2 of the paper, modifications are applied to base tables
//! immediately upon arrival, while a copy is appended to a per-view,
//! per-table *delta table* for deferred batch processing. Delta tables
//! preserve arrival (FIFO) order because maintenance actions process
//! prefixes.
//!
//! ## Columnar layout
//!
//! The delta table stores its pending modifications decomposed into
//! signed-multiset (Z-set) entries in struct-of-arrays form: one
//! contiguous `Vec<Row>` of entry rows, one parallel `Vec<i64>` of
//! weights, and a `Vec` of per-modification tags that remembers how to
//! reassemble `Modification` values for checkpoints. An insert
//! contributes one `+1` entry, a delete one `−1`, an update a `−1`/`+1`
//! pair — exactly the stream [`Modification::push_weighted`] produces,
//! precomputed at arrival instead of at flush.
//!
//! Consumption is a pair of head indices over those arrays: a flush
//! taking the earliest `k` modifications advances the heads and clones
//! the entry slice out cache-linearly (`Row` is an `Arc`, so a clone is
//! a refcount bump), with the consumed prefix reclaimed by amortized
//! compaction. Length and staleness counters read array lengths; no
//! node walking anywhere.

use crate::schema::Row;

/// A logical modification of one base table.
#[derive(Clone, Debug, PartialEq)]
pub enum Modification {
    /// A new row.
    Insert(Row),
    /// Removal of an existing row (identified by full contents).
    Delete(Row),
    /// Replacement of an existing row.
    Update {
        /// The row's contents before the update.
        old: Row,
        /// The row's contents after the update.
        new: Row,
    },
}

impl Modification {
    /// The modification as signed-multiset (Z-set) entries:
    /// inserts are `+1`, deletes `−1`, updates a `−1`/`+1` pair.
    pub fn weighted(&self) -> Vec<(Row, i64)> {
        let mut out = Vec::with_capacity(2);
        self.push_weighted(&mut out);
        out
    }

    /// Appends the signed-multiset entries to `out` without allocating a
    /// per-modification vector.
    pub fn push_weighted(&self, out: &mut Vec<(Row, i64)>) {
        match self {
            Modification::Insert(r) => out.push((r.clone(), 1)),
            Modification::Delete(r) => out.push((r.clone(), -1)),
            Modification::Update { old, new } => {
                out.push((old.clone(), -1));
                out.push((new.clone(), 1));
            }
        }
    }
}

/// Per-modification kind, kept so the columnar entry stream can be
/// reassembled into [`Modification`] values (checkpoints, recovery).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ModTag {
    Insert,
    Delete,
    Update,
}

impl ModTag {
    /// Signed-multiset entries this modification kind contributes.
    fn entries(self) -> usize {
        match self {
            ModTag::Insert | ModTag::Delete => 1,
            ModTag::Update => 2,
        }
    }
}

/// Consumed prefixes shorter than this are never compacted away — the
/// memmove would cost more than the slack is worth.
const COMPACT_MIN: usize = 256;

/// A FIFO delta table in columnar (struct-of-arrays) layout: the
/// pending, not-yet-propagated modifications of one base table for one
/// materialized view, stored as parallel entry-row / weight / tag
/// arrays with consumed-prefix head indices.
#[derive(Clone, Debug, Default)]
pub struct DeltaTable {
    /// Per-modification kind tags, FIFO.
    tags: Vec<ModTag>,
    /// Signed-multiset entry rows, FIFO (an update occupies two slots).
    rows: Vec<Row>,
    /// Entry weights, parallel to `rows`.
    weights: Vec<i64>,
    /// Consumed prefix of `tags`.
    head_mod: usize,
    /// Consumed prefix of `rows` / `weights`.
    head_entry: usize,
}

impl DeltaTable {
    /// Creates an empty delta table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pending modifications (the component of the paper's
    /// state vector for this table).
    pub fn len(&self) -> usize {
        self.tags.len() - self.head_mod
    }

    /// True when no modifications are pending.
    pub fn is_empty(&self) -> bool {
        self.head_mod == self.tags.len()
    }

    /// Pending signed-multiset entries (≥ `len()`; updates count twice).
    pub fn entry_len(&self) -> usize {
        self.rows.len() - self.head_entry
    }

    /// Appends a newly arrived modification, decomposing it into its
    /// weighted entries at arrival so flushes read a precomputed stream.
    pub fn push(&mut self, m: Modification) {
        match m {
            Modification::Insert(r) => {
                self.tags.push(ModTag::Insert);
                self.rows.push(r);
                self.weights.push(1);
            }
            Modification::Delete(r) => {
                self.tags.push(ModTag::Delete);
                self.rows.push(r);
                self.weights.push(-1);
            }
            Modification::Update { old, new } => {
                self.tags.push(ModTag::Update);
                self.rows.push(old);
                self.weights.push(-1);
                self.rows.push(new);
                self.weights.push(1);
            }
        }
    }

    /// Removes and returns the earliest `k` modifications (fewer if less
    /// are pending), reassembled from the columnar stream. Checkpoint
    /// and compatibility path; the flush hot path uses
    /// [`DeltaTable::take_weighted_prefix`].
    pub fn take_prefix(&mut self, k: usize) -> Vec<Modification> {
        let k = k.min(self.len());
        let mut out = Vec::with_capacity(k);
        let mut e = self.head_entry;
        for t in &self.tags[self.head_mod..self.head_mod + k] {
            out.push(match t {
                ModTag::Insert => Modification::Insert(self.rows[e].clone()),
                ModTag::Delete => Modification::Delete(self.rows[e].clone()),
                ModTag::Update => Modification::Update {
                    old: self.rows[e].clone(),
                    new: self.rows[e + 1].clone(),
                },
            });
            e += t.entries();
        }
        self.head_mod += k;
        self.head_entry = e;
        self.maybe_compact();
        out
    }

    /// Removes the earliest `k` modifications and returns their
    /// signed-multiset entries — identical content and order to
    /// `take_prefix(k)` followed by [`Modification::push_weighted`],
    /// but read as one contiguous slice copy (rows are `Arc` clones).
    /// This is what [`flush`](crate::MaterializedView::flush) iterates,
    /// so chunked parallel propagation walks cache-linear memory.
    pub fn take_weighted_prefix(&mut self, k: usize) -> Vec<(Row, i64)> {
        let k = k.min(self.len());
        let n_entries: usize = self.tags[self.head_mod..self.head_mod + k]
            .iter()
            .map(|t| t.entries())
            .sum();
        let end = self.head_entry + n_entries;
        let out: Vec<(Row, i64)> = self.rows[self.head_entry..end]
            .iter()
            .cloned()
            .zip(self.weights[self.head_entry..end].iter().copied())
            .collect();
        self.head_mod += k;
        self.head_entry = end;
        self.maybe_compact();
        out
    }

    /// Clones the pending modifications in arrival order (checkpointing
    /// snapshots delta tables this way — the on-disk format is
    /// unchanged by the columnar layout).
    pub fn to_vec(&self) -> Vec<Modification> {
        let mut out = Vec::with_capacity(self.len());
        let mut e = self.head_entry;
        for t in &self.tags[self.head_mod..] {
            out.push(match t {
                ModTag::Insert => Modification::Insert(self.rows[e].clone()),
                ModTag::Delete => Modification::Delete(self.rows[e].clone()),
                ModTag::Update => Modification::Update {
                    old: self.rows[e].clone(),
                    new: self.rows[e + 1].clone(),
                },
            });
            e += t.entries();
        }
        out
    }

    /// The pending modifications as signed-multiset entries (used to
    /// compensate joins against tables whose deltas are still pending).
    pub fn weighted(&self) -> Vec<(Row, i64)> {
        self.rows[self.head_entry..]
            .iter()
            .cloned()
            .zip(self.weights[self.head_entry..].iter().copied())
            .collect()
    }

    /// Reclaims the consumed prefix once it dominates the arrays.
    /// Amortized O(1): each entry is moved at most once per halving.
    fn maybe_compact(&mut self) {
        if self.head_mod == self.tags.len() {
            // Fully drained: drop the prefix without a memmove. Keeps
            // capacity for the next burst.
            self.tags.clear();
            self.rows.clear();
            self.weights.clear();
            self.head_mod = 0;
            self.head_entry = 0;
        } else if self.head_entry >= COMPACT_MIN && self.head_entry * 2 >= self.rows.len() {
            self.tags.drain(..self.head_mod);
            self.rows.drain(..self.head_entry);
            self.weights.drain(..self.head_entry);
            self.head_mod = 0;
            self.head_entry = 0;
        }
    }
}

impl From<Vec<Modification>> for DeltaTable {
    /// Rebuilds a delta table from a snapshot taken with
    /// [`DeltaTable::to_vec`], preserving arrival order.
    fn from(mods: Vec<Modification>) -> Self {
        let mut d = DeltaTable::new();
        for m in mods {
            d.push(m);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    #[test]
    fn weighted_entries_per_kind() {
        let ins = Modification::Insert(row![1i64]);
        assert_eq!(ins.weighted(), vec![(row![1i64], 1)]);
        let del = Modification::Delete(row![2i64]);
        assert_eq!(del.weighted(), vec![(row![2i64], -1)]);
        let upd = Modification::Update {
            old: row![3i64],
            new: row![4i64],
        };
        assert_eq!(upd.weighted(), vec![(row![3i64], -1), (row![4i64], 1)]);
    }

    #[test]
    fn fifo_prefix_extraction() {
        let mut d = DeltaTable::new();
        for i in 0..5i64 {
            d.push(Modification::Insert(row![i]));
        }
        assert_eq!(d.len(), 5);
        let first2 = d.take_prefix(2);
        assert_eq!(
            first2,
            vec![
                Modification::Insert(row![0i64]),
                Modification::Insert(row![1i64])
            ]
        );
        assert_eq!(d.len(), 3);
        // Taking more than pending drains everything.
        let rest = d.take_prefix(10);
        assert_eq!(rest.len(), 3);
        assert!(d.is_empty());
    }

    #[test]
    fn snapshot_roundtrip_preserves_fifo_order() {
        let mut d = DeltaTable::new();
        for i in 0..4i64 {
            d.push(Modification::Insert(row![i]));
        }
        let snap = d.to_vec();
        let mut restored = DeltaTable::from(snap);
        assert_eq!(restored.len(), 4);
        assert_eq!(
            restored.take_prefix(1),
            vec![Modification::Insert(row![0i64])]
        );
    }

    #[test]
    fn weighted_view_of_pending() {
        let mut d = DeltaTable::new();
        d.push(Modification::Update {
            old: row![1i64],
            new: row![2i64],
        });
        d.push(Modification::Insert(row![3i64]));
        assert_eq!(
            d.weighted(),
            vec![(row![1i64], -1), (row![2i64], 1), (row![3i64], 1)]
        );
        assert_eq!(d.len(), 2);
        assert_eq!(d.entry_len(), 3);
    }

    #[test]
    fn weighted_prefix_matches_reassembled_modifications() {
        let mut a = DeltaTable::new();
        let mut b = DeltaTable::new();
        let mods = vec![
            Modification::Insert(row![1i64]),
            Modification::Update {
                old: row![1i64],
                new: row![2i64],
            },
            Modification::Delete(row![2i64]),
            Modification::Update {
                old: row![9i64, "x"],
                new: row![9i64, "y"],
            },
        ];
        for m in &mods {
            a.push(m.clone());
            b.push(m.clone());
        }
        for k in [1usize, 2, 1] {
            let fast = a.take_weighted_prefix(k);
            let mut slow = Vec::new();
            for m in b.take_prefix(k) {
                m.push_weighted(&mut slow);
            }
            assert_eq!(fast, slow);
        }
        assert!(a.is_empty() && b.is_empty());
    }

    #[test]
    fn compaction_keeps_content_intact() {
        let mut d = DeltaTable::new();
        for i in 0..2_000i64 {
            d.push(Modification::Update {
                old: row![i],
                new: row![i + 1],
            });
        }
        // Interleave takes and pushes across several compaction points.
        let mut drained = 0usize;
        while d.len() > 500 {
            drained += d.take_weighted_prefix(300).len() / 2;
            d.push(Modification::Insert(row![drained as i64]));
        }
        // FIFO survived: the next modification is the (drained)-th
        // original update.
        let next = d.take_prefix(1);
        assert_eq!(
            next,
            vec![Modification::Update {
                old: row![drained as i64],
                new: row![drained as i64 + 1],
            }]
        );
    }
}
