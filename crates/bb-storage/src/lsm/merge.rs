//! Streaming k-way merge over SSTable entry regions.
//!
//! Compaction, prefix scans and chunked range reads all need the same thing:
//! the newest version of every key across several sorted tables, in key
//! order, without materialising a whole-store `BTreeMap`. [`KWayMerge`]
//! walks the raw entry regions with one cursor per source and emits each
//! key once; on a tie the *earliest* source wins, so callers pass sources
//! in newest-first order (L0 newest→oldest, then L1, L2, …).

/// A cursor over one source's raw entry region (the `[entry]*` section of
/// an SSTable file, or any byte string in the same format).
struct Cursor {
    data: Vec<u8>,
    pos: usize,
    /// Spans of the current entry inside `data`: `(key, Some(value))` for a
    /// put, `(key, None)` for a tombstone. `None` when exhausted.
    cur: Option<(std::ops::Range<usize>, Option<std::ops::Range<usize>>)>,
}

impl Cursor {
    fn new(data: Vec<u8>) -> Cursor {
        let mut c = Cursor { data, pos: 0, cur: None };
        c.advance();
        c
    }

    fn key(&self) -> Option<&[u8]> {
        self.cur.as_ref().map(|(k, _)| &self.data[k.clone()])
    }

    fn value(&self) -> Option<Option<&[u8]>> {
        self.cur.as_ref().map(|(_, v)| v.as_ref().map(|r| &self.data[r.clone()]))
    }

    /// Parse the entry at `pos` into `cur` and move past it. A truncated
    /// trailing entry ends the source (the store never writes one; damage
    /// is caught by `SsTable::open` before a cursor is built).
    fn advance(&mut self) {
        let d = &self.data;
        if self.pos + 4 > d.len() {
            self.cur = None;
            return;
        }
        let klen = u32::from_be_bytes(d[self.pos..self.pos + 4].try_into().expect("4")) as usize;
        self.pos += 4;
        if self.pos + klen + 5 > d.len() {
            self.cur = None;
            return;
        }
        let key = self.pos..self.pos + klen;
        self.pos += klen;
        let tombstone = d[self.pos] == 1;
        self.pos += 1;
        let vlen = u32::from_be_bytes(d[self.pos..self.pos + 4].try_into().expect("4")) as usize;
        self.pos += 4;
        if self.pos + vlen > d.len() {
            self.cur = None;
            return;
        }
        let value = if tombstone { None } else { Some(self.pos..self.pos + vlen) };
        self.pos += vlen;
        self.cur = Some((key, value));
    }
}

/// Streaming merge of several sorted entry regions, newest source first.
///
/// Yields `(key, Some(value))` / `(key, None)` pairs in strictly ascending
/// key order; each key appears once, resolved newest-wins. Memory is one
/// buffer per *source*, never one allocation per key — per-step work is
/// O(sources), independent of total data.
pub struct KWayMerge {
    sources: Vec<Cursor>,
}

impl KWayMerge {
    /// Build a merge over raw entry regions, **newest first**: on a key
    /// collision the earliest source's version wins.
    pub fn new(sources_newest_first: Vec<Vec<u8>>) -> KWayMerge {
        KWayMerge { sources: sources_newest_first.into_iter().map(Cursor::new).collect() }
    }
}

impl Iterator for KWayMerge {
    type Item = (Vec<u8>, Option<Vec<u8>>);

    fn next(&mut self) -> Option<Self::Item> {
        // Smallest key across sources; first (newest) source breaks ties.
        let mut win: Option<usize> = None;
        for (i, c) in self.sources.iter().enumerate() {
            let Some(k) = c.key() else { continue };
            match win {
                None => win = Some(i),
                Some(w) if k < self.sources[w].key().expect("winner has a key") => win = Some(i),
                _ => {}
            }
        }
        let win = win?;
        let key = self.sources[win].key().expect("winner has a key").to_vec();
        let value = self.sources[win].value().expect("winner parsed").map(|v| v.to_vec());
        // Advance every source sitting on this key, shedding shadowed
        // versions in the same pass.
        for c in &mut self.sources {
            if c.key() == Some(key.as_slice()) {
                c.advance();
            }
        }
        Some((key, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encode entries in the SSTable entry-region format.
    fn region(entries: &[(&[u8], Option<&[u8]>)]) -> Vec<u8> {
        let mut out = Vec::new();
        for (k, v) in entries {
            out.extend_from_slice(&(k.len() as u32).to_be_bytes());
            out.extend_from_slice(k);
            match v {
                Some(v) => {
                    out.push(0);
                    out.extend_from_slice(&(v.len() as u32).to_be_bytes());
                    out.extend_from_slice(v);
                }
                None => {
                    out.push(1);
                    out.extend_from_slice(&0u32.to_be_bytes());
                }
            }
        }
        out
    }

    #[test]
    fn merges_sorted_and_newest_wins() {
        let newer = region(&[(b"a", Some(b"new")), (b"c", None)]);
        let older = region(&[(b"a", Some(b"old")), (b"b", Some(b"1")), (b"c", Some(b"x"))]);
        let merged: Vec<_> = KWayMerge::new(vec![newer, older]).collect();
        assert_eq!(
            merged,
            vec![
                (b"a".to_vec(), Some(b"new".to_vec())),
                (b"b".to_vec(), Some(b"1".to_vec())),
                (b"c".to_vec(), None),
            ]
        );
    }

    #[test]
    fn three_way_collision_resolves_by_source_order() {
        let s0 = region(&[(b"k", Some(b"v0"))]);
        let s1 = region(&[(b"k", Some(b"v1"))]);
        let s2 = region(&[(b"k", None)]);
        let merged: Vec<_> = KWayMerge::new(vec![s0, s1, s2]).collect();
        assert_eq!(merged, vec![(b"k".to_vec(), Some(b"v0".to_vec()))]);
    }

    #[test]
    fn empty_sources_are_fine() {
        assert_eq!(KWayMerge::new(vec![]).count(), 0);
        assert_eq!(KWayMerge::new(vec![Vec::new(), Vec::new()]).count(), 0);
        let one = region(&[(b"x", Some(b"1"))]);
        let merged: Vec<_> = KWayMerge::new(vec![Vec::new(), one]).collect();
        assert_eq!(merged, vec![(b"x".to_vec(), Some(b"1".to_vec()))]);
    }

    #[test]
    fn disjoint_sources_interleave_in_key_order() {
        let evens = region(&[(b"k0", Some(b"e")), (b"k2", Some(b"e")), (b"k4", Some(b"e"))]);
        let odds = region(&[(b"k1", Some(b"o")), (b"k3", Some(b"o"))]);
        let keys: Vec<Vec<u8>> = KWayMerge::new(vec![evens, odds]).map(|(k, _)| k).collect();
        assert_eq!(keys, vec![b"k0".to_vec(), b"k1".to_vec(), b"k2".to_vec(), b"k3".to_vec(), b"k4".to_vec()]);
    }
}
