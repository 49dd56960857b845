//! Write-ahead log: every batch is appended as one checksummed record
//! before it touches the memtable, so a reopened store recovers exactly the
//! un-flushed tail. A batch is the only record kind, as it is the only
//! store write.

use crate::kv::{FrameSlot, KvOp, KvOps};
use crate::vfs::Vfs;
use std::sync::Arc;

const TAG_BATCH: u8 = 3;
const BATCH_OP_PUT: u8 = 1;
const BATCH_OP_DELETE: u8 = 2;

/// Outcome of a [`Wal::replay_with_stats`] pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WalReplay {
    /// Every intact batch, in append order: `(key, Some(value))` puts and
    /// `(key, None)` deletes, as shared bytes a reopened store moves into
    /// its memtable.
    pub batches: Vec<KvOps>,
    /// Byte length of the valid prefix; anything past it is torn or corrupt
    /// and safe to truncate away.
    pub valid_len: u64,
    /// Did the file extend past the valid prefix?
    pub torn: bool,
}

/// Frame checksum over `[tag]`, the blob and the (empty) value slot. Each
/// part is folded as little-endian 8-byte words (its tail a byte at a time,
/// then its length) through a multiply-xorshift step; every step is a
/// bijection of the state for a fixed input word, so two inputs that differ
/// in one word — a single flipped bit — leave different 64-bit states,
/// folded to 32 bits.
fn checksum(parts: &[&[u8]]) -> u32 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15; // odd: the multiply is invertible
    fn mix(h: u64, w: u64) -> u64 {
        let h = (h ^ w).wrapping_mul(K);
        h ^ (h >> 29)
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        let mut words = part.chunks_exact(8);
        for w in &mut words {
            h = mix(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            h = mix(h, b as u64);
        }
        h = mix(h, part.len() as u64);
    }
    (h ^ (h >> 32)) as u32
}

/// Length of `ops` serialised as a batch blob.
fn batch_blob_len(ops: &[KvOp]) -> usize {
    4 + ops
        .iter()
        .map(|(key, value)| 1 + 4 + key.len() + value.as_ref().map_or(0, |v| 4 + v.len()))
        .sum::<usize>()
}

/// Length of the frame of a batch blob of `blob_len` bytes.
fn frame_len(blob_len: usize) -> usize {
    13 + blob_len
}

/// Write `ops`'s frame — `[TAG_BATCH][blob len][blob][value len 0]
/// [checksum]` — onto the end of `log`, the blob serialised in place. The
/// empty value slot keeps every WAL file's bytes as `checksum_known_answer`
/// pins them. Every frame is sealed here, and only here.
fn write_frame(log: &mut Vec<u8>, ops: &[KvOp], blob_len: usize) {
    log.push(TAG_BATCH);
    log.extend_from_slice(&(blob_len as u32).to_be_bytes());
    let blob_at = log.len();
    log.extend_from_slice(&(ops.len() as u32).to_be_bytes());
    for (key, value) in ops {
        log.push(if value.is_some() { BATCH_OP_PUT } else { BATCH_OP_DELETE });
        log.extend_from_slice(&(key.len() as u32).to_be_bytes());
        log.extend_from_slice(key);
        if let Some(v) = value {
            log.extend_from_slice(&(v.len() as u32).to_be_bytes());
            log.extend_from_slice(v);
        }
    }
    let sum = checksum(&[&[TAG_BATCH], &log[blob_at..], &[]]);
    log.extend_from_slice(&0u32.to_be_bytes());
    log.extend_from_slice(&sum.to_be_bytes());
}

/// Append-only log over one VFS file.
#[derive(Debug, Clone)]
pub struct Wal {
    file: String,
}

impl Wal {
    /// Open (or create) the log at `file`.
    pub fn open(vfs: &mut Vfs, file: &str) -> Wal {
        if !vfs.exists(file) {
            vfs.create(file);
        }
        Wal { file: file.to_string() }
    }

    /// Log an atomic batch as ONE record: the operations, serialised as a
    /// blob, fill the frame's key slot. Recovery applies the whole batch or
    /// none of it.
    ///
    /// With no `shared` slot, or an empty one, the frame is written in
    /// place at the end of the log, so each stored byte is copied once, and
    /// an empty slot receives a copy of the frame. A filled slot holds the
    /// frame another store wrote for the same operations: it is appended as
    /// it is, with no framing and no checksum here.
    pub fn log_batch(&self, vfs: &mut Vfs, ops: &[KvOp], shared: Option<&FrameSlot>) {
        if let Some(frame) = shared.and_then(|slot| slot.get()) {
            return self.append_shared(vfs, ops, frame);
        }
        let blob_len = batch_blob_len(ops);
        vfs.append_with(&self.file, frame_len(blob_len), |log| {
            let at = log.len();
            write_frame(log, ops, blob_len);
            if let Some(slot) = shared {
                // Only a store that found the slot empty frames in place.
                let _ = slot.set(log[at..].into());
            }
        });
    }

    /// Append `frame`, the batch frame another store wrote for `ops`, as an
    /// append of its own: the same op charge, byte count, tearing under a
    /// capacity and last-append marker as framing in place. Debug builds
    /// frame `ops` afresh and assert that the bytes are equal.
    fn append_shared(&self, vfs: &mut Vfs, ops: &[KvOp], frame: &[u8]) {
        if cfg!(debug_assertions) {
            let blob_len = batch_blob_len(ops);
            let mut own = Vec::with_capacity(frame_len(blob_len));
            write_frame(&mut own, ops, blob_len);
            assert!(own == frame, "a shared WAL frame differs from its batch's own");
        }
        vfs.append(&self.file, frame);
    }

    /// Truncate after a successful memtable flush. The file keeps its
    /// buffer, so the next batches append without regrowing it.
    pub fn reset(&self, vfs: &mut Vfs) {
        vfs.create(&self.file);
    }

    /// Backing file name.
    pub fn file(&self) -> &str {
        &self.file
    }

    /// Replay all intact batches. A torn or corrupt tail (crash mid-append)
    /// ends replay at the last good record, like production WALs.
    pub fn replay(&self, vfs: &mut Vfs) -> Vec<KvOps> {
        self.replay_with_stats(vfs).batches
    }

    /// Replay all intact batches, reporting where the valid prefix ends.
    /// Runs over the borrowed-read path: the log is parsed in place, no
    /// whole-file copy.
    pub fn replay_with_stats(&self, vfs: &mut Vfs) -> WalReplay {
        vfs.read_with(&self.file, 0, usize::MAX, |data| {
            let mut batches = Vec::new();
            let mut pos = 0usize;
            while let Some((ops, consumed)) = Self::parse_one(&data[pos..]) {
                batches.push(ops);
                pos += consumed;
            }
            let torn = pos < data.len();
            WalReplay { batches, valid_len: pos as u64, torn }
        })
        .unwrap_or_default()
    }

    fn parse_one(data: &[u8]) -> Option<(KvOps, usize)> {
        if data.len() < 9 || data[0] != TAG_BATCH {
            return None;
        }
        let blen = u32::from_be_bytes(data[1..5].try_into().ok()?) as usize;
        if data.len() < 5 + blen + 4 {
            return None;
        }
        let blob = &data[5..5 + blen];
        let vstart = 5 + blen;
        let vlen = u32::from_be_bytes(data[vstart..vstart + 4].try_into().ok()?) as usize;
        let vend = vstart + 4 + vlen;
        if data.len() < vend + 4 {
            return None;
        }
        let value = &data[vstart + 4..vend];
        let stored = u32::from_be_bytes(data[vend..vend + 4].try_into().ok()?);
        if stored != checksum(&[&[TAG_BATCH], blob, value]) {
            return None;
        }
        Some((Self::parse_batch_blob(blob)?, vend + 4))
    }

    fn parse_batch_blob(blob: &[u8]) -> Option<KvOps> {
        let count = u32::from_be_bytes(blob.get(..4)?.try_into().ok()?) as usize;
        let mut ops = Vec::with_capacity(count);
        let mut pos = 4usize;
        for _ in 0..count {
            let op = *blob.get(pos)?;
            pos += 1;
            let klen =
                u32::from_be_bytes(blob.get(pos..pos + 4)?.try_into().ok()?) as usize;
            pos += 4;
            let key: Arc<[u8]> = blob.get(pos..pos + klen)?.into();
            pos += klen;
            match op {
                BATCH_OP_PUT => {
                    let vlen =
                        u32::from_be_bytes(blob.get(pos..pos + 4)?.try_into().ok()?) as usize;
                    pos += 4;
                    let value: Arc<[u8]> = blob.get(pos..pos + vlen)?.into();
                    pos += vlen;
                    ops.push((key, Some(value)));
                }
                BATCH_OP_DELETE => ops.push((key, None)),
                _ => return None,
            }
        }
        if pos != blob.len() {
            return None;
        }
        Some(ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ops` as the shared bytes a batch holds.
    fn shared(ops: Vec<(Vec<u8>, Option<Vec<u8>>)>) -> KvOps {
        ops.into_iter().map(|(k, v)| (k.into(), v.map(Into::into))).collect()
    }

    /// A one-op batch: a put of `key` to `value`, or a delete for `None`.
    fn one(key: &[u8], value: Option<&[u8]>) -> KvOps {
        vec![(key.into(), value.map(Into::into))]
    }

    #[test]
    fn replay_round_trips() {
        let mut vfs = Vfs::new();
        let wal = Wal::open(&mut vfs, "wal");
        wal.log_batch(&mut vfs, &one(b"a", Some(b"1")), None);
        wal.log_batch(&mut vfs, &one(b"b", None), None);
        wal.log_batch(&mut vfs, &one(b"c", Some(b"3")), None);
        assert_eq!(
            wal.replay(&mut vfs),
            vec![one(b"a", Some(b"1")), one(b"b", None), one(b"c", Some(b"3"))]
        );
    }

    #[test]
    fn reset_clears_log() {
        let mut vfs = Vfs::new();
        let wal = Wal::open(&mut vfs, "wal");
        wal.log_batch(&mut vfs, &one(b"a", Some(b"1")), None);
        wal.reset(&mut vfs);
        assert!(wal.replay(&mut vfs).is_empty());
    }

    #[test]
    fn torn_tail_is_dropped() {
        let mut vfs = Vfs::new();
        let wal = Wal::open(&mut vfs, "wal");
        wal.log_batch(&mut vfs, &one(b"good", Some(b"record")), None);
        let good_len = vfs.file_size("wal").unwrap();
        // Simulate a crash mid-append: write a partial record by hand.
        vfs.append("wal", &[TAG_BATCH, 0, 0, 0, 10, b'x']);
        let replay = wal.replay_with_stats(&mut vfs);
        assert_eq!(replay.batches, vec![one(b"good", Some(b"record"))]);
        assert!(replay.torn);
        assert_eq!(replay.valid_len, good_len);
    }

    #[test]
    fn intact_log_reports_not_torn() {
        let mut vfs = Vfs::new();
        let wal = Wal::open(&mut vfs, "wal");
        wal.log_batch(&mut vfs, &one(b"a", Some(b"1")), None);
        let replay = wal.replay_with_stats(&mut vfs);
        assert!(!replay.torn);
        assert_eq!(replay.valid_len, vfs.file_size("wal").unwrap());
        assert_eq!(replay.batches.len(), 1);
    }

    #[test]
    fn corrupt_checksum_stops_replay() {
        let mut vfs = Vfs::new();
        let wal = Wal::open(&mut vfs, "wal");
        wal.log_batch(&mut vfs, &one(b"a", Some(b"1")), None);
        wal.log_batch(&mut vfs, &one(b"b", Some(b"2")), None);
        let mut data = vfs.read("wal").unwrap();
        // Flip the second batch's value byte, just before the frame's empty
        // value slot and checksum.
        let n = data.len();
        assert_eq!(data[n - 9], b'2');
        data[n - 9] ^= 0xff;
        vfs.write("wal", &data);
        assert_eq!(wal.replay(&mut vfs), vec![one(b"a", Some(b"1"))]);
    }

    #[test]
    fn missing_file_replays_empty() {
        let mut vfs = Vfs::new();
        let wal = Wal { file: "ghost".into() };
        assert!(wal.replay(&mut vfs).is_empty());
    }

    #[test]
    fn batch_record_round_trips() {
        let mut vfs = Vfs::new();
        let wal = Wal::open(&mut vfs, "wal");
        let ops = shared(vec![
            (b"a".to_vec(), Some(b"1".to_vec())),
            (b"b".to_vec(), None),
            (b"c".to_vec(), Some(Vec::new())),
        ]);
        wal.log_batch(&mut vfs, &one(b"before", Some(b"x")), None);
        wal.log_batch(&mut vfs, &ops, None);
        wal.log_batch(&mut vfs, &one(b"after", None), None);
        assert_eq!(
            wal.replay(&mut vfs),
            vec![one(b"before", Some(b"x")), ops, one(b"after", None)]
        );
    }

    #[test]
    fn corrupt_batch_blob_stops_replay() {
        let mut vfs = Vfs::new();
        let wal = Wal::open(&mut vfs, "wal");
        wal.log_batch(&mut vfs, &shared(vec![(b"k".to_vec(), Some(b"v".to_vec()))]), None);
        let mut data = vfs.read("wal").unwrap();
        // Flip a bit inside the op blob: the frame checksum catches it.
        data[7] ^= 0x01;
        vfs.write("wal", &data);
        assert!(wal.replay(&mut vfs).is_empty());
    }

    #[test]
    fn empty_batch_allowed() {
        let mut vfs = Vfs::new();
        let wal = Wal::open(&mut vfs, "wal");
        wal.log_batch(&mut vfs, &[], None);
        assert_eq!(wal.replay(&mut vfs), vec![KvOps::new()]);
    }

    /// A one-op batch, then a 3-op batch frame, and the boundary between
    /// them.
    fn put_then_batch(vfs: &mut Vfs) -> (Wal, u64) {
        let wal = Wal::open(vfs, "wal");
        wal.log_batch(vfs, &one(b"before", Some(b"x")), None);
        let boundary = vfs.file_size("wal").unwrap();
        let ops = shared(vec![
            (b"alpha".to_vec(), Some(b"one".to_vec())),
            (b"beta".to_vec(), None),
            (b"gamma-key-longer-than-a-word".to_vec(), Some(vec![7u8; 19])),
        ]);
        wal.log_batch(vfs, &ops, None);
        (wal, boundary)
    }

    #[test]
    fn every_single_bit_flip_of_a_batch_frame_is_rejected() {
        let mut vfs = Vfs::new();
        let (wal, boundary) = put_then_batch(&mut vfs);
        let intact = vfs.read("wal").unwrap();
        let before = vec![one(b"before", Some(b"x"))];
        for byte in boundary as usize..intact.len() {
            for bit in 0..8 {
                let mut data = intact.clone();
                data[byte] ^= 1 << bit;
                vfs.write("wal", &data);
                let replay = wal.replay_with_stats(&mut vfs);
                assert_eq!(replay.batches, before, "byte {byte} bit {bit}");
                assert_eq!(replay.valid_len, boundary, "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn every_strict_prefix_of_the_last_record_replays_as_torn() {
        let mut vfs = Vfs::new();
        let (wal, boundary) = put_then_batch(&mut vfs);
        let intact = vfs.read("wal").unwrap();
        for cut in boundary as usize + 1..intact.len() {
            vfs.write("wal", &intact[..cut]);
            let replay = wal.replay_with_stats(&mut vfs);
            assert_eq!(replay.batches.len(), 1, "cut {cut}");
            assert!(replay.torn, "cut {cut}");
            assert_eq!(replay.valid_len, boundary, "cut {cut}");
        }
    }

    /// The checksum is part of every WAL file's bytes: pinned over a tag,
    /// key and value that end mid-word.
    #[test]
    fn checksum_known_answer() {
        assert_eq!(checksum(&[&[1], b"blockbench-wal", b"frame-value"]), 0xa6cc_7e4c);
        // And a whole batch frame — a put, a delete and an empty value under
        // keys that end mid-word — byte for byte.
        let mut vfs = Vfs::new();
        let wal = Wal::open(&mut vfs, "wal");
        wal.log_batch(
            &mut vfs,
            &shared(vec![
                (b"blockbench-key".to_vec(), Some(b"frame-value".to_vec())),
                (b"deleted-key".to_vec(), None),
                (b"empty-value-key".to_vec(), Some(Vec::new())),
            ]),
            None,
        );
        let hex: String = vfs.read("wal").unwrap().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            concat!(
                "030000004e00000003010000000e626c6f636b62656e63682d6b65790000000b",
                "6672616d652d76616c7565020000000b64656c657465642d6b6579010000000f",
                "656d7074792d76616c75652d6b657900000000000000009119586c",
            )
        );
    }

    #[test]
    fn empty_values_allowed() {
        let mut vfs = Vfs::new();
        let wal = Wal::open(&mut vfs, "wal");
        wal.log_batch(&mut vfs, &one(b"empty", Some(b"")), None);
        assert_eq!(wal.replay(&mut vfs), vec![one(b"empty", Some(b""))]);
    }
}
