//! Survivor-batch framing for the streamed shard runtime.
//!
//! Under the barrier dataflow every shard's survivors reach the master as
//! one completed output at the join point. The streamed runtime instead
//! has each shard worker emit its survivors *incrementally*, in
//! [`SurvivorBatch`] frames over a bounded channel, so the master's merge
//! plane can fold early shards' results while slow (skewed) shards are
//! still pruning.
//!
//! # Wire layout (columnar, zero-copy)
//!
//! Earlier revisions framed each merge unit as its own length-delimited
//! `Bytes`, which cost one allocation per item on the encode side and
//! another on the decode side. The current frame is *columnar*: every
//! item of a batch is encoded back-to-back into one shared **arena**, and
//! a trailing offset column records where each item ends. Parsing is a
//! handful of bounds checks; the items themselves are never copied — the
//! master reads them as sub-slices of the received frame.
//!
//! ```text
//! ┌──────┬─────────┬───────┬──────────┬──────────────┬─────────┬──────────────┬──────────┐
//! │ type │  shard  │  seq  │  count C │ arena_len A  │  arena  │ C × u32 end  │ checksum │
//! │  u8  │   u32   │  u64  │    u32   │     u32      │ A bytes │  offsets     │   u16    │
//! └──────┴─────────┴───────┴──────────┴──────────────┴─────────┴──────────────┴──────────┘
//! ```
//!
//! All integers are big-endian (network order). The end-offset column is
//! *cumulative*: item `i` occupies `arena[end[i-1] .. end[i]]` (with
//! `end[-1] = 0`), so offsets can never overlap by construction, and the
//! parser rejects any frame whose offsets are not non-decreasing or whose
//! last offset differs from `arena_len`. The checksum covers the whole
//! body (everything before the trailing `u16`), so one verification
//! amortizes over the entire batch. Malformed frames are typed
//! [`WireError`]s, never panics — the same defensive discipline as the
//! entry packets of [`crate::wire`].

use crate::wire::{checksum, encapsulated_bytes, WireError};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Frame type discriminant. The entry packets use 1–4 and the legacy
/// per-item batch frame used 5; the columnar frame is 6 so a stale peer
/// fails loudly with [`WireError::BadType`] instead of misparsing.
const TYPE_BATCH: u8 = 6;

/// Fixed bytes before the arena: type + shard + seq + count + arena_len.
const HEADER_BYTES: usize = 1 + 4 + 8 + 4 + 4;

/// Byte offset of the `count` field inside the header (after type, shard,
/// seq) — the builder patches it in place at [`FrameBuilder::finish`].
const COUNT_AT: usize = 1 + 4 + 8;

/// Byte offset of the `arena_len` field inside the header.
const ARENA_LEN_AT: usize = COUNT_AT + 4;

/// Hard cap on items per frame. The count field is 32-bit on the wire,
/// but the runtime chunks batches far below this and the parser rejects
/// anything above it — a corrupt count can never drive a huge
/// preallocation.
pub const MAX_BATCH_ITEMS: usize = u16::MAX as usize;

/// One parsed batch of survivor merge-items streamed from a shard worker
/// to the master merge plane.
///
/// The parse is zero-copy: `arena` and `ends` are windows into the
/// received frame ([`Bytes`] sub-slices share the backing allocation),
/// and [`item`](SurvivorBatch::item) /
/// [`items`](SurvivorBatch::items) hand out `&[u8]` views into the
/// arena. The engine's merge fold consumes those slices directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SurvivorBatch {
    /// The emitting shard.
    pub shard: u32,
    /// Per-shard frame sequence number (0-based).
    pub seq: u64,
    arena: Bytes,
    ends: Bytes,
    count: usize,
}

impl SurvivorBatch {
    /// Parse a frame and verify its checksum. Zero-copy: the returned
    /// batch keeps windows into `buf`, not copies of it.
    pub fn parse(buf: Bytes) -> Result<SurvivorBatch, WireError> {
        if buf.len() < HEADER_BYTES + 2 {
            return Err(WireError::Truncated);
        }
        let body_len = buf.len() - 2;
        let claimed = u16::from_be_bytes([buf[body_len], buf[body_len + 1]]);
        if checksum(&buf[..body_len]) != claimed {
            return Err(WireError::BadChecksum);
        }
        let mut head = buf.slice(..HEADER_BYTES);
        let ty = head.get_u8();
        if ty != TYPE_BATCH {
            return Err(WireError::BadType(ty));
        }
        let shard = head.get_u32();
        let seq = head.get_u64();
        let count = head.get_u32() as usize;
        let arena_len = head.get_u32() as usize;
        if count > MAX_BATCH_ITEMS {
            return Err(WireError::BadPayload);
        }
        // The declared sections must tile the body exactly — a frame with
        // trailing slack (or one cut short) is an encoder bug, not noise.
        if body_len != HEADER_BYTES + arena_len + 4 * count {
            return Err(WireError::Truncated);
        }
        let arena = buf.slice(HEADER_BYTES..HEADER_BYTES + arena_len);
        let ends = buf.slice(HEADER_BYTES + arena_len..body_len);
        // Offsets must be non-decreasing and the last must close the
        // arena; together that makes item windows disjoint and total.
        let mut prev = 0usize;
        for i in 0..count {
            let e = end_at(&ends, i);
            if e < prev || e > arena_len {
                return Err(WireError::BadPayload);
            }
            prev = e;
        }
        if prev != arena_len {
            // Covers both count == 0 with a non-empty arena and a last
            // item that stops short of the declared arena.
            return Err(WireError::BadPayload);
        }
        Ok(SurvivorBatch { shard, seq, arena, ends, count })
    }

    /// Number of items in the batch.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the batch carries no items.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Item `i` as a slice into the frame's arena (no copy).
    ///
    /// # Panics
    /// Panics if `i >= len()`, like slice indexing.
    pub fn item(&self, i: usize) -> &[u8] {
        assert!(i < self.count, "batch item {i} out of range ({})", self.count);
        let lo = if i == 0 { 0 } else { end_at(&self.ends, i - 1) };
        &self.arena[lo..end_at(&self.ends, i)]
    }

    /// Iterate the items as arena slices, in emission order.
    pub fn items(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.count).map(|i| self.item(i))
    }

    /// Bytes this frame occupies on the wire, following the same
    /// encapsulation convention as [`Packet::wire_bytes`]
    /// (42 bytes of Ethernet/IP/UDP overhead, 64-byte minimum frame).
    ///
    /// [`Packet::wire_bytes`]: crate::wire::Packet::wire_bytes
    pub fn wire_bytes(&self) -> u64 {
        encapsulated_bytes(HEADER_BYTES + self.arena.len() + 4 * self.count + 2)
    }
}

/// Cumulative end offset of item `i` (big-endian u32 column).
fn end_at(ends: &Bytes, i: usize) -> usize {
    u32::from_be_bytes([ends[4 * i], ends[4 * i + 1], ends[4 * i + 2], ends[4 * i + 3]]) as usize
}

/// Reusable encoder of [`SurvivorBatch`] frames.
///
/// A shard worker keeps one builder alive across frames (and, on a
/// persistent worker pool, across queries): items are encoded straight
/// into the frame's arena via [`push_with`](FrameBuilder::push_with) —
/// no per-item buffer, no second copy — and the capacity high-water mark
/// carries over so steady-state frames allocate once.
#[derive(Debug, Default)]
pub struct FrameBuilder {
    buf: BytesMut,
    ends: Vec<u32>,
    cap_hint: usize,
    open: bool,
}

impl FrameBuilder {
    /// A builder with no capacity history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a frame for `shard` with sequence number `seq`. Any
    /// unfinished previous frame is discarded.
    pub fn begin(&mut self, shard: u32, seq: u64) {
        self.buf = BytesMut::with_capacity(self.cap_hint.max(64));
        self.ends.clear();
        self.buf.put_u8(TYPE_BATCH);
        self.buf.put_u32(shard);
        self.buf.put_u64(seq);
        self.buf.put_u32(0); // count, patched at finish
        self.buf.put_u32(0); // arena_len, patched at finish
        self.open = true;
    }

    /// Append one item by encoding it directly into the frame's arena.
    /// The closure appends the item's payload to the buffer; whatever it
    /// wrote becomes the item.
    ///
    /// # Panics
    /// Panics if no frame is open or the frame already holds
    /// [`MAX_BATCH_ITEMS`] — the runtime chunks batches far below that.
    pub fn push_with(&mut self, encode: impl FnOnce(&mut BytesMut)) {
        assert!(self.open, "push_with outside begin/finish");
        assert!(self.ends.len() < MAX_BATCH_ITEMS, "too many items to frame");
        encode(&mut self.buf);
        self.ends.push((self.buf.len() - HEADER_BYTES) as u32);
    }

    /// Append one pre-encoded item.
    pub fn push(&mut self, item: &[u8]) {
        self.push_with(|b| b.put_slice(item));
    }

    /// Items pushed into the open frame so far.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the open frame holds no items yet.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Close the frame: patch the header counts, append the offset
    /// column and the checksum, and return the wire bytes.
    ///
    /// # Panics
    /// Panics if no frame is open.
    pub fn finish(&mut self) -> Bytes {
        assert!(self.open, "finish without begin");
        self.open = false;
        let arena_len = (self.buf.len() - HEADER_BYTES) as u32;
        self.buf[COUNT_AT..COUNT_AT + 4].copy_from_slice(&(self.ends.len() as u32).to_be_bytes());
        self.buf[ARENA_LEN_AT..ARENA_LEN_AT + 4].copy_from_slice(&arena_len.to_be_bytes());
        for &e in &self.ends {
            self.buf.put_u32(e);
        }
        let ck = checksum(&self.buf);
        self.buf.put_u16(ck);
        self.cap_hint = self.cap_hint.max(self.buf.len());
        std::mem::take(&mut self.buf).freeze()
    }
}

/// One-shot convenience: frame `items` for `shard`/`seq` in a single
/// call (tests and small callers; hot paths hold a [`FrameBuilder`]).
pub fn emit_batch<I, T>(shard: u32, seq: u64, items: I) -> Bytes
where
    I: IntoIterator<Item = T>,
    T: AsRef<[u8]>,
{
    let mut b = FrameBuilder::new();
    b.begin(shard, seq);
    for item in items {
        b.push(item.as_ref());
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn frame(items: &[&[u8]]) -> Bytes {
        emit_batch(3, 41, items)
    }

    fn parse_items(buf: Bytes) -> Vec<Vec<u8>> {
        let b = SurvivorBatch::parse(buf).expect("parse back");
        b.items().map(|s| s.to_vec()).collect()
    }

    #[test]
    fn round_trips_including_empty_batches_and_items() {
        for items in [vec![b"hello".as_slice(), b"", b"world"], vec![], vec![&[0u8; 300][..]]] {
            let buf = frame(&items);
            let parsed = SurvivorBatch::parse(buf).expect("parse back");
            assert_eq!(parsed.shard, 3);
            assert_eq!(parsed.seq, 41);
            assert_eq!(parsed.len(), items.len());
            let got: Vec<&[u8]> = parsed.items().collect();
            assert_eq!(got, items);
        }
    }

    #[test]
    fn extreme_header_values_round_trip() {
        let buf = emit_batch(u32::MAX, u64::MAX, [b"x".as_slice()]);
        let b = SurvivorBatch::parse(buf).unwrap();
        assert_eq!((b.shard, b.seq), (u32::MAX, u64::MAX));
        assert_eq!(b.item(0), b"x");
    }

    #[test]
    fn builder_reuse_is_bit_identical_to_a_fresh_builder() {
        let mut reused = FrameBuilder::new();
        reused.begin(9, 0);
        reused.push(&[1, 2, 3]);
        let first = reused.finish();
        // Same content again through the warm builder…
        reused.begin(9, 0);
        reused.push(&[1, 2, 3]);
        assert_eq!(reused.finish(), first, "warm builder must not change the wire bytes");
        // …and different content encodes independently of history.
        reused.begin(1, 7);
        reused.push(b"abcdefgh");
        reused.push(b"");
        assert_eq!(reused.finish(), emit_batch(1, 7, [b"abcdefgh".as_slice(), b""]));
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let bytes = frame(&[b"abcdef", b"gh"]);
        for len in 0..bytes.len() {
            assert!(
                SurvivorBatch::parse(bytes.slice(0..len)).is_err(),
                "truncated to {len} bytes parsed"
            );
        }
    }

    #[test]
    fn corruption_is_never_silent() {
        let bytes = frame(&[b"payload", b"x"]);
        let want = parse_items(bytes.clone());
        for i in 0..bytes.len() {
            let mut m = bytes.to_vec();
            m[i] ^= 0x20;
            if let Ok(parsed) = SurvivorBatch::parse(Bytes::from(m)) {
                let got: Vec<Vec<u8>> = parsed.items().map(|s| s.to_vec()).collect();
                assert!(
                    got != want || parsed.shard != 3 || parsed.seq != 41,
                    "bit flip at {i} went unnoticed"
                );
            }
        }
    }

    /// Re-checksum a mutated frame so structural validation (not the
    /// checksum) is what the parser exercises.
    fn reseal(mut m: Vec<u8>) -> Bytes {
        let body = m.len() - 2;
        let ck = checksum(&m[..body]);
        m[body..].copy_from_slice(&ck.to_be_bytes());
        Bytes::from(m)
    }

    #[test]
    fn undercounted_frames_are_rejected_not_silently_shortened() {
        // Claim zero items on a one-item frame: the arena and offset
        // column no longer tile the body.
        let mut m = frame(&[b"ghost"]).to_vec();
        m[COUNT_AT..COUNT_AT + 4].copy_from_slice(&0u32.to_be_bytes());
        assert!(SurvivorBatch::parse(reseal(m)).is_err());
    }

    #[test]
    fn offsets_that_overlap_or_escape_the_arena_are_rejected() {
        // Two items of 3 bytes each: ends = [3, 6]. A decreasing column
        // (overlapping windows) must be rejected…
        let good = frame(&[b"abc", b"def"]);
        let ends_at = good.len() - 2 - 8;
        let mut m = good.to_vec();
        m[ends_at..ends_at + 4].copy_from_slice(&5u32.to_be_bytes());
        m[ends_at + 4..ends_at + 8].copy_from_slice(&2u32.to_be_bytes());
        assert_eq!(SurvivorBatch::parse(reseal(m)), Err(WireError::BadPayload));
        // …as must a last end that stops short of the arena…
        let mut m = good.to_vec();
        m[ends_at + 4..ends_at + 8].copy_from_slice(&5u32.to_be_bytes());
        assert_eq!(SurvivorBatch::parse(reseal(m)), Err(WireError::BadPayload));
        // …or an end past it.
        let mut m = good.to_vec();
        m[ends_at + 4..ends_at + 8].copy_from_slice(&7u32.to_be_bytes());
        assert!(SurvivorBatch::parse(reseal(m)).is_err());
    }

    #[test]
    fn absurd_item_counts_are_rejected_before_any_allocation() {
        let mut m = frame(&[b"x"]).to_vec();
        m[COUNT_AT..COUNT_AT + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(SurvivorBatch::parse(reseal(m)).is_err());
    }

    #[test]
    fn entry_packet_types_are_rejected() {
        // A data packet handed to the batch parser is a type error, not a
        // misread.
        let p = crate::wire::Packet::FinAck { fid: 9 };
        assert!(matches!(
            SurvivorBatch::parse(p.emit()),
            Err(WireError::BadType(_)) | Err(WireError::Truncated)
        ));
    }

    #[test]
    fn wire_bytes_matches_the_frame_convention() {
        // An empty frame is header + checksum + encapsulation — already
        // above the 64-byte Ethernet minimum, which only binds smaller
        // payloads in the entry-packet formats.
        let empty = SurvivorBatch::parse(frame(&[])).unwrap();
        assert_eq!(empty.wire_bytes(), (HEADER_BYTES + 2) as u64 + 42);
        let buf = frame(&[b"0123456789", b"0123456789"]);
        let big = SurvivorBatch::parse(buf.clone()).unwrap();
        assert_eq!(big.wire_bytes(), buf.len() as u64 + 42);
        assert_eq!(big.wire_bytes(), (HEADER_BYTES + 20 + 8 + 2) as u64 + 42);
    }

    #[test]
    fn max_size_frame_round_trips() {
        // A frame at the item cap with a multi-kilobyte arena: the offset
        // column math must hold at the boundary.
        let mut b = FrameBuilder::new();
        b.begin(1, 2);
        for i in 0..MAX_BATCH_ITEMS {
            b.push_with(|buf| buf.put_u8((i % 251) as u8));
        }
        let buf = b.finish();
        let parsed = SurvivorBatch::parse(buf).expect("max-size frame parses");
        assert_eq!(parsed.len(), MAX_BATCH_ITEMS);
        assert_eq!(parsed.item(0), &[0]);
        assert_eq!(parsed.item(MAX_BATCH_ITEMS - 1), &[((MAX_BATCH_ITEMS - 1) % 251) as u8]);
    }

    #[test]
    #[should_panic(expected = "too many items")]
    fn overfull_frames_panic_at_the_builder() {
        let mut b = FrameBuilder::new();
        b.begin(0, 0);
        for _ in 0..=MAX_BATCH_ITEMS {
            b.push(&[]);
        }
    }

    // ------------------------------------------------------------------
    // The fault-injection contract: `channel.rs` claims corruption
    // degrades to an effective drop because the checksum catches it. For
    // a 16-bit ones'-complement sum that claim is exact for any
    // *single-octet* corruption — changing one octet changes one 16-bit
    // summand by a delta in ±(1..=0xFF00), never ≡ 0 (mod 0xFFFF) — so
    // we can demand `BadChecksum` for every position × every XOR mask.
    // ------------------------------------------------------------------

    /// Assert every single-octet corruption of `frame` at `positions` is
    /// rejected, for all 255 non-identity XOR masks.
    fn assert_octet_corruptions_rejected(frame: &Bytes, positions: impl Iterator<Item = usize>) {
        for i in positions {
            for mask in 1u8..=255 {
                let mut m = frame.to_vec();
                m[i] ^= mask;
                assert_eq!(
                    SurvivorBatch::parse(Bytes::from(m)),
                    Err(WireError::BadChecksum),
                    "octet {i} ^ {mask:#04x} slipped past the checksum"
                );
            }
        }
    }

    #[test]
    fn every_single_octet_corruption_of_an_empty_batch_is_caught() {
        let frame = emit_batch(7, 3, std::iter::empty::<&[u8]>());
        let len = frame.len();
        assert_octet_corruptions_rejected(&frame, 0..len);
    }

    #[test]
    fn every_single_octet_corruption_of_a_one_survivor_frame_is_caught() {
        let frame = emit_batch(2, 11, [b"one-survivor \x00\xff payload".as_ref()]);
        let len = frame.len();
        assert_octet_corruptions_rejected(&frame, 0..len);
    }

    #[test]
    fn every_single_octet_corruption_of_a_small_multi_item_frame_is_caught() {
        let frame = frame(&[b"abc", b"", b"\xff\xff", b"0123456789"]);
        let len = frame.len();
        assert_octet_corruptions_rejected(&frame, 0..len);
    }

    #[test]
    fn single_octet_corruption_of_the_max_size_frame_is_caught() {
        // The ones'-complement sum is word-position-independent: whether
        // octet `i` is caught depends only on `i`'s parity within its
        // 16-bit word and the mask — both swept exhaustively on the small
        // frames above. Here the boundary case (a frame at
        // MAX_BATCH_ITEMS) is sampled: full header and trailer, strided
        // arena and offset-column positions, all masks at each.
        let mut b = FrameBuilder::new();
        b.begin(1, 2);
        for i in 0..MAX_BATCH_ITEMS {
            b.push_with(|buf| buf.put_u8((i % 251) as u8));
        }
        let frame = b.finish();
        let len = frame.len();
        // All 255 masks at one even- and one odd-parity octet (the only
        // two positional classes the sum distinguishes)…
        assert_octet_corruptions_rejected(&frame, [HEADER_BYTES, HEADER_BYTES + 1].into_iter());
        // …then a representative mask set across the header, strided
        // arena/offset positions (odd stride hits both parities), and the
        // checksum trailer. Checksumming 327 kB per parse is what bounds
        // this test in debug CI, not the position count.
        let header = 0..HEADER_BYTES;
        let strided = (HEADER_BYTES..len - 2).step_by((len / 16) | 1);
        let trailer = len - 2..len;
        for i in header.chain(strided).chain(trailer) {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut m = frame.to_vec();
                m[i] ^= mask;
                assert_eq!(
                    SurvivorBatch::parse(Bytes::from(m)),
                    Err(WireError::BadChecksum),
                    "octet {i} ^ {mask:#04x} slipped past the checksum"
                );
            }
        }
    }

    // Fuzz-ish properties over arbitrary item multisets and corruptions.
    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn arbitrary_batches_round_trip(
            shard in 0u32..1000,
            seq in 0u64..1_000_000,
            items in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 0..32),
        ) {
            let buf = emit_batch(shard, seq, items.iter());
            let parsed = SurvivorBatch::parse(buf).expect("round trip");
            prop_assert_eq!(parsed.shard, shard);
            prop_assert_eq!(parsed.seq, seq);
            let got: Vec<Vec<u8>> = parsed.items().map(|s| s.to_vec()).collect();
            prop_assert_eq!(got, items);
        }

        #[test]
        fn offsets_never_overlap_and_tile_the_arena(
            items in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..24), 1..24),
        ) {
            let parsed = SurvivorBatch::parse(emit_batch(0, 0, items.iter())).unwrap();
            let mut covered = 0usize;
            for i in 0..parsed.len() {
                covered += parsed.item(i).len();
            }
            prop_assert_eq!(covered, parsed.items().map(<[u8]>::len).sum::<usize>());
            prop_assert_eq!(covered, items.iter().map(Vec::len).sum::<usize>());
        }

        #[test]
        fn checksum_corruption_is_rejected(
            items in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..16), 0..8),
            flip in any::<u8>(),
        ) {
            let buf = emit_batch(2, 9, items.iter());
            // Flip one bit of the checksum trailer: parse must fail.
            let mut m = buf.to_vec();
            let at = m.len() - 1 - (flip as usize % 2);
            m[at] ^= 1 << (flip % 8);
            prop_assert_eq!(SurvivorBatch::parse(Bytes::from(m)), Err(WireError::BadChecksum));
        }
    }
}
