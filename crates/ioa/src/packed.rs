//! Lossless packed state records: the byte codec behind the parallel
//! explorer's frontier.
//!
//! A packed record is the *whole* state of a composed system, written
//! field by field so that unpacking it into a system of the same protocol
//! reproduces every field exactly. It is not an identity: the explorer's
//! 40-byte dedup encoding keeps only what the state key hashes, while a
//! record keeps everything the next successor needs. Integers are LEB128
//! varints, so the small counters, headers and copy ids that make up a
//! bounded-scope state take one byte each.
//!
//! Each layer packs its own fields with [`Field`] and the `put_*`
//! writers, and reads them back through a [`Reader`] in the same order.
//! Records live only inside one process, written and read by this code, so
//! they are not an input surface: a malformed record is a bug here, and
//! decoding it panics.
//!
//! # Example
//!
//! ```
//! use nonfifo_ioa::packed::{Field, Reader};
//! use nonfifo_ioa::{Header, Packet};
//! use std::collections::VecDeque;
//!
//! let queue: VecDeque<Packet> = (0..3).map(|h| Packet::header_only(Header::new(h))).collect();
//! let mut out = Vec::new();
//! queue.pack(&mut out);
//! assert_eq!(out.len(), 4); // one length byte, one byte per packet
//!
//! let mut back = VecDeque::new();
//! let mut r = Reader::new(&out);
//! back.unpack(&mut r);
//! r.finish();
//! assert_eq!(back, queue);
//! ```

use crate::message::Message;
use crate::packet::{CopyId, Dir, Header, Packet, Payload};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Appends `v` as an unsigned LEB128 varint: 7 bits per byte, low bits
/// first, the high bit set on every byte but the last.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Appends `v` as 8 little-endian bytes — for hash digests, which are
/// uniformly spread and would take 9–10 bytes as varints.
pub fn put_u64_fixed(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A cursor over one packed record.
///
/// Every read panics on a truncated or malformed record (see the module
/// docs for why that is a bug rather than an input error).
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Reads one raw byte.
    pub fn u8(&mut self) -> u8 {
        let b = self.buf[self.pos];
        self.pos += 1;
        b
    }

    /// Reads one LEB128 varint written by [`put_varint`].
    pub fn varint(&mut self) -> u64 {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8();
            assert!(shift < 64, "packed varint runs past 64 bits");
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return v;
            }
            shift += 7;
        }
    }

    /// Reads 8 little-endian bytes written by [`put_u64_fixed`].
    pub fn u64_fixed(&mut self) -> u64 {
        let bytes = &self.buf[self.pos..self.pos + 8];
        self.pos += 8;
        u64::from_le_bytes(bytes.try_into().expect("slice of 8 bytes"))
    }

    /// Reads a varint that counts elements of a container.
    pub fn length(&mut self) -> usize {
        usize::try_from(self.varint()).expect("packed length exceeds usize")
    }

    /// Asserts the whole record was consumed: a layer that reads fewer
    /// fields than it wrote would otherwise shift every later field.
    ///
    /// # Panics
    ///
    /// Panics if bytes remain.
    pub fn finish(self) {
        assert_eq!(
            self.pos,
            self.buf.len(),
            "packed record has {} unread bytes",
            self.buf.len() - self.pos
        );
    }
}

/// One packable state field. Automata implement their
/// `pack_state`/`unpack_state` as a list of fields; the channel, monitor
/// and system layers use the same impls for their packets, copy ids and
/// counters.
pub trait Field {
    /// Appends the field to `out`.
    fn pack(&self, out: &mut Vec<u8>);

    /// Reads a field written by [`pack`](Field::pack).
    fn read(r: &mut Reader<'_>) -> Self
    where
        Self: Sized;

    /// Overwrites `self` with a field written by [`pack`](Field::pack).
    /// Containers override this to refill in place, keeping their
    /// allocation.
    fn unpack(&mut self, r: &mut Reader<'_>)
    where
        Self: Sized,
    {
        *self = Self::read(r);
    }
}

impl Field for u8 {
    fn pack(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn read(r: &mut Reader<'_>) -> Self {
        r.u8()
    }
}

impl Field for u32 {
    fn pack(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(*self));
    }
    fn read(r: &mut Reader<'_>) -> Self {
        u32::try_from(r.varint()).expect("packed u32 out of range")
    }
}

impl Field for u64 {
    fn pack(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }
    fn read(r: &mut Reader<'_>) -> Self {
        r.varint()
    }
}

impl Field for usize {
    fn pack(&self, out: &mut Vec<u8>) {
        put_varint(out, *self as u64);
    }
    fn read(r: &mut Reader<'_>) -> Self {
        usize::try_from(r.varint()).expect("packed usize out of range")
    }
}

impl Field for bool {
    fn pack(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn read(r: &mut Reader<'_>) -> Self {
        match r.u8() {
            0 => false,
            1 => true,
            b => panic!("packed bool byte {b}"),
        }
    }
}

impl<T: Field> Field for Option<T> {
    fn pack(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.pack(out);
            }
        }
    }
    fn read(r: &mut Reader<'_>) -> Self {
        bool::read(r).then(|| T::read(r))
    }
}

impl<A: Field, B: Field> Field for (A, B) {
    fn pack(&self, out: &mut Vec<u8>) {
        self.0.pack(out);
        self.1.pack(out);
    }
    fn read(r: &mut Reader<'_>) -> Self {
        let a = A::read(r);
        (a, B::read(r))
    }
}

impl<T: Field> Field for Vec<T> {
    fn pack(&self, out: &mut Vec<u8>) {
        self.len().pack(out);
        for v in self {
            v.pack(out);
        }
    }
    fn read(r: &mut Reader<'_>) -> Self {
        let mut v = Vec::new();
        v.unpack(r);
        v
    }
    fn unpack(&mut self, r: &mut Reader<'_>) {
        self.clear();
        let n = r.length();
        self.extend((0..n).map(|_| T::read(r)));
    }
}

impl<T: Field> Field for VecDeque<T> {
    fn pack(&self, out: &mut Vec<u8>) {
        self.len().pack(out);
        for v in self {
            v.pack(out);
        }
    }
    fn read(r: &mut Reader<'_>) -> Self {
        let mut v = VecDeque::new();
        v.unpack(r);
        v
    }
    fn unpack(&mut self, r: &mut Reader<'_>) {
        self.clear();
        let n = r.length();
        self.extend((0..n).map(|_| T::read(r)));
    }
}

impl<K: Field + Ord, V: Field> Field for BTreeMap<K, V> {
    fn pack(&self, out: &mut Vec<u8>) {
        self.len().pack(out);
        for (k, v) in self {
            k.pack(out);
            v.pack(out);
        }
    }
    fn read(r: &mut Reader<'_>) -> Self {
        let n = r.length();
        (0..n).map(|_| <(K, V)>::read(r)).collect()
    }
}

impl<T: Field + Ord> Field for BTreeSet<T> {
    fn pack(&self, out: &mut Vec<u8>) {
        self.len().pack(out);
        for v in self {
            v.pack(out);
        }
    }
    fn read(r: &mut Reader<'_>) -> Self {
        let n = r.length();
        (0..n).map(|_| T::read(r)).collect()
    }
}

impl Field for Payload {
    fn pack(&self, out: &mut Vec<u8>) {
        self.word().pack(out);
    }
    fn read(r: &mut Reader<'_>) -> Self {
        Payload::new(r.varint())
    }
}

/// One varint `header << 1 | has_payload`, then the payload word if any:
/// a header-only packet with a small header is a single byte.
impl Field for Packet {
    fn pack(&self, out: &mut Vec<u8>) {
        let tag = u64::from(self.header().index()) << 1 | u64::from(self.payload().is_some());
        put_varint(out, tag);
        if let Some(p) = self.payload() {
            p.pack(out);
        }
    }
    fn read(r: &mut Reader<'_>) -> Self {
        let tag = r.varint();
        let header = Header::new(u32::try_from(tag >> 1).expect("packed header out of range"));
        if tag & 1 == 1 {
            Packet::new(header, Payload::read(r))
        } else {
            Packet::header_only(header)
        }
    }
}

impl Field for Message {
    fn pack(&self, out: &mut Vec<u8>) {
        self.id().raw().pack(out);
        self.payload().pack(out);
    }
    fn read(r: &mut Reader<'_>) -> Self {
        let id = r.varint();
        match Option::<Payload>::read(r) {
            Some(p) => Message::with_payload(id, p),
            None => Message::identical(id),
        }
    }
}

impl Field for CopyId {
    fn pack(&self, out: &mut Vec<u8>) {
        self.raw().pack(out);
    }
    fn read(r: &mut Reader<'_>) -> Self {
        CopyId::from_raw(r.varint())
    }
}

impl Field for Dir {
    fn pack(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Dir::Forward => 0,
            Dir::Backward => 1,
        });
    }
    fn read(r: &mut Reader<'_>) -> Self {
        match r.u8() {
            0 => Dir::Forward,
            1 => Dir::Backward,
            b => panic!("packed direction byte {b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Field + PartialEq + std::fmt::Debug>(v: &T, fresh: T) -> usize {
        let mut out = Vec::new();
        v.pack(&mut out);
        let mut back = fresh;
        let mut r = Reader::new(&out);
        back.unpack(&mut r);
        r.finish();
        assert_eq!(&back, v);
        out.len()
    }

    #[test]
    fn varints_cover_the_whole_u64_range() {
        for (v, len) in [
            (0u64, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (1 << 48, 7),
            (u64::MAX, 10),
        ] {
            assert_eq!(round_trip(&v, 7), len, "{v}");
        }
    }

    #[test]
    fn packets_messages_and_copy_ids_round_trip() {
        let packets = [
            Packet::header_only(Header::new(0)),
            Packet::header_only(Header::new(u32::MAX)),
            Packet::new(Header::new(3), Payload::new(0)),
            Packet::new(Header::new(u32::MAX), Payload::new(u64::MAX)),
        ];
        for p in packets {
            round_trip(&p, Packet::header_only(Header::new(9)));
        }
        assert_eq!(
            round_trip(&Packet::header_only(Header::new(5)), packets[0]),
            1
        );
        for m in [
            Message::identical(0),
            Message::identical(u64::MAX),
            Message::with_payload(7, Payload::new(0xCAFE)),
        ] {
            round_trip(&m, Message::identical(1));
        }
        round_trip(&CopyId::from_raw(u64::MAX), CopyId::from_raw(0));
        round_trip(&Dir::Backward, Dir::Forward);
    }

    #[test]
    fn containers_refill_in_place() {
        let src: VecDeque<Option<Payload>> = [None, Some(Payload::new(4))].into();
        round_trip(&src, [Some(Payload::new(1)); 40].into());
        let mut out = Vec::new();
        src.pack(&mut out);
        let mut target: VecDeque<Option<Payload>> = VecDeque::with_capacity(64);
        let cap = target.capacity();
        target.unpack(&mut Reader::new(&out));
        assert_eq!(target, src);
        assert_eq!(target.capacity(), cap, "unpack reallocated");

        let map: BTreeMap<Packet, u32> = [(Packet::header_only(Header::new(2)), 3)].into();
        round_trip(&map, BTreeMap::new());
        let set: BTreeSet<u64> = [1, 5, 1 << 40].into();
        round_trip(&set, [9].into());
        round_trip(&vec![true, false], Vec::new());
        round_trip(&(7u8, Some(3u32)), (0, None));
    }

    #[test]
    #[should_panic(expected = "unread bytes")]
    fn finish_rejects_leftover_bytes() {
        let mut r = Reader::new(&[1, 2]);
        r.u8();
        r.finish();
    }

    #[test]
    #[should_panic]
    fn truncated_records_panic() {
        Reader::new(&[0x80]).varint();
    }
}
