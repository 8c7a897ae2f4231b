//! Reusable packet serialization — NEPTUNE's object-reuse scheme
//! (§III-B3 of the paper).
//!
//! *"Rather than separately and repeatedly create data structures used in
//! serialization and deserialization for individual messages, NEPTUNE
//! creates them once and reuses them for the entire set of buffered
//! messages."*
//!
//! A [`PacketCodec`] is created once per operator instance and reused for
//! every packet in every batch:
//!
//! * `encode_into` appends to a caller-owned buffer (the link's output
//!   buffer), allocating nothing;
//! * `decode_into` rebuilds a packet **in place**, reusing the packet's
//!   field slots — those a `clear` retained included. Where the layout
//!   lines up (the common case — IoT streams have a fixed schema) a slot's
//!   name already equals the wire's and is neither validated nor copied,
//!   and string and byte fields reuse their `String`/`Vec<u8>` buffers: a
//!   warm decode allocates nothing.
//!
//! The REUSE experiment regenerates the paper's GC-share measurement by
//! toggling this path against a naive allocate-per-packet decoder.
//!
//! ## Wire layout (little endian)
//!
//! ```text
//! u16 field_count
//! repeat field_count times:
//!   u8  name_len | name bytes (utf-8, <= 255 bytes)
//!   u8  type_tag
//!   value: I64/U64/F64/Timestamp -> 8 bytes; Bool -> 1 byte;
//!          Str/Bytes -> u32 len | bytes
//! ```

use crate::packet::{Field, FieldType, FieldValue, StreamPacket};

/// Codec failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended mid-structure.
    Truncated {
        /// What was being read.
        context: &'static str,
    },
    /// Unknown field type tag.
    BadTypeTag(u8),
    /// String field held invalid UTF-8.
    InvalidUtf8,
    /// Field name longer than 255 bytes.
    NameTooLong(usize),
    /// More than `u16::MAX` fields.
    TooManyFields(usize),
    /// Bytes remained after the declared fields.
    TrailingBytes(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { context } => {
                write!(f, "truncated packet while reading {context}")
            }
            CodecError::BadTypeTag(t) => write!(f, "unknown field type tag {t}"),
            CodecError::InvalidUtf8 => write!(f, "string field is not valid utf-8"),
            CodecError::NameTooLong(n) => write!(f, "field name of {n} bytes exceeds 255"),
            CodecError::TooManyFields(n) => write!(f, "{n} fields exceed the u16 limit"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after packet"),
        }
    }
}

impl std::error::Error for CodecError {}

const TAG_I64: u8 = 0;
const TAG_U64: u8 = 1;
const TAG_F64: u8 = 2;
const TAG_BOOL: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_BYTES: u8 = 5;
const TAG_TIMESTAMP: u8 = 6;

fn tag_of(v: &FieldValue) -> u8 {
    match v.field_type() {
        FieldType::I64 => TAG_I64,
        FieldType::U64 => TAG_U64,
        FieldType::F64 => TAG_F64,
        FieldType::Bool => TAG_BOOL,
        FieldType::Str => TAG_STR,
        FieldType::Bytes => TAG_BYTES,
        FieldType::Timestamp => TAG_TIMESTAMP,
    }
}

/// Reusable serializer/deserializer. One per operator instance; no
/// per-packet state.
#[derive(Debug, Default)]
pub struct PacketCodec {
    /// Packets encoded since construction.
    encoded: u64,
    /// Packets decoded since construction.
    decoded: u64,
    /// Decode calls that reused at least one existing heap allocation.
    reused_allocations: u64,
}

impl PacketCodec {
    /// New codec.
    pub fn new() -> Self {
        Self::default()
    }

    /// Packets encoded so far.
    pub fn packets_encoded(&self) -> u64 {
        self.encoded
    }

    /// Packets decoded so far.
    pub fn packets_decoded(&self) -> u64 {
        self.decoded
    }

    /// Decode calls that reused an existing string/bytes allocation.
    pub fn reused_allocations(&self) -> u64 {
        self.reused_allocations
    }

    /// Serialize `packet`, appending to `out`.
    pub fn encode_into(
        &mut self,
        packet: &StreamPacket,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        if packet.len() > u16::MAX as usize {
            return Err(CodecError::TooManyFields(packet.len()));
        }
        out.reserve(packet.encoded_size());
        out.extend_from_slice(&(packet.len() as u16).to_le_bytes());
        for (name, value) in packet.iter() {
            if name.len() > 255 {
                return Err(CodecError::NameTooLong(name.len()));
            }
            out.push(name.len() as u8);
            out.extend_from_slice(name.as_bytes());
            out.push(tag_of(value));
            match value {
                FieldValue::I64(v) => out.extend_from_slice(&v.to_le_bytes()),
                FieldValue::U64(v) | FieldValue::Timestamp(v) => {
                    out.extend_from_slice(&v.to_le_bytes())
                }
                FieldValue::F64(v) => out.extend_from_slice(&v.to_le_bytes()),
                FieldValue::Bool(v) => out.push(*v as u8),
                FieldValue::Str(s) => {
                    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
                FieldValue::Bytes(b) => {
                    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
                    out.extend_from_slice(b);
                }
            }
        }
        self.encoded += 1;
        Ok(())
    }

    /// Convenience: serialize into a fresh vector.
    pub fn encode(&mut self, packet: &StreamPacket) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::with_capacity(packet.encoded_size());
        self.encode_into(packet, &mut out)?;
        Ok(out)
    }

    /// Deserialize into `packet`, reusing its field slots — retained ones
    /// past its length included: a slot whose name already equals the
    /// wire's keeps it untouched (an equal name is valid UTF-8 already),
    /// and a value of the slot's type reuses its string/bytes allocation.
    /// The entire input must be consumed; on error `packet` is left empty.
    pub fn decode_into(
        &mut self,
        bytes: &[u8],
        packet: &mut StreamPacket,
    ) -> Result<(), CodecError> {
        let mut r = Reader { bytes, pos: 0 };
        let count = r.u16()? as usize;
        let (fields, len) = packet.slots_mut();
        *len = 0;
        let mut reused_any = false;

        for i in 0..count {
            let name_len = r.u8()? as usize;
            let name_bytes = r.take(name_len, "field name")?;
            // An equal name is valid UTF-8 already: keep it, skip the check.
            let same = fields.get(i).is_some_and(|f| f.name.as_bytes() == name_bytes);
            let name = if same {
                ""
            } else {
                std::str::from_utf8(name_bytes).map_err(|_| CodecError::InvalidUtf8)?
            };
            let tag = r.u8()?;
            match fields.get_mut(i) {
                Some(slot) => {
                    if !same {
                        slot.name.clear();
                        slot.name.push_str(name);
                    }
                    reused_any |= decode_value_into(&mut r, tag, &mut slot.value)?;
                }
                None => {
                    let mut value = FieldValue::Bool(false);
                    decode_value_into(&mut r, tag, &mut value)?;
                    fields.push(Field { name: name.to_owned(), value });
                }
            }
        }
        if r.pos != bytes.len() {
            return Err(CodecError::TrailingBytes(bytes.len() - r.pos));
        }
        *len = count;
        self.decoded += 1;
        if reused_any {
            self.reused_allocations += 1;
        }
        Ok(())
    }

    /// Convenience: deserialize into a fresh packet.
    pub fn decode(&mut self, bytes: &[u8]) -> Result<StreamPacket, CodecError> {
        let mut p = StreamPacket::new();
        self.decode_into(bytes, &mut p)?;
        Ok(p)
    }
}

/// Decode one value; reuses `slot`'s heap allocation when possible.
/// Returns true when an allocation was reused.
fn decode_value_into(
    r: &mut Reader<'_>,
    tag: u8,
    slot: &mut FieldValue,
) -> Result<bool, CodecError> {
    match tag {
        TAG_I64 => {
            *slot = FieldValue::I64(i64::from_le_bytes(r.array::<8>("i64")?));
            Ok(false)
        }
        TAG_U64 => {
            *slot = FieldValue::U64(u64::from_le_bytes(r.array::<8>("u64")?));
            Ok(false)
        }
        TAG_F64 => {
            *slot = FieldValue::F64(f64::from_le_bytes(r.array::<8>("f64")?));
            Ok(false)
        }
        TAG_TIMESTAMP => {
            *slot = FieldValue::Timestamp(u64::from_le_bytes(r.array::<8>("timestamp")?));
            Ok(false)
        }
        TAG_BOOL => {
            *slot = FieldValue::Bool(r.u8()? != 0);
            Ok(false)
        }
        TAG_STR => {
            let len = r.u32()? as usize;
            let data = r.take(len, "string field")?;
            let text = std::str::from_utf8(data).map_err(|_| CodecError::InvalidUtf8)?;
            if let FieldValue::Str(existing) = slot {
                existing.clear();
                existing.push_str(text);
                Ok(true)
            } else {
                *slot = FieldValue::Str(text.to_string());
                Ok(false)
            }
        }
        TAG_BYTES => {
            let len = r.u32()? as usize;
            let data = r.take(len, "bytes field")?;
            if let FieldValue::Bytes(existing) = slot {
                existing.clear();
                existing.extend_from_slice(data);
                Ok(true)
            } else {
                *slot = FieldValue::Bytes(data.to_vec());
                Ok(false)
            }
        }
        other => Err(CodecError::BadTypeTag(other)),
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CodecError> {
        if self.pos + n > self.bytes.len() {
            return Err(CodecError::Truncated { context });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1, "u8")?[0])
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        let b = self.take(2, "u16")?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn array<const N: usize>(&mut self, context: &'static str) -> Result<[u8; N], CodecError> {
        let b = self.take(N, context)?;
        Ok(b.try_into().expect("length checked"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StreamPacket {
        let mut p = StreamPacket::new();
        p.push_field("id", FieldValue::U64(42))
            .push_field("delta", FieldValue::I64(-17))
            .push_field("temp", FieldValue::F64(21.375))
            .push_field("ok", FieldValue::Bool(true))
            .push_field("site", FieldValue::Str("plant-7".into()))
            .push_field("blob", FieldValue::Bytes(vec![0, 255, 127]))
            .push_field("ts", FieldValue::Timestamp(1_736_000_000_000_000));
        p
    }

    #[test]
    fn roundtrip_all_types() {
        let mut codec = PacketCodec::new();
        let p = sample();
        let bytes = codec.encode(&p).unwrap();
        let q = codec.decode(&bytes).unwrap();
        assert_eq!(p, q);
        assert_eq!(codec.packets_encoded(), 1);
        assert_eq!(codec.packets_decoded(), 1);
    }

    #[test]
    fn roundtrip_empty_packet() {
        let mut codec = PacketCodec::new();
        let p = StreamPacket::new();
        let bytes = codec.encode(&p).unwrap();
        assert_eq!(bytes, vec![0, 0]);
        assert_eq!(codec.decode(&bytes).unwrap(), p);
    }

    #[test]
    fn encoded_size_estimate_covers_actual() {
        let mut codec = PacketCodec::new();
        let p = sample();
        let bytes = codec.encode(&p).unwrap();
        assert!(p.encoded_size() >= bytes.len(), "{} < {}", p.encoded_size(), bytes.len());
    }

    #[test]
    fn decode_into_reuses_string_allocation() {
        let mut codec = PacketCodec::new();
        let mut p = StreamPacket::new();
        p.push_field("site", FieldValue::Str("a-long-site-name-xyz".into()));
        let bytes = codec.encode(&p).unwrap();

        // Target packet with a same-typed field: its String must be reused.
        let mut target = StreamPacket::new();
        target.push_field("old", FieldValue::Str(String::with_capacity(64)));
        let old_ptr = match target.field_at(0) {
            Some(FieldValue::Str(s)) => s.as_ptr(),
            _ => unreachable!(),
        };
        codec.decode_into(&bytes, &mut target).unwrap();
        match target.field_at(0) {
            Some(FieldValue::Str(s)) => {
                assert_eq!(s, "a-long-site-name-xyz");
                assert_eq!(s.as_ptr(), old_ptr, "string allocation must be reused");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(target.name_at(0), Some("site"));
        assert_eq!(codec.reused_allocations(), 1);
    }

    #[test]
    fn decode_into_shrinks_and_grows_field_vec() {
        let mut codec = PacketCodec::new();
        let small = {
            let mut p = StreamPacket::new();
            p.push_field("a", FieldValue::U64(1));
            codec.encode(&p).unwrap()
        };
        let big = codec.encode(&sample()).unwrap();

        let mut target = StreamPacket::new();
        codec.decode_into(&big, &mut target).unwrap();
        assert_eq!(target.len(), 7);
        codec.decode_into(&small, &mut target).unwrap();
        assert_eq!(target.len(), 1);
        assert_eq!(target.get("a").unwrap().as_u64(), Some(1));
        codec.decode_into(&big, &mut target).unwrap();
        assert_eq!(target.len(), 7);
    }

    #[test]
    fn a_shorter_decode_then_a_longer_one_roundtrips() {
        let mut codec = PacketCodec::new();
        let long = sample();
        let mut short = StreamPacket::new();
        short.push_field("delta", FieldValue::Str("was an i64".into()));
        let (long_bytes, short_bytes) =
            (codec.encode(&long).unwrap(), codec.encode(&short).unwrap());
        let mut target = StreamPacket::new();
        for (bytes, expected) in
            [(&long_bytes, &long), (&short_bytes, &short), (&long_bytes, &long)]
        {
            codec.decode_into(bytes, &mut target).unwrap();
            assert_eq!(&target, expected);
            assert_eq!(codec.encode(&target).unwrap(), *bytes);
        }
    }

    #[test]
    fn an_equal_name_keeps_its_allocation() {
        let mut codec = PacketCodec::new();
        let bytes = codec.encode(&sample()).unwrap();
        let mut target = codec.decode(&bytes).unwrap();
        let before: Vec<*const u8> = target.iter().map(|(n, _)| n.as_ptr()).collect();
        target.clear();
        codec.decode_into(&bytes, &mut target).unwrap();
        let after: Vec<*const u8> = target.iter().map(|(n, _)| n.as_ptr()).collect();
        assert_eq!(before, after);
        assert_eq!(target, sample());
    }

    #[test]
    fn an_invalid_name_into_a_slot_of_another_name_is_rejected() {
        let mut codec = PacketCodec::new();
        let mut target = StreamPacket::new();
        target.push_field("ab", FieldValue::U64(1));
        // count=1, name of two bytes, the second not UTF-8, tag u64.
        let mut bytes = vec![1, 0, 2, b'a', 0xFF, TAG_U64];
        bytes.extend_from_slice(&5u64.to_le_bytes());
        assert_eq!(codec.decode_into(&bytes, &mut target).unwrap_err(), CodecError::InvalidUtf8);
        assert!(target.is_empty(), "a failed decode leaves the packet empty");
        // The same bytes into a slot that never held a name.
        assert_eq!(codec.decode(&bytes).unwrap_err(), CodecError::InvalidUtf8);
    }

    #[test]
    fn rejects_truncated_input() {
        let mut codec = PacketCodec::new();
        let bytes = codec.encode(&sample()).unwrap();
        for cut in [0, 1, 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(codec.decode(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn rejects_bad_type_tag() {
        // count=1, name "x", tag 99.
        let bytes = [1, 0, 1, b'x', 99];
        let mut codec = PacketCodec::new();
        assert_eq!(codec.decode(&bytes).unwrap_err(), CodecError::BadTypeTag(99));
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut codec = PacketCodec::new();
        let mut bytes = codec.encode(&sample()).unwrap();
        bytes.push(0);
        assert_eq!(codec.decode(&bytes).unwrap_err(), CodecError::TrailingBytes(1));
    }

    #[test]
    fn rejects_invalid_utf8_in_string_field() {
        let mut codec = PacketCodec::new();
        let mut p = StreamPacket::new();
        p.push_field("s", FieldValue::Str("ab".into()));
        let mut bytes = codec.encode(&p).unwrap();
        let n = bytes.len();
        bytes[n - 2] = 0xFF; // corrupt string content
        assert_eq!(codec.decode(&bytes).unwrap_err(), CodecError::InvalidUtf8);
    }

    #[test]
    fn rejects_oversized_name() {
        let mut codec = PacketCodec::new();
        let mut p = StreamPacket::new();
        p.push_field("n".repeat(300), FieldValue::Bool(false));
        assert_eq!(codec.encode(&p).unwrap_err(), CodecError::NameTooLong(300));
    }

    #[test]
    fn encode_into_appends() {
        let mut codec = PacketCodec::new();
        let p = sample();
        let mut out = vec![0xAA];
        codec.encode_into(&p, &mut out).unwrap();
        assert_eq!(out[0], 0xAA);
        assert_eq!(codec.decode(&out[1..]).unwrap(), p);
    }

    #[test]
    fn fixed_schema_stream_reuses_consistently() {
        // Decoding a homogeneous stream into one workhorse packet should
        // reuse allocations on every packet after the first.
        let mut codec = PacketCodec::new();
        let encoded: Vec<Vec<u8>> = (0..50)
            .map(|i| {
                let mut p = StreamPacket::new();
                p.push_field("reading", FieldValue::F64(i as f64))
                    .push_field("label", FieldValue::Str(format!("sensor-{i}")));
                codec.encode(&p).unwrap()
            })
            .collect();
        let mut workhorse = StreamPacket::new();
        for bytes in &encoded {
            codec.decode_into(bytes, &mut workhorse).unwrap();
        }
        assert_eq!(codec.packets_decoded(), 50);
        assert_eq!(codec.reused_allocations(), 49, "all but the first decode must reuse");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_value() -> impl Strategy<Value = FieldValue> {
            prop_oneof![
                any::<i64>().prop_map(FieldValue::I64),
                any::<u64>().prop_map(FieldValue::U64),
                (-1e6f64..1e6).prop_map(FieldValue::F64),
                any::<bool>().prop_map(FieldValue::Bool),
                "[a-z]{0,12}".prop_map(FieldValue::Str),
                proptest::collection::vec(any::<u8>(), 0..24).prop_map(FieldValue::Bytes),
                any::<u64>().prop_map(FieldValue::Timestamp),
            ]
        }

        /// Few, short names, so consecutive packets share names at some
        /// positions and differ at others.
        fn arb_packet() -> impl Strategy<Value = StreamPacket> {
            proptest::collection::vec(("[ab]{1,2}", arb_value()), 0..10).prop_map(|fields| {
                let mut p = StreamPacket::new();
                for (name, value) in fields {
                    p.push_field(name, value);
                }
                p
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn decoding_into_one_workhorse_equals_fresh_decodes(
                packets in proptest::collection::vec(arb_packet(), 1..16)
            ) {
                let mut codec = PacketCodec::new();
                let mut workhorse = StreamPacket::new();
                for p in &packets {
                    let bytes = codec.encode(p).unwrap();
                    codec.decode_into(&bytes, &mut workhorse).unwrap();
                    prop_assert_eq!(&workhorse, &codec.decode(&bytes).unwrap());
                    prop_assert_eq!(&workhorse, p);
                }
            }
        }
    }
}
