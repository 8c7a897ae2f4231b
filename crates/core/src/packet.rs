//! Stream packets — the most fine-grained element of data in NEPTUNE
//! (§III-A1 of the paper).
//!
//! *"Users can define stream packets by combining one or more data fields
//! as required. NEPTUNE natively supports a set of primitive data types and
//! data structures to aid in defining data fields within a stream packet."*
//!
//! A [`StreamPacket`] is an ordered list of named, typed fields. A
//! [`Schema`] optionally constrains the field layout; sources typically
//! declare one so downstream operators can rely on field positions and use
//! the faster index-based accessors.

/// The primitive field types NEPTUNE supports natively.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldType {
    /// Signed 64-bit integer.
    I64,
    /// Unsigned 64-bit integer.
    U64,
    /// 64-bit float.
    F64,
    /// Boolean.
    Bool,
    /// UTF-8 string.
    Str,
    /// Raw bytes.
    Bytes,
    /// Microseconds since the Unix epoch; carried by latency probes.
    Timestamp,
}

/// A field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Signed integer value.
    I64(i64),
    /// Unsigned integer value.
    U64(u64),
    /// Float value.
    F64(f64),
    /// Boolean value.
    Bool(bool),
    /// String value.
    Str(String),
    /// Byte-array value.
    Bytes(Vec<u8>),
    /// Timestamp in microseconds since the epoch.
    Timestamp(u64),
}

impl FieldValue {
    /// The type of this value.
    pub fn field_type(&self) -> FieldType {
        match self {
            FieldValue::I64(_) => FieldType::I64,
            FieldValue::U64(_) => FieldType::U64,
            FieldValue::F64(_) => FieldType::F64,
            FieldValue::Bool(_) => FieldType::Bool,
            FieldValue::Str(_) => FieldType::Str,
            FieldValue::Bytes(_) => FieldType::Bytes,
            FieldValue::Timestamp(_) => FieldType::Timestamp,
        }
    }

    /// Integer content, if `I64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            FieldValue::I64(v) => Some(*v),
            _ => None,
        }
    }

    /// Unsigned content, if `U64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            FieldValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// Float content, if `F64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            FieldValue::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// Boolean content, if `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            FieldValue::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// String content, if `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Byte content, if `Bytes`.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            FieldValue::Bytes(v) => Some(v),
            _ => None,
        }
    }

    /// Timestamp content, if `Timestamp`.
    pub fn as_timestamp(&self) -> Option<u64> {
        match self {
            FieldValue::Timestamp(v) => Some(*v),
            _ => None,
        }
    }

    /// Approximate serialized size in bytes (used to pre-size buffers).
    pub fn encoded_size(&self) -> usize {
        match self {
            FieldValue::I64(_)
            | FieldValue::U64(_)
            | FieldValue::F64(_)
            | FieldValue::Timestamp(_) => 9,
            FieldValue::Bool(_) => 2,
            FieldValue::Str(s) => 5 + s.len(),
            FieldValue::Bytes(b) => 5 + b.len(),
        }
    }
}

/// One named, typed field slot.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Field name, unique within a packet/schema.
    pub name: String,
    /// Field value.
    pub value: FieldValue,
}

/// A stream packet: an ordered collection of named, typed fields.
///
/// A packet owns field *slots* and a live count. [`clear`](Self::clear)
/// only resets the count: the slots keep their names and their string and
/// byte buffers, so refilling a reused packet with the same layout writes
/// no name and allocates nothing (object reuse, §III-B3). Only the live
/// prefix is ever observable — accessors, iteration, `==`, `clone()` and
/// `{:?}` all stop at [`len`](Self::len).
#[derive(Default)]
pub struct StreamPacket {
    /// Field slots; the first `len` are the packet's fields.
    fields: Vec<Field>,
    len: usize,
}

impl StreamPacket {
    /// New empty packet.
    pub fn new() -> Self {
        Self::default()
    }

    /// New packet with pre-reserved field capacity.
    pub fn with_capacity(n: usize) -> Self {
        StreamPacket { fields: Vec::with_capacity(n), len: 0 }
    }

    fn live(&self) -> &[Field] {
        &self.fields[..self.len]
    }

    /// Append a field. Names are not deduplicated; `get` returns the first
    /// match. A slot left by [`clear`](Self::clear) is reused: its name is
    /// rewritten only when it differs, so only a packet that grows past
    /// its earlier length allocates.
    pub fn push_field(&mut self, name: impl AsRef<str>, value: FieldValue) -> &mut Self {
        let name = name.as_ref();
        match self.fields.get_mut(self.len) {
            Some(slot) => {
                if slot.name != name {
                    slot.name.clear();
                    slot.name.push_str(name);
                }
                slot.value = value;
            }
            None => self.fields.push(Field { name: name.to_owned(), value }),
        }
        self.len += 1;
        self
    }

    /// Append a copy of `value`: a retained slot of the same string or
    /// byte type takes it into its own buffer, so relaying fields into a
    /// pooled packet allocates nothing.
    pub fn push_field_from(&mut self, name: impl AsRef<str>, value: &FieldValue) -> &mut Self {
        let copy = match (self.fields.get_mut(self.len).map(|f| &mut f.value), value) {
            (Some(FieldValue::Str(kept)), FieldValue::Str(s)) => {
                let mut kept = std::mem::take(kept);
                kept.clear();
                kept.push_str(s);
                FieldValue::Str(kept)
            }
            (Some(FieldValue::Bytes(kept)), FieldValue::Bytes(b)) => {
                let mut kept = std::mem::take(kept);
                kept.clear();
                kept.extend_from_slice(b);
                FieldValue::Bytes(kept)
            }
            _ => value.clone(),
        };
        self.push_field(name, copy)
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no fields.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Field by position — the fast accessor for schema-stable streams.
    pub fn field_at(&self, i: usize) -> Option<&FieldValue> {
        self.live().get(i).map(|f| &f.value)
    }

    /// Field name by position.
    pub fn name_at(&self, i: usize) -> Option<&str> {
        self.live().get(i).map(|f| f.name.as_str())
    }

    /// First field with this name.
    pub fn get(&self, name: &str) -> Option<&FieldValue> {
        self.live().iter().find(|f| f.name == name).map(|f| &f.value)
    }

    /// Mutable access by name.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut FieldValue> {
        self.fields[..self.len].iter_mut().find(|f| f.name == name).map(|f| &mut f.value)
    }

    /// The packet's source timestamp: the first `Timestamp`-typed field,
    /// in µs since the Unix epoch. This is the end-to-end latency anchor:
    /// sources that want e2e measurement stamp packets with
    /// [`crate::now_micros`] at ingestion, the convention the telemetry
    /// layer reads back at every downstream operator.
    pub fn source_timestamp(&self) -> Option<u64> {
        self.live().iter().find_map(|f| f.value.as_timestamp())
    }

    /// Iterate `(name, value)` pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &FieldValue)> {
        self.live().iter().map(|f| (f.name.as_str(), &f.value))
    }

    /// Remove all fields, keeping every slot for the next fill (object
    /// reuse).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Approximate serialized size in bytes.
    pub fn encoded_size(&self) -> usize {
        2 + self.live().iter().map(|f| 2 + f.name.len() + f.value.encoded_size()).sum::<usize>()
    }

    /// Crate-internal access for the codec's in-place deserialization: all
    /// slots, retained ones included, and the live count.
    pub(crate) fn slots_mut(&mut self) -> (&mut Vec<Field>, &mut usize) {
        (&mut self.fields, &mut self.len)
    }
}

impl Clone for StreamPacket {
    fn clone(&self) -> Self {
        StreamPacket { fields: self.live().to_vec(), len: self.len }
    }
}

impl PartialEq for StreamPacket {
    fn eq(&self, other: &Self) -> bool {
        self.live() == other.live()
    }
}

impl std::fmt::Debug for StreamPacket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamPacket").field("fields", &self.live()).finish()
    }
}

/// Schema violations reported by [`Schema::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// Field count differs from the schema.
    FieldCount {
        /// Fields the schema declares.
        expected: usize,
        /// Fields the packet has.
        actual: usize,
    },
    /// A field's name differs at some position.
    NameMismatch {
        /// Field position.
        index: usize,
        /// Name the schema declares.
        expected: String,
        /// Name the packet has.
        actual: String,
    },
    /// A field's type differs at some position.
    TypeMismatch {
        /// Field position.
        index: usize,
        /// Type the schema declares.
        expected: FieldType,
        /// Type the packet has.
        actual: FieldType,
    },
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemaError::FieldCount { expected, actual } => {
                write!(f, "schema expects {expected} fields, packet has {actual}")
            }
            SchemaError::NameMismatch { index, expected, actual } => {
                write!(f, "field {index}: schema names it '{expected}', packet '{actual}'")
            }
            SchemaError::TypeMismatch { index, expected, actual } => {
                write!(f, "field {index}: schema type {expected:?}, packet {actual:?}")
            }
        }
    }
}

impl std::error::Error for SchemaError {}

/// An ordered set of named, typed field slots that a stream's packets must
/// match.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schema {
    fields: Vec<(String, FieldType)>,
}

impl Schema {
    /// Empty schema; add slots with [`field`](Self::field).
    pub fn new() -> Self {
        Schema { fields: Vec::new() }
    }

    /// Append a field slot (builder style).
    pub fn field(mut self, name: impl Into<String>, ty: FieldType) -> Self {
        self.fields.push((name.into(), ty));
        self
    }

    /// Number of declared fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema declares no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Position of a field name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|(n, _)| n == name)
    }

    /// Declared type at a position.
    pub fn type_at(&self, i: usize) -> Option<FieldType> {
        self.fields.get(i).map(|(_, t)| *t)
    }

    /// Check a packet's layout against this schema.
    pub fn validate(&self, packet: &StreamPacket) -> Result<(), SchemaError> {
        if packet.len() != self.fields.len() {
            return Err(SchemaError::FieldCount {
                expected: self.fields.len(),
                actual: packet.len(),
            });
        }
        for (i, (name, ty)) in self.fields.iter().enumerate() {
            let actual_name = packet.name_at(i).expect("checked len");
            if actual_name != name {
                return Err(SchemaError::NameMismatch {
                    index: i,
                    expected: name.clone(),
                    actual: actual_name.to_string(),
                });
            }
            let actual_ty = packet.field_at(i).expect("checked len").field_type();
            if actual_ty != *ty {
                return Err(SchemaError::TypeMismatch {
                    index: i,
                    expected: *ty,
                    actual: actual_ty,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_packet() -> StreamPacket {
        let mut p = StreamPacket::new();
        p.push_field("id", FieldValue::U64(7))
            .push_field("temp", FieldValue::F64(21.5))
            .push_field("ok", FieldValue::Bool(true))
            .push_field("site", FieldValue::Str("lab-3".into()))
            .push_field("raw", FieldValue::Bytes(vec![1, 2, 3]))
            .push_field("ts", FieldValue::Timestamp(1_000_000));
        p
    }

    #[test]
    fn field_access_by_name_and_index() {
        let p = sample_packet();
        assert_eq!(p.len(), 6);
        assert_eq!(p.get("id").unwrap().as_u64(), Some(7));
        assert_eq!(p.get("temp").unwrap().as_f64(), Some(21.5));
        assert_eq!(p.field_at(2).unwrap().as_bool(), Some(true));
        assert_eq!(p.name_at(3), Some("site"));
        assert_eq!(p.get("site").unwrap().as_str(), Some("lab-3"));
        assert_eq!(p.get("raw").unwrap().as_bytes(), Some(&[1u8, 2, 3][..]));
        assert_eq!(p.get("ts").unwrap().as_timestamp(), Some(1_000_000));
        assert!(p.get("missing").is_none());
        assert!(p.field_at(99).is_none());
    }

    #[test]
    fn typed_accessors_reject_wrong_types() {
        let p = sample_packet();
        assert!(p.get("id").unwrap().as_str().is_none());
        assert!(p.get("site").unwrap().as_u64().is_none());
        assert!(p.get("ok").unwrap().as_f64().is_none());
        assert!(p.get("ts").unwrap().as_u64().is_none(), "timestamp is not a plain u64");
    }

    #[test]
    fn mutation_in_place() {
        let mut p = sample_packet();
        *p.get_mut("temp").unwrap() = FieldValue::F64(25.0);
        assert_eq!(p.get("temp").unwrap().as_f64(), Some(25.0));
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut p = sample_packet();
        let cap = p.fields.capacity();
        p.clear();
        assert!(p.is_empty());
        assert_eq!(p.fields.capacity(), cap);
    }

    #[test]
    fn clear_then_other_names_gives_exactly_the_new_packet() {
        let mut p = sample_packet();
        p.clear();
        p.push_field("temp", FieldValue::I64(-3)).push_field("b", FieldValue::Bool(false));
        let mut expected = StreamPacket::new();
        expected.push_field("temp", FieldValue::I64(-3)).push_field("b", FieldValue::Bool(false));
        assert_eq!(p, expected);
        assert_eq!(p.len(), 2);
        assert_eq!(p.name_at(1), Some("b"));
        assert!(p.get("site").is_none() && p.get_mut("ts").is_none(), "retained slots are dead");
        assert!(p.field_at(2).is_none() && p.name_at(2).is_none());
        assert_eq!(p.source_timestamp(), None, "a retained timestamp is not the anchor");
        assert_eq!(p.iter().count(), 2);
        assert_eq!(p.encoded_size(), expected.encoded_size());
    }

    #[test]
    fn push_after_clear_keeps_an_equal_name_and_rewrites_another() {
        let mut p = StreamPacket::new();
        p.push_field("same", FieldValue::U64(1)).push_field("old", FieldValue::U64(2));
        let kept = p.fields[0].name.as_ptr();
        p.clear();
        p.push_field("same", FieldValue::U64(3)).push_field("new", FieldValue::U64(4));
        assert_eq!(p.fields[0].name.as_ptr(), kept, "an equal name is not rewritten");
        assert_eq!(p.name_at(1), Some("new"));
        assert_eq!(p.fields.len(), 2, "no slot was added");
    }

    #[test]
    fn push_field_from_copies_into_a_retained_buffer_of_its_type() {
        let source = sample_packet();
        let mut p = StreamPacket::new();
        for (name, value) in source.iter() {
            p.push_field_from(name, value);
        }
        assert_eq!(p, source, "a fresh packet gets a copy of every field");
        let buffers = |p: &StreamPacket| {
            (
                p.get("site").unwrap().as_str().unwrap().as_ptr(),
                p.get("raw").unwrap().as_bytes().unwrap().as_ptr(),
            )
        };
        let kept = buffers(&p);
        p.clear();
        for (name, value) in source.iter() {
            p.push_field_from(name, value);
        }
        assert_eq!(p, source);
        assert_eq!(buffers(&p), kept, "the string and byte buffers are reused");
        // A slot of another type takes a clone.
        p.clear();
        p.push_field_from("id", &FieldValue::Str("now a string".into()));
        assert_eq!(p.get("id"), Some(&FieldValue::Str("now a string".into())));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn equality_clone_and_debug_ignore_retained_slots() {
        let mut reused = sample_packet();
        reused.clear();
        reused.push_field("id", FieldValue::U64(7));
        let mut fresh = StreamPacket::new();
        fresh.push_field("id", FieldValue::U64(7));
        assert_eq!(reused, fresh);
        assert_eq!(format!("{reused:?}"), format!("{fresh:?}"));
        let copy = reused.clone();
        assert_eq!(copy, fresh);
        assert_eq!(copy.fields.len(), 1, "a clone carries only the live fields");
        let mut longer = fresh.clone();
        longer.push_field("temp", FieldValue::F64(21.5));
        assert_ne!(reused, longer);
    }

    #[test]
    fn field_types_reported() {
        let p = sample_packet();
        let types: Vec<FieldType> = p.iter().map(|(_, v)| v.field_type()).collect();
        assert_eq!(
            types,
            vec![
                FieldType::U64,
                FieldType::F64,
                FieldType::Bool,
                FieldType::Str,
                FieldType::Bytes,
                FieldType::Timestamp
            ]
        );
    }

    #[test]
    fn schema_validates_matching_packet() {
        let schema = Schema::new()
            .field("id", FieldType::U64)
            .field("temp", FieldType::F64)
            .field("ok", FieldType::Bool)
            .field("site", FieldType::Str)
            .field("raw", FieldType::Bytes)
            .field("ts", FieldType::Timestamp);
        assert!(schema.validate(&sample_packet()).is_ok());
        assert_eq!(schema.index_of("site"), Some(3));
        assert_eq!(schema.type_at(0), Some(FieldType::U64));
    }

    #[test]
    fn schema_rejects_mismatches() {
        let schema = Schema::new().field("id", FieldType::U64).field("x", FieldType::F64);
        let mut p = StreamPacket::new();
        p.push_field("id", FieldValue::U64(1));
        assert!(matches!(
            schema.validate(&p),
            Err(SchemaError::FieldCount { expected: 2, actual: 1 })
        ));
        p.push_field("y", FieldValue::F64(0.0));
        assert!(matches!(schema.validate(&p), Err(SchemaError::NameMismatch { index: 1, .. })));
        let mut p2 = StreamPacket::new();
        p2.push_field("id", FieldValue::U64(1)).push_field("x", FieldValue::I64(3));
        assert!(matches!(schema.validate(&p2), Err(SchemaError::TypeMismatch { index: 1, .. })));
    }

    #[test]
    fn encoded_size_is_plausible() {
        let p = sample_packet();
        let est = p.encoded_size();
        // 6 fields with names and small payloads: between 40 and 120 bytes.
        assert!((40..150).contains(&est), "estimate {est}");
    }
}
