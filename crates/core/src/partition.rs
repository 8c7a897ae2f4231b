//! Stream partitioning schemes (§III-A6 of the paper).
//!
//! *"Partitioning schemes define how a stream should be partitioned when it
//! is routed to different instances of the same stream processor. ...
//! NEPTUNE supports a set of partitioning schemes natively and also allows
//! users to design custom partitioning schemes."*
//!
//! Native schemes: [`Shuffle`](PartitioningScheme::Shuffle) (round-robin
//! load balancing), [`Fields`](PartitioningScheme::Fields) (key-hash
//! grouping, so all packets with equal key fields land on one instance),
//! [`Global`](PartitioningScheme::Global) (everything to instance 0),
//! [`Broadcast`](PartitioningScheme::Broadcast) (everything to every
//! instance), and [`Custom`](PartitioningScheme::Custom).

use crate::packet::{FieldValue, StreamPacket};
use std::sync::Arc;

/// Where a packet should be routed within a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Deliver to one destination instance.
    One(usize),
    /// Deliver to every destination instance.
    All,
}

/// A user-supplied routing function: `(packet, n_instances) -> instance`.
pub type CustomRouter = Arc<dyn Fn(&StreamPacket, usize) -> usize + Send + Sync>;

/// User-facing declaration of how a link partitions its stream.
#[derive(Clone)]
pub enum PartitioningScheme {
    /// Round-robin across destination instances.
    Shuffle,
    /// Hash of the named fields; equal keys always co-locate.
    Fields(Vec<String>),
    /// Everything to instance 0.
    Global,
    /// Replicate to every instance.
    Broadcast,
    /// User-supplied routing: `(packet, n_instances) -> instance`.
    Custom(CustomRouter),
}

impl std::fmt::Debug for PartitioningScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitioningScheme::Shuffle => write!(f, "Shuffle"),
            PartitioningScheme::Fields(keys) => write!(f, "Fields({keys:?})"),
            PartitioningScheme::Global => write!(f, "Global"),
            PartitioningScheme::Broadcast => write!(f, "Broadcast"),
            PartitioningScheme::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

impl PartitioningScheme {
    /// Partition by a single key field.
    pub fn by_field(name: impl Into<String>) -> Self {
        PartitioningScheme::Fields(vec![name.into()])
    }
}

/// The runtime-side stateful router for one (link, source-instance) pair.
/// Shuffle keeps a per-sender round-robin cursor so instances balance even
/// without coordination.
#[derive(Debug)]
pub struct Partitioner {
    scheme: PartitioningSchemeInner,
    cursor: usize,
}

enum PartitioningSchemeInner {
    Shuffle,
    Fields(Vec<String>),
    Global,
    Broadcast,
    Custom(CustomRouter),
}

impl std::fmt::Debug for PartitioningSchemeInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Shuffle => write!(f, "Shuffle"),
            Self::Fields(k) => write!(f, "Fields({k:?})"),
            Self::Global => write!(f, "Global"),
            Self::Broadcast => write!(f, "Broadcast"),
            Self::Custom(_) => write!(f, "Custom"),
        }
    }
}

impl Partitioner {
    /// Instantiate the router for a scheme.
    pub fn new(scheme: &PartitioningScheme) -> Self {
        let inner = match scheme {
            PartitioningScheme::Shuffle => PartitioningSchemeInner::Shuffle,
            PartitioningScheme::Fields(k) => PartitioningSchemeInner::Fields(k.clone()),
            PartitioningScheme::Global => PartitioningSchemeInner::Global,
            PartitioningScheme::Broadcast => PartitioningSchemeInner::Broadcast,
            PartitioningScheme::Custom(f) => PartitioningSchemeInner::Custom(f.clone()),
        };
        Partitioner { scheme: inner, cursor: 0 }
    }

    /// Route among `n_instances` without looking at the packet, when the
    /// scheme allows it: Shuffle, Global and Broadcast never read a field.
    /// `None` for Fields and Custom, which need the decoded packet — call
    /// [`route`](Self::route) then. This is what lets already-encoded
    /// messages be forwarded without materialising a packet.
    ///
    /// Panics if `n_instances == 0`.
    pub fn route_keyless(&mut self, n_instances: usize) -> Option<Route> {
        assert!(n_instances > 0, "cannot route to zero instances");
        match &self.scheme {
            PartitioningSchemeInner::Shuffle => {
                let i = self.cursor % n_instances;
                self.cursor = self.cursor.wrapping_add(1);
                Some(Route::One(i))
            }
            PartitioningSchemeInner::Global => Some(Route::One(0)),
            PartitioningSchemeInner::Broadcast => Some(Route::All),
            PartitioningSchemeInner::Fields(_) | PartitioningSchemeInner::Custom(_) => None,
        }
    }

    /// Route one packet among `n_instances` destination instances.
    ///
    /// Panics if `n_instances == 0`.
    pub fn route(&mut self, packet: &StreamPacket, n_instances: usize) -> Route {
        if let Some(route) = self.route_keyless(n_instances) {
            return route;
        }
        match &self.scheme {
            PartitioningSchemeInner::Fields(keys) => {
                let h = hash_fields(packet, keys);
                Route::One((h % n_instances as u64) as usize)
            }
            PartitioningSchemeInner::Custom(f) => {
                let i = f(packet, n_instances);
                assert!(
                    i < n_instances,
                    "custom partitioner returned instance {i} of {n_instances}"
                );
                Route::One(i)
            }
            _ => unreachable!("keyless schemes are routed above"),
        }
    }
}

/// FNV-1a over the selected fields' canonical encodings. Missing fields
/// hash as a fixed sentinel so routing stays deterministic.
fn hash_fields(packet: &StreamPacket, keys: &[String]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x1000_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    for key in keys {
        match packet.get(key) {
            Some(FieldValue::I64(v)) => eat(&v.to_le_bytes()),
            Some(FieldValue::U64(v)) | Some(FieldValue::Timestamp(v)) => eat(&v.to_le_bytes()),
            Some(FieldValue::F64(v)) => eat(&v.to_bits().to_le_bytes()),
            Some(FieldValue::Bool(v)) => eat(&[*v as u8]),
            Some(FieldValue::Str(s)) => eat(s.as_bytes()),
            Some(FieldValue::Bytes(b)) => eat(b),
            None => eat(&[0xFE, 0xED]),
        }
        eat(&[0x1F]); // field separator
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet_with_key(key: u64) -> StreamPacket {
        let mut p = StreamPacket::new();
        p.push_field("device", FieldValue::U64(key));
        p.push_field("reading", FieldValue::F64(key as f64 * 0.5));
        p
    }

    #[test]
    fn shuffle_is_round_robin() {
        let mut part = Partitioner::new(&PartitioningScheme::Shuffle);
        let p = packet_with_key(1);
        let routes: Vec<Route> = (0..6).map(|_| part.route(&p, 3)).collect();
        assert_eq!(
            routes,
            vec![
                Route::One(0),
                Route::One(1),
                Route::One(2),
                Route::One(0),
                Route::One(1),
                Route::One(2)
            ]
        );
    }

    #[test]
    fn fields_routing_is_deterministic_and_sticky() {
        let mut part = Partitioner::new(&PartitioningScheme::by_field("device"));
        for key in 0..100u64 {
            let p = packet_with_key(key);
            let first = part.route(&p, 5);
            for _ in 0..3 {
                assert_eq!(part.route(&p, 5), first, "key {key} must be sticky");
            }
        }
    }

    #[test]
    fn fields_routing_spreads_keys() {
        let mut part = Partitioner::new(&PartitioningScheme::by_field("device"));
        let mut counts = [0usize; 4];
        for key in 0..1000u64 {
            if let Route::One(i) = part.route(&packet_with_key(key), 4) {
                counts[i] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((150..400).contains(&c), "instance {i} got {c} of 1000");
        }
    }

    #[test]
    fn multi_field_keys_differ_from_single() {
        let mut single = Partitioner::new(&PartitioningScheme::by_field("device"));
        let mut multi =
            Partitioner::new(&PartitioningScheme::Fields(vec!["device".into(), "reading".into()]));
        // Same device, different reading: single-field must co-locate,
        // multi-field generally should not always co-locate.
        let mut p1 = StreamPacket::new();
        p1.push_field("device", FieldValue::U64(7)).push_field("reading", FieldValue::F64(1.0));
        let mut p2 = StreamPacket::new();
        p2.push_field("device", FieldValue::U64(7)).push_field("reading", FieldValue::F64(2.0));
        assert_eq!(single.route(&p1, 16), single.route(&p2, 16));
        // With 16 instances a differing second key should split with
        // overwhelming probability for at least one of several readings.
        let mut split = false;
        for r in 0..32 {
            let mut q = StreamPacket::new();
            q.push_field("device", FieldValue::U64(7))
                .push_field("reading", FieldValue::F64(r as f64));
            if multi.route(&q, 16) != multi.route(&p1, 16) {
                split = true;
                break;
            }
        }
        assert!(split, "multi-field hash never split distinct keys");
    }

    #[test]
    fn global_always_routes_to_zero() {
        let mut part = Partitioner::new(&PartitioningScheme::Global);
        for key in 0..10 {
            assert_eq!(part.route(&packet_with_key(key), 7), Route::One(0));
        }
    }

    #[test]
    fn broadcast_routes_to_all() {
        let mut part = Partitioner::new(&PartitioningScheme::Broadcast);
        assert_eq!(part.route(&packet_with_key(1), 3), Route::All);
    }

    #[test]
    fn keyless_routing_matches_route_and_declines_keyed_schemes() {
        let p = packet_with_key(3);
        for scheme in
            [PartitioningScheme::Shuffle, PartitioningScheme::Global, PartitioningScheme::Broadcast]
        {
            let (mut keyless, mut keyed) = (Partitioner::new(&scheme), Partitioner::new(&scheme));
            for _ in 0..7 {
                assert_eq!(keyless.route_keyless(3), Some(keyed.route(&p, 3)), "{scheme:?}");
            }
        }
        let custom = PartitioningScheme::Custom(Arc::new(|_, _| 0));
        for scheme in [PartitioningScheme::by_field("device"), custom] {
            assert_eq!(Partitioner::new(&scheme).route_keyless(3), None, "{scheme:?}");
        }
    }

    #[test]
    fn custom_scheme_invoked() {
        let scheme = PartitioningScheme::Custom(Arc::new(|p: &StreamPacket, n| {
            (p.get("device").and_then(|v| v.as_u64()).unwrap_or(0) as usize + 1) % n
        }));
        let mut part = Partitioner::new(&scheme);
        assert_eq!(part.route(&packet_with_key(0), 4), Route::One(1));
        assert_eq!(part.route(&packet_with_key(6), 4), Route::One(3));
    }

    #[test]
    #[should_panic(expected = "custom partitioner returned")]
    fn custom_out_of_range_panics() {
        let scheme = PartitioningScheme::Custom(Arc::new(|_, n| n));
        Partitioner::new(&scheme).route(&packet_with_key(0), 2);
    }

    #[test]
    fn missing_key_field_is_deterministic() {
        let mut part = Partitioner::new(&PartitioningScheme::by_field("nonexistent"));
        let a = part.route(&packet_with_key(1), 8);
        let b = part.route(&packet_with_key(2), 8);
        assert_eq!(a, b, "missing fields hash to the sentinel");
    }

    #[test]
    fn single_instance_always_zero() {
        for scheme in [
            PartitioningScheme::Shuffle,
            PartitioningScheme::by_field("device"),
            PartitioningScheme::Global,
        ] {
            let mut part = Partitioner::new(&scheme);
            assert_eq!(part.route(&packet_with_key(9), 1), Route::One(0));
        }
    }
}
