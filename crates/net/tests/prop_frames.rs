//! Property-based tests for the frame codec.
//!
//! Invariants:
//! * Any [`FrameHeader`] — data or control, any field values — round-trips
//!   through every decode path (slice, stream reader, incremental decoder
//!   under any chunking) with every field and the messages intact.
//! * The incremental [`FrameDecoder`] fed an arbitrary frame stream in
//!   arbitrary chunks produces exactly the frames the blocking
//!   [`read_frame`] reader produces, and never panics on truncated or
//!   bit-flipped input.
//! * Every CRC-32 kernel — each called directly, so both fast ones run on
//!   any host that has them — equals the bytewise reference, one-shot and
//!   under any streaming split.
//! * No single flipped bit anywhere in a frame — header or body, data or
//!   control — yields a frame, however the decoder is fed.
//! * The wire format is pinned: the frames in `fixtures/golden_frames.txt`
//!   decode, the encoder reproduces them bit for bit, and the file records
//!   the protocol version it was written under. Every frame of the
//!   previous version (`fixtures/golden_frames_v1.txt`) is refused.

use neptune_compress::SelectiveCompressor;
use neptune_net::crc::{self, crc32, Crc32};
use neptune_net::frame::{
    decode_frame, encode_control_frame, encode_frame, encode_frame_into, encode_frame_raw,
    encode_hello_frame, read_frame, wire_len, ControlKind, Frame, FrameDecoder, FrameError,
    FrameHeader, CAPS_ALL, FRAME_HEADER_LEN, PROTOCOL_VERSION,
};
use proptest::prelude::*;

/// Deterministic filler with no short period (so a kernel that skipped or
/// repeated a block could not get away with it).
fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 24) as u8
        })
        .collect()
}

/// A CRC kernel: raw register in, data, raw register out.
type Kernel = fn(u32, &[u8]) -> u32;

/// The fast kernels present on this host, by name. `hardware` is called
/// directly rather than through `Crc32`, so it is exercised whatever the
/// dispatcher would have picked.
fn fast_kernels() -> Vec<(&'static str, Kernel)> {
    let mut kernels: Vec<(&'static str, Kernel)> = vec![("portable", crc::portable)];
    if crc::hardware(!0, &[]).is_some() {
        kernels.push(("hardware", |reg, data| crc::hardware(reg, data).expect("probed above")));
    }
    kernels
}

#[test]
fn crc_known_vectors_hold_on_every_kernel() {
    for (name, kernel) in fast_kernels() {
        assert_eq!(!kernel(!0, b"123456789"), 0xCBF4_3926, "{name}");
        assert_eq!(!kernel(!0, b""), 0, "{name}");
        assert_eq!(!kernel(!0, b"a"), 0xE8B7_BE43, "{name}");
        // 200 bytes: long enough for the folding kernel's own path.
        let long = [0x5Au8; 200];
        assert_eq!(kernel(!0, &long), crc::reference(!0, &long), "{name}");
    }
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}

#[test]
fn crc_kernels_match_reference_at_every_length_and_alignment() {
    let data = noise(600 + 16, 0x9E37_79B9_7F4A_7C15);
    for (name, kernel) in fast_kernels() {
        for len in 0..=600 {
            // Sixteen starting offsets: every alignment of the first lane.
            for start in 0..16 {
                let piece = &data[start..start + len];
                for reg in [!0u32, 0, 0x1234_5678] {
                    assert_eq!(
                        kernel(reg, piece),
                        crc::reference(reg, piece),
                        "{name}: len {len}, offset {start}, register {reg:#x}"
                    );
                }
            }
        }
    }
}

#[test]
fn crc_streaming_matches_one_shot_at_every_two_and_three_way_split() {
    // 300 bytes puts splits on both sides of the folding kernel's 128-byte
    // threshold and of every 16- and 64-byte block edge.
    let data = noise(300, 0xD1B5_4A32_D192_ED03);
    let want = !crc::reference(!0, &data);
    assert_eq!(crc32(&data), want);
    for a in 0..=data.len() {
        let mut two = Crc32::new();
        two.update(&data[..a]);
        two.update(&data[a..]);
        assert_eq!(two.finalize(), want, "split at {a}");
        for b in a..=data.len() {
            let mut three = Crc32::new();
            three.update(&data[..a]);
            three.update(&data[a..b]);
            three.update(&data[b..]);
            assert_eq!(three.finalize(), want, "splits at {a}, {b}");
        }
    }
    // The same through each kernel's raw register.
    for (name, kernel) in fast_kernels() {
        for a in (0..=data.len()).step_by(7) {
            let got = !kernel(kernel(!0, &data[..a]), &data[a..]);
            assert_eq!(got, want, "{name}: split at {a}");
        }
    }
}

fn hex(text: &str) -> Vec<u8> {
    (0..text.len()).step_by(2).map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap()).collect()
}

/// The `name hex` lines of a fixture file, and its `version N` line if any.
fn fixture(text: &str) -> (Option<u8>, Vec<(String, Vec<u8>)>) {
    let mut version = None;
    let mut frames = Vec::new();
    for line in text.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
        let (name, rest) = line.split_once(' ').expect("`name value`");
        match name {
            "version" => version = Some(rest.trim().parse().expect("a version number")),
            _ => frames.push((name.to_string(), hex(rest.trim()))),
        }
    }
    (version, frames)
}

/// The current format's fixture. Its recorded version must be the one this
/// build speaks: changing the bytes without bumping the constant — or the
/// constant without regenerating the bytes — fails here.
fn golden() -> Vec<(String, Vec<u8>)> {
    let (version, frames) = fixture(include_str!("fixtures/golden_frames.txt"));
    assert_eq!(version, Some(PROTOCOL_VERSION), "fixture version != PROTOCOL_VERSION");
    assert_eq!(frames.len(), 14, "ten data frames and four control frames");
    frames
}

const GOLDEN_STAMP: u64 = 1_722_000_000_000_123;
const GOLDEN_SEQ: u64 = 4242;
const GOLDEN_TRACE: u64 = 0xDEAD_BEEF_0000_0007;

/// The header, messages and policy a fixture frame was encoded from.
fn golden_input(name: &str) -> (FrameHeader, Vec<Vec<u8>>, SelectiveCompressor) {
    let (body, fields) = name.split_once('/').expect("`body/fields`");
    if body == "control" {
        let (kind, value) = match fields {
            "heartbeat" => (ControlKind::Heartbeat, 3),
            "ack" => (ControlKind::Ack, 1_000_000),
            "hello" => (ControlKind::Hello, u64::from(CAPS_ALL)),
            "barrier" => (ControlKind::Barrier, u64::MAX),
            other => panic!("unknown fixture control frame {other}"),
        };
        let header =
            FrameHeader { link_id: 7, base_seq: value, control: Some(kind), ..Default::default() };
        return (header, Vec::new(), SelectiveCompressor::disabled());
    }
    let (messages, policy): (Vec<Vec<u8>>, _) = match body {
        "raw" => {
            (vec![b"alpha".to_vec(), b"bravo!".to_vec(), vec![]], SelectiveCompressor::disabled())
        }
        "lz4" => ((0..40u8).map(|i| vec![i / 8; 100]).collect(), SelectiveCompressor::new(4.0)),
        other => panic!("unknown fixture body {other}"),
    };
    let (sent_at_micros, seq, trace) = match fields {
        "none" => (0, None, None),
        "sent_at" => (GOLDEN_STAMP, None, None),
        "seq" => (0, Some(GOLDEN_SEQ), None),
        "trace" => (0, None, Some(GOLDEN_TRACE)),
        "all" => (GOLDEN_STAMP, Some(GOLDEN_SEQ), Some(GOLDEN_TRACE)),
        other => panic!("unknown fixture field set {other}"),
    };
    let header = FrameHeader {
        link_id: 7,
        base_seq: 1000,
        count: messages.len() as u32,
        control: None,
        sent_at_micros,
        seq,
        trace,
    };
    (header, messages, policy)
}

/// What the wire carried, as a header (a decoded frame has no count field;
/// its messages do).
fn header_of(f: &Frame) -> FrameHeader {
    FrameHeader {
        link_id: f.link_id,
        base_seq: f.base_seq,
        count: f.len() as u32,
        control: f.control,
        sent_at_micros: f.sent_at_micros,
        seq: f.seq,
        trace: f.trace,
    }
}

/// `wire` through every decode path: slice, blocking reader, incremental
/// decoder fed whole and fed `chunk` bytes at a time.
fn decode_every_way(wire: &[u8], chunk: usize) -> Vec<Frame> {
    let (sliced, used) = decode_frame(wire).expect("decode_frame");
    assert_eq!(used, wire.len());
    let streamed = read_frame(&mut std::io::Cursor::new(wire)).expect("read_frame");
    let (fed, whole) = FrameDecoder::new().feed(wire, None).expect("feed");
    assert_eq!(fed, wire.len());
    let cuts: Vec<usize> = (chunk..wire.len()).step_by(chunk).collect();
    let Fed::Frame(chunked) = feed_split(wire, &cuts) else { panic!("chunked feed") };
    vec![sliced, streamed, whole.expect("one whole frame"), chunked]
}

#[test]
fn golden_frames_decode_on_every_path() {
    for (name, wire) in &golden() {
        let (header, messages, _) = golden_input(name);
        for f in decode_every_way(wire, 7) {
            assert_eq!(header_of(&f), header, "{name}");
            assert_eq!(&f.messages, &messages, "{name}");
            assert_eq!(f.wire_len, wire.len(), "{name}");
        }
    }
}

#[test]
fn the_encoder_reproduces_the_golden_frames_bit_for_bit() {
    for (name, wire) in golden() {
        let (header, messages, policy) = golden_input(&name);
        let raw = prefixed(&messages);
        // Into a used buffer, after other bytes: appending is part of the
        // contract, and stale capacity must not leak into the frame.
        let mut out = vec![0xEE; 3];
        encode_frame_into(&mut out, &header, &raw, &policy);
        assert_eq!(&out[..3], &[0xEE; 3], "{name}");
        assert_eq!(&out[3..], &wire[..], "{name}");
        // Each convenience that can express this frame agrees.
        match (header.control, name.ends_with("/none")) {
            (Some(ControlKind::Hello), _) => assert_eq!(encode_hello_frame(7, CAPS_ALL), wire),
            (Some(kind), _) => assert_eq!(encode_control_frame(7, kind, header.base_seq), wire),
            (None, true) => {
                assert_eq!(encode_frame(7, 1000, &messages, &policy), wire, "{name}");
                assert_eq!(encode_frame_raw(7, 1000, header.count, &raw, &policy), wire, "{name}");
            }
            (None, false) => {}
        }
    }
}

#[test]
fn every_version_1_frame_is_refused() {
    let (_, frames) = fixture(include_str!("fixtures/golden_frames_v1.txt"));
    assert_eq!(frames.len(), 13, "ten data frames and three control frames");
    let refused =
        |e: &FrameError| matches!(e, FrameError::BadMagic(_) | FrameError::UnsupportedVersion(_));
    for (name, wire) in &frames {
        // A version-1 header is shorter than ours: a lone control frame is
        // not even a whole header, so it is offered twice over as well.
        let doubled = [wire.as_slice(), wire.as_slice()].concat();
        for input in [wire, &doubled] {
            match decode_frame(input) {
                Err(FrameError::Io(_)) if input.len() < FRAME_HEADER_LEN => {}
                other => assert!(other.as_ref().is_err_and(refused), "{name}: {other:?}"),
            }
            match read_frame(&mut std::io::Cursor::new(input)) {
                Err(FrameError::Io(_)) if input.len() < FRAME_HEADER_LEN => {}
                other => assert!(other.as_ref().is_err_and(refused), "{name}: {other:?}"),
            }
            let mut dec = FrameDecoder::new();
            match dec.feed(input, None) {
                Ok((_, None)) => assert!(input.len() < FRAME_HEADER_LEN && !dec.is_idle()),
                other => assert!(other.as_ref().is_err_and(refused), "{name}: {other:?}"),
            }
        }
    }
}

/// What became of some input fed to a decoder.
#[derive(Debug)]
enum Fed {
    Frame(Frame),
    Refused,
    /// The input ended with the decoder still inside a frame.
    Starved,
}

/// Feed `wire` split at `cuts` (sorted offsets), up to the first frame or
/// error.
fn feed_split(wire: &[u8], cuts: &[usize]) -> Fed {
    let mut dec = FrameDecoder::new();
    let mut edges = vec![0];
    edges.extend_from_slice(cuts);
    edges.push(wire.len());
    for pair in edges.windows(2) {
        let mut piece = &wire[pair[0]..pair[1]];
        while !piece.is_empty() {
            match dec.feed(piece, None) {
                Ok((_, Some(frame))) => return Fed::Frame(frame),
                Ok((used, None)) => piece = &piece[used..],
                Err(_) => {
                    assert!(dec.is_idle(), "an error leaves the decoder on a frame boundary");
                    return Fed::Refused;
                }
            }
        }
    }
    assert!(!dec.is_idle(), "input consumed, no frame, no error: must be mid-frame");
    Fed::Starved
}

/// The header, then the rest through the in-place window — the reactor's
/// large-body path. Only meaningful for a frame with a body.
fn feed_then_commit(wire: &[u8]) -> Fed {
    let mut dec = FrameDecoder::new();
    match dec.feed(&wire[..FRAME_HEADER_LEN + 1], None) {
        Ok((_, Some(frame))) => return Fed::Frame(frame),
        Ok((used, None)) => assert_eq!(used, FRAME_HEADER_LEN + 1),
        Err(_) => return Fed::Refused,
    }
    let rest = &wire[FRAME_HEADER_LEN + 1..];
    let n = rest.len().min(dec.body_remaining());
    dec.body_window()[..n].copy_from_slice(&rest[..n]);
    match dec.commit(n, None) {
        Ok(Some(frame)) => Fed::Frame(frame),
        Ok(None) => {
            assert!(!dec.is_idle());
            Fed::Starved
        }
        Err(_) => {
            assert!(dec.is_idle(), "an error leaves the decoder on a frame boundary");
            Fed::Refused
        }
    }
}

#[test]
fn a_flipped_bit_anywhere_is_caught_however_the_decoder_is_fed() {
    let messages: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i; 20]).collect();
    let header = FrameHeader {
        link_id: 7,
        base_seq: 3,
        count: messages.len() as u32,
        control: None,
        sent_at_micros: GOLDEN_STAMP,
        seq: Some(11),
        trace: Some(GOLDEN_TRACE),
    };
    let mut data = Vec::new();
    encode_frame_into(&mut data, &header, &prefixed(&messages), &SelectiveCompressor::disabled());
    let control = encode_control_frame(7, ControlKind::Ack, 1_000_000);

    for wire in [&data, &control] {
        let has_body = wire.len() > FRAME_HEADER_LEN;
        let every_byte: Vec<usize> = (1..wire.len()).collect();
        assert!(matches!(feed_split(wire, &every_byte), Fed::Frame(_)), "clean, byte by byte");
        assert!(!has_body || matches!(feed_then_commit(wire), Fed::Frame(_)), "clean, in place");

        for bit in 0..wire.len() * 8 {
            let mut bad = wire.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            // With the whole input in hand a starved decode is an error too.
            assert!(decode_frame(&bad).is_err(), "bit {bit}: decode_frame");
            assert!(read_frame(&mut std::io::Cursor::new(&bad)).is_err(), "bit {bit}: read_frame");
            // Streaming, a length flipped upward leaves the decoder
            // waiting for bytes that never come; anything else errors.
            let caught = |fed: Fed, how: &str| match fed {
                Fed::Frame(f) => panic!("bit {bit}, {how}: delivered {f:?}"),
                Fed::Refused => {}
                Fed::Starved => assert!((28..32).contains(&(bit / 8)), "bit {bit}, {how}: starved"),
            };
            caught(feed_split(&bad, &[]), "fed whole");
            caught(feed_split(&bad, &every_byte), "fed byte by byte");
            for cut in 1..wire.len() {
                caught(feed_split(&bad, &[cut]), "split once");
            }
            if has_body {
                caught(feed_then_commit(&bad), "committed in place");
            }
        }
    }
}

fn prefixed(msgs: &[Vec<u8>]) -> Vec<u8> {
    let mut raw = Vec::new();
    for m in msgs {
        raw.extend_from_slice(&(m.len() as u32).to_le_bytes());
        raw.extend_from_slice(m);
    }
    raw
}

fn encode(header: &FrameHeader, messages: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(&mut out, header, &prefixed(messages), &SelectiveCompressor::disabled());
    out
}

/// Any header the encoder accepts, with the messages of its body (none
/// for a control frame).
fn arb_frame() -> impl Strategy<Value = (FrameHeader, Vec<Vec<u8>>)> {
    (
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..80), 0..12),
        prop_oneof![
            Just(None),
            Just(None),
            Just(Some(ControlKind::Heartbeat)),
            Just(Some(ControlKind::Ack)),
            Just(Some(ControlKind::Hello)),
            Just(Some(ControlKind::Barrier)),
        ],
        any::<u64>(),
        proptest::option::of(any::<u64>()),
        proptest::option::of(any::<u64>()),
    )
        .prop_map(|(link_id, base_seq, messages, control, sent_at_micros, seq, trace)| {
            let messages = if control.is_some() { Vec::new() } else { messages };
            let count = messages.len() as u32;
            (
                FrameHeader { link_id, base_seq, count, control, sent_at_micros, seq, trace },
                messages,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn any_header_roundtrips_every_decode_path(
        frame in arb_frame(),
        chunk in 1usize..64,
    ) {
        let (header, messages) = frame;
        let wire = encode(&header, &messages);
        // One header size, whatever it carries.
        let want_len = match header.control {
            Some(_) => FRAME_HEADER_LEN,
            None => wire_len(prefixed(&messages).len()),
        };
        prop_assert_eq!(wire.len(), want_len);
        for f in decode_every_way(&wire, chunk) {
            prop_assert_eq!(header_of(&f), header);
            prop_assert_eq!(&f.messages, &messages);
            prop_assert_eq!(f.wire_len, wire.len());
        }
    }

    /// Poison-packet robustness: no input — arbitrary garbage, truncation,
    /// or single-bit corruption of a valid frame — may make the decoder
    /// *panic*. Errors are fine (that is what quarantine and the
    /// `seq_violations` counter are for); unwinding out of the TCP reader
    /// loop is not.
    #[test]
    fn decode_frame_never_panics_on_arbitrary_bytes(
        garbage in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = decode_frame(&garbage);
        let mut cursor = std::io::Cursor::new(&garbage);
        let _ = read_frame(&mut cursor);
    }

    #[test]
    fn decode_frame_never_panics_on_truncated_or_bitflipped_frames(
        frame in arb_frame(),
        cut in any::<usize>(),
        flip_bit in 0usize..8,
        flip_at in any::<usize>(),
    ) {
        let wire = encode(&frame.0, &frame.1);

        // Truncation at every possible boundary: decode must error or
        // report "need more", never unwind.
        let truncated = &wire[..cut % (wire.len() + 1)];
        let _ = decode_frame(truncated);
        let mut cursor = std::io::Cursor::new(truncated);
        let _ = read_frame(&mut cursor);

        // Single-bit corruption anywhere in the frame (header, length
        // prefixes, payload): decode must error, not panic.
        let mut flipped = wire.clone();
        let at = flip_at % flipped.len();
        flipped[at] ^= 1 << flip_bit;
        prop_assert!(decode_frame(&flipped).is_err());
        let mut cursor = std::io::Cursor::new(&flipped);
        prop_assert!(read_frame(&mut cursor).is_err());
    }

    /// The incremental decoder is equivalent to the blocking reader under
    /// *any* chunking: a stream of frames split at an arbitrary byte
    /// boundary (including 1-byte feeds) decodes to the identical frame
    /// sequence.
    #[test]
    fn incremental_decoder_matches_blocking_reader_under_any_chunking(
        frames in proptest::collection::vec(arb_frame(), 1..5),
        chunk in 1usize..64,
    ) {
        let mut stream = Vec::new();
        for (header, messages) in &frames {
            stream.extend_from_slice(&encode(header, messages));
        }

        // Reference: the blocking reader over the whole stream.
        let mut cursor = std::io::Cursor::new(&stream);
        let mut blocking: Vec<Frame> = Vec::new();
        while (cursor.position() as usize) < stream.len() {
            blocking.push(read_frame(&mut cursor).unwrap());
        }

        // Incremental: arbitrary fixed-size chunks.
        let mut dec = FrameDecoder::new();
        let mut incremental: Vec<Frame> = Vec::new();
        for piece in stream.chunks(chunk) {
            let mut off = 0;
            while off < piece.len() {
                let (used, frame) = dec.feed(&piece[off..], None).unwrap();
                prop_assert!(used > 0 || frame.is_some());
                off += used;
                if let Some(f) = frame {
                    incremental.push(f);
                }
            }
        }
        prop_assert!(dec.is_idle(), "no partial frame may remain");

        prop_assert_eq!(incremental.len(), frames.len());
        prop_assert_eq!(blocking.len(), frames.len());
        for ((a, b), (header, messages)) in incremental.iter().zip(&blocking).zip(&frames) {
            prop_assert_eq!(header_of(a), *header);
            prop_assert_eq!(header_of(b), *header);
            prop_assert_eq!(&a.messages, messages);
            prop_assert_eq!(&b.messages, messages);
        }
    }

    /// The in-place window and `feed` may be mixed at any point of a body
    /// (the reactor switches between them by how much is outstanding).
    #[test]
    fn window_commits_and_feeds_interleave_at_any_boundary(
        messages in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200), 1..8),
        steps in proptest::collection::vec((any::<bool>(), 1usize..300), 1..40),
    ) {
        let header = FrameHeader {
            link_id: 5,
            base_seq: 9,
            count: messages.len() as u32,
            seq: Some(1),
            ..FrameHeader::default()
        };
        let wire = encode(&header, &messages);
        let mut dec = FrameDecoder::new();
        let mut off = 0;
        let mut done = None;
        let mut steps = steps.into_iter().cycle();
        while done.is_none() {
            let (in_place, n) = steps.next().expect("cycled");
            let n = n.min(wire.len() - off);
            prop_assert!(n > 0, "frame must complete before the input runs out");
            if in_place && dec.body_remaining() > 0 {
                let n = n.min(dec.body_remaining());
                dec.body_window()[..n].copy_from_slice(&wire[off..off + n]);
                done = dec.commit(n, None).unwrap();
                off += n;
            } else {
                let (used, frame) = dec.feed(&wire[off..off + n], None).unwrap();
                off += used;
                done = frame;
            }
        }
        prop_assert_eq!(off, wire.len());
        prop_assert_eq!(&done.unwrap().messages, &messages);
        prop_assert!(dec.is_idle());
    }

    /// The incremental decoder never panics: arbitrary garbage, truncation
    /// at any boundary, and single-bit corruption must surface as errors
    /// (or quiet partial state), never unwinds — it runs inside IO-pool
    /// tasks where a panic would poison an IO thread.
    #[test]
    fn incremental_decoder_never_panics_on_hostile_input(
        garbage in proptest::collection::vec(any::<u8>(), 0..192),
        frame in arb_frame(),
        cut in any::<usize>(),
        flip_bit in 0usize..8,
        flip_at in any::<usize>(),
        chunk in 1usize..32,
    ) {
        // Arbitrary garbage, in chunks; on error the decoder resets itself
        // and keeps accepting input.
        let mut dec = FrameDecoder::new();
        for piece in garbage.chunks(chunk) {
            let mut off = 0;
            while off < piece.len() {
                match dec.feed(&piece[off..], None) {
                    Ok((0, _)) => break,
                    Ok((used, _)) => off += used,
                    Err(_) => break,
                }
            }
        }

        let wire = encode(&frame.0, &frame.1);

        // Truncation at every boundary.
        let truncated = &wire[..cut % (wire.len() + 1)];
        let mut dec = FrameDecoder::new();
        let _ = dec.feed(truncated, None);

        // Single-bit corruption anywhere.
        let mut flipped = wire.clone();
        let at = flip_at % flipped.len();
        flipped[at] ^= 1 << flip_bit;
        let mut dec = FrameDecoder::new();
        let mut off = 0;
        while off < flipped.len() {
            match dec.feed(&flipped[off..], None) {
                Ok((0, _)) => break,
                Ok((used, _)) => off += used,
                Err(_) => break,
            }
        }
    }
}

proptest! {
    // Few cases: each walks up to a megabyte through the bytewise
    // reference, which an unoptimized test build does slowly.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random long inputs, random unaligned starts, random split: the same
    /// differential check as the exhaustive short-length tests, out to the
    /// batch sizes frames actually carry.
    #[test]
    fn crc_kernels_match_reference_on_large_random_inputs(
        len in 0usize..(1 << 20) + 1,
        start in 0usize..64,
        seed in any::<u64>(),
        split in any::<usize>(),
    ) {
        let data = noise(start + len, seed);
        let piece = &data[start..];
        let want = crc::reference(!0, piece);
        let at = split % (piece.len() + 1);
        for (name, kernel) in fast_kernels() {
            prop_assert_eq!(kernel(!0, piece), want, "{}: len {}", name, len);
            let streamed = kernel(kernel(!0, &piece[..at]), &piece[at..]);
            prop_assert_eq!(streamed, want, "{}: len {}, split {}", name, len, at);
        }
    }
}
