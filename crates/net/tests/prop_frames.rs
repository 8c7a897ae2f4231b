//! Property-based tests for the frame header-extension scheme.
//!
//! Invariants:
//! * A frame carrying any combination of the [`FLAG_SENT_AT`] and
//!   [`FLAG_SEQ`] extensions round-trips through every decode path
//!   (slice, shared-buffer, and stream reader) with the extension values
//!   and messages intact.
//! * Setting no extensions produces the exact legacy wire layout.
//! * A decoder presented with a *reserved* extension bit it does not
//!   understand skips the unknown word and still decodes the known
//!   extensions and the body — old and new builds interoperate.

//! * The incremental [`FrameDecoder`] fed an arbitrary frame stream in
//!   arbitrary chunks produces exactly the frames the blocking
//!   [`read_frame`] reader produces, and never panics on truncated or
//!   bit-flipped input.
//! * Every CRC-32 kernel — each called directly, so both fast ones run on
//!   any host that has them — equals the bytewise reference, one-shot and
//!   under any streaming split; a corrupted body is caught however the
//!   decoder is fed.
//! * The wire format is pinned: frames the previous encoder produced
//!   (`fixtures/golden_frames.txt`) decode, and the current encoder
//!   reproduces them bit for bit.

use bytes::Bytes;
use neptune_compress::SelectiveCompressor;
use neptune_net::crc::{self, crc32, Crc32};
use neptune_net::frame::{
    decode_frame, decode_frame_shared, encode_control_frame, encode_frame, encode_frame_into,
    encode_frame_raw_ext, encode_frame_raw_traced, read_frame, ControlKind, Frame, FrameDecoder,
    FrameError, FLAG_SENT_AT, FLAG_SEQ, FRAME_HEADER_LEN,
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

/// `name -> wire bytes` from the checked-in fixture.
fn golden() -> Vec<(String, Vec<u8>)> {
    include_str!("fixtures/golden_frames.txt")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let (name, bytes) = l.split_once(' ').expect("`name hex`");
            (name.to_string(), hex(bytes.trim()))
        })
        .collect()
}

const GOLDEN_STAMP: u64 = 1_722_000_000_000_123;
const GOLDEN_SEQ: u64 = 4242;
const GOLDEN_TRACE: u64 = 0xDEAD_BEEF_0000_0007;

/// The inputs the fixture's data frames were encoded from.
fn golden_input(name: &str) -> (Vec<Vec<u8>>, SelectiveCompressor, u64, Option<u64>, Option<u64>) {
    let (body, ext) = name.split_once('/').expect("`body/ext`");
    let (messages, policy) = match body {
        "raw" => {
            (vec![b"alpha".to_vec(), b"bravo!".to_vec(), vec![]], SelectiveCompressor::disabled())
        }
        "lz4" => ((0..40u8).map(|i| vec![i / 8; 100]).collect(), SelectiveCompressor::new(4.0)),
        other => panic!("unknown fixture body {other}"),
    };
    let (stamp, seq, trace) = match ext {
        "none" => (0, None, None),
        "sent_at" => (GOLDEN_STAMP, None, None),
        "seq" => (0, Some(GOLDEN_SEQ), None),
        "trace" => (0, None, Some(GOLDEN_TRACE)),
        "all" => (GOLDEN_STAMP, Some(GOLDEN_SEQ), Some(GOLDEN_TRACE)),
        other => panic!("unknown fixture extension set {other}"),
    };
    (messages, policy, stamp, seq, trace)
}

/// The kind and value the fixture's control frames carry.
fn golden_control(name: &str) -> (ControlKind, u64) {
    match name {
        "heartbeat" => (ControlKind::Heartbeat, 3),
        "ack" => (ControlKind::Ack, 1_000_000),
        "barrier" => (ControlKind::Barrier, u64::MAX),
        other => panic!("unknown fixture control frame {other}"),
    }
}

#[test]
fn golden_frames_from_the_previous_encoder_still_decode() {
    let fixtures = golden();
    assert_eq!(fixtures.len(), 13, "ten data frames and three control frames");
    for (name, wire) in &fixtures {
        let (frame, used) = decode_frame(wire).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(used, wire.len(), "{name}");
        let mut cursor = std::io::Cursor::new(wire);
        let streamed = read_frame(&mut cursor).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut dec = FrameDecoder::new();
        let (fed, incremental) = dec.feed(wire, None).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(fed, wire.len(), "{name}");
        for f in [&frame, &streamed, &incremental.expect("one whole frame")] {
            assert_eq!(f.link_id, 7, "{name}");
            if let Some(kind) = name.strip_prefix("control/") {
                let (want, value) = golden_control(kind);
                assert_eq!((f.control, f.base_seq), (Some(want), value), "{name}");
                assert!(f.is_empty(), "{name}");
            } else {
                let (messages, _, stamp, seq, trace) = golden_input(name);
                assert_eq!(f.base_seq, 1000, "{name}");
                assert_eq!(&f.messages, &messages, "{name}");
                assert_eq!((f.sent_at_micros, f.seq, f.trace), (stamp, seq, trace), "{name}");
            }
        }
    }
}

#[test]
fn current_encoder_reproduces_the_golden_frames_bit_for_bit() {
    for (name, wire) in golden() {
        if let Some(kind) = name.strip_prefix("control/") {
            let (kind, value) = golden_control(kind);
            assert_eq!(encode_control_frame(7, kind, value), wire, "{name}");
            continue;
        }
        let (messages, policy, stamp, seq, trace) = golden_input(&name);
        let (raw, count) = (prefixed(&messages), messages.len() as u32);
        // Into a used buffer, after other bytes: appending is part of the
        // contract, and stale capacity must not leak into the frame.
        let mut out = vec![0xEE; 3];
        encode_frame_into(&mut out, 7, 1000, count, &raw, &policy, stamp, seq, trace);
        assert_eq!(&out[..3], &[0xEE; 3], "{name}");
        assert_eq!(&out[3..], &wire[..], "{name}");
        // Every wrapper that can express this frame agrees.
        assert_eq!(
            encode_frame_raw_traced(7, 1000, count, &raw, &policy, stamp, seq, trace),
            wire,
            "{name}"
        );
        if trace.is_none() {
            assert_eq!(encode_frame_raw_ext(7, 1000, count, &raw, &policy, stamp, seq), wire);
        }
        if name.ends_with("/none") {
            assert_eq!(encode_frame(7, 1000, &messages, &policy), wire, "{name}");
        }
    }
}

/// Feed `wire` split at `cuts` (sorted offsets); the first error, if any.
fn feed_split(wire: &[u8], cuts: &[usize]) -> Result<Option<Frame>, FrameError> {
    let mut dec = FrameDecoder::new();
    let mut edges = vec![0];
    edges.extend_from_slice(cuts);
    edges.push(wire.len());
    let mut done = None;
    for pair in edges.windows(2) {
        let mut piece = &wire[pair[0]..pair[1]];
        while !piece.is_empty() {
            let (used, frame) = dec.feed(piece, None)?;
            piece = &piece[used..];
            done = done.or(frame);
        }
    }
    Ok(done)
}

#[test]
fn a_flipped_body_bit_is_caught_however_the_decoder_is_fed() {
    let messages: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 50]).collect();
    let wire = encode_frame_raw_ext(
        7,
        3,
        messages.len() as u32,
        &prefixed(&messages),
        &SelectiveCompressor::disabled(),
        GOLDEN_STAMP,
        Some(11),
    );
    let body_at = FRAME_HEADER_LEN + 16;
    let every_byte: Vec<usize> = (1..wire.len()).collect();
    assert!(matches!(feed_split(&wire, &every_byte), Ok(Some(_))), "clean frame, byte by byte");
    // One flipped bit in each body byte in turn — so in every chunk of
    // every chunking below.
    for at in body_at..wire.len() {
        let mut bad = wire.clone();
        bad[at] ^= 1 << (at % 8);
        let crc_error = |fed: Result<Option<Frame>, FrameError>| {
            matches!(fed, Err(FrameError::CrcMismatch { .. }))
        };
        assert!(crc_error(feed_split(&bad, &[])), "flip at {at}, fed whole");
        assert!(crc_error(feed_split(&bad, &every_byte)), "flip at {at}, fed byte by byte");
        for cut in 1..wire.len() {
            assert!(crc_error(feed_split(&bad, &[cut])), "flip at {at}, split at {cut}");
        }
        // And through the in-place window, the reactor's large-body path.
        let mut dec = FrameDecoder::new();
        let (used, none) = dec.feed(&bad[..body_at + 1], None).unwrap();
        assert!(used == body_at + 1 && none.is_none());
        let rest = &bad[body_at + 1..];
        assert_eq!(dec.body_remaining(), rest.len());
        dec.body_window()[..rest.len()].copy_from_slice(rest);
        assert!(crc_error(dec.commit(rest.len(), None)), "flip at {at}, committed in place");
        assert!(dec.is_idle(), "an error leaves the decoder on a frame boundary");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn any_extension_combination_roundtrips_every_decode_path(
        link_id in any::<u64>(),
        base_seq in any::<u64>(),
        messages in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..80), 0..12),
        with_stamp in any::<bool>(),
        stamp in 1u64..u64::MAX,
        with_seq in any::<bool>(),
        frame_seq in any::<u64>(),
    ) {
        let raw = prefixed(&messages);
        let sent_at = if with_stamp { stamp } else { 0 };
        let seq = if with_seq { Some(frame_seq) } else { None };
        let wire = encode_frame_raw_ext(
            link_id, base_seq, messages.len() as u32, &raw,
            &SelectiveCompressor::disabled(), sent_at, seq,
        );

        // The flags byte is exactly the chosen extension set.
        let mut expected_flags = 0u8;
        if with_stamp { expected_flags |= FLAG_SENT_AT; }
        if with_seq { expected_flags |= FLAG_SEQ; }
        prop_assert_eq!(wire[4], expected_flags);

        // Slice decode.
        let (f, used) = decode_frame(&wire).unwrap();
        prop_assert_eq!(used, wire.len());
        prop_assert_eq!(f.link_id, link_id);
        prop_assert_eq!(f.base_seq, base_seq);
        prop_assert_eq!(f.sent_at_micros, sent_at);
        prop_assert_eq!(f.seq, seq);
        prop_assert!(f.control.is_none());
        prop_assert_eq!(&f.messages, &messages);

        // Zero-copy shared decode.
        let shared = Bytes::from(wire.clone());
        let (f2, used2) = decode_frame_shared(&shared, None).unwrap();
        prop_assert_eq!(used2, wire.len());
        prop_assert_eq!(f2.sent_at_micros, sent_at);
        prop_assert_eq!(f2.seq, seq);
        prop_assert_eq!(&f2.messages, &messages);

        // Blocking stream reader.
        let mut cursor = std::io::Cursor::new(&wire);
        let f3 = read_frame(&mut cursor).unwrap();
        prop_assert_eq!(f3.sent_at_micros, sent_at);
        prop_assert_eq!(f3.seq, seq);
        prop_assert_eq!(&f3.messages, &messages);

        // No extensions -> byte-identical to the legacy encoder.
        if !with_stamp && !with_seq {
            prop_assert_eq!(wire, encode_frame(
                link_id, base_seq, &messages, &SelectiveCompressor::disabled()));
        }
    }

    /// Poison-packet robustness (ISSUE 5): no input — arbitrary garbage,
    /// truncation, or single-bit corruption of a valid frame — may make
    /// the decoder *panic*. Errors are fine (that is what quarantine and
    /// the `seq_violations` counter are for); unwinding out of the TCP
    /// reader loop is not.
    #[test]
    fn decode_frame_never_panics_on_arbitrary_bytes(
        garbage in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = decode_frame(&garbage);
        let shared = Bytes::from(garbage.clone());
        let _ = decode_frame_shared(&shared, None);
        let mut cursor = std::io::Cursor::new(&garbage);
        let _ = read_frame(&mut cursor);
    }

    #[test]
    fn decode_frame_never_panics_on_truncated_or_bitflipped_frames(
        link_id in any::<u64>(),
        base_seq in any::<u64>(),
        messages in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..40), 0..6),
        with_stamp in any::<bool>(),
        stamp in 1u64..u64::MAX,
        with_seq in any::<bool>(),
        frame_seq in any::<u64>(),
        cut in any::<usize>(),
        flip_bit in 0usize..8,
        flip_at in any::<usize>(),
    ) {
        let raw = prefixed(&messages);
        let sent_at = if with_stamp { stamp } else { 0 };
        let seq = if with_seq { Some(frame_seq) } else { None };
        let wire = encode_frame_raw_ext(
            link_id, base_seq, messages.len() as u32, &raw,
            &SelectiveCompressor::disabled(), sent_at, seq,
        );

        // Truncation at every possible boundary: decode must error or
        // report "need more", never unwind.
        let truncated = &wire[..cut % (wire.len() + 1)];
        let _ = decode_frame(truncated);
        let shared = Bytes::from(truncated.to_vec());
        let _ = decode_frame_shared(&shared, None);
        let mut cursor = std::io::Cursor::new(truncated);
        let _ = read_frame(&mut cursor);

        // Single-bit corruption anywhere in the frame (header, extension
        // words, length prefixes, payload): decode may error or succeed
        // with different contents, but must not panic.
        if !wire.is_empty() {
            let mut flipped = wire.clone();
            let at = flip_at % flipped.len();
            flipped[at] ^= 1 << flip_bit;
            let _ = decode_frame(&flipped);
            let shared = Bytes::from(flipped.clone());
            let _ = decode_frame_shared(&shared, None);
            let mut cursor = std::io::Cursor::new(&flipped);
            let _ = read_frame(&mut cursor);
        }
    }

    #[test]
    fn reserved_extension_words_are_skipped_not_misparsed(
        messages in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..60), 0..8),
        with_stamp in any::<bool>(),
        stamp in 1u64..u64::MAX,
        with_seq in any::<bool>(),
        frame_seq in any::<u64>(),
        unknown_word in any::<u64>(),
    ) {
        // Encode with the known extensions, then forge reserved bit 3:
        // its 8-byte word sits after the known words (ascending bit
        // order), immediately before the body.
        let raw = prefixed(&messages);
        let sent_at = if with_stamp { stamp } else { 0 };
        let seq = if with_seq { Some(frame_seq) } else { None };
        let known = encode_frame_raw_ext(
            9, 100, messages.len() as u32, &raw,
            &SelectiveCompressor::disabled(), sent_at, seq,
        );
        let known_ext = 8 * (wire_flag_count(known[4]) as usize);
        let mut wire = Vec::with_capacity(known.len() + 8);
        wire.extend_from_slice(&known[..FRAME_HEADER_LEN + known_ext]);
        wire[4] |= 0b0000_1000; // reserved extension bit
        wire.extend_from_slice(&unknown_word.to_le_bytes());
        wire.extend_from_slice(&known[FRAME_HEADER_LEN + known_ext..]);

        let (f, used) = decode_frame(&wire).unwrap();
        prop_assert_eq!(used, wire.len());
        prop_assert_eq!(f.sent_at_micros, sent_at);
        prop_assert_eq!(f.seq, seq);
        prop_assert_eq!(&f.messages, &messages);

        let shared = Bytes::from(wire.clone());
        let (f2, _) = decode_frame_shared(&shared, None).unwrap();
        prop_assert_eq!(&f2.messages, &messages);

        let mut cursor = std::io::Cursor::new(&wire);
        let f3 = read_frame(&mut cursor).unwrap();
        prop_assert_eq!(f3.seq, seq);
        prop_assert_eq!(&f3.messages, &messages);
    }

    /// The incremental decoder is equivalent to the blocking reader under
    /// *any* chunking: a stream of frames split at an arbitrary byte
    /// boundary (including 1-byte feeds) decodes to the identical frame
    /// sequence.
    #[test]
    fn incremental_decoder_matches_blocking_reader_under_any_chunking(
        specs in proptest::collection::vec(
            (
                any::<u64>(),                                   // link_id
                any::<u64>(),                                   // base_seq
                proptest::collection::vec(
                    proptest::collection::vec(any::<u8>(), 0..40), 0..5),
                any::<bool>(),                                  // with_stamp
                1u64..u64::MAX,                                 // stamp
                proptest::option::of(any::<u64>()),             // seq
                any::<bool>(),                                  // control?
            ),
            1..5),
        chunk in 1usize..64,
    ) {
        let mut stream = Vec::new();
        for (link_id, base_seq, messages, with_stamp, stamp, seq, control) in &specs {
            if *control {
                let kind =
                    if *with_stamp { ControlKind::Heartbeat } else { ControlKind::Ack };
                stream.extend_from_slice(&encode_control_frame(*link_id, kind, *base_seq));
            } else {
                let raw = prefixed(messages);
                stream.extend_from_slice(&encode_frame_raw_ext(
                    *link_id, *base_seq, messages.len() as u32, &raw,
                    &SelectiveCompressor::disabled(),
                    if *with_stamp { *stamp } else { 0 }, *seq,
                ));
            }
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

        prop_assert_eq!(incremental.len(), blocking.len());
        for (a, b) in incremental.iter().zip(&blocking) {
            prop_assert_eq!(a.link_id, b.link_id);
            prop_assert_eq!(a.base_seq, b.base_seq);
            prop_assert_eq!(a.sent_at_micros, b.sent_at_micros);
            prop_assert_eq!(a.seq, b.seq);
            prop_assert_eq!(a.control, b.control);
            prop_assert_eq!(&a.messages, &b.messages);
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
        let wire = encode_frame_raw_ext(
            5, 9, messages.len() as u32, &prefixed(&messages),
            &SelectiveCompressor::disabled(), 0, Some(1),
        );
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
        messages in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..40), 0..5),
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

        let wire = encode_frame_raw_ext(
            7, 3, messages.len() as u32, &prefixed(&messages),
            &SelectiveCompressor::disabled(), 0, Some(11),
        );

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

fn wire_flag_count(flags: u8) -> u32 {
    flags.count_ones()
}
