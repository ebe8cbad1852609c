//! Frames that arrive in pieces are parsed once.
//!
//! A peer that trickles a frame makes the decoder try it once per read.
//! Each attempt must resume where the last one stopped — at the element
//! for an array, at the byte for a line — or a frame of `n` pieces costs
//! `n²`, and the event loop that owns the connection, with every
//! connection on it, stalls meanwhile. The bounds below are generous for a
//! debug build; a decoder that rescans from the frame's start takes
//! minutes on these inputs.

use std::time::{Duration, Instant};

use resp::decode::{Decoder, Request};
use resp::encode::encode_frame;
use resp::Frame;

/// The server's default frame cap (`ServerConfig::max_frame_bytes`).
const FRAME_CAP: usize = 8 * 1024 * 1024;

/// Wall-clock allowance for each trickled frame below: a debug build
/// takes ~0.15 s, a decoder that rescans every attempt from the frame's
/// start tens of seconds (the line) to minutes (the command).
const BOUND: Duration = Duration::from_secs(5);

/// Which way out of the decoder a test drives.
#[derive(Clone, Copy, Debug)]
enum Path {
    Frames,
    Requests,
}

/// Feed `pieces` one at a time, asking for a frame after each, and
/// return what the last piece completes.
fn trickle(path: Path, pieces: impl Iterator<Item = Vec<u8>>) -> Frame {
    let mut decoder = Decoder::with_max_frame_bytes(FRAME_CAP);
    let mut done = None;
    for piece in pieces {
        assert!(done.is_none(), "{path:?}: a frame completed early");
        decoder.feed(&piece);
        done = take(path, &mut decoder);
    }
    assert_eq!(decoder.buffered(), 0, "{path:?}");
    done.expect("the last piece completes the frame")
}

/// The next frame by `path`, a command view rendered as the array of bulk
/// strings it was sent as.
fn take(path: Path, decoder: &mut Decoder) -> Option<Frame> {
    match path {
        Path::Frames => decoder.next_frame().unwrap(),
        Path::Requests => match decoder.next_request().unwrap()? {
            Request::Command(cmd) => Some(Frame::command(
                std::iter::once(cmd.name()).chain(cmd.args()),
            )),
            Request::Frame(frame) => Some(frame),
        },
    }
}

#[test]
fn a_long_line_fed_in_small_pieces_is_scanned_once() {
    // Just under the frame cap, 4 KiB per read.
    let len = 7 * 1024 * 1024;
    let mut bytes = vec![b'+'];
    bytes.resize(len + 1, b'x');
    bytes.extend_from_slice(b"\r\n");
    for path in [Path::Frames, Path::Requests] {
        let started = Instant::now();
        let frame = trickle(path, bytes.chunks(4096).map(<[u8]>::to_vec));
        let took = started.elapsed();
        assert!(took < BOUND, "{path:?}: {took:?}");
        assert!(matches!(&frame, Frame::Simple(line) if line.len() == len));
    }
}

#[test]
fn a_wide_command_fed_one_element_per_read_is_parsed_once() {
    // 40 000 field/value elements: ~280 KB, far under the frame cap.
    let pairs = 20_000;
    let mut parts: Vec<Vec<u8>> = vec![b"HMSET".to_vec(), b"user:1".to_vec()];
    for i in 0..pairs {
        parts.push(format!("f{i}").into_bytes());
        parts.push(b"v".to_vec());
    }
    let frame = Frame::command(parts);
    let bytes = encode_frame(&frame);
    // The header alone, then each element's encoding in its own read.
    let Frame::Array(items) = &frame else {
        unreachable!()
    };
    let header = format!("*{}\r\n", items.len()).into_bytes();
    let pieces = std::iter::once(header).chain(items.iter().map(encode_frame));
    assert_eq!(pieces.clone().map(|p| p.len()).sum::<usize>(), bytes.len());
    for path in [Path::Frames, Path::Requests] {
        let started = Instant::now();
        let decoded = trickle(path, pieces.clone());
        let took = started.elapsed();
        assert!(took < BOUND, "{path:?}: {took:?}");
        assert_eq!(decoded, frame, "{path:?}");
    }
}

#[test]
fn a_bulk_whose_payload_trickles_rereads_only_its_header() {
    let payload = vec![b'v'; 2 * 1024 * 1024];
    let frame = Frame::command([b"SET".to_vec(), b"k".to_vec(), payload]);
    let bytes = encode_frame(&frame);
    for path in [Path::Frames, Path::Requests] {
        let started = Instant::now();
        let decoded = trickle(path, bytes.chunks(512).map(<[u8]>::to_vec));
        let took = started.elapsed();
        assert!(took < BOUND, "{path:?}: {took:?}");
        assert_eq!(decoded, frame, "{path:?}");
    }
}

#[test]
fn a_deep_pipeline_in_one_feed_decodes_in_linear_time() {
    // A debug build takes ~40 ms; a memmove of the rest of the buffer
    // after every frame makes it seconds.
    let gets = 80_000;
    let mut bytes = Vec::new();
    for i in 0..gets {
        bytes.extend_from_slice(&encode_frame(&Frame::command([
            "GET".to_string(),
            format!("key:{i:08}"),
        ])));
    }
    for path in [Path::Frames, Path::Requests] {
        let mut decoder = Decoder::new();
        let started = Instant::now();
        decoder.feed(&bytes);
        let mut decoded = 0;
        while let Some(frame) = take(path, &mut decoder) {
            if decoded == 0 {
                assert_eq!(frame, Frame::command(["GET", "key:00000000"]));
            }
            decoded += 1;
        }
        let took = started.elapsed();
        assert_eq!(decoded, gets, "{path:?}");
        assert_eq!(decoder.buffered(), 0, "{path:?}");
        assert!(took < Duration::from_secs(1), "{path:?}: {took:?}");
    }
}

#[test]
fn arrays_nested_past_the_cap_are_refused_without_recursion() {
    let mut bytes = Vec::new();
    for _ in 0..100_000 {
        bytes.extend_from_slice(b"*1\r\n");
    }
    bytes.extend_from_slice(b":1\r\n");
    for path in [Path::Frames, Path::Requests] {
        let mut decoder = Decoder::new();
        decoder.feed(&bytes);
        let refused = match path {
            Path::Frames => decoder.next_frame().map(|_| ()),
            Path::Requests => decoder.next_request().map(|_| ()),
        };
        let message = refused.unwrap_err().to_string();
        assert!(message.contains("nested"), "{path:?}: {message}");
    }
    // Within the cap a nested frame still decodes.
    let mut frame = Frame::Integer(1);
    for _ in 0..resp::decode::MAX_NESTING {
        frame = Frame::Array(vec![frame]);
    }
    let mut decoder = Decoder::new();
    decoder.feed(&encode_frame(&frame));
    assert_eq!(decoder.next_frame().unwrap(), Some(frame));
}
