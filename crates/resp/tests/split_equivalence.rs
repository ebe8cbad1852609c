//! Any encoded frame sequence, split at arbitrary points, decodes to the
//! same frames as when it arrives in one piece: through
//! [`Decoder::next_frame`] and through the command parse
//! ([`Decoder::next_request`]).

use proptest::prelude::*;
use resp::decode::{Decoder, Request};
use resp::encode::encode_frame;
use resp::Frame;

/// A small deterministic generator (xorshift64*), seeded by the property.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn bytes(&mut self) -> Vec<u8> {
        let len = match self.below(8) {
            0 => 0,
            1 => 200 + self.below(300),
            _ => self.below(12),
        };
        // CR and LF inside payloads, and bytes that are not UTF-8.
        const ALPHABET: &[u8] = b"ab\r\n$*+-:0\xff";
        (0..len)
            .map(|_| ALPHABET[self.below(ALPHABET.len() as u64) as usize])
            .collect()
    }

    fn text(&mut self) -> String {
        let len = self.below(10);
        (0..len)
            .map(|_| char::from(b"abcXYZ 09\xe9"[self.below(10) as usize]))
            .collect()
    }

    /// A command (the common case), or any other frame up to `depth`
    /// arrays deep.
    fn frame(&mut self, depth: u32) -> Frame {
        match self.below(if depth == 0 { 5 } else { 8 }) {
            0 => Frame::Simple(self.text()),
            1 => Frame::Error(self.text()),
            2 => Frame::Integer(self.next() as i64 >> self.below(64)),
            3 => Frame::Bulk(self.bytes()),
            4 => Frame::Null,
            5 => {
                let count = self.below(4);
                Frame::Array((0..count).map(|_| self.frame(depth - 1)).collect())
            }
            _ => {
                let count = 1 + self.below(5);
                Frame::Array(
                    (0..count)
                        .map(|_| match self.below(6) {
                            0 => Frame::Simple(self.text()),
                            _ => Frame::Bulk(self.bytes()),
                        })
                        .collect(),
                )
            }
        }
    }
}

/// The next request as a frame: a command view as the array of bulk
/// strings it reads as, tagged to tell the two apart.
fn take_request(decoder: &mut Decoder) -> Option<(bool, Frame)> {
    match decoder.next_request().unwrap()? {
        Request::Command(cmd) => Some((
            true,
            Frame::command(std::iter::once(cmd.name()).chain(cmd.args())),
        )),
        Request::Frame(frame) => Some((false, frame)),
    }
}

/// How a request decoder reads `frame`: a non-empty flat array of bulk
/// and simple strings is a command view, anything else a frame.
fn as_request(frame: &Frame) -> (bool, Frame) {
    match frame {
        Frame::Array(items)
            if !items.is_empty()
                && items
                    .iter()
                    .all(|item| matches!(item, Frame::Bulk(_) | Frame::Simple(_))) =>
        {
            let elements = items.iter().map(|item| match item {
                Frame::Bulk(bytes) => bytes.clone(),
                Frame::Simple(text) => text.clone().into_bytes(),
                _ => unreachable!(),
            });
            (true, Frame::command(elements))
        }
        other => (false, other.clone()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_split_stream_decodes_like_a_whole_one(seed in any::<u64>()) {
        let mut gen = Gen(seed | 1);
        let frames: Vec<Frame> = (0..1 + gen.below(12)).map(|_| gen.frame(3)).collect();
        let bytes: Vec<u8> = frames.iter().flat_map(encode_frame).collect();
        let mut cuts: Vec<usize> = (0..gen.below(20)).map(|_| gen.below(bytes.len() as u64 + 1) as usize).collect();
        cuts.sort_unstable();
        cuts.push(bytes.len());

        // Owned frames, fed in pieces and asked for after each piece.
        let mut decoder = Decoder::new();
        let mut decoded = Vec::new();
        let mut from = 0;
        for &cut in &cuts {
            decoder.feed(&bytes[from..cut]);
            from = cut;
            while let Some(frame) = decoder.next_frame().unwrap() {
                decoded.push(frame);
            }
        }
        prop_assert_eq!(&decoded, &frames);
        prop_assert_eq!(decoder.buffered(), 0);

        // Requests, the same way, against the whole stream in one feed.
        let mut whole = Decoder::new();
        whole.feed(&bytes);
        let mut expected = Vec::new();
        while let Some(request) = take_request(&mut whole) {
            expected.push(request);
        }
        let by_frame: Vec<(bool, Frame)> = frames.iter().map(as_request).collect();
        prop_assert_eq!(&expected, &by_frame);

        let mut decoder = Decoder::new();
        let mut requests = Vec::new();
        let mut from = 0;
        for &cut in &cuts {
            decoder.feed(&bytes[from..cut]);
            from = cut;
            while let Some(request) = take_request(&mut decoder) {
                requests.push(request);
            }
        }
        prop_assert_eq!(&requests, &expected);
        prop_assert_eq!(decoder.buffered(), 0);
    }
}
