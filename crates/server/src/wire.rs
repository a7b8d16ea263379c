//! Length-prefixed framing for the session wire protocol.
//!
//! A frame is a 4-byte big-endian payload length followed by that many
//! payload bytes. Requests and responses use the same framing; payloads
//! are UTF-8 text (the server validates and answers `error …` on
//! anything else, without trusting the bytes).
//!
//! The length prefix is the only thing read before validation, so the
//! parser's failure modes are exactly three and all are cheap:
//!
//! * clean EOF between frames — the peer closed, [`read_frame`] returns
//!   `Ok(None)`;
//! * a truncated frame (EOF inside the header or payload) — an
//!   [`WireError::Io`] with `UnexpectedEof`;
//! * an oversized length — [`WireError::Oversized`] *before* any
//!   allocation or payload read. The stream is desynchronized at that
//!   point (the payload was never consumed), so the connection must be
//!   closed; a malicious 4 GiB length costs four bytes of reading and
//!   no memory.

use std::io::{self, Read, Write};

/// Default cap on a single frame's payload (4 MiB) — generous for
/// program + database sources, small enough that a hostile length
/// prefix cannot balloon server memory.
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 4 << 20;

/// Errors reading a frame off the wire.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed (including truncated frames).
    Io(io::Error),
    /// The peer announced a payload larger than the configured cap. The
    /// payload was not consumed: the stream is desynchronized and the
    /// connection should be closed after reporting the error.
    Oversized {
        /// The announced payload length.
        len: u32,
        /// The configured cap.
        max: u32,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte frame cap")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Writes one frame (length prefix + payload) and flushes.
///
/// # Errors
///
/// Transport errors; payloads over `u32::MAX` bytes are a caller bug
/// and reported as `InvalidInput` rather than silently truncated.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame payload over u32::MAX"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean EOF **between** frames (the
/// peer hung up); EOF inside a frame is an error.
///
/// # Errors
///
/// [`WireError::Oversized`] when the announced length exceeds `max`
/// (nothing beyond the 4-byte header has been consumed);
/// [`WireError::Io`] on transport failures and truncation.
pub fn read_frame(r: &mut impl Read, max: u32) -> Result<Option<Vec<u8>>, WireError> {
    let mut header = [0u8; 4];
    // Distinguish "no more frames" from "frame cut off": only a zero-byte
    // read at the first header byte is a clean close.
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(WireError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(header);
    if len > max {
        return Err(WireError::Oversized { len, max });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Incremental frame parser for nonblocking transports (the reactor).
///
/// [`read_frame`] blocks until a whole frame arrives; a nonblocking
/// connection instead hands the decoder whatever bytes `read(2)`
/// produced and collects however many complete frames those bytes
/// finish. The decoder carries partial state across calls, so a frame
/// split across TCP segments reassembles and several frames coalesced
/// into one segment all come out — byte-for-byte the same frames the
/// blocking reader would have produced.
#[derive(Debug)]
pub struct FrameDecoder {
    max: u32,
    header: [u8; 4],
    header_got: usize,
    /// `Some` once the header is complete; drained when full.
    payload: Option<Vec<u8>>,
    payload_got: usize,
}

impl FrameDecoder {
    /// A decoder enforcing the given per-frame payload cap.
    pub fn new(max: u32) -> Self {
        FrameDecoder {
            max,
            header: [0; 4],
            header_got: 0,
            payload: None,
            payload_got: 0,
        }
    }

    /// Whether the decoder is mid-frame — EOF now would truncate. The
    /// caller uses this to tell a clean hangup from a cut-off frame.
    pub fn mid_frame(&self) -> bool {
        self.header_got > 0 || self.payload.is_some()
    }

    /// Feeds bytes, appending every frame they complete to `frames`.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversized`] when a header announces a payload over
    /// the cap. As with [`read_frame`], nothing past that header has
    /// been interpreted: the stream is desynchronized and the connection
    /// must be closed (the decoder is poisoned against further use only
    /// in the sense that its remaining input is meaningless).
    pub fn feed(&mut self, mut bytes: &[u8], frames: &mut Vec<Vec<u8>>) -> Result<(), WireError> {
        while !bytes.is_empty() {
            if let Some(payload) = self.payload.as_mut() {
                let want = payload.len() - self.payload_got;
                let take = want.min(bytes.len());
                payload[self.payload_got..self.payload_got + take].copy_from_slice(&bytes[..take]);
                self.payload_got += take;
                bytes = &bytes[take..];
                if self.payload_got == payload.len() {
                    frames.push(self.payload.take().expect("payload present"));
                    self.payload_got = 0;
                }
            } else {
                let want = self.header.len() - self.header_got;
                let take = want.min(bytes.len());
                self.header[self.header_got..self.header_got + take]
                    .copy_from_slice(&bytes[..take]);
                self.header_got += take;
                bytes = &bytes[take..];
                if self.header_got == self.header.len() {
                    self.header_got = 0;
                    let len = u32::from_be_bytes(self.header);
                    if len > self.max {
                        return Err(WireError::Oversized { len, max: self.max });
                    }
                    if len == 0 {
                        frames.push(Vec::new());
                    } else {
                        self.payload = Some(vec![0u8; len as usize]);
                        self.payload_got = 0;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Head room an [`OutFrame`] reserves in front of its payload: the
/// length prefix plus the longest status line a handler prepends
/// (`ok errors=<usize>\n`).
const HEAD_ROOM: usize = 40;

/// A response frame built in place. Handlers append the payload after
/// reserved head room; a status line known only once the body is done
/// ([`OutFrame::prepend`]) and the length prefix
/// ([`OutFrame::into_wire`]) are written right-aligned into that room.
/// The finished frame therefore goes from the worker to the socket in
/// the buffer it was written into, without a copy.
pub(crate) struct OutFrame {
    buf: Vec<u8>,
    /// Offset of the payload's first byte.
    start: usize,
}

impl OutFrame {
    pub(crate) fn new() -> Self {
        OutFrame {
            buf: vec![0; HEAD_ROOM],
            start: HEAD_ROOM,
        }
    }

    /// The payload written so far.
    pub(crate) fn payload(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    /// Puts `bytes` in front of the payload.
    ///
    /// # Panics
    ///
    /// If the head room left after the length prefix is too small.
    pub(crate) fn prepend(&mut self, bytes: &[u8]) {
        assert!(
            bytes.len() + 4 <= self.start,
            "status line exceeds head room"
        );
        self.start -= bytes.len();
        self.buf[self.start..self.start + bytes.len()].copy_from_slice(bytes);
    }

    /// Writes the length prefix and returns the buffer together with the
    /// offset where the wire frame (prefix, then payload) begins.
    pub(crate) fn into_wire(mut self) -> (Vec<u8>, usize) {
        let len = u32::try_from(self.payload().len()).unwrap_or(u32::MAX);
        // `prepend` always leaves these four bytes of head room.
        self.start -= 4;
        self.buf[self.start..self.start + 4].copy_from_slice(&len.to_be_bytes());
        (self.buf, self.start)
    }
}

impl Write for OutFrame {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES)
                .unwrap()
                .unwrap(),
            b"hello"
        );
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES)
                .unwrap()
                .unwrap(),
            b""
        );
        assert!(read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES)
            .unwrap()
            .is_none());
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        buf.extend_from_slice(b"junk");
        let mut r = io::Cursor::new(buf);
        match read_frame(&mut r, 16) {
            Err(WireError::Oversized { len, max }) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, 16);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_an_error_not_a_clean_eof() {
        // Header promises 10 bytes, stream has 3.
        let mut buf = Vec::new();
        buf.extend_from_slice(&10u32.to_be_bytes());
        buf.extend_from_slice(b"abc");
        let mut r = io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut r, 1024),
            Err(WireError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof
        ));

        // Header itself cut off.
        let mut r = io::Cursor::new(vec![0u8, 0]);
        assert!(matches!(
            read_frame(&mut r, 1024),
            Err(WireError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof
        ));
    }

    #[test]
    fn decoder_matches_blocking_reader_at_every_split_boundary() {
        // Three frames (one empty, one 1-byte, one multi-byte) encoded
        // into a single byte stream, then fed to the decoder split at
        // EVERY possible boundary — including mid-header — and compared
        // against the blocking reader's parse of the same stream.
        let payloads: [&[u8]; 3] = [b"", b"x", b"hello, frames"];
        let mut stream = Vec::new();
        for p in payloads {
            write_frame(&mut stream, p).unwrap();
        }
        for split in 0..=stream.len() {
            let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_BYTES);
            let mut frames = Vec::new();
            dec.feed(&stream[..split], &mut frames).unwrap();
            dec.feed(&stream[split..], &mut frames).unwrap();
            assert_eq!(frames.len(), payloads.len(), "split at {split}");
            for (frame, payload) in frames.iter().zip(payloads) {
                assert_eq!(frame.as_slice(), payload, "split at {split}");
            }
            assert!(!dec.mid_frame(), "split at {split}");
        }
    }

    #[test]
    fn decoder_reassembles_randomized_chunkings() {
        // Deterministic xorshift so the fuzz is reproducible.
        let mut seed: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..200 {
            let nframes = (rng() % 6) as usize;
            let payloads: Vec<Vec<u8>> = (0..nframes)
                .map(|_| {
                    let len = (rng() % 300) as usize;
                    (0..len).map(|_| (rng() & 0xff) as u8).collect()
                })
                .collect();
            let mut stream = Vec::new();
            for p in &payloads {
                write_frame(&mut stream, p).unwrap();
            }
            // Chunk sizes from 0 (empty feed) to coalescing everything.
            let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_BYTES);
            let mut frames = Vec::new();
            let mut off = 0;
            while off < stream.len() {
                let chunk = ((rng() % 17) as usize).min(stream.len() - off);
                dec.feed(&stream[off..off + chunk], &mut frames).unwrap();
                off += chunk;
            }
            assert_eq!(frames, payloads, "round {round}");
            assert!(!dec.mid_frame(), "round {round}");
        }
    }

    #[test]
    fn decoder_rejects_oversized_headers_before_allocation() {
        let mut dec = FrameDecoder::new(16);
        let mut frames = Vec::new();
        // Header arrives one byte at a time; the error fires exactly
        // when the fourth byte lands.
        let header = u32::MAX.to_be_bytes();
        for (i, b) in header.iter().enumerate() {
            let r = dec.feed(std::slice::from_ref(b), &mut frames);
            if i < 3 {
                r.unwrap();
            } else {
                assert!(matches!(
                    r,
                    Err(WireError::Oversized { len, max }) if len == u32::MAX && max == 16
                ));
            }
        }
        assert!(frames.is_empty());
    }

    #[test]
    fn out_frame_seals_into_the_blocking_writer_bytes() {
        let mut frame = OutFrame::new();
        writeln!(frame, "% body line").unwrap();
        frame.prepend(format!("ok errors={}\n", usize::MAX).as_bytes());
        let mut expected = Vec::new();
        write_frame(&mut expected, frame.payload()).unwrap();
        let (buf, start) = frame.into_wire();
        assert_eq!(&buf[start..], expected.as_slice());
        let (buf, start) = OutFrame::new().into_wire();
        assert_eq!(&buf[start..], [0u8; 4]);
    }
}
