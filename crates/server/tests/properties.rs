//! No-panic properties of the three places untrusted text enters the
//! server: the Datalog parsers, the session-script interpreter and the
//! incremental frame decoder. Inputs mix grammar fragments with
//! arbitrary code points (or bytes), so most cases get past the first
//! token and still end somewhere unexpected.

use proptest::prelude::*;

use tiebreak_runtime::Solver;
use tiebreak_server::{read_frame, write_frame, FrameDecoder, LineOutcome, ScriptSession};

const PROG: &str = "win(X) :- move(X, Y), not win(Y).";

/// Text built from `fragments`, with an arbitrary code point wherever
/// the fragment index runs past the list.
fn arb_text(
    fragments: &'static [&'static str],
    max_pieces: usize,
) -> impl Strategy<Value = String> {
    prop::collection::vec((0..=fragments.len(), any::<u32>()), 0..max_pieces).prop_map(
        move |pieces| {
            let mut text = String::new();
            for (i, code) in pieces {
                match fragments.get(i) {
                    Some(fragment) => text.push_str(fragment),
                    None => text.push(char::from_u32(code % 0x11_0000).unwrap_or('\u{fffd}')),
                }
            }
            text
        },
    )
}

const DATALOG: &[&str] = &[
    "win", "move", "p", "q", "(", ")", ",", ".", ":-", "not ", " ", "\n", "X", "Y", "_", "a", "b",
    "%", "\"", "'", "0", "-", "?", "!", "\t",
];

/// Line starts: every verb, so most lines reach the verb's own parser.
const SCRIPT_HEADS: &[&str] = &[
    "? wf",
    "? stats",
    "? outcomes ",
    "? win(",
    "?win(",
    "+ move(",
    "- move(",
    "+ ",
    "- ",
    "?",
    "",
];

const SCRIPT: &[&str] = &[
    "a, b).",
    "b, a).",
    "a, c).",
    "c, c).",
    "3",
    "18446744073709551616",
    "win",
    "move",
    "(",
    ")",
    ",",
    ".",
    "a",
    "b",
    "c",
    "X",
    "not ",
    ":-",
    "#",
    "%",
    " ",
    "\t",
];

fn arb_script_line() -> impl Strategy<Value = String> {
    (0..SCRIPT_HEADS.len(), arb_text(SCRIPT, 6))
        .prop_map(|(head, tail)| format!("{}{tail}", SCRIPT_HEADS[head]))
}

/// Splits `bytes` at the given chunk lengths (the remainder is the last
/// chunk).
fn chunks<'a>(bytes: &'a [u8], sizes: &[usize]) -> Vec<&'a [u8]> {
    let mut out = Vec::new();
    let mut rest = bytes;
    for &size in sizes {
        let (head, tail) = rest.split_at(size.min(rest.len()));
        out.push(head);
        rest = tail;
    }
    out.push(rest);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn parsers_never_panic(text in arb_text(DATALOG, 48)) {
        let _ = datalog_ast::parse_program(&text);
        let _ = datalog_ast::parse_database(&text);
    }

    /// The decoder emits exactly the frames the blocking reader reads
    /// from the same stream, in order, however the stream is chunked —
    /// and it stops at the same oversized header.
    #[test]
    fn frame_decoder_matches_the_blocking_reader(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 0..5),
        garbage in prop::collection::vec(any::<u8>(), 0..24),
        sizes in prop::collection::vec(0usize..16, 0..12),
    ) {
        const MAX: u32 = 64;
        let mut stream = Vec::new();
        for payload in &payloads {
            write_frame(&mut stream, payload).expect("vec sink");
        }
        stream.extend_from_slice(&garbage);

        let mut expected = Vec::new();
        let mut cursor = std::io::Cursor::new(&stream);
        while let Ok(Some(frame)) = read_frame(&mut cursor, MAX) {
            expected.push(frame);
        }

        let mut decoder = FrameDecoder::new(MAX);
        let mut frames = Vec::new();
        for chunk in chunks(&stream, &sizes) {
            if decoder.feed(chunk, &mut frames).is_err() {
                break;
            }
        }
        prop_assert_eq!(&frames, &expected);
        prop_assert!(frames.starts_with(&payloads));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary script lines against a session over one two-cycle:
    /// every line is answered or reported, and the session survives to
    /// flush and answer again.
    #[test]
    fn script_lines_never_panic(lines in prop::collection::vec(arb_script_line(), 0..8)) {
        let solver = Solver::from_sources(PROG, "move(a, b).\nmove(b, a).").expect("prepare");
        let mut session = ScriptSession::new(solver, false);
        let mut out = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            session.process_line(i + 1, line, &mut out).expect("in-memory sink");
        }
        session.finish(&mut out).expect("in-memory sink");
        prop_assert_eq!(session.staged_len(), 0);
        let outcome = session.process_line(lines.len() + 1, "? stats", &mut out);
        prop_assert_eq!(outcome.expect("in-memory sink"), LineOutcome::Ok);
    }
}
