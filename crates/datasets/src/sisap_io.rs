//! SISAP metric-space library file formats.
//!
//! The paper's experiments run on the sample databases shipped with the
//! SISAP library (Figueroa–Navarro–Chávez): vector sets stored as an
//! ASCII header `dim n` followed by one whitespace-separated row per
//! element, and string sets stored one string per line.  This module
//! reads and writes both, so the synthetic analogues in this crate can be
//! exported for external tools and — if a user has the original SISAP
//! archives — the real databases can be loaded and measured with the same
//! harness (`distperm count --vectors/--strings`).
//!
//! All readers validate eagerly and report the offending line; vectors
//! must be finite (NaN/∞ would break the total order on distances).
//!
//! The vector reader reads one reused 64 KiB block at a time, checks it
//! as UTF-8 once and parses only its whole lines; a partial last line
//! carries over to the next block, which grows if one line outgrows it.
//! One byte pass finds tokens and counts lines.  Its separators are the
//! ASCII whitespace `str::split_whitespace` knows (space, `\t`, `\n`,
//! `\x0B`, `\x0C`, `\r`).  A line whose token fails to convert is split
//! again with `split_whitespace` itself before any error is reported, so
//! Unicode separators such as U+00A0 and U+3000 are accepted, at no cost
//! to ASCII input.  `f64::from_str` converts every coordinate.

use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::VectorSet;

/// Errors from reading a SISAP-format file.
#[derive(Debug)]
pub enum SisapIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural or numeric problem, with 1-based line number.
    Parse {
        /// Line where the problem was found (1-based; 0 = missing content).
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for SisapIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SisapIoError::Io(e) => write!(f, "i/o error: {e}"),
            SisapIoError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for SisapIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SisapIoError::Io(e) => Some(e),
            SisapIoError::Parse { .. } => None,
        }
    }
}

impl From<io::Error> for SisapIoError {
    fn from(e: io::Error) -> Self {
        SisapIoError::Io(e)
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> SisapIoError {
    SisapIoError::Parse { line, message: message.into() }
}

/// Writes a vector database: header `dim n`, then one row per vector.
///
/// # Panics
/// Panics if any vector's length differs from `dim` or any coordinate is
/// non-finite — those are programming errors in the caller, not data
/// errors.
pub fn write_vectors<W: Write>(w: &mut W, dim: usize, vectors: &[Vec<f64>]) -> io::Result<()> {
    write_rows(w, dim, vectors.len(), vectors.iter().map(Vec::as_slice))
}

/// [`write_vectors`] for flat storage — same on-disk format.
pub fn write_vectors_flat<W: Write>(w: &mut W, vectors: &VectorSet) -> io::Result<()> {
    write_rows(w, vectors.dim(), vectors.len(), vectors.rows())
}

fn write_rows<'a, W: Write>(
    w: &mut W,
    dim: usize,
    n: usize,
    rows: impl Iterator<Item = &'a [f64]>,
) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "{dim} {n}")?;
    for row in rows {
        assert_eq!(row.len(), dim, "vector length {} != declared dim {dim}", row.len());
        for (j, &x) in row.iter().enumerate() {
            assert!(x.is_finite(), "non-finite coordinate {x}");
            // 17 significant digits: lossless f64 round-trip.
            write!(w, "{}{x:.17e}", if j == 0 { "" } else { " " })?;
        }
        writeln!(w)?;
    }
    w.flush()
}

/// Reads a vector database written by [`write_vectors`] (or by the SISAP
/// library's tools) into flat storage: one contiguous buffer, no
/// per-row allocation.
///
/// Blank lines (including a trailing newline or CRLF line endings) are
/// tolerated; every row must have exactly `dim` finite coordinates and
/// the row count must match the header — a truncated file is an error,
/// never a silently shorter database.
pub fn read_vectors_flat<R: Read>(r: &mut R) -> Result<VectorSet, SisapIoError> {
    // Of an input of unknown length, only what one block holds is sure.
    read_vectors_raw(r, BLOCK_LEN / 2)
}

/// Bytes the vector reader reads at a time; a longer line grows the block.
const BLOCK_LEN: usize = 64 * 1024;

/// The block reader behind [`read_vectors_flat`] (the module docs give
/// its rules).  It reserves at most `max_reserve` coordinates up front,
/// whatever the header declares; the buffer grows past that only as rows
/// arrive.
fn read_vectors_raw<R: Read>(r: &mut R, max_reserve: usize) -> Result<VectorSet, SisapIoError> {
    let mut parser = RowParser { header: None, line: 0, rows: 0, data: Vec::new(), max_reserve };
    let mut block = Vec::with_capacity(BLOCK_LEN);
    loop {
        let room = BLOCK_LEN - block.len() % BLOCK_LEN;
        // Bytes read before an i/o error stay in the block: the whole
        // lines among them are parsed before the error is returned.
        let read = r.by_ref().take(room as u64).read_to_end(&mut block);
        let eof = matches!(read, Ok(0));
        if eof {
            block.push(b'\n'); // so that the last line is whole too
        }
        let end = block.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        // On invalid UTF-8, rows before the offending line come first.
        let (text, bad_utf8) = match std::str::from_utf8(&block[..end]) {
            Ok(text) => (text, false),
            Err(e) => (std::str::from_utf8(&block[..e.valid_up_to()]).unwrap_or_default(), true),
        };
        parser.parse(&text[..text.rfind('\n').map_or(0, |i| i + 1)])?;
        if bad_utf8 {
            let msg = "stream did not contain valid UTF-8";
            return Err(io::Error::new(io::ErrorKind::InvalidData, msg).into());
        }
        read?;
        if eof {
            let (dim, n) =
                parser.header.ok_or_else(|| parse_err(0, "empty file: missing `dim n` header"))?;
            if parser.rows != n {
                let msg = format!("header declared {n} rows, found {}", parser.rows);
                return Err(parse_err(0, msg));
            }
            return Ok(VectorSet::from_raw(dim, parser.data));
        }
        block.drain(..end);
    }
}

/// Vector-file parse state carried from block to block.
struct RowParser {
    header: Option<(usize, usize)>,
    line: usize,
    rows: usize,
    data: Vec<f64>,
    max_reserve: usize,
}

impl RowParser {
    /// Parses newline-terminated lines in one byte pass.  The header line,
    /// and any line holding a token that does not convert, go to
    /// [`RowParser::slow_line`].
    fn parse(&mut self, text: &str) -> Result<(), SisapIoError> {
        let is_space = |b: u8| matches!(b, b' ' | b'\t' | b'\n' | 0x0B | 0x0C | b'\r');
        let (bytes, mut i, mut row_start) = (text.as_bytes(), 0, self.data.len());
        while i < bytes.len() {
            let b = bytes[i];
            if b > b' ' || !is_space(b) {
                let start = i;
                while bytes[i] > b' ' || !is_space(bytes[i]) {
                    i += 1;
                }
                match text[start..i].parse::<f64>() {
                    Ok(x) if x.is_finite() && self.header.is_some() => self.data.push(x),
                    _ => {
                        let from = text[..start].rfind('\n').map_or(0, |j| j + 1);
                        i += text[i..].find('\n').unwrap_or(0);
                        self.data.truncate(row_start);
                        self.slow_line(&text[from..i])?;
                    }
                }
                continue;
            }
            if b == b'\n' {
                // A blank line is skipped, any other is a row.  Before the
                // header every line is blank here: `slow_line` keeps none
                // of the header's tokens.
                let ((dim, n), got) =
                    (self.header.unwrap_or_default(), self.data.len() - row_start);
                self.line += 1;
                if got != 0 && got != dim {
                    let msg = format!("row has {got} coordinates, expected {dim}");
                    return Err(parse_err(self.line, msg));
                }
                self.rows += usize::from(got != 0);
                if self.rows > n {
                    return Err(parse_err(self.line, format!("more than the declared {n} rows")));
                }
                row_start = self.data.len();
            }
            i += 1;
        }
        Ok(())
    }

    /// Parses one line split by `str::split_whitespace` — the header if
    /// none has been read yet, else a row — and reports its first error.
    fn slow_line(&mut self, line: &str) -> Result<(), SisapIoError> {
        let (mut toks, no) = (line.split_whitespace(), self.line + 1);
        if self.header.is_none() {
            let Some(dim) = toks.next() else { return Ok(()) };
            let dim: usize = dim.parse().map_err(|e| parse_err(no, format!("bad dim: {e}")))?;
            let n = toks.next().ok_or_else(|| parse_err(no, "missing n in header"))?;
            let n: usize = n.parse().map_err(|e| parse_err(no, format!("bad n: {e}")))?;
            if toks.next().is_some() {
                return Err(parse_err(no, "header has trailing tokens (want `dim n`)"));
            }
            let coords = n.checked_mul(dim).ok_or_else(|| parse_err(no, "dim × n overflows"))?;
            self.data.reserve(coords.min(self.max_reserve));
            self.header = Some((dim, n));
        }
        for tok in toks {
            let x: f64 =
                tok.parse().map_err(|e| parse_err(no, format!("bad coordinate `{tok}`: {e}")))?;
            if !x.is_finite() {
                return Err(parse_err(no, format!("non-finite coordinate {x}")));
            }
            self.data.push(x);
        }
        Ok(())
    }
}

/// Writes a string database, one string per line.
///
/// # Panics
/// Panics if any string contains a newline (the format cannot represent
/// it).
pub fn write_strings<W: Write>(w: &mut W, strings: &[String]) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    for s in strings {
        assert!(!s.contains('\n'), "string contains a newline");
        writeln!(w, "{s}")?;
    }
    w.flush()
}

/// Reads a string database: one string per line, trailing `\r` stripped,
/// empty trailing line ignored (as produced by line-oriented tools).
pub fn read_strings<R: BufRead>(r: &mut R) -> Result<Vec<String>, SisapIoError> {
    let mut out = Vec::new();
    for line in r.lines() {
        let mut line = line?;
        if line.ends_with('\r') {
            line.pop();
        }
        out.push(line);
    }
    while out.last().is_some_and(std::string::String::is_empty) {
        out.pop();
    }
    Ok(out)
}

/// [`write_vectors`] to a file path.
pub fn write_vectors_file<Q: AsRef<Path>>(
    path: Q,
    dim: usize,
    vectors: &[Vec<f64>],
) -> io::Result<()> {
    let mut f = File::create(path)?;
    write_vectors(&mut f, dim, vectors)
}

/// [`read_vectors_flat`] from a file path.  Every coordinate takes at
/// least two bytes, so no more than half the file's length is reserved.
pub fn read_vectors_file_flat<Q: AsRef<Path>>(path: Q) -> Result<VectorSet, SisapIoError> {
    let mut f = File::open(path)?;
    let max_reserve = usize::try_from(f.metadata()?.len() / 2).unwrap_or(usize::MAX);
    read_vectors_raw(&mut f, max_reserve)
}

/// [`write_strings`] to a file path.
pub fn write_strings_file<Q: AsRef<Path>>(path: Q, strings: &[String]) -> io::Result<()> {
    let mut f = File::create(path)?;
    write_strings(&mut f, strings)
}

/// [`read_strings`] from a file path.
pub fn read_strings_file<Q: AsRef<Path>>(path: Q) -> Result<Vec<String>, SisapIoError> {
    let mut r = BufReader::new(File::open(path)?);
    read_strings(&mut r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectors::uniform_unit_cube;
    use proptest::prelude::*;
    use std::io::Cursor;

    /// The line reader the block reader replaced, kept as the
    /// differential oracle: `BufRead::lines`, `split_whitespace` and
    /// `f64::from_str` per token.  It reserves `n * dim` coordinates up
    /// front, so tests keep header counts small.
    fn oracle_read_vectors<R: BufRead>(r: &mut R) -> Result<(usize, Vec<f64>), SisapIoError> {
        let mut lines = r.lines().enumerate();
        let (header_no, header) = loop {
            match lines.next() {
                None => return Err(parse_err(0, "empty file: missing `dim n` header")),
                Some((i, line)) => {
                    let line = line?;
                    if !line.trim().is_empty() {
                        break (i + 1, line);
                    }
                }
            }
        };
        let mut parts = header.split_whitespace();
        let dim: usize = parts
            .next()
            .ok_or_else(|| parse_err(header_no, "missing dim in header"))?
            .parse()
            .map_err(|e| parse_err(header_no, format!("bad dim: {e}")))?;
        let n: usize = parts
            .next()
            .ok_or_else(|| parse_err(header_no, "missing n in header"))?
            .parse()
            .map_err(|e| parse_err(header_no, format!("bad n: {e}")))?;
        if parts.next().is_some() {
            return Err(parse_err(header_no, "header has trailing tokens (want `dim n`)"));
        }

        let mut data: Vec<f64> = Vec::with_capacity(n * dim);
        let mut rows = 0usize;
        for (i, line) in lines {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let line_no = i + 1;
            let before = data.len();
            for tok in line.split_whitespace() {
                let x: f64 = tok
                    .parse()
                    .map_err(|e| parse_err(line_no, format!("bad coordinate `{tok}`: {e}")))?;
                if !x.is_finite() {
                    return Err(parse_err(line_no, format!("non-finite coordinate {x}")));
                }
                data.push(x);
            }
            if data.len() - before != dim {
                return Err(parse_err(
                    line_no,
                    format!("row has {} coordinates, expected {dim}", data.len() - before),
                ));
            }
            rows += 1;
            if rows > n {
                return Err(parse_err(line_no, format!("more than the declared {n} rows")));
            }
        }
        if rows != n {
            return Err(parse_err(0, format!("header declared {n} rows, found {rows}")));
        }
        Ok((dim, data))
    }

    fn read(bytes: &[u8]) -> Result<VectorSet, SisapIoError> {
        read_vectors_flat(&mut Cursor::new(bytes))
    }

    /// A reader that hands out 1–17 bytes per call and now and then
    /// reports `Interrupted`, so rows straddle every kind of boundary.
    struct Dribble<'a> {
        bytes: &'a [u8],
        rng: TestRng,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let draw = self.rng.next_u64();
            if draw.is_multiple_of(11) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let take = (1 + (draw >> 8) as usize % 17).min(buf.len()).min(self.bytes.len());
            buf[..take].copy_from_slice(&self.bytes[..take]);
            self.bytes = &self.bytes[take..];
            Ok(take)
        }
    }

    #[test]
    fn flat_io_matches_nested_io() {
        let vecs = uniform_unit_cube(60, 3, 78);
        let flat = VectorSet::from_nested(&vecs);
        let mut nested_buf = Vec::new();
        write_vectors(&mut nested_buf, 3, &vecs).unwrap();
        let mut flat_buf = Vec::new();
        write_vectors_flat(&mut flat_buf, &flat).unwrap();
        assert_eq!(nested_buf, flat_buf, "identical bytes on disk");
        let back = read(&nested_buf).unwrap();
        assert_eq!(back, flat, "bit-exact flat roundtrip");
        let (dim, oracle_back) = oracle_read_vectors(&mut Cursor::new(&flat_buf)).unwrap();
        assert_eq!(VectorSet::from_raw(dim, oracle_back), flat);
    }

    #[test]
    fn vectors_roundtrip_losslessly() {
        let vecs = uniform_unit_cube(50, 4, 77);
        let mut buf = Vec::new();
        write_vectors(&mut buf, 4, &vecs).unwrap();
        let back = read(&buf).unwrap();
        assert_eq!(back.dim(), 4);
        assert_eq!(back, VectorSet::from_nested(&vecs), "bit-exact f64 roundtrip");
    }

    #[test]
    fn vectors_roundtrip_extreme_values() {
        let vecs = vec![vec![0.0, -0.0, 1e-300], vec![f64::MIN_POSITIVE, -1e300, 0.1 + 0.2]];
        let mut buf = Vec::new();
        write_vectors(&mut buf, 3, &vecs).unwrap();
        let back = read(&buf).unwrap();
        for (a, b) in back.as_flat().iter().zip(vecs.iter().flatten()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn empty_vector_set_roundtrips() {
        let mut buf = Vec::new();
        write_vectors(&mut buf, 7, &[]).unwrap();
        let back = read(&buf).unwrap();
        assert_eq!((back.dim(), back.len()), (7, 0));
    }

    #[test]
    fn rejects_missing_header() {
        let err = read(b"").unwrap_err();
        assert!(err.to_string().contains("empty file"), "{err}");
    }

    #[test]
    fn rejects_bad_header() {
        for bad in ["2", "x 3", "2 3 4", "2 -1"] {
            let err = read(bad.as_bytes()).unwrap_err();
            assert!(matches!(err, SisapIoError::Parse { line: 1, .. }), "{bad}: {err}");
        }
    }

    #[test]
    fn rejects_row_arity_mismatch() {
        let err = read(b"2 1\n0.5\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2") && msg.contains("expected 2"), "{msg}");
    }

    #[test]
    fn rejects_non_numeric_and_non_finite() {
        let err = read(b"1 1\nfoo\n").unwrap_err();
        assert!(err.to_string().contains("bad coordinate"), "{err}");
        let err = read(b"1 1\ninf\n").unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
        let err = read(b"1 1\nNaN\n").unwrap_err();
        assert!(
            err.to_string().contains("bad coordinate") || err.to_string().contains("non-finite"),
            "{err}"
        );
    }

    #[test]
    fn rejects_row_count_mismatch() {
        let err = read(b"1 2\n0.5\n").unwrap_err();
        assert!(err.to_string().contains("declared 2 rows, found 1"), "{err}");
        let err = read(b"1 1\n0.5\n0.6\n").unwrap_err();
        assert!(err.to_string().contains("more than the declared"), "{err}");
    }

    #[test]
    fn hostile_headers_are_parse_errors_not_aborts() {
        // n × dim fits in usize but not in memory: the reservation is
        // bounded by the input, so the short file is reported as short.
        let err = read(b"2 999999999999999\n0.5 0.5\n").unwrap_err();
        assert!(err.to_string().contains("declared 999999999999999 rows, found 1"), "{err}");
        // n × dim wraps usize: a header error, not an empty database.
        let err = read(b"4611686018427387904 4\n").unwrap_err();
        assert!(matches!(err, SisapIoError::Parse { line: 1, .. }), "{err}");
        assert!(err.to_string().contains("overflows"), "{err}");
    }

    /// The oracle and the block reader — over a whole buffer and through
    /// [`Dribble`] — on the same bytes: the same `(dim, rows)`
    /// bit-for-bit, or the same error (line and message).
    fn assert_readers_agree(bytes: &[u8]) -> Result<(usize, usize), String> {
        let oracle = oracle_read_vectors(&mut Cursor::new(bytes));
        let rng = TestRng::deterministic("dribble");
        for (how, flat) in
            [("whole", read(bytes)), ("dribbled", read_vectors_flat(&mut Dribble { bytes, rng }))]
        {
            match (&oracle, flat) {
                (Ok((dim, data)), Ok(set)) => {
                    assert_eq!(*dim, set.dim(), "{how}: dim disagrees");
                    assert_eq!(data.len(), set.as_flat().len(), "{how}: length disagrees");
                    for (i, (a, b)) in data.iter().zip(set.as_flat()).enumerate() {
                        assert_eq!(a.to_bits(), b.to_bits(), "{how}: coordinate {i} disagrees");
                    }
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a.to_string(), b.to_string(), "{how}: errors disagree");
                }
                (oracle, flat) => panic!(
                    "{how}: readers disagree on {:?}: oracle {:?}, block reader {:?}",
                    String::from_utf8_lossy(bytes),
                    oracle.as_ref().map(|(d, v)| (*d, v.len())).map_err(ToString::to_string),
                    flat.map(|v| v.len()).map_err(|e| e.to_string())
                ),
            }
        }
        oracle.map(|(dim, data)| (dim, data.len() / dim.max(1))).map_err(|e| e.to_string())
    }

    #[test]
    fn readers_tolerate_trailing_newlines_identically() {
        for tail in ["", "\n", "\n\n", "\n \n"] {
            let text = format!("2 2\n0 1\n2 3{tail}");
            let got = assert_readers_agree(text.as_bytes());
            assert_eq!(got, Ok((2, 2)), "tail {tail:?}");
        }
    }

    #[test]
    fn readers_tolerate_crlf_identically() {
        // CRLF everywhere, including a trailing blank CRLF line.
        let got = assert_readers_agree(b"2 2\r\n0.5 1.5\r\n2.5 3.5\r\n\r\n");
        assert_eq!(got, Ok((2, 2)));
        // Mixed endings.
        let got = assert_readers_agree(b"2 2\r\n0.5 1.5\n2.5 3.5\r\n");
        assert_eq!(got, Ok((2, 2)));
    }

    #[test]
    fn readers_reject_truncated_rows_identically() {
        // File cut off mid-row: the final row has too few coordinates.
        let err = assert_readers_agree(b"2 3\n0 1\n2 3\n4").unwrap_err();
        assert!(err.contains("line 4") && err.contains("expected 2"), "{err}");
        // File cut off between rows: fewer rows than the header declared
        // must error, not silently yield a shorter database.
        let err = assert_readers_agree(b"2 3\n0 1\n2 3\n").unwrap_err();
        assert!(err.contains("declared 3 rows, found 2"), "{err}");
        // Truncation with a CRLF tail behaves the same.
        let err = assert_readers_agree(b"2 3\r\n0 1\r\n2 3\r\n").unwrap_err();
        assert!(err.contains("declared 3 rows, found 2"), "{err}");
    }

    #[test]
    fn readers_reject_malformed_input_identically() {
        for bad in [&b""[..], b"2", b"x 3\n", b"2 2\n0 1\n2 3\n4 5\n", b"1 1\nfoo\n", b"1 1\ninf\n"]
        {
            assert_readers_agree(bad).unwrap_err();
        }
    }

    #[test]
    fn unicode_separators_and_blank_lines_are_accepted_as_before() {
        let text = "\u{3000}\n2 2\n1\u{a0}2\n\u{a0} \u{85}\n3\u{3000}4\u{2028}\n";
        assert_eq!(assert_readers_agree(text.as_bytes()), Ok((2, 2)));
        // A Unicode separator after an ASCII error still reports the
        // first bad token, as the line reader did.
        let err = assert_readers_agree("1 1\n1e\u{a0}2\n".as_bytes()).unwrap_err();
        assert!(err.contains("line 2") && err.contains("`1e`"), "{err}");
    }

    #[test]
    fn first_error_by_line_wins_over_invalid_utf8() {
        // A malformed row before the invalid byte: the row's error.
        let err = assert_readers_agree(b"1 3\n0.5\n--1\n\xff\n").unwrap_err();
        assert!(err.contains("line 3") && err.contains("--1"), "{err}");
        // The invalid byte first: the i/o error, whatever follows.
        let err = assert_readers_agree(b"1 3\n0.5\n\xc3\n--1\n").unwrap_err();
        assert!(err.contains("UTF-8"), "{err}");
        // Invalid UTF-8 in an unterminated last line.
        assert_readers_agree(b"1 2\n0.5\n1\xe2\x82").unwrap_err();
    }

    #[test]
    fn read_errors_come_after_the_rows_read_before_them() {
        struct Broken;
        impl Read for Broken {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::other("disk on fire"))
            }
        }
        for (text, want) in [
            (&b"1 3\n0.5\n--1\n0.7"[..], "line 3"),
            (b"1 3\n0.5\n0.6\n0.7", "disk on fire"),
            (b"", "disk on fire"),
        ] {
            let oracle = oracle_read_vectors(&mut BufReader::new(text.chain(Broken))).unwrap_err();
            let err = read_vectors_flat(&mut text.chain(Broken)).unwrap_err().to_string();
            assert_eq!(err, oracle.to_string());
            assert!(err.contains(want), "{err}");
        }
    }

    #[test]
    fn a_line_longer_than_the_block_grows_it() {
        let dim = BLOCK_LEN / 8;
        let vecs = uniform_unit_cube(3, dim, 4);
        let mut buf = Vec::new();
        write_vectors(&mut buf, dim, &vecs).unwrap();
        assert!(buf.len() / 3 > BLOCK_LEN, "each row is longer than a block");
        assert_eq!(assert_readers_agree(&buf), Ok((dim, 3)));
        assert_eq!(read(&buf).unwrap(), VectorSet::from_nested(&vecs));
    }

    #[test]
    fn multi_block_inputs_straddle_rows_across_blocks() {
        let vecs = uniform_unit_cube(6000, 2, 5);
        let mut buf = Vec::new();
        write_vectors(&mut buf, 2, &vecs).unwrap();
        assert!(buf.len() > 3 * BLOCK_LEN);
        // CRLF endings and interior blank lines shift every boundary.
        let crlf: Vec<u8> = String::from_utf8(buf.clone()).unwrap().replace('\n', "\r\n \n").into();
        for bytes in [&buf, &crlf] {
            assert_eq!(assert_readers_agree(bytes), Ok((2, 6000)));
        }
        // A bad token deep in the third block is reported at its line.
        let mut bad = buf.clone();
        let at = 3 * BLOCK_LEN;
        let line = 1 + bad[..at].iter().filter(|&&b| b == b'\n').count();
        bad[at] = b'x';
        let err = assert_readers_agree(&bad).unwrap_err();
        assert!(err.contains(&format!("line {line}:")), "{err}");
    }

    /// Separators the generator puts between tokens: ASCII whitespace,
    /// and the Unicode spaces `split_whitespace` also accepts.
    const SEPARATORS: [&str; 9] =
        [" ", "\t", "  ", "\x0b", "\x0c", "\r", "\u{a0}", "\u{3000}", "\u{85}"];
    /// Tokens that are not finite coordinates, including control bytes
    /// that are not whitespace (`\x1f` is whitespace to some tools).
    const MALFORMED: [&str; 12] = [
        "1e", "--1", "0x1", "inf", "NaN", "-inf", "1e400", "abc", "1,5", "\u{a0}x", "1\x1f2", "\0",
    ];
    /// Lines that hold no token.
    const BLANK_LINES: [&str; 6] = ["", " ", "\t", "\r", "\u{a0}", "\u{3000} \u{85}"];

    fn one_in(k: u64, rng: &mut TestRng) -> bool {
        rng.next_u64().is_multiple_of(k)
    }

    fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
        from[(rng.next_u64() % from.len() as u64) as usize]
    }

    /// SISAP-like text with small `dim`/`n`: mostly well formed, with
    /// random separators, line endings, blank lines, malformed tokens,
    /// arity and count errors, and now and then an invalid UTF-8 byte.
    fn sisap_text(mut rng: TestRng) -> Vec<u8> {
        let (dim, n) = ((rng.next_u64() % 4) as usize, (rng.next_u64() % 6) as usize);
        let mut text = String::new();
        let eol = |rng: &mut TestRng| if one_in(3, rng) { "\r\n" } else { "\n" };
        let mut line = |rng: &mut TestRng, toks: &[String]| {
            while one_in(5, rng) {
                text.push_str(pick(rng, &BLANK_LINES));
                text.push_str(eol(rng));
            }
            if one_in(4, rng) {
                text.push_str(pick(rng, &SEPARATORS));
            }
            for (j, tok) in toks.iter().enumerate() {
                if j > 0 {
                    text.push_str(pick(rng, &SEPARATORS));
                }
                text.push_str(tok);
            }
            if one_in(4, rng) {
                text.push_str(pick(rng, &SEPARATORS));
            }
            text.push_str(eol(rng));
        };
        let header = match rng.next_u64() % 12 {
            0 => vec!["x".to_string(), n.to_string()],
            1 => vec![dim.to_string()],
            2 => vec![dim.to_string(), n.to_string(), "4".to_string()],
            _ => vec![dim.to_string(), n.to_string()],
        };
        line(&mut rng, &header);
        let rows = match rng.next_u64() % 10 {
            0 => n.saturating_sub(1),
            1 => n + 1,
            _ => n,
        };
        for _ in 0..rows {
            let arity = match rng.next_u64() % 20 {
                0 => dim + 1,
                1 => dim.saturating_sub(1),
                _ => dim,
            };
            let toks: Vec<String> = (0..arity)
                .map(|_| match rng.next_u64() % 25 {
                    0 => pick(&mut rng, &MALFORMED).to_string(),
                    1 => format!("{}", (rng.next_u64() % 100) as i64 - 50),
                    2 => ".5".to_string(),
                    3 => "-0".to_string(),
                    _ => format!("{:.17e}", (rng.next_u64() >> 11) as f64 / 1e9 - 4e6),
                })
                .collect();
            line(&mut rng, &toks);
        }
        let mut bytes = text.into_bytes();
        if one_in(3, &mut rng) {
            bytes.pop(); // no final newline
        }
        if one_in(8, &mut rng) {
            let at = (rng.next_u64() % (bytes.len() as u64 + 1)) as usize;
            bytes.insert(at, if one_in(2, &mut rng) { 0xff } else { 0xc3 });
        }
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn block_reader_matches_the_line_reader(bytes in Just(()).prop_perturb(|(), rng| sisap_text(rng))) {
            let _ = assert_readers_agree(&bytes);
        }

        #[test]
        fn every_truncation_of_generated_text_matches(bytes in Just(()).prop_perturb(|(), rng| sisap_text(rng))) {
            for cut in 0..=bytes.len() {
                let _ = assert_readers_agree(&bytes[..cut]);
            }
        }
    }

    #[test]
    fn blank_lines_are_ignored() {
        let back = read(b"\n2 2\n0 1\n\n2 3\n").unwrap();
        assert_eq!(back, VectorSet::from_nested(&[vec![0.0, 1.0], vec![2.0, 3.0]]));
    }

    #[test]
    fn strings_roundtrip_including_unicode() {
        let words: Vec<String> =
            ["hond", "chien", "Hund", "ʃtra:sə", "日本語", ""].map(String::from).to_vec();
        // Interior empty string survives; only trailing empties are
        // stripped, so append a sentinel.
        let mut with_sentinel = words;
        with_sentinel.push("end".to_string());
        let mut buf = Vec::new();
        write_strings(&mut buf, &with_sentinel).unwrap();
        let back = read_strings(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(back, with_sentinel);
    }

    #[test]
    fn strings_strip_crlf_and_trailing_blank() {
        let back = read_strings(&mut Cursor::new(b"cat\r\ndog\r\n\n" as &[u8])).unwrap();
        assert_eq!(back, vec!["cat".to_string(), "dog".to_string()]);
    }

    #[test]
    fn file_variants_roundtrip() {
        let dir = std::env::temp_dir().join("dp_sisap_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let vpath = dir.join("vecs.txt");
        let spath = dir.join("strs.txt");
        let vecs = uniform_unit_cube(10, 3, 5);
        write_vectors_file(&vpath, 3, &vecs).unwrap();
        let back = read_vectors_file_flat(&vpath).unwrap();
        assert_eq!(back, VectorSet::from_nested(&vecs));
        let words = vec!["alpha".to_string(), "beta".to_string()];
        write_strings_file(&spath, &words).unwrap();
        assert_eq!(read_strings_file(&spath).unwrap(), words);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn writer_rejects_nan() {
        let mut buf = Vec::new();
        write_vectors(&mut buf, 1, &[vec![f64::NAN]]).unwrap();
    }

    #[test]
    #[should_panic(expected = "newline")]
    fn writer_rejects_embedded_newline() {
        let mut buf = Vec::new();
        write_strings(&mut buf, &["a\nb".to_string()]).unwrap();
    }
}
