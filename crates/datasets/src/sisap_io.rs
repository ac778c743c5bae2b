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
//! One byte pass finds tokens, converts them and counts lines.  Its
//! separators are the ASCII whitespace `str::split_whitespace` knows
//! (space, `\t`, `\n`, `\x0B`, `\x0C`, `\r`).  Once the header is read,
//! each token goes first to the crate's decimal fast path, which reads
//! and converts it in that same pass and gives exactly the bits
//! `f64::from_str` would; a token it declines (too many digits, a
//! halfway case, `inf`, anything malformed) is cut at the next separator
//! and converted by `f64::from_str`.  A line whose token fails to convert
//! is split again with `split_whitespace` itself before any error is
//! reported, so Unicode separators such as U+00A0 and U+3000 are
//! accepted, at no cost to ASCII input, and every error message is
//! `f64::from_str`'s.
//!
//! [`read_vectors_file`] parses a file on several workers.  It cuts the
//! file into segments of about 1 MiB that end on line boundaries: a
//! segment starts just after the first `\n` at or after its nominal
//! start (the first segment at offset 0) and ends with the first `\n` at
//! or after its nominal end, so every line lies in exactly one segment.
//! The caller parses segments in order until it has read the header;
//! then each worker claims the next segment from a shared cursor, reads
//! it with `read_at` through the same block loop into its own buffer,
//! and appends its rows to the one result when every earlier segment has
//! been appended.  Rows therefore land in file order, and a worker holds
//! at most one parsed segment.  A segment that fails, or that brings the
//! rows past the header's `n`, is parsed again from the result's own
//! line and row counts, so the error reported is the first in file order,
//! with the line number and message the one-worker reader gives; no
//! worker claims a segment after that.

use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use dp_metric::par::fork_join;

use crate::decimal::{self, is_space};
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
        // dplint: allow(panic-boundary, reason = "documented precondition of the
        // writers: the rows come from the caller's own data, never from a file")
        assert_eq!(row.len(), dim, "vector length {} != declared dim {dim}", row.len());
        for (j, &x) in row.iter().enumerate() {
            // dplint: allow(panic-boundary, reason = "documented precondition of
            // the writers: NaN or ∞ in the caller's own data cannot be written")
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
    let mut parser = RowParser::new(BLOCK_LEN / 2);
    parser.read_blocks(r, &mut Vec::with_capacity(BLOCK_LEN))?;
    parser.finish()
}

/// Bytes the vector reader reads at a time; a longer line grows the block.
const BLOCK_LEN: usize = 64 * 1024;

/// Vector-file parse state carried from block to block.
struct RowParser {
    header: Option<(usize, usize)>,
    line: usize,
    rows: usize,
    data: Vec<f64>,
    max_reserve: usize,
}

impl RowParser {
    /// A parser that reserves at most `max_reserve` coordinates up front,
    /// whatever the header declares; the buffer grows past that only as
    /// rows arrive.
    fn new(max_reserve: usize) -> Self {
        RowParser { header: None, line: 0, rows: 0, data: Vec::new(), max_reserve }
    }

    /// The block loop (the module docs give its rules): parses all of
    /// `r`, one block at a time, reusing `block`.
    fn read_blocks<R: Read>(&mut self, r: &mut R, block: &mut Vec<u8>) -> Result<(), SisapIoError> {
        block.clear();
        loop {
            let room = BLOCK_LEN - block.len() % BLOCK_LEN;
            // Bytes read before an i/o error stay in the block: the whole
            // lines among them are parsed before the error is returned.
            let read = r.by_ref().take(room as u64).read_to_end(block);
            let eof = matches!(read, Ok(0));
            if eof && !block.is_empty() {
                block.push(b'\n'); // so that the last line is whole too
            }
            let end = block.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
            // On invalid UTF-8, rows before the offending line come first.
            let (text, bad_utf8) = match std::str::from_utf8(&block[..end]) {
                Ok(text) => (text, false),
                Err(e) => {
                    (std::str::from_utf8(&block[..e.valid_up_to()]).unwrap_or_default(), true)
                }
            };
            self.parse(&text[..text.rfind('\n').map_or(0, |i| i + 1)])?;
            if bad_utf8 {
                let msg = "stream did not contain valid UTF-8";
                return Err(io::Error::new(io::ErrorKind::InvalidData, msg).into());
            }
            read?;
            if eof {
                return Ok(());
            }
            block.drain(..end);
        }
    }

    /// The database, once the whole input is parsed: the header must have
    /// been read and its row count met.
    fn finish(self) -> Result<VectorSet, SisapIoError> {
        let (dim, n) =
            self.header.ok_or_else(|| parse_err(0, "empty file: missing `dim n` header"))?;
        if self.rows != n {
            return Err(parse_err(0, format!("header declared {n} rows, found {}", self.rows)));
        }
        Ok(VectorSet::from_raw(dim, self.data))
    }

    /// Parses newline-terminated lines in one byte pass.  A token the
    /// decimal fast path declines is converted by `f64::from_str`; the
    /// header line, and any line holding a token that does not convert,
    /// go to [`RowParser::slow_line`].
    fn parse(&mut self, text: &str) -> Result<(), SisapIoError> {
        let (bytes, mut i, mut row_start) = (text.as_bytes(), 0, self.data.len());
        while i < bytes.len() {
            let b = bytes[i];
            if b > b' ' || !is_space(b) {
                if self.header.is_some() {
                    if let Some((x, len)) = decimal::parse(&bytes[i..]) {
                        self.data.push(x);
                        i += len;
                        continue;
                    }
                }
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
        // dplint: allow(panic-boundary, reason = "documented precondition of the
        // writer: the format cannot hold a newline inside a string")
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

/// [`read_vectors_file`] on one worker.
pub fn read_vectors_file_flat<Q: AsRef<Path>>(path: Q) -> Result<VectorSet, SisapIoError> {
    read_vectors_file(path, 1)
}

/// Reads a vector database from a file path on up to `threads` workers
/// (the module docs give the segment rules).  The result, or the error,
/// is the one [`read_vectors_flat`] returns on the same bytes, at every
/// thread count.  One worker, or a file of one segment, parses straight
/// into the result.  Every coordinate takes at least two bytes, so no
/// more than half the file's length is reserved.
pub fn read_vectors_file<Q: AsRef<Path>>(
    path: Q,
    threads: usize,
) -> Result<VectorSet, SisapIoError> {
    read_segments(path.as_ref(), threads, SEGMENT_LEN, &AtomicUsize::new(0))
}

/// Nominal bytes in one segment of a file parsed on several workers.
const SEGMENT_LEN: u64 = 1 << 20;

/// Coordinates each worker's segment buffer reserves: 64 MiB of address
/// space, of which only what one segment's rows fill is ever touched.
/// glibc raises its mmap threshold to the size of any mapped block freed
/// below 32 MiB, and the count's mid-sized buffers then stay resident on
/// the heap: a buffer grown by doubling to about 512 KiB put 0.9 MiB on
/// the peak RSS of a 10⁶ × 2 count at 2 threads.  A block past 32 MiB
/// leaves the threshold as it was.
const SEGMENT_ROWS_RESERVE: usize = (64 << 20) / std::mem::size_of::<f64>();

/// [`read_vectors_file`] with segments of nominal length `segment_len`;
/// `parsed` counts the segments the workers parse.
fn read_segments(
    path: &Path,
    threads: usize,
    segment_len: u64,
    parsed: &AtomicUsize,
) -> Result<VectorSet, SisapIoError> {
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    let mut parser = RowParser::new(usize::try_from(len / 2).unwrap_or(usize::MAX));
    let mut block = Vec::with_capacity(BLOCK_LEN);
    let segments = usize::try_from(len.div_ceil(segment_len)).unwrap_or(usize::MAX);
    if threads <= 1 || segments <= 1 {
        parser.read_blocks(&mut file, &mut block)?;
        return parser.finish();
    }
    let mut first = 0;
    while parser.header.is_none() && first < segments {
        parser.read_blocks(&mut Segment::new(&file, first, segment_len), &mut block)?;
        first += 1;
    }
    let Some((dim, n)) = parser.header else { return parser.finish() };
    let cursor = AtomicUsize::new(first);
    let commits = Mutex::new(Commits { result: parser, next: first, failed: None });
    let turn = Condvar::new();
    fork_join(0..threads.min(segments - first), |_| {
        let _wake = WakeOnUnwind { commits: &commits, turn: &turn };
        let data = Vec::with_capacity(SEGMENT_ROWS_RESERVE);
        let mut local = RowParser { header: Some((dim, n)), data, ..RowParser::new(0) };
        let mut block = Vec::with_capacity(BLOCK_LEN);
        loop {
            // ordering: Relaxed suffices — the cursor only hands out
            // distinct segments; their rows reach the result under the
            // mutex, and the result reaches the caller through the
            // worker joins in fork_join.
            let s = cursor.fetch_add(1, Ordering::Relaxed);
            if s >= segments {
                break;
            }
            // ordering: Relaxed — a count read after the joins.
            parsed.fetch_add(1, Ordering::Relaxed);
            (local.line, local.rows) = (0, 0);
            local.data.clear();
            let ok = local.read_blocks(&mut Segment::new(&file, s, segment_len), &mut block);
            let mut c = lock(&commits);
            while c.next != s && c.failed.is_none() {
                c = turn.wait(c).unwrap_or_else(PoisonError::into_inner);
            }
            if c.failed.is_some() {
                break;
            }
            let result = &mut c.result;
            if ok.is_ok() && result.rows + local.rows <= n {
                result.data.extend_from_slice(&local.data);
                (result.line, result.rows) = (result.line + local.line, result.rows + local.rows);
            } else if let Err(e) =
                result.read_blocks(&mut Segment::new(&file, s, segment_len), &mut block)
            {
                c.failed = Some(e);
                // ordering: Relaxed — stops further claims; a worker
                // that claims one anyway finds `failed` set under the
                // mutex.
                cursor.store(segments, Ordering::Relaxed);
            }
            c.next += 1;
            drop(c);
            turn.notify_all();
        }
    });
    let commits = commits.into_inner().unwrap_or_else(PoisonError::into_inner);
    match commits.failed {
        Some(e) => Err(e),
        None => commits.result.finish(),
    }
}

/// The result of a multi-worker read, shared under one mutex.
struct Commits {
    /// The rows of every segment before `next`, in file order.
    result: RowParser,
    /// The segment whose rows are appended next.
    next: usize,
    /// The first error in file order; no segment after it is appended.
    failed: Option<SisapIoError>,
}

fn lock(commits: &Mutex<Commits>) -> MutexGuard<'_, Commits> {
    commits.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Fails the read if its worker unwinds, so that no other worker waits
/// for a segment that will never be appended.
struct WakeOnUnwind<'a> {
    commits: &'a Mutex<Commits>,
    turn: &'a Condvar,
}

impl Drop for WakeOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut c = lock(self.commits);
            c.failed.get_or_insert_with(|| io::Error::other("a parse worker panicked").into());
            drop(c);
            self.turn.notify_all();
        }
    }
}

/// One segment of a vector file, read with `read_at`: from just after the
/// first `\n` at or after its nominal start (from the start itself for
/// the first segment) through the first `\n` at or after its nominal end.
struct Segment<'f> {
    file: &'f File,
    /// File offset of the next byte to read.
    at: u64,
    /// The nominal end.
    end: u64,
    /// True while the partial line at the nominal start is skipped.
    skip: bool,
    done: bool,
}

impl<'f> Segment<'f> {
    fn new(file: &'f File, index: usize, segment_len: u64) -> Self {
        let at = segment_len.saturating_mul(index as u64);
        Segment { file, at, end: at.saturating_add(segment_len), skip: index > 0, done: false }
    }
}

impl Read for Segment<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        while !self.done {
            let (at, got) = (self.at, self.file.read_at(buf, self.at)?);
            if got == 0 {
                self.done = !buf.is_empty(); // end of file
                break;
            }
            let mut from = 0;
            if self.skip {
                let Some(i) = buf[..got].iter().position(|&b| b == b'\n') else {
                    self.at += got as u64;
                    continue;
                };
                // The line through the nominal end was the segment
                // before's: this one is empty.
                self.done = at + i as u64 >= self.end;
                if self.done {
                    break;
                }
                (self.skip, from) = (false, i + 1);
            }
            let tail = usize::try_from(self.end.saturating_sub(at)).unwrap_or(usize::MAX);
            let tail = tail.clamp(from, got);
            let take = match buf[tail..got].iter().position(|&b| b == b'\n') {
                Some(j) => {
                    self.done = true;
                    tail + j + 1
                }
                None => got,
            };
            self.at += take as u64;
            if from > 0 {
                buf.copy_within(from..take, 0);
            }
            if take > from {
                return Ok(take - from);
            }
        }
        Ok(0)
    }
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
    /// that are not whitespace (`\x1f` is whitespace to some tools), and
    /// near misses of the decimal fast path's grammar.
    #[rustfmt::skip]
    const MALFORMED: [&str; 17] = [
        "1e", "--1", "0x1", "inf", "NaN", "-inf", "1e400", "abc", "1,5", "\u{a0}x", "1\x1f2", "\0",
        ".", "+", "1e+", "1.7976931348623159e308", "1.5\x01",
    ];
    /// Finite coordinates at the edges of the decimal fast path: where it
    /// stops reading, and where it leaves the token to `f64::from_str`.
    #[rustfmt::skip]
    const NEAR_MISSES: [&str; 7] = [
        "1.", "+.5", "1E5", "1.5e-0", "12345678901234567890123", "0.000000000000000000001234",
        "-0.0",
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
                    4 => pick(&mut rng, &NEAR_MISSES).to_string(),
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

    /// `bytes` written to a temporary file of its own.
    struct TempFile(std::path::PathBuf);

    impl TempFile {
        fn new(bytes: &[u8]) -> Self {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            // ordering: Relaxed — only makes the name unique.
            let id = NEXT.fetch_add(1, Ordering::Relaxed);
            let name = format!("dp_sisap_segments_{}_{id}.vec", std::process::id());
            let path = std::env::temp_dir().join(name);
            std::fs::write(&path, bytes).unwrap();
            TempFile(path)
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }

    /// The segmented file reader at every worker count and segment
    /// length given, against [`read_vectors_flat`] on the same bytes:
    /// the same rows bit-for-bit, or the same error (line and message).
    /// Returns the most segments the workers parsed in any one read.
    fn assert_segments_agree(bytes: &[u8], workers: &[usize], segment_lens: &[u64]) -> usize {
        let want = read(bytes);
        let file = TempFile::new(bytes);
        let mut most_parsed = 0;
        for &threads in workers {
            for &segment_len in segment_lens {
                let parsed = AtomicUsize::new(0);
                let got = read_segments(&file.0, threads, segment_len, &parsed);
                let how = format!("{threads} workers, {segment_len}-byte segments");
                match (&want, got) {
                    (Ok(want), Ok(got)) => {
                        assert_eq!(want.dim(), got.dim(), "{how}: dim disagrees");
                        let bits =
                            |v: &VectorSet| v.as_flat().iter().map(|x| x.to_bits()).collect();
                        let (want, got): (Vec<u64>, Vec<u64>) = (bits(want), bits(&got));
                        assert_eq!(want, got, "{how}: rows disagree");
                    }
                    (Err(want), Err(got)) => {
                        assert_eq!(want.to_string(), got.to_string(), "{how}: errors disagree");
                    }
                    (want, got) => panic!(
                        "{how}: readers disagree on {:?}: block reader {:?}, segmented {:?}",
                        String::from_utf8_lossy(bytes),
                        want.as_ref().map(VectorSet::len).map_err(ToString::to_string),
                        got.map(|v| v.len()).map_err(|e| e.to_string())
                    ),
                }
                most_parsed = most_parsed.max(parsed.into_inner());
            }
        }
        most_parsed
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn segmented_reader_matches_the_block_reader(bytes in Just(()).prop_perturb(|(), rng| sisap_text(rng))) {
            assert_segments_agree(&bytes, &[1, 2, 3, 8], &[1, 2, 3, 5, 8, 13, 64]);
        }
    }

    /// 6000 rows of `dim` 2, about 290 KB: many 4 KiB segments.
    fn many_segments() -> Vec<u8> {
        let mut buf = Vec::new();
        write_vectors_flat(&mut buf, &crate::vectors::uniform_unit_cube_flat(6000, 2, 5)).unwrap();
        buf
    }

    #[test]
    fn segmented_reads_of_a_large_file_match() {
        let buf = many_segments();
        let crlf: Vec<u8> = String::from_utf8(buf.clone()).unwrap().replace('\n', "\r\n \n").into();
        for bytes in [&buf, &crlf] {
            assert_segments_agree(bytes, &[2, 3, 8], &[4096, 65_536, SEGMENT_LEN]);
        }
    }

    #[test]
    fn the_first_bad_token_in_file_order_wins_across_segments() {
        let mut bad = many_segments();
        let (early, late) = (20 * 4096 + 100, bad.len() - 30);
        let line = 1 + bad[..early].iter().filter(|&&b| b == b'\n').count();
        bad[early] = b'x';
        bad[late] = b'x';
        assert_segments_agree(&bad, &[2, 3, 8], &[4096, 10_000]);
        let file = TempFile::new(&bad);
        let err = read_segments(&file.0, 3, 4096, &AtomicUsize::new(0)).unwrap_err().to_string();
        assert!(err.contains(&format!("line {line}:")), "{err}");
    }

    #[test]
    fn a_crlf_row_end_on_a_segment_edge_is_read_whole() {
        let text = b"2 4\r\n0.5 1.5\r\n2.5 3.5\r\n4.5 5.5\r\n6.5 7.5\r\n";
        for (at, _) in text.windows(2).enumerate().filter(|(_, w)| w == b"\r\n") {
            // Segment edges on the `\r`, on the `\n` and just after it.
            let lens = [at as u64, at as u64 + 1, at as u64 + 2];
            assert_segments_agree(text, &[2, 3, 8], &lens);
        }
        // A row split by its line end, in a multi-segment file.
        let crlf: Vec<u8> =
            String::from_utf8(many_segments()).unwrap().replace('\n', "\r\n").into();
        let at = crlf.windows(2).skip(4096).position(|w| w == b"\r\n").unwrap() as u64 + 4096;
        assert_segments_agree(&crlf, &[2, 3], &[at, at + 1]);
    }

    #[test]
    fn workers_stop_claiming_once_the_declared_rows_are_exceeded() {
        // Four-byte segments: segment 0 holds the header and one row, and
        // each later segment one more row.
        let mut text = b"1 1\n".to_vec();
        for _ in 0..100_000 {
            text.extend_from_slice(b"0.5\n");
        }
        for workers in [2, 3, 8] {
            let parsed = assert_segments_agree(&text, &[workers], &[4]);
            assert!(parsed <= workers, "{workers} workers parsed {parsed} of 100000 segments");
        }
        let err = read(&text).unwrap_err().to_string();
        assert!(err.contains("line 3: more than the declared 1 rows"), "{err}");
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
