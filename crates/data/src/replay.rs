//! DFRL — a self-describing binary replay log for audit record streams.
//!
//! CSV is the interchange format; it is not a replay format. Re-auditing a
//! million-row stream through the CSV path re-parses every byte, re-interns
//! every label, and re-validates every field — all to recover `u32` codes
//! the first pass already computed. A DFRL log stores the interned form
//! directly: the schema (column names + vocabularies) once in a header, and
//! rows as packed code/cell columns, so replay counts codes straight from
//! the log's bytes with no string ever materialized.
//!
//! Wire layout (`varint`, `str` and `f64` are the [`df_prob::wire`]
//! primitives):
//!
//! ```text
//! log    := magic "DFRL" | version u8 | frame(header) | frame(chunk)* | end
//! frame  := varint body_len (> 0) | body
//! end    := varint 0, then EOF (trailing bytes are an error)
//! header := n_cols varint | col × n_cols
//! col    := name str | kind u8 | [kind 0: n_labels varint | label str × n]
//! kind   := 0 (categorical: chunk cells are varint codes)
//!         | 1 (numeric: chunk cells are f64 bit patterns)
//! chunk  := n_rows varint | per column, in schema order:
//!             categorical: code varint × n_rows   (each < its vocab arity)
//!             numeric:     f64 × n_rows
//! ```
//!
//! Decoding treats the log as untrusted input, exactly like the DFLT fleet
//! codec: truncation at any offset, bad magic or version, oversized frames,
//! element counts exceeding the bytes that remain, invalid UTF-8, duplicate
//! schema entries, out-of-range codes, and bytes after the end marker all
//! produce typed [`DataError::Replay`] errors — nothing panics, and no
//! allocation is sized by an attacker-chosen header field alone. Codes are
//! range-checked against their vocabulary once at decode, which is what
//! licenses the trusted (scan-free) tally downstream.
//!
//! One frame validator serves every read path. It reads each chunk frame
//! into one reused buffer and checks its columns in schema order. At the
//! arities audits use nearly every code is a one-byte varint, so a
//! categorical column whose bytes are all below `min(arity, 0x80)` is
//! handed out as the frame's own bytes, checked with one max over the
//! column ([`Reader::code_bytes`]). Any other column decodes through
//! [`Reader::codes`] into `u32`s: its bytes are checked 64 at a time, and
//! only the cell at the first other byte goes through the per-cell varint
//! decode and range check, so every error keeps the text and offset of a
//! cell-by-cell decode. [`tally_from_log`] counts the byte columns as
//! they are, through [`ContingencyTable::tally_codes_trusted`];
//! [`ReplayChunks`] widens them into a [`CodeChunk`]'s `u32` columns.
//!
//! Entry points:
//!
//! - [`ReplayWriter`] / [`ReplayChunks`]: streaming writer and reader.
//! - [`write_frame_log`] / [`read_frame_log`]: `Frame → log → Frame`.
//! - [`csv_to_log`]: one-shot CSV → DFRL conversion (interns via
//!   [`Interner`], so vocabularies are in first-occurrence order like
//!   [`Column::categorical`]).
//! - [`tally_from_log`]: log bytes → contingency table with no frame and
//!   no per-chunk schema re-check — the ≥5×-over-CSV replay fast path.

use crate::csv::CsvOptions;
use crate::error::{DataError, Result};
use crate::frame::{Column, ColumnData, DataFrame, Interner};
use df_prob::contingency::{Axis, ContingencyTable};
use df_prob::partial::{PartialCounts, Tally};
use df_prob::wire::{put_f64, put_str, put_varint, Reader};
use df_prob::ProbError;
use std::collections::HashSet;
use std::io::{BufRead, ErrorKind, Write};
use std::sync::Arc;

/// The log magic: `DFRL` ("differential-fairness replay log").
pub const MAGIC: [u8; 4] = *b"DFRL";
/// Current wire-format version.
pub const VERSION: u8 = 1;

const KIND_CATEGORICAL: u8 = 0;
const KIND_NUMERIC: u8 = 1;

/// Hard cap on a single frame's body, writer- and reader-enforced: big
/// enough for any realistic header or chunk, small enough that a hostile
/// length prefix cannot demand a giant allocation before any payload
/// arrives.
pub const MAX_FRAME_BYTES: usize = 1 << 26;

// ---------------------------------------------------------------------------
// Schema.
// ---------------------------------------------------------------------------

/// One column of a replay log's schema.
#[derive(Debug, Clone, PartialEq)]
pub enum LogColumn {
    /// Interned strings: chunk cells are varint codes into `vocab`.
    Categorical {
        /// Column name (unique within the schema).
        name: String,
        /// Vocabulary in interning (first-occurrence) order.
        vocab: Vec<String>,
    },
    /// Raw `f64` cells.
    Numeric {
        /// Column name (unique within the schema).
        name: String,
    },
}

impl LogColumn {
    /// The column's name.
    pub fn name(&self) -> &str {
        match self {
            LogColumn::Categorical { name, .. } | LogColumn::Numeric { name } => name,
        }
    }
}

/// A validated replay-log schema: at least one column, unique non-empty
/// column names, and per-column vocabularies with unique labels.
#[derive(Debug, Clone, PartialEq)]
pub struct LogSchema {
    columns: Vec<LogColumn>,
}

impl LogSchema {
    /// Validates and wraps a column list.
    pub fn new(columns: Vec<LogColumn>) -> Result<Self> {
        if columns.is_empty() {
            return Err(DataError::Invalid(
                "replay schema needs at least one column".into(),
            ));
        }
        let mut names: HashSet<&str> = HashSet::with_capacity(columns.len());
        for col in &columns {
            let name = col.name();
            if name.is_empty() {
                return Err(DataError::Invalid(
                    "replay schema column name is empty".into(),
                ));
            }
            if !names.insert(name) {
                return Err(DataError::Invalid(format!(
                    "replay schema has duplicate column `{name}`"
                )));
            }
            if let LogColumn::Categorical { vocab, .. } = col {
                if u32::try_from(vocab.len()).is_err() {
                    return Err(DataError::Invalid(format!(
                        "column `{name}` vocabulary exceeds u32 code space"
                    )));
                }
                let mut labels: HashSet<&str> = HashSet::with_capacity(vocab.len());
                for label in vocab {
                    if !labels.insert(label) {
                        return Err(DataError::Invalid(format!(
                            "column `{name}` has duplicate label `{label}`"
                        )));
                    }
                }
            }
        }
        Ok(Self { columns })
    }

    /// The schema taken verbatim from a frame's columns (categorical
    /// vocabularies in their interning order).
    pub fn of_frame(frame: &DataFrame) -> Result<Self> {
        let mut columns = Vec::with_capacity(frame.columns().len());
        for col in frame.columns() {
            columns.push(match col.data() {
                ColumnData::Categorical { vocab, .. } => LogColumn::Categorical {
                    name: col.name().to_string(),
                    vocab: vocab.clone(),
                },
                ColumnData::Numeric(_) => LogColumn::Numeric {
                    name: col.name().to_string(),
                },
            });
        }
        Self::new(columns)
    }

    /// The columns, in wire order.
    pub fn columns(&self) -> &[LogColumn] {
        &self.columns
    }
}

// ---------------------------------------------------------------------------
// Streaming writer.
// ---------------------------------------------------------------------------

/// One column's worth of chunk data handed to [`ReplayWriter::write_chunk`].
#[derive(Debug, Clone, Copy)]
pub enum ChunkColumn<'a> {
    /// Codes for a categorical column (each must index its vocabulary).
    Codes(&'a [u32]),
    /// Cells for a numeric column.
    Values(&'a [f64]),
}

impl ChunkColumn<'_> {
    fn len(&self) -> usize {
        match self {
            ChunkColumn::Codes(c) => c.len(),
            ChunkColumn::Values(v) => v.len(),
        }
    }
}

/// Streaming DFRL writer: header up front, then row chunks, then an end
/// marker from [`ReplayWriter::finish`]. Dropping the writer without
/// calling `finish` leaves a truncated log that readers reject — the end
/// marker is what distinguishes a complete log from one cut off mid-write.
#[derive(Debug)]
pub struct ReplayWriter<W: Write> {
    out: W,
    schema: LogSchema,
    scratch: Vec<u8>,
    rows: u64,
    chunks: u64,
    bytes: u64,
}

impl<W: Write> ReplayWriter<W> {
    /// Validates the schema and writes the log preamble (magic, version,
    /// header frame).
    pub fn new(out: W, schema: LogSchema) -> Result<Self> {
        let mut w = Self {
            out,
            schema,
            scratch: Vec::new(),
            rows: 0,
            chunks: 0,
            bytes: 0,
        };
        w.emit(&MAGIC)?;
        w.emit(&[VERSION])?;
        let mut header = Vec::new();
        put_varint(&mut header, w.schema.columns.len() as u64);
        for col in &w.schema.columns {
            match col {
                LogColumn::Categorical { name, vocab } => {
                    put_str(&mut header, name);
                    header.push(KIND_CATEGORICAL);
                    put_varint(&mut header, vocab.len() as u64);
                    for label in vocab {
                        put_str(&mut header, label);
                    }
                }
                LogColumn::Numeric { name } => {
                    put_str(&mut header, name);
                    header.push(KIND_NUMERIC);
                }
            }
        }
        w.emit_frame(&header, "schema header")?;
        Ok(w)
    }

    /// The schema this writer encodes against.
    pub fn schema(&self) -> &LogSchema {
        &self.schema
    }

    /// Rows written so far.
    pub fn rows_written(&self) -> u64 {
        self.rows
    }

    /// Bytes emitted so far (preamble + frames).
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    fn emit(&mut self, bytes: &[u8]) -> Result<()> {
        self.out.write_all(bytes)?;
        self.bytes += bytes.len() as u64;
        Ok(())
    }

    fn emit_frame(&mut self, body: &[u8], what: &str) -> Result<()> {
        if body.len() > MAX_FRAME_BYTES {
            return Err(DataError::Invalid(format!(
                "{what} frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap; \
                 write smaller chunks",
                body.len()
            )));
        }
        let mut prefix = Vec::new();
        put_varint(&mut prefix, body.len() as u64);
        self.emit(&prefix)?;
        self.emit(body)
    }

    /// Writes one chunk of rows: one [`ChunkColumn`] per schema column, in
    /// schema order, all the same non-zero length, codes in range for
    /// their vocabulary. Validation failures are [`DataError::Invalid`]
    /// (writer misuse, not corrupt input) and leave nothing emitted.
    pub fn write_chunk(&mut self, columns: &[ChunkColumn<'_>]) -> Result<()> {
        if columns.len() != self.schema.columns.len() {
            return Err(DataError::Invalid(format!(
                "chunk has {} columns but the schema has {}",
                columns.len(),
                self.schema.columns.len()
            )));
        }
        let n_rows = columns.first().map_or(0, ChunkColumn::len);
        if n_rows == 0 {
            return Err(DataError::Invalid("chunk has no rows".into()));
        }
        for (col, spec) in columns.iter().zip(&self.schema.columns) {
            if col.len() != n_rows {
                return Err(DataError::Invalid(format!(
                    "chunk column `{}` has {} rows; expected {n_rows}",
                    spec.name(),
                    col.len()
                )));
            }
            match (col, spec) {
                (ChunkColumn::Codes(codes), LogColumn::Categorical { name, vocab }) => {
                    let arity = vocab.len() as u64;
                    if let Some(&bad) = codes.iter().find(|&&c| u64::from(c) >= arity) {
                        return Err(DataError::Invalid(format!(
                            "code {bad} out of range for column `{name}` ({arity} labels)"
                        )));
                    }
                }
                (ChunkColumn::Values(_), LogColumn::Numeric { .. }) => {}
                (ChunkColumn::Codes(_), LogColumn::Numeric { name }) => {
                    return Err(DataError::Invalid(format!(
                        "column `{name}` is numeric but the chunk supplies codes"
                    )));
                }
                (ChunkColumn::Values(_), LogColumn::Categorical { name, .. }) => {
                    return Err(DataError::Invalid(format!(
                        "column `{name}` is categorical but the chunk supplies values"
                    )));
                }
            }
        }
        self.scratch.clear();
        let mut body = std::mem::take(&mut self.scratch);
        put_varint(&mut body, n_rows as u64);
        for col in columns {
            match col {
                ChunkColumn::Codes(codes) => {
                    for &c in *codes {
                        put_varint(&mut body, u64::from(c));
                    }
                }
                ChunkColumn::Values(values) => {
                    for &v in *values {
                        put_f64(&mut body, v);
                    }
                }
            }
        }
        let result = self.emit_frame(&body, "chunk");
        self.scratch = body;
        result?;
        self.rows += n_rows as u64;
        self.chunks += 1;
        Ok(())
    }

    /// Writes the end marker, flushes, and returns the underlying writer
    /// along with the log's totals.
    pub fn finish(mut self) -> Result<(W, LogStats)> {
        let mut end = Vec::new();
        put_varint(&mut end, 0);
        self.emit(&end)?;
        self.out.flush()?;
        Ok((
            self.out,
            LogStats {
                rows: self.rows,
                chunks: self.chunks,
                bytes: self.bytes,
            },
        ))
    }
}

/// Totals for a written log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogStats {
    /// Rows across all chunks.
    pub rows: u64,
    /// Chunk frames written.
    pub chunks: u64,
    /// Total encoded bytes, preamble and end marker included.
    pub bytes: u64,
}

// ---------------------------------------------------------------------------
// Streaming reader: byte source + in-frame reader, every failure typed.
// ---------------------------------------------------------------------------

/// Pulls frames off a [`BufRead`], tracking the absolute byte offset so
/// every error names where the log went bad.
#[derive(Debug)]
struct FrameSource<R: BufRead> {
    inner: R,
    offset: u64,
}

impl<R: BufRead> FrameSource<R> {
    fn new(inner: R) -> Self {
        Self { inner, offset: 0 }
    }

    fn corrupt(&self, message: String) -> DataError {
        DataError::Replay {
            offset: self.offset,
            message,
        }
    }

    /// Reads exactly `buf.len()` bytes; EOF mid-read is a typed error. An
    /// interrupted read is retried, as `Read::read_exact` does.
    fn fill(&mut self, buf: &mut [u8], what: &str) -> Result<()> {
        let mut filled = 0usize;
        while filled < buf.len() {
            let dst = buf.get_mut(filled..).ok_or_else(|| DataError::Replay {
                offset: self.offset,
                message: format!("internal fill range error reading {what}"),
            })?;
            let got = match self.inner.read(dst) {
                Ok(got) => got,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            };
            if got == 0 {
                return Err(self.corrupt(format!(
                    "log truncated reading {what}: needed {} more bytes",
                    buf.len() - filled
                )));
            }
            filled += got;
            self.offset += got as u64;
        }
        Ok(())
    }

    fn byte(&mut self, what: &str) -> Result<u8> {
        let mut b = [0u8; 1];
        self.fill(&mut b, what)?;
        b.first().copied().ok_or_else(|| DataError::Replay {
            offset: self.offset,
            message: format!("internal one-byte read error for {what}"),
        })
    }

    /// Unsigned LEB128 straight off the stream (frame lengths): gathers
    /// the varint's bytes, at most ten, and decodes them with [`Reader`]
    /// at their offset in the log.
    fn varint(&mut self, what: &str) -> Result<u64> {
        let start = self.offset;
        let mut bytes = [0u8; 10];
        let mut len = 0;
        for slot in &mut bytes {
            *slot = self.byte(what)?;
            len += 1;
            if *slot < 0x80 {
                break;
            }
        }
        Ok(Reader::new(bytes.get(..len).unwrap_or_default(), start).varint(what)?)
    }

    /// Reads one length-prefixed frame body into `body`, reusing its
    /// allocation, and returns the body's offset in the log, or `None` on
    /// the end marker. The length is capped by [`MAX_FRAME_BYTES`] before
    /// the buffer grows.
    fn frame(&mut self, what: &str, body: &mut Vec<u8>) -> Result<Option<u64>> {
        let len = self.varint("frame length")?;
        if len == 0 {
            return Ok(None);
        }
        if len > MAX_FRAME_BYTES as u64 {
            return Err(self.corrupt(format!(
                "{what} frame claims {len} bytes, over the {MAX_FRAME_BYTES}-byte cap"
            )));
        }
        let start = self.offset;
        let n = usize::try_from(len)
            .map_err(|_| self.corrupt(format!("{what} frame length does not fit usize")))?
            .min(MAX_FRAME_BYTES);
        body.resize(n, 0);
        self.fill(body, what)?;
        Ok(Some(start))
    }

    /// Requires clean EOF (called after the end marker), retrying an
    /// interrupted read.
    fn expect_eof(&mut self) -> Result<()> {
        let at_eof = loop {
            match self.inner.fill_buf() {
                Ok(rest) => break rest.is_empty(),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        };
        if !at_eof {
            return Err(self.corrupt("trailing bytes after the end marker".into()));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Low-level log reader: schema + validated chunk frames.
// ---------------------------------------------------------------------------

/// One categorical column of a validated chunk frame.
#[derive(Debug, Clone, Copy)]
enum Codes<'a> {
    /// `n_rows` complete, in-range one-byte codes: the frame's own bytes.
    Bytes(&'a [u8]),
    /// The codes [`Reader::codes`] decoded, for a column with a
    /// multi-byte or non-canonical cell.
    Wide(&'a [u32]),
}

impl Codes<'_> {
    /// Appends the codes to `out` as `u32`s.
    fn append_to(self, out: &mut Vec<u32>) {
        match self {
            Codes::Bytes(bytes) => out.extend(bytes.iter().map(|&b| u32::from(b))),
            Codes::Wide(codes) => out.extend_from_slice(codes),
        }
    }
}

/// One column of a validated chunk frame, as the frame validator hands
/// it out.
#[derive(Debug, Clone, Copy)]
enum Cells<'a> {
    Codes(Codes<'a>),
    /// `n_rows` little-endian `f64` bit patterns, as the frame holds them.
    Values(&'a [u8]),
}

/// One validated chunk frame: its row count and every column's cells,
/// in schema order, codes range-checked against their vocabularies.
#[derive(Debug)]
struct Chunk<'a> {
    n_rows: usize,
    columns: Vec<Cells<'a>>,
}

impl<'a> Chunk<'a> {
    /// The cells of the categorical column at schema position `pos`.
    fn codes(&self, pos: usize) -> Result<Codes<'a>> {
        match self.columns.get(pos) {
            Some(Cells::Codes(codes)) => Ok(*codes),
            _ => Err(DataError::Invalid(format!(
                "projected column position {pos} is not categorical"
            ))),
        }
    }
}

/// Internal streaming decoder shared by every public read path.
#[derive(Debug)]
struct LogReader<R: BufRead> {
    source: FrameSource<R>,
    schema: LogSchema,
    /// Per-column arity for categorical columns (`None` for numeric),
    /// precomputed so chunk decode never re-derives it.
    arities: Vec<Option<u32>>,
    finished: bool,
    /// The current frame's body: every frame is read into this buffer.
    body: Vec<u8>,
    /// Per schema column, the current chunk's decoded codes when the
    /// column takes the `u32` route ([`ReplayChunks`] moves them out).
    codes: Vec<Vec<u32>>,
}

impl<R: BufRead> LogReader<R> {
    fn new(inner: R) -> Result<Self> {
        let mut source = FrameSource::new(inner);
        let mut magic = [0u8; 4];
        source.fill(&mut magic, "magic")?;
        if magic != MAGIC {
            return Err(source.corrupt(format!("bad magic {magic:02x?}; not a DFRL replay log")));
        }
        let version = source.byte("version")?;
        if version != VERSION {
            return Err(source.corrupt(format!(
                "unsupported replay-log version {version} (expected {VERSION})"
            )));
        }
        let mut body = Vec::new();
        let base = source
            .frame("schema header", &mut body)?
            .ok_or_else(|| source.corrupt("missing schema header frame".into()))?;
        let schema = decode_header(&body, base)?;
        let arities: Vec<Option<u32>> = schema
            .columns
            .iter()
            .map(|c| match c {
                // Arity fits u32 by LogSchema validation.
                LogColumn::Categorical { vocab, .. } => u32::try_from(vocab.len()).ok(),
                LogColumn::Numeric { .. } => None,
            })
            .collect();
        Ok(Self {
            source,
            schema,
            codes: arities.iter().map(|_| Vec::new()).collect(),
            arities,
            finished: false,
            body,
        })
    }

    /// The frame validator every read path shares: reads the next chunk
    /// frame into the reused body buffer and checks it, column by column
    /// in schema order, failing at the first bad byte with the text and
    /// offset of a cell-by-cell decode. A categorical column whose bytes
    /// are all complete, in-range one-byte codes is handed out as those
    /// bytes ([`Reader::code_bytes`]); any other goes through
    /// [`Reader::codes`] into the column's reused `u32` buffer.
    fn next_chunk(&mut self) -> Result<Option<Chunk<'_>>> {
        if self.finished {
            return Ok(None);
        }
        let Some(base) = self.source.frame("chunk", &mut self.body)? else {
            self.finished = true;
            self.source.expect_eof()?;
            return Ok(None);
        };
        let mut r = Reader::new(&self.body, base);
        let n_rows = r.count("chunk row count")?;
        if n_rows == 0 {
            return Err(r.error("chunk frame with zero rows".into()).into());
        }
        let mut columns = Vec::with_capacity(self.arities.len());
        let specs = self.schema.columns.iter().zip(&self.arities);
        for ((spec, arity), codes) in specs.zip(&mut self.codes) {
            columns.push(match arity {
                Some(arity) => Cells::Codes(match r.code_bytes(n_rows, *arity) {
                    Some(bytes) => Codes::Bytes(bytes),
                    None => {
                        codes.clear();
                        codes.reserve(n_rows);
                        r.codes(n_rows, *arity, spec.name(), codes)?;
                        Codes::Wide(codes)
                    }
                }),
                None => Cells::Values(f64_cells(&mut r, n_rows)?),
            });
        }
        r.done("chunk payload")?;
        Ok(Some(Chunk { n_rows, columns }))
    }
}

/// `n` numeric cells as the frame's bytes: one bounds check when the
/// frame holds them all, and otherwise the cell-by-cell reads, which fail
/// at the first cell the frame cuts short.
fn f64_cells<'a>(r: &mut Reader<'a>, n: usize) -> Result<&'a [u8]> {
    let len = n.saturating_mul(8);
    if len > r.remaining() {
        for _ in 0..n {
            r.f64("numeric cell")?;
        }
    }
    Ok(r.take(len, "numeric cell")?)
}

fn decode_header(buf: &[u8], base: u64) -> Result<LogSchema> {
    let mut r = Reader::new(buf, base);
    let n_cols = r.count("schema column count")?;
    if n_cols == 0 {
        return Err(r.error("schema declares zero columns".into()).into());
    }
    let mut columns = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        let name = r.str("column name")?;
        let kind = r.u8("column kind")?;
        match kind {
            KIND_CATEGORICAL => {
                let n_labels = r.count("vocabulary size")?;
                let mut vocab = Vec::with_capacity(n_labels);
                for _ in 0..n_labels {
                    vocab.push(r.str("vocabulary label")?);
                }
                columns.push(LogColumn::Categorical { name, vocab });
            }
            KIND_NUMERIC => columns.push(LogColumn::Numeric { name }),
            k => {
                return Err(r.error(format!("unknown column kind {k}")).into());
            }
        }
    }
    r.done("schema header")?;
    // Structural validation (duplicates, empty names) reuses the writer's
    // rules; surface failures as corruption at the header's offset.
    LogSchema::new(columns).map_err(|e| DataError::Replay {
        offset: base,
        message: e.to_string(),
    })
}

// ---------------------------------------------------------------------------
// Public read paths.
// ---------------------------------------------------------------------------

/// Schema shared by every [`CodeChunk`] a reader yields: the projected
/// categorical columns' names and vocabularies.
#[derive(Debug, PartialEq)]
pub struct CodeSchema {
    columns: Vec<(String, Vec<String>)>,
}

impl CodeSchema {
    /// The schema whose columns are `axes`, in order: each column named
    /// after its axis, with the axis labels as its vocabulary. Chunks
    /// built against it tally into shards over exactly these axes.
    pub fn from_axes(axes: &[Axis]) -> Self {
        Self {
            columns: axes
                .iter()
                .map(|a| (a.name().to_string(), a.labels().to_vec()))
                .collect(),
        }
    }

    /// `(name, vocabulary)` per projected column, in projection order.
    pub fn columns(&self) -> &[(String, Vec<String>)] {
        &self.columns
    }

    /// The axes matching the projected columns — pass these to the
    /// streaming audit entry point; chunk codes index them directly.
    pub fn axes(&self) -> Result<Vec<Axis>> {
        self.columns
            .iter()
            .map(|(name, vocab)| Axis::new(name.clone(), vocab.clone()).map_err(DataError::from))
            .collect()
    }
}

/// One decoded batch of rows: per-column `u32` codes, validated against
/// the log schema at decode time, plus a shared handle to that schema.
/// Implements [`Tally`], so it plugs straight into `Audit::of_stream`,
/// the monitor's `push`, and every other chunk consumer.
#[derive(Debug, Clone)]
pub struct CodeChunk {
    schema: Arc<CodeSchema>,
    columns: Vec<Vec<u32>>,
    n_rows: usize,
}

impl CodeChunk {
    /// A chunk of column-major codes, one column per schema column, each
    /// code indexing its column's vocabulary. Errors on a column count
    /// other than the schema's, unequal column lengths, or an out-of-range
    /// code: the checks that license the trusted tally.
    pub fn new(schema: Arc<CodeSchema>, columns: Vec<Vec<u32>>) -> Result<Self> {
        if columns.len() != schema.columns.len() {
            return Err(DataError::Invalid(format!(
                "{} code columns for a schema of {}",
                columns.len(),
                schema.columns.len()
            )));
        }
        let n_rows = columns.first().map_or(0, Vec::len);
        for (codes, (name, vocab)) in columns.iter().zip(&schema.columns) {
            if codes.len() != n_rows {
                return Err(DataError::Invalid(format!(
                    "column `{name}` has {} codes; the chunk has {n_rows} rows",
                    codes.len()
                )));
            }
            if let Some(&max) = codes.iter().max() {
                if usize::try_from(max).map_or(true, |m| m >= vocab.len()) {
                    return Err(DataError::Invalid(format!(
                        "code {max} out of range for column `{name}` ({} labels)",
                        vocab.len()
                    )));
                }
            }
        }
        Ok(Self {
            schema,
            columns,
            n_rows,
        })
    }

    /// Number of rows in this chunk.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The decoded code columns, in projection order.
    pub fn columns(&self) -> &[Vec<u32>] {
        &self.columns
    }

    fn column_slices(&self) -> Vec<&[u32]> {
        self.columns.iter().map(Vec::as_slice).collect()
    }
}

impl Tally for CodeChunk {
    fn tally_into(&self, shard: &mut PartialCounts) -> df_prob::Result<()> {
        if shard.ndim() != self.columns.len() {
            return Err(ProbError::ShapeMismatch {
                context: "CodeChunk::tally_into",
                expected: self.columns.len(),
                actual: shard.ndim(),
            });
        }
        // Same contract as FrameChunk: the shard's axes must be exactly
        // this log's schema, or in-range codes would still land in wrong
        // cells.
        for (axis, (name, vocab)) in shard.axes().iter().zip(self.schema.columns()) {
            if axis.name() != name || axis.labels() != vocab.as_slice() {
                return Err(ProbError::InvalidParameter {
                    name: "shard",
                    reason: format!(
                        "axis `{}` does not match log column `{name}`'s vocabulary; \
                         build the audit axes with ReplayChunks::axes",
                        axis.name(),
                    ),
                });
            }
        }
        // Codes were range-checked against these vocabularies at decode,
        // so the scan-free bulk tally is sound.
        shard.record_codes_trusted(&self.column_slices())
    }
}

/// Streaming reader over a DFRL log's categorical columns, yielding
/// [`CodeChunk`]s ready for the trusted tally path.
///
/// By default every categorical column of the log is exposed, in schema
/// order; [`ReplayChunks::with_columns`] projects onto named columns
/// (e.g. outcome first, then the protected attributes). Iteration stops
/// permanently after the first error, mirroring `CsvChunks`.
#[derive(Debug)]
pub struct ReplayChunks<R: BufRead> {
    log: LogReader<R>,
    /// Schema positions of the projected columns, in projection order.
    projection: Vec<usize>,
    schema: Arc<CodeSchema>,
    done: bool,
}

impl<R: BufRead> ReplayChunks<R> {
    /// Opens a log and validates its preamble and schema header. The
    /// initial projection is every categorical column, in schema order;
    /// errors if the log has none.
    pub fn new(reader: R) -> Result<Self> {
        let log = LogReader::new(reader)?;
        let projection: Vec<usize> = log
            .schema
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| matches!(c, LogColumn::Categorical { .. }))
            .map(|(i, _)| i)
            .collect();
        if projection.is_empty() {
            return Err(DataError::Invalid(
                "replay log has no categorical columns to tally".into(),
            ));
        }
        let schema = Arc::new(code_schema(&log.schema, &projection)?);
        Ok(Self {
            log,
            projection,
            schema,
            done: false,
        })
    }

    /// Projects onto the named categorical columns, in the given order.
    /// Unknown, numeric or repeated columns are an error.
    pub fn with_columns(mut self, columns: &[&str]) -> Result<Self> {
        if columns.is_empty() {
            return Err(DataError::Invalid("need at least one column".into()));
        }
        let mut projection = Vec::with_capacity(columns.len());
        for want in columns {
            let pos = self
                .log
                .schema
                .columns
                .iter()
                .position(|c| c.name() == *want)
                .ok_or_else(|| DataError::UnknownColumn((*want).to_string()))?;
            if projection.contains(&pos) {
                return Err(DataError::Invalid(format!(
                    "column `{want}` is projected twice"
                )));
            }
            match self.log.schema.columns.get(pos) {
                Some(LogColumn::Categorical { .. }) => projection.push(pos),
                _ => {
                    return Err(DataError::WrongColumnType {
                        column: (*want).to_string(),
                        expected: "categorical",
                    })
                }
            }
        }
        self.schema = Arc::new(code_schema(&self.log.schema, &projection)?);
        self.projection = projection;
        Ok(self)
    }

    /// The full log schema, as decoded from the header.
    pub fn log_schema(&self) -> &LogSchema {
        &self.log.schema
    }

    /// The projected columns' shared schema (names + vocabularies).
    pub fn schema(&self) -> &Arc<CodeSchema> {
        &self.schema
    }

    /// The axes matching the projected columns, for the audit/monitor
    /// entry points.
    pub fn axes(&self) -> Result<Vec<Axis>> {
        self.schema.axes()
    }

    fn next_code_chunk(&mut self) -> Result<Option<CodeChunk>> {
        let Some(chunk) = self.log.next_chunk()? else {
            return Ok(None);
        };
        let n_rows = chunk.n_rows;
        // Byte columns are widened here. Decoded columns are moved out of
        // the reader's buffers once the chunk is done with them.
        let mut columns = Vec::with_capacity(self.projection.len());
        let mut decoded = Vec::new();
        for &pos in &self.projection {
            let mut column = Vec::new();
            match chunk.codes(pos)? {
                codes @ Codes::Bytes(_) => {
                    column.reserve_exact(n_rows);
                    codes.append_to(&mut column);
                }
                Codes::Wide(_) => decoded.push((columns.len(), pos)),
            }
            columns.push(column);
        }
        for (i, pos) in decoded {
            if let (Some(column), Some(codes)) = (columns.get_mut(i), self.log.codes.get_mut(pos)) {
                std::mem::swap(column, codes);
            }
        }
        Ok(Some(CodeChunk {
            schema: Arc::clone(&self.schema),
            columns,
            n_rows,
        }))
    }
}

fn code_schema(schema: &LogSchema, projection: &[usize]) -> Result<CodeSchema> {
    let mut columns = Vec::with_capacity(projection.len());
    for &pos in projection {
        match schema.columns.get(pos) {
            Some(LogColumn::Categorical { name, vocab }) => {
                columns.push((name.clone(), vocab.clone()));
            }
            _ => {
                return Err(DataError::Invalid(format!(
                    "projection position {pos} is not a categorical column"
                )))
            }
        }
    }
    Ok(CodeSchema { columns })
}

impl<R: BufRead> Iterator for ReplayChunks<R> {
    type Item = Result<CodeChunk>;

    fn next(&mut self) -> Option<Result<CodeChunk>> {
        if self.done {
            return None;
        }
        match self.next_code_chunk() {
            Ok(Some(chunk)) => Some(Ok(chunk)),
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

/// Tallies the named columns of a DFRL log straight into a contingency
/// table, with no frame materialized, no strings touched after the
/// header, and no per-chunk schema re-check (the axes are built from the
/// same header the codes were validated against).
///
/// Each chunk frame is read into one reused buffer and validated exactly
/// as [`ReplayChunks`] validates it, and the projected columns are then
/// counted by [`PartialCounts::record_codes_trusted`]. A chunk whose
/// projected columns are all complete, in-range one-byte codes (every
/// byte below `min(arity, 0x80)`) is counted straight from the frame's
/// bytes. A chunk with a multi-byte or non-canonical code in a projected
/// column takes the `u32` route: its decoded columns are counted as they
/// are, and its byte columns are widened to `u32`s first. Either way the
/// table is bit for bit the one a tally of [`ReplayChunks`]' chunks
/// builds: the same `+1.0` per record into the same cell, in record
/// order.
///
/// This is the replay fast path the `replay` bench pins at ≥5× the
/// `CsvChunks` tally on identical data.
pub fn tally_from_log<R: BufRead>(reader: R, columns: &[&str]) -> Result<ContingencyTable> {
    let mut chunks = ReplayChunks::new(reader)?.with_columns(columns)?;
    let mut shard = PartialCounts::zeros(chunks.axes()?)?;
    // The byte columns of a chunk on the `u32` route, widened.
    let mut widened = vec![Vec::new(); chunks.projection.len()];
    while let Some(chunk) = chunks.log.next_chunk()? {
        let codes = chunks
            .projection
            .iter()
            .map(|&pos| chunk.codes(pos))
            .collect::<Result<Vec<_>>>()?;
        let bytes: Option<Vec<&[u8]>> = codes
            .iter()
            .map(|codes| match codes {
                Codes::Bytes(bytes) => Some(*bytes),
                Codes::Wide(_) => None,
            })
            .collect();
        if let Some(bytes) = bytes {
            shard.record_codes_trusted(&bytes)?;
            continue;
        }
        for (widened, codes) in widened.iter_mut().zip(&codes) {
            if let Codes::Bytes(_) = codes {
                widened.clear();
                codes.append_to(widened);
            }
        }
        let columns: Vec<&[u32]> = codes
            .iter()
            .zip(&widened)
            .map(|(codes, widened)| match codes {
                Codes::Bytes(_) => widened.as_slice(),
                Codes::Wide(codes) => codes,
            })
            .collect();
        shard.record_codes_trusted(&columns)?;
    }
    Ok(shard.into_table())
}

// ---------------------------------------------------------------------------
// Frame ↔ log converters and the CSV one-shot tool.
// ---------------------------------------------------------------------------

/// Writes a frame to a DFRL log, `chunk_rows` rows per chunk, returning
/// the log totals. The schema is the frame's columns verbatim, so
/// [`read_frame_log`] reconstructs an equal frame.
pub fn write_frame_log<W: Write>(frame: &DataFrame, chunk_rows: usize, out: W) -> Result<LogStats> {
    if chunk_rows == 0 {
        return Err(DataError::Invalid("chunk_rows must be positive".into()));
    }
    let schema = LogSchema::of_frame(frame)?;
    let mut writer = ReplayWriter::new(out, schema)?;
    let n_rows = frame.n_rows();
    let mut start = 0usize;
    while start < n_rows {
        let end = (start + chunk_rows).min(n_rows);
        let mut columns = Vec::with_capacity(frame.columns().len());
        for col in frame.columns() {
            match col.data() {
                ColumnData::Categorical { codes, .. } => {
                    let slice = codes.get(start..end).ok_or_else(|| {
                        DataError::Invalid(format!(
                            "row range {start}..{end} out of bounds for column `{}`",
                            col.name()
                        ))
                    })?;
                    columns.push(ChunkColumn::Codes(slice));
                }
                ColumnData::Numeric(values) => {
                    let slice = values.get(start..end).ok_or_else(|| {
                        DataError::Invalid(format!(
                            "row range {start}..{end} out of bounds for column `{}`",
                            col.name()
                        ))
                    })?;
                    columns.push(ChunkColumn::Values(slice));
                }
            }
        }
        writer.write_chunk(&columns)?;
        start = end;
    }
    let (_, stats) = writer.finish()?;
    Ok(stats)
}

/// Reads a complete DFRL log back into a [`DataFrame`] (the inverse of
/// [`write_frame_log`]): categorical codes and vocabularies land exactly
/// as written, numeric cells bit-for-bit.
pub fn read_frame_log<R: BufRead>(reader: R) -> Result<DataFrame> {
    /// One column of the log, read back whole.
    enum RawColumn {
        Codes(Vec<u32>),
        Values(Vec<f64>),
    }
    let mut log = LogReader::new(reader)?;
    let mut accumulators: Vec<RawColumn> = log
        .schema
        .columns
        .iter()
        .map(|c| match c {
            LogColumn::Categorical { .. } => RawColumn::Codes(Vec::new()),
            LogColumn::Numeric { .. } => RawColumn::Values(Vec::new()),
        })
        .collect();
    while let Some(chunk) = log.next_chunk()? {
        for (acc, cells) in accumulators.iter_mut().zip(chunk.columns) {
            match (acc, cells) {
                (RawColumn::Codes(acc), Cells::Codes(codes)) => codes.append_to(acc),
                (RawColumn::Values(acc), Cells::Values(bytes)) => {
                    for cell in bytes.chunks_exact(8) {
                        let bits = cell.try_into().map_err(|_| {
                            DataError::Invalid("a numeric cell is not 8 bytes".into())
                        })?;
                        acc.push(f64::from_le_bytes(bits));
                    }
                }
                _ => {
                    return Err(DataError::Invalid(
                        "decoded chunk column kind diverged from the schema".into(),
                    ))
                }
            }
        }
    }
    let mut columns = Vec::with_capacity(accumulators.len());
    for (spec, acc) in log.schema.columns.iter().zip(accumulators) {
        columns.push(match (spec, acc) {
            (LogColumn::Categorical { name, vocab }, RawColumn::Codes(codes)) => {
                Column::categorical_from_codes(name.clone(), codes, vocab.clone())?
            }
            (LogColumn::Numeric { name }, RawColumn::Values(values)) => {
                Column::numeric(name.clone(), values)
            }
            _ => {
                return Err(DataError::Invalid(
                    "accumulated column kind diverged from the schema".into(),
                ))
            }
        });
    }
    DataFrame::new(columns)
}

/// One-shot CSV → DFRL conversion: streams records through the CSV
/// reader, interns every field per column (first-occurrence order, via
/// the same [`Interner`] as [`Column::categorical`]), and writes the log.
/// Every record must have exactly `names.len()` fields.
pub fn csv_to_log<R: BufRead, W: Write>(
    reader: R,
    opts: &CsvOptions,
    names: &[&str],
    chunk_rows: usize,
    out: W,
) -> Result<LogStats> {
    if names.is_empty() {
        return Err(DataError::Invalid("need at least one column name".into()));
    }
    if chunk_rows == 0 {
        return Err(DataError::Invalid("chunk_rows must be positive".into()));
    }
    let mut interners: Vec<Interner> = names.iter().map(|_| Interner::new()).collect();
    let mut code_columns: Vec<Vec<u32>> = names.iter().map(|_| Vec::new()).collect();
    let mut chunks = crate::chunks::CsvChunks::new(reader, opts.clone(), chunk_rows)?;
    let mut rows = 0u64;
    for chunk in &mut chunks {
        for row in chunk?.rows() {
            if row.len() != names.len() {
                return Err(DataError::Invalid(format!(
                    "record {} has {} fields; expected {}",
                    rows + 1,
                    row.len(),
                    names.len()
                )));
            }
            for ((field, interner), codes) in row
                .iter()
                .zip(interners.iter_mut())
                .zip(code_columns.iter_mut())
            {
                codes.push(interner.intern(field));
            }
            rows += 1;
        }
    }
    let schema = LogSchema::new(
        names
            .iter()
            .zip(interners)
            .map(|(name, interner)| LogColumn::Categorical {
                name: (*name).to_string(),
                vocab: interner.into_vocab(),
            })
            .collect(),
    )?;
    let mut writer = ReplayWriter::new(out, schema)?;
    let n_rows = usize::try_from(rows)
        .map_err(|_| DataError::Invalid("row count does not fit usize".into()))?;
    let mut start = 0usize;
    while start < n_rows {
        let end = (start + chunk_rows).min(n_rows);
        let mut columns = Vec::with_capacity(code_columns.len());
        for codes in &code_columns {
            let slice = codes.get(start..end).ok_or_else(|| {
                DataError::Invalid(format!("row range {start}..{end} out of bounds"))
            })?;
            columns.push(ChunkColumn::Codes(slice));
        }
        writer.write_chunk(&columns)?;
        start = end;
    }
    let (_, stats) = writer.finish()?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::read_str;
    use df_prob::rng::Pcg32;

    fn sample_frame() -> DataFrame {
        DataFrame::new(vec![
            Column::categorical("y", &["no", "yes", "yes", "no", "yes"]),
            Column::categorical("g", &["a", "a", "b", "b", "a"]),
            Column::numeric("score", vec![0.25, -1.5, f64::NAN, 3.75, 0.0]),
        ])
        .unwrap()
    }

    fn sample_log() -> Vec<u8> {
        let mut bytes = Vec::new();
        write_frame_log(&sample_frame(), 2, &mut bytes).unwrap();
        bytes
    }

    #[test]
    fn frame_log_frame_roundtrip_is_exact() {
        let frame = sample_frame();
        for chunk_rows in [1, 2, 3, 5, 100] {
            let mut bytes = Vec::new();
            let stats = write_frame_log(&frame, chunk_rows, &mut bytes).unwrap();
            assert_eq!(stats.rows, 5);
            assert_eq!(stats.bytes, bytes.len() as u64);
            let back = read_frame_log(bytes.as_slice()).unwrap();
            // Categorical columns compare exactly.
            for name in ["y", "g"] {
                assert_eq!(
                    back.column(name).unwrap().as_categorical().unwrap(),
                    frame.column(name).unwrap().as_categorical().unwrap(),
                );
            }
            // Numeric cells compare bit-for-bit (NaN included).
            let orig: Vec<u64> = frame
                .column("score")
                .unwrap()
                .as_numeric()
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let got: Vec<u64> = back
                .column("score")
                .unwrap()
                .as_numeric()
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(orig, got, "chunk_rows={chunk_rows}");
        }
    }

    #[test]
    fn empty_frame_roundtrips() {
        let frame = DataFrame::new(vec![Column::categorical::<&str>("y", &[])]).unwrap();
        let mut bytes = Vec::new();
        let stats = write_frame_log(&frame, 8, &mut bytes).unwrap();
        assert_eq!(stats.rows, 0);
        assert_eq!(stats.chunks, 0);
        let back = read_frame_log(bytes.as_slice()).unwrap();
        assert_eq!(back.n_rows(), 0);
    }

    #[test]
    fn tally_from_log_matches_batch_contingency() {
        let frame = sample_frame();
        let bytes = sample_log();
        let table = tally_from_log(bytes.as_slice(), &["y", "g"]).unwrap();
        let batch = frame.contingency(&["y", "g"]).unwrap();
        assert_eq!(table, batch);
        // Projection order is respected.
        let swapped = tally_from_log(bytes.as_slice(), &["g", "y"]).unwrap();
        let batch_swapped = frame.contingency(&["g", "y"]).unwrap();
        assert_eq!(swapped, batch_swapped);
    }

    #[test]
    fn replay_chunks_tally_through_the_monoid() {
        let bytes = sample_log();
        let chunks = ReplayChunks::new(bytes.as_slice())
            .unwrap()
            .with_columns(&["y", "g"])
            .unwrap();
        let axes = chunks.axes().unwrap();
        let mut shard = PartialCounts::zeros(axes).unwrap();
        for chunk in chunks {
            chunk.unwrap().tally_into(&mut shard).unwrap();
        }
        let batch = sample_frame().contingency(&["y", "g"]).unwrap();
        assert_eq!(shard.into_table(), batch);
    }

    #[test]
    fn replay_chunk_tally_rejects_mismatched_shard() {
        let bytes = sample_log();
        let mut chunks = ReplayChunks::new(bytes.as_slice())
            .unwrap()
            .with_columns(&["y", "g"])
            .unwrap();
        let chunk = chunks.next().unwrap().unwrap();
        let mut wrong_ndim =
            PartialCounts::zeros(vec![Axis::from_strs("y", &["no", "yes"]).unwrap()]).unwrap();
        assert!(chunk.tally_into(&mut wrong_ndim).is_err());
        let mut wrong_labels = PartialCounts::zeros(vec![
            Axis::from_strs("y", &["yes", "no"]).unwrap(),
            Axis::from_strs("g", &["a", "b"]).unwrap(),
        ])
        .unwrap();
        assert!(chunk.tally_into(&mut wrong_labels).is_err());
    }

    #[test]
    fn chunks_built_from_axes_are_range_checked_and_tally_exactly() {
        let axes = vec![
            Axis::from_strs("y", &["no", "yes"]).unwrap(),
            Axis::from_strs("g", &["a", "b", "c"]).unwrap(),
        ];
        let schema = Arc::new(CodeSchema::from_axes(&axes));
        assert_eq!(schema.axes().unwrap(), axes);

        let chunk =
            CodeChunk::new(Arc::clone(&schema), vec![vec![1, 0, 1], vec![2, 2, 0]]).unwrap();
        assert_eq!(chunk.n_rows(), 3);
        let mut shard = PartialCounts::zeros(axes.clone()).unwrap();
        chunk.tally_into(&mut shard).unwrap();
        let table = shard.into_table();
        assert_eq!(table.get(&[1, 2]), 1.0);
        assert_eq!(table.get(&[0, 2]), 1.0);
        assert_eq!(table.get(&[1, 0]), 1.0);
        assert_eq!(table.total(), 3.0);

        // Wrong column count, ragged columns, out-of-range codes.
        assert!(CodeChunk::new(Arc::clone(&schema), vec![vec![0]]).is_err());
        assert!(CodeChunk::new(Arc::clone(&schema), vec![vec![0, 1], vec![0]]).is_err());
        assert!(CodeChunk::new(Arc::clone(&schema), vec![vec![2], vec![0]]).is_err());
        assert!(CodeChunk::new(Arc::clone(&schema), vec![vec![0], vec![3]]).is_err());
        assert!(CodeChunk::new(schema, vec![vec![0], vec![u32::MAX]]).is_err());
    }

    #[test]
    fn projection_validates() {
        let bytes = sample_log();
        assert!(matches!(
            ReplayChunks::new(bytes.as_slice())
                .unwrap()
                .with_columns(&["nope"]),
            Err(DataError::UnknownColumn(_))
        ));
        assert!(matches!(
            ReplayChunks::new(bytes.as_slice())
                .unwrap()
                .with_columns(&["score"]),
            Err(DataError::WrongColumnType { .. })
        ));
        assert!(ReplayChunks::new(bytes.as_slice())
            .unwrap()
            .with_columns(&[])
            .is_err());
        // A log with only numeric columns cannot be tallied.
        let frame = DataFrame::new(vec![Column::numeric("x", vec![1.0, 2.0])]).unwrap();
        let mut bytes = Vec::new();
        write_frame_log(&frame, 8, &mut bytes).unwrap();
        assert!(ReplayChunks::new(bytes.as_slice()).is_err());
    }

    #[test]
    fn projection_rejects_a_repeated_column() {
        let bytes = sample_log();
        match ReplayChunks::new(bytes.as_slice())
            .unwrap()
            .with_columns(&["y", "g", "y"])
        {
            Err(DataError::Invalid(message)) => assert!(message.contains("`y`"), "{message}"),
            other => panic!("expected a typed projection error, got {other:?}"),
        }
        assert!(matches!(
            tally_from_log(bytes.as_slice(), &["g", "g"]),
            Err(DataError::Invalid(_))
        ));
    }

    /// A reader whose every fourth `read` call is interrupted.
    struct Interrupting<'a> {
        bytes: &'a [u8],
        calls: usize,
    }

    impl std::io::Read for Interrupting<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(4) {
                return Err(ErrorKind::Interrupted.into());
            }
            self.bytes.read(buf)
        }
    }

    #[test]
    fn interrupted_reads_are_retried() {
        use std::io::{BufReader, Read};
        let bytes = sample_log();
        let plain = tally_from_log(bytes.as_slice(), &["y", "g"]).unwrap();
        // Each phase moves the interruptions to other reads, the final
        // end-of-log check's among them.
        for phase in 0..4 {
            let interrupting = || {
                BufReader::with_capacity(
                    1,
                    Interrupting {
                        bytes: &bytes,
                        calls: phase,
                    },
                )
            };
            let mut copy = Vec::new();
            interrupting().read_to_end(&mut copy).unwrap();
            assert_eq!(copy, bytes);
            assert_eq!(tally_from_log(interrupting(), &["y", "g"]).unwrap(), plain);
            let frame = read_frame_log(interrupting()).unwrap();
            assert_eq!(frame.contingency(&["y", "g"]).unwrap(), plain);
        }
    }

    #[test]
    fn csv_to_log_matches_csv_tally() {
        let csv = "no,a\nyes,a\nyes,b\nno,b\nyes,a\n";
        let mut bytes = Vec::new();
        let stats = csv_to_log(
            csv.as_bytes(),
            &CsvOptions::default(),
            &["y", "g"],
            2,
            &mut bytes,
        )
        .unwrap();
        assert_eq!(stats.rows, 5);
        assert_eq!(stats.chunks, 3);
        let table = tally_from_log(bytes.as_slice(), &["y", "g"]).unwrap();
        let frame = DataFrame::new(vec![
            Column::categorical("y", &["no", "yes", "yes", "no", "yes"]),
            Column::categorical("g", &["a", "a", "b", "b", "a"]),
        ])
        .unwrap();
        assert_eq!(table, frame.contingency(&["y", "g"]).unwrap());
        // Vocabularies are in first-occurrence order, matching the
        // frame interner.
        let chunks = ReplayChunks::new(bytes.as_slice()).unwrap();
        let schema = chunks.log_schema();
        match schema.columns().first().unwrap() {
            LogColumn::Categorical { vocab, .. } => {
                assert_eq!(vocab, &["no".to_string(), "yes".to_string()]);
            }
            other => panic!("unexpected column {other:?}"),
        }
        // Arity mismatch in the CSV is a typed error.
        let bad = "a,b\nc\n";
        assert!(csv_to_log(
            bad.as_bytes(),
            &CsvOptions::default(),
            &["x", "y"],
            4,
            Vec::new()
        )
        .is_err());
    }

    #[test]
    fn csv_to_log_handles_quoted_multiline_fields() {
        // The fixed CSV reader feeds the converter: embedded newlines and
        // CRLF terminators survive the round trip into interned labels.
        let records = vec![
            vec!["multi\nline".to_string(), "x".to_string()],
            vec!["plain".to_string(), "x".to_string()],
        ];
        let mut csv = Vec::new();
        crate::csv::write_records(&mut csv, &records, ',').unwrap();
        let opts = CsvOptions {
            trim: false,
            skip_empty_lines: false,
            ..CsvOptions::default()
        };
        // Sanity: the batch reader agrees before converting.
        assert_eq!(
            read_str(std::str::from_utf8(&csv).unwrap(), &opts).unwrap(),
            records
        );
        let mut bytes = Vec::new();
        csv_to_log(csv.as_slice(), &opts, &["a", "b"], 8, &mut bytes).unwrap();
        let back = read_frame_log(bytes.as_slice()).unwrap();
        assert_eq!(back.column("a").unwrap().value_str(0), "multi\nline");
    }

    #[test]
    fn writer_validates_chunks() {
        let schema = LogSchema::new(vec![
            LogColumn::Categorical {
                name: "y".into(),
                vocab: vec!["no".into(), "yes".into()],
            },
            LogColumn::Numeric { name: "s".into() },
        ])
        .unwrap();
        let mut w = ReplayWriter::new(Vec::new(), schema.clone()).unwrap();
        // Wrong column count.
        assert!(w.write_chunk(&[ChunkColumn::Codes(&[0])]).is_err());
        // Zero rows.
        assert!(w
            .write_chunk(&[ChunkColumn::Codes(&[]), ChunkColumn::Values(&[])])
            .is_err());
        // Length mismatch.
        assert!(w
            .write_chunk(&[ChunkColumn::Codes(&[0, 1]), ChunkColumn::Values(&[1.0])])
            .is_err());
        // Kind mismatch, both directions.
        assert!(w
            .write_chunk(&[ChunkColumn::Values(&[0.0]), ChunkColumn::Values(&[1.0])])
            .is_err());
        assert!(w
            .write_chunk(&[ChunkColumn::Codes(&[0]), ChunkColumn::Codes(&[0])])
            .is_err());
        // Out-of-range code.
        assert!(w
            .write_chunk(&[ChunkColumn::Codes(&[2]), ChunkColumn::Values(&[1.0])])
            .is_err());
        // A valid chunk still goes through after the failures.
        w.write_chunk(&[
            ChunkColumn::Codes(&[0, 1]),
            ChunkColumn::Values(&[1.0, 2.0]),
        ])
        .unwrap();
        let (bytes, stats) = w.finish().unwrap();
        assert_eq!(stats.rows, 2);
        assert_eq!(stats.bytes, bytes.len() as u64);
        let back = read_frame_log(bytes.as_slice()).unwrap();
        assert_eq!(back.n_rows(), 2);
    }

    #[test]
    fn schema_validation_rejects_degenerate_inputs() {
        assert!(LogSchema::new(vec![]).is_err());
        assert!(LogSchema::new(vec![LogColumn::Numeric { name: "".into() }]).is_err());
        assert!(LogSchema::new(vec![
            LogColumn::Numeric { name: "x".into() },
            LogColumn::Numeric { name: "x".into() },
        ])
        .is_err());
        assert!(LogSchema::new(vec![LogColumn::Categorical {
            name: "y".into(),
            vocab: vec!["a".into(), "a".into()],
        }])
        .is_err());
    }

    #[test]
    fn truncation_at_every_prefix_is_a_typed_error() {
        let bytes = sample_log();
        for cut in 0..bytes.len() {
            let prefix = &bytes[..cut];
            // Never panics; always a typed error (a prefix can never be a
            // valid log because the end marker + EOF is required).
            let frame_err = read_frame_log(prefix).unwrap_err();
            match frame_err {
                DataError::Replay { .. } | DataError::Io(_) => {}
                other => panic!("unexpected error at cut {cut}: {other:?}"),
            }
            match ReplayChunks::new(prefix) {
                Ok(chunks) => {
                    let results: Vec<_> = chunks.collect();
                    assert!(
                        results.iter().any(|r| r.is_err()),
                        "prefix of {cut} bytes decoded cleanly"
                    );
                }
                Err(DataError::Replay { .. }) | Err(DataError::Io(_)) => {}
                Err(other) => panic!("unexpected error at cut {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flips_never_panic_and_usually_error() {
        let bytes = sample_log();
        let mut rng = Pcg32::new(42);
        for _ in 0..500 {
            let mut corrupt = bytes.clone();
            let pos = rng.next_below(corrupt.len() as u32) as usize;
            let bit = 1u8 << rng.next_below(8);
            corrupt[pos] ^= bit;
            // Either a typed error or a structurally different (but
            // valid) log — never a panic, never trusted garbage codes.
            if let Ok(frame) = read_frame_log(corrupt.as_slice()) {
                for col in frame.columns() {
                    if let ColumnData::Categorical { codes, vocab } = col.data() {
                        assert!(codes.iter().all(|&c| (c as usize) < vocab.len()));
                    }
                }
            }
        }
    }

    #[test]
    fn structural_corruption_yields_replay_errors() {
        let bytes = sample_log();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            read_frame_log(bad.as_slice()),
            Err(DataError::Replay { .. })
        ));
        // Unsupported version.
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(matches!(
            read_frame_log(bad.as_slice()),
            Err(DataError::Replay { .. })
        ));
        // Trailing garbage after the end marker.
        let mut bad = bytes.clone();
        bad.push(0x17);
        let e = read_frame_log(bad.as_slice()).unwrap_err();
        assert!(e.to_string().contains("trailing"), "{e}");
        // Missing end marker (clean cut before the final 0 byte).
        let cut = &bytes[..bytes.len() - 1];
        assert!(matches!(read_frame_log(cut), Err(DataError::Replay { .. })));
        // Oversized frame claim.
        let mut forged = bytes[..5].to_vec();
        let mut huge = Vec::new();
        put_varint(&mut huge, (MAX_FRAME_BYTES as u64) + 1);
        forged.extend_from_slice(&huge);
        let e = ReplayChunks::new(forged.as_slice()).unwrap_err();
        assert!(e.to_string().contains("cap"), "{e}");
        // A frame length past u64: refused at its tenth byte.
        let mut forged = bytes[..5].to_vec();
        forged.extend_from_slice(&[0xff; 11]);
        let e = ReplayChunks::new(forged.as_slice())
            .unwrap_err()
            .to_string();
        assert!(e.contains("at byte 15: varint overflows u64"), "{e}");
        // Errors carry byte offsets.
        let e = read_frame_log(&bytes[..3]).unwrap_err();
        assert!(e.to_string().contains("byte"), "{e}");
    }

    #[test]
    fn out_of_range_code_is_rejected_at_decode() {
        // Hand-build a log whose chunk carries code 2 against a 2-label
        // vocabulary: structurally well-formed, semantically corrupt.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        let mut header = Vec::new();
        put_varint(&mut header, 1);
        put_str(&mut header, "y");
        header.push(KIND_CATEGORICAL);
        put_varint(&mut header, 2);
        put_str(&mut header, "no");
        put_str(&mut header, "yes");
        put_varint(&mut bytes, header.len() as u64);
        bytes.extend_from_slice(&header);
        let mut chunk = Vec::new();
        put_varint(&mut chunk, 1); // one row
        put_varint(&mut chunk, 2); // code 2: out of range
        put_varint(&mut bytes, chunk.len() as u64);
        bytes.extend_from_slice(&chunk);
        put_varint(&mut bytes, 0);
        let e = read_frame_log(bytes.as_slice()).unwrap_err();
        assert!(e.to_string().contains("out of range"), "{e}");
        // The tally path refuses it identically.
        assert!(tally_from_log(bytes.as_slice(), &["y"]).is_err());
    }

    #[test]
    fn hostile_counts_cannot_force_giant_allocations() {
        // A header frame claiming 2^40 columns inside a 16-byte body must
        // die on the count-vs-remaining check, not allocate.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        let mut header = Vec::new();
        put_varint(&mut header, 1u64 << 40);
        header.extend_from_slice(&[0u8; 8]);
        put_varint(&mut bytes, header.len() as u64);
        bytes.extend_from_slice(&header);
        let e = ReplayChunks::new(bytes.as_slice()).unwrap_err();
        assert!(e.to_string().contains("elements"), "{e}");
    }
}
