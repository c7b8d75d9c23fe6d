//! Chunked record sources for the streaming audit engine.
//!
//! The sharded counting engine in df-core consumes *chunks*: fixed-size
//! batches of records that know how to tally themselves into a
//! [`PartialCounts`] shard (the [`Tally`] trait from df-prob). This module
//! provides the two sources the experiments need:
//!
//! - [`FrameChunks`]: zero-copy batches over an in-memory [`DataFrame`].
//!   Each chunk borrows slices of the frame's interned code columns, so
//!   chunking costs nothing and tallying is pure integer indexing.
//! - [`CsvChunks`]: a streaming CSV reader that parses fixed-size row
//!   batches from any [`BufRead`] source **without materializing the full
//!   frame** — the path for datasets larger than memory.
//!
//! Both sources yield chunks whose tally order is irrelevant: counts form a
//! commutative monoid (see `df_prob::partial`), so any interleaving across
//! worker threads produces the identical table.

use crate::csv::{parse_record, CsvOptions, Records};
use crate::error::{DataError, Result};
use crate::frame::DataFrame;
use df_prob::contingency::Axis;
use df_prob::partial::{PartialCounts, Tally};
use df_prob::ProbError;
use std::collections::HashMap;
use std::io::BufRead;

// ---------------------------------------------------------------------------
// In-memory frames, chunked by row range.
// ---------------------------------------------------------------------------

/// One zero-copy batch of rows from a [`DataFrame`]: per-column interned
/// codes for the selected columns, all slices covering the same row range,
/// plus the column names and vocabularies the codes are defined against.
#[derive(Debug, Clone)]
pub struct FrameChunk<'a> {
    columns: Vec<&'a [u32]>,
    names: Vec<&'a str>,
    vocabs: Vec<&'a [String]>,
}

impl FrameChunk<'_> {
    /// Number of rows in this chunk.
    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }
}

impl Tally for FrameChunk<'_> {
    fn tally_into(&self, shard: &mut PartialCounts) -> df_prob::Result<()> {
        let columns = self.names.iter().zip(&self.vocabs);
        check_shard_axes(
            shard,
            columns.map(|(&name, &vocab)| (name, vocab)),
            "FrameChunk::tally_into",
            "column",
            "FrameChunks::axes",
        )?;
        // Columnar bulk tally — vectorized flat-index accumulation. The
        // range scan is skipped: interned column codes index their own
        // vocabulary by construction, and the schema check above pinned
        // each shard axis to exactly that vocabulary.
        shard.record_codes_trusted(&self.columns)
    }
}

/// The schema check of a coded chunk's tally (`context` names it): one
/// shard axis per code column, and each axis *is* its column — same name,
/// same labels in the same (interning) order — or in-range codes would
/// scatter into wrong cells while passing a mere arity check. A mismatch
/// names the chunk's `column` kind and the `axes_call` that builds
/// matching axes.
pub(crate) fn check_shard_axes<'c>(
    shard: &PartialCounts,
    columns: impl ExactSizeIterator<Item = (&'c str, &'c [String])>,
    context: &'static str,
    column: &str,
    axes_call: &str,
) -> df_prob::Result<()> {
    if shard.ndim() != columns.len() {
        return Err(ProbError::ShapeMismatch {
            context,
            expected: columns.len(),
            actual: shard.ndim(),
        });
    }
    for (axis, (name, vocab)) in shard.axes().iter().zip(columns) {
        if axis.name() != name || axis.labels() != vocab {
            return Err(ProbError::InvalidParameter {
                name: "shard",
                reason: format!(
                    "axis `{}` does not match {column} `{name}`'s vocabulary; build the \
                     audit axes with {axes_call}",
                    axis.name(),
                ),
            });
        }
    }
    Ok(())
}

/// Iterator of [`FrameChunk`]s over the selected categorical columns of a
/// frame, in fixed-size row batches (the last batch may be shorter).
///
/// The matching axes for a streaming audit come from
/// [`FrameChunks::axes`]; codes index those axes directly because both are
/// built from the same column vocabularies.
#[derive(Debug, Clone)]
pub struct FrameChunks<'a> {
    names: Vec<&'a str>,
    columns: Vec<(&'a [u32], &'a [String])>,
    chunk_rows: usize,
    n_rows: usize,
    pos: usize,
}

impl<'a> FrameChunks<'a> {
    /// Creates a chunked view of the named categorical columns. Errors on
    /// an unknown or numeric column, an empty selection, or a zero chunk
    /// size.
    pub fn new(frame: &'a DataFrame, columns: &[&str], chunk_rows: usize) -> Result<Self> {
        if columns.is_empty() {
            return Err(DataError::Invalid("need at least one column".into()));
        }
        if chunk_rows == 0 {
            return Err(DataError::Invalid("chunk_rows must be positive".into()));
        }
        let mut names = Vec::with_capacity(columns.len());
        let mut cols: Vec<(&[u32], &[String])> = Vec::with_capacity(columns.len());
        for n in columns {
            let column = frame.column(n)?;
            names.push(column.name());
            cols.push(column.as_categorical()?);
        }
        Ok(Self {
            names,
            columns: cols,
            chunk_rows,
            n_rows: frame.n_rows(),
            pos: 0,
        })
    }

    /// The axes matching this source's columns (one per column, labels in
    /// interning order) — pass these to the streaming audit entry point.
    pub fn axes(&self) -> Result<Vec<Axis>> {
        self.names
            .iter()
            .zip(&self.columns)
            .map(|(name, (_, vocab))| {
                Axis::new(name.to_string(), vocab.to_vec()).map_err(DataError::from)
            })
            .collect()
    }

    /// Number of chunks this iterator will yield.
    pub fn n_chunks(&self) -> usize {
        self.n_rows.div_ceil(self.chunk_rows)
    }
}

impl<'a> Iterator for FrameChunks<'a> {
    type Item = FrameChunk<'a>;

    fn next(&mut self) -> Option<FrameChunk<'a>> {
        if self.pos >= self.n_rows {
            return None;
        }
        let end = (self.pos + self.chunk_rows).min(self.n_rows);
        let chunk = FrameChunk {
            columns: self
                .columns
                .iter()
                .map(|(codes, _)| &codes[self.pos..end])
                .collect(),
            names: self.names.clone(),
            vocabs: self.columns.iter().map(|(_, vocab)| *vocab).collect(),
        };
        self.pos = end;
        Some(chunk)
    }
}

// ---------------------------------------------------------------------------
// Streaming CSV, chunked by record batch.
// ---------------------------------------------------------------------------

/// One batch of parsed CSV records: rows of label strings, already
/// projected onto the audited columns.
#[derive(Debug, Clone)]
pub struct LabelChunk {
    rows: Vec<Vec<String>>,
}

impl LabelChunk {
    /// Builds a chunk from rows of label strings (used by tests and custom
    /// sources; [`CsvChunks`] produces these internally).
    pub fn new(rows: Vec<Vec<String>>) -> Self {
        Self { rows }
    }

    /// Number of rows in this chunk.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// The parsed rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }
}

impl Tally for LabelChunk {
    /// Resolves every row to codes through one label → code map per axis,
    /// then bulk-tallies the code columns. A chunk with a row of the wrong
    /// width or an unknown label tallies none of its rows.
    fn tally_into(&self, shard: &mut PartialCounts) -> df_prob::Result<()> {
        let axes = shard.axes();
        let codes: Vec<HashMap<&str, u32>> = axes
            .iter()
            .map(|axis| {
                (0..)
                    .zip(axis.labels())
                    .map(|(code, l)| (l.as_str(), code))
                    .collect()
            })
            .collect();
        let mut columns: Vec<Vec<u32>> = (0..axes.len())
            .map(|_| Vec::with_capacity(self.rows.len()))
            .collect();
        for row in &self.rows {
            if row.len() != axes.len() {
                return Err(ProbError::ShapeMismatch {
                    context: "increment_by_labels",
                    expected: axes.len(),
                    actual: row.len(),
                });
            }
            for (((column, codes), axis), label) in
                columns.iter_mut().zip(&codes).zip(axes).zip(row)
            {
                let code = codes
                    .get(label.as_str())
                    .ok_or_else(|| ProbError::UnknownLabel {
                        axis: axis.name().to_string(),
                        label: label.clone(),
                    })?;
                column.push(*code);
            }
        }
        let columns: Vec<&[u32]> = columns.iter().map(Vec::as_slice).collect();
        shard.record_codes_trusted(&columns)
    }
}

/// A streaming CSV record source: reads fixed-size batches of records from
/// a [`BufRead`] without ever holding the whole file (or frame) in memory.
///
/// Field projection selects the audited columns by position; rows shorter
/// than a projected index are an error. Header rows are not interpreted —
/// consume one with [`CsvChunks::skip_line`] if the source has one.
pub struct CsvChunks<R: BufRead> {
    records: Records<R>,
    opts: CsvOptions,
    chunk_rows: usize,
    projection: Option<Vec<usize>>,
    done: bool,
}

impl<R: BufRead> CsvChunks<R> {
    /// Creates a chunked reader yielding `chunk_rows` records per batch.
    pub fn new(reader: R, opts: CsvOptions, chunk_rows: usize) -> Result<Self> {
        if chunk_rows == 0 {
            return Err(DataError::Invalid("chunk_rows must be positive".into()));
        }
        Ok(Self {
            records: Records::new(reader),
            opts,
            chunk_rows,
            projection: None,
            done: false,
        })
    }

    /// Projects every record onto the given field positions, in order
    /// (e.g. outcome column first, then the protected attributes).
    pub fn with_projection(mut self, fields: Vec<usize>) -> Self {
        self.projection = Some(fields);
        self
    }

    /// Consumes and discards one raw line (e.g. a header).
    pub fn skip_line(&mut self) -> Result<()> {
        self.records.skip_line()
    }

    fn next_record(&mut self) -> Result<Option<Vec<String>>> {
        let Some((line, record)) = self.records.next_record(&self.opts)? else {
            return Ok(None);
        };
        let fields = parse_record(record, &self.opts, line)?;
        let Some(proj) = &self.projection else {
            return Ok(Some(fields));
        };
        let mut out = Vec::with_capacity(proj.len());
        for &i in proj {
            match fields.get(i) {
                Some(f) => out.push(f.clone()),
                None => {
                    return Err(DataError::Csv {
                        line: self.records.line_no(),
                        message: format!(
                            "projected field {i} out of range ({} fields)",
                            fields.len()
                        ),
                    })
                }
            }
        }
        Ok(Some(out))
    }
}

impl<R: BufRead> Iterator for CsvChunks<R> {
    type Item = Result<LabelChunk>;

    fn next(&mut self) -> Option<Result<LabelChunk>> {
        if self.done {
            return None;
        }
        let mut rows = Vec::with_capacity(self.chunk_rows);
        while rows.len() < self.chunk_rows {
            match self.next_record() {
                Ok(Some(record)) => rows.push(record),
                Ok(None) => {
                    self.done = true;
                    break;
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
        if rows.is_empty() {
            None
        } else {
            Some(Ok(LabelChunk { rows }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Column;
    use df_prob::contingency::ContingencyTable;

    fn sample_frame() -> DataFrame {
        DataFrame::new(vec![
            Column::categorical("y", &["no", "yes", "yes", "no", "yes"]),
            Column::categorical("g", &["a", "a", "b", "b", "a"]),
        ])
        .unwrap()
    }

    fn tally_all<C: Tally>(
        chunks: impl Iterator<Item = C>,
        axes: Vec<Axis>,
    ) -> df_prob::Result<ContingencyTable> {
        let mut shard = PartialCounts::zeros(axes)?;
        for c in chunks {
            c.tally_into(&mut shard)?;
        }
        Ok(shard.into_table())
    }

    #[test]
    fn frame_chunks_cover_every_row_once() {
        let frame = sample_frame();
        for chunk_rows in [1, 2, 3, 5, 100] {
            let chunks = FrameChunks::new(&frame, &["y", "g"], chunk_rows).unwrap();
            let axes = chunks.axes().unwrap();
            let streamed = tally_all(chunks, axes).unwrap();
            let batch = frame.contingency(&["y", "g"]).unwrap();
            assert_eq!(streamed, batch, "chunk_rows={chunk_rows}");
        }
    }

    #[test]
    fn frame_chunks_counts_chunks() {
        let frame = sample_frame();
        let chunks = FrameChunks::new(&frame, &["y"], 2).unwrap();
        assert_eq!(chunks.n_chunks(), 3);
        assert_eq!(chunks.map(|c| c.n_rows()).collect::<Vec<_>>(), [2, 2, 1]);
    }

    #[test]
    fn frame_chunks_validates() {
        let frame = sample_frame();
        assert!(FrameChunks::new(&frame, &[], 4).is_err());
        assert!(FrameChunks::new(&frame, &["y"], 0).is_err());
        assert!(FrameChunks::new(&frame, &["nope"], 4).is_err());
        let numeric = DataFrame::new(vec![Column::numeric("x", vec![1.0])]).unwrap();
        assert!(FrameChunks::new(&numeric, &["x"], 4).is_err());
    }

    #[test]
    fn frame_chunk_tally_rejects_mismatched_shard() {
        let frame = sample_frame();
        let mut chunks = FrameChunks::new(&frame, &["y", "g"], 10).unwrap();
        let chunk = chunks.next().unwrap();
        let mut wrong_ndim =
            PartialCounts::zeros(vec![Axis::from_strs("y", &["no", "yes"]).unwrap()]).unwrap();
        assert!(chunk.tally_into(&mut wrong_ndim).is_err());
        let mut wrong_arity = PartialCounts::zeros(vec![
            Axis::from_strs("y", &["no", "yes", "maybe"]).unwrap(),
            Axis::from_strs("g", &["a", "b"]).unwrap(),
        ])
        .unwrap();
        assert!(chunk.tally_into(&mut wrong_arity).is_err());
        // Same arities but different label order: codes would land in
        // transposed cells, so the schema check must refuse.
        let mut wrong_labels = PartialCounts::zeros(vec![
            Axis::from_strs("y", &["yes", "no"]).unwrap(),
            Axis::from_strs("g", &["a", "b"]).unwrap(),
        ])
        .unwrap();
        assert!(chunk.tally_into(&mut wrong_labels).is_err());
        // Same shape but swapped axis names (transposed schema): refused.
        let mut swapped = PartialCounts::zeros(vec![
            Axis::from_strs("g", &["no", "yes"]).unwrap(),
            Axis::from_strs("y", &["a", "b"]).unwrap(),
        ])
        .unwrap();
        assert!(chunk.tally_into(&mut swapped).is_err());
    }

    #[test]
    fn csv_chunks_stream_matches_batch_tally() {
        let csv = "no,a\nyes,a\nyes,b\nno,b\nyes,a\n";
        let axes = vec![
            Axis::from_strs("y", &["no", "yes"]).unwrap(),
            Axis::from_strs("g", &["a", "b"]).unwrap(),
        ];
        let chunks = CsvChunks::new(csv.as_bytes(), CsvOptions::default(), 2).unwrap();
        let streamed = tally_all(chunks.map(|c| c.unwrap()), axes.clone()).unwrap();
        let batch = sample_frame().contingency(&["y", "g"]).unwrap();
        // Same counts; axes differ only in vocabulary source, not content.
        assert_eq!(streamed.data(), batch.data());
        assert_eq!(streamed.total(), 5.0);
        let _ = axes;
    }

    #[test]
    fn csv_chunks_projection_and_header_skip() {
        let csv = "id,g,y\n1,a,no\n2,b,yes\n3,a,yes\n";
        let mut chunks = CsvChunks::new(csv.as_bytes(), CsvOptions::default(), 10)
            .unwrap()
            .with_projection(vec![2, 1]);
        chunks.skip_line().unwrap();
        let chunk = chunks.next().unwrap().unwrap();
        assert_eq!(chunk.n_rows(), 3);
        assert_eq!(chunk.rows()[0], vec!["no".to_string(), "a".to_string()]);
        let mut shard = PartialCounts::zeros(vec![
            Axis::from_strs("y", &["no", "yes"]).unwrap(),
            Axis::from_strs("g", &["a", "b"]).unwrap(),
        ])
        .unwrap();
        chunk.tally_into(&mut shard).unwrap();
        assert_eq!(shard.total(), 3.0);
        assert!(chunks.next().is_none());
    }

    #[test]
    fn csv_chunks_surface_errors() {
        // Unterminated quote mid-stream.
        let csv = "no,a\n\"broken\nyes,b\n";
        let mut chunks = CsvChunks::new(csv.as_bytes(), CsvOptions::default(), 1).unwrap();
        assert!(chunks.next().unwrap().is_ok());
        assert!(chunks.next().unwrap().is_err());
        assert!(chunks.next().is_none(), "iteration stops after an error");
        // Out-of-range projection.
        let mut chunks = CsvChunks::new("a,b\n".as_bytes(), CsvOptions::default(), 1)
            .unwrap()
            .with_projection(vec![5]);
        assert!(chunks.next().unwrap().is_err());
        // Unknown label only fails at tally time, against the axes.
        let chunk = LabelChunk::new(vec![vec!["zzz".into()]]);
        let mut shard =
            PartialCounts::zeros(vec![Axis::from_strs("y", &["no", "yes"]).unwrap()]).unwrap();
        assert!(chunk.tally_into(&mut shard).is_err());
        assert!(CsvChunks::new("".as_bytes(), CsvOptions::default(), 0).is_err());
    }

    /// 20,000 CSV rows against a 70,000-label axis: one hash map per axis
    /// per chunk, not a vocabulary scan per cell.
    #[test]
    fn label_chunks_resolve_large_vocabularies_in_linear_time() {
        let vocab: Vec<String> = (0..70_000).map(|i| format!("v{i}")).collect();
        let axes = vec![
            Axis::from_strs("y", &["no", "yes"]).unwrap(),
            Axis::new("v", vocab.clone()).unwrap(),
        ];
        let rows: Vec<[usize; 2]> = (0..20_000)
            .map(|i| [i % 2, 69_999 - (i * 7_919) % 70_000])
            .collect();
        let csv: String = rows
            .iter()
            .map(|&[y, v]| format!("{},{}\n", ["no", "yes"][y], vocab[v]))
            .collect();
        let mut expected = PartialCounts::zeros(axes.clone()).unwrap();
        for idx in &rows {
            expected.record(idx);
        }
        let started = std::time::Instant::now();
        let chunks = CsvChunks::new(csv.as_bytes(), CsvOptions::default(), 4_096).unwrap();
        let streamed = tally_all(chunks.map(|c| c.unwrap()), axes).unwrap();
        assert!(started.elapsed() < std::time::Duration::from_secs(2));
        assert_eq!(streamed, expected.into_table());
    }

    #[test]
    fn crlf_batch_and_stream_parse_identically() {
        // The same CRLF bytes through the batch reader and the streaming
        // reader must yield byte-identical records, trim on or off — the
        // divergence this pins down is exactly the old `lines()`-vs-
        // `trim_end_matches` mismatch.
        let bytes = "no,a\r\nyes,b\r\n\"multi\r\nline\",c\r\nlast,d";
        for trim in [false, true] {
            let opts = CsvOptions {
                trim,
                skip_empty_lines: false,
                ..CsvOptions::default()
            };
            let batch = crate::csv::read_str(bytes, &opts).unwrap();
            let streamed: Vec<Vec<String>> = CsvChunks::new(bytes.as_bytes(), opts, 2)
                .unwrap()
                .map(|c| c.unwrap().rows().to_vec())
                .collect::<Vec<_>>()
                .concat();
            assert_eq!(streamed, batch, "trim={trim}");
            assert_eq!(batch[0], vec!["no".to_string(), "a".to_string()]);
            assert_eq!(batch[2][0], "multi\r\nline");
            assert_eq!(batch[3], vec!["last".to_string(), "d".to_string()]);
        }
    }

    #[test]
    fn csv_chunks_respect_comments_and_blank_lines() {
        let csv = "|sentinel\n\nno, a\nyes, b\n";
        let chunks = CsvChunks::new(csv.as_bytes(), CsvOptions::adult(), 10).unwrap();
        let batches: Vec<_> = chunks.map(|c| c.unwrap()).collect();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].n_rows(), 2);
        assert_eq!(
            batches[0].rows()[0],
            vec!["no".to_string(), "a".to_string()]
        );
    }
}
