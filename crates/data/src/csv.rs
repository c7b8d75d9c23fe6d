//! From-scratch CSV reading and writing.
//!
//! Handles RFC-4180 quoting plus the quirks of the UCI Adult files:
//! `", "`-separated fields (leading whitespace), `?` as a missing-value
//! marker, comment/sentinel lines starting with `|`, and trailing periods on
//! labels in `adult.test`.

use crate::error::{DataError, Result};
use std::io::{BufRead, Write};

/// Options controlling CSV parsing.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field delimiter (default `,`).
    pub delimiter: char,
    /// Trim ASCII whitespace around unquoted fields (the Adult files use
    /// `", "` separators).
    pub trim: bool,
    /// Skip empty lines entirely.
    pub skip_empty_lines: bool,
    /// Skip lines starting with this character (after trimming), e.g. the
    /// `|1x3 Cross validator` sentinel in `adult.test`.
    pub comment_char: Option<char>,
}

impl Default for CsvOptions {
    fn default() -> Self {
        Self {
            delimiter: ',',
            trim: true,
            skip_empty_lines: true,
            comment_char: None,
        }
    }
}

impl CsvOptions {
    /// The options matching the UCI Adult data files.
    pub fn adult() -> Self {
        Self {
            delimiter: ',',
            trim: true,
            skip_empty_lines: true,
            comment_char: Some('|'),
        }
    }
}

/// Parses one CSV record (no trailing newline). Returns the fields.
pub fn parse_record(line: &str, opts: &CsvOptions, line_no: usize) -> Result<Vec<String>> {
    let mut fields = Fields::new(line, opts, line_no);
    let mut out = Vec::new();
    while let Some(field) = fields.next_field()? {
        out.push(field.to_string());
    }
    Ok(out)
}

/// The fields of one CSV record (no trailing newline), read one at a
/// time and borrowed from the record wherever they need no unescaping:
/// the field grammar behind [`parse_record`], for callers that consume a
/// field without keeping it.
///
/// With `trim`, ASCII whitespace before a field and Unicode whitespace
/// after an unquoted one are dropped, but never the delimiter itself
/// (it may be `\t`). A `"` at field start opens a quoted field, in which
/// `""` is an escaped quote; only whitespace may follow its closing quote.
#[derive(Debug)]
pub struct Fields<'a> {
    rest: &'a str,
    opts: &'a CsvOptions,
    line_no: usize,
    done: bool,
    /// Unescaped text of the current quoted field, when it held `""`.
    scratch: String,
}

impl<'a> Fields<'a> {
    /// Fields of `line`; errors are reported at `line_no`.
    pub fn new(line: &'a str, opts: &'a CsvOptions, line_no: usize) -> Self {
        Self {
            rest: line,
            opts,
            line_no,
            done: false,
            scratch: String::new(),
        }
    }

    /// The next field, or `None` after the last one. A record always has
    /// at least one field (an empty line is one empty field).
    #[inline]
    pub fn next_field(&mut self) -> Result<Option<&str>> {
        if self.done {
            return Ok(None);
        }
        let delimiter = self.opts.delimiter;
        let padding = |c: char| c.is_ascii_whitespace() && c != delimiter;
        let rest = if self.opts.trim {
            self.rest.trim_start_matches(padding)
        } else {
            self.rest
        };
        let Some(quoted) = rest.strip_prefix('"') else {
            // Unquoted field: read to the delimiter or end.
            let field = match rest.find(delimiter) {
                Some(i) => {
                    self.rest = &rest[i + delimiter.len_utf8()..];
                    &rest[..i]
                }
                None => {
                    self.done = true;
                    rest
                }
            };
            return Ok(Some(if self.opts.trim {
                field.trim_end()
            } else {
                field
            }));
        };
        // Quoted field: read to the closing quote; `""` is an escape, and
        // only an escape forces a copy into `scratch`.
        let mut body = quoted;
        let mut escaped = false;
        let (field_len, after) = loop {
            let Some(q) = body.find('"') else {
                return Err(self.error("unterminated quoted field".into()));
            };
            let tail = &body[q + 1..];
            match tail.strip_prefix('"') {
                Some(next) => {
                    if !escaped {
                        self.scratch.clear();
                        escaped = true;
                    }
                    self.scratch.push_str(&body[..=q]);
                    body = next;
                }
                None => {
                    if escaped {
                        self.scratch.push_str(&body[..q]);
                    }
                    break (q, tail);
                }
            }
        };
        // Whitespace may pad the closing quote, the delimiter excepted.
        let mut after = after.trim_start_matches(padding).chars();
        match after.next() {
            None => self.done = true,
            Some(c) if c == delimiter => self.rest = after.as_str(),
            Some(c) => return Err(self.error(format!("unexpected `{c}` after closing quote"))),
        }
        Ok(Some(if escaped {
            &self.scratch
        } else {
            &quoted[..field_len]
        }))
    }

    fn error(&self, message: String) -> DataError {
        DataError::Csv {
            line: self.line_no,
            message,
        }
    }
}

/// Incremental quote state while assembling a logical record out of
/// physical lines. Mirrors [`parse_record`]'s field grammar: a quote only
/// opens a quoted field at field start (after optional whitespace when
/// trimming), and `""` inside quotes is an escape, not a close-and-reopen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QuoteScan {
    /// At the start of a field (record start or just past a delimiter).
    FieldStart,
    /// Inside an unquoted field (or past a closing quote).
    Unquoted,
    /// Inside a quoted field — newlines here are field content.
    Quoted,
    /// Just read a `"` inside a quoted field: either the closing quote or
    /// the first half of an escaped `""`.
    QuoteInQuoted,
}

/// Advances the quote state across `text` (a newly appended piece of a
/// logical record).
fn scan_quote_state(mut state: QuoteScan, text: &str, opts: &CsvOptions) -> QuoteScan {
    for c in text.chars() {
        state = match state {
            QuoteScan::FieldStart => {
                // The delimiter check comes first: a whitespace delimiter
                // (e.g. tab) is never consumed as trim padding.
                if c == opts.delimiter || (opts.trim && c.is_ascii_whitespace()) {
                    QuoteScan::FieldStart
                } else if c == '"' {
                    QuoteScan::Quoted
                } else {
                    QuoteScan::Unquoted
                }
            }
            QuoteScan::Unquoted => {
                if c == opts.delimiter {
                    QuoteScan::FieldStart
                } else {
                    QuoteScan::Unquoted
                }
            }
            QuoteScan::Quoted => {
                if c == '"' {
                    QuoteScan::QuoteInQuoted
                } else {
                    QuoteScan::Quoted
                }
            }
            QuoteScan::QuoteInQuoted => {
                if c == '"' {
                    // `""` escape: still inside the quoted field.
                    QuoteScan::Quoted
                } else if c == opts.delimiter {
                    QuoteScan::FieldStart
                } else {
                    // Field closed; whatever follows is parse_record's
                    // problem (trailing whitespace or a syntax error).
                    QuoteScan::Unquoted
                }
            }
        };
    }
    state
}

/// Reads one *logical* CSV record into `buf`: physical lines are joined
/// while an RFC-4180 quoted field is still open (the newline bytes are
/// field content and kept verbatim), and the record's own line terminator
/// (`\n` or `\r\n`) is stripped. Returns `Ok(false)` at end of input with
/// nothing read; `line_no` advances past every physical line consumed.
fn read_logical_record<R: BufRead>(
    reader: &mut R,
    buf: &mut String,
    opts: &CsvOptions,
    line_no: &mut usize,
) -> Result<bool> {
    buf.clear();
    let mut state = QuoteScan::FieldStart;
    loop {
        let start = buf.len();
        if reader.read_line(buf)? == 0 {
            // EOF. An open quoted field left content behind; hand it to
            // the field reader, which reports the unterminated quote.
            return Ok(!buf.is_empty());
        }
        *line_no += 1;
        state = scan_quote_state(state, &buf[start..], opts);
        if state != QuoteScan::Quoted {
            // Record complete: strip the terminator — one `\n`, then the
            // `\r` of a CRLF ending (content `\r`s inside quotes survive
            // because an open quote takes the `continue` branch instead).
            if buf.ends_with('\n') {
                buf.pop();
                if buf.ends_with('\r') {
                    buf.pop();
                }
            }
            return Ok(true);
        }
        // Still inside an open quote: the newline (and any `\r` before
        // it) are field content — keep them and read the next line.
    }
}

/// Pulls logical CSV records out of a [`BufRead`] through one reused
/// buffer: quoted fields may span physical lines (RFC 4180), record
/// terminators (`\n` or `\r\n`) are stripped, and blank and comment lines
/// are skipped as the options say.
///
/// The batch reader ([`read_records`]) and the streaming reader
/// (`CsvChunks`) both read through it, so batch and stream see
/// byte-identical records; pair it with [`Fields`] to consume records
/// without allocating per field.
#[derive(Debug)]
pub struct Records<R: BufRead> {
    reader: R,
    buf: String,
    line_no: usize,
}

impl<R: BufRead> Records<R> {
    /// A record reader positioned at the start of `reader`.
    pub fn new(reader: R) -> Self {
        Self {
            reader,
            buf: String::new(),
            line_no: 0,
        }
    }

    /// Physical lines consumed so far.
    pub fn line_no(&self) -> usize {
        self.line_no
    }

    /// Consumes and discards one raw line (e.g. a header).
    pub fn skip_line(&mut self) -> Result<()> {
        self.buf.clear();
        self.reader.read_line(&mut self.buf)?;
        self.line_no += 1;
        Ok(())
    }

    /// The next record the options do not skip, with the 1-based line it
    /// starts on; `None` at end of input.
    pub fn next_record(&mut self, opts: &CsvOptions) -> Result<Option<(usize, &str)>> {
        loop {
            let record_line = self.line_no + 1;
            if !read_logical_record(&mut self.reader, &mut self.buf, opts, &mut self.line_no)? {
                return Ok(None);
            }
            let trimmed = self.buf.trim();
            if opts.skip_empty_lines && trimmed.is_empty() {
                continue;
            }
            if opts.comment_char.is_some_and(|cc| trimmed.starts_with(cc)) {
                continue;
            }
            return Ok(Some((record_line, &self.buf)));
        }
    }
}

/// Reads all records from a buffered reader. Quoted fields may span lines
/// (RFC 4180), and CRLF record terminators are fully stripped — batch
/// parsing is byte-equivalent to the streaming `CsvChunks` path.
pub fn read_records<R: BufRead>(reader: R, opts: &CsvOptions) -> Result<Vec<Vec<String>>> {
    let mut records = Records::new(reader);
    let mut out = Vec::new();
    while let Some((line, record)) = records.next_record(opts)? {
        out.push(parse_record(record, opts, line)?);
    }
    Ok(out)
}

/// Parses records from an in-memory string.
pub fn read_str(content: &str, opts: &CsvOptions) -> Result<Vec<Vec<String>>> {
    read_records(content.as_bytes(), opts)
}

/// Writes records, quoting fields that contain the delimiter, quotes, or
/// newlines.
pub fn write_records<W: Write>(
    mut writer: W,
    records: &[Vec<String>],
    delimiter: char,
) -> Result<()> {
    for record in records {
        let mut first = true;
        for field in record {
            if !first {
                write!(writer, "{delimiter}")?;
            }
            first = false;
            let needs_quote = field.contains(delimiter)
                || field.contains('"')
                || field.contains('\n')
                || field.contains('\r');
            if needs_quote {
                write!(writer, "\"{}\"", field.replace('"', "\"\""))?;
            } else {
                write!(writer, "{field}")?;
            }
        }
        writeln!(writer)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_record() {
        let r = parse_record("a,b,c", &CsvOptions::default(), 1).unwrap();
        assert_eq!(r, vec!["a", "b", "c"]);
    }

    #[test]
    fn trims_adult_style_spacing() {
        let r = parse_record("39, State-gov, 77516, Bachelors", &CsvOptions::adult(), 1).unwrap();
        assert_eq!(r, vec!["39", "State-gov", "77516", "Bachelors"]);
    }

    #[test]
    fn preserves_whitespace_when_trim_disabled() {
        let opts = CsvOptions {
            trim: false,
            ..CsvOptions::default()
        };
        let r = parse_record("a, b", &opts, 1).unwrap();
        assert_eq!(r, vec!["a", " b"]);
    }

    #[test]
    fn quoted_fields_with_embedded_delimiters_and_quotes() {
        let r = parse_record(r#""a,b","say ""hi""",c"#, &CsvOptions::default(), 1).unwrap();
        assert_eq!(r, vec!["a,b", "say \"hi\"", "c"]);
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        let e = parse_record("\"abc", &CsvOptions::default(), 7).unwrap_err();
        assert!(e.to_string().contains("line 7"));
    }

    #[test]
    fn garbage_after_quote_is_an_error() {
        assert!(parse_record("\"a\"x,b", &CsvOptions::default(), 1).is_err());
    }

    #[test]
    fn empty_fields_and_trailing_delimiter() {
        let r = parse_record("a,,c,", &CsvOptions::default(), 1).unwrap();
        assert_eq!(r, vec!["a", "", "c", ""]);
    }

    #[test]
    fn read_str_skips_comments_and_blanks() {
        let content = "|1x3 Cross validator\n\n25, Private\n38, Self-emp\n";
        let records = read_str(content, &CsvOptions::adult()).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], vec!["25", "Private"]);
    }

    #[test]
    fn roundtrip_through_writer() {
        let records = vec![
            vec!["plain".to_string(), "with,comma".to_string()],
            vec!["with \"quote\"".to_string(), "".to_string()],
        ];
        let mut buf = Vec::new();
        write_records(&mut buf, &records, ',').unwrap();
        let text = String::from_utf8(buf).unwrap();
        let opts = CsvOptions {
            trim: false,
            skip_empty_lines: false,
            ..CsvOptions::default()
        };
        let parsed = read_str(&text, &opts).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn embedded_newlines_in_quotes_roundtrip_through_the_readers() {
        // The writer quotes fields containing `\n`/`\r`; the readers must
        // parse those multi-line records back verbatim (RFC 4180), not die
        // on "unterminated quoted field" at the first line boundary.
        let records = vec![
            vec!["line1\nline2".to_string(), "plain".to_string()],
            vec!["crlf\r\ninside".to_string(), "a,b".to_string()],
            vec!["lone\rcr".to_string(), "\"q\"\nand newline".to_string()],
            vec!["".to_string(), "trailing\n".to_string()],
        ];
        let mut buf = Vec::new();
        write_records(&mut buf, &records, ',').unwrap();
        let text = String::from_utf8(buf).unwrap();
        let opts = CsvOptions {
            trim: false,
            skip_empty_lines: false,
            ..CsvOptions::default()
        };
        let parsed = read_str(&text, &opts).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn multiline_quoted_record_parses_with_trim_and_comments() {
        // Quote continuation composes with the Adult-style options: the
        // comment check applies to logical records, and a `|` inside an
        // open quote is content, not a comment marker.
        let content = "|sentinel\n\"multi\nline\", x\n\"|not a comment\", y\n";
        let records = read_str(content, &CsvOptions::adult()).unwrap();
        assert_eq!(
            records,
            vec![
                vec!["multi\nline".to_string(), "x".to_string()],
                vec!["|not a comment".to_string(), "y".to_string()],
            ]
        );
    }

    #[test]
    fn unterminated_quote_spanning_lines_is_an_error() {
        let e = read_str("ok,1\n\"never closed\nmore\n", &CsvOptions::default()).unwrap_err();
        assert!(e.to_string().contains("unterminated"));
        // The error points at the line the record started on.
        assert!(e.to_string().contains("line 2"));
    }

    #[test]
    fn crlf_terminators_are_stripped_without_trim() {
        let opts = CsvOptions {
            trim: false,
            ..CsvOptions::default()
        };
        let records = read_str("a,b\r\nc,d\r\n", &opts).unwrap();
        assert_eq!(records, vec![vec!["a", "b"], vec!["c", "d"]]);
        // A quoted CRLF is content and survives; only the record
        // terminator is stripped.
        let records = read_str("\"a\r\nb\",c\r\n", &opts).unwrap();
        assert_eq!(records, vec![vec!["a\r\nb", "c"]]);
    }

    #[test]
    fn whitespace_delimiters_are_never_consumed_as_padding() {
        // `\t` as the delimiter: the post-quote and trim whitespace skips
        // must not swallow it, or fields merge.
        let opts = CsvOptions {
            delimiter: '\t',
            trim: false,
            skip_empty_lines: false,
            comment_char: None,
        };
        let rows = read_str("\"q\"\t,x\ta\n", &opts).unwrap();
        assert_eq!(rows, vec![vec!["q", ",x", "a"]]);
        // With trimming on, consecutive tabs still delimit empty fields.
        let opts_trim = CsvOptions { trim: true, ..opts };
        let rows = read_str("a\t\tb\n", &opts_trim).unwrap();
        assert_eq!(rows, vec![vec!["a", "", "b"]]);
    }
}
