//! Wire primitives shared by the workspace's binary formats: the DFLT
//! fleet-snapshot frame (`df_core::fleet::codec`) and the DFRL replay log
//! (`df_data::replay`). Both formats are built from the same pieces, so
//! the rules for reading untrusted bytes live here once:
//!
//! ```text
//! varint := unsigned LEB128, at most 10 bytes, value ≤ u64::MAX
//! str    := varint byte_len | UTF-8 bytes
//! f64    := IEEE-754 bit pattern as a little-endian u64
//! ```
//!
//! [`Reader`] treats its buffer as untrusted: truncation, an overlong or
//! overflowing varint, an element count larger than the bytes left and
//! invalid UTF-8 all fail with a [`WireError`] that names the field being
//! read and its absolute byte offset. Nothing panics, and no count read
//! from the wire can size an allocation beyond the bytes actually held.

use std::fmt;

/// Appends `v` as an unsigned LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        // df-lint: allow(no-lossy-cast) -- masked to 7 bits; the cast cannot lose information
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Appends an `f64` as its little-endian bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// A malformed or truncated encoding: where decoding stopped and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Absolute byte offset at which decoding failed.
    pub offset: u64,
    /// What was being read and what was wrong with it.
    pub message: String,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for WireError {}

type Result<T> = std::result::Result<T, WireError>;

/// Bounds-checked reader over one buffer. `base` is the buffer's absolute
/// offset in the enclosing stream, so errors point at real byte positions.
/// Every read takes the name of the field it reads, for the error text.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    base: u64,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`, which begins at byte `base` of its
    /// stream.
    pub fn new(buf: &'a [u8], base: u64) -> Self {
        Self { buf, pos: 0, base }
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// An error at the current offset.
    pub fn error(&self, message: String) -> WireError {
        WireError {
            offset: self.base + self.pos as u64,
            message,
        }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.error(format!(
                "frame truncated reading {what}: needed {n} bytes, have {}",
                self.remaining()
            )));
        }
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| self.error(format!("frame offset overflows reading {what}")))?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| self.error(format!("frame range out of bounds reading {what}")))?;
        self.pos = end;
        Ok(slice)
    }

    /// One byte.
    pub fn u8(&mut self, what: &str) -> Result<u8> {
        self.take(1, what)?
            .first()
            .copied()
            .ok_or_else(|| self.error(format!("empty read where {what} was promised")))
    }

    /// A little-endian `u64`.
    pub fn u64_le(&mut self, what: &str) -> Result<u64> {
        let bytes = self.take(8, what)?;
        let bytes: [u8; 8] = bytes
            .try_into()
            .map_err(|_| self.error(format!("truncated u64 in {what}")))?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// An `f64` bit pattern.
    pub fn f64(&mut self, what: &str) -> Result<f64> {
        Ok(f64::from_bits(self.u64_le(what)?))
    }

    /// An unsigned LEB128 varint.
    pub fn varint(&mut self, what: &str) -> Result<u64> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8(what)?;
            if shift == 63 && byte > 1 {
                return Err(self.error(format!("varint overflows u64 in {what}")));
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(self.error(format!("varint longer than 10 bytes in {what}")));
            }
        }
    }

    /// One categorical cell: a varint code, checked `< arity`.
    pub fn code(&mut self, arity: u32, column: &str) -> Result<u32> {
        let raw = self.varint("cell code")?;
        u32::try_from(raw)
            .ok()
            .filter(|c| *c < arity)
            .ok_or_else(|| {
                self.error(format!(
                    "code {raw} out of range for column `{column}` ({arity} labels)"
                ))
            })
    }

    /// Appends `n` cells of one categorical column to `out`, each checked
    /// `< arity`. The bytes are checked a block at a time: a block whose
    /// every byte is below `min(arity, 0x80)` holds complete, in-range
    /// one-byte codes and is widened into `out` whole. At the first other
    /// byte, that one cell goes through [`Reader::code`], so multi-byte
    /// and non-canonical varints, out-of-range codes and truncation decode
    /// or fail exactly as a per-cell loop would, at the same offset.
    /// Inlined: the DFRL chunk decoder in df-data runs this loop for every
    /// column of every chunk, and compiling it at that call site keeps
    /// replay as fast as an in-crate loop.
    #[inline]
    pub fn codes(&mut self, n: usize, arity: u32, column: &str, out: &mut Vec<u32>) -> Result<()> {
        /// Bytes checked per step; the max over a block this size is a
        /// handful of vector instructions.
        const BLOCK: usize = 64;
        let one_byte = arity.min(0x80);
        let mut left = n;
        while left > 0 {
            let rest = self.buf.get(self.pos..).unwrap_or_default();
            let block = rest.get(..left.min(BLOCK)).unwrap_or(rest);
            let run = if block.first().is_none_or(|&b| u32::from(b) >= one_byte) {
                // The next cell is not a one-byte code, or the frame has
                // ended: skip the block check, so a column of mostly
                // multi-byte codes costs no more than a per-cell loop.
                0
            } else if u32::from(block.iter().fold(0, |m, &b| m.max(b))) < one_byte {
                block.len()
            } else {
                block
                    .iter()
                    .position(|&b| u32::from(b) >= one_byte)
                    .unwrap_or(block.len())
            };
            out.extend(block.iter().take(run).map(|&b| u32::from(b)));
            self.pos += run;
            left -= run;
            if run < block.len() || block.is_empty() {
                out.push(self.code(arity, column)?);
                left -= 1;
            }
        }
        Ok(())
    }

    /// The next `n` cells of one categorical column as the buffer's own
    /// bytes, when each is a complete, in-range one-byte code: every byte
    /// below `min(arity, 0x80)`. Otherwise `None`, with nothing consumed,
    /// so [`Reader::codes`] can decode the column from the same position.
    /// Where this returns bytes, `codes` would have decoded the same
    /// values and ended at the same position.
    #[inline]
    pub fn code_bytes(&mut self, n: usize, arity: u32) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let bytes = self.buf.get(self.pos..end)?;
        let max = bytes.iter().fold(0, |m, &b| m.max(b));
        if !bytes.is_empty() && u32::from(max) >= arity.min(0x80) {
            return None;
        }
        self.pos = end;
        Some(bytes)
    }

    /// A varint used as an element count: rejected when it exceeds the
    /// bytes still in the buffer (every element costs ≥ 1 byte), so a
    /// hostile count can never size an allocation beyond held input.
    pub fn count(&mut self, what: &str) -> Result<usize> {
        let n = self.varint(what)?;
        if n > self.remaining() as u64 {
            return Err(self.error(format!(
                "{what} claims {n} elements but only {} bytes remain in the frame",
                self.remaining()
            )));
        }
        usize::try_from(n)
            .map_err(|_| self.error(format!("{what} of {n} does not fit this target's usize")))
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &str) -> Result<String> {
        let len = self.count(what)?;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| self.error(format!("invalid UTF-8 in {what}")))
    }

    /// Requires the buffer to be fully consumed.
    pub fn done(&self, what: &str) -> Result<()> {
        if self.remaining() != 0 {
            return Err(self.error(format!("{} trailing bytes after {what}", self.remaining())));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Differential decode suite: the bulk `Reader::codes` against the
    // per-cell loop it replaced.

    /// The per-cell decode loop `Reader::codes` replaced, kept as the
    /// oracle.
    fn codes_per_cell(r: &mut Reader<'_>, n: usize, arity: u32, column: &str) -> Result<Vec<u32>> {
        let mut codes = Vec::with_capacity(n);
        for _ in 0..n {
            let raw = r.varint("cell code")?;
            let code = u32::try_from(raw)
                .ok()
                .filter(|c| *c < arity)
                .ok_or_else(|| {
                    r.error(format!(
                        "code {raw} out of range for column `{column}` ({arity} labels)"
                    ))
                })?;
            codes.push(code);
        }
        Ok(codes)
    }

    /// Arities either side of the one-byte varint limit, plus ones whose
    /// codes take two and three bytes.
    const ARITIES: [u32; 7] = [1, 2, 127, 128, 129, 300, 70_000];
    /// Filler bytes ahead of the codes, so they start mid-frame as every
    /// chunk column does.
    const LEAD: usize = 3;
    /// The log offset the decoded buffers stand at.
    const BASE: u64 = 1000;

    /// A decode's codes and end position, or its error offset and text.
    type Decoded = std::result::Result<(Vec<u32>, usize), (u64, String)>;

    /// Decodes `n` cells after the [`LEAD`] bytes of `buf` with the bulk
    /// reader and with the oracle.
    fn decode_both(buf: &[u8], n: usize, arity: u32) -> (Decoded, Decoded) {
        let decoded = |r: &Reader<'_>, result: Result<Vec<u32>>| match result {
            Ok(codes) => Ok((codes, r.pos)),
            Err(WireError { offset, message }) => Err((offset, message)),
        };
        let mut bulk = Reader::new(buf, BASE);
        bulk.pos = LEAD;
        let mut out = Vec::new();
        let result = bulk.codes(n, arity, "c", &mut out).map(|()| out);
        let bulk = decoded(&bulk, result);
        let mut oracle = Reader::new(buf, BASE);
        oracle.pos = LEAD;
        let result = codes_per_cell(&mut oracle, n, arity, "c");
        (bulk, decoded(&oracle, result))
    }

    /// Appends one in-range cell and returns its code. `form` makes most
    /// cells one-byte codes, so long one-byte runs form; the rest are any
    /// code in range, and a few are encoded non-canonically with a
    /// redundant `0x80 … 0x00` tail (1 as `[0x81, 0x00]`).
    fn put_cell(buf: &mut Vec<u8>, arity: u32, pick: u32, form: u8) -> u32 {
        let code = if form < 10 {
            pick % arity.min(0x80)
        } else {
            pick % arity
        };
        put_varint(buf, u64::from(code));
        if form >= 13 {
            *buf.last_mut().unwrap() |= 0x80;
            buf.push(0);
        }
        code
    }

    /// Appends one cell that must fail: a code out of range, one past
    /// `u32::MAX`, or a varint that overflows `u64`.
    fn put_bad_cell(buf: &mut Vec<u8>, arity: u32, pick: u32, kind: u8) {
        match kind {
            0 => put_varint(buf, u64::from(arity) + u64::from(pick % 1000)),
            1 => put_varint(buf, (1u64 << 32) + u64::from(pick)),
            _ => buf.extend_from_slice(&[0xff; 11]),
        }
    }

    #[test]
    fn non_canonical_and_multi_byte_codes_decode_in_place() {
        // 0, then 1 as [0x81, 0x00], 1, 300 as [0xac, 0x02], 5.
        let buf = [0xee, 0xee, 0xee, 0x00, 0x81, 0x00, 0x01, 0xac, 0x02, 0x05];
        let (bulk, oracle) = decode_both(&buf, 5, 301);
        assert_eq!(bulk, oracle);
        assert_eq!(bulk, Ok((vec![0, 1, 1, 300, 5], buf.len())));
    }

    #[test]
    fn code_bytes_takes_only_complete_in_range_one_byte_codes() {
        let buf = [0x00, 0x02, 0x7f, 0x01];
        for (n, arity, want) in [
            (4, 128, Some(&buf[..])),
            (4, 70_000, Some(&buf[..])),
            (2, 3, Some(&buf[..2])),
            // Out of range: 0x7f for 127 labels, 0x02 for 2.
            (4, 127, None),
            (4, 2, None),
            // Past the end of the buffer.
            (5, 128, None),
        ] {
            let mut r = Reader::new(&buf, BASE);
            assert_eq!(r.code_bytes(n, arity), want, "n {n}, arity {arity}");
            assert_eq!(r.pos, want.map_or(0, <[u8]>::len));
        }
        // A byte from 0x80 up opens a longer varint, here a non-canonical 1.
        let two_byte = [0x05, 0x81, 0x00];
        assert_eq!(Reader::new(&two_byte, BASE).code_bytes(2, 300), None);
    }

    #[test]
    fn an_out_of_range_code_fails_alike_at_every_offset() {
        // Offsets 0..=130 cross the first two 64-byte block edges.
        for arity in ARITIES {
            let mut bad = Vec::new();
            put_varint(&mut bad, u64::from(arity));
            for at in 0..=130usize {
                let mut buf = vec![0xee; LEAD];
                for i in 0..200 {
                    if i == at {
                        buf.extend_from_slice(&bad);
                    } else {
                        put_varint(&mut buf, (i as u64) % u64::from(arity.min(0x80)));
                    }
                }
                let (bulk, oracle) = decode_both(&buf, 200, arity);
                assert_eq!(bulk, oracle, "arity {arity}, bad cell {at}");
                let offset = BASE + (LEAD + at + bad.len()) as u64;
                let message = format!("code {arity} out of range for column `c` ({arity} labels)");
                assert_eq!(bulk, Err((offset, message)), "arity {arity}, bad cell {at}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn bulk_code_decode_matches_the_per_cell_loop(
            arity in 0..ARITIES.len(),
            cells in proptest::collection::vec((proptest::any::<u32>(), 0u8..16), 0..200),
            bad_at in 0usize..400,
            bad_kind in 0u8..3,
        ) {
            let arity = ARITIES[arity];
            let mut buf = vec![0xee; LEAD];
            let mut want = Vec::with_capacity(cells.len());
            for (i, &(pick, form)) in cells.iter().enumerate() {
                if i == bad_at {
                    put_bad_cell(&mut buf, arity, pick, bad_kind);
                } else {
                    want.push(put_cell(&mut buf, arity, pick, form));
                }
            }
            let (bulk, oracle) = decode_both(&buf, cells.len(), arity);
            proptest::prop_assert_eq!(&bulk, &oracle);
            // Where the cells are one byte each, `code_bytes` hands them
            // out as they are, ending where the bulk decode ends.
            let mut r = Reader::new(&buf, BASE);
            r.pos = LEAD;
            if let Some(bytes) = r.code_bytes(cells.len(), arity) {
                let codes = bytes.iter().map(|&b| u32::from(b)).collect();
                proptest::prop_assert_eq!(&bulk, &Ok((codes, r.pos)));
            } else {
                proptest::prop_assert_eq!(r.pos, LEAD);
            }
            if bad_at < cells.len() {
                proptest::prop_assert!(bulk.is_err());
            } else {
                proptest::prop_assert_eq!(bulk, Ok((want, buf.len())));
            }
            // A truncation at every offset of the body.
            for cut in LEAD..buf.len() {
                let (bulk, oracle) = decode_both(&buf[..cut], cells.len(), arity);
                proptest::prop_assert_eq!(bulk, oracle);
            }
        }
    }
}
