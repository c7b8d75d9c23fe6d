//! Differential suite for the DFRL byte path.
//!
//! `tally_from_log` counts a chunk straight from the frame's bytes when
//! every projected column holds complete, in-range one-byte codes, and
//! from the decoded `u32`s otherwise. The chunk route — `ReplayChunks`
//! yielding `CodeChunk`s into `PartialCounts::record_codes_trusted` —
//! widens every column to `u32`s first. Over hand-built seeded logs (every
//! arity class, numeric columns between categorical ones, non-canonical
//! one-byte varints, projections that skip and reorder columns, chunks of
//! 1 to 5,000 rows) both routes must give the table a record-by-record
//! count of the logged codes gives, bit for bit.
//!
//! On corrupt logs both routes must fail with the same error. Since both
//! read through one frame validator, the errors are also checked against
//! texts and offsets that do not come from it: messages built from where
//! the test put the fault, and messages and digests recorded from the
//! cell-by-cell decoder the byte path replaced (the reader before it).

use df_data::error::DataError;
use df_data::replay::{tally_from_log, ReplayChunks, MAGIC, VERSION};
use df_prob::contingency::{Axis, ContingencyTable};
use df_prob::partial::PartialCounts;
use df_prob::rng::Pcg32;
use df_prob::wire::{put_f64, put_str, put_varint};

/// Arities either side of the one-byte varint limit, plus ones whose
/// codes take two and three bytes.
const ARITIES: [u32; 7] = [1, 2, 127, 128, 129, 300, 70_000];

/// One column of a test log: categorical of the given arity, or numeric.
#[derive(Debug, Clone, Copy)]
enum Col {
    Cat(u32),
    Num,
}

/// Faults `build` writes into a log.
#[derive(Debug, Clone, Copy, Default)]
struct Faults<'a> {
    /// A cell to write in place of a drawn one: `(chunk, column, row, raw
    /// varint value)`.
    poison: Option<(usize, usize, usize, u64)>,
    /// Bytes appended to the body of the chunk named.
    trailing: Option<(usize, &'a [u8])>,
    /// A row count written for the chunk named in place of its own.
    rows: Option<(usize, u64)>,
}

/// A hand-built log: its bytes, every categorical column's codes in row
/// order (empty for numeric columns), and where the poisoned cell ended.
struct Log {
    bytes: Vec<u8>,
    codes: Vec<Vec<u32>>,
    poison_end: Option<u64>,
}

fn name(col: usize) -> String {
    format!("c{col}")
}

/// Writes a log of `cols` in chunks of `chunk_rows` rows. Nine codes in
/// ten are below `min(arity, 0x80)`, so one-byte runs form at every
/// arity; the rest are anywhere in range. `non_canonical` codes in a
/// thousand are written with a redundant `0x80 … 0x00` tail (1 as
/// `[0x81, 0x00]`). `faults` are written as they say.
fn build(cols: &[Col], chunk_rows: &[usize], seed: u64, non_canonical: u32, faults: Faults) -> Log {
    let mut rng = Pcg32::new(seed);
    let mut bytes = MAGIC.to_vec();
    bytes.push(VERSION);
    let mut header = Vec::new();
    put_varint(&mut header, cols.len() as u64);
    for (i, col) in cols.iter().enumerate() {
        put_str(&mut header, &name(i));
        match col {
            Col::Cat(arity) => {
                header.push(0);
                put_varint(&mut header, u64::from(*arity));
                for label in 0..*arity {
                    put_str(&mut header, &format!("l{label}"));
                }
            }
            Col::Num => header.push(1),
        }
    }
    put_varint(&mut bytes, header.len() as u64);
    bytes.extend_from_slice(&header);
    let mut codes = vec![Vec::new(); cols.len()];
    let mut poison_end = None;
    for (chunk, &n) in chunk_rows.iter().enumerate() {
        let mut body = Vec::new();
        let mut poisoned_at = None;
        let claimed = faults.rows.filter(|&(c, _)| c == chunk);
        put_varint(&mut body, claimed.map_or(n as u64, |(_, rows)| rows));
        for (i, col) in cols.iter().enumerate() {
            for row in 0..n {
                if let Some((c, k, r, raw)) = faults.poison {
                    if (c, k, r) == (chunk, i, row) {
                        put_varint(&mut body, raw);
                        poisoned_at = Some(body.len());
                        continue;
                    }
                }
                match *col {
                    Col::Cat(arity) => {
                        let pick = rng.next_u32_raw();
                        let code = if rng.next_below(10) < 9 {
                            pick % arity.min(0x80)
                        } else {
                            pick % arity
                        };
                        put_varint(&mut body, u64::from(code));
                        if rng.next_below(1000) < non_canonical {
                            *body.last_mut().unwrap() |= 0x80;
                            body.push(0);
                        }
                        codes[i].push(code);
                    }
                    Col::Num => put_f64(&mut body, f64::from(rng.next_u32_raw()) - 1e9),
                }
            }
        }
        if let Some((c, extra)) = faults.trailing {
            if c == chunk {
                body.extend_from_slice(extra);
            }
        }
        put_varint(&mut bytes, body.len() as u64);
        if let Some(at) = poisoned_at {
            poison_end = Some((bytes.len() + at) as u64);
        }
        bytes.extend_from_slice(&body);
    }
    put_varint(&mut bytes, 0);
    Log {
        bytes,
        codes,
        poison_end,
    }
}

/// The `(start, end)` offsets of every frame body of a well-formed log,
/// the header's first.
fn frame_bodies(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut bodies = Vec::new();
    let mut pos = MAGIC.len() + 1;
    loop {
        let (mut len, mut shift) = (0, 0);
        loop {
            let b = bytes[pos];
            pos += 1;
            len |= usize::from(b & 0x7f) << shift;
            shift += 7;
            if b < 0x80 {
                break;
            }
        }
        if len == 0 {
            return bodies;
        }
        bodies.push((pos, pos + len));
        pos += len;
    }
}

/// A tally's axes and cell bits, or its error as displayed (which names
/// the offset).
type Outcome = Result<(Vec<Axis>, Vec<u64>), String>;

fn outcome(result: Result<ContingencyTable, DataError>) -> Outcome {
    result
        .map(|t| {
            (
                t.axes().to_vec(),
                t.data().iter().map(|v| v.to_bits()).collect(),
            )
        })
        .map_err(|e| e.to_string())
}

/// An outcome as one line: the cell bits, or the error text.
fn text(outcome: &Outcome) -> String {
    match outcome {
        Ok((_, bits)) => format!("ok {bits:x?}"),
        Err(message) => message.clone(),
    }
}

/// FNV-1a over the outcomes' lines.
fn digest(outcomes: &[Outcome]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for outcome in outcomes {
        for &b in text(outcome).as_bytes().iter().chain(b"\n") {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// The chunk route: every `CodeChunk` into a shard through the trusted
/// per-chunk tally.
fn chunk_route(bytes: &[u8], columns: &[&str]) -> Result<ContingencyTable, DataError> {
    let chunks = ReplayChunks::new(bytes)?.with_columns(columns)?;
    let mut shard = PartialCounts::zeros(chunks.axes()?)?;
    for chunk in chunks {
        let chunk = chunk?;
        let slices: Vec<&[u32]> = chunk.columns().iter().map(Vec::as_slice).collect();
        shard.record_codes_trusted(&slices)?;
    }
    Ok(shard.into_table())
}

/// Both routes over `projection`, which must agree; returns their
/// outcome.
fn both(bytes: &[u8], projection: &[usize]) -> Outcome {
    let names: Vec<String> = projection.iter().map(|&c| name(c)).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let bytes_route = outcome(tally_from_log(bytes, &names));
    assert_eq!(
        bytes_route,
        outcome(chunk_route(bytes, &names)),
        "projection {projection:?}"
    );
    bytes_route
}

/// The table a record-by-record count of the logged codes gives.
fn oracle(log: &Log, cols: &[Col], projection: &[usize]) -> Outcome {
    let axes = projection
        .iter()
        .map(|&c| {
            let Col::Cat(arity) = cols[c] else {
                panic!("column {c} is numeric")
            };
            Axis::new(name(c), (0..arity).map(|l| format!("l{l}")).collect()).unwrap()
        })
        .collect();
    let mut table = ContingencyTable::zeros(axes).unwrap();
    let mut idx = vec![0; projection.len()];
    for row in 0..log.codes[projection[0]].len() {
        for (slot, &c) in idx.iter_mut().zip(projection) {
            *slot = log.codes[c][row] as usize;
        }
        table.increment(&idx);
    }
    outcome(Ok(table))
}

/// Chunk sizes that add up to `rows`: 1 and 5,000 first, then sizes
/// around the tally's block edges and small ones, drawn from `rng`.
fn chunk_sizes(rng: &mut Pcg32, rows: usize) -> Vec<usize> {
    const SIZES: [usize; 14] = [
        1, 2, 3, 7, 63, 64, 65, 255, 1000, 1023, 1024, 1025, 4096, 5000,
    ];
    let mut sizes = vec![1, 5000];
    let mut total = 5001;
    while total < rows {
        let n = SIZES[rng.next_below(SIZES.len() as u32) as usize].min(rows - total);
        sizes.push(n);
        total += n;
    }
    sizes
}

/// Every arity, with numeric columns between the categorical ones.
fn wide_schema() -> Vec<Col> {
    let mut cols = Vec::new();
    for (i, &arity) in ARITIES.iter().enumerate() {
        cols.push(Col::Cat(arity));
        if i % 2 == 1 {
            cols.push(Col::Num);
        }
    }
    cols
}

#[test]
fn byte_path_matches_the_chunk_route_and_a_record_count_bit_for_bit() {
    let cols = wide_schema();
    // Schema positions: 0 → 1, 1 → 2, 3 → 127, 4 → 128, 6 → 129,
    // 7 → 300, 9 → 70,000 labels; 2, 5 and 8 are numeric.
    let at = |arity: u32| {
        cols.iter()
            .position(|c| matches!(c, Col::Cat(a) if *a == arity))
            .unwrap()
    };
    let projections = [
        vec![at(2)],
        vec![at(1)],
        vec![at(2), at(1), at(128)],
        vec![at(128), at(127), at(2)],
        vec![at(300), at(2)],
        vec![at(129), at(1), at(300)],
        vec![at(70_000), at(2)],
        vec![at(2), at(70_000)],
    ];
    let mut rng = Pcg32::new(2026);
    for (seed, non_canonical) in [(1, 0), (2, 5), (3, 200)] {
        let rows = chunk_sizes(&mut rng, 16_000);
        let log = build(&cols, &rows, seed, non_canonical, Faults::default());
        for projection in &projections {
            let got = both(&log.bytes, projection);
            assert!(got.is_ok(), "{got:?}");
            assert_eq!(got, oracle(&log, &cols, projection), "{projection:?}");
        }
    }
}

/// A log small enough to truncate at every byte: one-byte, multi-byte and
/// non-canonical codes, and numeric cells, in three chunks.
fn small_log() -> (Vec<Col>, Log) {
    let cols = vec![
        Col::Cat(2),
        Col::Num,
        Col::Cat(300),
        Col::Cat(127),
        Col::Num,
        Col::Cat(1),
    ];
    let log = build(&cols, &[1, 5, 3], 7, 150, Faults::default());
    (cols, log)
}

#[test]
fn every_truncation_fails_alike_on_both_routes() {
    let (cols, log) = small_log();
    let len = log.bytes.len();
    let mut outcomes = Vec::new();
    for projection in [vec![0], vec![3, 0, 5], vec![2, 3]] {
        let whole = both(&log.bytes, &projection);
        assert_eq!(whole, oracle(&log, &cols, &projection));
        for cut in 0..len {
            let got = both(&log.bytes[..cut], &projection);
            assert!(got.is_err(), "a prefix of {cut} bytes decoded");
            outcomes.push(got);
        }
    }
    // A cut inside the last chunk's frame, and one before the end marker.
    assert_eq!(
        outcomes[len - 3],
        Err(format!(
            "corrupt replay log at byte {}: log truncated reading chunk: needed 2 more bytes",
            len - 3
        ))
    );
    assert_eq!(
        outcomes[len - 1],
        Err(format!(
            "corrupt replay log at byte {}: log truncated reading frame length: needed 1 more bytes",
            len - 1
        ))
    );
    // Every prefix's error, as the cell-by-cell decoder reported it.
    assert_eq!(digest(&outcomes), TRUNCATION_DIGEST);
}

/// [`digest`] of `every_truncation_fails_alike_on_both_routes`' errors,
/// recorded from the cell-by-cell decoder.
const TRUNCATION_DIGEST: u64 = 0x5912_dc63_4c56_2e17;

#[test]
fn seeded_bit_flips_fail_or_tally_alike_on_both_routes() {
    let (_, log) = small_log();
    let mut rng = Pcg32::new(11);
    let mut outcomes = Vec::new();
    for _ in 0..2000 {
        let mut bytes = log.bytes.clone();
        let pos = rng.next_below(bytes.len() as u32) as usize;
        bytes[pos] ^= 1 << rng.next_below(8);
        outcomes.push(both(&bytes, &[3, 0]));
    }
    // Flips land in codes that stay in range as well as in structure.
    let failed = outcomes.iter().filter(|o| o.is_err()).count();
    assert!(failed > 0 && failed < 2000, "{failed} of 2000 failed");
    // Every flip's table or error, as the cell-by-cell decoder gave it.
    assert_eq!(digest(&outcomes), BIT_FLIP_DIGEST);
}

/// [`digest`] of `seeded_bit_flips_fail_or_tally_alike_on_both_routes`'
/// outcomes, recorded from the cell-by-cell decoder.
const BIT_FLIP_DIGEST: u64 = 0xfecb_366d_75fb_865c;

#[test]
fn an_out_of_range_code_fails_alike_projected_or_not() {
    // A code equal to its arity: one byte (2, 127), two bytes (300).
    let cols = vec![Col::Cat(2), Col::Num, Col::Cat(127), Col::Cat(300)];
    let rows = [4, 200, 3];
    for (col, arity) in [(0, 2u64), (2, 127), (3, 300)] {
        for row in [0, 199] {
            let faults = Faults {
                poison: Some((1, col, row, arity)),
                ..Faults::default()
            };
            let log = build(&cols, &rows, 5, 0, faults);
            let want = format!(
                "corrupt replay log at byte {}: code {arity} out of range for column `c{col}` \
                 ({arity} labels)",
                log.poison_end.unwrap()
            );
            // Projected, and not: the column is checked either way.
            let others: Vec<usize> = [0, 2, 3].into_iter().filter(|&c| c != col).collect();
            for projection in [vec![col], others.clone(), vec![others[1], col, others[0]]] {
                assert_eq!(both(&log.bytes, &projection), Err(want.clone()));
            }
        }
    }
}

#[test]
fn trailing_bytes_inside_a_frame_fail_alike() {
    let cols = vec![Col::Cat(2), Col::Num, Col::Cat(129)];
    for extra in [&[0u8][..], &[0x01, 0x02, 0x03]] {
        let faults = Faults {
            trailing: Some((1, extra)),
            ..Faults::default()
        };
        let log = build(&cols, &[6, 2, 9], 3, 0, faults);
        // The payload ends where the extra bytes start.
        let payload_end = frame_bodies(&log.bytes)[2].1 - extra.len();
        let want = format!(
            "corrupt replay log at byte {payload_end}: {} trailing bytes after chunk payload",
            extra.len()
        );
        assert_eq!(both(&log.bytes, &[2, 0]), Err(want));
    }
}

#[test]
fn a_row_count_past_the_cells_fails_alike() {
    // The last chunk claims one row more than it holds, so a column runs
    // out of frame: numeric cells (whose bulk read falls back to the
    // cell-by-cell reads to find the cell cut short), or one-byte codes
    // after the numeric column took eight of their bytes (which fall back
    // from the byte path to the decode). Each case: the schema, the rows
    // the chunk holds, how many bytes before the frame's end the error is
    // reported, and its text.
    let cases = [
        (
            vec![Col::Num, Col::Cat(2)],
            5,
            5,
            "frame truncated reading numeric cell: needed 8 bytes, have 5",
        ),
        (
            vec![Col::Num, Col::Cat(127)],
            10,
            0,
            "frame truncated reading cell code: needed 1 bytes, have 0",
        ),
    ];
    for (cols, rows, back, want) in cases {
        let faults = Faults {
            rows: Some((1, rows as u64 + 1)),
            ..Faults::default()
        };
        let log = build(&cols, &[4, rows], 9, 0, faults);
        let projection = [cols.iter().position(|c| matches!(c, Col::Cat(_))).unwrap()];
        let frame_end = frame_bodies(&log.bytes)[2].1;
        let at = frame_end - back;
        assert_eq!(
            both(&log.bytes, &projection),
            Err(format!("corrupt replay log at byte {at}: {want}")),
            "{cols:?}"
        );
    }
}
