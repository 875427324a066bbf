//! Graph serialization.
//!
//! * A compact binary CSR format mirroring the paper's setup, where GPOP and
//!   Mixen ingest a prebuilt CSR binary directly (§6.5 / Table 4). Two
//!   versions exist:
//!   * `MXG1` (legacy): `magic | n:u64 | m:u64 | ptr[(n+1)×u64] | idx[m×u32]`,
//!     all little-endian, no integrity check. Still readable and writable
//!     (via [`write_csr_v1`]) for compatibility with seed-era files.
//!   * `MXG2` (current): same payload, preceded by a CRC-32/IEEE checksum of
//!     the payload bytes: `magic | n:u64 | m:u64 | crc32:u32 | payload`.
//!     [`write_csr`] emits this; [`read_csr`] verifies the checksum.
//! * A whitespace text edge-list format (`src dst` per line, `#` comments)
//!   matching what Ligra/Polymer/GraphMat-style frameworks convert from.
//!
//! All readers treat their input as untrusted: sizes declared in headers are
//! capped before any allocation, every `u64 → usize` cast is checked, and
//! every failure surfaces as a typed [`GraphError`] — never a panic.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::error::{GraphError, Result};
use crate::{Csr, EdgeList, Graph, NodeId};

const MAGIC_V1: &[u8; 4] = b"MXG1";
const MAGIC_V2: &[u8; 4] = b"MXG2";

/// Hard cap on node counts accepted from untrusted headers. Node IDs are
/// `u32`, and the paper's largest graphs stay well under 2^31 nodes.
pub const MAX_NODES: u64 = 1 << 31;

/// Hard cap on edge counts accepted from untrusted headers (512 G edges —
/// an order of magnitude above the largest public web crawls).
pub const MAX_EDGES: u64 = 1 << 39;

/// Payload read chunk: sections are read in `read_exact` calls of at most
/// this many bytes, and capacity grows only by what each chunk delivered,
/// so a header can never make the reader allocate more than one chunk
/// ahead of the bytes that actually arrived.
const READ_CHUNK_BYTES: usize = 1 << 20;

/// [`graph_checksum`] encodes the payload into blocks of this many bytes
/// before folding each block into the CRC.
const CHECKSUM_BLOCK_BYTES: usize = 64 << 10;

// ---------------------------------------------------------------------------
// CRC-32/IEEE (the zlib/PNG polynomial), table-driven, no dependencies.
// ---------------------------------------------------------------------------

/// Bytes folded into the CRC per step of [`Crc32::update`] (slicing-by-16).
const CRC_SLICE: usize = 16;

/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k][b]`
/// is the CRC of byte `b` followed by `k` zero bytes, which lets
/// [`Crc32::update`] fold 16 input bytes with 16 independent lookups.
static CRC_TABLES: [[u32; 256]; CRC_SLICE] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; CRC_SLICE] {
    let mut t = [[0u32; 256]; CRC_SLICE];
    let mut i = 0;
    while i < 256 {
        // lint: allow(truncation) reason=i < 256 in a const-evaluated loop
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < CRC_SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32/IEEE over `bytes` (init `!0`, final xor `!0`), resumable via
/// [`Crc32::update`]: any split of the input into successive `update`
/// calls gives the same value.
#[derive(Clone, Copy, Debug)]
pub struct Crc32(u32);

impl Crc32 {
    pub fn new() -> Self {
        Crc32(!0)
    }

    /// Folds `bytes` into the running CRC, 16 bytes per step (slicing-by-16)
    /// with a byte-at-a-time tail.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.0;
        let mut blocks = bytes.chunks_exact(CRC_SLICE);
        for block in &mut blocks {
            let mut x = [0u8; CRC_SLICE];
            x.copy_from_slice(block);
            let head = u32::from_le_bytes([x[0], x[1], x[2], x[3]]) ^ crc;
            x[..4].copy_from_slice(&head.to_le_bytes());
            // Byte j still has 15 - j bytes of the block after it.
            crc = x
                .iter()
                .enumerate()
                .fold(0, |acc, (j, &b)| acc ^ t[CRC_SLICE - 1 - j][usize::from(b)]);
        }
        for &b in blocks.remainder() {
            crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.0 = crc;
    }

    pub fn finish(self) -> u32 {
        !self.0
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// Computes the CRC-32 of a byte slice in one call.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

// ---------------------------------------------------------------------------
// Binary CSR
// ---------------------------------------------------------------------------

/// Writes the out-CSR of `g` in the current binary format (`MXG2`,
/// checksummed). Use [`write_csr_v1`] for the legacy format.
pub fn write_csr<W: Write>(g: &Graph, w: &mut W) -> io::Result<()> {
    let csr = g.out_csr();
    // First pass over the payload computes the checksum so the header can be
    // written up front without buffering the payload.
    let checksum = graph_checksum(g);

    w.write_all(MAGIC_V2)?;
    w.write_all(&(csr.n_rows() as u64).to_le_bytes())?;
    w.write_all(&(csr.nnz() as u64).to_le_bytes())?;
    w.write_all(&checksum.to_le_bytes())?;
    for &p in csr.ptr() {
        w.write_all(&(p as u64).to_le_bytes())?;
    }
    for &v in csr.idx() {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// CRC-32/IEEE over the MXG2 payload of `g`'s out-CSR (row pointers as
/// `u64` LE followed by column indices as `u32` LE) — the exact checksum
/// [`write_csr`] stores in the header. Exposed so checkpoints can pin the
/// graph they were computed from and reject stale resumes.
pub fn graph_checksum(g: &Graph) -> u32 {
    let csr = g.out_csr();
    let mut crc = Crc32::new();
    let mut block = Vec::with_capacity(CHECKSUM_BLOCK_BYTES);
    for words in csr.ptr().chunks(CHECKSUM_BLOCK_BYTES / 8) {
        block.clear();
        block.extend(words.iter().flat_map(|&p| (p as u64).to_le_bytes()));
        crc.update(&block);
    }
    for words in csr.idx().chunks(CHECKSUM_BLOCK_BYTES / 4) {
        block.clear();
        block.extend(words.iter().flat_map(|&v| v.to_le_bytes()));
        crc.update(&block);
    }
    crc.finish()
}

/// Writes the out-CSR of `g` in the legacy `MXG1` format (no checksum),
/// byte-identical to what the seed code produced.
pub fn write_csr_v1<W: Write>(g: &Graph, w: &mut W) -> io::Result<()> {
    let csr = g.out_csr();
    w.write_all(MAGIC_V1)?;
    w.write_all(&(csr.n_rows() as u64).to_le_bytes())?;
    w.write_all(&(csr.nnz() as u64).to_le_bytes())?;
    for &p in csr.ptr() {
        w.write_all(&(p as u64).to_le_bytes())?;
    }
    for &v in csr.idx() {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Reads a binary graph in either `MXG1` (legacy, unchecksummed) or `MXG2`
/// (checksummed) format; the in-CSC is rebuilt by transposition.
pub fn read_csr<R: Read>(r: &mut R) -> Result<Graph> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic).map_err(GraphError::Io)?;
    let versioned = match &magic {
        m if m == MAGIC_V1 => false,
        m if m == MAGIC_V2 => true,
        _ => {
            return Err(GraphError::Format(format!(
                "bad magic {:02x?}: not an MXG1/MXG2 file",
                magic
            )))
        }
    };
    let n64 = read_u64(r)?;
    let m64 = read_u64(r)?;
    if n64 >= MAX_NODES {
        return Err(GraphError::Capacity {
            what: "node count",
            requested: n64,
            limit: MAX_NODES,
        });
    }
    if m64 >= MAX_EDGES {
        return Err(GraphError::Capacity {
            what: "edge count",
            requested: m64,
            limit: MAX_EDGES,
        });
    }
    let n = checked_usize(n64, "node count")?;
    let m = checked_usize(m64, "edge count")?;

    let stored = if versioned { Some(read_u32(r)?) } else { None };
    let mut crc = Crc32::new();
    let ptr = read_section(r, n + 1, &mut crc, u64::from_le_bytes)?
        .into_iter()
        .map(|p| checked_usize(p, "row pointer"))
        .collect::<Result<Vec<_>>>()?;
    let idx = read_section(r, m, &mut crc, NodeId::from_le_bytes)?;
    let csr = Csr::try_from_parts(n, ptr, idx)?;
    if let Some(stored) = stored {
        let computed = crc.finish();
        if stored != computed {
            return Err(GraphError::Checksum { stored, computed });
        }
    }
    Ok(Graph::from_csr(csr))
}

/// Reads `count` little-endian `W`-byte words in `read_exact` chunks of at
/// most [`READ_CHUNK_BYTES`], folding every chunk into `crc` before decoding
/// it. The output grows by exactly the words each chunk delivered, so a
/// header that overstates `count` costs at most one chunk before the
/// short read surfaces as [`GraphError::Io`].
fn read_section<R: Read, T, const W: usize>(
    r: &mut R,
    count: usize,
    crc: &mut Crc32,
    decode: impl Fn([u8; W]) -> T,
) -> Result<Vec<T>> {
    let chunk_words = READ_CHUNK_BYTES / W;
    let mut buf = vec![0u8; count.min(chunk_words) * W];
    let mut out = Vec::new();
    let mut left = count;
    while left > 0 {
        let take = left.min(chunk_words);
        let bytes = &mut buf[..take * W];
        r.read_exact(bytes).map_err(GraphError::Io)?;
        crc.update(bytes);
        out.reserve_exact(take);
        out.extend(bytes.chunks_exact(W).map(|w| {
            let mut word = [0u8; W];
            word.copy_from_slice(w);
            decode(word)
        }));
        left -= take;
    }
    Ok(out)
}

/// Writes `g` to a file in the current binary CSR format.
pub fn save(g: &Graph, path: impl AsRef<Path>) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    write_csr(g, &mut w)?;
    w.flush()
}

/// Loads a binary CSR graph (`MXG1` or `MXG2`) from a file.
pub fn load(path: impl AsRef<Path>) -> Result<Graph> {
    let mut r = BufReader::new(std::fs::File::open(path).map_err(GraphError::Io)?);
    read_csr(&mut r)
}

// ---------------------------------------------------------------------------
// Text edge list
// ---------------------------------------------------------------------------

/// Writes a text edge list (`src dst` per line).
pub fn write_edge_list<W: Write>(g: &Graph, w: &mut W) -> io::Result<()> {
    writeln!(w, "# mixen edge list: n={} m={}", g.n(), g.m())?;
    for (s, d) in g.edges() {
        writeln!(w, "{s} {d}")?;
    }
    Ok(())
}

/// Parses a text edge list with the default node-count cap ([`MAX_NODES`]).
/// Node count is `max endpoint + 1` unless a larger `min_n` is given or the
/// header comment declares `n=<count>` (which [`write_edge_list`] emits, so
/// trailing isolated nodes round-trip).
pub fn read_edge_list<R: BufRead>(r: R, min_n: usize) -> Result<Graph> {
    read_edge_list_capped(r, min_n, MAX_NODES)
}

/// [`read_edge_list`] with a configurable cap on the `n=` header
/// declaration. A declaration above `max_nodes`, a duplicate declaration,
/// or one that overflows `u64` is reported with its line number.
pub fn read_edge_list_capped<R: BufRead>(r: R, min_n: usize, max_nodes: u64) -> Result<Graph> {
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    let mut max_node = 0u32;
    let mut min_n = min_n;
    let mut declared_on: Option<usize> = None;
    for (lineno, line) in r.lines().enumerate() {
        let line = line.map_err(GraphError::Io)?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            // Recover the declared node count from the header, if present.
            // Only all-digit `n=` tokens count as declarations; anything
            // else is ordinary comment text.
            let decl_tok = line.split_whitespace().find_map(|tok| {
                tok.strip_prefix("n=")
                    .filter(|v| !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()))
            });
            if let Some(digits) = decl_tok {
                let decl = digits.parse::<u64>().map_err(|_| GraphError::Parse {
                    line: lineno + 1,
                    msg: format!("node count declaration n={digits} overflows u64"),
                })?;
                if decl > max_nodes {
                    return Err(GraphError::Parse {
                        line: lineno + 1,
                        msg: format!(
                            "node count declaration n={decl} exceeds the cap of {max_nodes}"
                        ),
                    });
                }
                if let Some(first) = declared_on {
                    return Err(GraphError::Parse {
                        line: lineno + 1,
                        msg: format!("duplicate n= declaration (first on line {first})"),
                    });
                }
                declared_on = Some(lineno + 1);
                min_n = min_n.max(decl as usize);
            }
            continue;
        }
        let mut it = line.split_whitespace();
        let parse = |tok: Option<&str>| -> Result<u32> {
            tok.ok_or_else(|| bad_line(lineno))?
                .parse::<u32>()
                .map_err(|_| bad_line(lineno))
        };
        let s = parse(it.next())?;
        let d = parse(it.next())?;
        if it.next().is_some() {
            return Err(bad_line(lineno));
        }
        max_node = max_node.max(s).max(d);
        pairs.push((s, d));
    }
    let n = if pairs.is_empty() {
        min_n
    } else {
        (max_node as usize + 1).max(min_n)
    };
    if n as u64 > max_nodes {
        return Err(GraphError::Capacity {
            what: "node count",
            requested: n as u64,
            limit: max_nodes,
        });
    }
    Ok(Graph::from_edge_list(&EdgeList::from_pairs(n, pairs)))
}

fn bad_line(lineno: usize) -> GraphError {
    GraphError::Parse {
        line: lineno + 1,
        msg: "malformed edge".into(),
    }
}

fn checked_usize(v: u64, what: &'static str) -> Result<usize> {
    usize::try_from(v).map_err(|_| GraphError::Capacity {
        what,
        requested: v,
        limit: usize::MAX as u64,
    })
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf).map_err(GraphError::Io)?;
    Ok(u64::from_le_bytes(buf))
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf).map_err(GraphError::Io)?;
    Ok(u32::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Graph {
        Graph::from_pairs(5, &[(0, 1), (0, 2), (1, 2), (3, 0), (2, 4)])
    }

    #[test]
    fn binary_roundtrip() {
        let g = toy();
        let mut buf = Vec::new();
        write_csr(&g, &mut buf).unwrap();
        assert_eq!(&buf[..4], MAGIC_V2);
        let back = read_csr(&mut buf.as_slice()).unwrap();
        assert_eq!(g.out_csr(), back.out_csr());
        assert_eq!(g.in_csc(), back.in_csc());
    }

    #[test]
    fn legacy_v1_roundtrip() {
        let g = toy();
        let mut buf = Vec::new();
        write_csr_v1(&g, &mut buf).unwrap();
        assert_eq!(&buf[..4], MAGIC_V1);
        let back = read_csr(&mut buf.as_slice()).unwrap();
        assert_eq!(g.out_csr(), back.out_csr());
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = read_csr(&mut &b"NOPE"[..]).unwrap_err();
        assert!(matches!(err, GraphError::Format(_)), "{err}");
    }

    #[test]
    fn binary_rejects_truncation() {
        let g = toy();
        let mut buf = Vec::new();
        write_csr(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_csr(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, GraphError::Io(_)), "{err}");
    }

    #[test]
    fn binary_rejects_flipped_payload_bit() {
        let g = toy();
        let mut buf = Vec::new();
        write_csr(&g, &mut buf).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x04;
        let err = read_csr(&mut buf.as_slice()).unwrap_err();
        // A flipped bit either breaks an invariant (if it pushes an index
        // out of range) or — the interesting case — is caught by the CRC.
        assert!(
            matches!(err, GraphError::Checksum { .. } | GraphError::Invariant(_)),
            "{err}"
        );
    }

    #[test]
    fn binary_rejects_absurd_header_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC_V1);
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // n
        buf.extend_from_slice(&0u64.to_le_bytes()); // m
        let err = read_csr(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, GraphError::Capacity { .. }), "{err}");
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn text_roundtrip() {
        let g = toy();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(buf.as_slice(), 0).unwrap();
        assert_eq!(g.out_csr(), back.out_csr());
    }

    #[test]
    fn text_handles_comments_blanks_and_min_n() {
        let text = "# header\n\n0 1\n1 2\n";
        let g = read_edge_list(text.as_bytes(), 10).unwrap();
        assert_eq!(g.n(), 10);
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn text_roundtrip_keeps_trailing_isolated_nodes() {
        // Node 4 has no edges; the n= header must preserve it.
        let g = Graph::from_pairs(5, &[(0, 1), (2, 3)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(buf.as_slice(), 0).unwrap();
        assert_eq!(back.n(), 5);
        assert_eq!(g.out_csr(), back.out_csr());
    }

    #[test]
    fn text_rejects_garbage() {
        let err = read_edge_list("0 x\n".as_bytes(), 0).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn text_rejects_oversized_declaration() {
        let text = format!("# n={}\n0 1\n", u64::from(u32::MAX) + 10);
        let err = read_edge_list(text.as_bytes(), 0).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn text_rejects_duplicate_declaration() {
        let err = read_edge_list("# n=5\n# n=7\n0 1\n".as_bytes(), 0).unwrap_err();
        match err {
            GraphError::Parse { line, msg } => {
                assert_eq!(line, 2);
                assert!(msg.contains("duplicate"), "{msg}");
                assert!(msg.contains("line 1"), "{msg}");
            }
            other => panic!("expected Parse, got {other}"),
        }
    }

    #[test]
    fn text_ignores_non_numeric_n_tokens_in_comments() {
        let g = read_edge_list("# note: n=lots of nodes\n0 1\n".as_bytes(), 0).unwrap();
        assert_eq!(g.n(), 2);
    }

    #[test]
    fn file_save_load() {
        let dir = std::env::temp_dir().join("mixen_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.mxg");
        let g = toy();
        save(&g, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(g.out_csr(), back.out_csr());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load("/definitely/not/here.mxg").unwrap_err();
        assert!(matches!(err, GraphError::Io(_)), "{err}");
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = Graph::from_pairs(0, &[]);
        let mut buf = Vec::new();
        write_csr(&g, &mut buf).unwrap();
        let back = read_csr(&mut buf.as_slice()).unwrap();
        assert_eq!(back.n(), 0);
        assert_eq!(back.m(), 0);
    }
}
