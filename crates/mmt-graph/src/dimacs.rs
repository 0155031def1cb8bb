//! 9th DIMACS Implementation Challenge `.gr` format support.
//!
//! The challenge format (the one the paper's instances and reference solver
//! speak) is line-oriented ASCII:
//!
//! ```text
//! c  comment
//! p  sp <n> <m>
//! a  <u> <v> <w>      (1-based vertex ids; one line per arc)
//! ```
//!
//! The challenge generators emit each undirected edge as a *pair* of arcs;
//! writers here do the same, and the reader folds arc pairs back into
//! undirected edges (keeping genuinely asymmetric inputs as parallel edges,
//! which is the safe interpretation for an undirected solver).

use crate::types::{Edge, EdgeList, VertexId, Weight};
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;

/// Errors produced by the `.gr` reader.
#[derive(Debug)]
pub enum GrError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem with the file, with a line number and message.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        msg: String,
    },
    /// The file ended with fewer arcs than the problem line declared —
    /// the signature of a truncated download or interrupted write.
    Truncated {
        /// Arcs the `p sp` line promised.
        declared: usize,
        /// Arcs actually present.
        found: usize,
    },
    /// An arc weight parses as an integer but does not fit the 32-bit
    /// weight type.
    WeightOverflow {
        /// 1-based line number of the offending arc.
        line: usize,
        /// The overflowing value.
        value: u64,
    },
}

impl std::fmt::Display for GrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GrError::Io(e) => write!(f, "io error: {e}"),
            GrError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            GrError::Truncated { declared, found } => write!(
                f,
                "truncated input: declared {declared} arcs, found only {found}"
            ),
            GrError::WeightOverflow { line, value } => write!(
                f,
                "line {line}: weight {value} overflows the 32-bit weight type"
            ),
        }
    }
}

impl std::error::Error for GrError {}

impl From<io::Error> for GrError {
    fn from(e: io::Error) -> Self {
        GrError::Io(e)
    }
}

fn parse_err(line: usize, msg: impl Into<String>) -> GrError {
    GrError::Parse {
        line,
        msg: msg.into(),
    }
}

/// Longest accepted input line, in bytes. Arc lines are tens of bytes,
/// so the bound only rejects corrupt input (e.g. a newline-free binary
/// blob) that would otherwise be buffered wholesale.
const MAX_LINE_BYTES: u64 = 4096;

/// Reads one `\n`-terminated line into `buf` (cleared first), refusing
/// lines longer than [`MAX_LINE_BYTES`]. Returns the bytes read; `0`
/// means end of input.
fn read_line_bounded<R: BufRead>(
    reader: &mut R,
    buf: &mut String,
    lineno: usize,
) -> Result<usize, GrError> {
    buf.clear();
    let read = reader.by_ref().take(MAX_LINE_BYTES).read_line(buf)?;
    if read as u64 == MAX_LINE_BYTES && !buf.ends_with('\n') {
        return Err(parse_err(
            lineno,
            format!("line exceeds {MAX_LINE_BYTES} bytes"),
        ));
    }
    Ok(read)
}

/// What one validating scan of a `.gr` stream established.
struct GrScan {
    n: usize,
    arcs_found: usize,
}

/// Scans a `.gr` stream line by line with a bounded buffer, handing each
/// parsed arc to `on_arc`. Validates everything the format promises:
/// header shape, 1-based vertex ranges, 32-bit weights
/// ([`GrError::WeightOverflow`]), and the declared arc count
/// ([`GrError::Truncated`] when the file ends early).
fn scan_gr<R: BufRead>(reader: &mut R, mut on_arc: impl FnMut(Edge)) -> Result<GrScan, GrError> {
    let mut n: Option<usize> = None;
    let mut declared_arcs = 0usize;
    let mut arcs_found = 0usize;
    let mut buf = String::with_capacity(128);
    let mut lineno = 0usize;
    loop {
        lineno += 1;
        if read_line_bounded(reader, &mut buf, lineno)? == 0 {
            break;
        }
        let line = buf.trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_ascii_whitespace();
        match it.next() {
            Some("c") => {}
            Some("p") => {
                if n.is_some() {
                    return Err(parse_err(lineno, "duplicate problem line"));
                }
                if it.next() != Some("sp") {
                    return Err(parse_err(lineno, "expected `p sp <n> <m>`"));
                }
                let nv: usize = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| parse_err(lineno, "bad vertex count"))?;
                declared_arcs = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| parse_err(lineno, "bad arc count"))?;
                n = Some(nv);
            }
            Some("a") => {
                let n = n.ok_or_else(|| parse_err(lineno, "arc before problem line"))?;
                let u: u64 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| parse_err(lineno, "bad tail"))?;
                let v: u64 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| parse_err(lineno, "bad head"))?;
                let w: u64 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| parse_err(lineno, "bad weight"))?;
                if u == 0 || v == 0 || u as usize > n || v as usize > n {
                    return Err(parse_err(
                        lineno,
                        "vertex id out of range (ids are 1-based)",
                    ));
                }
                if w > Weight::MAX as u64 {
                    return Err(GrError::WeightOverflow {
                        line: lineno,
                        value: w,
                    });
                }
                arcs_found += 1;
                on_arc(Edge::new(
                    (u - 1) as VertexId,
                    (v - 1) as VertexId,
                    w as Weight,
                ));
            }
            Some(tok) => return Err(parse_err(lineno, format!("unknown line type `{tok}`"))),
            None => {}
        }
    }
    let n = n.ok_or_else(|| parse_err(0, "missing problem line"))?;
    if arcs_found < declared_arcs {
        return Err(GrError::Truncated {
            declared: declared_arcs,
            found: arcs_found,
        });
    }
    if arcs_found > declared_arcs {
        return Err(parse_err(
            0,
            format!("declared {declared_arcs} arcs, found {arcs_found}"),
        ));
    }
    Ok(GrScan { n, arcs_found })
}

/// Folds (u,v,w)/(v,u,w) arc pairs into undirected edges, in place: sort
/// canonical forms and take every pair; odd occurrences stay as single
/// edges (the safe interpretation of asymmetric input for an undirected
/// solver).
fn fold_symmetric(arcs: &mut Vec<Edge>) {
    for e in arcs.iter_mut() {
        *e = e.canonical();
    }
    arcs.sort_by_key(|e| (e.u, e.v, e.w));
    let mut write = 0;
    let mut i = 0;
    while i < arcs.len() {
        let e = arcs[i];
        let step = if i + 1 < arcs.len() && arcs[i + 1] == e {
            2
        } else {
            1
        };
        arcs[write] = e;
        write += 1;
        i += step;
    }
    arcs.truncate(write);
}

/// Reads a `.gr` file into an [`EdgeList`], folding symmetric arc pairs into
/// single undirected edges.
pub fn read_gr<R: BufRead>(mut reader: R) -> Result<EdgeList, GrError> {
    let mut arcs: Vec<Edge> = Vec::new();
    let scan = scan_gr(&mut reader, |e| arcs.push(e))?;
    fold_symmetric(&mut arcs);
    Ok(EdgeList {
        n: scan.n,
        edges: arcs,
    })
}

/// Files at least this large take the two-pass streaming path in
/// [`read_gr_path`].
pub const STREAM_THRESHOLD_BYTES: u64 = 64 << 20;

/// Reads a `.gr` file in two streaming passes: the first validates the
/// entire file (so a truncated tail or overflowing weight is reported
/// before any arc storage is committed) and counts arcs; the second
/// collects them into one exact-capacity allocation. Peak memory is the
/// folded arc array plus one bounded line buffer — never the file text.
pub fn read_gr_streaming<P: AsRef<Path>>(path: P) -> Result<EdgeList, GrError> {
    let path = path.as_ref();
    let mut reader = BufReader::new(File::open(path)?);
    let scan = scan_gr(&mut reader, |_| {})?;
    let mut arcs: Vec<Edge> = Vec::with_capacity(scan.arcs_found);
    let mut reader = BufReader::new(File::open(path)?);
    let rescan = scan_gr(&mut reader, |e| arcs.push(e))?;
    if rescan.n != scan.n || arcs.len() != scan.arcs_found {
        return Err(parse_err(0, "file changed between validation and read"));
    }
    fold_symmetric(&mut arcs);
    Ok(EdgeList {
        n: scan.n,
        edges: arcs,
    })
}

/// Reads a `.gr` file from disk, choosing the in-memory single-pass
/// reader for small files and the two-pass streaming reader (bounded
/// buffers, exact-capacity arc storage) for files of at least
/// [`STREAM_THRESHOLD_BYTES`]. Both paths parse identically.
pub fn read_gr_path<P: AsRef<Path>>(path: P) -> Result<EdgeList, GrError> {
    read_gr_path_with_threshold(path, STREAM_THRESHOLD_BYTES)
}

/// [`read_gr_path`] with an explicit streaming threshold (exposed so
/// tests can force either path on small files).
pub fn read_gr_path_with_threshold<P: AsRef<Path>>(
    path: P,
    threshold: u64,
) -> Result<EdgeList, GrError> {
    let path = path.as_ref();
    if std::fs::metadata(path)?.len() >= threshold {
        read_gr_streaming(path)
    } else {
        read_gr(BufReader::new(File::open(path)?))
    }
}

/// Writes an [`EdgeList`] in `.gr` form (each undirected edge as two arcs,
/// the challenge convention).
pub fn write_gr<W: Write>(mut writer: W, el: &EdgeList, comment: &str) -> io::Result<()> {
    if !comment.is_empty() {
        for line in comment.lines() {
            writeln!(writer, "c {line}")?;
        }
    }
    writeln!(writer, "p sp {} {}", el.n, 2 * el.m())?;
    for e in &el.edges {
        writeln!(writer, "a {} {} {}", e.u + 1, e.v + 1, e.w)?;
        writeln!(writer, "a {} {} {}", e.v + 1, e.u + 1, e.w)?;
    }
    Ok(())
}

/// Reads a challenge `.ss` auxiliary file: the query sources for an SSSP
/// benchmark run (`p aux sp ss <k>` header, then `s <id>` lines, 1-based).
pub fn read_sources<R: BufRead>(reader: R, n: usize) -> Result<Vec<VertexId>, GrError> {
    let mut declared: Option<usize> = None;
    let mut sources = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_ascii_whitespace();
        match it.next() {
            Some("c") => {}
            Some("p") => {
                let rest: Vec<&str> = it.collect();
                if rest.len() != 4 || rest[0] != "aux" || rest[1] != "sp" || rest[2] != "ss" {
                    return Err(parse_err(lineno, "expected `p aux sp ss <k>`"));
                }
                declared = rest[3].parse().ok();
                if declared.is_none() {
                    return Err(parse_err(lineno, "bad source count"));
                }
            }
            Some("s") => {
                let id: u64 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| parse_err(lineno, "bad source id"))?;
                if id == 0 || id as usize > n {
                    return Err(parse_err(lineno, "source id out of range"));
                }
                sources.push((id - 1) as VertexId);
            }
            Some(tok) => return Err(parse_err(lineno, format!("unknown line type `{tok}`"))),
            None => {}
        }
    }
    match declared {
        Some(k) if k != sources.len() => Err(parse_err(
            0,
            format!("declared {k} sources, found {}", sources.len()),
        )),
        None => Err(parse_err(0, "missing `p aux sp ss` line")),
        _ => Ok(sources),
    }
}

/// Writes a challenge `.ss` source file.
pub fn write_sources<W: Write>(mut writer: W, sources: &[VertexId]) -> io::Result<()> {
    writeln!(writer, "p aux sp ss {}", sources.len())?;
    for &s in sources {
        writeln!(writer, "s {}", s + 1)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_canon(el: &EdgeList) -> Vec<Edge> {
        let mut v: Vec<Edge> = el.edges.iter().map(|e| e.canonical()).collect();
        v.sort_by_key(|e| (e.u, e.v, e.w));
        v
    }

    #[test]
    fn round_trip() {
        let el = EdgeList::from_triples(4, [(0, 1, 5), (1, 2, 7), (3, 3, 2), (0, 1, 5)]);
        let mut buf = Vec::new();
        write_gr(&mut buf, &el, "test graph\nsecond line").unwrap();
        let back = read_gr(&buf[..]).unwrap();
        assert_eq!(back.n, 4);
        assert_eq!(sorted_canon(&back), sorted_canon(&el));
    }

    #[test]
    fn reads_reference_syntax() {
        let text = "c demo\np sp 3 4\na 1 2 10\na 2 1 10\na 2 3 4\na 3 2 4\n";
        let el = read_gr(text.as_bytes()).unwrap();
        assert_eq!(el.n, 3);
        assert_eq!(el.m(), 2);
        assert_eq!(
            sorted_canon(&el),
            vec![Edge::new(0, 1, 10), Edge::new(1, 2, 4)]
        );
    }

    #[test]
    fn one_directional_arc_becomes_edge() {
        let text = "p sp 2 1\na 1 2 3\n";
        let el = read_gr(text.as_bytes()).unwrap();
        assert_eq!(el.m(), 1);
        assert_eq!(el.edges[0], Edge::new(0, 1, 3));
    }

    #[test]
    fn rejects_missing_problem_line() {
        assert!(read_gr("a 1 2 3\n".as_bytes()).is_err());
        assert!(read_gr("c only comments\n".as_bytes()).is_err());
    }

    #[test]
    fn rejects_out_of_range_and_garbage() {
        assert!(read_gr("p sp 2 1\na 1 3 5\n".as_bytes()).is_err());
        assert!(read_gr("p sp 2 1\na 0 1 5\n".as_bytes()).is_err());
        assert!(read_gr("p sp 2 1\na 1 2 x\n".as_bytes()).is_err());
        assert!(read_gr("q sp 2 1\n".as_bytes()).is_err());
        assert!(read_gr("p sp 2 2\na 1 2 3\n".as_bytes()).is_err());
        assert!(read_gr("p sp 2 0\np sp 2 0\n".as_bytes()).is_err());
    }

    #[test]
    fn truncated_header_is_a_typed_parse_error() {
        // `p sp <n>` with the arc count cut off mid-line.
        let err = read_gr("p sp 10\n".as_bytes()).unwrap_err();
        assert!(
            matches!(err, GrError::Parse { line: 1, ref msg } if msg.contains("arc count")),
            "{err}"
        );
        // `p sp` with nothing after it.
        let err = read_gr("p sp\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GrError::Parse { line: 1, .. }), "{err}");
        // `p` alone is not `p sp`.
        let err = read_gr("p\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GrError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn arc_before_problem_line_is_a_typed_parse_error() {
        let err = read_gr("c header\na 1 2 3\np sp 3 1\n".as_bytes()).unwrap_err();
        assert!(
            matches!(err, GrError::Parse { line: 2, ref msg } if msg.contains("problem line")),
            "{err}"
        );
    }

    #[test]
    fn out_of_range_vertex_ids_are_typed_parse_errors() {
        // Head beyond n.
        let err = read_gr("p sp 3 1\na 1 4 2\n".as_bytes()).unwrap_err();
        assert!(
            matches!(err, GrError::Parse { line: 2, ref msg } if msg.contains("out of range")),
            "{err}"
        );
        // Id 0 in a 1-based format.
        let err = read_gr("p sp 3 1\na 0 2 2\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GrError::Parse { line: 2, .. }), "{err}");
        // An id too large for u64 parses as a bad token, not a panic.
        let err = read_gr("p sp 3 1\na 99999999999999999999999 1 2\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GrError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn truncated_arc_lines_are_typed_parse_errors() {
        for (text, what) in [
            ("p sp 3 1\na 1\n", "head"),
            ("p sp 3 1\na 1 2\n", "weight"),
            ("p sp 3 1\na\n", "tail"),
        ] {
            let err = read_gr(text.as_bytes()).unwrap_err();
            assert!(
                matches!(err, GrError::Parse { line: 2, ref msg } if msg.contains(what)),
                "{text:?}: {err}"
            );
        }
    }

    #[test]
    fn error_display_mentions_line() {
        let err = read_gr("p sp 2 1\na 9 9 9\n".as_bytes()).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("line 2"), "{text}");
    }

    /// A self-deleting temp file holding `contents`.
    struct TempGr(std::path::PathBuf);

    impl TempGr {
        fn new(tag: &str, contents: &[u8]) -> Self {
            let path =
                std::env::temp_dir().join(format!("mmt-dimacs-{}-{tag}.gr", std::process::id()));
            std::fs::write(&path, contents).unwrap();
            Self(path)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempGr {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn streaming_reader_matches_in_memory_reader() {
        // A workload with duplicate edges and self-loops exercises the
        // fold; both readers must agree byte for byte on the result.
        let el = EdgeList::from_triples(
            6,
            [
                (0, 1, 5),
                (1, 2, 7),
                (3, 3, 2),
                (0, 1, 5),
                (4, 5, 1),
                (2, 4, 9),
            ],
        );
        let mut buf = Vec::new();
        write_gr(&mut buf, &el, "streaming equality fixture").unwrap();
        let file = TempGr::new("stream-eq", &buf);
        let in_memory = read_gr(&buf[..]).unwrap();
        let streamed = read_gr_streaming(file.path()).unwrap();
        assert_eq!(streamed.n, in_memory.n);
        assert_eq!(sorted_canon(&streamed), sorted_canon(&in_memory));
        // And the CSR built from either is identical.
        let a = crate::CsrGraph::from_edge_list(&in_memory);
        let b = crate::CsrGraph::from_edge_list(&streamed);
        assert_eq!(a.n(), b.n());
        assert_eq!(a.m(), b.m());
        for v in 0..a.n() as VertexId {
            let (ha, wa) = a.neighbors(v);
            let (hb, wb) = b.neighbors(v);
            let mut na: Vec<_> = ha.iter().zip(wa).collect();
            let mut nb: Vec<_> = hb.iter().zip(wb).collect();
            na.sort_unstable();
            nb.sort_unstable();
            assert_eq!(na, nb, "vertex {v}");
        }
    }

    #[test]
    fn read_gr_path_takes_both_routes() {
        let el = EdgeList::from_triples(3, [(0, 1, 4), (1, 2, 6)]);
        let mut buf = Vec::new();
        write_gr(&mut buf, &el, "").unwrap();
        let file = TempGr::new("both-routes", &buf);
        // Threshold 0: every file streams. Threshold u64::MAX: none does.
        let streamed = read_gr_path_with_threshold(file.path(), 0).unwrap();
        let buffered = read_gr_path_with_threshold(file.path(), u64::MAX).unwrap();
        assert_eq!(sorted_canon(&streamed), sorted_canon(&buffered));
        assert_eq!(
            sorted_canon(&read_gr_path(file.path()).unwrap()),
            sorted_canon(&el)
        );
    }

    #[test]
    fn truncated_file_is_a_typed_error_on_both_paths() {
        // Declares 4 arcs, delivers 2 — a cut-off download.
        let text = b"p sp 3 4\na 1 2 10\na 2 1 10\n";
        let err = read_gr(&text[..]).unwrap_err();
        assert!(
            matches!(
                err,
                GrError::Truncated {
                    declared: 4,
                    found: 2
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("truncated"), "{err}");
        let file = TempGr::new("truncated", text);
        let err = read_gr_streaming(file.path()).unwrap_err();
        assert!(matches!(err, GrError::Truncated { .. }), "{err}");
    }

    #[test]
    fn weight_overflow_is_a_typed_error_on_both_paths() {
        // 2^32 does not fit the 32-bit weight type.
        let text = b"p sp 2 1\na 1 2 4294967296\n";
        let err = read_gr(&text[..]).unwrap_err();
        assert!(
            matches!(
                err,
                GrError::WeightOverflow {
                    line: 2,
                    value: 4294967296
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("overflows"), "{err}");
        let file = TempGr::new("overflow", text);
        let err = read_gr_streaming(file.path()).unwrap_err();
        assert!(matches!(err, GrError::WeightOverflow { .. }), "{err}");
        // u32::MAX itself is fine.
        let ok = read_gr(&b"p sp 2 1\na 1 2 4294967295\n"[..]).unwrap();
        assert_eq!(ok.edges[0].w, u32::MAX);
    }

    #[test]
    fn unbounded_line_is_rejected_not_buffered() {
        // A newline-free blob longer than the line bound must fail with a
        // typed parse error instead of being slurped into memory.
        let mut text = b"p sp 2 1\nc ".to_vec();
        text.extend(std::iter::repeat_n(b'x', 2 * MAX_LINE_BYTES as usize));
        let err = read_gr(&text[..]).unwrap_err();
        assert!(
            matches!(err, GrError::Parse { line: 2, ref msg } if msg.contains("exceeds")),
            "{err}"
        );
    }

    #[test]
    fn sources_round_trip() {
        let sources = vec![0u32, 5, 2, 5];
        let mut buf = Vec::new();
        write_sources(&mut buf, &sources).unwrap();
        let back = read_sources(&buf[..], 6).unwrap();
        assert_eq!(back, sources);
    }

    #[test]
    fn sources_reject_bad_input() {
        assert!(read_sources("s 1\n".as_bytes(), 5).is_err()); // no header
        assert!(read_sources("p aux sp ss 2\ns 1\n".as_bytes(), 5).is_err()); // count
        assert!(read_sources("p aux sp ss 1\ns 9\n".as_bytes(), 5).is_err()); // range
        assert!(read_sources("p aux sp ss 1\ns 0\n".as_bytes(), 5).is_err()); // 1-based
        assert!(read_sources("p aux sp wrong 1\n".as_bytes(), 5).is_err());
        // comments and blank lines are fine
        let ok = read_sources("c hi\n\np aux sp ss 1\ns 3\n".as_bytes(), 5).unwrap();
        assert_eq!(ok, vec![2]);
    }
}
