//! Binary persistence for Component Hierarchies.
//!
//! The paper's economics make the CH a *reusable artifact*: it takes 2–6
//! query-times to build (their Table 5) and then serves unlimited queries
//! and thresholds. Road-network practice (their §1: "serial precomputation
//! times range from 1 to 11 hours") makes persisting such artifacts
//! mandatory. The format is little-endian, versioned, and validated on
//! load:
//!
//! ```text
//! magic "MMTCH\0"  u8 version  u64 n  u64 num_nodes  u32 root
//! parent[num_nodes]: u32      alpha[num_nodes]: u8
//! children_offsets[num_nodes+1]: u32   children[...]: u32
//! ```
//!
//! Leaf counts are recomputed on load (cheaper than storing), and the
//! structural validator runs before the hierarchy is handed back, so a
//! corrupted or truncated file can never produce wrong distances.

use crate::hierarchy::{ChAssembler, ComponentHierarchy};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 6] = b"MMTCH\0";
const VERSION: u8 = 1;

/// Errors from the CH reader.
#[derive(Debug)]
pub enum ChIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem with the file contents.
    Format(String),
}

impl std::fmt::Display for ChIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChIoError::Io(e) => write!(f, "io error: {e}"),
            ChIoError::Format(msg) => write!(f, "bad CH file: {msg}"),
        }
    }
}

impl std::error::Error for ChIoError {}

impl From<io::Error> for ChIoError {
    fn from(e: io::Error) -> Self {
        ChIoError::Io(e)
    }
}

fn bad(msg: impl Into<String>) -> ChIoError {
    ChIoError::Format(msg.into())
}

/// Serialises `ch` to `writer`.
pub fn write_ch<W: Write>(mut writer: W, ch: &ComponentHierarchy) -> io::Result<()> {
    writer.write_all(MAGIC)?;
    writer.write_all(&[VERSION])?;
    writer.write_all(&(ch.n() as u64).to_le_bytes())?;
    writer.write_all(&(ch.num_nodes() as u64).to_le_bytes())?;
    writer.write_all(&ch.root().to_le_bytes())?;
    for node in 0..ch.num_nodes() as u32 {
        writer.write_all(&ch.parent(node).to_le_bytes())?;
    }
    for node in 0..ch.num_nodes() as u32 {
        writer.write_all(&[ch.alpha(node)])?;
    }
    // Children CSR, reconstructed from the accessor.
    let mut offset = 0u32;
    writer.write_all(&offset.to_le_bytes())?;
    for node in 0..ch.num_nodes() as u32 {
        offset += ch.children(node).len() as u32;
        writer.write_all(&offset.to_le_bytes())?;
    }
    for node in 0..ch.num_nodes() as u32 {
        for &c in ch.children(node) {
            writer.write_all(&c.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Deserialises and structurally validates a hierarchy.
pub fn read_ch<R: Read>(mut reader: R) -> Result<ComponentHierarchy, ChIoError> {
    let mut magic = [0u8; 6];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("wrong magic"));
    }
    let version = read_u8(&mut reader)?;
    if version != VERSION {
        return Err(bad(format!("unsupported version {version}")));
    }
    let n = read_u64(&mut reader)? as usize;
    let num_nodes = read_u64(&mut reader)? as usize;
    let root = read_u32(&mut reader)?;
    if n == 0 || num_nodes < n || num_nodes > 64 * n.max(1) + 64 {
        return Err(bad(format!("implausible sizes n={n} nodes={num_nodes}")));
    }
    let parent: Vec<u32> = read_u32s(&mut reader, num_nodes)?;
    let mut alpha = vec![0u8; num_nodes];
    reader.read_exact(&mut alpha)?;
    let offsets: Vec<u32> = read_u32s(&mut reader, num_nodes + 1)?;
    // Every node except the root is someone's child.
    let num_children = *offsets.last().unwrap() as usize;
    if num_children != num_nodes - 1 {
        return Err(bad("children count inconsistent with node count"));
    }
    let children: Vec<u32> = read_u32s(&mut reader, num_children)?;

    // Rebuild through the assembler so leaf counts and internal layout are
    // recomputed by trusted code, then run the structural validator.
    let mut asm = ChAssembler::new(n);
    let mut has_parent = vec![false; num_nodes];
    for node in n..num_nodes {
        let lo = offsets[node] as usize;
        let hi = offsets[node + 1] as usize;
        if lo > hi || hi > children.len() {
            return Err(bad(format!("bad CSR range at node {node}")));
        }
        let kids = &children[lo..hi];
        if kids.is_empty() {
            return Err(bad(format!("internal node {node} has no children")));
        }
        for &k in kids {
            if k as usize >= node {
                return Err(bad(format!("child {k} does not precede parent {node}")));
            }
            if std::mem::replace(&mut has_parent[k as usize], true) {
                return Err(bad(format!("node {k} has two parents")));
            }
        }
        let id = asm.add_node(alpha[node], kids.iter().copied());
        if id as usize != node {
            return Err(bad("node ids not dense"));
        }
    }
    // Leaves must have empty CSR ranges.
    for leaf in 0..n {
        if offsets[leaf] != offsets[leaf + 1] {
            return Err(bad(format!("leaf {leaf} has children")));
        }
    }
    let ch = asm.finish();
    if ch.root() != root {
        return Err(bad(format!(
            "stored root {root} disagrees with reconstruction {}",
            ch.root()
        )));
    }
    // Parent array must round-trip.
    for node in 0..num_nodes as u32 {
        if ch.parent(node) != parent[node as usize] {
            return Err(bad(format!("parent mismatch at node {node}")));
        }
    }
    ch.validate(None).map_err(bad)?;
    Ok(ch)
}

fn read_u8<R: Read>(r: &mut R) -> Result<u8, ChIoError> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, ChIoError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, ChIoError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_u32s<R: Read>(r: &mut R, count: usize) -> Result<Vec<u32>, ChIoError> {
    let mut bytes = vec![0u8; count * 4];
    r.read_exact(&mut bytes)?;
    Ok(bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder_dsu::build_serial;
    use crate::ChMode;
    use mmt_graph::gen::shapes;
    use mmt_graph::gen::{GraphClass, WeightDist, WorkloadSpec};

    fn round_trip(ch: &ComponentHierarchy) -> ComponentHierarchy {
        let mut buf = Vec::new();
        write_ch(&mut buf, ch).unwrap();
        read_ch(&buf[..]).unwrap()
    }

    #[test]
    fn round_trips_exactly() {
        for mode in [ChMode::Collapsed, ChMode::Faithful] {
            let ch = build_serial(&shapes::figure_one(), mode);
            assert_eq!(round_trip(&ch), ch);
        }
        let mut spec = WorkloadSpec::new(GraphClass::Rmat, WeightDist::PolyLog, 8, 8);
        spec.seed = 66;
        let ch = build_serial(&spec.generate(), ChMode::Collapsed);
        assert_eq!(round_trip(&ch), ch);
    }

    #[test]
    fn disconnected_with_synthetic_root_round_trips() {
        let el = mmt_graph::types::EdgeList::from_triples(4, [(0, 1, 3)]);
        let ch = build_serial(&el, ChMode::Collapsed);
        assert_eq!(round_trip(&ch), ch);
    }

    #[test]
    fn rejects_wrong_magic_and_version() {
        let ch = build_serial(&shapes::path(3, 1), ChMode::Collapsed);
        let mut buf = Vec::new();
        write_ch(&mut buf, &ch).unwrap();
        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        assert!(read_ch(&bad_magic[..]).is_err());
        let mut bad_version = buf.clone();
        bad_version[6] = 99;
        assert!(read_ch(&bad_version[..]).is_err());
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let ch = build_serial(&shapes::figure_one(), ChMode::Collapsed);
        let mut buf = Vec::new();
        write_ch(&mut buf, &ch).unwrap();
        for cut in [5, 7, 20, buf.len() - 1] {
            assert!(read_ch(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn rejects_corrupted_structure() {
        let ch = build_serial(&shapes::figure_one(), ChMode::Collapsed);
        let mut buf = Vec::new();
        write_ch(&mut buf, &ch).unwrap();
        // Flip a byte somewhere in the parent array region; the validator
        // (or the round-trip checks) must catch every flip we try.
        let parent_region = 6 + 1 + 8 + 8 + 4;
        for i in 0..4 * ch.num_nodes() {
            let mut corrupt = buf.clone();
            corrupt[parent_region + i] ^= 0x41;
            assert!(read_ch(&corrupt[..]).is_err(), "flip at {i}");
        }
    }

    #[test]
    fn loaded_hierarchy_answers_queries() {
        let el = shapes::figure_one();
        let ch = round_trip(&build_serial(&el, ChMode::Collapsed));
        let g = mmt_graph::CsrGraph::from_edge_list(&el);
        ch.validate(Some(&g)).unwrap();
    }

    #[test]
    fn error_display() {
        let e = bad("boom");
        assert!(e.to_string().contains("boom"));
    }
}
