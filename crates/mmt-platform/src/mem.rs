//! Byte accounting, reproducing the "memory required for a single instance"
//! column of the paper's Table 2.
//!
//! Types report their heap payload through [`MemFootprint`]; the Table 2
//! bench sums a graph, a Component Hierarchy, and a per-query instance to
//! show the paper's point: sharing one CH across queries is much cheaper
//! than giving every delta-stepping query its own copy of the graph.

/// Heap-payload accounting for benchmark reporting.
pub trait MemFootprint {
    /// Approximate number of heap bytes owned by `self` (payload only,
    /// excluding allocator slack and `size_of::<Self>()` itself).
    fn heap_bytes(&self) -> usize;
}

impl<T: Copy> MemFootprint for Vec<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
    }
}

/// A shared resident-bytes tally: registries add what they hold (graphs,
/// hierarchies), evictions subtract it, and admission checks read the
/// current total to shed work under memory pressure.
///
/// Purely advisory accounting — it tracks what callers report, not what
/// the allocator does — which is exactly what a *deterministic* admission
/// check needs: the same registrations always produce the same resident
/// figure, independent of allocator slack or timing.
#[derive(Debug, Default)]
pub struct MemoryGauge {
    resident: std::sync::atomic::AtomicUsize,
}

impl MemoryGauge {
    /// An empty gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `bytes` becoming resident; returns the new total.
    pub fn add(&self, bytes: usize) -> usize {
        self.resident
            .fetch_add(bytes, std::sync::atomic::Ordering::AcqRel)
            + bytes
    }

    /// Records `bytes` being released (saturating at zero, so a
    /// double-subtract cannot wrap); returns the new total.
    pub fn sub(&self, bytes: usize) -> usize {
        let mut cur = self.resident.load(std::sync::atomic::Ordering::Acquire);
        loop {
            let next = cur.saturating_sub(bytes);
            match self.resident.compare_exchange_weak(
                cur,
                next,
                std::sync::atomic::Ordering::AcqRel,
                std::sync::atomic::Ordering::Acquire,
            ) {
                Ok(_) => return next,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Bytes currently recorded as resident.
    pub fn resident(&self) -> usize {
        self.resident.load(std::sync::atomic::Ordering::Acquire)
    }
}

/// Peak resident set size of this process in bytes, read from the `VmHWM`
/// line of `/proc/self/status`. Returns `None` where procfs is unavailable
/// (non-Linux hosts) so the bench harness can record `null` rather than lie.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

/// Extracts `VmHWM` (kB) from `/proc/self/status` content, in bytes.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024)
}

/// Formats a byte count with a binary-unit suffix (`5.76GB` style — the
/// paper reports GB, we usually land in MB at bench scale).
pub fn fmt_bytes(bytes: usize) -> String {
    const KB: f64 = 1024.0;
    let b = bytes as f64;
    if b >= KB * KB * KB {
        format!("{:.2}GB", b / (KB * KB * KB))
    } else if b >= KB * KB {
        format!("{:.2}MB", b / (KB * KB))
    } else if b >= KB {
        format!("{:.2}KB", b / KB)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_footprint_uses_capacity() {
        let mut v: Vec<u64> = Vec::with_capacity(10);
        v.push(1);
        assert_eq!(v.heap_bytes(), 80);
    }

    #[test]
    fn vm_hwm_parses_procfs_format() {
        let status = "Name:\tmmt\nVmPeak:\t  999 kB\nVmHWM:\t   5764 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(5764 * 1024));
        assert_eq!(parse_vm_hwm("Name:\tmmt\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tgarbage kB\n"), None);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_is_positive_on_linux() {
        let rss = peak_rss_bytes().expect("procfs available");
        assert!(rss > 0);
    }

    #[test]
    fn gauge_adds_subtracts_and_saturates() {
        let g = MemoryGauge::new();
        assert_eq!(g.resident(), 0);
        assert_eq!(g.add(1000), 1000);
        assert_eq!(g.add(24), 1024);
        assert_eq!(g.sub(24), 1000);
        // Over-subtract saturates instead of wrapping.
        assert_eq!(g.sub(5000), 0);
        assert_eq!(g.resident(), 0);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.00KB");
        assert_eq!(fmt_bytes(5 * 1024 * 1024), "5.00MB");
        assert_eq!(fmt_bytes(6_184_752_906), "5.76GB");
    }
}
