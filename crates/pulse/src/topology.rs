//! Qubit connectivity graphs.
//!
//! The number of two-qubit waveforms per qubit scales with its degree
//! (Section III), so connectivity directly drives waveform-memory capacity.
//! IBM machines use a heavy-hexagonal lattice (max degree 3, average ~2);
//! Google uses a square grid (max degree 4).

/// A qubit connectivity family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// A 1-D chain (e.g. the 5-qubit IBM Bogota).
    Line,
    /// IBM's heavy-hexagonal lattice: rows of qubits joined by bridge
    /// qubits every four columns with alternating offsets.
    HeavyHex,
    /// Google's square grid (Sycamore-style).
    Grid,
}

impl Topology {
    /// The undirected coupling edges for an `n`-qubit device.
    ///
    /// Edges are returned with `a < b` and no duplicates. All generated
    /// graphs are connected for `n >= 1`.
    pub fn edges(&self, n: usize) -> Vec<(usize, usize)> {
        match self {
            Topology::Line => (1..n).map(|i| (i - 1, i)).collect(),
            Topology::Grid => grid_edges(n),
            Topology::HeavyHex => heavy_hex_edges(n),
        }
    }

    /// Per-qubit degrees for an `n`-qubit device.
    pub fn degrees(&self, n: usize) -> Vec<usize> {
        let mut deg = vec![0usize; n];
        for (a, b) in self.edges(n) {
            deg[a] += 1;
            deg[b] += 1;
        }
        deg
    }

    /// Average degree (2 * |E| / n).
    pub fn average_degree(&self, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        2.0 * self.edges(n).len() as f64 / n as f64
    }

    /// Neighbours of qubit `q` in an `n`-qubit device.
    pub fn neighbours(&self, n: usize, q: usize) -> Vec<usize> {
        self.edges(n)
            .into_iter()
            .filter_map(|(a, b)| {
                if a == q {
                    Some(b)
                } else if b == q {
                    Some(a)
                } else {
                    None
                }
            })
            .collect()
    }
}

fn grid_edges(n: usize) -> Vec<(usize, usize)> {
    if n == 0 {
        return Vec::new();
    }
    let cols = (n as f64).sqrt().ceil() as usize;
    let mut edges = Vec::new();
    for q in 0..n {
        let (r, c) = (q / cols, q % cols);
        if c + 1 < cols && q + 1 < n && (q + 1) / cols == r {
            edges.push((q, q + 1));
        }
        if q + cols < n {
            edges.push((q, q + cols));
        }
    }
    edges
}

/// Generates a heavy-hex-like lattice: qubits snake through rows of width
/// `cols` (which guarantees connectivity and degree 2 along the chain),
/// with sparse vertical rungs every 8 columns whose offset alternates
/// between row gaps — the IBM Falcon/Eagle bridge pattern. The result has
/// max degree 3 and average degree ~2.1-2.3, matching IBM machines.
fn heavy_hex_edges(n: usize) -> Vec<(usize, usize)> {
    if n <= 2 {
        return (1..n).map(|i| (i - 1, i)).collect();
    }
    let cols = ((n as f64).sqrt().ceil() as usize).next_multiple_of(4).clamp(4, 12);
    // Serpentine index of the qubit at (row, col).
    let idx = |r: usize, c: usize| r * cols + if r.is_multiple_of(2) { c } else { cols - 1 - c };
    let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
    let rows = n.div_ceil(cols);
    for gap in 0..rows.saturating_sub(1) {
        let offset = if gap % 2 == 0 { 0 } else { cols / 2 };
        let mut c = offset;
        while c < cols {
            let (a, b) = (idx(gap, c), idx(gap + 1, c));
            if a < n && b < n {
                edges.push((a.min(b), a.max(b)));
            }
            c += 8;
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_connected(n: usize, edges: &[(usize, usize)]) -> bool {
        if n == 0 {
            return true;
        }
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(q) = stack.pop() {
            for &p in &adj[q] {
                if !seen[p] {
                    seen[p] = true;
                    stack.push(p);
                }
            }
        }
        seen.iter().all(|&s| s)
    }

    #[test]
    fn line_is_a_chain() {
        let e = Topology::Line.edges(5);
        assert_eq!(e, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert!((Topology::Line.average_degree(5) - 1.6).abs() < 1e-12);
    }

    #[test]
    fn grid_has_max_degree_four() {
        for n in [4, 9, 16, 53, 100] {
            let deg = Topology::Grid.degrees(n);
            assert!(deg.iter().all(|&d| d <= 4), "n={n}");
            assert!(is_connected(n, &Topology::Grid.edges(n)), "n={n}");
        }
    }

    #[test]
    fn grid_interior_degree_is_four() {
        // 5x5 grid: the center qubit (index 12) has 4 neighbours.
        assert_eq!(Topology::Grid.degrees(25)[12], 4);
    }

    #[test]
    fn heavy_hex_has_max_degree_three() {
        for n in [5, 16, 27, 65, 127] {
            let deg = Topology::HeavyHex.degrees(n);
            assert!(deg.iter().all(|&d| d <= 3), "n={n}: max degree {}", deg.iter().max().unwrap());
        }
    }

    #[test]
    fn heavy_hex_average_degree_matches_ibm() {
        // IBM heavy-hex machines average close to degree 2 (e.g. 27-qubit
        // Falcon: 28 edges -> 2.07).
        for n in [16, 27, 65, 127] {
            let avg = Topology::HeavyHex.average_degree(n);
            assert!((1.8..=2.4).contains(&avg), "n={n}: avg degree {avg}");
        }
    }

    #[test]
    fn heavy_hex_is_connected() {
        for n in 1..=130 {
            assert!(
                is_connected(n, &Topology::HeavyHex.edges(n)),
                "heavy-hex with {n} qubits is disconnected"
            );
        }
    }

    #[test]
    fn edges_are_canonical_and_unique() {
        for topo in [Topology::Line, Topology::Grid, Topology::HeavyHex] {
            let edges = topo.edges(64);
            let mut sorted = edges.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(edges.len(), sorted.len(), "{topo:?} has duplicate edges");
            assert!(edges.iter().all(|&(a, b)| a < b), "{topo:?} has non-canonical edges");
        }
    }

    #[test]
    fn neighbours_are_symmetric() {
        let topo = Topology::HeavyHex;
        let n = 27;
        for q in 0..n {
            for p in topo.neighbours(n, q) {
                assert!(topo.neighbours(n, p).contains(&q));
            }
        }
    }
}
