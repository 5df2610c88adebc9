//! The NoC topology: the 2D mesh of AXI crosspoints the paper evaluates
//! "due to its popularity in research and its remarkable simplicity,
//! scalability, and efficiency" (§II). A one-row mesh is a chain of
//! crosspoints.

use std::fmt;

/// A mesh direction, also used as an XP port name.
///
/// Port layout at every crosspoint: the four compass ports plus the local
/// endpoint port (see [`PORTS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dir {
    /// Towards row − 1.
    North,
    /// Towards column + 1.
    East,
    /// Towards row + 1.
    South,
    /// Towards column − 1.
    West,
}

impl Dir {
    /// All four compass directions.
    pub const ALL: [Dir; 4] = [Dir::North, Dir::East, Dir::South, Dir::West];

    /// The opposite direction (used to find the neighbour's receiving port).
    #[must_use]
    pub fn opposite(self) -> Self {
        match self {
            Dir::North => Dir::South,
            Dir::East => Dir::West,
            Dir::South => Dir::North,
            Dir::West => Dir::East,
        }
    }

    /// Port index of this direction (0..4; the local port is 4).
    #[must_use]
    pub fn port(self) -> usize {
        match self {
            Dir::North => 0,
            Dir::East => 1,
            Dir::South => 2,
            Dir::West => 3,
        }
    }
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Dir::North => "N",
            Dir::East => "E",
            Dir::South => "S",
            Dir::West => "W",
        };
        f.write_str(s)
    }
}

/// Number of ports per crosspoint: N, E, S, W + local.
pub const PORTS: usize = 5;

/// Index of the local (endpoint) port.
pub const LOCAL: usize = 4;

/// A `cols × rows` 2D mesh of crosspoints, numbered row by row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Topology {
    /// Width (number of columns).
    pub cols: usize,
    /// Height (number of rows).
    pub rows: usize,
}

impl Topology {
    /// The paper's 2×2 mesh.
    #[must_use]
    pub fn mesh2x2() -> Self {
        Topology { cols: 2, rows: 2 }
    }

    /// The paper's 4×4 mesh.
    #[must_use]
    pub fn mesh4x4() -> Self {
        Topology { cols: 4, rows: 4 }
    }

    /// Number of crosspoints (= endpoint capacity with one master and one
    /// slave per XP, per Table I's default).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.cols * self.rows
    }

    /// Validates the dimensions: at least one row and one column, and at
    /// least two nodes.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.cols >= 1 && self.rows >= 1 && self.num_nodes() >= 2
    }

    /// `(x, y)` coordinate of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn coord(&self, node: usize) -> (usize, usize) {
        assert!(node < self.num_nodes(), "node out of range");
        (node % self.cols, node / self.cols)
    }

    /// Node index at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the mesh.
    #[must_use]
    pub fn node_at(&self, x: usize, y: usize) -> usize {
        assert!(x < self.cols && y < self.rows, "coordinate out of range");
        y * self.cols + x
    }

    /// The neighbour of `node` in direction `dir`, if a link exists.
    #[must_use]
    pub fn neighbor(&self, node: usize, dir: Dir) -> Option<usize> {
        let (x, y) = self.coord(node);
        match dir {
            Dir::North => (y > 0).then(|| node - self.cols),
            Dir::South => (y + 1 < self.rows).then(|| node + self.cols),
            Dir::East => (x + 1 < self.cols).then(|| node + 1),
            Dir::West => (x > 0).then(|| node - 1),
        }
    }

    /// Minimal hop distance between two nodes: the Manhattan distance.
    #[must_use]
    pub fn hop_distance(&self, a: usize, b: usize) -> usize {
        let (ax, ay) = self.coord(a);
        let (bx, by) = self.coord(b);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    /// Number of unidirectional mesh links crossing the minimal bisection.
    ///
    /// For an `N×M` mesh cut across the longer dimension this is
    /// `2 · min(N, M)` (each cut link is a pair of opposed unidirectional
    /// channels).
    #[must_use]
    pub fn bisection_links(&self) -> usize {
        2 * self.cols.min(self.rows)
    }

    /// All directed XP→XP links as `(from, dir, to)` triples.
    #[must_use]
    pub fn links(&self) -> Vec<(usize, Dir, usize)> {
        let mut out = Vec::new();
        for node in 0..self.num_nodes() {
            for dir in Dir::ALL {
                if let Some(n) = self.neighbor(node, dir) {
                    out.push((node, dir, n));
                }
            }
        }
        out
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{} mesh", self.cols, self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_coords_roundtrip() {
        let t = Topology::mesh4x4();
        for n in 0..16 {
            let (x, y) = t.coord(n);
            assert_eq!(t.node_at(x, y), n);
        }
    }

    #[test]
    fn mesh_neighbors_respect_edges() {
        let t = Topology::mesh4x4();
        assert_eq!(t.neighbor(0, Dir::North), None);
        assert_eq!(t.neighbor(0, Dir::West), None);
        assert_eq!(t.neighbor(0, Dir::East), Some(1));
        assert_eq!(t.neighbor(0, Dir::South), Some(4));
        assert_eq!(t.neighbor(15, Dir::South), None);
        assert_eq!(t.neighbor(15, Dir::East), None);
        assert_eq!(t.neighbor(5, Dir::North), Some(1));
    }

    #[test]
    fn one_row_mesh_is_a_chain() {
        let t = Topology { cols: 8, rows: 1 };
        assert_eq!(t.neighbor(0, Dir::East), Some(1));
        assert_eq!(t.neighbor(0, Dir::West), None);
        assert_eq!(t.neighbor(7, Dir::East), None);
        assert_eq!(t.neighbor(7, Dir::West), Some(6));
        for node in 0..8 {
            assert_eq!(t.neighbor(node, Dir::North), None);
            assert_eq!(t.neighbor(node, Dir::South), None);
        }
        assert_eq!(t.hop_distance(0, 7), 7);
        assert_eq!(t.links().len(), 14);
    }

    #[test]
    fn hop_distance_mesh_is_manhattan() {
        let t = Topology::mesh4x4();
        assert_eq!(t.hop_distance(0, 15), 6);
        assert_eq!(t.hop_distance(5, 6), 1);
        assert_eq!(t.hop_distance(3, 3), 0);
    }

    #[test]
    fn bisection_link_counts() {
        assert_eq!(Topology::mesh2x2().bisection_links(), 4);
        assert_eq!(Topology::mesh4x4().bisection_links(), 8);
        assert_eq!(Topology { cols: 8, rows: 2 }.bisection_links(), 4);
        assert_eq!(Topology { cols: 16, rows: 1 }.bisection_links(), 2);
    }

    #[test]
    fn link_lists_are_symmetric() {
        for t in [
            Topology::mesh2x2(),
            Topology::mesh4x4(),
            Topology { cols: 3, rows: 3 },
            Topology { cols: 5, rows: 1 },
        ] {
            let links = t.links();
            for &(a, d, b) in &links {
                assert!(
                    links.contains(&(b, d.opposite(), a)),
                    "{t}: missing reverse of ({a},{d},{b})"
                );
            }
        }
    }

    #[test]
    fn mesh_4x4_has_48_directed_links() {
        // 24 bidirectional mesh edges → 48 directed.
        assert_eq!(Topology::mesh4x4().links().len(), 48);
    }

    #[test]
    fn opposite_is_involution() {
        for d in Dir::ALL {
            assert_eq!(d.opposite().opposite(), d);
        }
    }

    #[test]
    fn validity() {
        assert!(Topology::mesh2x2().is_valid());
        assert!(Topology { cols: 2, rows: 1 }.is_valid());
        assert!(Topology { cols: 1, rows: 2 }.is_valid());
        assert!(!Topology { cols: 1, rows: 1 }.is_valid());
        assert!(!Topology { cols: 4, rows: 0 }.is_valid());
        assert!(!Topology { cols: 0, rows: 4 }.is_valid());
    }

    #[test]
    fn display_names_the_shape() {
        assert_eq!(Topology::mesh4x4().to_string(), "4x4 mesh");
        assert_eq!(Topology { cols: 16, rows: 1 }.to_string(), "16x1 mesh");
    }
}
