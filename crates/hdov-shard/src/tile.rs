//! The tile map: which shard owns which viewing cells.
//!
//! The city grid is carved into a near-square lattice of spatial tiles, one
//! tile per shard, so each shard's objects and V-pages are spatially
//! coherent (the decomposition argument of the urban-LoD and viewshed work
//! cited in PAPERS.md: city scenes split cleanly along tile boundaries).
//! The map is a pure function of `(grid resolution, shard count)` — every
//! router over the same environment derives the same ownership.

use hdov_visibility::{CellGrid, CellId};

/// Assignment of viewing cells (and, through them, objects) to shards.
#[derive(Debug, Clone)]
pub struct TileMap {
    tiles_x: usize,
    tiles_y: usize,
    cell_shard: Vec<u32>,
}

impl TileMap {
    /// Carves `grid` into `shards` spatial tiles: a `tx × ty` lattice with
    /// `tx = ceil(√shards)` columns, rows to cover the rest, and the last
    /// tile absorbing any remainder, each cell mapped to the tile containing
    /// it.
    pub fn new(grid: &CellGrid, shards: usize) -> TileMap {
        assert!(shards >= 1, "need at least one shard");
        let (nx, ny) = grid.resolution();
        let tiles_x = (shards as f64).sqrt().ceil() as usize;
        let tiles_y = shards.div_ceil(tiles_x);
        let cell_shard = (0..grid.cell_count())
            .map(|c| {
                let ix = c % nx;
                let iy = c / nx;
                let tx = (ix * tiles_x / nx).min(tiles_x - 1);
                let ty = (iy * tiles_y / ny).min(tiles_y - 1);
                ((ty * tiles_x + tx).min(shards - 1)) as u32
            })
            .collect();
        TileMap {
            tiles_x,
            tiles_y,
            cell_shard,
        }
    }

    /// The tile lattice `(columns, rows)`.
    pub fn tile_grid(&self) -> (usize, usize) {
        (self.tiles_x, self.tiles_y)
    }

    /// The shard owning viewing cell `cell`.
    pub fn shard_of_cell(&self, cell: CellId) -> usize {
        self.cell_shard[cell as usize] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdov_geom::{Aabb, Vec3};
    use hdov_visibility::CellGridConfig;

    fn grid(nx: usize, ny: usize) -> CellGrid {
        CellGridConfig {
            region: Aabb::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(100.0, 100.0, 10.0)),
            nx,
            ny,
        }
        .build()
    }

    #[test]
    fn every_cell_gets_a_valid_shard_and_every_shard_gets_cells() {
        for shards in 1..=6 {
            let g = grid(6, 6);
            let t = TileMap::new(&g, shards);
            let mut seen = vec![false; shards];
            for c in 0..g.cell_count() {
                let s = t.shard_of_cell(c as CellId);
                assert!(s < shards);
                seen[s] = true;
            }
            assert!(
                seen.iter().all(|&x| x),
                "{shards} shards over a 6x6 grid must all own cells"
            );
        }
    }

    #[test]
    fn tiles_are_spatially_contiguous_column_bands() {
        let g = grid(8, 8);
        let t = TileMap::new(&g, 4); // 2×2 tile lattice
        assert_eq!(t.tile_grid(), (2, 2));
        // Four quadrants: cell (0,0) and (7,7) land on different shards,
        // neighbors within a quadrant share one.
        assert_eq!(t.shard_of_cell(0), t.shard_of_cell(1));
        assert_ne!(t.shard_of_cell(0), t.shard_of_cell(7));
        assert_ne!(t.shard_of_cell(0), t.shard_of_cell(63));
    }

    #[test]
    fn single_shard_owns_everything() {
        let g = grid(5, 3);
        let t = TileMap::new(&g, 1);
        for c in 0..g.cell_count() {
            assert_eq!(t.shard_of_cell(c as CellId), 0);
        }
    }
}
