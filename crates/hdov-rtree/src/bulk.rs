//! STR (Sort-Tile-Recursive) bulk loading.
//!
//! The paper builds its index once over a static scene, which is exactly the
//! case bulk loading excels at: near-100% fill, minimal overlap, and a flat
//! construction cost. Provided alongside Guttman insertion so the ablation
//! benches can compare backbone quality.

use crate::entry::Entry;
use crate::node::{Node, MAX_ENTRIES};
use crate::split::SplitMethod;
use crate::tree::RTree;
use hdov_geom::Aabb;
use hdov_storage::{PagedFile, Result};

/// The fill factor every bulk-loaded backbone in the workspace uses (the
/// paper-era default).
pub const FILL: f64 = 0.7;

/// Bulk loads `items` into a fresh tree over `file` using STR at the full
/// page fan-out.
///
/// `fill` is the target entries-per-node in `(0, 1]` of capacity (see
/// [`FILL`]).
pub fn bulk_load<F: PagedFile>(file: F, items: Vec<(Aabb, u64)>, fill: f64) -> Result<RTree<F>> {
    bulk_load_with_fanout(file, items, fill, MAX_ENTRIES)
}

/// [`bulk_load`] with a capped fan-out `M = max_entries` (see
/// [`RTree::with_fanout`]).
pub fn bulk_load_with_fanout<F: PagedFile>(
    mut file: F,
    mut items: Vec<(Aabb, u64)>,
    fill: f64,
    max_entries: usize,
) -> Result<RTree<F>> {
    assert!(fill > 0.0 && fill <= 1.0, "fill factor out of range");
    let per_node = ((max_entries as f64 * fill).floor() as usize).clamp(2, max_entries);

    if items.is_empty() {
        return RTree::with_fanout(file, SplitMethod::AngTanLinear, max_entries);
    }
    let object_count = items.len() as u64;

    // STR tiling of the leaf level.
    let leaf_count = items.len().div_ceil(per_node);
    let slabs = (leaf_count as f64).cbrt().ceil() as usize; // slices along x
    sort_by_center(&mut items, 0);
    let per_slab_x = items.len().div_ceil(slabs);

    let mut leaves: Vec<Node> = Vec::with_capacity(leaf_count);
    for chunk_x in items.chunks_mut(per_slab_x.max(1)) {
        sort_by_center_entryless(chunk_x, 1);
        let runs_y = chunk_x.len().div_ceil(per_node * slabs.max(1));
        let per_run_y = chunk_x.len().div_ceil(runs_y.max(1));
        for chunk_y in chunk_x.chunks_mut(per_run_y.max(1)) {
            sort_by_center_entryless(chunk_y, 2);
            for group in balanced_chunks(chunk_y, per_node) {
                let mut node = Node::new(true);
                node.entries
                    .extend(group.iter().map(|&(mbr, id)| Entry::object(mbr, id)));
                leaves.push(node);
            }
        }
    }

    // Write the leaf level, then build parents bottom-up.
    let mut node_count = 0u64;
    let mut level: Vec<Entry> = Vec::with_capacity(leaves.len());
    for node in &leaves {
        let page = file.allocate_page()?;
        file.write_page(page, &node.encode())?;
        node_count += 1;
        level.push(Entry::node(node.mbr(), page));
    }
    let mut height = 1u32;
    while level.len() > 1 {
        let mut next: Vec<Entry> = Vec::with_capacity(level.len().div_ceil(per_node));
        // Parents group children in x-sorted order for locality.
        level.sort_by(|a, b| {
            a.mbr
                .center()
                .x
                .partial_cmp(&b.mbr.center().x)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for group in balanced_chunks(&level, per_node) {
            let mut node = Node::new(false);
            node.entries.extend_from_slice(group);
            let page = file.allocate_page()?;
            file.write_page(page, &node.encode())?;
            node_count += 1;
            next.push(Entry::node(node.mbr(), page));
        }
        level = next;
        height += 1;
    }
    let root = level[0].child.as_node().expect("root entry is a node");
    Ok(RTree::from_parts(
        file,
        root,
        height,
        SplitMethod::AngTanLinear,
        node_count,
        object_count,
        max_entries,
    ))
}

/// Splits `items` into `ceil(len / per_node)` chunks whose sizes differ by
/// at most one, so no chunk is left with a tiny remainder (which would
/// violate the R-tree's minimum-fill invariant).
fn balanced_chunks<T>(items: &[T], per_node: usize) -> impl Iterator<Item = &[T]> {
    let count = items.len().div_ceil(per_node).max(1);
    let base = items.len() / count;
    let extra = items.len() % count;
    let mut start = 0;
    (0..count).map_while(move |i| {
        let size = base + usize::from(i < extra);
        if size == 0 {
            return None;
        }
        let chunk = &items[start..start + size];
        start += size;
        Some(chunk)
    })
}

fn sort_by_center(items: &mut [(Aabb, u64)], axis: usize) {
    items.sort_by(|a, b| {
        a.0.center()[axis]
            .partial_cmp(&b.0.center()[axis])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
}

// Identical but named for chunk passes (separate fn keeps call sites clear).
fn sort_by_center_entryless(items: &mut [(Aabb, u64)], axis: usize) {
    sort_by_center(items, axis);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdov_geom::Vec3;
    use hdov_storage::MemPagedFile;

    fn boxes(n: usize) -> Vec<(Aabb, u64)> {
        let mut s = 99u64;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 33) as f64) / (u32::MAX as f64) * 500.0
        };
        (0..n)
            .map(|i| {
                let p = Vec3::new(next(), next(), next());
                (Aabb::new(p, p + Vec3::splat(2.0)), i as u64)
            })
            .collect()
    }

    #[test]
    fn empty_bulk_load() {
        let t = bulk_load(MemPagedFile::new(), vec![], 0.7).unwrap();
        assert_eq!(t.stats().object_count, 0);
    }

    #[test]
    fn bulk_load_validates_and_answers_queries() {
        let items = boxes(2000);
        let mut t = bulk_load(MemPagedFile::new(), items.clone(), 0.7).unwrap();
        t.validate().unwrap();
        assert_eq!(t.stats().object_count, 2000);
        let q = Aabb::new(Vec3::splat(100.0), Vec3::splat(250.0));
        let mut got: Vec<u64> = t
            .window_query(&q)
            .unwrap()
            .into_iter()
            .map(|x| x.0)
            .collect();
        got.sort_unstable();
        let mut expect: Vec<u64> = items
            .iter()
            .filter(|(m, _)| m.intersects(&q))
            .map(|&(_, id)| id)
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn bulk_load_is_compact() {
        let items = boxes(2000);
        let bulk = bulk_load(MemPagedFile::new(), items.clone(), 0.9).unwrap();
        let mut ins = RTree::new(MemPagedFile::new(), SplitMethod::AngTanLinear).unwrap();
        for (m, id) in items {
            ins.insert(m, id).unwrap();
        }
        assert!(
            bulk.stats().node_count <= ins.stats().node_count,
            "bulk {} vs insert {}",
            bulk.stats().node_count,
            ins.stats().node_count
        );
    }

    #[test]
    fn bulk_with_fanout_is_deeper_and_correct() {
        let items = boxes(600);
        let mut t = bulk_load_with_fanout(MemPagedFile::new(), items.clone(), 0.7, 8).unwrap();
        t.validate().unwrap();
        assert!(t.stats().height >= 3, "height {}", t.stats().height);
        let q = Aabb::new(Vec3::splat(0.0), Vec3::splat(250.0));
        let mut got: Vec<u64> = t
            .window_query(&q)
            .unwrap()
            .into_iter()
            .map(|x| x.0)
            .collect();
        got.sort_unstable();
        let mut expect: Vec<u64> = items
            .iter()
            .filter(|(m, _)| m.intersects(&q))
            .map(|&(_, id)| id)
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn single_item() {
        let mut t = bulk_load(
            MemPagedFile::new(),
            vec![(Aabb::new(Vec3::ZERO, Vec3::splat(1.0)), 5)],
            0.7,
        )
        .unwrap();
        t.validate().unwrap();
        assert_eq!(t.stats().height, 1);
        assert_eq!(t.point_query(Vec3::splat(0.5)).unwrap(), vec![5]);
    }
}
