//! Mutable scenes: object-level edits over the HDoV environment.
//!
//! The paper's environments are frozen at build time; this module layers a
//! write path on top. A [`MutableScene`] owns
//!
//! * a WAL-durable [`MutableStore`] holding the
//!   scene's persistent state as three page files — `objects` (placement
//!   records), `dov` (the handle-keyed visibility table), `backbone` (the raw
//!   R-tree pages),
//! * the live R-tree backbone the edits go through, and
//! * a published [`SharedEnvironment`] readers query.
//!
//! Edits ([`insert`](MutableScene::insert), [`remove`](MutableScene::remove),
//! [`translate`](MutableScene::translate)) stage against a working set;
//! [`commit`](MutableScene::commit) computes the **dirty cell set** from the
//! moved bounding boxes ([`DovTable::affected_cells`]), re-estimates only
//! those cells ([`DovTable::recompute_cells`]), page-diffs the re-encoded
//! state against the previous epoch's images so the WAL carries only changed
//! pages, commits, and republishes the derived environment (V-pages, node
//! pages, internal LoDs rebuilt over the patched visibility).
//!
//! Readers are wait-free: they hold an `Arc` of the environment published at
//! some epoch ([`current`](MutableScene::current)), and a commit swaps in a
//! freshly built `Arc` without touching the one in-flight sessions pinned.
//!
//! Crash recovery is the store's: reopening replays the WAL, so
//! [`open`](MutableScene::open) reconstructs exactly the last committed
//! epoch — the acceptance test truncates and corrupts the log at every byte
//! boundary and checks answers stay byte-identical to a never-crashed oracle
//! (see the `crash_torture` bench bin).
//!
//! ## Handles vs. dense ids
//!
//! The frozen stack assumes dense object ids (`id == index`). A mutable scene
//! cannot: deleting object 3 must not renumber object 4 under a live handle.
//! So the durable state — placement records, DoV entries, backbone payloads —
//! is keyed by stable `u64` *handles* that are never reused, and each commit
//! derives the dense view (handle rank order) for the rebuilt environment,
//! threading a handle→dense remap through the tree lift
//! (`HdovTree::build_from_backbone`). Both directions of the translation are
//! monotonic, so sorted DoV entry lists stay sorted.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use hdov_geom::{Aabb, Vec3};
use hdov_obs::Counter;
use hdov_rtree::{RTree, SplitMethod};
use hdov_scene::{ObjectKind, PrototypeLibrary, Scene, SceneObject};
use hdov_storage::{
    MemPagedFile, MutableStore, Page, PageId, PagedFile, Result, StorageError, PAGE_SIZE,
};
use hdov_visibility::{CellGrid, CellGridConfig, CellId, DovTable};

use crate::shared::{PoolConfig, SharedEnvironment, SharedModels};
use crate::{HdovBuildConfig, HdovTree, StorageScheme};

/// Stable identifier of an object in a mutable scene. Unlike the frozen
/// stack's dense [`ObjectId`](hdov_scene::ObjectId), handles survive
/// deletions of other objects and are never reused.
pub type ObjectHandle = u64;

/// File names of a mutable scene's store, in file-id order.
pub const SCENE_FILES: [&str; 3] = ["objects", "dov", "backbone"];

const OBJ_MAGIC: &[u8; 8] = b"HDOVOBJ1";
const DOV_MAGIC: &[u8; 8] = b"HDOVDOV1";
const BKB_MAGIC: &[u8; 8] = b"HDOVBKB1";
const FORMAT_VERSION: u32 = 1;
/// Bytes per placement record (page-aligned: 64 records per page).
const RECORD_LEN: usize = 64;
const RECORDS_PER_PAGE: usize = PAGE_SIZE / RECORD_LEN;

/// A committed object's placement, as returned by
/// [`MutableScene::object`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectInfo {
    /// Model kind.
    pub kind: ObjectKind,
    /// Index into the scene's prototype library.
    pub prototype: usize,
    /// World-space bounding box.
    pub mbr: Aabb,
}

/// A deferred backbone mutation, replayed in stage order at commit.
#[derive(Debug, Clone, Copy)]
enum RtOp {
    Insert(Aabb, u64),
    Delete(Aabb, u64),
}

/// The staged (uncommitted) state of a transaction in progress.
#[derive(Debug)]
struct WorkingSet {
    /// The object map with all staged edits applied.
    objects: BTreeMap<ObjectHandle, ObjectInfo>,
    /// Handles (as DoV keys) that existed at the last commit and were moved
    /// or removed — their previous visibility forces a recompute wherever
    /// they appeared.
    changed_old: Vec<u32>,
    /// Old *and* new bounding boxes of every edit.
    regions: Vec<Aabb>,
    /// Backbone mutations, in stage order.
    rtree_ops: Vec<RtOp>,
    /// Number of staged edit calls (diagnostics).
    edits: usize,
}

/// An editable scene over a WAL-durable store. See the module docs for the
/// commit pipeline and recovery story.
pub struct MutableScene {
    store: MutableStore,
    prototypes: PrototypeLibrary,
    cfg: HdovBuildConfig,
    scheme: StorageScheme,
    pool: PoolConfig,
    grid: Arc<CellGrid>,
    grid_cfg: CellGridConfig,
    /// Committed placements, keyed by handle.
    objects: BTreeMap<ObjectHandle, ObjectInfo>,
    next_handle: u64,
    /// The live backbone; entry payloads are handles.
    rtree: RTree<MemPagedFile>,
    /// Committed visibility, keyed by handle (`u32`-narrowed).
    dov: DovTable,
    /// Last committed page images per file (file-id order), for diffing.
    images: Vec<Vec<Vec<u8>>>,
    working: Option<WorkingSet>,
    shared: Arc<SharedEnvironment>,
}

impl MutableScene {
    /// Creates a mutable scene named `name` under `dir` from an initial
    /// (dense-id) scene: estimates visibility, builds the backbone by
    /// insertion (the mutable path ignores `cfg.bulk_load` — bulk loading
    /// assumes a frozen object set), persists epoch-0 bases plus a fresh
    /// WAL, and publishes the first environment.
    ///
    /// Initial handles equal the scene's dense ids.
    pub fn create(
        dir: &Path,
        name: &str,
        scene: &Scene,
        grid_cfg: &CellGridConfig,
        cfg: HdovBuildConfig,
        scheme: StorageScheme,
        pool: PoolConfig,
    ) -> Result<MutableScene> {
        if scene.is_empty() {
            return Err(StorageError::Corrupt(
                "a mutable scene needs at least one initial object".into(),
            ));
        }
        let grid = Arc::new(grid_cfg.build());
        // Dense ids double as the initial handles, so the computed table is
        // already handle-keyed.
        let dov = DovTable::compute(scene, &grid, &cfg.dov, cfg.threads);
        let mut objects = BTreeMap::new();
        let mut rtree = RTree::with_fanout(MemPagedFile::new(), cfg.split, cfg.fanout)?;
        for o in scene.objects() {
            assert!(o.id < u32::MAX as u64, "DoV entries key objects by u32");
            objects.insert(
                o.id,
                ObjectInfo {
                    kind: o.kind,
                    prototype: o.prototype,
                    mbr: o.mbr,
                },
            );
            rtree.insert(o.mbr, o.id)?;
        }
        let next_handle = scene.len() as u64;
        let images = encode_images(&objects, next_handle, grid_cfg, &cfg, &dov, &mut rtree)?;
        let store = MutableStore::create(
            dir,
            name,
            &SCENE_FILES
                .iter()
                .zip(images.iter())
                .map(|(n, pages)| (*n, pages.clone()))
                .collect::<Vec<_>>(),
        )?;
        let handles: Vec<u64> = objects.keys().copied().collect();
        let dense = dense_table(&dov, &handles, cfg.dov.rays_per_viewpoint);
        let shared = publish(
            &dense_scene(&objects, &handles, scene.prototypes()),
            &handles,
            &grid,
            &cfg,
            scheme,
            pool,
            dense,
            &mut rtree,
            None,
        )?;
        Ok(MutableScene {
            store,
            prototypes: scene.prototypes().clone(),
            cfg,
            scheme,
            pool,
            grid,
            grid_cfg: grid_cfg.clone(),
            objects,
            next_handle,
            rtree,
            dov,
            images,
            working: None,
            shared,
        })
    }

    /// Opens an existing mutable scene: the store replays the WAL (torn
    /// tails discarded), then the placement records, DoV table, and backbone
    /// pages are decoded from the recovered epoch and the environment is
    /// rebuilt and published.
    ///
    /// The prototype library is not persisted (it is heavyweight geometry,
    /// reproducible from the scene generator's seed) and must be supplied;
    /// `cfg.dov` must match the table's original ray count.
    pub fn open(
        dir: &Path,
        name: &str,
        prototypes: PrototypeLibrary,
        cfg: HdovBuildConfig,
        scheme: StorageScheme,
        pool: PoolConfig,
    ) -> Result<MutableScene> {
        let store = MutableStore::open(dir, name, &SCENE_FILES)?;
        let snap = store.snapshot();
        let mut images = Vec::with_capacity(SCENE_FILES.len());
        for fid in 0..SCENE_FILES.len() as u32 {
            let pages = snap
                .materialize(fid)?
                .into_iter()
                .map(Vec::from)
                .collect::<Vec<_>>();
            images.push(pages);
        }

        // File 0: header + placement records.
        let (objects, next_handle, grid_cfg) = decode_objects(&images[0], &prototypes)?;
        let grid = Arc::new(grid_cfg.build());

        // File 1: the handle-keyed DoV table.
        let dov = decode_dov(&images[1])?;
        if dov.cell_count() != grid.cell_count() {
            return Err(corrupt("DoV table does not match the stored cell grid"));
        }
        if dov.rays_per_viewpoint() != cfg.dov.rays_per_viewpoint {
            return Err(corrupt(
                "cfg.dov.rays_per_viewpoint differs from the stored table's",
            ));
        }

        // File 2: the raw backbone pages.
        let mut rtree = decode_backbone(&images[2])?;

        let handles: Vec<u64> = objects.keys().copied().collect();
        let dense = dense_table(&dov, &handles, cfg.dov.rays_per_viewpoint);
        let shared = publish(
            &dense_scene(&objects, &handles, &prototypes),
            &handles,
            &grid,
            &cfg,
            scheme,
            pool,
            dense,
            &mut rtree,
            None,
        )?;
        Ok(MutableScene {
            store,
            prototypes,
            cfg,
            scheme,
            pool,
            grid,
            grid_cfg,
            objects,
            next_handle,
            rtree,
            dov,
            images,
            working: None,
            shared,
        })
    }

    fn working(&mut self) -> &mut WorkingSet {
        let objects = &self.objects;
        self.working.get_or_insert_with(|| WorkingSet {
            objects: objects.clone(),
            changed_old: Vec::new(),
            regions: Vec::new(),
            rtree_ops: Vec::new(),
            edits: 0,
        })
    }

    /// Stages the insertion of a new object; returns its handle. Staged
    /// edits become visible (and durable) at [`commit`](Self::commit).
    pub fn insert(
        &mut self,
        kind: ObjectKind,
        prototype: usize,
        mbr: Aabb,
    ) -> Result<ObjectHandle> {
        if prototype >= self.prototypes.len() {
            return Err(corrupt("insert references an unknown prototype"));
        }
        if mbr.is_empty() {
            return Err(corrupt("insert with an empty bounding box"));
        }
        assert!(
            self.next_handle < u32::MAX as u64,
            "handle space exhausted (DoV entries key objects by u32)"
        );
        let handle = self.next_handle;
        self.next_handle += 1; // never reused, even if this edit rolls back
        let w = self.working();
        w.objects.insert(
            handle,
            ObjectInfo {
                kind,
                prototype,
                mbr,
            },
        );
        w.regions.push(mbr);
        w.rtree_ops.push(RtOp::Insert(mbr, handle));
        w.edits += 1;
        Ok(handle)
    }

    /// Stages the removal of `handle`.
    pub fn remove(&mut self, handle: ObjectHandle) -> Result<()> {
        let committed = self.objects.contains_key(&handle);
        let w = self.working();
        let Some(rec) = w.objects.remove(&handle) else {
            return Err(corrupt("remove references an unknown object handle"));
        };
        w.regions.push(rec.mbr);
        if committed {
            w.changed_old.push(handle as u32);
        }
        w.rtree_ops.push(RtOp::Delete(rec.mbr, handle));
        w.edits += 1;
        Ok(())
    }

    /// Stages a rigid translation of `handle` by `delta` (the object's world
    /// placement is a pure function of its bounding box, so moving the box
    /// moves the geometry).
    pub fn translate(&mut self, handle: ObjectHandle, delta: Vec3) -> Result<()> {
        let committed = self.objects.contains_key(&handle);
        let w = self.working();
        let Some(rec) = w.objects.get_mut(&handle) else {
            return Err(corrupt("translate references an unknown object handle"));
        };
        let old = rec.mbr;
        let new = Aabb {
            min: old.min + delta,
            max: old.max + delta,
        };
        rec.mbr = new;
        w.regions.push(old);
        w.regions.push(new);
        if committed {
            w.changed_old.push(handle as u32);
        }
        w.rtree_ops.push(RtOp::Delete(old, handle));
        w.rtree_ops.push(RtOp::Insert(new, handle));
        w.edits += 1;
        Ok(())
    }

    /// Discards every staged edit. (Handles allocated by staged inserts are
    /// *not* returned to the pool — handles are never reused.)
    pub fn rollback(&mut self) {
        self.working = None;
    }

    /// Number of staged (uncommitted) edits.
    pub fn pending_edits(&self) -> usize {
        self.working.as_ref().map_or(0, |w| w.edits)
    }

    /// Commits every staged edit as one durable transaction and returns the
    /// new epoch (or the current one when nothing is staged).
    ///
    /// Pipeline: apply the staged backbone mutations; compute the dirty cell
    /// set from the *previous* table (old visibility of moved objects, plus
    /// cells whose unoccluded solid-angle bound on any changed region
    /// reaches the estimator's resolution); materialise the dense scene;
    /// re-estimate only the dirty cells; page-diff the re-encoded files
    /// against the previous epoch's images; WAL-commit the changed pages;
    /// rebuild and publish the derived environment.
    ///
    /// An I/O error mid-commit leaves the in-memory instance inconsistent
    /// with the durable state — drop it and [`open`](Self::open) again (the
    /// store itself is never torn: the WAL either carries the full commit or
    /// none of it).
    pub fn commit(&mut self) -> Result<u64> {
        let Some(w) = self.working.take() else {
            return Ok(self.store.epoch());
        };
        if w.objects.is_empty() {
            self.working = Some(w);
            return Err(corrupt("cannot commit an empty scene"));
        }

        // 1. Backbone. Deletes use the exact MBR staged for them, so a
        //    failure here means internal corruption, not user error.
        for op in &w.rtree_ops {
            match *op {
                RtOp::Insert(mbr, h) => self.rtree.insert(mbr, h)?,
                RtOp::Delete(mbr, h) => {
                    if !self.rtree.delete(mbr, h)? {
                        return Err(corrupt("backbone entry missing during commit"));
                    }
                }
            }
        }

        // 2. Dirty cells, judged against the previous epoch's visibility.
        let dirty = self
            .dov
            .affected_cells(&self.grid, &self.cfg.dov, &w.changed_old, &w.regions);
        hdov_obs::add(Counter::DovRepatches, dirty.len() as u64);

        // 3. Dense view of the edited scene. The model bank follows the
        //    dense prototype sequence alone, so a commit that keeps it
        //    (translations only) shares the previous epoch's bank.
        let keeps_bank = self
            .objects
            .values()
            .map(|r| r.prototype)
            .eq(w.objects.values().map(|r| r.prototype));
        self.objects = w.objects;
        let handles: Vec<u64> = self.objects.keys().copied().collect();
        let scene = dense_scene(&self.objects, &handles, &self.prototypes);

        // 4. Translate the surviving visibility to dense keys and
        //    re-estimate only the dirty cells.
        let mut dense = dense_table(&self.dov, &handles, self.cfg.dov.rays_per_viewpoint);
        dense.recompute_cells(&scene, &self.grid, &self.cfg.dov, &dirty);

        // 5. Back to handle keys for the durable image.
        self.dov = handle_table(&dense, &handles);

        // 6. Encode, page-diff, WAL-commit.
        let images = encode_images(
            &self.objects,
            self.next_handle,
            &self.grid_cfg,
            &self.cfg,
            &self.dov,
            &mut self.rtree,
        )?;
        let mut txn = self.store.begin();
        for (fid, new_pages) in images.iter().enumerate() {
            let old_pages = &self.images[fid];
            for (pid, page) in new_pages.iter().enumerate() {
                if old_pages.get(pid) != Some(page) {
                    txn.write_page(fid as u32, pid as u64, page);
                }
            }
        }
        let epoch = self.store.commit(txn)?;
        self.images = images;

        // 7. Derived environment for the new epoch.
        self.shared = publish(
            &scene,
            &handles,
            &self.grid,
            &self.cfg,
            self.scheme,
            self.pool,
            dense,
            &mut self.rtree,
            keeps_bank.then(|| self.shared.models()),
        )?;
        Ok(epoch)
    }

    /// Folds the WAL into fresh frozen bases (atomic temp + rename,
    /// generation = epoch) and truncates the log. Staged edits survive;
    /// snapshots and published environments are unaffected.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.store.checkpoint()
    }

    /// The committed epoch's environment. The returned `Arc` pins that
    /// epoch: later commits publish a *new* environment and never touch this
    /// one, so in-flight [`search`](SharedEnvironment::search) sessions
    /// are wait-free against writers.
    pub fn current(&self) -> Arc<SharedEnvironment> {
        Arc::clone(&self.shared)
    }

    /// The current commit epoch.
    pub fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    /// Committed placement of `handle`, if it exists.
    pub fn object(&self, handle: ObjectHandle) -> Option<ObjectInfo> {
        self.objects.get(&handle).copied()
    }

    /// Committed handles, ascending.
    pub fn handles(&self) -> Vec<ObjectHandle> {
        self.objects.keys().copied().collect()
    }

    /// Number of committed objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when no objects are committed (never, in practice:
    /// [`create`](Self::create) and [`commit`](Self::commit) both reject
    /// empty scenes).
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// The viewing-cell grid.
    pub fn grid(&self) -> &Arc<CellGrid> {
        &self.grid
    }

    /// The underlying durable store (WAL path, epoch, page counts).
    pub fn store(&self) -> &MutableStore {
        &self.store
    }

    /// Materialises the committed state as a dense-id [`Scene`] — the
    /// from-scratch-rebuild oracle used by the consistency tests.
    pub fn dense_scene_snapshot(&self) -> Scene {
        let handles: Vec<u64> = self.objects.keys().copied().collect();
        dense_scene(&self.objects, &handles, &self.prototypes)
    }
}

fn corrupt(msg: &str) -> StorageError {
    StorageError::Corrupt(msg.to_string())
}

/// Handle-keyed table → dense-keyed (dense id = handle rank). Entries whose
/// handle is gone (removed objects) are dropped; rank translation is
/// monotonic, so sorted lists stay sorted.
fn dense_table(dov: &DovTable, handles: &[u64], rays: usize) -> DovTable {
    let cells = (0..dov.cell_count() as CellId)
        .map(|c| {
            dov.cell(c)
                .iter()
                .filter_map(|&(h, d)| {
                    handles
                        .binary_search(&(h as u64))
                        .ok()
                        .map(|i| (i as u32, d))
                })
                .collect()
        })
        .collect();
    DovTable::from_parts(cells, rays).expect("rank translation preserves table invariants")
}

/// Dense-keyed table → handle-keyed (the durable form).
fn handle_table(dense: &DovTable, handles: &[u64]) -> DovTable {
    let cells = (0..dense.cell_count() as CellId)
        .map(|c| {
            dense
                .cell(c)
                .iter()
                .map(|&(i, d)| (handles[i as usize] as u32, d))
                .collect()
        })
        .collect();
    DovTable::from_parts(cells, dense.rays_per_viewpoint())
        .expect("rank translation preserves table invariants")
}

/// The dense-id scene of `objects`: object `i` is the placement of
/// `handles[i]`, the `i`-th live handle in ascending order.
fn dense_scene(
    objects: &BTreeMap<ObjectHandle, ObjectInfo>,
    handles: &[u64],
    prototypes: &PrototypeLibrary,
) -> Scene {
    let objs = handles
        .iter()
        .enumerate()
        .map(|(i, h)| {
            let r = &objects[h];
            SceneObject::new(i as u64, r.kind, r.prototype, r.mbr)
        })
        .collect();
    Scene::new(objs, prototypes.clone())
}

/// Builds and publishes the derived environment for one epoch from its
/// [`dense_scene`]: the tree is lifted from the live backbone with handle
/// payloads remapped to dense ids, then V-pages and internal LoDs are
/// rebuilt, and everything is frozen behind cold pools of `pool` geometry.
///
/// The object model bank depends only on the dense sequence of prototypes
/// (object `i`'s LoD chain is prototype `i`'s, laid out in id order). When
/// that sequence is unchanged since the previous epoch the caller passes
/// that epoch's bank as `bank`, and its directory and frozen pages are
/// shared behind a cold pool instead of being rebuilt byte for byte: the
/// new epoch starts exactly as cold, so simulated costs do not move.
#[allow(clippy::too_many_arguments)]
fn publish(
    scene: &Scene,
    handles: &[u64],
    grid: &Arc<CellGrid>,
    cfg: &HdovBuildConfig,
    scheme: StorageScheme,
    pool: PoolConfig,
    dense: DovTable,
    rtree: &mut RTree<MemPagedFile>,
    bank: Option<&SharedModels>,
) -> Result<Arc<SharedEnvironment>> {
    let remap = |h: u64| {
        handles
            .binary_search(&h)
            .expect("backbone payload is not a live handle") as u64
    };
    let table = Arc::new(dense);
    let (tree, cells) = HdovTree::build_from_backbone(scene, cfg, &table, rtree, &remap)?;
    let models = match bank {
        Some(bank) => bank.fork(),
        None => SharedModels::build(scene, cfg.disk)?.0,
    };
    let (env, _) = crate::env::freeze(tree, &cells, cfg, scheme, Arc::clone(grid), table, models)?;
    Ok(Arc::new(env.with_pools(pool)))
}

// ---------------------------------------------------------------------------
// Durable encoding
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut [u8], off: usize, v: f64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().unwrap())
}

fn get_u64(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().unwrap())
}

fn get_f64(buf: &[u8], off: usize) -> f64 {
    f64::from_le_bytes(buf[off..off + 8].try_into().unwrap())
}

fn kind_to_u8(kind: ObjectKind) -> u8 {
    match kind {
        ObjectKind::Building => 0,
        ObjectKind::Tower => 1,
        ObjectKind::Bunny => 2,
        ObjectKind::Custom => 3,
    }
}

fn kind_from_u8(v: u8) -> Result<ObjectKind> {
    Ok(match v {
        0 => ObjectKind::Building,
        1 => ObjectKind::Tower,
        2 => ObjectKind::Bunny,
        3 => ObjectKind::Custom,
        _ => return Err(corrupt("unknown object kind in placement record")),
    })
}

fn split_to_u8(split: SplitMethod) -> u8 {
    match split {
        SplitMethod::AngTanLinear => 0,
        SplitMethod::GuttmanQuadratic => 1,
    }
}

fn split_from_u8(v: u8) -> Result<SplitMethod> {
    Ok(match v {
        0 => SplitMethod::AngTanLinear,
        1 => SplitMethod::GuttmanQuadratic,
        _ => return Err(corrupt("unknown split method in backbone meta")),
    })
}

/// Encodes the three durable files as full page images.
///
/// * file 0 `objects` — page 0: magic, version, object count, next handle,
///   grid config (the environment must reopen with the *same* cells);
///   pages 1…: 64-byte placement records, handle-sorted.
/// * file 1 `dov` — page 0: magic, version, blob length; pages 1…: the
///   handle-keyed [`DovTable::encode`] blob.
/// * file 2 `backbone` — page 0: magic, version, split method, root page,
///   height, fan-out, node/object counts, page count; pages 1…: the raw
///   R-tree pages (logical page *i* at physical *i* + 1).
fn encode_images(
    objects: &BTreeMap<ObjectHandle, ObjectInfo>,
    next_handle: u64,
    grid_cfg: &CellGridConfig,
    cfg: &HdovBuildConfig,
    dov: &DovTable,
    rtree: &mut RTree<MemPagedFile>,
) -> Result<Vec<Vec<Vec<u8>>>> {
    // File 0: placements.
    let mut header = vec![0u8; PAGE_SIZE];
    header[0..8].copy_from_slice(OBJ_MAGIC);
    put_u32(&mut header, 8, FORMAT_VERSION);
    put_u64(&mut header, 16, objects.len() as u64);
    put_u64(&mut header, 24, next_handle);
    put_u64(&mut header, 32, cfg.dov.rays_per_viewpoint as u64);
    put_f64(&mut header, 40, grid_cfg.region.min.x);
    put_f64(&mut header, 48, grid_cfg.region.min.y);
    put_f64(&mut header, 56, grid_cfg.region.min.z);
    put_f64(&mut header, 64, grid_cfg.region.max.x);
    put_f64(&mut header, 72, grid_cfg.region.max.y);
    put_f64(&mut header, 80, grid_cfg.region.max.z);
    put_u64(&mut header, 88, grid_cfg.nx as u64);
    put_u64(&mut header, 96, grid_cfg.ny as u64);
    let mut obj_pages = vec![header];
    let record_pages = objects.len().div_ceil(RECORDS_PER_PAGE);
    obj_pages.resize(1 + record_pages, vec![0u8; PAGE_SIZE]);
    for (i, (handle, rec)) in objects.iter().enumerate() {
        let page = &mut obj_pages[1 + i / RECORDS_PER_PAGE];
        let off = (i % RECORDS_PER_PAGE) * RECORD_LEN;
        put_u64(page, off, *handle);
        page[off + 8] = kind_to_u8(rec.kind);
        put_u32(page, off + 12, rec.prototype as u32);
        put_f64(page, off + 16, rec.mbr.min.x);
        put_f64(page, off + 24, rec.mbr.min.y);
        put_f64(page, off + 32, rec.mbr.min.z);
        put_f64(page, off + 40, rec.mbr.max.x);
        put_f64(page, off + 48, rec.mbr.max.y);
        put_f64(page, off + 56, rec.mbr.max.z);
    }

    // File 1: the DoV blob.
    let blob = dov.encode();
    let mut dov_header = vec![0u8; PAGE_SIZE];
    dov_header[0..8].copy_from_slice(DOV_MAGIC);
    put_u32(&mut dov_header, 8, FORMAT_VERSION);
    put_u64(&mut dov_header, 16, blob.len() as u64);
    let mut dov_pages = vec![dov_header];
    for chunk in blob.chunks(PAGE_SIZE) {
        let mut page = vec![0u8; PAGE_SIZE];
        page[..chunk.len()].copy_from_slice(chunk);
        dov_pages.push(page);
    }

    // File 2: the backbone.
    let stats = rtree.stats();
    let mut meta = vec![0u8; PAGE_SIZE];
    meta[0..8].copy_from_slice(BKB_MAGIC);
    put_u32(&mut meta, 8, FORMAT_VERSION);
    meta[12] = split_to_u8(cfg.split);
    put_u64(&mut meta, 16, rtree.root().0);
    put_u32(&mut meta, 24, stats.height);
    put_u32(&mut meta, 28, rtree.max_entries() as u32);
    put_u64(&mut meta, 32, stats.node_count);
    put_u64(&mut meta, 40, stats.object_count);
    let file_pages = rtree.file().page_count();
    put_u64(&mut meta, 48, file_pages);
    let mut bkb_pages = vec![meta];
    let mut buf = Page::zeroed();
    for i in 0..file_pages {
        rtree.file_mut().read_page(PageId(i), &mut buf)?;
        bkb_pages.push(buf.bytes().to_vec());
    }

    Ok(vec![obj_pages, dov_pages, bkb_pages])
}

/// Decodes file 0 into the placement map plus the persisted grid config.
fn decode_objects(
    pages: &[Vec<u8>],
    prototypes: &PrototypeLibrary,
) -> Result<(BTreeMap<ObjectHandle, ObjectInfo>, u64, CellGridConfig)> {
    let header = pages
        .first()
        .ok_or_else(|| corrupt("objects file is empty"))?;
    if &header[0..8] != OBJ_MAGIC || get_u32(header, 8) != FORMAT_VERSION {
        return Err(corrupt("bad objects-file header"));
    }
    let count = get_u64(header, 16) as usize;
    let next_handle = get_u64(header, 24);
    let grid_cfg = CellGridConfig {
        region: Aabb {
            min: Vec3::new(
                get_f64(header, 40),
                get_f64(header, 48),
                get_f64(header, 56),
            ),
            max: Vec3::new(
                get_f64(header, 64),
                get_f64(header, 72),
                get_f64(header, 80),
            ),
        },
        nx: get_u64(header, 88) as usize,
        ny: get_u64(header, 96) as usize,
    };
    let mut objects = BTreeMap::new();
    let mut prev: Option<u64> = None;
    for i in 0..count {
        let page = pages
            .get(1 + i / RECORDS_PER_PAGE)
            .ok_or_else(|| corrupt("objects file truncated"))?;
        let off = (i % RECORDS_PER_PAGE) * RECORD_LEN;
        let rec = &page[off..off + RECORD_LEN];
        let handle = get_u64(rec, 0);
        if prev.is_some_and(|p| p >= handle) || handle >= next_handle {
            return Err(corrupt("placement records out of handle order"));
        }
        prev = Some(handle);
        let kind = kind_from_u8(rec[8])?;
        let prototype = get_u32(rec, 12) as usize;
        if prototype >= prototypes.len() {
            return Err(corrupt("placement record references unknown prototype"));
        }
        let mbr = Aabb {
            min: Vec3::new(get_f64(rec, 16), get_f64(rec, 24), get_f64(rec, 32)),
            max: Vec3::new(get_f64(rec, 40), get_f64(rec, 48), get_f64(rec, 56)),
        };
        if mbr.is_empty() {
            return Err(corrupt("placement record has an empty bounding box"));
        }
        objects.insert(
            handle,
            ObjectInfo {
                kind,
                prototype,
                mbr,
            },
        );
    }
    Ok((objects, next_handle, grid_cfg))
}

/// Decodes file 1 into the handle-keyed DoV table.
fn decode_dov(pages: &[Vec<u8>]) -> Result<DovTable> {
    let header = pages.first().ok_or_else(|| corrupt("dov file is empty"))?;
    if &header[0..8] != DOV_MAGIC || get_u32(header, 8) != FORMAT_VERSION {
        return Err(corrupt("bad dov-file header"));
    }
    let blob_len = get_u64(header, 16) as usize;
    let mut blob = Vec::with_capacity(blob_len);
    for chunk in pages.iter().skip(1) {
        let take = (blob_len - blob.len()).min(PAGE_SIZE);
        blob.extend_from_slice(&chunk[..take]);
        if blob.len() == blob_len {
            break;
        }
    }
    if blob.len() != blob_len {
        return Err(corrupt("dov file truncated"));
    }
    DovTable::decode(&blob).ok_or_else(|| corrupt("dov blob fails to decode"))
}

/// Decodes file 2 into a live backbone.
fn decode_backbone(pages: &[Vec<u8>]) -> Result<RTree<MemPagedFile>> {
    let meta = pages
        .first()
        .ok_or_else(|| corrupt("backbone file is empty"))?;
    if &meta[0..8] != BKB_MAGIC || get_u32(meta, 8) != FORMAT_VERSION {
        return Err(corrupt("bad backbone-file header"));
    }
    let split = split_from_u8(meta[12])?;
    let root = get_u64(meta, 16);
    let height = get_u32(meta, 24);
    let max_entries = get_u32(meta, 28) as usize;
    let node_count = get_u64(meta, 32);
    let object_count = get_u64(meta, 40);
    let file_pages = get_u64(meta, 48) as usize;
    if root as usize >= file_pages || pages.len() < 1 + file_pages {
        return Err(corrupt("backbone file truncated"));
    }
    let mut file = MemPagedFile::new();
    for raw in &pages[1..1 + file_pages] {
        file.append_page(&Page::from_bytes(raw))?;
    }
    Ok(RTree::from_parts(
        file,
        PageId(root),
        height,
        split,
        node_count,
        object_count,
        max_entries,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HdovEnvironment;
    use hdov_scene::CityConfig;
    use hdov_visibility::CellGridConfig;

    fn test_scene() -> Scene {
        CityConfig::tiny().seed(7).generate()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hdov_mscene_{}_{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn build(dir: &std::path::Path) -> MutableScene {
        let scene = test_scene();
        let grid_cfg = CellGridConfig {
            nx: 4,
            ny: 4,
            ..CellGridConfig::for_scene(&scene)
        };
        MutableScene::create(
            dir,
            "edit",
            &scene,
            &grid_cfg,
            HdovBuildConfig::fast_test(),
            StorageScheme::IndexedVertical,
            PoolConfig::default(),
        )
        .unwrap()
    }

    fn answers(env: &SharedEnvironment) -> Vec<Vec<(crate::ResultKey, usize)>> {
        let mut out = Vec::new();
        let mut scratch = crate::SearchScratch::new();
        for cell in 0..env.grid().cell_count() as CellId {
            let mut ctx = crate::SessionCtx::new();
            let q = crate::Query::new(cell, 0.0);
            env.search(&mut ctx, &mut scratch, q).unwrap();
            let res = scratch.result();
            let mut entries: Vec<_> = res.entries().iter().map(|e| (e.key, e.level)).collect();
            entries.sort();
            out.push(entries);
        }
        out
    }

    #[test]
    fn create_commit_reopen_roundtrip() {
        let dir = tmp("roundtrip");
        let mut ms = build(&dir);
        let n0 = ms.len();
        let proto_count = ms.prototypes.len();

        // Insert, move, remove — one transaction.
        let probe = ms.object(0).unwrap();
        let h = ms.insert(probe.kind, probe.prototype, probe.mbr).unwrap();
        assert_eq!(h, n0 as u64);
        ms.translate(h, Vec3::new(3.0, 1.0, 0.0)).unwrap();
        ms.remove(1).unwrap();
        assert_eq!(ms.pending_edits(), 3);
        let epoch = ms.commit().unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(ms.len(), n0);
        assert!(ms.object(1).is_none());
        assert!(ms.object(h).is_some());

        let expect = answers(&ms.current());
        let protos = ms.prototypes.clone();
        drop(ms);

        let ms2 = MutableScene::open(
            &dir,
            "edit",
            protos,
            HdovBuildConfig::fast_test(),
            StorageScheme::IndexedVertical,
            PoolConfig::default(),
        )
        .unwrap();
        assert_eq!(ms2.epoch(), 1);
        assert_eq!(ms2.len(), n0);
        assert_eq!(answers(&ms2.current()), expect);
        assert_eq!(ms2.prototypes.len(), proto_count);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn commit_matches_from_scratch_rebuild() {
        let dir = tmp("oracle");
        let mut ms = build(&dir);
        ms.translate(0, Vec3::new(5.0, -2.0, 0.0)).unwrap();
        ms.remove(2).unwrap();
        ms.commit().unwrap();

        // Oracle: full rebuild from the committed dense scene.
        let scene = ms.dense_scene_snapshot();
        let grid_cfg = CellGridConfig {
            region: ms.grid.region(),
            nx: 4,
            ny: 4,
        };
        let oracle = HdovEnvironment::build(
            &scene,
            &grid_cfg,
            HdovBuildConfig::fast_test(),
            StorageScheme::IndexedVertical,
        )
        .unwrap()
        .into_shared(PoolConfig::default());
        assert_eq!(answers(&ms.current()), answers(&oracle));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn model_bank_is_shared_exactly_while_the_prototype_sequence_holds() {
        let dir = tmp("bank");
        let mut ms = build(&dir);
        let e0 = ms.current();
        answers(&e0);
        assert_ne!(e0.models().pool().hit_stats(), (0, 0), "epoch 0 warmed");

        // Translations keep the dense prototype sequence: the new epoch
        // shares the directory and frozen pages behind a cold pool.
        ms.translate(0, Vec3::new(4.0, 1.0, 0.0)).unwrap();
        ms.translate(3, Vec3::new(-2.0, 0.5, 0.0)).unwrap();
        ms.commit().unwrap();
        let e1 = ms.current();
        assert!(std::ptr::eq(e0.models().store(), e1.models().store()));
        assert_eq!(e1.models().pool().hit_stats(), (0, 0));
        assert_eq!(
            e1.models().pool().page_count(),
            e0.models().pool().page_count()
        );

        // An insert or a delete changes the sequence: the bank is rebuilt.
        let probe = ms.object(0).unwrap();
        ms.insert(probe.kind, probe.prototype, probe.mbr).unwrap();
        ms.commit().unwrap();
        let e2 = ms.current();
        assert!(!std::ptr::eq(e1.models().store(), e2.models().store()));
        assert!(e2.models().pool().page_count() > e1.models().pool().page_count());
        ms.remove(1).unwrap();
        ms.commit().unwrap();
        let e3 = ms.current();
        assert!(!std::ptr::eq(e2.models().store(), e3.models().store()));

        // A reopened scene builds its bank afresh.
        let protos = ms.prototypes.clone();
        drop(ms);
        let ms = MutableScene::open(
            &dir,
            "edit",
            protos,
            HdovBuildConfig::fast_test(),
            StorageScheme::IndexedVertical,
            PoolConfig::default(),
        )
        .unwrap();
        let e4 = ms.current();
        assert!(!std::ptr::eq(e3.models().store(), e4.models().store()));
        assert_eq!(answers(&e4), answers(&e3));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn readers_pin_their_epoch() {
        let dir = tmp("pin");
        let mut ms = build(&dir);
        let before = ms.current();
        let baseline = answers(&before);
        ms.translate(0, Vec3::new(10.0, 10.0, 0.0)).unwrap();
        ms.commit().unwrap();
        // The pinned environment still answers from the old epoch.
        assert_eq!(answers(&before), baseline);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rollback_discards_stage_and_burns_handles() {
        let dir = tmp("rollback");
        let mut ms = build(&dir);
        let n0 = ms.len();
        let probe = ms.object(0).unwrap();
        let h1 = ms.insert(probe.kind, probe.prototype, probe.mbr).unwrap();
        ms.rollback();
        assert_eq!(ms.pending_edits(), 0);
        assert_eq!(ms.len(), n0);
        assert_eq!(ms.commit().unwrap(), 0, "nothing staged, epoch unchanged");
        let h2 = ms.insert(probe.kind, probe.prototype, probe.mbr).unwrap();
        assert!(h2 > h1, "handles are never reused");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_handles_are_rejected() {
        let dir = tmp("unknown");
        let mut ms = build(&dir);
        assert!(ms.remove(9999).is_err());
        assert!(ms.translate(9999, Vec3::new(1.0, 0.0, 0.0)).is_err());
        let h = ms.handles()[0];
        ms.remove(h).unwrap();
        assert!(ms.translate(h, Vec3::new(1.0, 0.0, 0.0)).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_preserves_answers() {
        let dir = tmp("ckpt");
        let mut ms = build(&dir);
        ms.translate(0, Vec3::new(2.0, 2.0, 0.0)).unwrap();
        ms.commit().unwrap();
        let expect = answers(&ms.current());
        ms.checkpoint().unwrap();
        assert_eq!(
            ms.store.wal_len(),
            hdov_storage::wal::WAL_HEADER_LEN,
            "checkpoint truncates the log"
        );
        let protos = ms.prototypes.clone();
        drop(ms);
        let ms2 = MutableScene::open(
            &dir,
            "edit",
            protos,
            HdovBuildConfig::fast_test(),
            StorageScheme::IndexedVertical,
            PoolConfig::default(),
        )
        .unwrap();
        assert_eq!(ms2.epoch(), 1);
        assert_eq!(answers(&ms2.current()), expect);
        std::fs::remove_dir_all(&dir).ok();
    }
}
