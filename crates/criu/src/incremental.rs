//! Incremental (dirty-page) checkpointing.
//!
//! The paper's rewrite loop freezes the application for the whole
//! checkpoint→edit→restore round trip. Most of that window is spent
//! copying pages that have not changed since the previous checkpoint.
//! This module reproduces the two CRIU mechanisms that shrink it:
//!
//! * **Incremental dumps** ([`dump_incremental`]): using the kernel's
//!   dirty-page bitmap (the soft-dirty analogue,
//!   [`AddressSpace::dirty_pages`]), a dump emits a [`DeltaImage`] that
//!   references a parent checkpoint and carries page *data* only for the
//!   pages written since that parent was taken. A delta chain
//!   materializes ([`materialize_chain`]) to an image **bit-identical**
//!   to the full dump taken at the same instant.
//! * **Pre-dump** ([`pre_dump`]): the two-phase protocol that copies the
//!   current page contents while the guest is still running, then
//!   freezes only to collect the *dirty residue* — pages written between
//!   the pre-copy and the freeze — plus registers, sigactions and
//!   TCP-repair state. [`PreDump::complete`] reports how many page bytes
//!   actually had to be copied inside the freeze window.
//!
//! Baseline contract: the dirty bitmap means "written since the last
//! [`AddressSpace::mark_clean`] sweep". [`pre_dump`] sweeps as part of
//! its atomic pre-copy; plain dumps do **not** sweep (a failed dump must
//! not invalidate the baseline) — callers establish a new baseline
//! explicitly with [`mark_clean_after_dump`] once a dump is safely
//! stored. [`dump_incremental`]'s `parent` must be the checkpoint that
//! established the current baseline, otherwise the delta under-reports.
//!
//! [`AddressSpace::dirty_pages`]: dynacut_vm::AddressSpace::dirty_pages
//! [`AddressSpace::mark_clean`]: dynacut_vm::AddressSpace::mark_clean

use crate::dump::{dump, dump_many, DumpOptions};
use crate::images::*;
use crate::page_store::{PageKey, PageStore, SharedPages};
use crate::restore::{build_process_shared, RestoreTransaction, StagedProcess};
use crate::CriuError;
use dynacut_obj::PAGE_SIZE;
use dynacut_vm::{Kernel, Pid};
use std::collections::{BTreeMap, BTreeSet};

/// Identifier of a checkpoint in a [`CheckpointStore`] (sequential).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CkptId(pub u64);

impl std::fmt::Display for CkptId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ckpt-{}", self.0)
    }
}

/// The per-process part of a [`DeltaImage`].
///
/// Everything except page *data* is recorded in full (registers, VMAs,
/// descriptors, TCP state are tiny next to memory). The `pagemap` lists
/// **all** populated pages at delta time — so pages dropped or unmapped
/// since the parent disappear on materialization — while `pages` holds
/// data only for the `dirty` subset; clean pages are looked up in the
/// parent at materialization time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaProcessImage {
    /// Registers and signal state (full copy).
    pub core: CoreImage,
    /// VMA list (full copy).
    pub mm: MmImage,
    /// All populated pages at delta time, sorted.
    pub pagemap: PagemapImage,
    /// The subset of `pagemap` whose data ships in `pages`, sorted.
    pub dirty: PagemapImage,
    /// Page data for `dirty` only, in the same order.
    pub pages: PagesImage,
    /// Descriptor table (full copy).
    pub files: FilesImage,
    /// TCP connections (full copy).
    pub tcp: TcpImage,
    /// Mirrors [`ProcessImage::exec_pages_dumped`].
    pub exec_pages_dumped: bool,
}

/// An incremental checkpoint: a parent reference plus per-process deltas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaImage {
    /// The checkpoint this delta applies on top of.
    pub parent: CkptId,
    /// Per-process deltas, in pid order.
    pub procs: Vec<DeltaProcessImage>,
    /// Kernel time at dump.
    pub time_ns: u64,
}

impl DeltaImage {
    /// Total size of the dirty-page payload, in bytes — the number this
    /// whole module exists to shrink relative to
    /// [`CheckpointImage::pages_bytes`].
    pub fn pages_bytes(&self) -> usize {
        self.procs.iter().map(|p| p.pages.bytes.len()).sum()
    }
}

/// Applies one delta on top of a materialized parent checkpoint.
///
/// Processes absent from the delta are dropped (they exited before the
/// delta was taken); processes absent from the parent must be fully
/// dirty.
///
/// # Errors
///
/// Fails with [`CriuError::BadImage`] if the delta is internally
/// inconsistent, or [`CriuError::Inconsistent`] if a clean page cannot be
/// found in the parent.
pub fn apply_delta(
    parent: &CheckpointImage,
    delta: &DeltaImage,
) -> Result<CheckpointImage, CriuError> {
    let page = PAGE_SIZE as usize;
    let mut procs = Vec::with_capacity(delta.procs.len());
    for d in &delta.procs {
        if d.pages.bytes.len() != d.dirty.pages.len() * page {
            return Err(CriuError::BadImage(format!(
                "delta pages hold {} bytes but {} dirty pages are listed",
                d.pages.bytes.len(),
                d.dirty.pages.len()
            )));
        }
        for base in &d.dirty.pages {
            if d.pagemap.pages.binary_search(base).is_err() {
                return Err(CriuError::BadImage(format!(
                    "dirty page {base:#x} is not in the delta pagemap"
                )));
            }
        }
        let parent_proc = parent.proc_image(d.core.pid);
        let mut bytes = Vec::with_capacity(d.pagemap.pages.len() * page);
        for &base in &d.pagemap.pages {
            if let Ok(index) = d.dirty.pages.binary_search(&base) {
                bytes.extend_from_slice(&d.pages.bytes[index * page..(index + 1) * page]);
                continue;
            }
            let source = parent_proc.ok_or_else(|| {
                CriuError::Inconsistent(format!(
                    "pid {} is new in the delta but page {base:#x} is not dirty",
                    d.core.pid.0
                ))
            })?;
            let index = source.pagemap.pages.binary_search(&base).map_err(|_| {
                CriuError::Inconsistent(format!(
                    "clean page {base:#x} is missing from the parent checkpoint"
                ))
            })?;
            bytes.extend_from_slice(&source.pages.bytes[index * page..(index + 1) * page]);
        }
        procs.push(ProcessImage {
            core: d.core.clone(),
            mm: d.mm.clone(),
            pagemap: d.pagemap.clone(),
            pages: PagesImage { bytes },
            files: d.files.clone(),
            tcp: d.tcp.clone(),
            exec_pages_dumped: d.exec_pages_dumped,
        });
    }
    Ok(CheckpointImage {
        procs,
        time_ns: delta.time_ns,
    })
}

/// Materializes a delta chain: applies each delta of `deltas`, in order,
/// on top of `parent`. The result is bit-identical to the full dump that
/// would have been taken at the last delta's instant.
///
/// # Errors
///
/// Propagates [`apply_delta`] failures.
pub fn materialize_chain<'a>(
    parent: &CheckpointImage,
    deltas: impl IntoIterator<Item = &'a DeltaImage>,
) -> Result<CheckpointImage, CriuError> {
    let mut current = parent.clone();
    for delta in deltas {
        current = apply_delta(&current, delta)?;
    }
    Ok(current)
}

/// Dumps processes as a [`DeltaImage`] against `parent`, carrying page
/// data only for pages the kernel's dirty bitmap flags — plus pages
/// absent from the parent's pagemap, which have no clean copy to fall
/// back on (e.g. binary-reconstructed text after a restore).
///
/// `parent` must be the checkpoint that established the current clean
/// baseline (the bitmap was swept when it was stored, via [`pre_dump`]
/// or [`mark_clean_after_dump`]). Like [`dump`], this does **not** sweep
/// the bitmap; sweep once the delta is safely stored.
///
/// # Errors
///
/// Fails if any process is missing or not frozen.
pub fn dump_incremental(
    kernel: &mut Kernel,
    pids: &[Pid],
    options: &DumpOptions,
    parent_id: CkptId,
    parent: &CheckpointImage,
) -> Result<DeltaImage, CriuError> {
    let page = PAGE_SIZE as usize;
    let mut procs = Vec::with_capacity(pids.len());
    let mut time_ns = kernel.clock_ns();
    for &pid in pids {
        let dirty_now: BTreeSet<u64> = kernel.process(pid)?.mem.dirty_pages().collect();
        let full = dump(kernel, pid, options)?;
        time_ns = kernel.clock_ns();
        let parent_proc = parent.proc_image(pid);
        let mut dirty = PagemapImage::default();
        let mut pages = PagesImage::default();
        for (index, &base) in full.pagemap.pages.iter().enumerate() {
            let in_parent = parent_proc
                .map(|p| p.pagemap.pages.binary_search(&base).is_ok())
                .unwrap_or(false);
            if dirty_now.contains(&base) || !in_parent {
                dirty.pages.push(base);
                pages
                    .bytes
                    .extend_from_slice(&full.pages.bytes[index * page..(index + 1) * page]);
            }
        }
        procs.push(DeltaProcessImage {
            core: full.core,
            mm: full.mm,
            pagemap: full.pagemap,
            dirty,
            pages,
            files: full.files,
            tcp: full.tcp,
            exec_pages_dumped: full.exec_pages_dumped,
        });
    }
    Ok(DeltaImage {
        parent: parent_id,
        procs,
        time_ns,
    })
}

/// Sweeps the dirty bitmap of each process, establishing the checkpoint
/// just taken as the clean baseline for future [`dump_incremental`]
/// calls. Call this only after the dump is safely stored — a dump that
/// failed (or was discarded) must leave the old baseline intact.
///
/// # Errors
///
/// Fails if a process does not exist.
pub fn mark_clean_after_dump(kernel: &mut Kernel, pids: &[Pid]) -> Result<(), CriuError> {
    if dynacut_vm::fault::hit(dynacut_vm::fault::FaultPhase::MarkClean) {
        return Err(CriuError::FaultInjected(
            dynacut_vm::fault::FaultPhase::MarkClean,
        ));
    }
    for &pid in pids {
        kernel.process_mut(pid)?.mem.mark_clean();
    }
    Ok(())
}

/// Page contents copied by [`pre_dump`] while the guest was running.
#[derive(Debug, Clone)]
pub struct PreDump {
    snapshots: BTreeMap<Pid, BTreeMap<u64, Vec<u8>>>,
}

/// How many page bytes [`PreDump::complete`] copied in each phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreDumpStats {
    /// Bytes copied inside the freeze window: the dirty residue plus
    /// pages populated after the pre-copy. This is the term the freeze
    /// window scales with (registers/sigactions/TCP state are O(1)).
    pub frozen_page_bytes: usize,
    /// Bytes served from the pre-copy, i.e. moved while the guest ran.
    pub prewritten_page_bytes: usize,
}

impl PreDumpStats {
    /// Total page payload of the completed dump.
    pub fn total_page_bytes(&self) -> usize {
        self.frozen_page_bytes + self.prewritten_page_bytes
    }
}

/// Phase one of the two-phase dump: copies every populated page of every
/// process **without requiring a freeze**, then sweeps the dirty bitmap
/// so [`PreDump::complete`] can identify the residue written afterwards.
///
/// # Errors
///
/// Fails if a process does not exist.
pub fn pre_dump(kernel: &mut Kernel, pids: &[Pid]) -> Result<PreDump, CriuError> {
    if dynacut_vm::fault::hit(dynacut_vm::fault::FaultPhase::PreDump) {
        return Err(CriuError::FaultInjected(
            dynacut_vm::fault::FaultPhase::PreDump,
        ));
    }
    let mut snapshots = BTreeMap::new();
    for &pid in pids {
        let mem = &mut kernel.process_mut(pid)?.mem;
        let pages: BTreeMap<u64, Vec<u8>> = mem
            .populated_pages()
            .map(|(base, bytes)| (base, bytes.to_vec()))
            .collect();
        mem.mark_clean();
        let page_bytes = (pages.len() * PAGE_SIZE as usize) as u64;
        snapshots.insert(pid, pages);
        kernel.record_flight(
            Some(pid),
            dynacut_vm::EventKind::ProcessPreDumped { page_bytes },
        );
    }
    Ok(PreDump { snapshots })
}

impl PreDump {
    /// Total bytes copied during the pre-dump phase.
    pub fn page_bytes(&self) -> usize {
        self.snapshots.values().map(|pages| pages.len() * PAGE_SIZE as usize).sum()
    }

    /// Phase two: with the processes now frozen, produces a
    /// [`CheckpointImage`] bit-identical to a plain [`dump_many`] at this
    /// instant, copying only the dirty residue inside the freeze window.
    /// Returns the checkpoint plus the phase accounting.
    ///
    /// # Errors
    ///
    /// Fails if any process is missing or not frozen.
    pub fn complete(
        &self,
        kernel: &mut Kernel,
        pids: &[Pid],
        options: &DumpOptions,
    ) -> Result<(CheckpointImage, PreDumpStats), CriuError> {
        let checkpoint = dump_many(kernel, pids, options)?;
        let page = PAGE_SIZE as usize;
        let mut stats = PreDumpStats::default();
        for image in &checkpoint.procs {
            let mem = &kernel.process(image.core.pid)?.mem;
            let snapshot = self.snapshots.get(&image.core.pid);
            for (index, &base) in image.pagemap.pages.iter().enumerate() {
                let prewritten = !mem.page_dirty(base)
                    && snapshot.and_then(|pages| pages.get(&base)).is_some();
                if prewritten {
                    // The clean page the freeze-window copy skips must
                    // match what the pre-dump copied — the invariant the
                    // dirty bitmap guarantees.
                    debug_assert_eq!(
                        snapshot.and_then(|pages| pages.get(&base)).map(|b| &b[..]),
                        Some(&image.pages.bytes[index * page..(index + 1) * page]),
                    );
                    stats.prewritten_page_bytes += page;
                } else {
                    stats.frozen_page_bytes += page;
                }
            }
        }
        Ok((checkpoint, stats))
    }
}

/// One entry of a [`CheckpointStore`]: the checkpoint's *skeleton*
/// (registers, VMAs, pagemaps, descriptors, TCP state — everything but
/// the page bytes) plus one [`SharedPages`] reference set per process.
/// The page payload itself lives, deduplicated, in the store's
/// [`PageStore`].
///
/// Every entry is self-contained: it holds a reference on every page of
/// its checkpoint, so it reads back without any other entry and
/// survives the release of the parent it was diffed against.
#[derive(Debug, Clone)]
pub struct StoredCheckpoint {
    /// The checkpoint with every process's `pages.bytes` emptied.
    pub skeleton: CheckpointImage,
    /// Interned page payload, one entry per process, in `procs` order.
    pub pages: Vec<SharedPages>,
}

impl StoredCheckpoint {
    /// Logical page payload of this entry — what a store without content
    /// addressing would hold for it.
    pub fn pages_bytes(&self) -> usize {
        self.pages.iter().map(SharedPages::pages_bytes).sum()
    }
}

/// The tmpfs-like checkpoint store, backed by a content-addressed
/// [`PageStore`]: every checkpoint written into the store interns its
/// page payload (N processes running the same binary share one copy of
/// every identical page; repeated cycles dedup against prior
/// checkpoints), and every materialization reads back through it
/// bit-identically.
///
/// Entries get sequential [`CkptId`]s. A delta ([`put_delta`]) or a
/// checkpoint diffed against a stored parent ([`put_diff`]) is resolved
/// when it is stored: its unchanged pages take references on the
/// parent's keys, so every entry reads back on its own and no read walks
/// a chain. A missing parent fails at put time. [`release`] drops an
/// entry and its page references; released ids fail with
/// [`CriuError::MissingParent`].
///
/// [`put_delta`]: CheckpointStore::put_delta
/// [`put_diff`]: CheckpointStore::put_diff
/// [`release`]: CheckpointStore::release
#[derive(Debug, Clone, Default)]
pub struct CheckpointStore {
    entries: Vec<Option<StoredCheckpoint>>,
    pages: PageStore,
}

impl CheckpointStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores a full checkpoint, interning its page payload, and returns
    /// its id.
    ///
    /// # Errors
    ///
    /// Fails with [`CriuError::PageCollision`] if any page's content key
    /// is already held by different bytes; every reference taken is
    /// released again and nothing is stored.
    pub fn put_full(&mut self, image: CheckpointImage) -> Result<CkptId, CriuError> {
        self.put(None, image).map(|(id, _)| id)
    }

    /// Stores `current` as a diff against the live entry `parent`: a
    /// page whose bytes equal the parent's page at the same address
    /// takes one more reference on the parent's key, with no hashing and
    /// no copy; every other page is interned. Returns the new id and the
    /// bytes interned — the payload of the pages that differ from the
    /// parent.
    ///
    /// # Errors
    ///
    /// Fails with [`CriuError::MissingParent`] if `parent` is absent or
    /// released, or [`CriuError::PageCollision`] if a differing page's
    /// key is already held by different bytes. Either way every
    /// reference taken is released again and nothing is stored.
    pub fn put_diff(
        &mut self,
        parent: CkptId,
        current: CheckpointImage,
    ) -> Result<(CkptId, usize), CriuError> {
        self.entry(parent)?;
        self.put(Some(parent), current)
    }

    /// Stores a delta: replays it onto its materialized parent and
    /// stores the result with [`put_diff`](CheckpointStore::put_diff),
    /// so the entry shares every unchanged page with the parent.
    ///
    /// # Errors
    ///
    /// Fails with [`CriuError::MissingParent`] if the parent id is not
    /// live in the store, propagates [`apply_delta`] failures, or fails
    /// with [`CriuError::PageCollision`] if a dirty page's key is
    /// already held by different bytes (nothing is stored).
    pub fn put_delta(&mut self, delta: DeltaImage) -> Result<CkptId, CriuError> {
        let current = apply_delta(&self.materialize(delta.parent)?, &delta)?;
        self.put_diff(delta.parent, current).map(|(id, _)| id)
    }

    /// Interns `image`'s payload — reusing the keys of the live entry
    /// `parent` wherever the bytes match — and appends the entry.
    /// Returns its id and the bytes interned.
    fn put(
        &mut self,
        parent: Option<CkptId>,
        mut image: CheckpointImage,
    ) -> Result<(CkptId, usize), CriuError> {
        let parent = parent.and_then(|id| self.entries[id.0 as usize].as_ref());
        let mut pages = Vec::with_capacity(image.procs.len());
        let mut interned = 0;
        for proc in &mut image.procs {
            let parent_proc = parent.and_then(|entry| {
                entry
                    .skeleton
                    .procs
                    .iter()
                    .zip(&entry.pages)
                    .find(|(p, _)| p.core.pid == proc.core.pid)
            });
            let parent_key = |index: usize| {
                let (skeleton, shared) = parent_proc?;
                let at = skeleton
                    .pagemap
                    .pages
                    .binary_search(proc.pagemap.pages.get(index)?)
                    .ok()?;
                shared.keys().get(at).copied()
            };
            match SharedPages::intern_against(&mut self.pages, &proc.pages, parent_key) {
                Ok((shared, bytes)) => {
                    interned += bytes;
                    pages.push(shared);
                }
                Err(err) => {
                    Self::unwind_interned(&mut self.pages, &pages);
                    return Err(err);
                }
            }
            proc.pages.bytes.clear();
        }
        self.entries.push(Some(StoredCheckpoint {
            skeleton: image,
            pages,
        }));
        Ok((CkptId(self.entries.len() as u64 - 1), interned))
    }

    /// Releases references taken for a partially-interned checkpoint
    /// whose later process hit a collision. The refs were just taken, so
    /// misses are impossible; the collision stays the reported error.
    fn unwind_interned(pages: &mut PageStore, taken: &[SharedPages]) {
        for shared in taken.iter().rev() {
            let _ = shared.release(pages);
        }
    }

    /// Looks up a live entry. The entry is a skeleton — page payloads
    /// live in the [`PageStore`]; use [`materialize`] to rehydrate.
    ///
    /// [`materialize`]: CheckpointStore::materialize
    pub fn get(&self, id: CkptId) -> Option<&StoredCheckpoint> {
        self.entries.get(id.0 as usize).and_then(Option::as_ref)
    }

    /// Live entry `id`, or [`CriuError::MissingParent`].
    fn entry(&self, id: CkptId) -> Result<&StoredCheckpoint, CriuError> {
        self.get(id).ok_or(CriuError::MissingParent(id))
    }

    /// Releases a checkpoint: drops its entry and one page-store
    /// reference per page it holds; bytes no other checkpoint shares
    /// are freed. Entries stored against this one stay intact. Ids are
    /// never reused, so later [`materialize`] or
    /// [`CheckpointStore::put_diff`] calls naming this id fail with
    /// [`CriuError::MissingParent`].
    ///
    /// [`materialize`]: CheckpointStore::materialize
    ///
    /// # Errors
    ///
    /// Fails with [`CriuError::MissingParent`] if the id is absent or
    /// already released, or [`CriuError::UnknownPage`] if one of its page
    /// references was already gone from the page store (every other
    /// reference is still released).
    pub fn release(&mut self, id: CkptId) -> Result<(), CriuError> {
        let slot = self
            .entries
            .get_mut(id.0 as usize)
            .ok_or(CriuError::MissingParent(id))?;
        let entry = slot.take().ok_or(CriuError::MissingParent(id))?;
        let mut first_miss = None;
        for shared in &entry.pages {
            if let Err(err) = shared.release(&mut self.pages) {
                first_miss.get_or_insert(err);
            }
        }
        match first_miss {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// Whether the store holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total **logical** page payload across live entries — what a store
    /// without content addressing would hold. The physically held bytes
    /// are [`unique_pages_bytes`].
    ///
    /// [`unique_pages_bytes`]: CheckpointStore::unique_pages_bytes
    pub fn stored_pages_bytes(&self) -> usize {
        self.entries
            .iter()
            .flatten()
            .map(StoredCheckpoint::pages_bytes)
            .sum()
    }

    /// The content-addressed page store backing this checkpoint store.
    pub fn page_store(&self) -> &PageStore {
        &self.pages
    }

    /// Mutable access to the backing page store, for handle-based
    /// restore paths ([`RestoreTransaction::prepare_shared`]) that
    /// intern a transient payload and release it before returning.
    /// Callers own the refcount discipline: every reference taken
    /// through this must be released through it.
    pub fn page_store_mut(&mut self) -> &mut PageStore {
        &mut self.pages
    }

    /// Physically held page bytes: one copy per distinct page content.
    pub fn unique_pages_bytes(&self) -> usize {
        self.pages.unique_bytes()
    }

    /// Page bytes written through the store (references × page size).
    pub fn logical_pages_bytes(&self) -> usize {
        self.pages.logical_bytes()
    }

    /// Page bytes deduplicated away: `logical − unique`.
    pub fn shared_pages_bytes(&self) -> usize {
        self.pages.shared_bytes()
    }

    /// Dedup win of the content addressing: `logical / unique` (1.0 when
    /// empty).
    pub fn dedup_ratio(&self) -> f64 {
        self.pages.dedup_ratio()
    }

    /// Materializes the checkpoint `id`, rehydrating every page payload
    /// from the content-addressed store. Bit-identical to the image
    /// originally written in (for a delta, to the image it resolved to).
    ///
    /// # Errors
    ///
    /// Fails with [`CriuError::MissingParent`] if `id` is absent or
    /// released.
    pub fn materialize(&self, id: CkptId) -> Result<CheckpointImage, CriuError> {
        let entry = self.entry(id)?;
        let mut image = entry.skeleton.clone();
        for (proc, shared) in image.procs.iter_mut().zip(&entry.pages) {
            proc.pages = shared.materialize(&self.pages)?;
        }
        Ok(image)
    }

    /// Restores the checkpoint `id` **through** the store: every page
    /// payload is read back from the content-addressed store and the processes are rebuilt with
    /// [`restore_many`] — bit-identical to restoring the original dump.
    ///
    /// # Errors
    ///
    /// Propagates [`materialize`] and [`restore_many`] failures.
    ///
    /// [`materialize`]: CheckpointStore::materialize
    /// [`restore_many`]: crate::restore_many
    pub fn restore(
        &self,
        kernel: &mut Kernel,
        id: CkptId,
        registry: &crate::ModuleRegistry,
    ) -> Result<Vec<Pid>, CriuError> {
        let image = self.materialize(id)?;
        crate::restore_many(kernel, &image, registry)
    }

    /// Restores the checkpoint `id` **zero-copy**: instead of
    /// materializing the page payload, every restored page is backed by a [`SharedFrame`](dynacut_vm::SharedFrame)
    /// handle straight out of the content-addressed store. No page byte
    /// is copied by the restore itself ([`PageStore::copied_bytes`] does
    /// not move); the first guest write to each page copy-on-writes it
    /// private. Guest-visible state — `state_fingerprint()` included —
    /// is bit-identical to [`restore`](CheckpointStore::restore).
    ///
    /// The commit is transactional exactly like the copying path, and
    /// flushes every restored process's block cache (the
    /// `RestoreTransaction::commit` choke point), so no decoded block
    /// survives the swap.
    ///
    /// # Errors
    ///
    /// Fails with [`CriuError::MissingParent`] if `id` is absent or
    /// released, or propagates build/commit failures (kernel untouched
    /// or rolled back).
    pub fn restore_shared(
        &self,
        kernel: &mut Kernel,
        id: CkptId,
        registry: &crate::ModuleRegistry,
    ) -> Result<Vec<Pid>, CriuError> {
        let resolved = self.resolve_shared(id)?;
        let mut staged: Vec<StagedProcess> = Vec::with_capacity(resolved.len());
        for &(image, keys) in &resolved {
            if dynacut_vm::fault::hit(dynacut_vm::fault::FaultPhase::RestoreHandles) {
                return Err(CriuError::FaultInjected(
                    dynacut_vm::fault::FaultPhase::RestoreHandles,
                ));
            }
            staged.push(build_process_shared(
                kernel,
                image,
                registry,
                keys,
                &self.pages,
            )?);
        }
        let committed = RestoreTransaction::from_staged(staged).commit(kernel)?;
        Ok(committed.pids().to_vec())
    }

    /// Promotes the checkpoint `id` — a customized canary image — onto a
    /// *different* replica group: each frozen `target` process is
    /// replaced by a clone of the corresponding canary process built
    /// entirely from shared page handles. This is the fleet-rollout fast
    /// path: no page is dumped from the target, no page byte is copied
    /// out of the store ([`PageStore::copied_bytes`] does not move), and
    /// the rewrite itself is never repeated.
    ///
    /// The canary image is **retargeted** before building: the target
    /// keeps its own pid, parent and descriptor table (captured live,
    /// exactly as [`dump`](crate::dump) would record them), while
    /// memory, registers, sigactions, modules and the syscall filter
    /// come from the canary — the promoted replica *is* the canary,
    /// wearing the target's identity. Targets must match the canary
    /// group one-to-one and be frozen.
    ///
    /// Returns the [`CommittedRestore`](crate::CommittedRestore) receipt
    /// so a rollout engine can [`undo`](crate::CommittedRestore::undo)
    /// the promotion if a later replica
    /// fails — the same PR 2 transaction machinery as a normal cycle.
    ///
    /// # Errors
    ///
    /// Fails with [`CriuError::MissingParent`] if `id` is not live,
    /// [`CriuError::Inconsistent`] on a group-size mismatch,
    /// [`CriuError::Vm`] if a target is missing or not frozen, or
    /// propagates build/commit failures; the kernel is
    /// untouched or rolled back on every error path.
    pub fn promote_shared(
        &self,
        kernel: &mut Kernel,
        id: CkptId,
        registry: &crate::ModuleRegistry,
        targets: &[Pid],
    ) -> Result<crate::CommittedRestore, CriuError> {
        let resolved = self.resolve_shared(id)?;
        if resolved.len() != targets.len() {
            return Err(CriuError::Inconsistent(format!(
                "canary image holds {} processes but the target group has {}",
                resolved.len(),
                targets.len()
            )));
        }
        let mut staged: Vec<StagedProcess> = Vec::with_capacity(targets.len());
        for (&(image, keys), &pid) in resolved.iter().zip(targets) {
            if dynacut_vm::fault::hit(dynacut_vm::fault::FaultPhase::PromoteRestore) {
                return Err(CriuError::FaultInjected(
                    dynacut_vm::fault::FaultPhase::PromoteRestore,
                ));
            }
            let retargeted = Self::retarget(kernel, image, pid)?;
            staged.push(build_process_shared(
                kernel,
                &retargeted,
                registry,
                keys,
                &self.pages,
            )?);
        }
        RestoreTransaction::from_staged(staged).commit(kernel)
    }

    /// Rewrites a canary process image to wear a live target process's
    /// identity: pid, parent, name and descriptor table come from the
    /// (frozen) target; everything else stays the canary's.
    fn retarget(
        kernel: &Kernel,
        canary: &ProcessImage,
        pid: Pid,
    ) -> Result<ProcessImage, CriuError> {
        use dynacut_vm::{FileDesc, ProcState};
        let proc = kernel.process(pid)?;
        if proc.state != ProcState::Frozen {
            return Err(CriuError::Vm(dynacut_vm::VmError::BadProcessState {
                pid,
                expected: "frozen",
            }));
        }
        let files = FilesImage {
            fds: proc
                .fds
                .iter()
                .map(|(fd, desc)| {
                    let entry = match desc {
                        FileDesc::Console => FdImage::Console,
                        FileDesc::File { file, pos } => FdImage::File {
                            path: file.path.clone(),
                            pos: *pos,
                        },
                        FileDesc::Socket => FdImage::Socket,
                        FileDesc::Listener { port } => FdImage::Listener { port: *port },
                        FileDesc::Conn(id) => FdImage::Conn { id: *id },
                    };
                    (fd, entry)
                })
                .collect(),
        };
        Ok(ProcessImage {
            core: CoreImage {
                pid,
                parent: proc.parent,
                name: proc.name.clone(),
                ..canary.core.clone()
            },
            mm: canary.mm.clone(),
            pagemap: canary.pagemap.clone(),
            // Page payloads live in the store; the skeleton carries none.
            pages: PagesImage::default(),
            files,
            // `tcp` only matters for repair-mode buffer transplants on a
            // serialized restore; the target's live connections stay in
            // the net stack untouched.
            tcp: TcpImage::default(),
            exec_pages_dumped: canary.exec_pages_dumped,
        })
    }

    /// Resolves checkpoint `id` to per-process skeletons plus one page
    /// key per pagemap entry, with no page bytes touched.
    fn resolve_shared(&self, id: CkptId) -> Result<Vec<(&ProcessImage, &[PageKey])>, CriuError> {
        let entry = self.entry(id)?;
        Ok(entry
            .skeleton
            .procs
            .iter()
            .zip(entry.pages.iter().map(SharedPages::keys))
            .collect())
    }
}
