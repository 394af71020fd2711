package enclave

// Write-back metadata flushing (DESIGN.md §12). In eager mode every
// mutating op seals and uploads its filenode and dirnode inline — one
// metadata round-trip per create/write, exactly the overhead the paper
// amortizes by caching decrypted metadata in enclave memory (§V-B). In
// write-back mode mutations instead mark their metadata dirty in an
// in-enclave dirty set and the set is drained in dependency order
// (children before the dirnodes that name them, deferred deletes last)
// at explicit barriers: SyncMetadata (File.Sync/Close and FS.Sync in
// vfs), ACL/user/sharing changes, DropCaches, and the op-count/byte
// high-water marks.
//
// Ordering invariants the drain preserves:
//
//   - a dirnode is uploaded only after every new child object it
//     references exists on the store (new filenodes and deeper dirnodes
//     flush first), so readers never chase a dangling entry;
//   - within one dirnode, flushDirnodeLocked's copy-on-write protocol
//     still writes buckets before the main object, so unlocked readers
//     see an entirely-old or entirely-new snapshot;
//   - deferred deletes run after all uploads, so no on-store dirnode
//     ever references a deleted object;
//   - the freshness commitment advances once per batch, absorbing
//     every per-object update through e.freshSink.
//
// Deferred dirnode mutations also keep a per-node op log (insert/remove
// by name). Batched ops skip the per-op store lock; at drain time the
// directory's lock is taken, the on-store version re-read, and — if
// another client advanced it meanwhile — the log is replayed onto the
// fresh copy (last-writer-wins per name) instead of clobbering it.

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"time"

	"nexus/internal/metadata"
	"nexus/internal/uuid"
)

// WritebackMode selects the metadata flush policy (Config.Writeback).
type WritebackMode string

const (
	// WritebackEager is the zero value: flush metadata inline on every
	// mutation (the ClientConfig knob maps "off" here).
	WritebackEager WritebackMode = ""
	// WritebackOn defers metadata flushes into the dirty set.
	WritebackOn WritebackMode = "on"
)

// Defaults for the dirty-set high-water marks.
const (
	defaultWritebackMaxOps   = 64
	defaultWritebackMaxBytes = 4 << 20
)

// EPC charge estimates for dirty metadata held in enclave memory.
const (
	estFilenodeEPC = 512
	estDirnodeEPC  = 1024
	estDirOpBytes  = 256
)

type dirOpKind uint8

const (
	opInsert dirOpKind = iota
	opRemove
)

// dirOp is one deferred directory mutation, replayable onto a freshly
// loaded copy if the on-store directory advanced under us.
type dirOp struct {
	kind  dirOpKind
	entry metadata.DirEntry // opInsert
	name  string            // opRemove
}

// dirtyNode is one metadata object with pending changes. Exactly one of
// dir/file is set.
type dirtyNode struct {
	dir  *metadata.Dirnode
	file *metadata.Filenode
	// isNew marks an object the store has never seen (flushes at
	// version 1, no merge needed, cancellable without residue).
	isNew bool
	// base is the store version the dirty copy derives from (0 for new
	// objects); the drain flushes at base+1 when the store is unchanged.
	base uint64
	ops  []dirOp
	// charged is the EPC debt taken for holding this node pinned.
	charged int64
}

// pendingDelete is a store object whose removal is deferred to the end
// of the next drain (meta objects also clear their freshness entries).
type pendingDelete struct {
	id   uuid.UUID
	meta bool
}

// dirtySet tracks all pending metadata work. Guarded by Enclave.mu.
type dirtySet struct {
	maxOps   int
	maxBytes int64

	nodes   map[uuid.UUID]*dirtyNode
	deletes []pendingDelete
	delSeen map[uuid.UUID]bool

	// ops/bytes approximate the batched work since the last drain;
	// pressure is set when an EPC charge for a dirty node failed, which
	// forces a drain at the next opportunity.
	ops      int
	bytes    int64
	pressure bool

	// superDirty marks a pending supernode mutation (user table or
	// membership key tree rotation). It is only ever set by the
	// admin operations, which drain before releasing the supernode
	// store lock, so the flush below always runs under that lock.
	superDirty bool
}

func newDirtySet(maxOps int, maxBytes int64) *dirtySet {
	if maxOps <= 0 {
		maxOps = defaultWritebackMaxOps
	}
	if maxBytes <= 0 {
		maxBytes = defaultWritebackMaxBytes
	}
	return &dirtySet{
		maxOps:   maxOps,
		maxBytes: maxBytes,
		nodes:    make(map[uuid.UUID]*dirtyNode),
		delSeen:  make(map[uuid.UUID]bool),
	}
}

// WritebackEnabled reports whether the enclave defers metadata flushes.
func (e *Enclave) WritebackEnabled() bool {
	//lint:ignore lock-discipline wb is assigned once at construction; only its fields need mu
	return e.wb != nil
}

// dirtyDirnodeLocked returns the pending copy of a dirnode, which
// shadows both the decrypted cache and the store.
func (e *Enclave) dirtyDirnodeLocked(id uuid.UUID) (*metadata.Dirnode, uint64, bool) {
	if e.wb == nil {
		return nil, 0, false
	}
	n, ok := e.wb.nodes[id]
	if !ok || n.dir == nil {
		return nil, 0, false
	}
	return n.dir, n.base, true
}

// dirtyFilenodeLocked returns the pending copy of a filenode.
func (e *Enclave) dirtyFilenodeLocked(id uuid.UUID) (*metadata.Filenode, uint64, bool) {
	if e.wb == nil {
		return nil, 0, false
	}
	n, ok := e.wb.nodes[id]
	if !ok || n.file == nil {
		return nil, 0, false
	}
	return n.file, n.base, true
}

// chargeDirtyLocked takes the EPC debt for pinning a dirty node; on
// exhaustion the node stays unpinned (charged 0) and the set is flagged
// for an immediate drain.
func (e *Enclave) chargeDirtyLocked(n *dirtyNode, est int64) {
	if err := e.sgx.AllocEPC(est); err != nil {
		e.wb.pressure = true
		return
	}
	n.charged = est
}

// markNewFilenodeLocked registers a just-created filenode the store has
// never seen; it flushes at version 1 during the next drain.
func (e *Enclave) markNewFilenodeLocked(f *metadata.Filenode) {
	n := &dirtyNode{file: f, isNew: true}
	e.chargeDirtyLocked(n, estFilenodeEPC)
	e.wb.nodes[f.UUID] = n
	e.wb.ops++
	e.wb.bytes += estFilenodeEPC
	e.metrics.metadataDirty.Inc()
	e.metrics.dirtyGauge.Set(int64(len(e.wb.nodes)))
}

// markNewDirnodeLocked registers a just-created dirnode.
func (e *Enclave) markNewDirnodeLocked(d *metadata.Dirnode) {
	n := &dirtyNode{dir: d, isNew: true}
	e.chargeDirtyLocked(n, estDirnodeEPC)
	e.wb.nodes[d.UUID] = n
	e.wb.ops++
	e.wb.bytes += estDirnodeEPC
	e.metrics.metadataDirty.Inc()
	e.metrics.dirtyGauge.Set(int64(len(e.wb.nodes)))
}

// markDirnodeOpLocked records a deferred mutation of an existing
// dirnode (d must be the copy loadDirnode returned, so repeat ops hit
// the same in-memory object). base is the store version the first mark
// derives from; later marks keep the original base.
func (e *Enclave) markDirnodeOpLocked(d *metadata.Dirnode, base uint64, op dirOp) {
	n, ok := e.wb.nodes[d.UUID]
	if !ok {
		n = &dirtyNode{dir: d, base: base}
		e.chargeDirtyLocked(n, estDirnodeEPC)
		e.wb.nodes[d.UUID] = n
		e.wb.bytes += estDirnodeEPC
		e.metrics.dirtyGauge.Set(int64(len(e.wb.nodes)))
	}
	if !n.isNew {
		// New dirnodes carry their full state in memory; no log needed.
		n.ops = append(n.ops, op)
	}
	e.wb.ops++
	e.wb.bytes += estDirOpBytes
	e.metrics.metadataDirty.Inc()
}

// stageDeleteLocked defers a store-object removal to the end of the
// next drain (after all uploads, so nothing on store dangles).
func (e *Enclave) stageDeleteLocked(id uuid.UUID, meta bool) {
	if e.wb.delSeen[id] {
		return
	}
	e.wb.delSeen[id] = true
	e.wb.deletes = append(e.wb.deletes, pendingDelete{id: id, meta: meta})
	e.wb.ops++
}

// dropDirtyNodeLocked forgets a dirty node (flushed or cancelled),
// returning its EPC debt.
func (e *Enclave) dropDirtyNodeLocked(id uuid.UUID) {
	n, ok := e.wb.nodes[id]
	if !ok {
		return
	}
	if n.charged > 0 {
		e.sgx.FreeEPC(n.charged)
	}
	delete(e.wb.nodes, id)
	e.metrics.dirtyGauge.Set(int64(len(e.wb.nodes)))
}

// maybeDrainLocked drains when a high-water mark (op count, estimated
// bytes, or EPC pressure) is hit. High-water drains are best-effort —
// like page-cache writeback, transient store faults are absorbed here
// and durability is reported at the explicit barriers, which are
// idempotent drains of whatever remains.
func (e *Enclave) maybeDrainLocked() error {
	if e.wb == nil {
		return nil
	}
	if e.wb.ops < e.wb.maxOps && e.wb.bytes < e.wb.maxBytes && !e.wb.pressure {
		return nil
	}
	//lint:ignore unchecked-crypto-error high-water drains are best-effort (page-cache semantics); barriers report durability
	_ = e.drainLocked()
	return nil
}

// drainWithRetryLocked is the barrier-grade drain: ErrStoreUnavailable
// is retried with a short deterministic backoff (the drain is
// idempotent — already-flushed nodes have left the set), anything else
// surfaces immediately.
func (e *Enclave) drainWithRetryLocked() error {
	if e.wb == nil {
		return nil
	}
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		if err = e.drainLocked(); err == nil || !errors.Is(err, ErrStoreUnavailable) {
			return err
		}
		time.Sleep(time.Duration(1<<(2*attempt)) * time.Millisecond)
	}
	return err
}

// drainLocked flushes the whole dirty set in dependency order and
// advances the freshness commitment once. On failure the un-flushed portion
// of the set is left intact for retry.
func (e *Enclave) drainLocked() error {
	if e.wb == nil || (len(e.wb.nodes) == 0 && len(e.wb.deletes) == 0 && !e.wb.superDirty &&
		len(e.casDecs) == 0 && len(e.casPendingDeletes) == 0) {
		return nil
	}
	span := e.metrics.tracer.Begin("enclave.flush_batch")
	span.SetTagInt("objects", int64(len(e.wb.nodes)))
	span.SetTagInt("ops", int64(e.wb.ops))
	span.SetTagInt("deletes", int64(len(e.wb.deletes)))
	defer span.End()

	// Per-object freshness updates from the individual flushes collect
	// in freshSink; the commitment advances once below.
	e.freshSink = make(map[uuid.UUID]uint64)
	err := e.flushDirtyNodesLocked()
	if err == nil && e.wb.superDirty {
		// Final stage: the supernode (user-table changes and key-tree
		// rotations) flushes after every child object it could
		// reference, under the supernode store lock the admin operation
		// is still holding.
		if err = e.flushSupernodeLocked(); err == nil {
			e.wb.superDirty = false
		}
	}
	updates := e.freshSink
	e.freshSink = nil
	if err != nil {
		return err
	}
	e.wb.ops, e.wb.bytes, e.wb.pressure = 0, 0, false
	e.metrics.flushBatches.Inc()
	e.metrics.dirtyGauge.Set(0)
	if err := e.recordFreshnessLocked(updates); err != nil {
		return err
	}
	// CDC reference drops flush last of all: every filenode upload and
	// every staged filenode deletion has run, so a chunk that reaches
	// zero here is provably unreferenced by anything on the store. A
	// failure keeps the drops queued for the next drain (the table
	// overcounts in the interim, which only leaks).
	return e.casFlushDecsLocked()
}

// flushDirtyNodesLocked uploads dirty nodes children-first, then runs
// the deferred deletes.
func (e *Enclave) flushDirtyNodesLocked() error {
	// Stage 1: new filenodes, so no dirnode upload ever references a
	// file object missing from the store.
	var fileIDs []uuid.UUID
	for id, n := range e.wb.nodes {
		if n.file != nil {
			fileIDs = append(fileIDs, id)
		}
	}
	sortUUIDs(fileIDs)
	for _, id := range fileIDs {
		n := e.wb.nodes[id]
		if err := e.flushFilenodeLocked(n.file, n.base+1); err != nil {
			return err
		}
		e.dropDirtyNodeLocked(id)
	}

	// Stage 2: dirnodes deepest-first (depth = number of dirty ancestors
	// via the Parent chain), so a parent referencing a new child
	// directory uploads after the child exists.
	var dirIDs []uuid.UUID
	for id, n := range e.wb.nodes {
		if n.dir != nil {
			dirIDs = append(dirIDs, id)
		}
	}
	depths := make(map[uuid.UUID]int, len(dirIDs))
	for _, id := range dirIDs {
		depths[id] = e.dirtyDepthLocked(id)
	}
	sort.Slice(dirIDs, func(i, j int) bool {
		if depths[dirIDs[i]] != depths[dirIDs[j]] {
			return depths[dirIDs[i]] > depths[dirIDs[j]]
		}
		return bytes.Compare(dirIDs[i][:], dirIDs[j][:]) < 0
	})
	for _, id := range dirIDs {
		n := e.wb.nodes[id]
		if n.isNew {
			if err := e.flushDirnodeLocked(n.dir, n.base+1); err != nil {
				return err
			}
		} else if err := e.flushDirtyExistingDirnodeLocked(id, n); err != nil {
			return err
		}
		e.dropDirtyNodeLocked(id)
	}

	// Stage 3: deferred deletes, FIFO, last — nothing on the store
	// references these objects any more.
	for len(e.wb.deletes) > 0 {
		del := e.wb.deletes[0]
		if err := e.deleteObject(objName(del.id)); err != nil && !isNotExist(err) {
			return err
		}
		if del.meta && e.freshSink != nil {
			e.freshSink[del.id] = 0
		}
		e.wb.deletes = e.wb.deletes[1:]
		delete(e.wb.delSeen, del.id)
	}
	return nil
}

// dirtyDepthLocked counts dirty ancestors of a dirty dirnode (bounded
// by the set size, so a corrupt parent cycle cannot loop forever).
func (e *Enclave) dirtyDepthLocked(id uuid.UUID) int {
	depth := 0
	cur := e.wb.nodes[id].dir
	for i := 0; i < len(e.wb.nodes); i++ {
		pn, ok := e.wb.nodes[cur.Parent]
		if !ok || pn.dir == nil {
			break
		}
		depth++
		cur = pn.dir
	}
	return depth
}

// flushDirtyExistingDirnodeLocked flushes a dirnode the store already
// holds: it takes the directory's store lock (deferred from the
// individual ops), re-reads the on-store version, and either flushes
// the in-memory copy at base+1 (store unchanged) or replays the op log
// onto the fresh copy (another client advanced it).
func (e *Enclave) flushDirtyExistingDirnodeLocked(id uuid.UUID, n *dirtyNode) error {
	release, err := e.lockObject(objName(id))
	if err != nil {
		return fmt.Errorf("locking dirnode %s: %w", id, err)
	}
	defer release()
	blob, _, err := e.fetchObject(objName(id))
	if err != nil {
		return fmt.Errorf("fetching dirnode %s: %w", id, err)
	}
	p, body, err := e.openBlobVerified(id, blob, metadata.TypeDirnode, n.dir.Parent)
	if err != nil {
		return err
	}
	if p.Version == n.base {
		return e.flushDirnodeLocked(n.dir, n.base+1)
	}
	fresh, err := metadata.DecodeDirnodeBody(id, n.dir.Parent, body)
	if err != nil {
		return err
	}
	if err := e.replayDirOpsLocked(fresh, n.ops); err != nil {
		return err
	}
	if err := e.flushDirnodeLocked(fresh, p.Version+1); err != nil {
		return err
	}
	n.dir = fresh
	return nil
}

// replayDirOpsLocked applies a deferred op log to a freshly loaded
// dirnode, last-writer-wins per name.
func (e *Enclave) replayDirOpsLocked(d *metadata.Dirnode, ops []dirOp) error {
	loader := e.bucketLoaderFor(d)
	for _, op := range ops {
		switch op.kind {
		case opInsert:
			err := d.Insert(op.entry, loader)
			if errors.Is(err, metadata.ErrEntryExists) {
				if _, rerr := d.Remove(op.entry.Name, loader); rerr != nil && !errors.Is(rerr, metadata.ErrEntryNotFound) {
					return rerr
				}
				err = d.Insert(op.entry, loader)
			}
			if err != nil {
				return err
			}
		case opRemove:
			if _, err := d.Remove(op.name, loader); err != nil && !errors.Is(err, metadata.ErrEntryNotFound) {
				return err
			}
		}
	}
	return nil
}

// createEntryWritebackLocked is createEntry's deferred path: the new
// child and the directory insert are marked dirty instead of flushed,
// and no store lock is taken (conflicts are merged at drain time).
func (e *Enclave) createEntryWritebackLocked(w walkResult, path, name string, kind metadata.EntryKind, symlinkTarget string) error {
	entry := metadata.DirEntry{
		Name:          name,
		UUID:          uuid.New(),
		Kind:          kind,
		SymlinkTarget: symlinkTarget,
	}
	if err := w.dir.Insert(entry, e.bucketLoaderFor(w.dir)); err != nil {
		if errors.Is(err, metadata.ErrEntryExists) {
			return fmt.Errorf("%w: %s", ErrExists, path)
		}
		return err
	}
	switch kind {
	case metadata.KindFile:
		e.markNewFilenodeLocked(metadata.NewFilenode(entry.UUID, w.dir.UUID, e.cfg.ChunkSize))
	case metadata.KindDir:
		e.markNewDirnodeLocked(metadata.NewDirnode(entry.UUID, w.dir.UUID, e.cfg.BucketSize))
	case metadata.KindSymlink:
		// Symlinks live entirely in the dirnode entry.
	}
	e.markDirnodeOpLocked(w.dir, w.version, dirOp{kind: opInsert, entry: entry})
	return e.maybeDrainLocked()
}

// removeWritebackLocked is Remove's deferred path. Object removals are
// staged (they run after all uploads in the drain); a remove of a
// still-pending create simply cancels it.
func (e *Enclave) removeWritebackLocked(w walkResult, path, name string) error {
	entry, err := w.dir.Lookup(name, e.bucketLoaderFor(w.dir))
	if err != nil {
		if errors.Is(err, metadata.ErrEntryNotFound) {
			return fmt.Errorf("%w: %s", ErrNotFound, path)
		}
		return err
	}

	switch entry.Kind {
	case metadata.KindDir:
		child, _, err := e.loadDirnode(entry.UUID, w.dir.UUID)
		if err != nil {
			return err
		}
		if child.EntryCount() != 0 {
			return fmt.Errorf("%w: %s", ErrNotEmpty, path)
		}
		if n, ok := e.wb.nodes[entry.UUID]; ok && n.isNew {
			// The store never saw it: cancelling the pending create is
			// the whole removal.
			e.dropDirtyNodeLocked(entry.UUID)
		} else {
			e.dropDirtyNodeLocked(entry.UUID)
			// In-memory Refs name on-store buckets (UUIDs are only
			// reassigned at flush) or never-stored ones, whose staged
			// deletes are tolerated as missing.
			for _, ref := range child.Refs {
				e.stageDeleteLocked(ref.UUID, true)
			}
			for _, old := range child.Retired {
				e.stageDeleteLocked(old, true)
			}
			e.stageDeleteLocked(entry.UUID, true)
			e.cache.invalidate(entry.UUID)
		}

	case metadata.KindFile:
		if n, ok := e.wb.nodes[entry.UUID]; ok && n.file != nil {
			// Pending create: cancel it; only the eagerly-uploaded data
			// (a legacy object, or CDC chunk references) needs dropping.
			if n.file.ContentDefined {
				e.casStageDecsLocked(n.file.Extents)
			} else if n.file.Size > 0 {
				e.stageDeleteLocked(n.file.DataUUID, false)
			}
			e.dropDirtyNodeLocked(entry.UUID)
		} else {
			// The link count races with concurrent WriteFile/Hardlink
			// from other clients, so the final-unlink decision stays
			// under the filenode's store lock even in write-back mode.
			fRelease, err := e.lockObject(objName(entry.UUID))
			if err != nil {
				return fmt.Errorf("locking filenode: %w", err)
			}
			defer fRelease()
			f, fv, err := e.loadFilenode(entry.UUID, w.dir.UUID)
			if err != nil {
				return err
			}
			if f.LinkCount > 1 {
				f.LinkCount--
				f.Parent = uuid.Nil
				if err := e.flushFilenodeLocked(f, fv+1); err != nil {
					return err
				}
			} else {
				if f.ContentDefined {
					// The drops flush at the drain's tail, after the staged
					// filenode deletion below has run.
					e.casStageDecsLocked(f.Extents)
				} else if f.Size > 0 {
					e.stageDeleteLocked(f.DataUUID, false)
				}
				e.stageDeleteLocked(entry.UUID, true)
				e.cache.invalidate(entry.UUID)
			}
		}

	case metadata.KindSymlink:
		// Entry-only; nothing else to delete.
	}

	if _, err := w.dir.Remove(name, e.bucketLoaderFor(w.dir)); err != nil {
		return err
	}
	e.markDirnodeOpLocked(w.dir, w.version, dirOp{kind: opRemove, name: name})
	return e.maybeDrainLocked()
}

// SyncMetadata drains all pending write-back metadata to the store: the
// barrier the untrusted layer invokes from File.Sync/Close, FS.Sync,
// and before cache drops. In eager mode (or before a volume is active)
// it is a no-op that performs no ecall.
func (e *Enclave) SyncMetadata() error {
	if e.wb == nil {
		return nil
	}
	return e.retryTornEcall(func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.rootKey == nil {
			return nil
		}
		return e.drainWithRetryLocked()
	})
}

// sortUUIDs orders ids deterministically (byte order).
func sortUUIDs(ids []uuid.UUID) {
	sort.Slice(ids, func(i, j int) bool { return bytes.Compare(ids[i][:], ids[j][:]) < 0 })
}
