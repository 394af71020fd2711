package enclave

import (
	"bytes"
	"fmt"
	"time"

	"nexus/internal/backend"
	"nexus/internal/metadata"
	"nexus/internal/sgx"
	"nexus/internal/uuid"
)

// metaCache holds decrypted metadata objects inside the enclave, keyed by
// UUID and validated against the backing store's version numbers (the
// prototype caches metadata "unencrypted in enclave memory", §V-B). Its
// memory is charged against the SGX EPC budget; on exhaustion the cache
// is dropped wholesale, modelling EPC pressure.
type metaCache struct {
	sgx     *sgx.Enclave
	entries map[uuid.UUID]*cacheEntry
}

type cacheEntry struct {
	version uint64 // store version the decode came from
	// objVersion is the sealed preamble version of the cached object;
	// cache hits report it so the next flush continues the object's
	// version sequence.
	objVersion uint64
	obj        any   // *metadata.Dirnode or *metadata.Filenode
	charged    int64 // EPC bytes charged
}

func newMetaCache(container *sgx.Enclave) *metaCache {
	return &metaCache{sgx: container, entries: make(map[uuid.UUID]*cacheEntry)}
}

func (c *metaCache) get(id uuid.UUID, version uint64) (any, uint64, bool) {
	if c == nil {
		return nil, 0, false
	}
	entry, ok := c.entries[id]
	if !ok || entry.version != version {
		return nil, 0, false
	}
	return entry.obj, entry.objVersion, true
}

func (c *metaCache) put(id uuid.UUID, version, objVersion uint64, obj any, approxSize int64) {
	if c == nil {
		return
	}
	if old, ok := c.entries[id]; ok {
		c.sgx.FreeEPC(old.charged)
		delete(c.entries, id)
	}
	if err := c.sgx.AllocEPC(approxSize); err != nil {
		// EPC pressure: evict everything and retry once.
		c.clear()
		if err := c.sgx.AllocEPC(approxSize); err != nil {
			return // object stays uncached
		}
	}
	c.entries[id] = &cacheEntry{version: version, objVersion: objVersion, obj: obj, charged: approxSize}
}

func (c *metaCache) invalidate(id uuid.UUID) {
	if c == nil {
		return
	}
	if old, ok := c.entries[id]; ok {
		c.sgx.FreeEPC(old.charged)
		delete(c.entries, id)
	}
}

func (c *metaCache) clear() {
	if c == nil {
		return
	}
	for id, entry := range c.entries {
		c.sgx.FreeEPC(entry.charged)
		delete(c.entries, id)
	}
}

// objName is the store name of a metadata or data object.
func objName(id uuid.UUID) string { return id.String() }

// timedOcall runs fn as an ocall, charging its wall time to the given
// meter (metadata vs data I/O, for the Table 5a/5b breakdowns: a
// cumulative ns counter plus a latency histogram). It is the single
// choke point for all store I/O, so storage-substrate faults
// (unreachable service, timeout, interrupted exchange) are classified
// here: they gain the ErrStoreUnavailable sentinel while keeping the
// backend sentinel in the chain.
func (e *Enclave) timedOcall(m ocallMeter, fn func() error) error {
	start := time.Now()
	err := e.sgx.Ocall(fn)
	elapsed := time.Since(start)
	m.ns.Add(int64(elapsed))
	m.lat.Record(elapsed)
	if err != nil && backend.IsUnavailable(err) {
		return fmt.Errorf("%w: %w", ErrStoreUnavailable, err)
	}
	return err
}

// fetchObject retrieves raw metadata object bytes through the ocall
// surface.
func (e *Enclave) fetchObject(name string) ([]byte, uint64, error) {
	var data []byte
	var version uint64
	err := e.timedOcall(e.metrics.metaIO, func() error {
		var err error
		data, version, err = e.store.GetVersioned(name)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	return data, version, nil
}

// putObject uploads raw metadata object bytes through the ocall surface.
func (e *Enclave) putObject(name string, data []byte) (uint64, error) {
	var version uint64
	err := e.timedOcall(e.metrics.metaIO, func() error {
		var err error
		version, err = e.store.PutVersioned(name, data)
		return err
	})
	return version, err
}

// fetchDataObject and putDataObject move encrypted file contents; their
// time is accounted separately from metadata I/O.
func (e *Enclave) fetchDataObject(name string) ([]byte, uint64, error) {
	var data []byte
	var version uint64
	err := e.timedOcall(e.metrics.dataIO, func() error {
		var err error
		data, version, err = e.store.GetVersioned(name)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	return data, version, nil
}

func (e *Enclave) putDataObject(name string, data []byte) (uint64, error) {
	var version uint64
	err := e.timedOcall(e.metrics.dataIO, func() error {
		var err error
		version, err = e.store.PutVersioned(name, data)
		return err
	})
	return version, err
}

// deleteObject removes an object through the ocall surface.
func (e *Enclave) deleteObject(name string) error {
	return e.timedOcall(e.metrics.metaIO, func() error { return e.store.Delete(name) })
}

// lockObject acquires the store's advisory lock on an object.
func (e *Enclave) lockObject(name string) (func(), error) {
	var release func()
	err := e.timedOcall(e.metrics.metaIO, func() error {
		var err error
		release, err = e.store.Lock(name)
		return err
	})
	if err != nil {
		return nil, err
	}
	return release, nil
}

// openVerified fetches an object, opens it with the rootkey, and applies
// the traversal checks: expected type, expected UUID, expected parent
// (the file-swap defence, §IV-A3) and version freshness (§VI-C).
func (e *Enclave) openVerified(id uuid.UUID, wantType metadata.ObjType, wantParent uuid.UUID) (metadata.Preamble, []byte, uint64, error) {
	blob, storeVersion, err := e.fetchObject(objName(id))
	if err != nil {
		return metadata.Preamble{}, nil, 0, fmt.Errorf("fetching %s %s: %w", wantType, id, err)
	}
	p, body, err := e.openBlobVerified(id, blob, wantType, wantParent)
	if err != nil {
		return metadata.Preamble{}, nil, 0, err
	}
	return p, body, storeVersion, nil
}

// loadDirnode returns the directory at id, from the decrypted cache when
// the store version is unchanged.
func (e *Enclave) loadDirnode(id, parent uuid.UUID) (*metadata.Dirnode, uint64, error) {
	// A write-back dirty copy shadows both the cache and the store: it
	// carries mutations the store has not seen yet. The returned version
	// is the store version the copy derives from, so an eventual flush
	// at version+1 lines up with the on-store preamble.
	if d, base, ok := e.dirtyDirnodeLocked(id); ok {
		if d.Parent != parent {
			return nil, 0, fmt.Errorf("%w: dirnode %s has parent %s, want %s (file-swap defence)",
				metadata.ErrTampered, id, d.Parent, parent)
		}
		return d, base, nil
	}
	if e.cache != nil {
		// Fetch is served by the AFS client cache (no network) when the
		// callback promise is intact; its version validates the decrypted
		// in-enclave copy, and the bytes are reused on a decode miss.
		blob, storeVersion, err := e.fetchObject(objName(id))
		if err != nil {
			return nil, 0, fmt.Errorf("fetching dirnode %s: %w", id, err)
		}
		if obj, objVersion, ok := e.cache.get(id, storeVersion); ok {
			if d, ok := obj.(*metadata.Dirnode); ok && d.Parent == parent {
				e.metrics.metadataCacheHits.Inc()
				return d, objVersion, nil
			}
		}
		p, body, err := e.openBlobVerified(id, blob, metadata.TypeDirnode, parent)
		if err != nil {
			return nil, 0, err
		}
		d, err := metadata.DecodeDirnodeBody(id, parent, body)
		if err != nil {
			return nil, 0, err
		}
		e.cache.put(id, storeVersion, p.Version, d, int64(len(body))+256)
		return d, p.Version, nil
	}

	p, body, _, err := e.openVerified(id, metadata.TypeDirnode, parent)
	if err != nil {
		return nil, 0, err
	}
	d, err := metadata.DecodeDirnodeBody(id, parent, body)
	if err != nil {
		return nil, 0, err
	}
	return d, p.Version, nil
}

// openBlobVerified is openVerified for already-fetched bytes.
func (e *Enclave) openBlobVerified(id uuid.UUID, blob []byte, wantType metadata.ObjType, wantParent uuid.UUID) (metadata.Preamble, []byte, error) {
	return e.openBlobChecked(id, blob, wantType, &wantParent)
}

// openBlobChecked verifies a fetched blob; a nil wantParent skips the
// parent check (used for hardlinked filenodes).
func (e *Enclave) openBlobChecked(id uuid.UUID, blob []byte, wantType metadata.ObjType, wantParent *uuid.UUID) (metadata.Preamble, []byte, error) {
	p, body, err := metadata.Open(e.rootKey, blob)
	if err != nil {
		return metadata.Preamble{}, nil, fmt.Errorf("verifying %s %s: %w", wantType, id, err)
	}
	e.metrics.metadataLoads.Inc()
	if p.Type != wantType {
		return metadata.Preamble{}, nil, fmt.Errorf("%w: object %s is a %s, want %s",
			metadata.ErrTampered, id, p.Type, wantType)
	}
	if p.UUID != id {
		return metadata.Preamble{}, nil, fmt.Errorf("%w: object %s claims UUID %s",
			metadata.ErrTampered, id, p.UUID)
	}
	if wantParent != nil && p.Parent != *wantParent {
		return metadata.Preamble{}, nil, fmt.Errorf("%w: object %s has parent %s, want %s (file-swap defence)",
			metadata.ErrTampered, id, p.Parent, *wantParent)
	}
	if err := e.fresh.checkLocked(id, p.Version); err != nil {
		return metadata.Preamble{}, nil, err
	}
	return p, body, nil
}

// bucketLoaderFor returns a loader that fetches, verifies (including the
// main dirnode's recorded MAC, §V-B) and decodes dirnode buckets.
func (e *Enclave) bucketLoaderFor(d *metadata.Dirnode) func(i int) (*metadata.Bucket, error) {
	return func(i int) (*metadata.Bucket, error) {
		ref := d.Refs[i]
		blob, _, err := e.fetchObject(objName(ref.UUID))
		if isNotExist(err) {
			// An unlocked reader whose main object lags two flushes
			// behind references buckets the writer has since retired
			// and deleted: the same torn view as a MAC mismatch, and
			// retried the same way (retryTornEcall).
			return nil, fmt.Errorf("%w: bucket %s of dirnode %s: %w",
				metadata.ErrBucketMACMismatch, ref.UUID, d.UUID, err)
		}
		if err != nil {
			return nil, fmt.Errorf("fetching bucket %s: %w", ref.UUID, err)
		}
		tag, err := metadata.Tag(blob)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(tag[:], ref.MAC[:]) {
			return nil, fmt.Errorf("%w: bucket %s of dirnode %s",
				metadata.ErrBucketMACMismatch, ref.UUID, d.UUID)
		}
		_, body, err := e.openBlobVerified(ref.UUID, blob, metadata.TypeDirBucket, d.UUID)
		if err != nil {
			return nil, err
		}
		return metadata.DecodeBucketBody(body)
	}
}

// flushDirnodeLocked seals and uploads a dirnode's dirty buckets and its
// main object at the given (already bumped) version.
//
// Bucket writes are copy-on-write: each dirty bucket that already exists
// on the store is rewritten under a fresh UUID, the main object (written
// last) references the new UUIDs, and the superseded objects are only
// deleted on the *next* flush. Unlocked readers therefore always find a
// consistent (main, buckets) snapshot — either entirely old or entirely
// new — with no torn window between the two writes.
// The flush is transactional with respect to the in-memory dirnode:
// every mutation — the Retired truncation, bucket-UUID reassignment,
// Refs/MAC updates, Dirty/OnStore flips, freshness bumps — is staged in
// locals and applied only after every upload has succeeded. A fault at
// any ocall leaves the in-memory state exactly as it was, so retrying
// the flush (same version) converges memory and store. The only residue
// of a failed attempt is an uploaded-but-unreferenced bucket object
// under a UUID nothing points to, which is invisible to readers.
func (e *Enclave) flushDirnodeLocked(d *metadata.Dirnode, version uint64) error {
	// Phase 1: delete buckets retired by the previous flush — any reader
	// still using them would be two main-object generations behind.
	// Deletion is idempotent (missing objects are tolerated), so a
	// failure later in this flush can safely re-run it; the in-memory
	// Retired list is only truncated at commit.
	for _, old := range d.Retired {
		if err := e.deleteObject(objName(old)); err != nil && !isNotExist(err) {
			return fmt.Errorf("deleting retired bucket %s: %w", old, err)
		}
	}

	// Phase 2: stage every upload. Copy-on-write buckets that already
	// exist on the store get a fresh UUID; the staged Refs/Retired tables
	// describe the post-flush state without touching the dirnode yet.
	type bucketPlan struct {
		idx     int
		newUUID uuid.UUID
		retire  bool
		blob    []byte
		tag     [16]byte
	}
	var plans []bucketPlan
	stagedRefs := make([]metadata.BucketRef, len(d.Refs))
	copy(stagedRefs, d.Refs)
	var stagedRetired []uuid.UUID
	for _, i := range d.DirtyBuckets() {
		b := d.Buckets[i]
		pl := bucketPlan{idx: i, newUUID: b.UUID}
		if b.OnStore {
			pl.retire = true
			pl.newUUID = uuid.New()
			stagedRetired = append(stagedRetired, b.UUID)
		}
		blob, err := metadata.Seal(e.rootKey, metadata.Preamble{
			Type:    metadata.TypeDirBucket,
			UUID:    pl.newUUID,
			Parent:  d.UUID,
			Version: version,
		}, b.EncodeBody())
		if err != nil {
			return fmt.Errorf("sealing bucket %s: %w", pl.newUUID, err)
		}
		tag, err := metadata.Tag(blob)
		if err != nil {
			return err
		}
		pl.blob, pl.tag = blob, tag
		stagedRefs[i] = metadata.BucketRef{UUID: pl.newUUID, Count: d.Refs[i].Count, MAC: tag}
		plans = append(plans, pl)
	}

	// The main object is sealed from the staged tables: swap them in for
	// the encode only (EncodeBody is a pure read).
	savedRefs, savedRetired := d.Refs, d.Retired
	d.Refs, d.Retired = stagedRefs, stagedRetired
	body := d.EncodeBody()
	d.Refs, d.Retired = savedRefs, savedRetired
	mainBlob, err := metadata.Seal(e.rootKey, metadata.Preamble{
		Type:    metadata.TypeDirnode,
		UUID:    d.UUID,
		Parent:  d.Parent,
		Version: version,
	}, body)
	if err != nil {
		return fmt.Errorf("sealing dirnode %s: %w", d.UUID, err)
	}

	// Phase 3: upload buckets first, the main object last, so readers
	// always find a consistent (main, buckets) snapshot — either entirely
	// old or entirely new — with no torn window between the writes.
	for _, pl := range plans {
		if _, err := e.putObject(objName(pl.newUUID), pl.blob); err != nil {
			return fmt.Errorf("uploading bucket %s: %w", pl.newUUID, err)
		}
	}
	storeVersion, err := e.putObject(objName(d.UUID), mainBlob)
	if err != nil {
		return fmt.Errorf("uploading dirnode %s: %w", d.UUID, err)
	}

	// Phase 4: commit. Every upload succeeded; apply the staged state.
	freshUpdates := map[uuid.UUID]uint64{d.UUID: version}
	for _, old := range savedRetired {
		freshUpdates[old] = 0
	}
	for _, pl := range plans {
		b := d.Buckets[pl.idx]
		b.UUID = pl.newUUID
		b.Dirty = false
		b.OnStore = true
		freshUpdates[pl.newUUID] = version
		e.metrics.metadataFlushes.Inc()
		e.metrics.metadataBytes.Add(int64(len(pl.blob)))
	}
	d.Refs, d.Retired = stagedRefs, stagedRetired
	e.metrics.metadataFlushes.Inc()
	e.metrics.metadataBytes.Add(int64(len(mainBlob)))
	if e.cache != nil {
		e.cache.put(d.UUID, storeVersion, version, d, int64(len(body))+256)
	}
	return e.recordFreshnessLocked(freshUpdates)
}

// loadFilenode returns the file metadata at id. The parent-UUID check
// applies only to singly linked files: a hardlinked filenode is
// legitimately reachable from several directories, so its preamble
// records the primary link's parent and the dirnode entry's UUID binding
// provides the remaining structure integrity.
func (e *Enclave) loadFilenode(id, parent uuid.UUID) (*metadata.Filenode, uint64, error) {
	// Pending write-back creates shadow the store (the object may not
	// exist there yet).
	if f, base, ok := e.dirtyFilenodeLocked(id); ok {
		if !f.Parent.IsNil() && f.Parent != parent {
			return nil, 0, fmt.Errorf("%w: filenode %s has parent %s, want %s (file-swap defence)",
				metadata.ErrTampered, id, f.Parent, parent)
		}
		return f, base, nil
	}
	blob, storeVersion, err := e.fetchObject(objName(id))
	if err != nil {
		return nil, 0, fmt.Errorf("fetching filenode %s: %w", id, err)
	}
	if e.cache != nil {
		if obj, objVersion, ok := e.cache.get(id, storeVersion); ok {
			if f, ok := obj.(*metadata.Filenode); ok {
				if f.LinkCount > 1 || f.Parent.IsNil() || f.Parent == parent {
					e.metrics.metadataCacheHits.Inc()
					return f, objVersion, nil
				}
			}
		}
	}
	p, body, err := e.openBlobChecked(id, blob, metadata.TypeFilenode, nil)
	if err != nil {
		return nil, 0, err
	}
	f, err := metadata.DecodeFilenodeBody(id, p.Parent, body)
	if err != nil {
		return nil, 0, err
	}
	if f.LinkCount <= 1 && !f.Parent.IsNil() && f.Parent != parent {
		return nil, 0, fmt.Errorf("%w: filenode %s has parent %s, want %s (file-swap defence)",
			metadata.ErrTampered, id, f.Parent, parent)
	}
	if e.cache != nil {
		e.cache.put(id, storeVersion, p.Version, f, int64(len(body))+128)
	}
	return f, p.Version, nil
}

// flushFilenodeLocked seals and uploads a filenode at the given version.
func (e *Enclave) flushFilenodeLocked(f *metadata.Filenode, version uint64) error {
	blob, err := metadata.Seal(e.rootKey, metadata.Preamble{
		Type:    metadata.TypeFilenode,
		UUID:    f.UUID,
		Parent:  f.Parent,
		Version: version,
	}, f.EncodeBody())
	if err != nil {
		return fmt.Errorf("sealing filenode %s: %w", f.UUID, err)
	}
	storeVersion, err := e.putObject(objName(f.UUID), blob)
	if err != nil {
		return fmt.Errorf("uploading filenode %s: %w", f.UUID, err)
	}
	e.metrics.metadataFlushes.Inc()
	e.metrics.metadataBytes.Add(int64(len(blob)))
	if e.cache != nil {
		e.cache.put(f.UUID, storeVersion, version, f, int64(len(blob))+128)
	}
	return e.recordFreshnessLocked(map[uuid.UUID]uint64{f.UUID: version})
}
