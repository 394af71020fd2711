package enclave

// Content-addressed dedup beneath the filenode (Config.ContentDefined;
// DESIGN.md §16). File contents are split by the content-defined
// chunker (internal/chunker), each chunk sealed convergently under the
// volume dedup secret (internal/cas) and stored once under its
// content-derived handle; the filenode records an extent list instead
// of per-chunk crypto contexts. A persistent reference-count table
// ("cas-refs", one per volume, sealed like every metadata object)
// drives garbage collection of unreferenced chunks.
//
// The crash-consistency invariant: the on-store ref table must NEVER
// undercount live references. Undercounting lets a later decrement hit
// zero and delete a chunk some filenode still names — data loss.
// Overcounting merely leaks a chunk object until the count drifts back
// down. Every flush in this file is therefore ordered so a crash at
// any point only overcounts:
//
//	upload new chunks → flush increments → flush filenode →
//	flush decrements → delete zeroed chunk objects
//
// Increments flush inside writeFileCDCLocked (before the caller seals
// the filenode); decrements accumulate in e.casDecs and flush through
// casFlushDecsLocked only after the referencing filenode is on the
// store (casFinishEagerLocked in eager mode, the tail of drainLocked in
// write-back mode). Chunk-object and superseded legacy data-object
// deletions trail the decrement flush via e.casPendingDeletes.
//
// Chunk uploads are idempotent byte-identical PUTs (cas derivation is
// deterministic), so a stale-low view of the table — e.g. the cached
// copy on first use — costs a redundant upload, never correctness.
// As with the write-back dirnode merge, concurrent clients GC-ing the
// same chunks a writer is deduplicating against is out of scope: the
// advisory ref-table lock serializes table updates, not the skip
// decision.

import (
	"fmt"

	"nexus/internal/cas"
	"nexus/internal/chunker"
	"nexus/internal/metadata"
	"nexus/internal/uuid"
)

// RefTableObjectName is the store name of the volume's chunk
// reference-count table.
const RefTableObjectName = "cas-refs"

// refTableID keys the ref table's preamble UUID (the merkle root's is
// {0xff,0xfd}).
var refTableID = uuid.UUID{0xff, 0xfc}

// loadRefTableLocked fetches and verifies the ref table. A missing
// table is an empty one (no CDC writes yet). The enclave's local
// memory of the table's version (refsSeq) is its rollback protection.
func (e *Enclave) loadRefTableLocked() (*cas.RefTable, uint64, error) {
	blob, _, err := e.fetchObject(RefTableObjectName)
	if err != nil {
		if isNotExist(err) {
			return cas.NewRefTable(), 0, nil
		}
		return nil, 0, fmt.Errorf("fetching ref table: %w", err)
	}
	p, body, err := metadata.Open(e.rootKey, blob)
	if err != nil {
		return nil, 0, fmt.Errorf("verifying ref table: %w", err)
	}
	if p.Type != metadata.TypeRefTable {
		return nil, 0, fmt.Errorf("%w: ref table object has type %s", metadata.ErrTampered, p.Type)
	}
	if p.UUID != refTableID {
		return nil, 0, fmt.Errorf("%w: ref table claims UUID %s", metadata.ErrTampered, p.UUID)
	}
	if p.Version < e.refsSeq {
		return nil, 0, fmt.Errorf("%w: ref table version %d < seen %d", ErrStaleMetadata, p.Version, e.refsSeq)
	}
	t, err := cas.DecodeRefTable(body)
	if err != nil {
		return nil, 0, err
	}
	e.refsSeq = p.Version
	return t, p.Version, nil
}

// ensureRefsLocked lazily populates the cached committed ref table the
// dedup-skip decision reads. The cache is maintained by every flush;
// between flushes it can only be stale low (another client's uploads),
// which costs idempotent re-uploads, never correctness.
func (e *Enclave) ensureRefsLocked() error {
	if e.refsLoaded {
		return nil
	}
	t, _, err := e.loadRefTableLocked()
	if err != nil {
		return err
	}
	e.refs = t
	e.refsLoaded = true
	return nil
}

// flushRefTableLocked seals and uploads t at the next version, under
// the caller-held ref-table store lock, and installs it as the cache.
func (e *Enclave) flushRefTableLocked(t *cas.RefTable, version uint64) error {
	blob, err := metadata.Seal(e.rootKey, metadata.Preamble{
		Type:    metadata.TypeRefTable,
		UUID:    refTableID,
		Version: version,
	}, t.Encode())
	if err != nil {
		return fmt.Errorf("sealing ref table: %w", err)
	}
	if _, err := e.putObject(RefTableObjectName, blob); err != nil {
		return fmt.Errorf("uploading ref table: %w", err)
	}
	e.refs = t
	e.refsLoaded = true
	e.refsSeq = version
	e.metrics.metadataFlushes.Inc()
	e.metrics.metadataBytes.Add(int64(len(blob)))
	return nil
}

// casApplyIncsLocked merges reference increments into the on-store
// table: lock, reload (another client may have advanced it), apply,
// re-seal. Runs before the referencing filenode flushes, so the table
// overcounts — never undercounts — across a crash.
func (e *Enclave) casApplyIncsLocked(incs map[cas.Handle]uint32) error {
	if len(incs) == 0 {
		return nil
	}
	release, err := e.lockObject(RefTableObjectName)
	if err != nil {
		return fmt.Errorf("locking ref table: %w", err)
	}
	defer release()
	t, seq, err := e.loadRefTableLocked()
	if err != nil {
		return err
	}
	for h, n := range incs {
		t.Inc(h, n)
	}
	return e.flushRefTableLocked(t, seq+1)
}

// casStageDecsLocked queues reference drops for a no-longer-referenced
// extent list. They flush — and zeroed chunks are deleted — only after
// the metadata that referenced them is off the store (see the ordering
// invariant in the package comment above).
func (e *Enclave) casStageDecsLocked(extents []cas.Extent) {
	for _, x := range extents {
		e.casDecs[x.Handle]++
	}
}

// casFlushDecsLocked applies pending reference drops to the on-store
// table and deletes every chunk object that reached zero, plus any
// queued name-based deletions (superseded legacy data objects). Safe
// to retry: decrements clear only after the table upload succeeds, and
// the deletion queue drains destructively with missing objects
// tolerated.
func (e *Enclave) casFlushDecsLocked() error {
	if len(e.casDecs) == 0 && len(e.casPendingDeletes) == 0 {
		return nil
	}
	if len(e.casDecs) > 0 {
		release, err := e.lockObject(RefTableObjectName)
		if err != nil {
			return fmt.Errorf("locking ref table: %w", err)
		}
		defer release()
		t, seq, err := e.loadRefTableLocked()
		if err != nil {
			return err
		}
		var zeroed []string
		for h, n := range e.casDecs {
			if _, z := t.Dec(h, n); z {
				zeroed = append(zeroed, h.ObjectName())
			}
		}
		if err := e.flushRefTableLocked(t, seq+1); err != nil {
			return err
		}
		e.casDecs = make(map[cas.Handle]uint32)
		e.casPendingDeletes = append(e.casPendingDeletes, zeroed...)
	}
	for len(e.casPendingDeletes) > 0 {
		name := e.casPendingDeletes[0]
		if err := e.deleteObject(name); err != nil && !isNotExist(err) {
			return fmt.Errorf("deleting unreferenced chunk %s: %w", name, err)
		}
		e.casPendingDeletes = e.casPendingDeletes[1:]
	}
	return nil
}

// casFinishEagerLocked is the eager-mode tail of a CDC mutation: the
// caller has flushed (or deleted) the referencing filenode, so pending
// decrements and deferred object deletions can land. In write-back
// mode it is a no-op — staged filenode deletions have not run yet, so
// the drops ride drainLocked's tail instead.
func (e *Enclave) casFinishEagerLocked() error {
	if e.wb != nil {
		return nil
	}
	return e.casFlushDecsLocked()
}

// writeFileCDCLocked is encryptAndPutLocked's content-defined twin: it
// chunks data, uploads only chunks the volume has never stored, flushes
// the reference increments, and rewrites f's extent list in memory.
// The caller remains responsible for flushing the filenode and then
// calling casFinishEagerLocked (eager mode) or draining (write-back).
func (e *Enclave) writeFileCDCLocked(f *metadata.Filenode, data []byte) error {
	if e.casSecret == nil {
		return ErrNotMounted
	}
	if err := e.ensureRefsLocked(); err != nil {
		return err
	}

	c, err := chunker.NewWith(chunker.Config{
		Min: int(e.cfg.ChunkSize) / 4,
		Avg: int(e.cfg.ChunkSize),
		Max: int(e.cfg.ChunkSize) * 4,
	}, e.arena)
	if err != nil {
		return err
	}
	cuts := c.Feed(data, nil)
	if cut, ok := c.Flush(); ok {
		cuts = append(cuts, cut)
	}
	c.Close()

	extents := make([]cas.Extent, 0, len(cuts))
	newCounts := make(map[cas.Handle]uint32, len(cuts))
	prev := 0
	for _, cut := range cuts {
		h := e.casSecret.HandleFor(data[prev:cut])
		extents = append(extents, cas.Extent{Handle: h, Len: uint32(cut - prev)})
		newCounts[h]++
		prev = cut
	}
	oldCounts := make(map[cas.Handle]uint32, len(f.Extents))
	if f.ContentDefined {
		for _, x := range f.Extents {
			oldCounts[x.Handle]++
		}
	}

	// Upload pass: one sealed PUT per distinct chunk the volume does not
	// already hold. "Already holds" = referenced by the committed table,
	// or by the content this write replaces (whose increments are
	// committed). Pending decrements cannot invalidate either source:
	// zeroed chunks are only deleted after this write's increments land.
	span := e.metrics.tracer.Begin("enclave.chunkcrypto")
	span.SetTagInt("chunks", int64(len(cuts)))
	span.SetTagInt("cdc", 1)
	defer span.End()
	seen := make(map[cas.Handle]bool, len(cuts))
	prev = 0
	for i, cut := range cuts {
		h := extents[i].Handle
		chunk := data[prev:cut]
		prev = cut
		if seen[h] {
			continue
		}
		seen[h] = true
		if oldCounts[h] > 0 || e.refs.Get(h) > 0 {
			e.metrics.dedupHits.Inc()
			e.metrics.dedupSkipBytes.Add(int64(len(chunk)))
			continue
		}
		buf := e.arena.Get(cas.SealedLen(len(chunk)))
		if err := e.casSecret.Seal(h, chunk, buf.B); err != nil {
			buf.Release()
			return err
		}
		_, err := e.putDataObject(h.ObjectName(), buf.B)
		buf.Release()
		if err != nil {
			return fmt.Errorf("uploading chunk %s: %w", h, err)
		}
		e.metrics.dedupUploads.Inc()
		e.metrics.dataBytes.Add(int64(cas.SealedLen(len(chunk))))
	}
	e.metrics.chunks.Add(int64(len(cuts)))

	// Net reference deltas against the content being replaced. A handle
	// present on both sides nets out entirely — its chunk never risks a
	// transient zero.
	incs := make(map[cas.Handle]uint32)
	for h, n := range newCounts {
		if o := oldCounts[h]; n > o {
			incs[h] = n - o
		}
	}
	if err := e.casApplyIncsLocked(incs); err != nil {
		return err
	}
	for h, o := range oldCounts {
		if n := newCounts[h]; o > n {
			e.casDecs[h] += o - n
		}
	}

	// First CDC write to a legacy file supersedes its fixed-size data
	// object; the deletion trails the filenode flush so a crash never
	// strands the on-store filenode pointing at nothing.
	if !f.ContentDefined && f.Size > 0 {
		if e.wb != nil {
			e.stageDeleteLocked(f.DataUUID, false)
		} else {
			e.casPendingDeletes = append(e.casPendingDeletes, objName(f.DataUUID))
		}
	}

	f.ContentDefined = true
	f.ChunkSize = 0
	f.Extents = extents
	f.Size = uint64(len(data))
	f.Chunks = nil
	return nil
}

// readFileCDCLocked reassembles a content-defined file: each extent's
// sealed chunk is fetched by handle and opened directly into its slot
// of the output.
func (e *Enclave) readFileCDCLocked(f *metadata.Filenode) ([]byte, error) {
	if e.casSecret == nil {
		return nil, ErrNotMounted
	}
	span := e.metrics.tracer.Begin("enclave.chunkcrypto")
	span.SetTagInt("chunks", int64(len(f.Extents)))
	span.SetTagInt("cdc", 1)
	defer span.End()
	out := make([]byte, f.Size)
	off := 0
	for _, x := range f.Extents {
		blob, _, err := e.fetchDataObject(x.Handle.ObjectName())
		if err != nil {
			return nil, fmt.Errorf("fetching chunk %s: %w", x.Handle, err)
		}
		if len(blob) != cas.SealedLen(int(x.Len)) {
			return nil, fmt.Errorf("%w: chunk %s is %d bytes, extent records %d sealed",
				cas.ErrTampered, x.Handle, len(blob), cas.SealedLen(int(x.Len)))
		}
		if err := e.casSecret.Open(x.Handle, blob, out[off:off+int(x.Len)]); err != nil {
			return nil, err
		}
		off += int(x.Len)
	}
	e.metrics.chunks.Add(int64(len(f.Extents)))
	return out, nil
}
