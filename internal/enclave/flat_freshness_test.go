package enclave

import (
	"fmt"

	"nexus/internal/metadata"
	"nexus/internal/serial"
	"nexus/internal/uuid"
)

// The flat freshness table is the differential oracle for the Merkle
// path: the volume-wide version table the paper sketches for rollback
// detection (§VI-C), kept in its simplest form. Every object's current
// version is recorded in one sealed table that is re-read on every check
// and re-sealed and re-uploaded on every commit — O(n) transfer per
// operation, which is why the enclave ships the Merkle root instead.
// The table's own rollback protection is the enclave-local memory of
// its sequence number. Tests install it with NewWithFlatFreshness
// (export_test.go).

// FreshnessObjectName is the store name of the flat freshness table.
const FreshnessObjectName = "freshness"

// freshTableID keys the table's preamble.
var freshTableID = uuid.UUID{0xff, 0xfe}

// freshTable is the volume-wide version table.
type freshTable struct {
	// Seq is the table's own update counter.
	Seq uint64
	// Versions records the latest sealed version of every metadata
	// object, keyed by UUID.
	Versions map[uuid.UUID]uint64
}

func newFreshTable() *freshTable {
	return &freshTable{Versions: make(map[uuid.UUID]uint64)}
}

func (t *freshTable) encode() []byte {
	w := serial.NewWriter(16 + 24*len(t.Versions))
	w.WriteUint64(t.Seq)
	w.WriteUint32(uint32(len(t.Versions)))
	for id, v := range t.Versions {
		w.WriteRaw(id[:])
		w.WriteUint64(v)
	}
	return w.Bytes()
}

func decodeFreshTable(body []byte) (*freshTable, error) {
	r := serial.NewReader(body)
	t := newFreshTable()
	t.Seq = r.ReadUint64("freshness seq")
	n := r.ReadCount(0, "freshness entries")
	for i := 0; i < n; i++ {
		var id uuid.UUID
		r.ReadRawInto(id[:], "freshness uuid")
		t.Versions[id] = r.ReadUint64("freshness version")
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("decoding freshness table: %w", err)
	}
	return t, nil
}

// flatFreshness is the flat-table freshnessPath.
type flatFreshness struct {
	e *Enclave
	// seq is the newest table sequence number this enclave has seen.
	seq uint64
}

// loadLocked fetches and verifies the table. A missing table is an
// empty one (fresh volume).
func (f *flatFreshness) loadLocked() (*freshTable, error) {
	e := f.e
	blob, _, err := e.fetchObject(FreshnessObjectName)
	if err != nil {
		if isNotExist(err) {
			return newFreshTable(), nil
		}
		return nil, fmt.Errorf("fetching freshness table: %w", err)
	}
	p, body, err := metadata.Open(e.rootKey, blob)
	if err != nil {
		return nil, fmt.Errorf("verifying freshness table: %w", err)
	}
	if p.Type != metadata.TypeFreshness {
		return nil, fmt.Errorf("%w: freshness object has type %s", metadata.ErrTampered, p.Type)
	}
	t, err := decodeFreshTable(body)
	if err != nil {
		return nil, err
	}
	if t.Seq != p.Version {
		return nil, fmt.Errorf("%w: freshness table seq %d != sealed version %d",
			metadata.ErrTampered, t.Seq, p.Version)
	}
	if t.Seq < f.seq {
		return nil, fmt.Errorf("%w: freshness table seq %d < seen %d", ErrStaleMetadata, t.Seq, f.seq)
	}
	f.seq = t.Seq
	return t, nil
}

func (f *flatFreshness) commitLocked(updates map[uuid.UUID]uint64) error {
	e := f.e
	release, err := e.lockObject(FreshnessObjectName)
	if err != nil {
		return fmt.Errorf("locking freshness table: %w", err)
	}
	defer release()

	t, err := f.loadLocked()
	if err != nil {
		return err
	}
	for id, v := range updates {
		if v == 0 {
			delete(t.Versions, id)
		} else {
			t.Versions[id] = v
		}
	}
	t.Seq++
	blob, err := metadata.Seal(e.rootKey, metadata.Preamble{
		Type:    metadata.TypeFreshness,
		UUID:    freshTableID,
		Version: t.Seq,
	}, t.encode())
	if err != nil {
		return fmt.Errorf("sealing freshness table: %w", err)
	}
	if _, err := e.putObject(FreshnessObjectName, blob); err != nil {
		return fmt.Errorf("uploading freshness table: %w", err)
	}
	f.seq = t.Seq
	e.metrics.metadataFlushes.Inc()
	e.metrics.metadataBytes.Add(int64(len(blob)))
	return nil
}

func (f *flatFreshness) checkLocked(id uuid.UUID, version uint64) error {
	t, err := f.loadLocked()
	if err != nil {
		return err
	}
	if want, ok := t.Versions[id]; ok && version < want {
		return fmt.Errorf("%w: object %s at version %d, freshness table requires %d",
			ErrStaleMetadata, id, version, want)
	}
	return nil
}
