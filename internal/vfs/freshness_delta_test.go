package vfs

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"nexus/internal/backend"
	"nexus/internal/enclave"
	"nexus/internal/merkle"
	"nexus/internal/uuid"
)

// probeStore counts the requests a FreshnessStore sends its inner store
// and can fail one chosen put.
type probeStore struct {
	enclave.ObjectStore

	mu       sync.Mutex
	gets     int
	puts     int
	putBytes map[string][]int // per object name, in put order
	failPut  int              // 1-based put to fail; 0 = none
}

var errInjectedPut = errors.New("injected put failure")

func newProbeStore(inner enclave.ObjectStore) *probeStore {
	return &probeStore{ObjectStore: inner, putBytes: make(map[string][]int)}
}

func (p *probeStore) GetVersioned(name string) ([]byte, uint64, error) {
	p.mu.Lock()
	p.gets++
	p.mu.Unlock()
	return p.ObjectStore.GetVersioned(name)
}

func (p *probeStore) PutVersioned(name string, data []byte) (uint64, error) {
	p.mu.Lock()
	p.puts++
	fail := p.puts == p.failPut
	if !fail {
		p.putBytes[name] = append(p.putBytes[name], len(data))
	}
	p.mu.Unlock()
	if fail {
		return 0, errInjectedPut
	}
	return p.ObjectStore.PutVersioned(name, data)
}

func (p *probeStore) counts() (gets, puts int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gets, p.puts
}

func newMemVersionedStore() enclave.ObjectStore {
	return NewVersionedStore(backend.NewMemStore())
}

// freshnessStoreOver wraps inner and returns the FreshnessStore inside,
// whichever variant NewFreshnessStore picked.
func freshnessStoreOver(t *testing.T, inner enclave.ObjectStore) *FreshnessStore {
	t.Helper()
	switch s := NewFreshnessStore(inner).(type) {
	case *FreshnessStore:
		return s
	case *streamFreshnessStore:
		return s.FreshnessStore
	default:
		t.Fatalf("NewFreshnessStore returned %T", s)
		return nil
	}
}

// deltaTestBatch is a deterministic batch for the update at epoch:
// one long-lived leaf rewritten every time, one fresh leaf, and every
// fifth epoch a removal of an earlier fresh leaf.
func deltaTestBatch(epoch uint64) []merkle.LeafUpdate {
	leaf := func(n uint64) uuid.UUID {
		var id uuid.UUID
		id[0], id[1], id[15] = byte(n), byte(n>>8), 0xa5
		return id
	}
	batch := []merkle.LeafUpdate{
		{ID: leaf(0), Version: epoch + 1},
		{ID: leaf(epoch + 1), Version: 1},
	}
	if epoch%5 == 4 {
		batch = append(batch, merkle.LeafUpdate{ID: leaf(epoch - 2), Version: 0})
	}
	return batch
}

// foldBatch runs one FreshnessUpdate and folds its proofs the way the
// enclave does, returning the error instead of failing.
func foldBatch(s *FreshnessStore, epoch uint64, root [32]byte, batch []merkle.LeafUpdate) ([32]byte, error) {
	proofs, err := s.FreshnessUpdate(epoch, batch)
	if err != nil {
		return root, err
	}
	for i, raw := range proofs {
		p, err := merkle.DecodeProof(raw)
		if err != nil {
			return root, err
		}
		if root, err = p.NewRoot(root, batch[i].ID, batch[i].Version); err != nil {
			return root, err
		}
	}
	return root, nil
}

// checkServes asserts s serves proofs at epoch that verify against
// root, for every leaf the batch producing or following epoch touches.
func checkServes(t *testing.T, s *FreshnessStore, epoch uint64, root [32]byte) {
	t.Helper()
	for _, u := range append(deltaTestBatch(epoch), deltaTestBatch(epoch+1)...) {
		raw, err := s.FreshnessProof(u.ID, epoch)
		if err != nil {
			t.Fatalf("proof at epoch %d: %v", epoch, err)
		}
		p, err := merkle.DecodeProof(raw)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.Verify(root, u.ID); err != nil {
			t.Fatalf("proof at epoch %d does not verify against its root: %v", epoch, err)
		}
	}
}

// referenceRoots runs n batches without faults and returns the root
// after each epoch (roots[0] is the empty root).
func referenceRoots(t *testing.T, n int) [][32]byte {
	t.Helper()
	s := freshnessStoreOver(t, newMemVersionedStore())
	roots := [][32]byte{merkle.EmptyRoot()}
	for e := uint64(0); e < uint64(n); e++ {
		root, err := foldBatch(s, e, roots[e], deltaTestBatch(e))
		if err != nil {
			t.Fatalf("reference batch %d: %v", e, err)
		}
		roots = append(roots, root)
	}
	return roots
}

func TestFreshnessStoreOnePutPerBatchWithPeriodicBase(t *testing.T) {
	probe := newProbeStore(newMemVersionedStore())
	s := freshnessStoreOver(t, probe)
	root := merkle.EmptyRoot()
	const batches = 3 * deltaRing
	for e := uint64(0); e < batches; e++ {
		_, before := probe.counts()
		var err error
		if root, err = foldBatch(s, e, root, deltaTestBatch(e)); err != nil {
			t.Fatalf("batch %d: %v", e, err)
		}
		if _, after := probe.counts(); after != before+1 {
			t.Fatalf("batch %d issued %d puts, want 1", e, after-before)
		}
	}
	// Bases at the first epoch and at every multiple of the ring size;
	// everything else is a delta no larger than its batch.
	if got, want := len(probe.putBytes[FreshnessTreeObjectName]), 1+batches/deltaRing; got != want {
		t.Fatalf("%d base snapshots over %d batches, want %d", got, batches, want)
	}
	for name, sizes := range probe.putBytes {
		if name == FreshnessTreeObjectName {
			continue
		}
		if !IsFreshnessTreeObject(name) {
			t.Fatalf("unexpected object %q written", name)
		}
		for _, n := range sizes {
			if max := 1 + 8 + 4 + 3*leafUpdateSize; n > max {
				t.Fatalf("delta %s is %d bytes, want <= %d", name, n, max)
			}
		}
	}
}

func TestFreshnessStoreColdLoadBoundAndCatchUp(t *testing.T) {
	inner := newMemVersionedStore()
	writer := freshnessStoreOver(t, inner)
	roots := []([32]byte){merkle.EmptyRoot()}
	advanceTo := func(epoch uint64) {
		for e := uint64(len(roots) - 1); e < epoch; e++ {
			root, err := foldBatch(writer, e, roots[e], deltaTestBatch(e))
			if err != nil {
				t.Fatalf("batch %d: %v", e, err)
			}
			roots = append(roots, root)
		}
	}

	// The longest replay: the base sits at 2L and every later slot up
	// to 3L-1 is a live delta.
	advanceTo(3*deltaRing - 1)
	probe := newProbeStore(inner)
	cold := freshnessStoreOver(t, probe)
	checkServes(t, cold, 3*deltaRing-1, roots[3*deltaRing-1])
	if gets, _ := probe.counts(); gets > deltaRing {
		t.Fatalf("cold load read %d objects, want <= %d", gets, deltaRing)
	}
	checkServes(t, cold, 3*deltaRing-2, roots[3*deltaRing-2])

	// Catching up across the base rewritten at 3L: the slot for 3L is
	// empty (read once through the cache, once past it), so the client
	// reloads from the new base and replays the five deltas after it.
	advanceTo(3*deltaRing + 5)
	before, _ := probe.counts()
	checkServes(t, cold, 3*deltaRing+5, roots[3*deltaRing+5])
	if gets, _ := probe.counts(); gets-before != 2+1+5 {
		t.Fatalf("catch-up across a base read %d objects, want %d", gets-before, 2+1+5)
	}
	// Otherwise a client holding an older tree reads only the deltas it
	// lacks.
	advanceTo(3*deltaRing + 9)
	before, _ = probe.counts()
	checkServes(t, cold, 3*deltaRing+9, roots[3*deltaRing+9])
	if gets, _ := probe.counts(); gets-before != 4 {
		t.Fatalf("catching up 4 epochs read %d objects, want 4", gets-before)
	}

	// The serving window stays current + previous.
	if _, err := cold.FreshnessProof(fsTestUUID(1), 3*deltaRing+7); !errors.Is(err, ErrEpochUnavailable) {
		t.Fatalf("two-back proof = %v, want ErrEpochUnavailable", err)
	}
}

// TestFreshnessStoreFaultPoints fails each put of a 3L-batch run in
// turn — delta puts, base puts at the ring boundary, and the root
// commit that follows each tree update — then retries the batch the way
// the enclave does. The retry must converge on the fault-free root, and
// a fresh wrapper over the same store must serve the current and the
// previous epoch.
func TestFreshnessStoreFaultPoints(t *testing.T) {
	const batches = 3 * deltaRing
	const rootObject = "freshness-root"
	roots := referenceRoots(t, batches)
	for fault := 1; fault <= 2*batches; fault++ {
		inner := newMemVersionedStore()
		probe := newProbeStore(inner)
		probe.failPut = fault
		s := freshnessStoreOver(t, probe)
		root, epoch := merkle.EmptyRoot(), uint64(0)
		faulted := false
		for epoch < batches {
			next, err := foldBatch(s, epoch, root, deltaTestBatch(epoch))
			if err == nil {
				_, err = s.PutVersioned(rootObject, next[:])
			}
			if err != nil {
				if !errors.Is(err, errInjectedPut) || faulted {
					t.Fatalf("fault %d, epoch %d: %v", fault, epoch, err)
				}
				faulted = true
				// Nothing committed: the enclave is still at epoch.
				checkServes(t, freshnessStoreOver(t, inner), epoch, root)
				continue
			}
			if next != roots[epoch+1] {
				t.Fatalf("fault %d: epoch %d root diverged from the fault-free run", fault, epoch+1)
			}
			root, epoch = next, epoch+1
			if faulted && epoch > 0 {
				fresh := freshnessStoreOver(t, inner)
				checkServes(t, fresh, epoch, root)
				checkServes(t, fresh, epoch-1, roots[epoch-1])
				faulted = false
				probe.failPut = 0
			}
		}
		if probe.failPut != 0 {
			t.Fatalf("fault %d never fired", fault)
		}
	}
}

// staleCacheStore models a caching client whose callback break has not
// landed yet: a held name keeps serving the copy captured when it was
// held, until Lock drops it — as afs.Client.Lock drops its cached copy
// and revalidates with the server.
type staleCacheStore struct {
	enclave.ObjectStore

	mu    sync.Mutex
	stale map[string]staleCopy
}

type staleCopy struct {
	data    []byte
	version uint64
	err     error
}

func newStaleCacheStore(inner enclave.ObjectStore) *staleCacheStore {
	return &staleCacheStore{ObjectStore: inner, stale: make(map[string]staleCopy)}
}

func (s *staleCacheStore) hold(name string) {
	data, version, err := s.ObjectStore.GetVersioned(name)
	s.mu.Lock()
	s.stale[name] = staleCopy{data, version, err}
	s.mu.Unlock()
}

func (s *staleCacheStore) GetVersioned(name string) ([]byte, uint64, error) {
	s.mu.Lock()
	c, ok := s.stale[name]
	s.mu.Unlock()
	if ok {
		return c.data, c.version, c.err
	}
	return s.ObjectStore.GetVersioned(name)
}

func (s *staleCacheStore) Lock(name string) (func(), error) {
	s.mu.Lock()
	delete(s.stale, name)
	s.mu.Unlock()
	return s.ObjectStore.Lock(name)
}

func TestFreshnessStoreRevalidatesStaleDelta(t *testing.T) {
	inner := newMemVersionedStore()
	cache := newStaleCacheStore(inner)
	a := freshnessStoreOver(t, cache)
	b := freshnessStoreOver(t, inner)

	root1, err := foldBatch(a, 0, merkle.EmptyRoot(), deltaTestBatch(0))
	if err != nil {
		t.Fatal(err)
	}
	// Client a still caches "no delta for epoch 2" when b writes it.
	cache.hold(deltaObjectName(2))
	root2, err := foldBatch(b, 1, root1, deltaTestBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	// a's enclave, having locked and read the root at epoch 2, updates.
	if _, err := foldBatch(a, 2, root2, deltaTestBatch(2)); err != nil {
		t.Fatalf("update past a stale cached delta: %v", err)
	}
}

func TestFreshnessStoreRevalidatesStaleBase(t *testing.T) {
	inner := newMemVersionedStore()
	cache := newStaleCacheStore(inner)
	a := freshnessStoreOver(t, cache)
	b := freshnessStoreOver(t, inner)

	roots := [][32]byte{merkle.EmptyRoot()}
	step := func(s *FreshnessStore, e uint64) {
		t.Helper()
		root, err := foldBatch(s, e, roots[e], deltaTestBatch(e))
		if err != nil {
			t.Fatalf("batch %d: %v", e, err)
		}
		roots = append(roots, root)
	}
	step(a, 0)
	// a caches the base from epoch 1 and the empty slot b's compaction
	// leaves at epoch L; b then runs past that compaction.
	cache.hold(FreshnessTreeObjectName)
	cache.hold(deltaObjectName(deltaRing))
	for e := uint64(1); e < deltaRing+3; e++ {
		step(b, e)
	}
	checkServes(t, a, deltaRing+3, roots[deltaRing+3])
}

func TestIsFreshnessTreeObject(t *testing.T) {
	for name, want := range map[string]bool{
		FreshnessTreeObjectName:            true,
		deltaObjectName(1):                 true,
		deltaObjectName(deltaRing - 1):     true,
		enclave.MerkleRootObjectName:       false,
		enclave.FreshnessObjectName:        false,
		"0123456789abcdef0123456789abcdef": false,
	} {
		if got := IsFreshnessTreeObject(name); got != want {
			t.Errorf("IsFreshnessTreeObject(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestFreshnessDeltaDecodeRejectsGarbage(t *testing.T) {
	blob := encodeDelta(7, deltaTestBatch(6))
	for name, mut := range map[string][]byte{
		"empty":       {},
		"bad format":  append([]byte{9}, blob[1:]...),
		"truncated":   blob[:len(blob)-1],
		"trailing":    append(append([]byte(nil), blob...), 0),
		"huge count":  append(append([]byte(nil), blob[:9]...), 0xff, 0xff, 0x0f, 0x00),
		"short count": blob[:11],
	} {
		if _, _, err := decodeDelta(mut); err == nil {
			t.Errorf("%s delta decoded", name)
		}
	}
	epoch, updates, err := decodeDelta(blob)
	if err != nil || epoch != 7 || len(updates) != len(deltaTestBatch(6)) {
		t.Fatalf("round trip: epoch %d, %d updates, err %v", epoch, len(updates), err)
	}
}

func FuzzFreshnessDeltaDecode(f *testing.F) {
	f.Add(encodeDelta(0, nil))
	f.Add(encodeDelta(1, deltaTestBatch(0)))
	f.Add(encodeDelta(deltaRing+4, deltaTestBatch(deltaRing+4)))
	f.Fuzz(func(t *testing.T, data []byte) {
		epoch, updates, err := decodeDelta(data)
		if err != nil {
			return
		}
		if out := encodeDelta(epoch, updates); !bytes.Equal(out, data) {
			t.Fatalf("re-encode is not canonical:\n in  %x\n out %x", data, out)
		}
		// Replaying any decodable delta must neither panic nor leave an
		// undo log that fails to restore the tree it started from.
		base := merkle.New()
		base.Set(uuid.UUID{1}, 1)
		next, undo, _ := advance(base, updates, false)
		back, _, _ := advance(next, undo, false)
		if back.Root() != base.Root() {
			t.Fatal("undo log does not restore the pre-delta tree")
		}
	})
}
