package enclave

import (
	"errors"
	"testing"

	"nexus/internal/merkle"
	"nexus/internal/uuid"
)

func fsTestUUID(b byte) uuid.UUID {
	var id uuid.UUID
	id[0] = b
	id[15] = ^b
	return id
}

func newTestFreshnessStore(t *testing.T) (*FreshnessStore, ObjectStore) {
	t.Helper()
	inner := newStreamMemStore()
	fs, ok := NewFreshnessStore(inner).(interface {
		FreshnessProof(uuid.UUID, uint64) ([]byte, error)
		FreshnessUpdate(uint64, []merkle.LeafUpdate) ([][]byte, error)
	})
	if !ok {
		t.Fatal("NewFreshnessStore lost the proof surface")
	}
	// streamMemStore streams, so the wrapper is the stream variant;
	// reach the embedded FreshnessStore for white-box assertions.
	sfs, ok := fs.(*streamFreshnessStore)
	if !ok {
		t.Fatalf("wrapper over a streaming store is %T, want *streamFreshnessStore", fs)
	}
	return sfs.FreshnessStore, inner
}

// applyBatch pushes one update batch at the store's current epoch and
// folds the returned proofs the way the enclave does, returning the
// root every proof chain converges to.
func applyBatch(t *testing.T, s *FreshnessStore, epoch uint64, root [32]byte, batch []merkle.LeafUpdate) [32]byte {
	t.Helper()
	proofs, err := s.FreshnessUpdate(epoch, batch)
	if err != nil {
		t.Fatalf("FreshnessUpdate(%d): %v", epoch, err)
	}
	if len(proofs) != len(batch) {
		t.Fatalf("%d proofs for %d updates", len(proofs), len(batch))
	}
	for i, raw := range proofs {
		p, err := merkle.DecodeProof(raw)
		if err != nil {
			t.Fatalf("proof %d: %v", i, err)
		}
		if root, err = p.NewRoot(root, batch[i].ID, batch[i].Version); err != nil {
			t.Fatalf("folding proof %d: %v", i, err)
		}
	}
	return root
}

func TestFreshnessStoreProofAndUpdateRoundTrip(t *testing.T) {
	s, _ := newTestFreshnessStore(t)

	// Empty store: absence proof at epoch 0 against the empty root.
	raw, err := s.FreshnessProof(fsTestUUID(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := merkle.DecodeProof(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, present, err := p.Verify(merkle.EmptyRoot(), fsTestUUID(1)); err != nil || present {
		t.Fatalf("empty-store proof: present=%v err=%v", present, err)
	}

	root := merkle.EmptyRoot()
	root = applyBatch(t, s, 0, root, []merkle.LeafUpdate{
		{ID: fsTestUUID(1), Version: 3},
		{ID: fsTestUUID(2), Version: 1},
	})
	root = applyBatch(t, s, 1, root, []merkle.LeafUpdate{
		{ID: fsTestUUID(2), Version: 2},
		{ID: fsTestUUID(3), Version: 9},
	})

	// Proofs at the current epoch verify against the folded root.
	for id, want := range map[byte]uint64{1: 3, 2: 2, 3: 9} {
		raw, err := s.FreshnessProof(fsTestUUID(id), 2)
		if err != nil {
			t.Fatal(err)
		}
		p, err := merkle.DecodeProof(raw)
		if err != nil {
			t.Fatal(err)
		}
		v, present, err := p.Verify(root, fsTestUUID(id))
		if err != nil || !present || v != want {
			t.Fatalf("leaf %d: v=%d present=%v err=%v, want v=%d", id, v, present, err, want)
		}
	}
}

func TestFreshnessStoreServesPreviousEpoch(t *testing.T) {
	s, _ := newTestFreshnessStore(t)
	root0 := merkle.EmptyRoot()
	root1 := applyBatch(t, s, 0, root0, []merkle.LeafUpdate{{ID: fsTestUUID(1), Version: 1}})
	root2 := applyBatch(t, s, 1, root1, []merkle.LeafUpdate{
		{ID: fsTestUUID(1), Version: 2},
		{ID: fsTestUUID(4), Version: 1},
	})

	// The epoch-1 view (an enclave whose sealed root put crashed) is
	// reconstructed from the undo log.
	raw, err := s.FreshnessProof(fsTestUUID(1), 1)
	if err != nil {
		t.Fatalf("previous-epoch proof: %v", err)
	}
	p, err := merkle.DecodeProof(raw)
	if err != nil {
		t.Fatal(err)
	}
	if v, present, err := p.Verify(root1, fsTestUUID(1)); err != nil || !present || v != 1 {
		t.Fatalf("epoch-1 leaf: v=%d present=%v err=%v", v, present, err)
	}
	// And the current epoch still verifies against the newest root.
	raw, err = s.FreshnessProof(fsTestUUID(4), 2)
	if err != nil {
		t.Fatal(err)
	}
	if p, err = merkle.DecodeProof(raw); err != nil {
		t.Fatal(err)
	}
	if v, present, err := p.Verify(root2, fsTestUUID(4)); err != nil || !present || v != 1 {
		t.Fatalf("epoch-2 leaf: v=%d present=%v err=%v", v, present, err)
	}

	// Two epochs back is genuinely gone.
	if _, err := s.FreshnessProof(fsTestUUID(1), 0); !errors.Is(err, ErrEpochUnavailable) {
		t.Fatalf("epoch-0 proof = %v, want ErrEpochUnavailable", err)
	}
}

func TestFreshnessStoreRewindsInterruptedBatch(t *testing.T) {
	s, _ := newTestFreshnessStore(t)
	root0 := merkle.EmptyRoot()
	root1 := applyBatch(t, s, 0, root0, []merkle.LeafUpdate{{ID: fsTestUUID(1), Version: 1}})
	// The tree advanced to epoch 2 but the enclave's sealed root never
	// did (crash between the two writes): the retried batch arrives at
	// epoch 1 again, and must converge on the same root.
	rootA := applyBatch(t, s, 1, root1, []merkle.LeafUpdate{{ID: fsTestUUID(2), Version: 5}})
	rootB := applyBatch(t, s, 1, root1, []merkle.LeafUpdate{{ID: fsTestUUID(2), Version: 5}})
	if rootA != rootB {
		t.Fatal("retried batch did not converge on the same root")
	}
	raw, err := s.FreshnessProof(fsTestUUID(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := merkle.DecodeProof(raw)
	if err != nil {
		t.Fatal(err)
	}
	if v, present, err := p.Verify(rootA, fsTestUUID(2)); err != nil || !present || v != 5 {
		t.Fatalf("post-rewind leaf: v=%d present=%v err=%v", v, present, err)
	}
}

func TestFreshnessStoreSnapshotPersistsAcrossWrappers(t *testing.T) {
	s, inner := newTestFreshnessStore(t)
	root := applyBatch(t, s, 0, merkle.EmptyRoot(), []merkle.LeafUpdate{
		{ID: fsTestUUID(1), Version: 1},
		{ID: fsTestUUID(2), Version: 2},
	})

	// A fresh wrapper over the same inner store (server restart) must
	// reload the snapshot — including the undo log, so it still serves
	// the previous epoch.
	s2, ok := NewFreshnessStore(inner).(*streamFreshnessStore)
	if !ok {
		t.Fatal("fresh wrapper is not the stream variant")
	}
	raw, err := s2.FreshnessProof(fsTestUUID(2), 1)
	if err != nil {
		t.Fatalf("reloaded proof: %v", err)
	}
	p, err := merkle.DecodeProof(raw)
	if err != nil {
		t.Fatal(err)
	}
	if v, present, err := p.Verify(root, fsTestUUID(2)); err != nil || !present || v != 2 {
		t.Fatalf("reloaded leaf: v=%d present=%v err=%v", v, present, err)
	}
	prevRaw, err := s2.FreshnessProof(fsTestUUID(2), 0)
	if err != nil {
		t.Fatalf("reloaded previous-epoch proof: %v", err)
	}
	if p, err = merkle.DecodeProof(prevRaw); err != nil {
		t.Fatal(err)
	}
	if _, present, err := p.Verify(merkle.EmptyRoot(), fsTestUUID(2)); err != nil || present {
		t.Fatalf("reloaded epoch-0 absence: present=%v err=%v", present, err)
	}
}

func TestFreshnessStoreSnapshotDecodeRejectsGarbage(t *testing.T) {
	s, inner := newTestFreshnessStore(t)
	applyBatch(t, s, 0, merkle.EmptyRoot(), []merkle.LeafUpdate{{ID: fsTestUUID(1), Version: 1}})
	blob, _, err := inner.GetVersioned(FreshnessTreeObjectName)
	if err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string][]byte{
		"empty":      {},
		"bad format": append([]byte{99}, blob[1:]...),
		"truncated":  blob[:len(blob)-1],
	} {
		if _, err := inner.PutVersioned(FreshnessTreeObjectName, mut); err != nil {
			t.Fatal(err)
		}
		s2, ok := NewFreshnessStore(inner).(*streamFreshnessStore)
		if !ok {
			t.Fatal("fresh wrapper is not the stream variant")
		}
		if _, err := s2.FreshnessProof(fsTestUUID(1), 1); err == nil {
			t.Errorf("%s snapshot: proof served from garbage", name)
		}
	}
}

func TestFreshnessStoreUpdateAtWrongEpoch(t *testing.T) {
	s, _ := newTestFreshnessStore(t)
	applyBatch(t, s, 0, merkle.EmptyRoot(), []merkle.LeafUpdate{{ID: fsTestUUID(1), Version: 1}})
	if _, err := s.FreshnessUpdate(7, []merkle.LeafUpdate{{ID: fsTestUUID(2), Version: 1}}); !errors.Is(err, ErrEpochUnavailable) {
		t.Fatalf("future-epoch update = %v, want ErrEpochUnavailable", err)
	}
}
