package enclave

import (
	"bytes"
	"errors"
	"testing"

	"nexus/internal/sgx"
)

// newFreshnessEnv builds a mounted volume on the flat freshness table
// oracle (flat_freshness_test.go).
func newFreshnessEnv(t *testing.T) (*testEnv, *Enclave, identity) {
	t.Helper()
	env := newTestEnv(t, nil, nil)
	encl, err := NewWithFlatFreshness(Config{SGX: env.enclave.sgx, Store: env.store, IAS: env.ias})
	if err != nil {
		t.Fatal(err)
	}
	owner := newIdentity(t, "owen")
	sealed, err := encl.CreateVolume(owner.name, owner.pub)
	if err != nil {
		t.Fatal(err)
	}
	volID, err := encl.VolumeUUID()
	if err != nil {
		t.Fatal(err)
	}
	if err := authenticate(t, encl, owner, sealed, volID); err != nil {
		t.Fatal(err)
	}
	return env, encl, owner
}

func TestFreshnessTreeNormalOperation(t *testing.T) {
	_, e, _ := newFreshnessEnv(t)
	if err := e.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteFile("/d/f", []byte("data")); err == nil {
		t.Fatal("WriteFile on missing file succeeded")
	}
	if err := e.Touch("/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteFile("/d/f", []byte("data")); err != nil {
		t.Fatal(err)
	}
	got, err := e.ReadFile("/d/f")
	if err != nil || string(got) != "data" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	if err := e.Remove("/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove("/d"); err != nil {
		t.Fatal(err)
	}
}

// TestFreshnessTreeCatchesWholeSnapshotRollback exercises the attack the
// per-object counters cannot see: the server restores a full consistent
// snapshot, and a *fresh* enclave (no local version memory for the
// rolled-back dirnode) mounts afterwards.
func TestFreshnessTreeCatchesWholeSnapshotRollback(t *testing.T) {
	env, e, owner := newFreshnessEnv(t)

	if err := e.Mkdir("/docs"); err != nil {
		t.Fatal(err)
	}
	if err := e.Touch("/docs/old"); err != nil {
		t.Fatal(err)
	}
	// Snapshot everything except the freshness table (the attacker
	// cannot forge the table because it is sealed under the rootkey, and
	// rolling it back too is caught by the next writer's seq check; here
	// the attacker rolls back only the data).
	snapshot := make(map[string][]byte)
	names, err := env.store.mem.List("")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if n == FreshnessObjectName {
			continue
		}
		b, _, err := env.store.GetVersioned(n)
		if err != nil {
			t.Fatal(err)
		}
		snapshot[n] = b
	}

	if err := e.Touch("/docs/new"); err != nil {
		t.Fatal(err)
	}

	// Server restores the old snapshot.
	for n, b := range snapshot {
		cur, _, err := env.store.GetVersioned(n)
		if err == nil && bytes.Equal(cur, b) {
			continue
		}
		if _, err := env.store.PutVersioned(n, b); err != nil {
			t.Fatal(err)
		}
	}

	// A brand-new enclave instance (fresh platform state is fine — the
	// table is on the store) mounts and must detect the rollback.
	encl2, err := NewWithFlatFreshness(Config{SGX: e.sgx, Store: env.store, IAS: env.ias})
	if err != nil {
		t.Fatal(err)
	}
	// Reuse the original enclave's sealed rootkey: seal is bound to the
	// platform+measurement, and encl2 shares both.
	sealed2, err := e.sgx.Seal(e.rootKey, e.super.VolumeUUID[:])
	if err != nil {
		t.Fatal(err)
	}
	volID := e.super.VolumeUUID
	if err := authenticate(t, encl2, owner, sealed2, volID); err != nil {
		t.Fatalf("mount after rollback: %v", err)
	}
	_, err = encl2.Filldir("/docs")
	if !errors.Is(err, ErrStaleMetadata) {
		t.Fatalf("snapshot rollback = %v, want ErrStaleMetadata", err)
	}
}

// TestPerObjectCountersMissSnapshotRollback documents the bound every
// freshness commitment shares (§VI-C): a server that rolls back the
// whole volume, commitment included, fools an enclave that has no local
// memory of anything newer. Only the enclave's own state detects it.
func TestPerObjectCountersMissSnapshotRollback(t *testing.T) {
	owner := newIdentity(t, "owen")
	env, _, _ := newMountedVolume(t, owner)
	e := env.enclave

	if err := e.Mkdir("/docs"); err != nil {
		t.Fatal(err)
	}
	snapshot := make(map[string][]byte)
	names, err := env.store.mem.List("")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		b, _, err := env.store.GetVersioned(n)
		if err != nil {
			t.Fatal(err)
		}
		snapshot[n] = b
	}
	if err := e.Touch("/docs/new"); err != nil {
		t.Fatal(err)
	}
	for n, b := range snapshot {
		if _, err := env.store.PutVersioned(n, b); err != nil {
			t.Fatal(err)
		}
	}

	// Fresh enclave, no memory of the newer epoch: the stale state,
	// Merkle root included, verifies.
	encl2, err := New(Config{SGX: e.sgx, Store: env.store, IAS: env.ias})
	if err != nil {
		t.Fatal(err)
	}
	sealed2, err := e.sgx.Seal(e.rootKey, e.super.VolumeUUID[:])
	if err != nil {
		t.Fatal(err)
	}
	if err := authenticate(t, encl2, owner, sealed2, e.super.VolumeUUID); err != nil {
		t.Fatal(err)
	}
	entries, err := encl2.Filldir("/docs")
	if err != nil {
		t.Fatalf("fresh enclave rejected a consistent whole-volume snapshot: %v", err)
	}
	if len(entries) != 0 {
		t.Fatalf("stale snapshot shows %d entries (expected the old empty dir)", len(entries))
	}
}

func TestFreshnessTableTamperRejected(t *testing.T) {
	env, e, _ := newFreshnessEnv(t)
	if err := e.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	blob, _, err := env.store.GetVersioned(FreshnessObjectName)
	if err != nil {
		t.Fatal(err)
	}
	mut := bytes.Clone(blob)
	mut[len(mut)-1] ^= 1
	if _, err := env.store.PutVersioned(FreshnessObjectName, mut); err != nil {
		t.Fatal(err)
	}
	if err := e.Mkdir("/d2"); err == nil {
		t.Fatal("tampered freshness table accepted")
	}
}

func TestFreshnessTreeCostsOneExtraObject(t *testing.T) {
	_, e, _ := newFreshnessEnv(t)
	e.ResetStats()
	if err := e.Touch("/f"); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	// Touch writes: filenode, bucket, dirnode, freshness (x2: filenode
	// flush and dirnode flush both record).
	if st.MetadataFlushes < 4 {
		t.Fatalf("flushes = %d; expected freshness-table writes on top of metadata", st.MetadataFlushes)
	}
}

// replayStale overwrites name on the store with an older blob and drops
// the caches, so the next load sees the replayed copy.
func replayStale(t *testing.T, e *Enclave, store *memObjectStore, name string, old []byte) {
	t.Helper()
	if _, err := store.PutVersioned(name, old); err != nil {
		t.Fatal(err)
	}
	e.DropCaches()
}

// TestDefaultEnclaveCommitsFreshness checks that New over a plain store
// (no proof service) stacks the freshness store itself: the first drain
// advances the Merkle root, and a replayed stale filenode is rejected.
func TestDefaultEnclaveCommitsFreshness(t *testing.T) {
	store := newMemObjectStore()
	e := newAuthedEnclave(t, Config{Store: store, Writeback: WritebackOn})
	if err := e.Touch("/f"); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteFile("/f", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := e.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	if n := e.Obs().CounterValue("enclave_freshness_root_updates_total"); n == 0 {
		t.Fatal("first drain committed no freshness root")
	}
	filenode := fileObjectNames(t, e, "/f")[0]
	old, _, err := store.GetVersioned(filenode)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.WriteFile("/f", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := e.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	replayStale(t, e, store, filenode, old)
	if _, err := e.ReadFile("/f"); !errors.Is(err, ErrStaleObject) {
		t.Fatalf("stale filenode replay = %v, want ErrStaleObject", err)
	}
}

// TestVolumeWithoutMerkleStateMounts pins compatibility for volumes the
// Merkle tree has never seen: one written through the flat table, and
// one written with no freshness state at all. The default enclave
// mounts them and reads them back (objects absent from the tree pass),
// and its first drain adds what it flushes, so a replay of the
// pre-upgrade filenode is then caught.
func TestVolumeWithoutMerkleStateMounts(t *testing.T) {
	for _, tc := range []struct {
		name    string
		newEncl func(Config) (*Enclave, error)
		strip   bool // delete the Merkle objects after writing
	}{
		{"flat table", NewWithFlatFreshness, false},
		{"no freshness state", New, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			owner := newIdentity(t, "owen")
			ias, err := sgx.NewAttestationService()
			if err != nil {
				t.Fatal(err)
			}
			platform, err := sgx.NewPlatform(sgx.PlatformConfig{}, ias)
			if err != nil {
				t.Fatal(err)
			}
			store := newMemObjectStore()
			enclaveOn := func(newEncl func(Config) (*Enclave, error), wb WritebackMode) *Enclave {
				t.Helper()
				container, err := platform.CreateEnclave(nexusImage)
				if err != nil {
					t.Fatal(err)
				}
				e, err := newEncl(Config{SGX: container, Store: store, IAS: ias, Writeback: wb})
				if err != nil {
					t.Fatal(err)
				}
				return e
			}

			writer := enclaveOn(tc.newEncl, WritebackEager)
			sealed, err := writer.CreateVolume(owner.name, owner.pub)
			if err != nil {
				t.Fatal(err)
			}
			volID, err := writer.VolumeUUID()
			if err != nil {
				t.Fatal(err)
			}
			if err := authenticate(t, writer, owner, sealed, volID); err != nil {
				t.Fatal(err)
			}
			if err := writer.Mkdir("/d"); err != nil {
				t.Fatal(err)
			}
			if err := writer.Touch("/d/f"); err != nil {
				t.Fatal(err)
			}
			if err := writer.WriteFile("/d/f", []byte("v1")); err != nil {
				t.Fatal(err)
			}
			filenode := fileObjectNames(t, writer, "/d/f")[0]
			old, _, err := store.GetVersioned(filenode)
			if err != nil {
				t.Fatal(err)
			}
			names, err := store.mem.List("")
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range names {
				if n == MerkleRootObjectName || IsFreshnessTreeObject(n) {
					if !tc.strip {
						t.Fatalf("flat-table writer left Merkle object %q", n)
					}
					if err := store.Delete(n); err != nil {
						t.Fatal(err)
					}
				}
			}

			reader := enclaveOn(New, WritebackOn)
			if err := authenticate(t, reader, owner, sealed, volID); err != nil {
				t.Fatalf("mount on the default enclave: %v", err)
			}
			if got, err := reader.ReadFile("/d/f"); err != nil || string(got) != "v1" {
				t.Fatalf("ReadFile = %q, %v", got, err)
			}
			if err := reader.WriteFile("/d/f", []byte("v2")); err != nil {
				t.Fatal(err)
			}
			if err := reader.SyncMetadata(); err != nil {
				t.Fatal(err)
			}
			if n := reader.Obs().CounterValue("enclave_freshness_root_updates_total"); n == 0 {
				t.Fatal("first drain committed no freshness root")
			}
			replayStale(t, reader, store, filenode, old)
			if _, err := reader.ReadFile("/d/f"); !errors.Is(err, ErrStaleObject) {
				t.Fatalf("replayed pre-upgrade filenode = %v, want ErrStaleObject", err)
			}
		})
	}
}
