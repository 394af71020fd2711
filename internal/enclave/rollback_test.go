// Adversarial rollback/fork suite for merkle freshness (DESIGN.md §15).
// The store and the proof channel are both controlled by a malicious
// server here; every attack must fail closed with a typed error —
// ErrStaleObject for proven rollbacks and forks, ErrBadProof for proofs
// that do not verify — never be silently accepted.
//
// The malicious proof channel wraps the real untrusted-side plumbing
// (enclave.FreshnessStore); enclave.New uses a store that already
// serves proofs as given, so the attacks reach the enclave unfiltered.
package enclave_test

import (
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"sync"
	"testing"

	"nexus/internal/backend"
	"nexus/internal/enclave"
	"nexus/internal/merkle"
	"nexus/internal/obs"
	"nexus/internal/sgx"
	"nexus/internal/uuid"
)

// rollbackImage is the shared enclave measurement: sealed blobs only
// unseal across instances when platform and measurement both match.
var rollbackImage = sgx.Image{Name: "nexus-enclave", Version: 1, Code: []byte("nexus enclave code v1")}

// rawStore is a versioned in-memory object store with the two powers a
// malicious server has: substituting what a read returns (onGet) and
// rewinding its entire state to an earlier snapshot.
type rawStore struct {
	mu    sync.Mutex
	data  map[string][]byte
	vers  map[string]uint64
	onGet func(name string, data []byte, version uint64) ([]byte, uint64)
}

func newRawStore() *rawStore {
	return &rawStore{data: map[string][]byte{}, vers: map[string]uint64{}}
}

func (s *rawStore) GetVersioned(name string) ([]byte, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.data[name]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", backend.ErrNotExist, name)
	}
	b = append([]byte(nil), b...)
	v := s.vers[name]
	if s.onGet != nil {
		b, v = s.onGet(name, b, v)
	}
	return b, v, nil
}

func (s *rawStore) PutVersioned(name string, data []byte) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[name] = append([]byte(nil), data...)
	s.vers[name]++
	return s.vers[name], nil
}

func (s *rawStore) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.data, name)
	delete(s.vers, name)
	return nil
}

func (s *rawStore) Lock(name string) (func(), error) { return func() {}, nil }

func (s *rawStore) setOnGet(f func(name string, data []byte, version uint64) ([]byte, uint64)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onGet = f
}

type storeSnapshot struct {
	data map[string][]byte
	vers map[string]uint64
}

func (s *rawStore) snapshot() storeSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := storeSnapshot{data: map[string][]byte{}, vers: map[string]uint64{}}
	for n, b := range s.data {
		snap.data[n] = append([]byte(nil), b...)
		snap.vers[n] = s.vers[n]
	}
	return snap
}

// restore rewinds the store to snap, except for names in keep (objects
// the attacker chooses not to — or cannot usefully — regress).
func (s *rawStore) restore(snap storeSnapshot, keep ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := map[string]bool{}
	for _, n := range keep {
		kept[n] = true
	}
	for n := range s.data {
		if !kept[n] {
			delete(s.data, n)
			delete(s.vers, n)
		}
	}
	for n, b := range snap.data {
		if !kept[n] {
			s.data[n] = append([]byte(nil), b...)
			s.vers[n] = snap.vers[n]
		}
	}
}

// proofMangler sits between the enclave and the honest proof store: the
// malicious proof channel. Its inner store is swappable (a "server
// restart" onto different state under a live client), and mangle
// rewrites every served proof.
type proofMangler struct {
	mu     sync.Mutex
	inner  enclave.FreshnessProofStore
	mangle func(id uuid.UUID, proof []byte) []byte
}

func newProofMangler(inner enclave.FreshnessProofStore) *proofMangler {
	return &proofMangler{inner: inner}
}

func (m *proofMangler) get() (enclave.FreshnessProofStore, func(uuid.UUID, []byte) []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inner, m.mangle
}

func (m *proofMangler) setInner(inner enclave.FreshnessProofStore) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inner = inner
}

func (m *proofMangler) setMangle(f func(uuid.UUID, []byte) []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mangle = f
}

func (m *proofMangler) GetVersioned(name string) ([]byte, uint64, error) {
	inner, _ := m.get()
	return inner.GetVersioned(name)
}

func (m *proofMangler) PutVersioned(name string, data []byte) (uint64, error) {
	inner, _ := m.get()
	return inner.PutVersioned(name, data)
}

func (m *proofMangler) Delete(name string) error {
	inner, _ := m.get()
	return inner.Delete(name)
}

func (m *proofMangler) Lock(name string) (func(), error) {
	inner, _ := m.get()
	return inner.Lock(name)
}

func (m *proofMangler) FreshnessProof(id uuid.UUID, epoch uint64) ([]byte, error) {
	inner, mangle := m.get()
	p, err := inner.FreshnessProof(id, epoch)
	if err != nil {
		return nil, err
	}
	if mangle != nil {
		p = mangle(id, p)
	}
	return p, nil
}

func (m *proofMangler) FreshnessUpdate(epoch uint64, updates []merkle.LeafUpdate) ([][]byte, error) {
	inner, _ := m.get()
	return inner.FreshnessUpdate(epoch, updates)
}

// merkleClient is one mounted NEXUS client in merkle freshness mode,
// with handles on every layer the adversary controls.
type merkleClient struct {
	ias    *sgx.AttestationService
	plat   *sgx.Platform
	raw    *rawStore
	proofs *proofMangler
	reg    *obs.Registry
	encl   *enclave.Enclave
	sealed []byte
	volID  uuid.UUID
	pub    ed25519.PublicKey
	priv   ed25519.PrivateKey
}

func newMerkleClient(t *testing.T) *merkleClient {
	t.Helper()
	ias, err := sgx.NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	plat, err := sgx.NewPlatform(sgx.PlatformConfig{}, ias)
	if err != nil {
		t.Fatal(err)
	}
	raw := newRawStore()
	c := &merkleClient{
		ias:    ias,
		plat:   plat,
		raw:    raw,
		proofs: newProofMangler(enclave.NewFreshnessStore(raw)),
		reg:    obs.NewRegistry(),
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	c.pub, c.priv = pub, priv
	c.encl = c.newEnclave(t, c.proofs)
	sealed, err := c.encl.CreateVolume("owen", pub)
	if err != nil {
		t.Fatal(err)
	}
	c.sealed = sealed
	if c.volID, err = c.encl.VolumeUUID(); err != nil {
		t.Fatal(err)
	}
	if err := c.mount(c.encl); err != nil {
		t.Fatal(err)
	}
	return c
}

// newEnclave stands up a fresh enclave instance (same platform and
// measurement, so sealed state carries over) on the given store.
func (c *merkleClient) newEnclave(t *testing.T, store enclave.ObjectStore) *enclave.Enclave {
	t.Helper()
	container, err := c.plat.CreateEnclave(rollbackImage)
	if err != nil {
		t.Fatal(err)
	}
	e, err := enclave.New(enclave.Config{
		SGX:   container,
		Store: store,
		IAS:   c.ias,
		Obs:   c.reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func (c *merkleClient) mount(e *enclave.Enclave) error {
	nonce, blob, err := e.BeginAuth(c.pub, c.sealed, c.volID)
	if err != nil {
		return err
	}
	msg := append(append([]byte(nil), nonce...), blob...)
	return e.CompleteAuth(ed25519.Sign(c.priv, msg))
}

// TestMerkleModeNormalOperation is the sanity baseline: ordinary
// operations succeed, proofs are verified (the counters move), and a
// fresh enclave instance re-mounts and reads everything back.
func TestMerkleModeNormalOperation(t *testing.T) {
	c := newMerkleClient(t)
	if err := c.encl.Mkdir("/docs"); err != nil {
		t.Fatal(err)
	}
	if err := c.encl.Touch("/docs/f"); err != nil {
		t.Fatal(err)
	}
	if err := c.encl.WriteFile("/docs/f", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	c.encl.DropCaches()
	got, err := c.encl.ReadFile("/docs/f")
	if err != nil || string(got) != "payload" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	if n := c.reg.CounterValue("enclave_freshness_proofs_total"); n == 0 {
		t.Fatal("no proofs verified")
	}
	if n := c.reg.CounterValue("enclave_freshness_proof_bytes_total"); n == 0 {
		t.Fatal("no proof bytes accounted")
	}
	if n := c.reg.CounterValue("enclave_freshness_root_updates_total"); n == 0 {
		t.Fatal("no root updates committed")
	}

	// Second mount from sealed state only: the commitment round-trips.
	e2 := c.newEnclave(t, c.proofs)
	if err := c.mount(e2); err != nil {
		t.Fatalf("re-mount: %v", err)
	}
	got, err = e2.ReadFile("/docs/f")
	if err != nil || string(got) != "payload" {
		t.Fatalf("re-mounted ReadFile = %q, %v", got, err)
	}
}

// TestRollbackStaleObjectReplay is the basic rollback: the server
// replays earlier (consistent, correctly sealed) snapshots of
// individual metadata objects to a client that has since written newer
// versions. The merkle leaf pins each object's minimum version, so the
// replay is proven stale.
func TestRollbackStaleObjectReplay(t *testing.T) {
	c := newMerkleClient(t)
	if err := c.encl.Mkdir("/docs"); err != nil {
		t.Fatal(err)
	}
	if err := c.encl.Touch("/docs/old"); err != nil {
		t.Fatal(err)
	}
	snap := c.raw.snapshot()
	if err := c.encl.Touch("/docs/new"); err != nil {
		t.Fatal(err)
	}

	c.encl.DropCaches()
	c.raw.setOnGet(func(name string, b []byte, v uint64) ([]byte, uint64) {
		if old, ok := snap.data[name]; ok {
			return append([]byte(nil), old...), snap.vers[name]
		}
		return b, v
	})
	_, err := c.encl.Filldir("/docs")
	if !errors.Is(err, enclave.ErrStaleObject) {
		t.Fatalf("stale replay = %v, want ErrStaleObject", err)
	}
	if !errors.Is(err, enclave.ErrStaleMetadata) {
		t.Fatalf("ErrStaleObject must wrap ErrStaleMetadata, got %v", err)
	}

	// Fail closed, not fail broken: honest service resumes.
	c.raw.setOnGet(nil)
	c.encl.DropCaches()
	if _, err := c.encl.Filldir("/docs"); err != nil {
		t.Fatalf("honest reads after attack: %v", err)
	}
}

// TestRollbackWholeVolumeFreshClient restores a full earlier volume
// state — data, tree snapshot, everything except the sealed root
// commitment, which the attacker cannot forge — then restarts the
// server plumbing and mounts a brand-new client. The commitment is
// ahead of everything the store can prove, so the mount fails closed.
func TestRollbackWholeVolumeFreshClient(t *testing.T) {
	c := newMerkleClient(t)
	if err := c.encl.Mkdir("/docs"); err != nil {
		t.Fatal(err)
	}
	if err := c.encl.Touch("/docs/old"); err != nil {
		t.Fatal(err)
	}
	snap := c.raw.snapshot()
	if err := c.encl.Touch("/docs/new"); err != nil {
		t.Fatal(err)
	}

	c.raw.restore(snap, enclave.MerkleRootObjectName)
	c.proofs.setInner(enclave.NewFreshnessStore(c.raw))
	e2 := c.newEnclave(t, c.proofs)
	err := c.mount(e2)
	if err == nil {
		_, err = e2.Filldir("/docs")
	}
	if !errors.Is(err, enclave.ErrBadProof) && !errors.Is(err, enclave.ErrStaleObject) {
		t.Fatalf("whole-volume rollback = %v, want ErrBadProof or ErrStaleObject", err)
	}
}

// TestRollbackSealedRootEpochRegression rolls back everything
// *including* the sealed root to a client that has already observed a
// later epoch: the in-enclave monotonic counter catches it.
func TestRollbackSealedRootEpochRegression(t *testing.T) {
	c := newMerkleClient(t)
	if err := c.encl.Mkdir("/docs"); err != nil {
		t.Fatal(err)
	}
	snap := c.raw.snapshot()
	if err := c.encl.Touch("/docs/f"); err != nil {
		t.Fatal(err)
	}

	c.raw.restore(snap)
	c.proofs.setInner(enclave.NewFreshnessStore(c.raw))
	c.encl.DropCaches()
	_, err := c.encl.Filldir("/docs")
	if !errors.Is(err, enclave.ErrStaleObject) {
		t.Fatalf("sealed-root regression = %v, want ErrStaleObject", err)
	}
}

// TestForkedHistoriesDetected forks the volume: the server rewinds the
// store and lets a second client build a divergent history to the same
// epoch, then serves that history back to the first client. Same
// epoch, different root — the fork signature — must be detected the
// moment the histories meet.
func TestForkedHistoriesDetected(t *testing.T) {
	c := newMerkleClient(t)
	if err := c.encl.Mkdir("/docs"); err != nil {
		t.Fatal(err)
	}
	snap := c.raw.snapshot()

	// History A: our client keeps writing (and remembers epoch+root).
	if err := c.encl.Touch("/docs/ours"); err != nil {
		t.Fatal(err)
	}

	// History B: the server rewinds and a second client performs a
	// symmetric operation, advancing to the same epoch with a
	// different root.
	c.raw.restore(snap)
	eB := c.newEnclave(t, enclave.NewFreshnessStore(c.raw))
	if err := c.mount(eB); err != nil {
		t.Fatalf("fork client mount: %v", err)
	}
	if err := eB.Touch("/docs/theirs"); err != nil {
		t.Fatal(err)
	}

	// The server now serves history B to client A.
	c.proofs.setInner(enclave.NewFreshnessStore(c.raw))
	c.encl.DropCaches()
	_, err := c.encl.Filldir("/docs")
	if !errors.Is(err, enclave.ErrStaleObject) {
		t.Fatalf("fork = %v, want ErrStaleObject (fork detected)", err)
	}
}

// TestProofTamperingFailsClosed drives every malformed-proof shape
// through the live proof channel: truncation, corruption, splicing a
// stale leaf version under the fresh root, reordering the path. All
// must surface ErrBadProof, and honest service must resume afterwards.
func TestProofTamperingFailsClosed(t *testing.T) {
	c := newMerkleClient(t)
	if err := c.encl.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	// Enough objects that proofs carry real paths.
	for i := 0; i < 8; i++ {
		if err := c.encl.Touch(fmt.Sprintf("/d/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	remangle := func(raw []byte, f func(p *merkle.Proof)) []byte {
		p, err := merkle.DecodeProof(raw)
		if err != nil {
			return raw
		}
		f(p)
		return p.Encode()
	}
	cases := []struct {
		name   string
		mangle func(id uuid.UUID, raw []byte) []byte
	}{
		{"truncated", func(_ uuid.UUID, raw []byte) []byte { return raw[:len(raw)-1] }},
		{"empty", func(_ uuid.UUID, _ []byte) []byte { return nil }},
		{"corrupted", func(_ uuid.UUID, raw []byte) []byte {
			out := append([]byte(nil), raw...)
			out[len(out)-1] ^= 0x40
			return out
		}},
		{"stale leaf spliced under fresh root", func(_ uuid.UUID, raw []byte) []byte {
			return remangle(raw, func(p *merkle.Proof) {
				if p.HasLeaf && p.LeafVersion > 1 {
					p.LeafVersion--
				} else {
					p.LeafVersion += 7
				}
			})
		}},
		{"path reordered", func(_ uuid.UUID, raw []byte) []byte {
			return remangle(raw, func(p *merkle.Proof) {
				if len(p.Steps) >= 2 {
					p.Steps[0], p.Steps[1] = p.Steps[1], p.Steps[0]
				} else {
					p.Steps = append(p.Steps, p.Steps...)
				}
			})
		}},
		{"sibling hash flipped", func(_ uuid.UUID, raw []byte) []byte {
			return remangle(raw, func(p *merkle.Proof) {
				if len(p.Steps) > 0 {
					p.Steps[0].Sibling[0] ^= 1
				} else {
					p.HasLeaf = !p.HasLeaf
				}
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c.proofs.setMangle(tc.mangle)
			c.encl.DropCaches()
			_, err := c.encl.Filldir("/d")
			if !errors.Is(err, enclave.ErrBadProof) {
				t.Fatalf("%s proof = %v, want ErrBadProof", tc.name, err)
			}
			c.proofs.setMangle(nil)
			c.encl.DropCaches()
			if _, err := c.encl.Filldir("/d"); err != nil {
				t.Fatalf("honest reads after %s: %v", tc.name, err)
			}
		})
	}
}

// TestRootObjectVanishes deletes the sealed root out from under a
// client that has already committed epochs (and garbles proofs so the
// client is forced to re-read the commitment).
func TestRootObjectVanishes(t *testing.T) {
	c := newMerkleClient(t)
	if err := c.encl.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := c.raw.Delete(enclave.MerkleRootObjectName); err != nil {
		t.Fatal(err)
	}
	c.proofs.setMangle(func(_ uuid.UUID, _ []byte) []byte { return nil })
	c.encl.DropCaches()
	_, err := c.encl.Filldir("/d")
	if !errors.Is(err, enclave.ErrStaleObject) {
		t.Fatalf("vanished root = %v, want ErrStaleObject", err)
	}
}
