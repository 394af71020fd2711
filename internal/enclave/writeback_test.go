package enclave

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	"nexus/internal/backend"
	"nexus/internal/metadata"
	"nexus/internal/obs"
	"nexus/internal/sgx"
	"nexus/internal/uuid"
)

// faultObjectStore wraps the memory store and, once armed, fails every
// ocall at or past a chosen index with the backend's unavailability
// error — a deterministic stand-in for the store dying mid-batch.
type faultObjectStore struct {
	inner *memObjectStore

	mu        sync.Mutex
	calls     int
	failAfter int // -1 = disarmed
}

func newFaultObjectStore() *faultObjectStore {
	return &faultObjectStore{inner: newMemObjectStore(), failAfter: -1}
}

// armAt makes the k-th ocall from now (0-based) and everything after it
// fail until disarm.
func (s *faultObjectStore) armAt(k int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failAfter = s.calls + k
}

func (s *faultObjectStore) disarm() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failAfter = -1
}

func (s *faultObjectStore) tick() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failAfter >= 0 && s.calls >= s.failAfter {
		return backend.ErrUnavailable
	}
	s.calls++
	return nil
}

func (s *faultObjectStore) GetVersioned(name string) ([]byte, uint64, error) {
	if err := s.tick(); err != nil {
		return nil, 0, err
	}
	return s.inner.GetVersioned(name)
}

func (s *faultObjectStore) PutVersioned(name string, data []byte) (uint64, error) {
	if err := s.tick(); err != nil {
		return 0, err
	}
	return s.inner.PutVersioned(name, data)
}

func (s *faultObjectStore) Delete(name string) error {
	if err := s.tick(); err != nil {
		return err
	}
	return s.inner.Delete(name)
}

func (s *faultObjectStore) Lock(name string) (func(), error) {
	if err := s.tick(); err != nil {
		return nil, err
	}
	return s.inner.Lock(name)
}

// wbEnv is a mounted volume with direct access to the platform, so
// tests can attach additional enclaves to the same machine (same
// sealing key) and the same store.
type wbEnv struct {
	platform *sgx.Platform
	enclave  *Enclave
	cfg      Config
	owner    identity
	sealed   []byte
	volID    uuid.UUID
}

// newWbEnv creates a volume on a fresh platform with the given config
// overrides (SGX and Store are filled in; Store defaults to a fresh
// memObjectStore when cfg.Store is nil).
func newWbEnv(t *testing.T, owner identity, cfg Config) *wbEnv {
	t.Helper()
	platform, err := sgx.NewPlatform(sgx.PlatformConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	container, err := platform.CreateEnclave(nexusImage)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SGX = container
	if cfg.Store == nil {
		cfg.Store = newMemObjectStore()
	}
	encl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := encl.CreateVolume(owner.name, owner.pub)
	if err != nil {
		t.Fatalf("CreateVolume: %v", err)
	}
	volID, err := encl.VolumeUUID()
	if err != nil {
		t.Fatal(err)
	}
	if err := authenticate(t, encl, owner, sealed, volID); err != nil {
		t.Fatalf("authenticate: %v", err)
	}
	return &wbEnv{platform: platform, enclave: encl, cfg: cfg, owner: owner, sealed: sealed, volID: volID}
}

// freshEnclave mounts a second enclave on the same platform over the
// given store — the "crash and restart" view: nothing carried over in
// memory, everything read back from the store.
func (env *wbEnv) freshEnclave(t *testing.T, store ObjectStore) *Enclave {
	t.Helper()
	container, err := env.platform.CreateEnclave(nexusImage)
	if err != nil {
		t.Fatal(err)
	}
	cfg := env.cfg
	cfg.SGX = container
	cfg.Store = store
	// The restarted view always reads eagerly; only the writer batches.
	cfg.Writeback = WritebackEager
	encl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := authenticate(t, encl, env.owner, env.sealed, env.volID); err != nil {
		t.Fatalf("fresh enclave authenticate: %v", err)
	}
	return encl
}

// wbChaosSeed mirrors the AFS chaos suite's NEXUS_CHAOS_SEED override
// so CI can run the same fixed seed matrix over this package.
func wbChaosSeed(t *testing.T) int64 {
	t.Helper()
	env := os.Getenv("NEXUS_CHAOS_SEED")
	if env == "" {
		return 1
	}
	seed, err := strconv.ParseInt(env, 10, 64)
	if err != nil {
		t.Fatalf("NEXUS_CHAOS_SEED=%q: %v", env, err)
	}
	return seed
}

// dirNames lists a directory of a (possibly fresh) enclave as a set.
func dirNames(t *testing.T, e *Enclave, path string) map[string]bool {
	t.Helper()
	stats, err := e.Filldir(path)
	if err != nil {
		t.Fatalf("Filldir(%s): %v", path, err)
	}
	names := make(map[string]bool, len(stats))
	for _, s := range stats {
		names[s.Name] = true
	}
	return names
}

// TestWritebackFlushBatchFaultSweep is the crash-consistency regression
// for the transactional flushDirnodeLocked and the batch drain: a
// multi-bucket flush is killed at every single ocall index in turn, and
// after each kill (a) a fresh enclave over the surviving store mounts
// and lists an entirely-old or entirely-new directory with no integrity
// error, and (b) clearing the fault and retrying the same drain
// converges the store and the writer's memory.
func TestWritebackFlushBatchFaultSweep(t *testing.T) {
	const files = 12
	for k := 0; ; k++ {
		store := newFaultObjectStore()
		owner := newIdentity(t, "owen")
		// BucketSize 4 forces the root dirnode flush to rewrite several
		// buckets, exercising the multi-object commit.
		env := newWbEnv(t, owner, Config{Store: store, BucketSize: 4, Writeback: WritebackOn})
		e := env.enclave
		for i := 0; i < files; i++ {
			if err := e.Touch(fmt.Sprintf("/f%02d", i)); err != nil {
				t.Fatalf("k=%d: Touch: %v", k, err)
			}
		}
		if got := len(dirNames(t, e, "/")); got != files {
			t.Fatalf("k=%d: writer sees %d entries before drain, want %d", k, got, files)
		}

		store.armAt(k)
		err := e.SyncMetadata()
		if err == nil {
			// k is past the drain's last ocall: the batch completed and
			// the sweep has covered every index.
			store.disarm()
			fresh := env.freshEnclave(t, store)
			if got := dirNames(t, fresh, "/"); len(got) != files {
				t.Fatalf("k=%d: complete drain lost entries: %d of %d", k, len(got), files)
			}
			if k == 0 {
				t.Fatal("fault at ocall 0 did not fail the drain")
			}
			return
		}
		if !errors.Is(err, ErrStoreUnavailable) {
			t.Fatalf("k=%d: drain failed with %v, want ErrStoreUnavailable", k, err)
		}

		// Crash view: a restarted enclave over whatever the store holds
		// must mount and list cleanly — all files or none of them.
		store.disarm()
		fresh := env.freshEnclave(t, store)
		names := dirNames(t, fresh, "/")
		if len(names) != 0 && len(names) != files {
			t.Fatalf("k=%d: torn directory after mid-batch fault: %d of %d entries", k, len(names), files)
		}

		// Retry view: the same writer drains again and everything lands.
		if err := e.SyncMetadata(); err != nil {
			t.Fatalf("k=%d: retried drain: %v", k, err)
		}
		fresh2 := env.freshEnclave(t, store)
		if got := dirNames(t, fresh2, "/"); len(got) != files {
			t.Fatalf("k=%d: retried drain converged to %d of %d entries", k, len(got), files)
		}
		if got := dirNames(t, e, "/"); len(got) != files {
			t.Fatalf("k=%d: writer's view diverged after retry: %d entries", k, len(got))
		}
		if k > 500 {
			t.Fatal("fault sweep did not terminate")
		}
	}
}

// TestChaosWritebackKillMidFlush kills the store at a seeded random
// ocall during a write-back drain of a mixed create workload, restarts
// (fresh enclave, surviving store), and asserts the tree is readable
// and untorn; then the writer retries and both views converge.
func TestChaosWritebackKillMidFlush(t *testing.T) {
	rng := rand.New(rand.NewSource(wbChaosSeed(t)))
	for round := 0; round < 5; round++ {
		store := newFaultObjectStore()
		owner := newIdentity(t, "owen")
		env := newWbEnv(t, owner, Config{Store: store, BucketSize: 8, Writeback: WritebackOn})
		e := env.enclave

		files := 4 + rng.Intn(12)
		if err := e.Mkdir("/d"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < files; i++ {
			p := fmt.Sprintf("/d/f%02d", i)
			if err := e.Touch(p); err != nil {
				t.Fatal(err)
			}
			if err := e.WriteFile(p, []byte(fmt.Sprintf("round %d file %d", round, i))); err != nil {
				t.Fatal(err)
			}
		}

		store.armAt(rng.Intn(20))
		err := e.SyncMetadata()
		store.disarm()

		// Crash-and-restart view: must mount, and every directory it
		// lists must resolve (no dangling entries, no integrity errors).
		fresh := env.freshEnclave(t, store)
		root := dirNames(t, fresh, "/")
		if root["d"] {
			names := dirNames(t, fresh, "/d")
			if len(names) != 0 && len(names) != files {
				t.Fatalf("round %d: torn /d after kill: %d of %d", round, len(names), files)
			}
			for name := range names {
				if _, err := fresh.ReadFile("/d/" + name); err != nil {
					t.Fatalf("round %d: reading %s after kill: %v", round, name, err)
				}
			}
		}

		// The fault may have landed after the drain finished; either way
		// a retry must converge.
		if err != nil {
			if !errors.Is(err, ErrStoreUnavailable) {
				t.Fatalf("round %d: drain failed with %v", round, err)
			}
			if err := e.SyncMetadata(); err != nil {
				t.Fatalf("round %d: retried drain: %v", round, err)
			}
		}
		fresh2 := env.freshEnclave(t, store)
		if got := dirNames(t, fresh2, "/d"); len(got) != files {
			t.Fatalf("round %d: converged to %d of %d entries", round, len(got), files)
		}
		for i := 0; i < files; i++ {
			p := fmt.Sprintf("/d/f%02d", i)
			want := fmt.Sprintf("round %d file %d", round, i)
			got, err := fresh2.ReadFile(p)
			if err != nil {
				t.Fatalf("round %d: %s: %v", round, p, err)
			}
			if string(got) != want {
				t.Fatalf("round %d: %s = %q, want %q", round, p, got, want)
			}
		}
	}
}

// treeEntry is one node of a logical volume snapshot.
type treeEntry struct {
	kind    string
	content string
}

// snapshotTree walks an enclave's volume from the root and returns the
// logical tree: every path with its kind and (for files) content.
func snapshotTree(t *testing.T, e *Enclave, dir string) map[string]treeEntry {
	t.Helper()
	out := make(map[string]treeEntry)
	var walk func(p string)
	walk = func(p string) {
		stats, err := e.Filldir(p)
		if err != nil {
			t.Fatalf("Filldir(%s): %v", p, err)
		}
		for _, s := range stats {
			child := p + "/" + s.Name
			if p == "/" {
				child = "/" + s.Name
			}
			switch {
			case s.Kind == metadata.KindDir:
				out[child] = treeEntry{kind: "dir"}
				walk(child)
			case s.Kind == metadata.KindSymlink:
				out[child] = treeEntry{kind: "symlink", content: s.SymlinkTarget}
			default:
				data, err := e.ReadFile(child)
				if err != nil {
					t.Fatalf("ReadFile(%s): %v", child, err)
				}
				out[child] = treeEntry{kind: "file", content: string(data)}
			}
		}
	}
	walk(dir)
	return out
}

// TestPropertyWritebackModesConverge drives the same seeded workload
// through a write-back enclave and an eager one and asserts that, after
// a quiescing SyncMetadata, the persisted volumes are logically
// identical: a fresh enclave over each store sees the same tree
// (paths, kinds, contents) and hence the same reachable object counts.
func TestPropertyWritebackModesConverge(t *testing.T) {
	seed := wbChaosSeed(t)
	run := func(mode WritebackMode) (map[string]treeEntry, *wbEnv) {
		owner := newIdentity(t, "owen")
		env := newWbEnv(t, owner, Config{BucketSize: 8, Writeback: mode})
		e := env.enclave
		rng := rand.New(rand.NewSource(seed))
		var dirs = []string{""}
		var files []string
		for op := 0; op < 80; op++ {
			switch r := rng.Intn(10); {
			case r < 2: // mkdir
				d := fmt.Sprintf("%s/d%03d", dirs[rng.Intn(len(dirs))], op)
				if err := e.Mkdir(d); err != nil {
					t.Fatalf("%s Mkdir(%s): %v", mode, d, err)
				}
				dirs = append(dirs, d)
			case r < 6: // create + write
				p := fmt.Sprintf("%s/f%03d", dirs[rng.Intn(len(dirs))], op)
				if err := e.Touch(p); err != nil {
					t.Fatalf("%s Touch(%s): %v", mode, p, err)
				}
				if err := e.WriteFile(p, []byte(fmt.Sprintf("op %d", op))); err != nil {
					t.Fatalf("%s WriteFile(%s): %v", mode, p, err)
				}
				files = append(files, p)
			case r < 8 && len(files) > 0: // rewrite
				p := files[rng.Intn(len(files))]
				if err := e.WriteFile(p, []byte(fmt.Sprintf("rewrite %d", op))); err != nil {
					t.Fatalf("%s rewrite(%s): %v", mode, p, err)
				}
			case len(files) > 0: // remove
				i := rng.Intn(len(files))
				if err := e.Remove(files[i]); err != nil {
					t.Fatalf("%s Remove(%s): %v", mode, files[i], err)
				}
				files = append(files[:i], files[i+1:]...)
			}
		}
		if err := e.SyncMetadata(); err != nil {
			t.Fatalf("%s SyncMetadata: %v", mode, err)
		}
		// Read the tree through a restarted enclave so the comparison is
		// about persisted store state, not the writer's memory.
		fresh := env.freshEnclave(t, env.cfg.Store)
		return snapshotTree(t, fresh, "/"), env
	}

	wbTree, _ := run(WritebackOn)
	eagerTree, _ := run(WritebackEager)
	if len(wbTree) != len(eagerTree) {
		t.Fatalf("tree sizes diverge: writeback %d, eager %d", len(wbTree), len(eagerTree))
	}
	for p, want := range eagerTree {
		got, ok := wbTree[p]
		if !ok {
			t.Fatalf("path %s missing from write-back tree", p)
		}
		if got != want {
			t.Fatalf("path %s: writeback %+v, eager %+v", p, got, want)
		}
	}
}

// TestCacheHitVersionSurvivesFreshnessLoss is the regression for the
// cache-hit version bug: loadDirnode used to return a per-object
// freshness-map entry on a cache hit, which was 0 once the entry was
// gone, making the next flush write version 1 and torch the object's
// history. A cache hit must report the cached preamble version.
func TestCacheHitVersionSurvivesFreshnessLoss(t *testing.T) {
	owner := newIdentity(t, "owen")
	env, _, _ := newMountedVolume(t, owner)
	e := env.enclave
	if err := e.Touch("/f"); err != nil {
		t.Fatal(err)
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	root := e.super.RootDir
	_, v1, err := e.loadDirnode(root, e.super.VolumeUUID)
	if err != nil {
		t.Fatal(err)
	}
	if v1 == 0 {
		t.Fatal("root dirnode version 0 after a flush")
	}
	hitsBefore := e.metrics.metadataCacheHits.Value()
	_, v2, err := e.loadDirnode(root, e.super.VolumeUUID)
	if err != nil {
		t.Fatal(err)
	}
	if e.metrics.metadataCacheHits.Value() == hitsBefore {
		t.Fatal("second load missed the cache; test is not exercising the hit path")
	}
	if v2 != v1 {
		t.Fatalf("cache hit returned version %d, want %d", v2, v1)
	}
}

// TestEPCReturnsToZeroAfterRemove audits the enclave's EPC accounting
// across a create/write/remove cycle in both flush modes: once the
// caches are dropped and the dirty set drained, every byte charged for
// cached or pinned metadata must be back with the platform.
func TestEPCReturnsToZeroAfterRemove(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode WritebackMode
	}{{"off", WritebackEager}, {"on", WritebackOn}} {
		mode := tc.mode
		t.Run("mode="+tc.name, func(t *testing.T) {
			owner := newIdentity(t, "owen")
			env := newWbEnv(t, owner, Config{Writeback: mode})
			e := env.enclave
			e.DropCaches()
			baseline := e.sgx.HeapEPC()

			for i := 0; i < 8; i++ {
				p := fmt.Sprintf("/f%d", i)
				if err := e.Touch(p); err != nil {
					t.Fatal(err)
				}
				if err := e.WriteFile(p, []byte("payload")); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Mkdir("/d"); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				if err := e.Remove(fmt.Sprintf("/f%d", i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Remove("/d"); err != nil {
				t.Fatal(err)
			}
			if err := e.SyncMetadata(); err != nil {
				t.Fatal(err)
			}
			e.DropCaches()
			if got := e.sgx.HeapEPC(); got != baseline {
				t.Fatalf("HeapEPC = %d after cycle, want baseline %d (leak of %d bytes)", got, baseline, got-baseline)
			}
		})
	}
}

// TestWritebackFlushReduction asserts the headline win: the same
// metadata-heavy workload issues well under 70% of eager mode's
// metadata flushes when batched.
func TestWritebackFlushReduction(t *testing.T) {
	const files = 24
	run := func(mode WritebackMode) int64 {
		owner := newIdentity(t, "owen")
		env := newWbEnv(t, owner, Config{Writeback: mode})
		e := env.enclave
		before := e.Stats().MetadataFlushes
		for i := 0; i < files; i++ {
			p := fmt.Sprintf("/f%02d", i)
			if err := e.Touch(p); err != nil {
				t.Fatal(err)
			}
			if err := e.WriteFile(p, []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.SyncMetadata(); err != nil {
			t.Fatal(err)
		}
		return e.Stats().MetadataFlushes - before
	}
	wb := run(WritebackOn)
	eager := run(WritebackEager)
	if wb <= 0 || eager <= 0 {
		t.Fatalf("flush counters did not move: writeback %d, eager %d", wb, eager)
	}
	if float64(wb) >= 0.7*float64(eager) {
		t.Fatalf("writeback used %d flushes vs eager %d; want < 70%%", wb, eager)
	}
}

// TestWritebackObservability checks the instrumentation contract: dirty
// marks move enclave_metadata_dirty_total and the gauge, a drain bumps
// enclave_flush_batches_total, zeroes the gauge, and emits an
// enclave.flush_batch span tagged with the batch size.
func TestWritebackObservability(t *testing.T) {
	reg := obs.NewRegistry()
	owner := newIdentity(t, "owen")
	env := newWbEnv(t, owner, Config{Writeback: WritebackOn, Obs: reg})
	e := env.enclave

	reg.Tracer().Enable()
	defer reg.Tracer().Disable()

	if err := e.Touch("/f"); err != nil {
		t.Fatal(err)
	}
	if reg.CounterValue("enclave_metadata_dirty_total") == 0 {
		t.Fatal("enclave_metadata_dirty_total did not move on Touch")
	}
	if reg.GaugeValue("enclave_metadata_dirty") == 0 {
		t.Fatal("enclave_metadata_dirty gauge is zero with pending metadata")
	}
	batchesBefore := reg.CounterValue("enclave_flush_batches_total")
	if err := e.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	if reg.CounterValue("enclave_flush_batches_total") != batchesBefore+1 {
		t.Fatal("enclave_flush_batches_total did not increment on drain")
	}
	if g := reg.GaugeValue("enclave_metadata_dirty"); g != 0 {
		t.Fatalf("enclave_metadata_dirty gauge = %d after drain, want 0", g)
	}

	var batch *obs.Span
	var find func(spans []*obs.Span)
	find = func(spans []*obs.Span) {
		for _, s := range spans {
			if s.Name == "enclave.flush_batch" {
				batch = s
			}
			find(s.Children)
		}
	}
	find(reg.Tracer().Take())
	if batch == nil {
		t.Fatal("no enclave.flush_batch span recorded")
	}
	tags := make(map[string]bool)
	for _, tag := range batch.Tags {
		tags[tag.Key] = true
	}
	for _, want := range []string{"objects", "ops", "deletes"} {
		if !tags[want] {
			t.Fatalf("flush_batch span missing tag %q (have %v)", want, batch.Tags)
		}
	}
}

// TestWritebackHighWaterDrain checks that the op-count high-water mark
// drains the set inline, without an explicit barrier.
func TestWritebackHighWaterDrain(t *testing.T) {
	owner := newIdentity(t, "owen")
	env := newWbEnv(t, owner, Config{Writeback: WritebackOn, WritebackMaxOps: 8})
	e := env.enclave
	for i := 0; i < 16; i++ {
		if err := e.Touch(fmt.Sprintf("/f%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	e.mu.Lock()
	batches := e.metrics.flushBatches.Value()
	e.mu.Unlock()
	if batches == 0 {
		t.Fatal("high-water mark never drained the dirty set")
	}
}

// TestWritebackRemovePendingCreateLeavesNoResidue removes a file that
// only ever existed in the dirty set: the drain must not upload it, and
// the store must hold nothing for it.
func TestWritebackRemovePendingCreateLeavesNoResidue(t *testing.T) {
	store := newMemObjectStore()
	owner := newIdentity(t, "owen")
	env := newWbEnv(t, owner, Config{Store: store, Writeback: WritebackOn})
	e := env.enclave
	if err := e.Touch("/ghost"); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteFile("/ghost", []byte("ectoplasm")); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove("/ghost"); err != nil {
		t.Fatal(err)
	}
	if err := e.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	fresh := env.freshEnclave(t, store)
	if names := dirNames(t, fresh, "/"); names["ghost"] {
		t.Fatal("cancelled pending create reached the store")
	}
	if _, err := fresh.ReadFile("/ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadFile(ghost) = %v, want ErrNotFound", err)
	}
}

// attachEnclave mounts another live client on the same platform and
// store with its own flush mode — the concurrent-writer view.
func (env *wbEnv) attachEnclave(t *testing.T, mode WritebackMode) *Enclave {
	t.Helper()
	container, err := env.platform.CreateEnclave(nexusImage)
	if err != nil {
		t.Fatal(err)
	}
	cfg := env.cfg
	cfg.SGX = container
	cfg.Writeback = mode
	encl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := authenticate(t, encl, env.owner, env.sealed, env.volID); err != nil {
		t.Fatalf("attached enclave authenticate: %v", err)
	}
	return encl
}

// TestWritebackConcurrentDrainMergesOpLog exercises the drain's merge
// path: a second client advances the root dirnode between the first
// client's marks and its drain, so the drain must replay its op log
// (inserts, a conflicting insert, a remove) onto the fresh copy instead
// of clobbering the other client's entries.
func TestWritebackConcurrentDrainMergesOpLog(t *testing.T) {
	owner := newIdentity(t, "owen")
	env := newWbEnv(t, owner, Config{Writeback: WritebackOn})
	a := env.enclave
	if err := a.Touch("/seed"); err != nil {
		t.Fatal(err)
	}
	if err := a.SyncMetadata(); err != nil {
		t.Fatal(err)
	}

	b := env.attachEnclave(t, WritebackOn)
	if err := b.Touch("/b"); err != nil {
		t.Fatal(err)
	}
	if err := b.Touch("/same"); err != nil {
		t.Fatal(err)
	}

	// a batches against the pre-b version of the root...
	if err := a.Touch("/a"); err != nil {
		t.Fatal(err)
	}
	if err := a.Touch("/same"); err != nil {
		t.Fatal(err)
	}
	if err := a.Remove("/seed"); err != nil {
		t.Fatal(err)
	}
	// ...b publishes first, advancing the store...
	if err := b.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	// ...so a's drain must merge, not overwrite.
	if err := a.SyncMetadata(); err != nil {
		t.Fatal(err)
	}

	fresh := env.freshEnclave(t, env.cfg.Store)
	names := dirNames(t, fresh, "/")
	for _, want := range []string{"a", "b", "same"} {
		if !names[want] {
			t.Fatalf("entry %q lost in merge (have %v)", want, names)
		}
	}
	if names["seed"] {
		t.Fatal("removed entry survived the merge")
	}
	if _, err := fresh.ReadFile("/same"); err != nil {
		t.Fatalf("conflicting insert left a dangling entry: %v", err)
	}
}

// TestWritebackRemoveVariants walks Remove's write-back branches:
// on-store directories and files (staged deletes), hardlinked files
// (eager link-count decrement), symlinks, pending directories
// (cancelled creates), and missing paths.
func TestWritebackRemoveVariants(t *testing.T) {
	store := newMemObjectStore()
	owner := newIdentity(t, "owen")
	env := newWbEnv(t, owner, Config{Store: store, Writeback: WritebackOn})
	e := env.enclave

	// On-store directory and file.
	if err := e.Mkdir("/dir"); err != nil {
		t.Fatal(err)
	}
	if err := e.Touch("/file"); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteFile("/file", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := e.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove("/dir"); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove("/file"); err != nil {
		t.Fatal(err)
	}

	// Hardlinked file: the first unlink only drops the link count.
	if err := e.Touch("/h"); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteFile("/h", []byte("linked")); err != nil {
		t.Fatal(err)
	}
	if err := e.Hardlink("/h", "/h2"); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove("/h"); err != nil {
		t.Fatal(err)
	}
	if data, err := e.ReadFile("/h2"); err != nil || string(data) != "linked" {
		t.Fatalf("surviving hardlink read = %q, %v", data, err)
	}
	if err := e.Remove("/h2"); err != nil {
		t.Fatal(err)
	}

	// Symlink: entry-only create and remove.
	if err := e.Symlink("/file", "/sl"); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove("/sl"); err != nil {
		t.Fatal(err)
	}

	// Pending directory: cancelled before it ever reaches the store.
	if err := e.Mkdir("/pending"); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove("/pending"); err != nil {
		t.Fatal(err)
	}

	// Error branches.
	if err := e.Remove("/nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Remove(missing) = %v, want ErrNotFound", err)
	}
	if err := e.Touch("/file2"); err != nil {
		t.Fatal(err)
	}
	if err := e.Touch("/file2"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate Touch = %v, want ErrExists", err)
	}

	if err := e.SyncMetadata(); err != nil {
		t.Fatal(err)
	}
	fresh := env.freshEnclave(t, store)
	names := dirNames(t, fresh, "/")
	if len(names) != 1 || !names["file2"] {
		t.Fatalf("final tree = %v, want just file2", names)
	}
	if !e.WritebackEnabled() {
		t.Fatal("WritebackEnabled() = false on a write-back enclave")
	}
	if fresh.WritebackEnabled() {
		t.Fatal("WritebackEnabled() = true on an eager enclave")
	}
}

// TestWritebackEPCPressureForcesDrain exhausts the platform's EPC so
// the dirty-set charge fails: the mark must still succeed, flag
// pressure, and force an inline drain that publishes the entry.
func TestWritebackEPCPressureForcesDrain(t *testing.T) {
	store := newMemObjectStore()
	owner := newIdentity(t, "owen")
	env := newWbEnv(t, owner, Config{Store: store, Writeback: WritebackOn})
	e := env.enclave

	// Grab the remaining EPC budget (binary descent, so the hog ends
	// within one byte of the true remainder).
	var hog int64
	for chunk := int64(1 << 32); chunk >= 1; chunk /= 2 {
		for e.sgx.AllocEPC(chunk) == nil {
			hog += chunk
		}
	}
	if err := e.Touch("/pressured"); err != nil {
		t.Fatalf("Touch under EPC pressure: %v", err)
	}
	e.sgx.FreeEPC(hog)

	e.mu.Lock()
	pendingNodes := len(e.wb.nodes)
	e.mu.Unlock()
	if pendingNodes != 0 {
		t.Fatalf("%d dirty nodes still pending; EPC pressure did not drain", pendingNodes)
	}
	fresh := env.freshEnclave(t, store)
	if names := dirNames(t, fresh, "/"); !names["pressured"] {
		t.Fatalf("pressure-drained entry missing from store view: %v", names)
	}
}
