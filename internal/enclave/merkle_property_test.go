// Property test: merkle freshness mode against the flat-table oracle.
// Two full enclave stacks — one Config.FreshnessMerkle, one
// Config.FreshnessTree — consume an identical seeded operation stream
// (mutations, reads, cache drops, remounts, and stale-replay attacks)
// and must return identical accept/reject verdicts for every step.
// Reproduce a failure with NEXUS_MERKLE_SEED=<seed>.
package enclave_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"nexus/internal/enclave"
	"nexus/internal/vfs"
)

func merklePropSeed(t *testing.T) int64 {
	t.Helper()
	raw := os.Getenv("NEXUS_MERKLE_SEED")
	if raw == "" {
		return 1
	}
	seed, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		t.Fatalf("NEXUS_MERKLE_SEED=%q: %v", raw, err)
	}
	return seed
}

// oracleClient is the flat-table twin of merkleClient: the same stack
// over the same kind of malicious store, but with the O(n) freshness
// table the merkle mode replaces.
func newOracleClient(t *testing.T) *merkleClient {
	t.Helper()
	c := newMerkleClient(t)
	// Rebuild everything in flat mode over a fresh store.
	raw := newRawStore()
	c2 := &merkleClient{
		ias:  c.ias,
		plat: c.plat,
		raw:  raw,
		reg:  c.reg,
		pub:  c.pub,
		priv: c.priv,
	}
	container, err := c2.plat.CreateEnclave(rollbackImage)
	if err != nil {
		t.Fatal(err)
	}
	e, err := enclave.New(enclave.Config{
		SGX:           container,
		Store:         raw,
		IAS:           c2.ias,
		FreshnessTree: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c2.encl = e
	sealed, err := e.CreateVolume("owen", c2.pub)
	if err != nil {
		t.Fatal(err)
	}
	c2.sealed = sealed
	if c2.volID, err = e.VolumeUUID(); err != nil {
		t.Fatal(err)
	}
	if err := c2.mount(e); err != nil {
		t.Fatal(err)
	}
	return c2
}

func TestPropertyMerkleVsFlatTableOracle(t *testing.T) {
	seed := merklePropSeed(t)
	rng := rand.New(rand.NewSource(seed))

	mc := newMerkleClient(t) // system under test
	fc := newOracleClient(t) // oracle

	// both runs one operation on both stacks and demands verdict
	// parity; it returns the merkle-side error for further checks.
	both := func(op string, f func(e *enclave.Enclave) error) error {
		errM := f(mc.encl)
		errF := f(fc.encl)
		if (errM == nil) != (errF == nil) {
			t.Fatalf("seed %d, %s: merkle=%v, flat oracle=%v", seed, op, errM, errF)
		}
		return errM
	}

	dirs := []string{"/"}
	var files []string
	pick := func(set []string) string { return set[rng.Intn(len(set))] }
	join := func(dir, name string) string {
		if dir == "/" {
			return "/" + name
		}
		return dir + "/" + name
	}

	// Freshness-carrying objects are never rolled back by the stale
	// replay: the flat table's own rollback handling differs by design
	// (seq counters vs epochs), and the property under test is verdict
	// parity on *metadata* freshness.
	excluded := func(name string) bool {
		return name == enclave.FreshnessObjectName ||
			name == enclave.MerkleRootObjectName ||
			vfs.IsFreshnessTreeObject(name)
	}

	var snapM, snapF storeSnapshot
	var haveSnap bool

	const ops = 250
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(100); {
		case r < 15: // mkdir
			path := join(pick(dirs), fmt.Sprintf("d%d", i))
			if both("mkdir "+path, func(e *enclave.Enclave) error { return e.Mkdir(path) }) == nil {
				dirs = append(dirs, path)
			}
		case r < 35: // touch
			path := join(pick(dirs), fmt.Sprintf("f%d", i))
			if both("touch "+path, func(e *enclave.Enclave) error { return e.Touch(path) }) == nil {
				files = append(files, path)
			}
		case r < 55: // write
			if len(files) == 0 {
				continue
			}
			path := pick(files)
			data := make([]byte, rng.Intn(512))
			rng.Read(data)
			both("write "+path, func(e *enclave.Enclave) error { return e.WriteFile(path, data) })
		case r < 70: // read
			if len(files) == 0 {
				continue
			}
			path := pick(files)
			both("read "+path, func(e *enclave.Enclave) error {
				_, err := e.ReadFile(path)
				return err
			})
		case r < 80: // filldir
			path := pick(dirs)
			both("filldir "+path, func(e *enclave.Enclave) error {
				_, err := e.Filldir(path)
				return err
			})
		case r < 88: // remove
			if len(files) == 0 {
				continue
			}
			j := rng.Intn(len(files))
			path := files[j]
			if both("remove "+path, func(e *enclave.Enclave) error { return e.Remove(path) }) == nil {
				files = append(files[:j], files[j+1:]...)
			}
		case r < 93: // drop caches
			mc.encl.DropCaches()
			fc.encl.DropCaches()
		case r < 96: // snapshot (attack staging)
			snapM, snapF = mc.raw.snapshot(), fc.raw.snapshot()
			haveSnap = true
		default: // stale-replay attack: serve the old snapshot, read, heal
			if !haveSnap {
				continue
			}
			serveStale := func(snap storeSnapshot) func(string, []byte, uint64) ([]byte, uint64) {
				return func(name string, b []byte, v uint64) ([]byte, uint64) {
					if old, ok := snap.data[name]; ok && !excluded(name) {
						return append([]byte(nil), old...), snap.vers[name]
					}
					return b, v
				}
			}
			mc.raw.setOnGet(serveStale(snapM))
			fc.raw.setOnGet(serveStale(snapF))
			mc.encl.DropCaches()
			fc.encl.DropCaches()
			for _, d := range dirs {
				err := both("attacked filldir "+d, func(e *enclave.Enclave) error {
					_, err := e.Filldir(d)
					return err
				})
				if err != nil && !errors.Is(err, enclave.ErrStaleMetadata) {
					t.Fatalf("seed %d: attacked filldir %s rejected with %v, want ErrStaleMetadata", seed, d, err)
				}
			}
			mc.raw.setOnGet(nil)
			fc.raw.setOnGet(nil)
			mc.encl.DropCaches()
			fc.encl.DropCaches()
		}
	}

	// Final sweep: both stacks agree on the whole namespace, through a
	// fresh mount each (sealed state only).
	eM := mc.newEnclave(t, mc.proofs)
	if err := mc.mount(eM); err != nil {
		t.Fatalf("seed %d: merkle remount: %v", seed, err)
	}
	containerF, err := fc.plat.CreateEnclave(rollbackImage)
	if err != nil {
		t.Fatal(err)
	}
	eF, err := enclave.New(enclave.Config{SGX: containerF, Store: fc.raw, IAS: fc.ias, FreshnessTree: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := fc.mount(eF); err != nil {
		t.Fatalf("seed %d: flat remount: %v", seed, err)
	}
	for _, d := range dirs {
		entM, errM := eM.Filldir(d)
		entF, errF := eF.Filldir(d)
		if (errM == nil) != (errF == nil) {
			t.Fatalf("seed %d: final filldir %s: merkle=%v, flat=%v", seed, d, errM, errF)
		}
		if len(entM) != len(entF) {
			t.Fatalf("seed %d: final filldir %s: %d entries vs %d", seed, d, len(entM), len(entF))
		}
	}
}
