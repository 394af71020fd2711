package main

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"nexus"
	"nexus/internal/afs"
	"nexus/internal/backend"
	"nexus/internal/enclave"
	"nexus/internal/netsim"
)

// Testbed settings. They are the paper's LAN cell (§VII) with the
// bandwidth cap lifted: a 1 Gbit/s cap turns the bulk data path into
// simulated sleep that no code change can move, while uploaded bytes stay
// visible as the bytes_up_per_user_byte count.
var (
	lanProfile = netsim.Profile{RTT: 500 * time.Microsecond}
	// transitionCost is the per-ecall/ocall charge the repository's
	// testbed uses (internal/bench), roughly the published SGX cost.
	transitionCost = 4 * time.Microsecond
)

// testbed is one fresh NEXUS deployment: an in-process AFS server on
// loopback TCP behind the LAN profile, one caching AFS client, and the
// shipped default NEXUS client stack over it with one volume.
type testbed struct {
	server *afs.Server
	wire   *wireListener
	addr   string

	afs    *afs.Client
	timing *timingStore // nil unless the testbed is traced
	client *nexus.Client
	fs     *nexus.FS
	obs    *nexus.Obs // client stack: vfs, enclave, sgx, afs client
	srvObs *nexus.Obs // server

	owner        nexus.Identity
	sealed       []byte
	volume       nexus.VolumeID
	platformSeed []byte
}

// newTestbed stands up a testbed. traced inserts the timing decorator
// between the NEXUS client and the AFS client; platformSeed makes the
// simulated CPU reproducible so a second client can unseal the rootkey.
func newTestbed(traced bool, platformSeed []byte) (_ *testbed, err error) {
	tb := &testbed{platformSeed: platformSeed, obs: nexus.NewObs(), srvObs: nexus.NewObs()}
	defer func() {
		if err != nil {
			tb.close()
		}
	}()
	tb.server = afs.NewServer(backend.NewMemStore())
	tb.server.SetObs(tb.srvObs)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	tb.addr = l.Addr().String()
	tb.wire = &wireListener{Listener: netsim.NewListener(l, lanProfile)}
	go func() { _ = tb.server.Serve(tb.wire) }()

	tb.afs, err = afs.Dial(tb.addr, afs.ClientConfig{Profile: lanProfile, Obs: tb.obs})
	if err != nil {
		return nil, err
	}
	var store nexus.ObjectStore = tb.afs
	if traced {
		tb.timing, err = newTimingStore(tb.afs)
		if err != nil {
			return nil, err
		}
		store = tb.timing.store()
	}
	tb.client, err = nexus.NewClient(nexus.ClientConfig{
		Store:          store,
		TransitionCost: transitionCost,
		PlatformSeed:   platformSeed,
		Obs:            tb.obs,
	})
	if err != nil {
		return nil, err
	}
	tb.owner, err = nexus.NewIdentity("bench-owner")
	if err != nil {
		return nil, err
	}
	vol, sealed, err := tb.client.CreateVolume(tb.owner)
	if err != nil {
		return nil, err
	}
	tb.fs, tb.sealed, tb.volume = vol.FS(), sealed, vol.ID()
	return tb, nil
}

// dropCaches empties the AFS client cache and the enclave metadata
// cache, so the reads that follow are cold.
func (tb *testbed) dropCaches() {
	tb.afs.FlushCache()
	tb.client.Enclave().DropCaches()
}

// remount mounts the volume in a fresh client — its own AFS connection
// and cache, its own enclave on a platform built from the same seed —
// and hands its filesystem to fn.
func (tb *testbed) remount(fn func(fs *nexus.FS)) error {
	conn, err := afs.Dial(tb.addr, afs.ClientConfig{Profile: lanProfile})
	if err != nil {
		return err
	}
	defer conn.Close()
	client, err := nexus.NewClient(nexus.ClientConfig{
		Store:          conn,
		TransitionCost: transitionCost,
		PlatformSeed:   tb.platformSeed,
	})
	if err != nil {
		return err
	}
	vol, err := client.Mount(tb.owner, tb.sealed, tb.volume)
	if err != nil {
		return err
	}
	fn(vol.FS())
	return nil
}

func (tb *testbed) close() {
	if tb.afs != nil {
		_ = tb.afs.Close()
	}
	if tb.server != nil {
		_ = tb.server.Close()
	}
}

// wireListener counts the bytes the server reads (client to server, "up")
// and writes (server to client, "down") on every accepted connection.
type wireListener struct {
	net.Listener
	up, down atomic.Int64
}

func (l *wireListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &wireConn{Conn: c, l: l}, nil
}

type wireConn struct {
	net.Conn
	l *wireListener
}

func (c *wireConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.l.up.Add(int64(n))
	return n, err
}

func (c *wireConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.l.down.Add(int64(n))
	return n, err
}

// timingStore is a forwarding decorator on the ObjectStore handed to
// nexus.NewClient: it counts calls per kind and the wall time spent in
// the wrapped store. It implements exactly the optional upgrades of the
// store it wraps, so the enclave takes the same code paths with and
// without it — in particular nexus.NewClient still stacks its freshness
// proof service on top.
type timingStore struct {
	inner enclave.ObjectStore
	ns    atomic.Int64 // wall time in store calls
	// unlockNs is the wall time in the release functions Lock returned.
	// The enclave calls them without an ocall, so this store time sits
	// inside the ecall's enclave-resident time.
	unlockNs                            atomic.Int64
	gets, puts, streams, deletes, locks atomic.Int64
}

// newTimingStore wraps inner. It refuses a store with an upgrade it does
// not forward, rather than silently measuring a different code path.
func newTimingStore(inner enclave.ObjectStore) (*timingStore, error) {
	if _, ok := inner.(enclave.FreshnessProofStore); ok {
		return nil, errors.New("timing store: cannot forward FreshnessProofStore")
	}
	if _, ok := inner.(interface{ Instrument(*nexus.Obs) }); ok {
		return nil, errors.New("timing store: cannot forward Instrument")
	}
	return &timingStore{inner: inner}, nil
}

// store returns the decorator as the interface set the wrapped store has.
func (t *timingStore) store() enclave.ObjectStore {
	if ss, ok := t.inner.(enclave.StreamObjectStore); ok {
		return &streamTimingStore{timingStore: t, stream: ss}
	}
	return t
}

func (t *timingStore) since(start time.Time) { t.ns.Add(int64(time.Since(start))) }

func (t *timingStore) GetVersioned(name string) ([]byte, uint64, error) {
	defer t.since(time.Now())
	t.gets.Add(1)
	return t.inner.GetVersioned(name)
}

func (t *timingStore) PutVersioned(name string, data []byte) (uint64, error) {
	defer t.since(time.Now())
	t.puts.Add(1)
	return t.inner.PutVersioned(name, data)
}

func (t *timingStore) Delete(name string) error {
	defer t.since(time.Now())
	t.deletes.Add(1)
	return t.inner.Delete(name)
}

func (t *timingStore) Lock(name string) (func(), error) {
	defer t.since(time.Now())
	t.locks.Add(1)
	release, err := t.inner.Lock(name)
	if err != nil {
		return release, err
	}
	return func() {
		start := time.Now()
		release()
		t.unlockNs.Add(int64(time.Since(start)))
	}, nil
}

type streamTimingStore struct {
	*timingStore
	stream enclave.StreamObjectStore
}

func (t *streamTimingStore) PutVersionedStream(name string, total int, next func() ([]byte, error)) (uint64, error) {
	defer t.since(time.Now())
	t.streams.Add(1)
	return t.stream.PutVersionedStream(name, total, next)
}
