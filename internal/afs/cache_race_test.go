package afs

import (
	"net"
	"sync"
	"testing"
	"time"

	"nexus/internal/backend"
)

// gatedStore parks the first Get of gate until release is closed, so a
// test can run another client's store while a fetch is inside the
// server.
type gatedStore struct {
	backend.Store
	gate    string
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (g *gatedStore) Get(name string) ([]byte, error) {
	data, err := g.Store.Get(name)
	if name == g.gate {
		g.once.Do(func() {
			close(g.entered)
			<-g.release
		})
	}
	return data, err
}

// TestFetchRacingStoreDoesNotPinStaleCopy: a fetch that read the old
// bytes must register its callback promise before a concurrent store
// of the same file breaks the promises, or the fetcher caches the old
// bytes with no break ever coming.
func TestFetchRacingStoreDoesNotPinStaleCopy(t *testing.T) {
	mem := backend.NewMemStore()
	if err := mem.Put("f", []byte("old")); err != nil {
		t.Fatal(err)
	}
	gs := &gatedStore{Store: mem, gate: "f", entered: make(chan struct{}), release: make(chan struct{})}
	srv := NewServer(gs)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })
	reader := dialClient(t, l.Addr().String(), ClientConfig{})
	writer := dialClient(t, l.Addr().String(), ClientConfig{})

	fetched := make(chan error, 1)
	go func() {
		_, err := reader.Get("f")
		fetched <- err
	}()
	<-gs.entered
	stored := make(chan error, 1)
	go func() { stored <- writer.Put("f", []byte("new")) }()
	time.Sleep(20 * time.Millisecond) // let the store reach the server
	close(gs.release)
	if err := <-fetched; err != nil {
		t.Fatal(err)
	}
	if err := <-stored; err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		got, err := reader.Get("f")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) == "new" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("reader still serves %q from cache after the store", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCacheDropsReplyRacedByBreak: a callback break processed while an
// RPC is out may be for the very file the reply carries, so the reply
// must not be cached.
func TestCacheDropsReplyRacedByBreak(t *testing.T) {
	fc := newFileCache(1 << 20)
	since := fc.breakCount()
	fc.breakCallback("f")
	fc.put("f", []byte("old"), 1, since)
	if _, ok := fc.get("f"); ok {
		t.Fatal("reply raced by a break was cached")
	}
	fc.putNegative("g", since)
	if _, negative, _, _ := fc.lookup("g"); negative {
		t.Fatal("negative reply raced by a break was cached")
	}

	since = fc.breakCount()
	fc.put("f", []byte("new"), 2, since)
	if got, ok := fc.get("f"); !ok || string(got) != "new" {
		t.Fatalf("unraced reply not cached: %q, %v", got, ok)
	}
}
