package parallel

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Buffer pooling for the chunk data path (DESIGN.md §14). The fileio
// hot path turns over multi-megabyte sealed and plaintext spans on
// every write; allocating them per operation dominates the allocation
// profile and keeps the GC busy zeroing memory the crypto code is about
// to overwrite anyway. The arena leases size-classed buffers from
// sync.Pools instead, with two ownership rules the buffer-escape lint
// rule enforces at the call sites:
//
//  1. A leased buffer is owned exclusively by the leaseholder until
//     Release; nothing reached through it may be retained afterwards.
//  2. Release returns ownership to the arena — any later use of the
//     buffer (or a slice of it) is a use-after-free against whoever
//     leases it next.

const (
	// minClassBits..maxClassBits bound the pooled size classes at
	// 4 KiB..128 MiB (the AFS wire layer's maxFrameSize). Requests above
	// the top class fall through to plain allocations that Release
	// drops, so a pathological lease can never pin gigabytes in a pool.
	minClassBits = 12
	maxClassBits = 27
	numClasses   = maxClassBits - minClassBits + 1
)

// Buf is one leased buffer. B has the requested length and the size
// class's capacity, so callers can seal "into" it with three-index
// slices without reallocating. A Buf is not safe for concurrent use;
// hand the whole Buf off or split B into disjoint sub-slices.
type Buf struct {
	B []byte

	arena     *Arena
	class     int
	sensitive bool
	released  bool
}

// Arena is a size-classed sync.Pool set with hit/miss accounting. The
// zero value is not usable; call NewArena. Arenas are safe for
// concurrent use.
type Arena struct {
	classes [numClasses]sync.Pool
	// last holds each class's most recently released buffer, checked
	// before the pool. sync.Pool keeps a released buffer in a per-P slot
	// that other Ps cannot see (and under the race detector drops some
	// Puts on purpose), so a goroutine that the scheduler moved between
	// Release and the next Get would miss; the slot makes that
	// sequential reuse — the common data-path pattern — a certain hit.
	last   [numClasses]atomic.Pointer[Buf]
	hits   atomic.Uint64
	misses atomic.Uint64
	// onHit/onMiss let an owner mirror the counters into its metrics
	// registry (enclave_chunk_pool_{hits,misses}_total) without the
	// arena importing obs. Set once before use; never called with locks
	// held.
	onHit  func()
	onMiss func()
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Shared is the process-wide arena for call sites without a natural
// owner (filenode key/IV scratch, cryptofs seal buffers). Subsystems
// that report pool health own a private arena instead, so their
// counters are theirs alone.
var Shared = NewArena()

// SetCounters mirrors every pool hit and miss into the given hooks
// (typically obs counter Incs). Must be called before the arena is
// shared across goroutines.
func (a *Arena) SetCounters(onHit, onMiss func()) {
	a.onHit = onHit
	a.onMiss = onMiss
}

// Stats returns the cumulative hit and miss counts.
func (a *Arena) Stats() (hits, misses uint64) {
	return a.hits.Load(), a.misses.Load()
}

// classFor maps a request size to its class index, or -1 for requests
// above the top class.
func classFor(n int) int {
	if n <= 1<<minClassBits {
		return 0
	}
	c := bits.Len(uint(n-1)) - minClassBits
	if c >= numClasses {
		return -1
	}
	return c
}

// Get leases a buffer of length n. The contents are unspecified (the
// crypto call sites overwrite every byte; anyone else must not read
// before writing). Release returns it to the arena.
func (a *Arena) Get(n int) *Buf {
	if n < 0 {
		panic("parallel: negative buffer size")
	}
	c := classFor(n)
	if c < 0 {
		a.miss()
		return &Buf{B: make([]byte, n), arena: a, class: -1}
	}
	b := a.last[c].Swap(nil)
	if b == nil {
		if v := a.classes[c].Get(); v != nil {
			b = v.(*Buf)
		}
	}
	if b != nil {
		b.B = b.B[:n]
		b.sensitive = false
		b.released = false
		a.hit()
		return b
	}
	a.miss()
	return &Buf{B: make([]byte, n, 1<<(minClassBits+c)), arena: a, class: c}
}

// GetSensitive is Get for buffers that will hold plaintext or key
// material: Release zeroes the full capacity before the buffer can be
// leased again, so no later leaseholder (or heap dump of the pool) sees
// stale secrets.
func (a *Arena) GetSensitive(n int) *Buf {
	b := a.Get(n)
	b.sensitive = true
	return b
}

func (a *Arena) hit() {
	a.hits.Add(1)
	if a.onHit != nil {
		a.onHit()
	}
}

func (a *Arena) miss() {
	a.misses.Add(1)
	if a.onMiss != nil {
		a.onMiss()
	}
}

// Release returns the buffer to its arena. Sensitive buffers are zeroed
// to full capacity first. Releasing twice panics: a double release
// would lease the same memory to two owners, which is exactly the
// corruption the ownership rules exist to prevent.
func (b *Buf) Release() {
	if b == nil {
		return
	}
	if b.released {
		panic("parallel: buffer released twice")
	}
	b.released = true
	if b.sensitive {
		clear(b.B[:cap(b.B)])
	}
	if b.class < 0 {
		return // oversized one-off: let the GC have it
	}
	a := b.arena
	b.B = b.B[:cap(b.B)]
	if !a.last[b.class].CompareAndSwap(nil, b) {
		a.classes[b.class].Put(b)
	}
}
