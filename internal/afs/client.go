package afs

import (
	"container/list"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nexus/internal/backend"
	"nexus/internal/netsim"
	"nexus/internal/obs"
	"nexus/internal/serial"
	"nexus/internal/uuid"
)

// DefaultCacheBytes is the default client cache budget (AFS cache
// managers default to hundreds of MiB of disk cache; we hold whole files
// in memory).
const DefaultCacheBytes = 512 << 20

// ClientConfig tunes a client.
type ClientConfig struct {
	// Profile simulates the network between client and server.
	Profile netsim.Profile
	// CacheBytes bounds the whole-file cache; 0 means DefaultCacheBytes,
	// negative disables caching entirely.
	CacheBytes int64
	// DisableCallbacks skips the callback channel; the cache then only
	// invalidates on the client's own writes. Used by tests and by the
	// cache-ablation benchmark.
	DisableCallbacks bool
	// RPCTimeout bounds each RPC exchange (including server-side lock
	// waits). 0 means DefaultRPCTimeout; negative disables deadlines.
	RPCTimeout time.Duration
	// Retry tunes automatic reconnect and idempotent-RPC retry; the
	// zero value means defaults.
	Retry RetryPolicy
	// Dial overrides the transport dialer. Tests use it to route
	// connections through a netsim fault injector. Nil means a plain
	// netsim dial with Profile's costs.
	Dial func(addr string) (net.Conn, error)
	// Obs is the observability registry the client meters into
	// (RPC/retry/fault counters, RPC latency, per-op spans). Optional;
	// a private registry is created when nil.
	Obs *obs.Registry
}

// Client is a caching AFS client. It implements backend.Store, so a
// NEXUS volume can be stacked directly on top of it.
//
// Consistency model (matching AFS): whole files are fetched on first
// access and cached; the server records a callback promise and notifies
// the client if another client changes the file, invalidating the cached
// copy. Writes are write-through. Advisory locks are server-side and
// exclusive.
//
// Failure model: every RPC exchange carries a deadline, and the client
// reconnects automatically with seeded exponential backoff. Read-only
// RPCs (fetch/stat/list/ping) are retried transparently across
// reconnects; mutating RPCs are never re-sent — a mid-exchange failure
// surfaces ErrInterrupted because the server may already have applied
// the operation. Every reconnect flushes the whole-file cache, and the
// cache is bypassed the instant the callback channel drops, so lost
// invalidations can never yield stale reads.
type Client struct {
	id      string
	addr    string
	profile netsim.Profile
	dialFn  func(addr string) (net.Conn, error)
	timeout time.Duration
	retry   *retryState
	cbOff   bool

	reqMu sync.Mutex // serializes request/response exchanges and reconnects
	reqID uint64     // guarded by reqMu

	connMu sync.Mutex // guards the live connection pointers
	conn   net.Conn   // guarded by connMu
	cbConn net.Conn   // guarded by connMu

	// gen counts successful connects; it only changes under reqMu but is
	// read lock-free by lock-release closures and the callback loop.
	gen atomic.Uint64
	// cbLost is set when the live callback channel drops: the cache is
	// bypassed and the next RPC forces a full resync (reconnect + flush).
	cbLost atomic.Bool

	cache *fileCache

	closed atomic.Bool
	wg     sync.WaitGroup // callback-loop goroutines

	metrics clientMetrics
}

// clientMetrics holds the client's obs instrument handles. The legacy
// Stats/Reconnects accessors are shims over these counters; metric
// names are catalogued in DESIGN.md §11.
type clientMetrics struct {
	rpcs      *obs.Counter // afs_rpcs_total
	cacheHits *obs.Counter // afs_cache_hits_total
	// retries counts extra RPC attempts after a transport failure
	// (attempt two onward; first attempts are not retries).
	retries *obs.Counter // afs_retries_total
	// transportFaults counts observed transport-level failures: failed
	// dials (main and callback channel) and mid-exchange breaks. With a
	// dial-fault-only injector this equals the injector's fault count
	// exactly; see the chaos suite.
	transportFaults *obs.Counter // afs_transport_faults_total
	reconnects      *obs.Counter // afs_reconnects_total
	rpcLat          *obs.Histogram
	tracer          *obs.Tracer
}

func (m *clientMetrics) bind(reg *obs.Registry) {
	m.rpcs = reg.Counter("afs_rpcs_total")
	m.cacheHits = reg.Counter("afs_cache_hits_total")
	m.retries = reg.Counter("afs_retries_total")
	m.transportFaults = reg.Counter("afs_transport_faults_total")
	m.reconnects = reg.Counter("afs_reconnects_total")
	m.rpcLat = reg.Histogram("afs_rpc_seconds")
	m.tracer = reg.Tracer()
}

var _ backend.Store = (*Client)(nil)

// Dial connects to an AFS server at addr, retrying per the config's
// RetryPolicy before giving up with ErrUnavailable.
//
//lint:ignore span-coverage connection setup, not a data-path op; RPC spans are opened per call by the client methods
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	c := &Client{
		id:      uuid.New().String(),
		addr:    addr,
		profile: cfg.Profile,
		timeout: cfg.RPCTimeout,
		retry:   newRetryState(cfg.Retry),
		cbOff:   cfg.DisableCallbacks,
		dialFn:  cfg.Dial,
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	c.metrics.bind(cfg.Obs)
	if c.timeout == 0 {
		c.timeout = DefaultRPCTimeout
	}
	if c.dialFn == nil {
		profile := cfg.Profile
		c.dialFn = func(addr string) (net.Conn, error) { return netsim.Dial(addr, profile) }
	}
	if cfg.CacheBytes >= 0 {
		budget := cfg.CacheBytes
		if budget == 0 {
			budget = DefaultCacheBytes
		}
		c.cache = newFileCache(budget)
	}
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	var lastErr error
	for attempt := 1; ; attempt++ {
		if lastErr = c.connectLocked(); lastErr == nil {
			return c, nil
		}
		if attempt >= c.retry.policy.MaxAttempts {
			return nil, fmt.Errorf("afs: dial %s: %w: %w", addr, ErrUnavailable, lastErr)
		}
		time.Sleep(c.retry.wait(attempt))
	}
}

// connectLocked performs one connection attempt: main channel, hello,
// and (when enabled) the callback channel. On success it installs the
// connections, bumps the generation, and flushes the cache — any
// invalidations issued while disconnected were lost with the old
// callback channel.
func (c *Client) connectLocked() error {
	conn, err := c.dialFn(c.addr)
	if err != nil {
		c.metrics.transportFaults.Inc()
		return fmt.Errorf("%w: dialing: %w", errTransport, err)
	}
	if err := c.hello(conn, false); err != nil {
		_ = conn.Close()
		if errors.Is(err, errTransport) {
			c.metrics.transportFaults.Inc()
		}
		return err
	}
	var cbConn net.Conn
	if !c.cbOff && c.cache != nil {
		cbConn, err = c.dialFn(c.addr)
		if err != nil {
			_ = conn.Close()
			c.metrics.transportFaults.Inc()
			return fmt.Errorf("%w: dialing callback channel: %w", errTransport, err)
		}
		if err := c.hello(cbConn, true); err != nil {
			_ = conn.Close()
			_ = cbConn.Close()
			if errors.Is(err, errTransport) {
				c.metrics.transportFaults.Inc()
			}
			return err
		}
	}
	c.connMu.Lock()
	c.conn = conn
	c.cbConn = cbConn
	c.connMu.Unlock()
	if c.gen.Add(1) > 1 {
		c.metrics.reconnects.Inc()
	}
	c.cbLost.Store(false)
	if c.cache != nil {
		c.cache.flush()
	}
	if cbConn != nil {
		c.wg.Add(1)
		go c.callbackLoop(cbConn)
	}
	return nil
}

// dropConnLocked discards the live connections; the next RPC redials.
func (c *Client) dropConnLocked() {
	c.connMu.Lock()
	conn, cbConn := c.conn, c.cbConn
	c.conn, c.cbConn = nil, nil
	c.connMu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
	if cbConn != nil {
		_ = cbConn.Close()
	}
}

// currentConn returns the live RPC connection, or nil.
func (c *Client) currentConn() net.Conn {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.conn
}

func (c *Client) hello(conn net.Conn, isCallback bool) error {
	if c.timeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(c.timeout))
		defer func() { _ = conn.SetDeadline(time.Time{}) }()
	}
	w := serial.NewWriter(64)
	w.WriteString(c.id)
	w.WriteBool(isCallback)
	if err := writeFrame(conn, frame{op: opHello, reqID: 0, body: w.Bytes()}); err != nil {
		return transportFault("hello handshake", err)
	}
	resp, err := readFrame(conn)
	if err != nil {
		return transportFault("hello handshake", err)
	}
	if resp.op != opReply {
		return fmt.Errorf("%w: %w: hello rejected", errTransport, ErrProtocol)
	}
	return nil
}

// callbackLoop consumes invalidation frames until the channel drops. If
// it drops while still the live channel (server crash, network fault),
// the cache is flushed and flagged so no stale entry is ever served.
func (c *Client) callbackLoop(conn net.Conn) {
	defer c.wg.Done()
	for {
		f, err := readFrame(conn)
		if err != nil {
			break
		}
		if f.op != opInvalidate {
			continue
		}
		name, err := decodeName(f.body)
		if err != nil {
			continue
		}
		if c.cache != nil {
			c.cache.breakCallback(name)
		}
	}
	if c.closed.Load() {
		return
	}
	c.connMu.Lock()
	current := c.cbConn == conn
	c.connMu.Unlock()
	if current {
		// Invalidations may have been lost: stop serving cached entries
		// (readers check cbLost before the cache) and force the next RPC
		// to resync via a full reconnect.
		c.cbLost.Store(true)
		if c.cache != nil {
			c.cache.flush()
		}
	}
}

// Close terminates the client's connections.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.connMu.Lock()
	conn, cbConn := c.conn, c.cbConn
	c.conn, c.cbConn = nil, nil
	c.connMu.Unlock()
	var err error
	if conn != nil {
		closeWrite(conn)
		err = conn.Close()
	}
	if cbConn != nil {
		_ = cbConn.Close()
	}
	c.wg.Wait()
	return err
}

// transportFault wraps a connection-level failure, mapping deadline
// misses to ErrTimeout.
func transportFault(stage string, err error) error {
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return fmt.Errorf("%w: %s: %w", errTransport, stage, ErrTimeout)
	}
	return fmt.Errorf("%w: %s: %w", errTransport, stage, err)
}

// call performs one RPC, reconnecting and retrying per the client's
// policy. Transport failures surface as typed errors: ErrUnavailable
// when the request was never accepted, ErrInterrupted when a mutating
// RPC died mid-exchange (outcome unknown), with ErrTimeout in the chain
// when a deadline was missed.
func (c *Client) call(op opCode, body []byte) ([]byte, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	// The span and latency cover the whole logical RPC — reconnects,
	// retries and backoff included — because that is the latency the
	// layer above experiences. The span name is only materialized when
	// tracing is on, keeping the disabled path allocation-free.
	var span *obs.Span
	if c.metrics.tracer.Enabled() {
		span = c.metrics.tracer.Begin("afs." + op.String())
	}
	start := time.Now()
	resp, retries, faults, err := c.callAttempts(op, body)
	c.metrics.rpcLat.Record(time.Since(start))
	if retries > 0 {
		span.SetTagInt("retries", retries)
	}
	if faults > 0 {
		span.SetTagInt("faults", faults)
	}
	if err != nil {
		span.SetTag("error", errClass(err))
	}
	span.End()
	return resp, err
}

// errClass names an RPC failure for span tags.
func errClass(err error) string {
	switch {
	case errors.Is(err, ErrInterrupted):
		return "interrupted"
	case errors.Is(err, ErrUnavailable):
		return "unavailable"
	case errors.Is(err, ErrTimeout):
		return "timeout"
	case errors.Is(err, backend.ErrNotExist):
		return "not-exist"
	default:
		return "error"
	}
}

// callAttempts runs the reconnect/retry loop for one RPC, reporting how
// many extra attempts and observed transport faults it took.
func (c *Client) callAttempts(op opCode, body []byte) (resp []byte, retries, faults int64, err error) {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	var lastErr error
	for attempt := 1; ; attempt++ {
		if c.closed.Load() {
			return nil, retries, faults, ErrClosed
		}
		if attempt > 1 {
			retries++
			c.metrics.retries.Inc()
		}
		if err := c.ensureConnLocked(); err != nil {
			// Dial-level failure: nothing was sent, safe to retry for
			// every op. (connectLocked already counted the fault.)
			faults++
			lastErr = err
		} else {
			resp, err := c.exchangeLocked(op, body)
			if err == nil || !errors.Is(err, errTransport) {
				return resp, retries, faults, err
			}
			c.metrics.transportFaults.Inc()
			faults++
			c.dropConnLocked()
			if !retryable(op) {
				return nil, retries, faults, fmt.Errorf("afs: %s: %w: %w", op, ErrInterrupted, err)
			}
			lastErr = err
		}
		if attempt >= c.retry.policy.MaxAttempts {
			return nil, retries, faults, fmt.Errorf("afs: %s: %w: %w", op, ErrUnavailable, lastErr)
		}
		time.Sleep(c.retry.wait(attempt))
		if c.closed.Load() {
			return nil, retries, faults, ErrClosed
		}
	}
}

// ensureConnLocked makes sure a healthy connection is installed,
// resyncing first if the callback channel was lost.
func (c *Client) ensureConnLocked() error {
	if c.cbLost.Load() {
		c.dropConnLocked()
	}
	if c.currentConn() != nil {
		return nil
	}
	return c.connectLocked()
}

// exchangeLocked sends one request and reads its response on the live
// connection, under the RPC deadline. Errors wrapping errTransport mean
// the connection is no longer usable.
func (c *Client) exchangeLocked(op opCode, body []byte) ([]byte, error) {
	conn := c.currentConn()
	c.reqID++
	id := c.reqID
	c.metrics.rpcs.Inc()
	if c.timeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(c.timeout))
		defer func() { _ = conn.SetDeadline(time.Time{}) }()
	}
	if err := writeFrame(conn, frame{op: op, reqID: id, body: body}); err != nil {
		return nil, transportFault("writing request", err)
	}
	resp, err := readFrame(conn)
	if err != nil {
		return nil, transportFault("reading response", err)
	}
	if resp.reqID != id {
		return nil, fmt.Errorf("%w: %w: response id %d for request %d", errTransport, ErrProtocol, resp.reqID, id)
	}
	switch resp.op {
	case opReply:
		return resp.body, nil
	case opError:
		return nil, decodeError(resp.body)
	default:
		return nil, fmt.Errorf("%w: %w: unexpected op %d", errTransport, ErrProtocol, resp.op)
	}
}

// Get implements backend.Store: it returns the file contents, from cache
// when the callback promise is intact. Negative results are cached too:
// the server promises to break the callback when the file appears.
func (c *Client) Get(name string) ([]byte, error) {
	data, _, err := c.GetVersioned(name)
	return data, err
}

// Put implements backend.Store with write-through semantics.
func (c *Client) Put(name string, data []byte) error {
	_, err := c.PutVersioned(name, data)
	return err
}

// Delete implements backend.Store. The deletion is remembered as a
// negative cache entry.
func (c *Client) Delete(name string) error {
	since := c.cache.breakCount()
	_, err := c.call(opRemove, encodeName(name))
	if c.cache != nil {
		if err == nil {
			c.cache.putNegative(name, since)
		} else {
			c.cache.invalidate(name)
		}
	}
	return err
}

// List implements backend.Store.
func (c *Client) List(prefix string) ([]string, error) {
	body, err := c.call(opList, encodeName(prefix))
	if err != nil {
		return nil, err
	}
	r := serial.NewReader(body)
	n := r.ReadCount(0, "name count")
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		names = append(names, r.ReadString(0, "name"))
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return names, nil
}

// Lock implements backend.Store: a server-side exclusive advisory lock,
// the analogue of flock() on an AFS file. Acquiring the lock drops any
// cached copy of the file: a pending invalidation may still be in
// flight, and a locked read-modify-write must observe the latest
// contents (AFS revalidates with the server on open).
//
// A lock does not survive reconnect: the server releases it when the
// holding connection drops, so the release closure sends the unlock RPC
// only while the acquiring connection generation is still live.
func (c *Client) Lock(name string) (func(), error) {
	if _, err := c.call(opLock, encodeName(name)); err != nil {
		return nil, err
	}
	gen := c.gen.Load()
	if c.cache != nil {
		c.cache.invalidate(name)
	}
	released := false
	return func() {
		if released {
			return
		}
		released = true
		if c.closed.Load() || c.gen.Load() != gen {
			// The acquiring connection is gone; the server already
			// released the lock on disconnect.
			return
		}
		if _, err := c.call(opUnlock, encodeName(name)); err != nil && !c.closed.Load() {
			// An unlock can only fail if the connection died, in which
			// case the server releases the lock on disconnect anyway.
			_ = err
		}
	}, nil
}

// GetVersioned returns a file's contents and version, serving warm reads
// from the cache. It lets the NEXUS enclave validate its in-enclave
// decrypted-metadata cache against the same version stream that AFS
// callbacks keep fresh. The cache is bypassed while the callback channel
// is down, so a lost invalidation can never produce a stale read.
func (c *Client) GetVersioned(name string) ([]byte, uint64, error) {
	if c.cache != nil && !c.cbLost.Load() {
		data, negative, version, ok := c.cache.lookup(name)
		if ok {
			c.metrics.cacheHits.Inc()
			return data, version, nil
		}
		if negative {
			c.metrics.cacheHits.Inc()
			return nil, 0, fmt.Errorf("afs: %s (cached): %w", name, backend.ErrNotExist)
		}
	}
	since := c.cache.breakCount()
	body, err := c.call(opFetch, encodeName(name))
	if err != nil {
		if c.cache != nil && errors.Is(err, backend.ErrNotExist) {
			c.cache.putNegative(name, since)
		}
		return nil, 0, err
	}
	r := serial.NewReader(body)
	version := r.ReadUint64("version")
	data := r.ReadBytes(maxFrameSize, "data")
	if err := r.Finish(); err != nil {
		return nil, 0, err
	}
	if c.cache != nil {
		c.cache.put(name, data, version, since)
	}
	return data, version, nil
}

// PutVersioned stores a file and returns its new version.
func (c *Client) PutVersioned(name string, data []byte) (uint64, error) {
	w := serial.NewWriter(8 + len(name) + len(data))
	w.WriteString(name)
	w.WriteBytes(data)
	since := c.cache.breakCount()
	body, err := c.call(opStore, w.Bytes())
	if err != nil {
		if c.cache != nil {
			// The store may or may not have been applied; the cached copy
			// is no longer trustworthy either way.
			c.cache.invalidate(name)
		}
		return 0, err
	}
	r := serial.NewReader(body)
	version := r.ReadUint64("version")
	if err := r.Finish(); err != nil {
		return 0, err
	}
	if c.cache != nil {
		c.cache.put(name, data, version, since)
	}
	return version, nil
}

// PutVersionedStream stores a file whose contents are produced
// incrementally: next returns consecutive body segments (nil = done)
// summing to exactly total bytes. The segments go out as soon as they
// exist, so upstream production — the enclave sealing chunks — overlaps
// the transfer; on the wire the server still sees one ordinary store
// frame, applied atomically. Segment buffers belong to the producer and
// may be reused after each call, so the write-through cache accumulates
// its own copy as the segments pass by.
//
// Failure semantics match PutVersioned: a store is never re-sent, and a
// mid-exchange transport failure surfaces ErrInterrupted. A producer
// error aborts the frame — the connection is dropped, the server's
// frame read fails, and nothing is applied.
func (c *Client) PutVersionedStream(name string, total int, next func() ([]byte, error)) (uint64, error) {
	if c.closed.Load() {
		return 0, ErrClosed
	}
	var span *obs.Span
	if c.metrics.tracer.Enabled() {
		span = c.metrics.tracer.Begin("afs.store")
		span.SetTagInt("streamed", 1)
	}
	start := time.Now()
	version, retries, faults, err := c.streamStoreAttempts(name, total, next)
	c.metrics.rpcLat.Record(time.Since(start))
	if retries > 0 {
		span.SetTagInt("retries", retries)
	}
	if faults > 0 {
		span.SetTagInt("faults", faults)
	}
	if err != nil {
		span.SetTag("error", errClass(err))
	}
	span.End()
	return version, err
}

// streamStoreAttempts mirrors callAttempts for the scattered store:
// dial-level failures retry (the producer has not been touched yet),
// but once the first byte is out the RPC is one-shot.
func (c *Client) streamStoreAttempts(name string, total int, next func() ([]byte, error)) (version uint64, retries, faults int64, err error) {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	var lastErr error
	for attempt := 1; ; attempt++ {
		if c.closed.Load() {
			return 0, retries, faults, ErrClosed
		}
		if attempt > 1 {
			retries++
			c.metrics.retries.Inc()
		}
		if err := c.ensureConnLocked(); err != nil {
			faults++
			lastErr = err
		} else {
			version, connDead, err := c.streamExchangeLocked(name, total, next)
			if connDead {
				c.dropConnLocked()
			}
			if err != nil && c.cache != nil {
				// Applied or not, the cached copy is no longer trustworthy.
				c.cache.invalidate(name)
			}
			if err == nil || !errors.Is(err, errTransport) {
				return version, retries, faults, err
			}
			c.metrics.transportFaults.Inc()
			faults++
			return 0, retries, faults, fmt.Errorf("afs: %s: %w: %w", opStore, ErrInterrupted, err)
		}
		if attempt >= c.retry.policy.MaxAttempts {
			return 0, retries, faults, fmt.Errorf("afs: %s: %w: %w", opStore, ErrUnavailable, lastErr)
		}
		time.Sleep(c.retry.wait(attempt))
		if c.closed.Load() {
			return 0, retries, faults, ErrClosed
		}
	}
}

// streamExchangeLocked sends one scattered store frame and reads its
// response. connDead reports that the connection is no longer usable:
// any failure between the first header byte and a complete response
// leaves a partial frame outbound or an unread response inbound.
func (c *Client) streamExchangeLocked(name string, total int, next func() ([]byte, error)) (version uint64, connDead bool, err error) {
	conn := c.currentConn()
	c.reqID++
	id := c.reqID
	c.metrics.rpcs.Inc()
	if c.timeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(c.timeout))
		defer func() { _ = conn.SetDeadline(time.Time{}) }()
	}
	// The store body is name ‖ u32 length ‖ data; the data bytes arrive
	// as scattered segments after this prefix.
	prefix := serial.NewWriter(8 + len(name))
	prefix.WriteString(name)
	prefix.WriteUint32(uint32(total))

	var acc []byte
	if c.cache != nil {
		acc = make([]byte, 0, total)
	}
	since := c.cache.breakCount()
	var produceErr error
	produce := func() ([]byte, error) {
		seg, err := next()
		if err != nil {
			produceErr = err
			return nil, err
		}
		if acc != nil && len(seg) > 0 {
			acc = append(acc, seg...)
		}
		return seg, nil
	}
	if err := writeFrameScatter(conn, opStore, id, prefix.Bytes(), total, produce); err != nil {
		if produceErr != nil {
			// The frame never completed, so the server applies nothing —
			// but the connection is mid-frame and has to go.
			return 0, true, fmt.Errorf("afs: store %s: %w", name, produceErr)
		}
		return 0, true, transportFault("writing request", err)
	}
	resp, err := readFrame(conn)
	if err != nil {
		return 0, true, transportFault("reading response", err)
	}
	if resp.reqID != id {
		return 0, true, fmt.Errorf("%w: %w: response id %d for request %d", errTransport, ErrProtocol, resp.reqID, id)
	}
	switch resp.op {
	case opReply:
	case opError:
		return 0, false, decodeError(resp.body)
	default:
		return 0, true, fmt.Errorf("%w: %w: unexpected op %d", errTransport, ErrProtocol, resp.op)
	}
	r := serial.NewReader(resp.body)
	version = r.ReadUint64("version")
	if err := r.Finish(); err != nil {
		return 0, false, err
	}
	if c.cache != nil {
		c.cache.putOwned(name, acc, version, since)
	}
	return version, false, nil
}

// Stat describes a remote file.
type Stat struct {
	Exists  bool
	Version uint64
	Size    uint64
}

// StatFile queries a file's existence, version and size without
// transferring its contents.
func (c *Client) StatFile(name string) (Stat, error) {
	body, err := c.call(opStat, encodeName(name))
	if err != nil {
		return Stat{}, err
	}
	r := serial.NewReader(body)
	st := Stat{
		Exists:  r.ReadBool("exists"),
		Version: r.ReadUint64("version"),
		Size:    r.ReadUint64("size"),
	}
	if err := r.Finish(); err != nil {
		return Stat{}, err
	}
	return st, nil
}

// Ping round-trips an empty frame, measuring liveness and RTT.
func (c *Client) Ping() error {
	_, err := c.call(opPing, nil)
	return err
}

// FlushCache drops all cached file copies, forcing the next reads to hit
// the server (the evaluation flushes the AFS cache between runs).
func (c *Client) FlushCache() {
	if c.cache != nil {
		c.cache.flush()
	}
}

// Stats reports cumulative RPCs issued and cache hits served (shim
// over the afs_rpcs_total / afs_cache_hits_total registry counters).
func (c *Client) Stats() (rpcs, cacheHits int64) {
	return c.metrics.rpcs.Value(), c.metrics.cacheHits.Value()
}

// Reconnects reports how many times the client re-established its
// connection after the initial dial.
func (c *Client) Reconnects() int64 {
	g := int64(c.gen.Load())
	if g <= 0 {
		return 0
	}
	return g - 1
}

// fileCache is a byte-budgeted LRU of whole files.
type fileCache struct {
	mu     sync.Mutex
	budget int64
	used   int64                    // guarded by mu
	lru    *list.List               // of *cacheEntry, front = most recent; guarded by mu
	byName map[string]*list.Element // guarded by mu
	// breaks counts callback breaks and flushes (guarded by mu). An RPC
	// reads it before it is sent, and its reply is cached only if no
	// break landed in between: the server may break the callback for
	// this very file after producing the reply, and the callback
	// channel may deliver the break first. Caching the reply then would
	// pin a stale copy no later break removes.
	breaks uint64
}

type cacheEntry struct {
	name    string
	data    []byte
	version uint64
	// negative marks a cached does-not-exist result, valid under the
	// same callback promise as positive entries (the server notifies on
	// creation).
	negative bool
}

func newFileCache(budget int64) *fileCache {
	return &fileCache{
		budget: budget,
		lru:    list.New(),
		byName: make(map[string]*list.Element),
	}
}

func (fc *fileCache) get(name string) ([]byte, bool) {
	data, _, ok := fc.getVersioned(name)
	return data, ok
}

func (fc *fileCache) getVersioned(name string) ([]byte, uint64, bool) {
	data, _, version, ok := fc.lookup(name)
	return data, version, ok
}

// lookup returns (data, negative, version, found).
func (fc *fileCache) lookup(name string) ([]byte, bool, uint64, bool) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	el, ok := fc.byName[name]
	if !ok {
		return nil, false, 0, false
	}
	fc.lru.MoveToFront(el)
	entry := el.Value.(*cacheEntry)
	if entry.negative {
		return nil, true, 0, false
	}
	out := make([]byte, len(entry.data))
	copy(out, entry.data)
	return out, false, entry.version, true
}

// breakCount returns the break counter for a later put; a nil cache
// reports 0.
func (fc *fileCache) breakCount() uint64 {
	if fc == nil {
		return 0
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.breaks
}

// putNegative caches a does-not-exist result observed by an RPC sent
// when the break counter read since.
func (fc *fileCache) putNegative(name string, since uint64) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.breaks != since {
		fc.invalidateLocked(name)
		return
	}
	if el, ok := fc.byName[name]; ok {
		fc.removeElementLocked(el)
	}
	el := fc.lru.PushFront(&cacheEntry{name: name, negative: true})
	fc.byName[name] = el
}

func (fc *fileCache) put(name string, data []byte, version, since uint64) {
	cp := make([]byte, len(data))
	copy(cp, data)
	fc.putOwned(name, cp, version, since)
}

// putOwned is put for a buffer the cache takes ownership of, skipping
// the defensive copy. The streaming put accumulates its own copy
// segment by segment, so a second copy here would be pure waste.
func (fc *fileCache) putOwned(name string, data []byte, version, since uint64) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if int64(len(data)) > fc.budget || fc.breaks != since {
		// Too large to cache without thrashing, or a break landed while
		// the RPC was out: any older copy is stale either way.
		fc.invalidateLocked(name)
		return
	}
	if el, ok := fc.byName[name]; ok {
		entry := el.Value.(*cacheEntry)
		fc.used += int64(len(data)) - int64(len(entry.data))
		entry.data = data
		entry.version = version
		entry.negative = false
		fc.lru.MoveToFront(el)
	} else {
		el := fc.lru.PushFront(&cacheEntry{name: name, data: data, version: version})
		fc.byName[name] = el
		fc.used += int64(len(data))
	}
	for fc.used > fc.budget {
		oldest := fc.lru.Back()
		if oldest == nil {
			break
		}
		fc.removeElementLocked(oldest)
	}
}

func (fc *fileCache) invalidate(name string) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.invalidateLocked(name)
}

// breakCallback drops name on a callback break from the server.
func (fc *fileCache) breakCallback(name string) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.breaks++
	fc.invalidateLocked(name)
}

func (fc *fileCache) invalidateLocked(name string) {
	if el, ok := fc.byName[name]; ok {
		fc.removeElementLocked(el)
	}
}

func (fc *fileCache) flush() {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.breaks++
	fc.lru.Init()
	fc.byName = make(map[string]*list.Element)
	fc.used = 0
}

// removeElementLocked must be called with fc.mu held.
func (fc *fileCache) removeElementLocked(el *list.Element) {
	entry := el.Value.(*cacheEntry)
	fc.lru.Remove(el)
	delete(fc.byName, entry.name)
	fc.used -= int64(len(entry.data))
}
