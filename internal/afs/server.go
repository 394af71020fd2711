package afs

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"nexus/internal/backend"
	"nexus/internal/obs"
	"nexus/internal/serial"
)

// Server is an AFS-like file server. It stores whole files in a
// backend.Store, tracks per-file version numbers, grants exclusive
// advisory locks, and issues callback invalidations to clients holding
// cached copies when a file changes — the essentials of an AFS fileserver
// from the perspective of a NEXUS client.
type Server struct {
	store backend.Store

	mu        sync.Mutex
	versions  map[string]uint64          // per-file version counters; guarded by mu
	cachedBy  map[string]map[string]bool // file -> clientIDs with cached copies; guarded by mu
	callbacks map[string]*callbackConn   // clientID -> callback channel; guarded by mu
	locks     map[string]*lockState      // file -> lock queue; guarded by mu
	listeners map[net.Listener]bool      // guarded by mu
	conns     map[net.Conn]bool          // accepted connections; guarded by mu
	closed    bool                       // guarded by mu

	// objLocks serialize the requests on one file (striped by name), so
	// a fetch's data, version and callback promise, or a store's data
	// and callback break, form one step no other request on that file
	// can split: a promise registered after a concurrent store already
	// broke the callbacks would let the fetcher cache stale bytes that
	// no later break removes.
	objLocks [objLockStripes]sync.Mutex

	metrics serverMetrics

	logf func(format string, args ...any)
}

// serverMetrics holds the server's obs instrument handles; the legacy
// Stats accessor is a shim over the fetch/store counters.
type serverMetrics struct {
	fetches       *obs.Counter // afs_server_fetches_total
	stores        *obs.Counter // afs_server_stores_total
	requests      *obs.Counter // afs_server_requests_total
	invalidations *obs.Counter // afs_server_invalidations_total
	conns         *obs.Gauge   // afs_server_conns
	requestLat    *obs.Histogram
}

func (m *serverMetrics) bind(reg *obs.Registry) {
	m.fetches = reg.Counter("afs_server_fetches_total")
	m.stores = reg.Counter("afs_server_stores_total")
	m.requests = reg.Counter("afs_server_requests_total")
	m.invalidations = reg.Counter("afs_server_invalidations_total")
	m.conns = reg.Gauge("afs_server_conns")
	m.requestLat = reg.Histogram("afs_server_request_seconds")
}

// SetObs rebinds the server's meters onto reg (the nexus-afsd daemon
// shares one registry between the server and its /metrics endpoint).
// Call before Serve; rebinding mid-flight loses in-window counts.
func (s *Server) SetObs(reg *obs.Registry) { s.metrics.bind(reg) }

type callbackConn struct {
	mu   sync.Mutex // serializes frame writes
	conn net.Conn
}

// lockState implements a FIFO exclusive lock. Ownership is handed to the
// next waiter inside the release critical section, so a lock can never be
// stolen between a release and the waiter waking up.
type lockState struct {
	holder  string // clientID, "" when free
	waiters []lockWaiter
}

type lockWaiter struct {
	ch       chan struct{}
	clientID string
}

// NewServer creates a server persisting files to store.
func NewServer(store backend.Store) *Server {
	s := &Server{
		store:     store,
		versions:  make(map[string]uint64),
		cachedBy:  make(map[string]map[string]bool),
		callbacks: make(map[string]*callbackConn),
		locks:     make(map[string]*lockState),
		listeners: make(map[net.Listener]bool),
		conns:     make(map[net.Conn]bool),
		logf:      func(string, ...any) {},
	}
	s.metrics.bind(obs.NewRegistry())
	return s
}

// VersionSnapshot copies the per-file version counters. A restart
// harness carries them into a replacement server via SetVersions, the
// way a real AFS fileserver recovers data versions from its vice
// partitions: without this, a restarted server would hand out version
// numbers that alias pre-crash ones and defeat version-based cache
// validation.
func (s *Server) VersionSnapshot() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(s.versions))
	for name, v := range s.versions {
		out[name] = v
	}
	return out
}

// SetVersions seeds the per-file version counters, typically from a
// previous server's VersionSnapshot. It must be called before Serve.
func (s *Server) SetVersions(versions map[string]uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, v := range versions {
		s.versions[name] = v
	}
}

// SetLogger directs server diagnostics to the given function (e.g.
// log.Printf). By default the server is silent.
func (s *Server) SetLogger(logf func(format string, args ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s.logf = logf
}

// Stats returns cumulative fetch and store RPC counts (shim over the
// afs_server_fetches_total / afs_server_stores_total counters).
func (s *Server) Stats() (fetches, stores int64) {
	return s.metrics.fetches.Value(), s.metrics.stores.Value()
}

// Serve accepts connections on l until the listener fails or the server
// is closed. It always returns a non-nil error; after Close the error is
// ErrClosed.
//
//lint:ignore span-coverage accept loop runs for the server's lifetime; per-RPC spans are opened in the request handlers
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.listeners[l] = true
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()

	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrClosed
			}
			return fmt.Errorf("afs: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return ErrClosed
		}
		s.conns[conn] = true
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// Close stops all listeners. In-flight connections terminate as their
// reads fail.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	listeners := make([]net.Listener, 0, len(s.listeners))
	for l := range s.listeners {
		listeners = append(listeners, l)
	}
	callbacks := make([]*callbackConn, 0, len(s.callbacks))
	for _, cb := range s.callbacks {
		callbacks = append(callbacks, cb)
	}
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	for _, l := range listeners {
		if err := l.Close(); err != nil {
			s.logf("afs: closing listener: %v", err)
		}
	}
	for _, cb := range callbacks {
		_ = cb.conn.Close()
	}
	// Closing accepted connections fails their pending reads, so every
	// handleConn goroutine exits — the chaos suite's goroutine-leak check
	// depends on a Close leaving nothing behind.
	for _, c := range conns {
		_ = c.Close()
	}
	return nil
}

// handleConn serves one client connection. The first frame must be a
// Hello identifying the client and declaring whether this connection is
// the RPC channel or the callback channel.
func (s *Server) handleConn(conn net.Conn) {
	s.metrics.conns.Add(1)
	defer func() {
		_ = conn.Close()
		s.metrics.conns.Add(-1)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	hello, err := readFrame(conn)
	if err != nil {
		return
	}
	if hello.op != opHello {
		s.logf("afs: first frame op=%d, want hello", hello.op)
		return
	}
	r := serial.NewReader(hello.body)
	clientID := r.ReadString(128, "client id")
	isCallback := r.ReadBool("is callback channel")
	if err := r.Finish(); err != nil || clientID == "" {
		s.logf("afs: bad hello: %v", err)
		return
	}

	if isCallback {
		s.runCallbackChannel(clientID, conn, hello.reqID)
		return
	}

	// Acknowledge the hello so the client knows the session is up.
	if err := writeFrame(conn, frame{op: opReply, reqID: hello.reqID}); err != nil {
		return
	}
	defer s.clientGone(clientID)

	for {
		req, err := readFrame(conn)
		if err != nil {
			return
		}
		s.metrics.requests.Inc()
		start := time.Now()
		resp := s.dispatch(clientID, req)
		s.metrics.requestLat.Record(time.Since(start))
		if err := writeFrame(conn, resp); err != nil {
			return
		}
	}
}

// runCallbackChannel registers conn as the client's invalidation channel
// and parks until it drops.
func (s *Server) runCallbackChannel(clientID string, conn net.Conn, reqID uint64) {
	cb := &callbackConn{conn: conn}
	s.mu.Lock()
	if old := s.callbacks[clientID]; old != nil {
		_ = old.conn.Close()
	}
	s.callbacks[clientID] = cb
	s.mu.Unlock()

	if err := writeFrame(conn, frame{op: opReply, reqID: reqID}); err != nil {
		return
	}
	// Block until the client goes away; callback channels carry no
	// client->server traffic.
	buf := make([]byte, 1)
	for {
		if _, err := conn.Read(buf); err != nil {
			break
		}
	}
	s.mu.Lock()
	if s.callbacks[clientID] == cb {
		delete(s.callbacks, clientID)
	}
	s.mu.Unlock()
}

// clientGone releases all state held for a departed client: its locks and
// its cached-copy registrations.
func (s *Server) clientGone(clientID string) {
	s.mu.Lock()
	var toRelease []*lockState
	for _, ls := range s.locks {
		if ls.holder == clientID {
			toRelease = append(toRelease, ls)
		}
	}
	for _, holders := range s.cachedBy {
		delete(holders, clientID)
	}
	s.mu.Unlock()
	for _, ls := range toRelease {
		s.release(ls)
	}
}

func (s *Server) dispatch(clientID string, req frame) frame {
	fail := func(code errCode, msg string) frame {
		return frame{op: opError, reqID: req.reqID, body: encodeError(code, msg)}
	}
	ok := func(body []byte) frame {
		return frame{op: opReply, reqID: req.reqID, body: body}
	}

	switch req.op {
	case opPing:
		return ok(nil)

	case opFetch:
		name, err := decodeName(req.body)
		if err != nil {
			return fail(errCodeBadRequest, err.Error())
		}
		s.metrics.fetches.Inc()
		obj := s.objLock(name)
		obj.Lock()
		data, err := s.store.Get(name)
		if err != nil {
			// Register a callback promise even for misses, so the client
			// can cache the negative result (real AFS gets this from its
			// cached directory contents) and be notified on creation.
			if errors.Is(err, backend.ErrNotExist) {
				s.registerCallback(name, clientID)
			}
			obj.Unlock()
			return s.storeError(req.reqID, name, err)
		}
		s.mu.Lock()
		version := s.versions[name]
		s.registerCallbackLocked(name, clientID)
		s.mu.Unlock()
		obj.Unlock()

		w := serial.NewWriter(12 + len(data))
		w.WriteUint64(version)
		w.WriteBytes(data)
		return ok(w.Bytes())

	case opStore:
		r := serial.NewReader(req.body)
		name := r.ReadString(0, "name")
		data := r.ReadBytes(maxFrameSize, "data")
		if err := r.Finish(); err != nil {
			return fail(errCodeBadRequest, err.Error())
		}
		s.metrics.stores.Inc()
		obj := s.objLock(name)
		obj.Lock()
		if err := s.store.Put(name, data); err != nil {
			obj.Unlock()
			return s.storeError(req.reqID, name, err)
		}
		// The writer's write-through cache now holds a copy: register the
		// callback promise so later writers invalidate it.
		version, notify := s.bump(name, clientID, true)
		obj.Unlock()
		s.breakCallbacks(name, notify)
		w := serial.NewWriter(8)
		w.WriteUint64(version)
		return ok(w.Bytes())

	case opRemove:
		name, err := decodeName(req.body)
		if err != nil {
			return fail(errCodeBadRequest, err.Error())
		}
		obj := s.objLock(name)
		obj.Lock()
		if err := s.store.Delete(name); err != nil {
			obj.Unlock()
			return s.storeError(req.reqID, name, err)
		}
		_, notify := s.bump(name, clientID, false)
		obj.Unlock()
		s.breakCallbacks(name, notify)
		return ok(nil)

	case opList:
		prefix, err := decodeName(req.body)
		if err != nil {
			return fail(errCodeBadRequest, err.Error())
		}
		names, err := s.store.List(prefix)
		if err != nil {
			return fail(errCodeInternal, err.Error())
		}
		w := serial.NewWriter(16 * len(names))
		w.WriteUint32(uint32(len(names)))
		for _, n := range names {
			w.WriteString(n)
		}
		return ok(w.Bytes())

	case opLock:
		name, err := decodeName(req.body)
		if err != nil {
			return fail(errCodeBadRequest, err.Error())
		}
		s.acquire(name, clientID)
		return ok(nil)

	case opUnlock:
		name, err := decodeName(req.body)
		if err != nil {
			return fail(errCodeBadRequest, err.Error())
		}
		s.mu.Lock()
		ls := s.locks[name]
		held := ls != nil && ls.holder == clientID
		s.mu.Unlock()
		if !held {
			return fail(errCodeBadRequest, "unlock of a lock not held")
		}
		s.release(ls)
		return ok(nil)

	case opStat:
		name, err := decodeName(req.body)
		if err != nil {
			return fail(errCodeBadRequest, err.Error())
		}
		data, err := s.store.Get(name)
		w := serial.NewWriter(24)
		if errors.Is(err, backend.ErrNotExist) {
			w.WriteBool(false)
			w.WriteUint64(0)
			w.WriteUint64(0)
			return ok(w.Bytes())
		}
		if err != nil {
			return s.storeError(req.reqID, name, err)
		}
		s.mu.Lock()
		version := s.versions[name]
		s.mu.Unlock()
		w.WriteBool(true)
		w.WriteUint64(version)
		w.WriteUint64(uint64(len(data)))
		return ok(w.Bytes())

	default:
		return fail(errCodeBadRequest, fmt.Sprintf("unknown op %d", req.op))
	}
}

func decodeName(body []byte) (string, error) {
	r := serial.NewReader(body)
	name := r.ReadString(0, "name")
	if err := r.Finish(); err != nil {
		return "", err
	}
	return name, nil
}

func encodeName(name string) []byte {
	w := serial.NewWriter(4 + len(name))
	w.WriteString(name)
	return w.Bytes()
}

func (s *Server) storeError(reqID uint64, name string, err error) frame {
	code := errCodeInternal
	switch {
	case errors.Is(err, backend.ErrNotExist):
		code = errCodeNotExist
	case errors.Is(err, backend.ErrBadName):
		code = errCodeBadName
	}
	return frame{op: opError, reqID: reqID, body: encodeError(code, name)}
}

// registerCallback records that clientID holds a (possibly negative)
// cached entry for name.
func (s *Server) registerCallback(name, clientID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.registerCallbackLocked(name, clientID)
}

func (s *Server) registerCallbackLocked(name, clientID string) {
	holders := s.cachedBy[name]
	if holders == nil {
		holders = make(map[string]bool)
		s.cachedBy[name] = holders
	}
	holders[clientID] = true
}

// objLockStripes is the number of per-file request locks.
const objLockStripes = 64

// objLock returns the request lock striped to name (FNV-1a).
func (s *Server) objLock(name string) *sync.Mutex {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return &s.objLocks[h%objLockStripes]
}

// bump increments the file's version and revokes the callback promises
// of every *other* client caching it, returning the new version and the
// callback channels to notify. With register set the writer's own
// write-through copy gets a promise.
func (s *Server) bump(name, writer string, register bool) (uint64, []*callbackConn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.versions[name]++
	var notify []*callbackConn
	holders := s.cachedBy[name]
	for clientID := range holders {
		if clientID == writer {
			continue
		}
		delete(holders, clientID)
		if cb := s.callbacks[clientID]; cb != nil {
			notify = append(notify, cb)
		}
	}
	if register {
		s.registerCallbackLocked(name, writer)
	}
	return s.versions[name], notify
}

// breakCallbacks sends the invalidations bump collected. They go out
// before the writer's request is acknowledged.
func (s *Server) breakCallbacks(name string, notify []*callbackConn) {
	for _, cb := range notify {
		cb.mu.Lock()
		err := writeFrame(cb.conn, frame{op: opInvalidate, body: encodeName(name)})
		cb.mu.Unlock()
		s.metrics.invalidations.Inc()
		if err != nil {
			s.logf("afs: callback delivery failed: %v", err)
		}
	}
}

// acquire blocks until clientID holds the exclusive lock on name.
func (s *Server) acquire(name, clientID string) {
	s.mu.Lock()
	ls := s.locks[name]
	if ls == nil {
		ls = &lockState{}
		s.locks[name] = ls
	}
	if ls.holder == "" {
		ls.holder = clientID
		s.mu.Unlock()
		return
	}
	wait := lockWaiter{ch: make(chan struct{}), clientID: clientID}
	ls.waiters = append(ls.waiters, wait)
	s.mu.Unlock()

	<-wait.ch // ownership was assigned by release before the channel closed
}

// release hands the lock to the next waiter, or frees it.
func (s *Server) release(ls *lockState) {
	s.mu.Lock()
	if len(ls.waiters) > 0 {
		next := ls.waiters[0]
		ls.waiters = ls.waiters[1:]
		ls.holder = next.clientID
		s.mu.Unlock()
		close(next.ch)
		return
	}
	ls.holder = ""
	s.mu.Unlock()
}

// ListenAndServe is a convenience that listens on addr and serves until
// failure. It is used by cmd/nexus-afsd.
//
//lint:ignore span-coverage process-lifetime serve loop, not an operation; see Serve
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("afs: listen %s: %w", addr, err)
	}
	log.Printf("afs: serving on %s", l.Addr())
	return s.Serve(l)
}
