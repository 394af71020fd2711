package enclave

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"nexus/internal/backend"
	"nexus/internal/merkle"
	"nexus/internal/obs"
	"nexus/internal/serial"
	"nexus/internal/uuid"
)

// FreshnessTreeObjectName is the store object holding the untrusted
// freshness tree's base snapshot. The batches since the base live in
// the delta ring ("freshness-delta-<epoch mod deltaRing>").
const FreshnessTreeObjectName = "freshness-tree"

// freshnessDeltaPrefix names the delta ring's slot objects.
const freshnessDeltaPrefix = "freshness-delta-"

// deltaRing is the number of delta slots. A base snapshot is written at
// every epoch that is a multiple of deltaRing, so the deltas a load
// needs never outrun the ring and a cold load reads at most deltaRing
// objects. The fixed schedule also makes every client agree on which
// epoch carries a base, whatever base it last read.
const deltaRing = 32

func deltaObjectName(epoch uint64) string {
	return freshnessDeltaPrefix + strconv.FormatUint(epoch%deltaRing, 10)
}

// IsFreshnessTreeObject reports whether name is one of the objects that
// persist the untrusted freshness tree: the base snapshot or a delta
// ring slot.
func IsFreshnessTreeObject(name string) bool {
	return name == FreshnessTreeObjectName || strings.HasPrefix(name, freshnessDeltaPrefix)
}

// ErrEpochUnavailable reports a proof request for an epoch this store
// cannot reconstruct (neither current, previous, nor on-store). The
// enclave maps it to a fail-closed proof rejection.
var ErrEpochUnavailable = errors.New("enclave: freshness tree epoch unavailable")

// FreshnessStore upgrades any ObjectStore to the FreshnessProofStore
// surface Merkle freshness needs: it maintains the full uuid→version
// Merkle tree on the untrusted side and serves membership/absence
// proofs against it, while the enclave holds only the root commitment
// (DESIGN.md §15). It is untrusted code beneath the ocall surface; it
// lives in this package so New can stack it under any plain store.
//
// The tree persists as plain (unsealed) store objects — they hold
// nothing secret, only version counters, and their integrity is
// irrelevant: every proof drawn from them is verified inside the enclave
// against the sealed root, so tampering here can only cause fail-closed
// rejections, never acceptance of stale data.
//
// Persistence is a base snapshot plus a ring of epoch-tagged deltas:
// each batch writes one small delta holding its leaf updates, and every
// deltaRing-th epoch rewrites the base instead. Either way a batch is
// one put. A load reads the base and replays the deltas up to the epoch
// the enclave asks for; a client already holding an older tree reads
// only the deltas it is missing.
//
// Crash convergence: the tree keeps an undo log of the last batch, so
// it can serve proofs for its own epoch *and* the one before it. The
// update protocol (tree persists first, the enclave's sealed root
// commits second) therefore tolerates a crash between the two writes —
// a re-mounted enclave still at the old epoch gets epoch-consistent
// proofs, and re-applying the interrupted batch is idempotent.
type FreshnessStore struct {
	inner ObjectStore

	mu     sync.Mutex
	cur    *merkle.Tree
	epoch  uint64
	undo   []merkle.LeafUpdate // prior leaf values of the last batch (0 = absent)
	loaded bool
	// baseEpoch is the epoch of the base snapshot on the store; hasBase
	// is false until one is known to exist.
	baseEpoch uint64
	hasBase   bool
}

var _ FreshnessProofStore = (*FreshnessStore)(nil)

// NewFreshnessStore wraps inner. When inner supports streaming puts the
// returned store forwards them (the enclave type-asserts for
// StreamObjectStore on large writes).
func NewFreshnessStore(inner ObjectStore) FreshnessProofStore {
	fs := &FreshnessStore{inner: inner}
	if ss, ok := inner.(StreamObjectStore); ok {
		return &streamFreshnessStore{FreshnessStore: fs, stream: ss}
	}
	return fs
}

// streamFreshnessStore adds the StreamObjectStore upgrade when the
// wrapped store has it.
type streamFreshnessStore struct {
	*FreshnessStore
	stream StreamObjectStore
}

func (s *streamFreshnessStore) PutVersionedStream(name string, total int, next func() ([]byte, error)) (uint64, error) {
	return s.stream.PutVersionedStream(name, total, next)
}

// GetVersioned, PutVersioned, Delete and Lock forward to the wrapped
// store untouched — the tree rides alongside the object space, it does
// not interpose on it.
func (s *FreshnessStore) GetVersioned(name string) ([]byte, uint64, error) {
	return s.inner.GetVersioned(name)
}

func (s *FreshnessStore) PutVersioned(name string, data []byte) (uint64, error) {
	return s.inner.PutVersioned(name, data)
}

func (s *FreshnessStore) Delete(name string) error { return s.inner.Delete(name) }

func (s *FreshnessStore) Lock(name string) (func(), error) { return s.inner.Lock(name) }

// Instrument forwards the registry to the wrapped store (the enclave
// calls it for any store exposing the method).
func (s *FreshnessStore) Instrument(reg *obs.Registry) {
	if in, ok := s.inner.(interface{ Instrument(*obs.Registry) }); ok {
		in.Instrument(reg)
	}
}

// snapshotFormat versions the persisted base snapshot.
const snapshotFormat = 1

// deltaFormat versions a persisted delta.
const deltaFormat = 1

// maxUndoEntries bounds a decoded undo log or delta (a batch is at most
// one write-back drain's worth of objects).
const maxUndoEntries = 1 << 20

// leafUpdateSize is one encoded (uuid, version) pair.
const leafUpdateSize = uuid.Size + 8

func encodeSnapshot(tree *merkle.Tree, epoch uint64, undo []merkle.LeafUpdate) []byte {
	enc := tree.Encode()
	w := serial.NewWriter(1 + 8 + 4 + len(undo)*leafUpdateSize + 4 + len(enc))
	w.WriteUint8(snapshotFormat)
	w.WriteUint64(epoch)
	writeLeafUpdates(w, undo)
	w.WriteBytes(enc)
	return w.Bytes()
}

func decodeSnapshot(data []byte) (tree *merkle.Tree, epoch uint64, undo []merkle.LeafUpdate, err error) {
	r := serial.NewReader(data)
	if f := r.ReadUint8("freshness snapshot format"); r.Err() == nil && f != snapshotFormat {
		return nil, 0, nil, fmt.Errorf("enclave: unknown freshness snapshot format %d", f)
	}
	epoch = r.ReadUint64("freshness snapshot epoch")
	undo = readLeafUpdates(r, "freshness undo")
	enc := r.ReadBytes(0, "freshness snapshot tree")
	if err := r.Finish(); err != nil {
		return nil, 0, nil, fmt.Errorf("decoding freshness snapshot: %w", err)
	}
	if tree, err = merkle.DecodeTree(enc); err != nil {
		return nil, 0, nil, err
	}
	return tree, epoch, undo, nil
}

// encodeDelta encodes one batch's leaf updates, in batch order, tagged
// with the epoch the batch produces.
func encodeDelta(epoch uint64, updates []merkle.LeafUpdate) []byte {
	w := serial.NewWriter(1 + 8 + 4 + len(updates)*leafUpdateSize)
	w.WriteUint8(deltaFormat)
	w.WriteUint64(epoch)
	writeLeafUpdates(w, updates)
	return w.Bytes()
}

func decodeDelta(data []byte) (epoch uint64, updates []merkle.LeafUpdate, err error) {
	r := serial.NewReader(data)
	if f := r.ReadUint8("freshness delta format"); r.Err() == nil && f != deltaFormat {
		return 0, nil, fmt.Errorf("enclave: unknown freshness delta format %d", f)
	}
	epoch = r.ReadUint64("freshness delta epoch")
	updates = readLeafUpdates(r, "freshness delta")
	if err := r.Finish(); err != nil {
		return 0, nil, fmt.Errorf("decoding freshness delta: %w", err)
	}
	return epoch, updates, nil
}

func writeLeafUpdates(w *serial.Writer, updates []merkle.LeafUpdate) {
	w.WriteUint32(uint32(len(updates)))
	for _, u := range updates {
		w.WriteRaw(u.ID[:])
		w.WriteUint64(u.Version)
	}
}

// readLeafUpdates reads a counted run of (uuid, version) pairs. The
// count is checked against the bytes left before anything is
// allocated, so a hostile count cannot force a large allocation.
func readLeafUpdates(r *serial.Reader, what string) []merkle.LeafUpdate {
	n := r.ReadCount(maxUndoEntries, what+" entries")
	if r.Err() != nil || n > r.Remaining()/leafUpdateSize {
		r.ReadRaw(n*leafUpdateSize, what+" entries") // records the short read
		return nil
	}
	updates := make([]merkle.LeafUpdate, n)
	for i := range updates {
		r.ReadRawInto(updates[i].ID[:], what+" id")
		updates[i].Version = r.ReadUint64(what + " version")
	}
	return updates
}

// advance applies updates in order to a copy of t and returns the new
// tree plus the batch's undo log: each touched leaf's value before the
// batch (0 = absent), in first-touch order. With prove set it also
// returns one encoded proof per update, each against the tree state
// just before that update.
func advance(t *merkle.Tree, updates []merkle.LeafUpdate, prove bool) (*merkle.Tree, []merkle.LeafUpdate, [][]byte) {
	next := t.Clone()
	var proofs [][]byte
	if prove {
		proofs = make([][]byte, 0, len(updates))
	}
	var undo []merkle.LeafUpdate
	seen := make(map[uuid.UUID]bool, len(updates))
	for _, u := range updates {
		if prove {
			proofs = append(proofs, next.Prove(u.ID).Encode())
		}
		if !seen[u.ID] {
			seen[u.ID] = true
			prior, _ := next.Lookup(u.ID) // 0 when absent — Set's delete spelling
			undo = append(undo, merkle.LeafUpdate{ID: u.ID, Version: prior})
		}
		next.Set(u.ID, u.Version)
	}
	return next, undo, proofs
}

// readObject fetches name. With fresh set it first takes the object's
// lock, which makes a caching store (afs.Client) drop its copy and
// revalidate with the server: a callback break for another client's
// write may still be in flight when this client is asked for the epoch
// that write produced.
func (s *FreshnessStore) readObject(name string, fresh bool) ([]byte, error) {
	if fresh {
		release, err := s.inner.Lock(name)
		if err != nil {
			return nil, err
		}
		defer release()
	}
	data, _, err := s.inner.GetVersioned(name)
	return data, err
}

// readDelta returns the updates of the batch that produced epoch. ok is
// false when the slot is empty or holds another epoch's batch.
func (s *FreshnessStore) readDelta(epoch uint64, fresh bool) (updates []merkle.LeafUpdate, ok bool, err error) {
	data, err := s.readObject(deltaObjectName(epoch), fresh)
	if errors.Is(err, backend.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	tag, updates, err := decodeDelta(data)
	if err != nil {
		return nil, false, err
	}
	return updates, tag == epoch, nil
}

// catchUpLocked advances the resident tree to epoch by replaying only
// the deltas after it. A slot holding the wrong epoch is re-read past
// the cache once; ok is false if it still does (a base was written in
// between, or the history is gone).
func (s *FreshnessStore) catchUpLocked(epoch uint64) (ok bool, err error) {
	t, undo := s.cur, s.undo
	for k := s.epoch + 1; k <= epoch; k++ {
		updates, ok, err := s.readDelta(k, false)
		if err == nil && !ok {
			updates, ok, err = s.readDelta(k, true)
		}
		if err != nil || !ok {
			return false, err
		}
		t, undo, _ = advance(t, updates, false)
	}
	s.cur, s.epoch, s.undo = t, epoch, undo
	return true, nil
}

// reloadLocked rebuilds the tree at epoch from the store: the base
// snapshot, then the deltas after it. A missing base is a fresh volume
// (empty tree, epoch 0). ok is false when the persisted history does
// not reach epoch. With fresh set every object is read past the cache.
func (s *FreshnessStore) reloadLocked(epoch uint64, fresh bool) (ok bool, err error) {
	tree, b, hasBase := merkle.New(), uint64(0), false
	var undo []merkle.LeafUpdate
	data, err := s.readObject(FreshnessTreeObjectName, fresh)
	switch {
	case errors.Is(err, backend.ErrNotExist):
	case err != nil:
		return false, err
	default:
		if tree, b, undo, err = decodeSnapshot(data); err != nil {
			return false, err
		}
		hasBase = true
	}
	if epoch+1 == b {
		// The base itself serves epoch as its previous one (undo).
		s.cur, s.epoch, s.undo, s.loaded, s.baseEpoch, s.hasBase = tree, b, undo, true, b, hasBase
		return true, nil
	}
	if epoch < b || epoch-b >= deltaRing {
		return false, nil
	}
	for k := b + 1; k <= epoch; k++ {
		updates, ok, err := s.readDelta(k, fresh)
		if err != nil || !ok {
			return false, err
		}
		tree, undo, _ = advance(tree, updates, false)
	}
	s.cur, s.epoch, s.undo, s.loaded, s.baseEpoch, s.hasBase = tree, epoch, undo, true, b, hasBase
	return true, nil
}

// syncLocked makes the resident tree serve epoch, either as the current
// tree or as the previous one (undo). Epochs older than that are gone;
// newer ones are caught up from the delta ring or, failing that,
// reloaded from the base — through the cache first, then past it,
// before giving up.
func (s *FreshnessStore) syncLocked(epoch uint64) error {
	if s.loaded {
		switch {
		case epoch == s.epoch || epoch+1 == s.epoch:
			return nil
		case epoch < s.epoch:
			return fmt.Errorf("%w: want epoch %d, tree at %d", ErrEpochUnavailable, epoch, s.epoch)
		case epoch-s.epoch < deltaRing:
			if ok, err := s.catchUpLocked(epoch); err != nil || ok {
				return err
			}
		}
	}
	for _, fresh := range []bool{false, true} {
		if ok, err := s.reloadLocked(epoch, fresh); err != nil || ok {
			return err
		}
	}
	return fmt.Errorf("%w: want epoch %d, tree at %d", ErrEpochUnavailable, epoch, s.epoch)
}

// treeAtLocked returns the resident tree matching epoch (see syncLocked).
func (s *FreshnessStore) treeAtLocked(epoch uint64) (*merkle.Tree, error) {
	if err := s.syncLocked(epoch); err != nil {
		return nil, err
	}
	if epoch == s.epoch {
		return s.cur, nil
	}
	t := s.cur.Clone()
	for _, u := range s.undo {
		t.Set(u.ID, u.Version)
	}
	return t, nil
}

// FreshnessProof implements FreshnessProofStore.
func (s *FreshnessStore) FreshnessProof(id uuid.UUID, epoch uint64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, err := s.treeAtLocked(epoch)
	if err != nil {
		return nil, err
	}
	return t.Prove(id).Encode(), nil
}

// FreshnessUpdate implements FreshnessProofStore: it applies
// the batch to the tree at the given epoch and returns one proof per
// update, each against the tree state just before that update — the
// sequence the enclave folds into its next root. If the tree is already
// one epoch ahead (the previous batch's sealed root never committed),
// the batch is re-applied to the previous tree.
//
// The batch persists as one delta, or as a new base snapshot when the
// new epoch is a multiple of deltaRing, no base exists yet, or the base
// on the store is at or past the new epoch (an interrupted compaction).
// It persists before the new state is committed in memory, so a failed
// put leaves the store and the wrapper consistent at the old epoch.
func (s *FreshnessStore) FreshnessUpdate(epoch uint64, updates []merkle.LeafUpdate) ([][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, err := s.treeAtLocked(epoch)
	if err != nil {
		return nil, err
	}
	next, undo, proofs := advance(prev, updates, true)

	n := epoch + 1
	isBase := !s.hasBase || s.baseEpoch >= n || n%deltaRing == 0
	name, blob := deltaObjectName(n), []byte(nil)
	if isBase {
		name, blob = FreshnessTreeObjectName, encodeSnapshot(next, n, undo)
	} else {
		blob = encodeDelta(n, updates)
	}
	if _, err := s.inner.PutVersioned(name, blob); err != nil {
		return nil, err
	}
	s.cur, s.epoch, s.undo = next, n, undo
	if isBase {
		s.baseEpoch, s.hasBase = n, true
	}
	return proofs, nil
}
