package enclave

import (
	"fmt"

	"nexus/internal/merkle"
	"nexus/internal/metadata"
	"nexus/internal/serial"
	"nexus/internal/uuid"
)

// Merkle freshness (DESIGN.md §15) replaces a flat uuid→version table,
// which would be re-read and re-uploaded whole on every check and
// update — O(n) transfer per operation, with the whole table resident
// wherever it is verified. The enclave instead holds a single
// commitment to that table: the root of a canonical Merkle tree
// (internal/merkle) plus a monotonic epoch counter. The untrusted side
// keeps the tree itself (FreshnessStore) and serves O(log n) inclusion
// proofs:
//
//   - every metadata load verifies a membership (or absence) proof for
//     the object against the enclave-resident root before the object's
//     version is trusted;
//   - every metadata flush batch advances the root *inside* the
//     enclave, by folding each update's proof (merkle.Proof.NewRoot)
//     against the previous root — the enclave never needs the tree;
//   - the new root is sealed with the volume rootkey and uploaded as
//     its own store object, so a freshly mounted enclave of the same
//     volume recovers the commitment and the epoch ordering.
//
// Trust boundary: proofs and the tree snapshot live untrusted and are
// only ever *verified* in here; the sealed root object is
// integrity-protected by the rootkey AEAD, and rollback of the root
// itself is caught by the in-enclave epoch (ErrStaleObject). A forked
// server can still replay a sealed root from a *different* client's
// history at a higher epoch — the classic fork-consistency bound the
// paper accepts (§VI-C); divergence is detected the moment the two
// histories meet (same epoch, different root).

// MerkleRootObjectName is the store name of the sealed merkle root.
const MerkleRootObjectName = "freshness-root"

// merkleRootID keys the sealed root object's preamble.
var merkleRootID = uuid.UUID{0xff, 0xfd}

// FreshnessProofStore is the ocall surface Merkle freshness requires: an
// ObjectStore that also maintains the freshness tree and serves proofs
// against it. New wraps any store that lacks it in a FreshnessStore.
type FreshnessProofStore interface {
	ObjectStore
	// FreshnessProof returns the encoded membership/absence proof for
	// id against the tree at the given epoch (the enclave's current
	// root). Serving any other epoch's proof simply fails verification.
	FreshnessProof(id uuid.UUID, epoch uint64) ([]byte, error)
	// FreshnessUpdate applies the batch to the tree at the given epoch,
	// returning one encoded proof per update, each valid against the
	// tree state after the updates before it — exactly what the enclave
	// folds into its next root.
	FreshnessUpdate(epoch uint64, updates []merkle.LeafUpdate) ([][]byte, error)
}

// merkleFreshness is the enclave's freshnessPath. Its whole state is
// the root commitment and its epoch — no per-object map, which is the
// O(1) enclave residency the freshness-scale benchmark measures.
type merkleFreshness struct {
	e     *Enclave
	store FreshnessProofStore
	root  [merkle.HashSize]byte
	epoch uint64
	seen  bool
}

// merkleRootFormat versions the sealed root body.
const merkleRootFormat = 1

func encodeMerkleRoot(root [merkle.HashSize]byte, epoch uint64) []byte {
	w := serial.NewWriter(1 + merkle.HashSize + 8)
	w.WriteUint8(merkleRootFormat)
	w.WriteRaw(root[:])
	w.WriteUint64(epoch)
	return w.Bytes()
}

func decodeMerkleRoot(body []byte) (root [merkle.HashSize]byte, epoch uint64, err error) {
	r := serial.NewReader(body)
	if f := r.ReadUint8("merkle root format"); r.Err() == nil && f != merkleRootFormat {
		return root, 0, fmt.Errorf("%w: unknown merkle root format %d", metadata.ErrMalformed, f)
	}
	r.ReadRawInto(root[:], "merkle root hash")
	epoch = r.ReadUint64("merkle root epoch")
	if ferr := r.Finish(); ferr != nil {
		return root, 0, fmt.Errorf("decoding merkle root: %w", ferr)
	}
	return root, epoch, nil
}

// loadRootLocked establishes the enclave's root commitment. With
// force false a commitment already in enclave memory is kept; force
// true re-reads the store (under the root object's lock, or when a
// proof failed and another client may have advanced the epoch). The
// epoch ordering is enforced here: once this enclave has seen epoch N,
// any sealed root below N — or a *different* root at exactly N, the
// fork signature — is a rollback and fails closed.
func (m *merkleFreshness) loadRootLocked(force bool) error {
	e := m.e
	if m.seen && !force {
		return nil
	}
	blob, _, err := e.fetchObject(MerkleRootObjectName)
	if err != nil {
		if isNotExist(err) {
			if m.seen && m.epoch > 0 {
				return fmt.Errorf("%w: merkle root object vanished after epoch %d", ErrStaleObject, m.epoch)
			}
			m.root, m.epoch, m.seen = merkle.EmptyRoot(), 0, true
			return nil
		}
		return fmt.Errorf("fetching merkle root: %w", err)
	}
	p, body, err := metadata.Open(e.rootKey, blob)
	if err != nil {
		return fmt.Errorf("verifying merkle root: %w", err)
	}
	if p.Type != metadata.TypeFreshness || p.UUID != merkleRootID {
		return fmt.Errorf("%w: object %q is not the merkle root", metadata.ErrTampered, MerkleRootObjectName)
	}
	root, epoch, err := decodeMerkleRoot(body)
	if err != nil {
		return err
	}
	if epoch != p.Version {
		return fmt.Errorf("%w: merkle root epoch %d != sealed version %d", metadata.ErrTampered, epoch, p.Version)
	}
	if m.seen {
		if epoch < m.epoch {
			return fmt.Errorf("%w: merkle root epoch %d < seen %d", ErrStaleObject, epoch, m.epoch)
		}
		if epoch == m.epoch && root != m.root {
			return fmt.Errorf("%w: merkle root diverged at epoch %d (fork detected)", ErrStaleObject, epoch)
		}
	}
	m.root, m.epoch, m.seen = root, epoch, true
	return nil
}

// checkLocked verifies a loaded object's version against the root
// commitment: the store must produce a proof that either binds id to a
// leaf version ≤ the loaded version, or proves id absent (objects newer
// than the last committed batch; their own AEAD protects them). A first
// failure triggers one forced root reload — another client of the same
// volume may have advanced the epoch — then fails closed:
// ErrStaleObject for a proven-stale version, ErrBadProof for anything
// that does not verify.
func (m *merkleFreshness) checkLocked(id uuid.UUID, version uint64) error {
	e := m.e
	for attempt := 0; ; attempt++ {
		if err := m.loadRootLocked(attempt > 0); err != nil {
			return err
		}
		var raw []byte
		epoch := m.epoch
		err := e.timedOcall(e.metrics.metaIO, func() error {
			var err error
			raw, err = m.store.FreshnessProof(id, epoch)
			return err
		})
		var verr error
		if err == nil {
			e.metrics.proofs.Inc()
			e.metrics.proofBytes.Add(int64(len(raw)))
			var p *merkle.Proof
			if p, verr = merkle.DecodeProof(raw); verr == nil {
				var leafV uint64
				var present bool
				if leafV, present, verr = p.Verify(m.root, id); verr == nil {
					if present && version < leafV {
						return fmt.Errorf("%w: object %s at version %d, merkle leaf requires %d",
							ErrStaleObject, id, version, leafV)
					}
					return nil
				}
			}
		}
		if attempt == 0 {
			continue
		}
		if err != nil {
			return fmt.Errorf("%w: no freshness proof for %s at epoch %d: %v", ErrBadProof, id, epoch, err)
		}
		return fmt.Errorf("%w: freshness proof for %s: %v", ErrBadProof, id, verr)
	}
}

// commitLocked commits a batch of version updates to the tree and
// advances the enclave root. The batch is ordered
// deterministically, the untrusted store applies it and returns one
// proof per update, and the enclave folds each verified proof into the
// next root (merkle.Proof.NewRoot) — O(batch · log n) work against
// O(1) enclave state. The new root seals at epoch+1 under the root
// object's store lock, serializing concurrent writers of the volume.
func (m *merkleFreshness) commitLocked(updates map[uuid.UUID]uint64) error {
	e := m.e
	if len(updates) == 0 {
		return nil
	}
	ids := make([]uuid.UUID, 0, len(updates))
	for id := range updates {
		ids = append(ids, id)
	}
	sortUUIDs(ids)
	batch := make([]merkle.LeafUpdate, 0, len(ids))
	for _, id := range ids {
		batch = append(batch, merkle.LeafUpdate{ID: id, Version: updates[id]})
	}

	release, err := e.lockObject(MerkleRootObjectName)
	if err != nil {
		return fmt.Errorf("locking merkle root: %w", err)
	}
	defer release()
	// Always re-read under the lock: another client may have advanced
	// the epoch since the commitment was last loaded.
	if err := m.loadRootLocked(true); err != nil {
		return err
	}

	var proofs [][]byte
	epoch := m.epoch
	if err := e.timedOcall(e.metrics.metaIO, func() error {
		var err error
		proofs, err = m.store.FreshnessUpdate(epoch, batch)
		return err
	}); err != nil {
		return fmt.Errorf("merkle freshness update: %w", err)
	}
	if len(proofs) != len(batch) {
		return fmt.Errorf("%w: %d proofs for %d updates", ErrBadProof, len(proofs), len(batch))
	}
	root := m.root
	for i, raw := range proofs {
		e.metrics.proofBytes.Add(int64(len(raw)))
		p, err := merkle.DecodeProof(raw)
		if err != nil {
			return fmt.Errorf("%w: update proof %d: %v", ErrBadProof, i, err)
		}
		if root, err = p.NewRoot(root, batch[i].ID, batch[i].Version); err != nil {
			return fmt.Errorf("%w: update proof %d for %s: %v", ErrBadProof, i, batch[i].ID, err)
		}
	}

	next := epoch + 1
	blob, err := metadata.Seal(e.rootKey, metadata.Preamble{
		Type:    metadata.TypeFreshness,
		UUID:    merkleRootID,
		Version: next,
	}, encodeMerkleRoot(root, next))
	if err != nil {
		return fmt.Errorf("sealing merkle root: %w", err)
	}
	if _, err := e.putObject(MerkleRootObjectName, blob); err != nil {
		// The tree already advanced but the commitment did not: the
		// store wrapper keeps the previous epoch reachable (its undo
		// log), so proofs against the still-current root keep verifying
		// and a retried batch converges on the same root.
		return fmt.Errorf("uploading merkle root: %w", err)
	}
	m.root, m.epoch, m.seen = root, next, true
	e.metrics.rootUpdates.Inc()
	e.metrics.metadataFlushes.Inc()
	e.metrics.metadataBytes.Add(int64(len(blob)))
	return nil
}
