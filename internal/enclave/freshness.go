package enclave

import "nexus/internal/uuid"

// Whole-volume freshness (§VI-C, DESIGN.md §15). Per-object AEAD and
// version counters cannot stop a malicious server from serving a
// consistent *old* snapshot of the volume. The enclave therefore binds
// every metadata object's version to one volume-wide commitment,
// updated with every flush batch: re-serving any stale object then
// fails the check against it. The paper leaves this to future work;
// the commitment here is the Merkle root in freshness_merkle.go.
// Forking attacks against *newly joining* clients (who have no local
// state at all) remain out of scope, as in the paper.

// freshnessPath checks loaded object versions against the volume's
// freshness commitment and commits flushed versions to it. The Merkle
// root (merkleFreshness) is the only path the enclave ships; the seam
// exists so the enclave's tests can install the flat version table as
// a differential oracle (export_test.go).
type freshnessPath interface {
	// checkLocked fails closed when version is provably older than the
	// committed version of id. Objects the commitment does not know
	// pass: they are newer than any state an attacker could replay,
	// and their own AEAD protects them.
	checkLocked(id uuid.UUID, version uint64) error
	// commitLocked records a batch of object versions; version 0
	// removes the object.
	commitLocked(updates map[uuid.UUID]uint64) error
}

// recordFreshnessLocked notes that objects now carry the given versions.
// Callers already hold the relevant metadata locks; the commitment has
// its own store lock to serialize concurrent writers.
func (e *Enclave) recordFreshnessLocked(updates map[uuid.UUID]uint64) error {
	// During a write-back batch drain the per-object updates collect in
	// freshSink and the commitment advances once at the end of the
	// batch (drainLocked); a stale-low entry is safe in the interim —
	// checkLocked only rejects versions *below* it.
	if e.freshSink != nil {
		for id, v := range updates {
			e.freshSink[id] = v
		}
		return nil
	}
	return e.fresh.commitLocked(updates)
}
