package enclave

// Subgroup key tree wiring (DESIGN.md §13). The enclave maintains a
// groupkey.Tree over the volume membership inside the sealed supernode:
// AddUser enrolls the identity into the sparsest leaf subgroup,
// RemoveUser rotates the evicted user's leaf-to-root path (O(log n)
// wraps instead of the flat table's O(n)), and CompleteAuth verifies the
// member's wrap chain still reaches the current root. Dirnode ACLs may
// grant rights to whole leaf subgroups (acl.GroupIDFlag entries), which
// resolve through the tree at check time.
//
// Tree mutations ride the supernode flush: in eager mode
// markSupernodeDirtyLocked seals and uploads inline (under the caller's
// supernode store lock, as before); in write-back mode it flags the
// supernode dirty and the admin operation drains before releasing the
// lock, so the rotation flushes in the same batch as any deferred
// metadata — one flush_batch span, one freshness root update.

import (
	"errors"
	"fmt"

	"nexus/internal/acl"
	"nexus/internal/groupkey"
	"nexus/internal/metadata"
)

// ErrGroupKeysDisabled reports a group operation against a legacy
// volume that has no key tree yet.
var ErrGroupKeysDisabled = errors.New("enclave: membership key tree not enabled for this volume")

// groupTreeLocked returns the mounted volume's key tree (nil when the
// volume predates the tree).
func (e *Enclave) groupTreeLocked() *groupkey.Tree {
	if e.super == nil {
		return nil
	}
	return e.super.GroupTree
}

// ensureGroupTreeLocked lazily creates the tree on first use, enrolling
// every existing identity (owner included) so volumes created before
// the tree migrate in one O(n) pass.
func (e *Enclave) ensureGroupTreeLocked() (*groupkey.Tree, error) {
	if e.super.GroupTree != nil {
		return e.super.GroupTree, nil
	}
	tree := groupkey.NewTree(groupkey.Config{})
	if _, err := tree.Add(e.super.Owner.ID); err != nil {
		return nil, fmt.Errorf("enclave: enrolling owner in key tree: %w", err)
	}
	for _, u := range e.super.Users {
		if _, err := tree.Add(u.ID); err != nil {
			return nil, fmt.Errorf("enclave: enrolling user %q in key tree: %w", u.Name, err)
		}
	}
	e.super.GroupTree = tree
	return tree, nil
}

// groupAddLocked enrolls a just-added user into the key tree and meters
// the wrap work.
func (e *Enclave) groupAddLocked(userID uint32) error {
	tree, err := e.ensureGroupTreeLocked()
	if err != nil {
		return err
	}
	before := tree.Stats()
	if !tree.Contains(userID) {
		if _, err := tree.Add(userID); err != nil {
			return fmt.Errorf("enclave: enrolling user in key tree: %w", err)
		}
	}
	e.recordGroupStatsLocked(tree, before)
	return nil
}

// groupRevokeLocked rotates the evicted user's path keys. Users the
// tree never saw (legacy volumes) revoke as a no-op.
func (e *Enclave) groupRevokeLocked(userID uint32) error {
	tree := e.groupTreeLocked()
	if tree == nil || !tree.Contains(userID) {
		return nil
	}
	before := tree.Stats()
	if err := tree.Revoke(userID); err != nil {
		return fmt.Errorf("enclave: revoking user from key tree: %w", err)
	}
	e.recordGroupStatsLocked(tree, before)
	return nil
}

// groupAuthenticateLocked verifies the authenticating member's wrap
// chain reaches the current root (the §IV-B challenge–response gains a
// tree-membership proof). Identities outside the tree (legacy volumes)
// pass, preserving mountability of old volumes.
func (e *Enclave) groupAuthenticateLocked(userID uint32) error {
	tree := e.groupTreeLocked()
	if tree == nil || !tree.Contains(userID) {
		return nil
	}
	before := tree.Stats()
	if err := tree.Authenticate(userID); err != nil {
		return fmt.Errorf("%w: key-tree path stale for user %d", ErrBadAuth, userID)
	}
	e.recordGroupStatsLocked(tree, before)
	return nil
}

// recordGroupStatsLocked folds a tree-stats delta into the registry
// counters (enclave_groupkey_wraps_total etc.).
func (e *Enclave) recordGroupStatsLocked(tree *groupkey.Tree, before groupkey.Stats) {
	after := tree.Stats()
	if d := after.Wraps - before.Wraps; d > 0 {
		e.metrics.groupWraps.Add(d)
	}
	if d := after.WrapBytes - before.WrapBytes; d > 0 {
		e.metrics.groupWrapBytes.Add(d)
	}
	if d := after.Unwraps - before.Unwraps; d > 0 {
		e.metrics.groupUnwraps.Add(d)
	}
}

// markSupernodeDirtyLocked persists a supernode mutation (user table or
// key tree). Eager mode flushes inline — the caller holds the supernode
// store lock. Write-back mode flags the supernode for the next drain;
// admin operations drain before releasing the lock, so the flush still
// happens under it, batched with any deferred metadata.
func (e *Enclave) markSupernodeDirtyLocked() error {
	if e.wb == nil {
		return e.flushSupernodeLocked()
	}
	e.wb.superDirty = true
	e.wb.ops++
	e.metrics.metadataDirty.Inc()
	return nil
}

// UserGroup returns the stable leaf subgroup ID the named user belongs
// to, for granting ACL rights to that subgroup via SetGroupACL.
func (e *Enclave) UserGroup(userName string) (leaf uint32, err error) {
	err = e.sgx.Ecall(func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
		if err := e.requireAuthLocked(); err != nil {
			return err
		}
		tree := e.groupTreeLocked()
		if tree == nil {
			return ErrGroupKeysDisabled
		}
		u, err := e.super.FindUserByName(userName)
		if err != nil {
			return err
		}
		lf, ok := tree.LeafOf(u.ID)
		if !ok {
			return fmt.Errorf("%w: user %q not enrolled in the key tree", metadata.ErrUserNotFound, userName)
		}
		leaf = lf
		return nil
	})
	if err != nil {
		return 0, err
	}
	return leaf, nil
}

// SetGroupACL grants (or with acl.None revokes) rights on a directory
// to an entire leaf subgroup of the membership key tree. Rights resolve
// at check time through the tree, so subgroup churn needs no ACL
// rewrite. Authorization mirrors SetACL: owner or Administer.
func (e *Enclave) SetGroupACL(dirPath string, leaf uint32, rights acl.Rights) error {
	return e.retryTornEcall(func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
		if err := e.requireAuthLocked(); err != nil {
			return err
		}
		tree := e.groupTreeLocked()
		if tree == nil {
			return ErrGroupKeysDisabled
		}
		if int(leaf) >= tree.Leaves() {
			return fmt.Errorf("enclave: no leaf subgroup %d (tree has %d)", leaf, tree.Leaves())
		}
		if err := e.drainWithRetryLocked(); err != nil {
			return err
		}
		dirs, base, err := splitPath(dirPath)
		if err != nil {
			return err
		}
		if base != "" {
			dirs = append(dirs, base)
		}
		w, err := e.walkDirLocked(dirs)
		if err != nil {
			return err
		}
		if !e.isOwnerLocked() {
			if err := e.checkACLLocked(w.dir, acl.Administer); err != nil {
				return err
			}
		}
		release, err := e.lockObject(objName(w.dir.UUID))
		if err != nil {
			return fmt.Errorf("locking directory: %w", err)
		}
		defer release()
		w, err = e.reloadDirUnderLockLocked(dirs)
		if err != nil {
			return err
		}
		w.dir.ACL.Set(acl.GroupEntryID(leaf), rights)
		if err := e.flushDirnodeLocked(w.dir, w.version+1); err != nil {
			e.cache.invalidate(w.dir.UUID)
			return err
		}
		return nil
	})
}
