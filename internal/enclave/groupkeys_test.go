package enclave

import (
	"errors"
	"fmt"
	"testing"

	"nexus/internal/acl"
	"nexus/internal/groupkey"
	"nexus/internal/metadata"
	"nexus/internal/sgx"
)

// newTestEnvCfg builds an enclave over the store with extra Config
// fields applied on top of the standard test defaults.
func newTestEnvCfg(t *testing.T, store *memObjectStore, mutate func(*Config)) *testEnv {
	t.Helper()
	ias, err := sgx.NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	if store == nil {
		store = newMemObjectStore()
	}
	platform, err := sgx.NewPlatform(sgx.PlatformConfig{}, ias)
	if err != nil {
		t.Fatal(err)
	}
	container, err := platform.CreateEnclave(nexusImage)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{SGX: container, Store: store, IAS: ias}
	if mutate != nil {
		mutate(&cfg)
	}
	encl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{ias: ias, platform: platform, enclave: encl, store: store}
}

func TestGroupTreeTracksUserAdmin(t *testing.T) {
	owner := newIdentity(t, "owen")
	env, _, _ := newMountedVolume(t, owner)
	e := env.enclave

	// CreateVolume enrolled the owner.
	e.mu.Lock()
	tree := e.groupTreeLocked()
	e.mu.Unlock()
	if tree == nil {
		t.Fatal("fresh volume has no key tree")
	}
	if !tree.Contains(metadata.OwnerUserID) {
		t.Fatal("owner not enrolled at volume creation")
	}

	alice := newIdentity(t, "alice")
	aliceID, err := e.AddUser("alice", alice.pub)
	if err != nil {
		t.Fatalf("AddUser: %v", err)
	}
	// Admin ops reload the supernode under the store lock, so re-fetch
	// the tree instance after each mutation.
	e.mu.Lock()
	tree = e.groupTreeLocked()
	e.mu.Unlock()
	if !tree.Contains(aliceID) {
		t.Fatal("added user not enrolled in the key tree")
	}
	epochBefore := tree.Epoch()
	if err := e.RemoveUser("alice"); err != nil {
		t.Fatalf("RemoveUser: %v", err)
	}
	e.mu.Lock()
	tree = e.groupTreeLocked()
	e.mu.Unlock()
	if tree.Contains(aliceID) {
		t.Fatal("revoked user still in the key tree")
	}
	if tree.Epoch() != epochBefore+1 {
		t.Fatalf("revocation did not advance the epoch: %d → %d", epochBefore, tree.Epoch())
	}
	// The rotation metered wraps.
	if e.metrics.groupWraps.Value() == 0 {
		t.Fatal("enclave_groupkey_wraps_total did not advance")
	}
}

func TestGroupTreePersistsAcrossMount(t *testing.T) {
	owner := newIdentity(t, "owen")
	env, sealed, volID := newMountedVolume(t, owner)
	alice := newIdentity(t, "alice")
	aliceID, err := env.enclave.AddUser("alice", alice.pub)
	if err != nil {
		t.Fatal(err)
	}

	// A second enclave over the same store (fresh platform would not
	// unseal; reuse the same platform's container as Mount does in
	// exchange tests — here simply re-authenticate on the same enclave
	// after dropping state via a new enclave on the same platform).
	container, err := env.platform.CreateEnclave(nexusImage)
	if err != nil {
		t.Fatal(err)
	}
	encl2, err := New(Config{SGX: container, Store: env.store, IAS: env.ias})
	if err != nil {
		t.Fatal(err)
	}
	if err := authenticate(t, encl2, owner, sealed, volID); err != nil {
		t.Fatalf("re-mount authenticate: %v", err)
	}
	encl2.mu.Lock()
	tree := encl2.groupTreeLocked()
	encl2.mu.Unlock()
	if tree == nil {
		t.Fatal("key tree lost across mount")
	}
	if !tree.Contains(aliceID) || !tree.Contains(metadata.OwnerUserID) {
		t.Fatal("membership lost across mount")
	}
	// Unwraps were metered during the owner's authenticate.
	if encl2.metrics.groupUnwraps.Value() == 0 {
		t.Fatal("enclave_groupkey_unwraps_total did not advance on authenticate")
	}
}

func TestGroupACLEndToEnd(t *testing.T) {
	owner := newIdentity(t, "owen")
	env, sealed, volID := newMountedVolume(t, owner)
	e := env.enclave

	alice := newIdentity(t, "alice")
	if _, err := e.AddUser("alice", alice.pub); err != nil {
		t.Fatal(err)
	}
	if err := e.Mkdir("/team"); err != nil {
		t.Fatal(err)
	}
	if err := e.Touch("/team/notes"); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteFile("/team/notes", []byte("hello")); err != nil {
		t.Fatal(err)
	}

	leaf, err := e.UserGroup("alice")
	if err != nil {
		t.Fatalf("UserGroup: %v", err)
	}
	// Root lookup for traversal + group read on /team.
	if err := e.SetACL("/", "alice", acl.Lookup); err != nil {
		t.Fatal(err)
	}
	if err := e.SetGroupACL("/team", leaf, acl.ReadOnly); err != nil {
		t.Fatalf("SetGroupACL: %v", err)
	}
	got, err := e.GetACL("/team")
	if err != nil {
		t.Fatal(err)
	}
	if got[fmt.Sprintf("group:%d", leaf)] != acl.ReadOnly {
		t.Fatalf("GetACL = %v, want group:%d → read", got, leaf)
	}

	// Alice reads through the group grant alone (no direct /team entry).
	if err := authenticate(t, e, alice, sealed, volID); err != nil {
		t.Fatalf("alice authenticate: %v", err)
	}
	data, err := e.ReadFile("/team/notes")
	if err != nil {
		t.Fatalf("group-granted read: %v", err)
	}
	if string(data) != "hello" {
		t.Fatalf("read = %q", data)
	}
	// The grant is read-only: writes stay denied.
	if err := e.WriteFile("/team/notes", []byte("x")); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("group write = %v, want ErrAccessDenied", err)
	}

	// Revoke the subgroup grant; alice loses access.
	if err := authenticate(t, e, owner, sealed, volID); err != nil {
		t.Fatal(err)
	}
	if err := e.SetGroupACL("/team", leaf, acl.None); err != nil {
		t.Fatal(err)
	}
	if err := authenticate(t, e, alice, sealed, volID); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ReadFile("/team/notes"); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("read after group revoke = %v, want ErrAccessDenied", err)
	}
}

func TestGroupRevokedUserFailsAuth(t *testing.T) {
	owner := newIdentity(t, "owen")
	env, sealed, volID := newMountedVolume(t, owner)
	e := env.enclave
	alice := newIdentity(t, "alice")
	if _, err := e.AddUser("alice", alice.pub); err != nil {
		t.Fatal(err)
	}
	if err := authenticate(t, e, alice, sealed, volID); err != nil {
		t.Fatalf("alice authenticate: %v", err)
	}
	if err := authenticate(t, e, owner, sealed, volID); err != nil {
		t.Fatal(err)
	}
	if err := e.RemoveUser("alice"); err != nil {
		t.Fatal(err)
	}
	// Revocation removes the table entry AND rotates her path keys:
	// authentication fails on the membership check.
	if err := authenticate(t, e, alice, sealed, volID); !errors.Is(err, ErrBadAuth) {
		t.Fatalf("revoked auth = %v, want ErrBadAuth", err)
	}
}

// stripGroupTree turns e's mounted volume into one that predates the
// membership key tree: the supernode is flushed without its tree.
func stripGroupTree(t *testing.T, e *Enclave) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.super.GroupTree = nil
	if err := e.flushSupernodeLocked(); err != nil {
		t.Fatal(err)
	}
}

func TestLegacyVolumeWithoutTreeMounts(t *testing.T) {
	// A volume that predates the key tree (no tree in the supernode) must
	// mount and authenticate, and migrate on the next AddUser.
	owner := newIdentity(t, "owen")
	legacyEnv := newTestEnvCfg(t, nil, nil)
	sealed, err := legacyEnv.enclave.CreateVolume(owner.name, owner.pub)
	if err != nil {
		t.Fatal(err)
	}
	volID, err := legacyEnv.enclave.VolumeUUID()
	if err != nil {
		t.Fatal(err)
	}
	alice := newIdentity(t, "alice")
	if err := authenticate(t, legacyEnv.enclave, owner, sealed, volID); err != nil {
		t.Fatal(err)
	}
	if _, err := legacyEnv.enclave.AddUser("alice", alice.pub); err != nil {
		t.Fatal(err)
	}
	dave := newIdentity(t, "dave")
	if _, err := legacyEnv.enclave.AddUser("dave", dave.pub); err != nil {
		t.Fatal(err)
	}
	stripGroupTree(t, legacyEnv.enclave)
	// Without a tree, group operations fail typed and revocation is a
	// plain user-table edit.
	if _, err := legacyEnv.enclave.UserGroup("alice"); !errors.Is(err, ErrGroupKeysDisabled) {
		t.Fatalf("UserGroup on legacy volume = %v, want ErrGroupKeysDisabled", err)
	}
	if err := legacyEnv.enclave.SetGroupACL("/", 0, acl.ReadOnly); !errors.Is(err, ErrGroupKeysDisabled) {
		t.Fatalf("SetGroupACL on legacy volume = %v, want ErrGroupKeysDisabled", err)
	}
	if err := legacyEnv.enclave.RemoveUser("dave"); err != nil {
		t.Fatalf("RemoveUser on legacy volume: %v", err)
	}

	// Same platform, a fresh enclave.
	container, err := legacyEnv.platform.CreateEnclave(nexusImage)
	if err != nil {
		t.Fatal(err)
	}
	encl, err := New(Config{SGX: container, Store: legacyEnv.store, IAS: legacyEnv.ias})
	if err != nil {
		t.Fatal(err)
	}
	if err := authenticate(t, encl, owner, sealed, volID); err != nil {
		t.Fatalf("legacy volume authenticate: %v", err)
	}
	encl.mu.Lock()
	tree := encl.groupTreeLocked()
	encl.mu.Unlock()
	if tree != nil {
		t.Fatal("legacy volume grew a tree without a migration event")
	}
	// First AddUser migrates everyone.
	bob := newIdentity(t, "bob")
	bobID, err := encl.AddUser("bob", bob.pub)
	if err != nil {
		t.Fatalf("migrating AddUser: %v", err)
	}
	encl.mu.Lock()
	tree = encl.groupTreeLocked()
	encl.mu.Unlock()
	if tree == nil {
		t.Fatal("AddUser did not build the tree")
	}
	for _, id := range []uint32{metadata.OwnerUserID, bobID} {
		if !tree.Contains(id) {
			t.Fatalf("user %d missing after migration", id)
		}
	}
	if tree.Len() != 3 {
		t.Fatalf("migrated tree Len = %d, want 3 (owner, alice, bob)", tree.Len())
	}
}

func TestGroupRotationRidesWritebackDrain(t *testing.T) {
	owner := newIdentity(t, "owen")
	env := newTestEnvCfg(t, nil, func(c *Config) { c.Writeback = WritebackOn })
	e := env.enclave
	sealed, err := e.CreateVolume(owner.name, owner.pub)
	if err != nil {
		t.Fatal(err)
	}
	volID, err := e.VolumeUUID()
	if err != nil {
		t.Fatal(err)
	}
	if err := authenticate(t, e, owner, sealed, volID); err != nil {
		t.Fatal(err)
	}
	alice := newIdentity(t, "alice")
	if _, err := e.AddUser("alice", alice.pub); err != nil {
		t.Fatal(err)
	}

	// Queue deferred metadata, then revoke: the admin barrier must drain
	// the batch AND flush the rotated supernode in one pass.
	if err := e.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := e.Touch("/d/f"); err != nil {
		t.Fatal(err)
	}
	batchesBefore := e.metrics.flushBatches.Value()
	superBefore, _, err := env.store.GetVersioned(SupernodeObjectName)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RemoveUser("alice"); err != nil {
		t.Fatalf("RemoveUser under write-back: %v", err)
	}
	if got := e.metrics.flushBatches.Value(); got == batchesBefore {
		t.Fatal("revocation did not ride a flush batch")
	}
	superAfter, _, err := env.store.GetVersioned(SupernodeObjectName)
	if err != nil {
		t.Fatal(err)
	}
	if string(superBefore) == string(superAfter) {
		t.Fatal("supernode not re-uploaded by the drain")
	}
	// Nothing dirty is left behind, and the rotation survives a re-read.
	e.mu.Lock()
	leftover := e.wb.superDirty || len(e.wb.nodes) != 0
	e.mu.Unlock()
	if leftover {
		t.Fatal("dirty state left after the admin barrier")
	}
	if err := authenticate(t, e, alice, sealed, volID); !errors.Is(err, ErrBadAuth) {
		t.Fatalf("revoked auth after drain = %v, want ErrBadAuth", err)
	}
}

func TestGroupTreeWrapScalingInEnclave(t *testing.T) {
	// Enclave-level sanity of the O(log n) claim: revoking out of a
	// larger membership must not wrap proportionally more keys.
	if testing.Short() {
		t.Skip("builds hundreds of identities")
	}
	owner := newIdentity(t, "owen")
	env, _, _ := newMountedVolume(t, owner)
	e := env.enclave

	for i := 0; i < 300; i++ {
		id := newIdentity(t, fmt.Sprintf("u%d", i))
		if _, err := e.AddUser(id.name, id.pub); err != nil {
			t.Fatal(err)
		}
	}
	e.mu.Lock()
	tree := e.groupTreeLocked()
	e.mu.Unlock()
	cfgBound := int64(groupkey.DefaultLeafCap + groupkey.DefaultFanout*8)
	e.metrics.groupWraps.Reset()
	if err := e.RemoveUser("u150"); err != nil {
		t.Fatal(err)
	}
	if got := e.metrics.groupWraps.Value(); got == 0 || got > cfgBound {
		t.Fatalf("revocation wraps = %d, want 1..%d (members=%d)", got, cfgBound, tree.Len())
	}
}
