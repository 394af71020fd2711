package nexus

import (
	"bytes"
	"errors"
	"testing"

	"nexus/internal/backend"
	"nexus/internal/enclave"
)

func TestMutualSharePublicAPI(t *testing.T) {
	ias, err := NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	shared := backend.NewMemStore()
	newClient := func() *Client {
		c, err := NewClient(ClientConfig{Store: WrapStore(shared), IAS: ias})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	owenClient := newClient()
	owen, err := NewIdentity("owen")
	if err != nil {
		t.Fatal(err)
	}
	vol, _, err := owenClient.CreateVolume(owen)
	if err != nil {
		t.Fatal(err)
	}
	if err := vol.FS().WriteFile("/f", []byte("pfs-protected")); err != nil {
		t.Fatal(err)
	}

	aliceClient := newClient()
	alice, err := NewIdentity("alice")
	if err != nil {
		t.Fatal(err)
	}

	offer, err := aliceClient.BeginMutualShare(alice)
	if err != nil {
		t.Fatalf("BeginMutualShare: %v", err)
	}
	grant, err := vol.GrantAccessMutual(offer, "alice", alice.PublicKey, owen)
	if err != nil {
		t.Fatalf("GrantAccessMutual: %v", err)
	}
	sealed, volID, err := aliceClient.AcceptMutualShareGrant(grant, owen.PublicKey)
	if err != nil {
		t.Fatalf("AcceptMutualShareGrant: %v", err)
	}
	if err := vol.SetACL("/", "alice", ReadOnly); err != nil {
		t.Fatal(err)
	}
	aliceVol, err := aliceClient.Mount(alice, sealed, volID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := aliceVol.FS().ReadFile("/f")
	if err != nil || !bytes.Equal(got, []byte("pfs-protected")) {
		t.Fatalf("alice read = %q, %v", got, err)
	}

	// Forward secrecy at the API level: the grant cannot be re-consumed.
	if _, _, err := aliceClient.AcceptMutualShareGrant(grant, owen.PublicKey); err == nil {
		t.Fatal("replayed mutual grant accepted")
	}
}

func TestVolumeUserAdministration(t *testing.T) {
	client, err := NewClient(ClientConfig{Store: NewMemoryStore()})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := NewIdentity("owen")
	if err != nil {
		t.Fatal(err)
	}
	vol, _, err := client.CreateVolume(owner)
	if err != nil {
		t.Fatal(err)
	}

	alice, err := NewIdentity("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := vol.AddUser("alice", alice.PublicKey); err != nil {
		t.Fatal(err)
	}
	users, err := vol.Users()
	if err != nil {
		t.Fatal(err)
	}
	if len(users) != 2 || users[0] != "owen" || users[1] != "alice" {
		t.Fatalf("Users = %v", users)
	}
	if err := vol.RemoveUser("alice"); err != nil {
		t.Fatal(err)
	}
	users, err = vol.Users()
	if err != nil || len(users) != 1 {
		t.Fatalf("Users after removal = %v, %v", users, err)
	}
}

func TestVolumeACLRoundTrip(t *testing.T) {
	client, err := NewClient(ClientConfig{Store: NewMemoryStore()})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := NewIdentity("owen")
	if err != nil {
		t.Fatal(err)
	}
	vol, _, err := client.CreateVolume(owner)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := NewIdentity("bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := vol.AddUser("bob", bob.PublicKey); err != nil {
		t.Fatal(err)
	}
	if err := vol.FS().MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	if err := vol.SetACL("/d", "bob", ReadWrite); err != nil {
		t.Fatal(err)
	}
	acl, err := vol.GetACL("/d")
	if err != nil || acl["bob"] != ReadWrite {
		t.Fatalf("GetACL = %v, %v", acl, err)
	}
	// Enclave accessor exposes statistics.
	if client.Enclave().Stats().MetadataFlushes == 0 {
		t.Fatal("no metadata flushes recorded")
	}
}

func TestDisabledMetadataCacheStillCorrect(t *testing.T) {
	client, err := NewClient(ClientConfig{
		Store:                NewMemoryStore(),
		DisableMetadataCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := NewIdentity("owen")
	if err != nil {
		t.Fatal(err)
	}
	vol, _, err := client.CreateVolume(owner)
	if err != nil {
		t.Fatal(err)
	}
	fs := vol.FS()
	if err := fs.MkdirAll("/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/a/b/f", []byte("uncached")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/a/b/f")
	if err != nil || string(got) != "uncached" {
		t.Fatalf("read = %q, %v", got, err)
	}
	client.Enclave().DropCaches() // no-op without a cache; must not panic
	if st := client.Enclave().Stats(); st.MetadataCacheHits != 0 {
		t.Fatalf("cache hits with cache disabled: %d", st.MetadataCacheHits)
	}
}

// TestFreshnessTreePublicAPI drives the public API over the freshness
// commitment every client carries: writes advance the Merkle root.
func TestFreshnessTreePublicAPI(t *testing.T) {
	client, err := NewClient(ClientConfig{Store: NewMemoryStore()})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := NewIdentity("owen")
	if err != nil {
		t.Fatal(err)
	}
	vol, _, err := client.CreateVolume(owner)
	if err != nil {
		t.Fatal(err)
	}
	fs := vol.FS()
	if err := fs.WriteFile("/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	if n := client.Obs().CounterValue("enclave_freshness_root_updates_total"); n == 0 {
		t.Fatal("no freshness root updates")
	}
}

func TestMountWrongVolumeID(t *testing.T) {
	client, err := NewClient(ClientConfig{Store: NewMemoryStore()})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := NewIdentity("owen")
	if err != nil {
		t.Fatal(err)
	}
	_, sealed, err := client.CreateVolume(owner)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong volume id: the sealed blob's AAD binding must reject it.
	var wrong VolumeID
	wrong[0] = 0xde
	if _, err := client.Mount(owner, sealed, wrong); !errors.Is(err, enclave.ErrBadAuth) {
		t.Fatalf("Mount with wrong volume id = %v, want ErrBadAuth", err)
	}
}

func TestIdentityWithoutPrivateKeyCannotSign(t *testing.T) {
	client, err := NewClient(ClientConfig{Store: NewMemoryStore()})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := NewIdentity("owen")
	if err != nil {
		t.Fatal(err)
	}
	vol, sealed, err := client.CreateVolume(owner)
	if err != nil {
		t.Fatal(err)
	}
	pubOnly := Identity{Name: owner.Name, PublicKey: owner.PublicKey}
	if _, err := client.Mount(pubOnly, sealed, vol.ID()); err == nil {
		t.Fatal("mounted without a private key")
	}
}
