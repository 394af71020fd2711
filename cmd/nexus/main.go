// nexus is the command-line client for NEXUS protected volumes: it
// creates volumes on a local or remote store, and reads, writes, and
// administers them through the enclave.
//
// State lives under a home directory (default .nexus-home):
//
//	machine.seed   simulated CPU fuse seed (keeps sealed keys openable)
//	identity.name  username
//	identity.key   Ed25519 private key (hex)
//	volume.id      mounted volume UUID (hex)
//	volume.key     SGX-sealed volume rootkey
//
// Usage:
//
//	nexus [-home dir] [-store dir | -afs host:port]
//	      [-content-defined] <command> [args]
//
// Every mount is rollback-protected by the Merkle-authenticated
// namespace (DESIGN.md §15). -content-defined stores file contents as
// deduplicated content-defined chunks (DESIGN.md §16).
//
// Commands:
//
//	keygen <name>                create this machine's identity
//	init                         create a new volume owned by the identity
//	ls [path]                    list a directory
//	mkdir <path>                 create a directory (with parents)
//	put <local> <path>           copy a local file into the volume
//	get <path> <local>           copy a volume file out
//	cat <path>                   print a volume file
//	rm <path>                    remove a file or empty directory
//	mv <old> <new>               rename
//	users                        list authorized users
//	useradd <name> <pubkey-hex>  authorize a user (owner only)
//	userdel <name>               revoke a user (owner only)
//	acl-set <dir> <user> <rights>  grant rights (lridwa letters, or
//	                               read/write/all/none)
//	acl-get <dir>                show a directory's ACL
//	trace <command> [args]       run a volume command with tracing on and
//	                             print its span tree and metrics to stderr
//
// Cross-machine rootkey exchange requires a shared attestation service,
// which lives in-process in this simulation; see examples/sharing for
// the full two-machine protocol driven through the library API.
package main

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nexus"
	"nexus/internal/afs"
	"nexus/internal/obs"
	"nexus/internal/uuid"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "nexus: %v\n", err)
		os.Exit(1)
	}
}

type cli struct {
	home  string
	store nexus.ObjectStore
	ias   *nexus.AttestationService
	// obs is shared by the AFS client and the enclave so trace mode
	// stitches afs.* RPC spans under the vfs/sgx spans.
	obs *nexus.Obs
	// contentDefined enables the deduplicated content-defined chunk
	// store for file contents.
	contentDefined bool
}

func run() error {
	home := flag.String("home", ".nexus-home", "client state directory")
	storeDir := flag.String("store", "", "local object store directory (default <home>/store)")
	afsAddr := flag.String("afs", "", "AFS server address (overrides -store)")
	contentDefined := flag.Bool("content-defined", false, "store file contents as deduplicated content-defined chunks")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		return fmt.Errorf("missing command")
	}

	if err := os.MkdirAll(*home, 0o700); err != nil {
		return err
	}
	c := &cli{home: *home, obs: nexus.NewObs(), contentDefined: *contentDefined}

	switch {
	case *afsAddr != "":
		client, err := afs.Dial(*afsAddr, afs.ClientConfig{Obs: c.obs})
		if err != nil {
			return fmt.Errorf("connecting to AFS server: %w", err)
		}
		defer client.Close()
		c.store = client
	default:
		dir := *storeDir
		if dir == "" {
			dir = filepath.Join(*home, "store")
		}
		store, err := nexus.NewLocalStore(dir)
		if err != nil {
			return err
		}
		c.store = store
	}

	cmd, rest := args[0], args[1:]
	if cmd == "keygen" {
		return c.keygen(rest)
	}
	if cmd == "init" {
		return c.initVolume()
	}

	traceMode := false
	if cmd == "trace" {
		if len(rest) == 0 {
			return fmt.Errorf("usage: trace <command> [args]")
		}
		traceMode = true
		cmd, rest = rest[0], rest[1:]
	}

	vol, err := c.mount()
	if err != nil {
		return err
	}
	fs := vol.FS()
	if traceMode {
		reg := fs.Enclave().Obs()
		reg.Tracer().Enable()
		defer printTrace(reg)
	}

	switch cmd {
	case "ls":
		p := "/"
		if len(rest) > 0 {
			p = rest[0]
		}
		entries, err := fs.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range entries {
			kind := "-"
			if e.IsDir {
				kind = "d"
			} else if e.IsSymlink {
				kind = "l"
			}
			fmt.Printf("%s %s\n", kind, e.Name)
		}
		return nil

	case "mkdir":
		if len(rest) != 1 {
			return fmt.Errorf("usage: mkdir <path>")
		}
		return fs.MkdirAll(rest[0])

	case "put":
		if len(rest) != 2 {
			return fmt.Errorf("usage: put <local> <path>")
		}
		data, err := os.ReadFile(rest[0])
		if err != nil {
			return err
		}
		return fs.WriteFile(rest[1], data)

	case "get":
		if len(rest) != 2 {
			return fmt.Errorf("usage: get <path> <local>")
		}
		data, err := fs.ReadFile(rest[0])
		if err != nil {
			return err
		}
		return os.WriteFile(rest[1], data, 0o644)

	case "cat":
		if len(rest) != 1 {
			return fmt.Errorf("usage: cat <path>")
		}
		data, err := fs.ReadFile(rest[0])
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err

	case "rm":
		if len(rest) != 1 {
			return fmt.Errorf("usage: rm <path>")
		}
		return fs.Remove(rest[0])

	case "mv":
		if len(rest) != 2 {
			return fmt.Errorf("usage: mv <old> <new>")
		}
		return fs.Rename(rest[0], rest[1])

	case "users":
		users, err := vol.Users()
		if err != nil {
			return err
		}
		for _, u := range users {
			fmt.Println(u)
		}
		return nil

	case "useradd":
		if len(rest) != 2 {
			return fmt.Errorf("usage: useradd <name> <pubkey-hex>")
		}
		key, err := hex.DecodeString(rest[1])
		if err != nil || len(key) != ed25519.PublicKeySize {
			return fmt.Errorf("invalid public key")
		}
		return vol.AddUser(rest[0], ed25519.PublicKey(key))

	case "userdel":
		if len(rest) != 1 {
			return fmt.Errorf("usage: userdel <name>")
		}
		return vol.RemoveUser(rest[0])

	case "acl-set":
		if len(rest) != 3 {
			return fmt.Errorf("usage: acl-set <dir> <user> <rights>")
		}
		rights, err := nexus.ParseRights(rest[2])
		if err != nil {
			return err
		}
		return vol.SetACL(rest[0], rest[1], rights)

	case "acl-get":
		if len(rest) != 1 {
			return fmt.Errorf("usage: acl-get <dir>")
		}
		acl, err := vol.GetACL(rest[0])
		if err != nil {
			return err
		}
		for user, rights := range acl {
			fmt.Printf("%s: %s\n", user, rights)
		}
		return nil

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// printTrace dumps the span trees and latency summaries collected while
// the traced command ran. Output goes to stderr so commands like cat can
// still pipe their payload cleanly.
func printTrace(reg *nexus.Obs) {
	roots := reg.Tracer().Take()
	if len(roots) == 0 {
		fmt.Fprintln(os.Stderr, "trace: no spans recorded")
		return
	}
	fmt.Fprintln(os.Stderr, "trace:")
	obs.FormatTree(os.Stderr, roots)
}

// --- state files ---

func (c *cli) path(name string) string { return filepath.Join(c.home, name) }

func (c *cli) keygen(args []string) error {
	if len(args) != 1 || args[0] == "" {
		return fmt.Errorf("usage: keygen <name>")
	}
	if _, err := os.Stat(c.path("identity.key")); err == nil {
		return fmt.Errorf("identity already exists in %s", c.home)
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return err
	}
	if err := os.WriteFile(c.path("identity.name"), []byte(args[0]), 0o600); err != nil {
		return err
	}
	if err := os.WriteFile(c.path("identity.key"), []byte(hex.EncodeToString(priv)), 0o600); err != nil {
		return err
	}
	seed := make([]byte, 32)
	if _, err := rand.Read(seed); err != nil {
		return err
	}
	if err := os.WriteFile(c.path("machine.seed"), []byte(hex.EncodeToString(seed)), 0o600); err != nil {
		return err
	}
	fmt.Printf("created identity %q\npublic key: %s\n", args[0], hex.EncodeToString(pub))
	return nil
}

func (c *cli) identity() (nexus.Identity, error) {
	nameBytes, err := os.ReadFile(c.path("identity.name"))
	if err != nil {
		return nexus.Identity{}, fmt.Errorf("no identity; run `nexus keygen <name>` first: %w", err)
	}
	keyHex, err := os.ReadFile(c.path("identity.key"))
	if err != nil {
		return nexus.Identity{}, err
	}
	priv, err := hex.DecodeString(strings.TrimSpace(string(keyHex)))
	if err != nil || len(priv) != ed25519.PrivateKeySize {
		return nexus.Identity{}, fmt.Errorf("corrupt identity key")
	}
	key := ed25519.PrivateKey(priv)
	return nexus.Identity{
		Name:       string(nameBytes),
		PrivateKey: key,
		PublicKey:  key.Public().(ed25519.PublicKey),
	}, nil
}

func (c *cli) newClient() (*nexus.Client, error) {
	seedHex, err := os.ReadFile(c.path("machine.seed"))
	if err != nil {
		return nil, fmt.Errorf("no machine seed; run `nexus keygen` first: %w", err)
	}
	seed, err := hex.DecodeString(strings.TrimSpace(string(seedHex)))
	if err != nil {
		return nil, fmt.Errorf("corrupt machine seed")
	}
	return nexus.NewClient(nexus.ClientConfig{
		Store:          c.store,
		PlatformSeed:   seed,
		Obs:            c.obs,
		ContentDefined: c.contentDefined,
		// One command per process: batching buys nothing and deferred
		// metadata would be lost at exit, so flush eagerly.
		WritebackMode: "off",
	})
}

func (c *cli) initVolume() error {
	id, err := c.identity()
	if err != nil {
		return err
	}
	client, err := c.newClient()
	if err != nil {
		return err
	}
	vol, sealed, err := client.CreateVolume(id)
	if err != nil {
		return err
	}
	if err := os.WriteFile(c.path("volume.key"), sealed, 0o600); err != nil {
		return err
	}
	volID := vol.ID()
	if err := os.WriteFile(c.path("volume.id"), []byte(volID.String()), 0o600); err != nil {
		return err
	}
	fmt.Printf("created volume %s owned by %s\n", volID, id.Name)
	return nil
}

func (c *cli) mount() (*nexus.Volume, error) {
	id, err := c.identity()
	if err != nil {
		return nil, err
	}
	sealed, err := os.ReadFile(c.path("volume.key"))
	if err != nil {
		return nil, fmt.Errorf("no volume; run `nexus init` first: %w", err)
	}
	volIDHex, err := os.ReadFile(c.path("volume.id"))
	if err != nil {
		return nil, err
	}
	volID, err := uuid.Parse(strings.TrimSpace(string(volIDHex)))
	if err != nil {
		return nil, fmt.Errorf("corrupt volume id: %w", err)
	}
	client, err := c.newClient()
	if err != nil {
		return nil, err
	}
	return client.Mount(id, sealed, volID)
}
