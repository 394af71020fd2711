package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"nexus"
	"nexus/internal/enclave"
	"nexus/internal/netsim"
	"nexus/internal/obs"
	"nexus/internal/workload"
)

// testSizes shrinks every workload so a test round takes well under a
// second on the simulated LAN, while each still takes the same code
// paths: bulk files stay above the enclave's 4 MiB streaming cutoff.
var testSizes = sizes{
	tree: workload.TreeSpec{
		Name: "tree", NumFiles: 24, NumDirs: 6, MaxDepth: 3,
		MinFileSize: 256, MaxFileSize: 16 << 10,
	},
	bulkFiles: 2, bulkBytes: 5 << 20,
	mixedDirs: 3, mixedFilesPerDir: 4, mixedMinFile: 256, mixedMaxFile: 4 << 10,
	mixedDocs: 2, mixedDocBytes: 256 << 10, mixedEditBytes: 64,
}

// testPass runs one traced or untraced round of a workload at test size.
func testPass(t *testing.T, name string, seed int64, traced bool) *result {
	t.Helper()
	res, err := runPass(runConfig{workload: name, seed: seed, traced: traced, sz: testSizes, rounds: 1, opLimit: 60})
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("%s: %d of %d ops failed: %v", name, res.failed, res.attempted, res.failures)
	}
	return res
}

// counters reads every counter of a registry through its Prometheus
// exposition, the same text /metrics serves.
func counters(reg *nexus.Obs) map[string]int64 {
	var buf bytes.Buffer
	obs.WritePrometheus(&buf, reg)
	out := map[string]int64{}
	sc := bufio.NewScanner(&buf)
	counter := ""
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			counter, _ = strings.CutSuffix(name, " counter")
			if counter == name {
				counter = ""
			}
			continue
		}
		if name, v, ok := strings.Cut(line, " "); ok && name == counter {
			out[name], _ = strconv.ParseInt(v, 10, 64)
		}
	}
	return out
}

// TestTimingStoreIsTransparent runs one fixed op sequence with and
// without the timing decorator and requires the same work from every
// layer beneath the FS: the decorator must forward the streaming upgrade
// (the 5 MiB write streams) and leave the freshness proof service to
// nexus.NewClient.
func TestTimingStoreIsTransparent(t *testing.T) {
	steps := []step{
		{kind: opMkdir, path: "/d/e"},
		{kind: opWrite, path: "/d/small", data: fill(netsim.NewRand(1), 3000)},
		{kind: opWrite, path: "/d/e/big", data: fill(netsim.NewRand(2), 5<<20)},
		{kind: opTouch, path: "/d/tmp"},
		{kind: opRemove, path: "/d/tmp"},
		{kind: opDrop},
		{kind: opReadDir, path: "/d"},
		{kind: opStat, path: "/d/small"},
		{kind: opRead, path: "/d/small"},
		{kind: opRead, path: "/d/e/big"},
	}
	deltas := map[bool]map[string]int64{}
	for _, traced := range []bool{false, true} {
		tb, err := newTestbed(traced, []byte("perfbench transparency test"))
		if err != nil {
			t.Fatal(err)
		}
		before := counters(tb.obs)
		for _, st := range steps {
			if st.kind == opDrop {
				tb.dropCaches()
				continue
			}
			if err := call(tb.fs, st, nil); err != nil {
				t.Fatalf("traced=%v: %s %s: %v", traced, st.kind, st.path, err)
			}
		}
		if err := tb.fs.Sync(); err != nil {
			t.Fatal(err)
		}
		after := counters(tb.obs)
		d := map[string]int64{}
		for name, v := range after {
			// Times differ run to run, and so do Merkle proof sizes: they
			// depend on where the random object UUIDs fall in the tree.
			varies := strings.HasSuffix(name, "_ns_total") || name == "enclave_freshness_proof_bytes_total"
			layer := strings.HasPrefix(name, "sgx_") || strings.HasPrefix(name, "enclave_") || name == "afs_rpcs_total"
			if layer && !varies {
				d[name] = v - before[name]
			}
		}
		deltas[traced] = d
		if traced {
			if _, ok := tb.timing.store().(enclave.StreamObjectStore); !ok {
				t.Error("decorator over the AFS client dropped PutVersionedStream")
			}
			if _, ok := tb.timing.store().(enclave.FreshnessProofStore); ok {
				t.Error("decorator serves freshness proofs, so nexus.NewClient would not stack its own")
			}
			if n := tb.timing.streams.Load(); n != 1 {
				t.Errorf("stream puts through the decorator = %d, want 1 (the 5 MiB write)", n)
			}
		}
		tb.close()
	}
	if deltas[false]["enclave_freshness_proofs_total"] == 0 {
		t.Error("no freshness proofs: the Merkle proof service is not stacked")
	}
	for name, want := range deltas[false] {
		if got := deltas[true][name]; got != want {
			t.Errorf("%s: %d with the decorator, %d without", name, got, want)
		}
	}
	if len(deltas[true]) != len(deltas[false]) {
		t.Errorf("counter sets differ: %d with the decorator, %d without", len(deltas[true]), len(deltas[false]))
	}
}

// TestLedgerAddsUp is the ledger sum check: on every workload the
// exclusive layer times add up to the op wall time within ledgerTolerance,
// and none is negative beyond it. On bulk the streamed writes seal chunks
// concurrently with the upload; that overlap must be reported as its own
// term, or the enclave's self time would go negative.
func TestLedgerAddsUp(t *testing.T) {
	const ledgerTolerance = 0.05
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			res := testPass(t, name, 7, true)
			l := res.ledger
			tm := l.terms()
			wall := float64(l.wall)
			if diff := float64(tm.total()) - wall; diff > ledgerTolerance*wall || diff < -ledgerTolerance*wall {
				t.Errorf("layers sum to %.3f ms, op wall time is %.3f ms", float64(tm.total())/1e6, wall/1e6)
			}
			for term, v := range map[string]int64{
				"vfs.self": tm.vfsSelf, "sgx.transition": tm.transition, "enclave.self": tm.enclaveSelf,
				"enclave.chunk_crypto": tm.crypto, "freshness.store_self": tm.freshSelf, "afs": tm.afs,
			} {
				if float64(v) < -ledgerTolerance*wall {
					t.Errorf("%s = %.3f ms is negative: a layer is counted twice", term, float64(v)/1e6)
				}
			}
			if streamed := l.sum[pStreams] > 0; streamed != (name == "bulk") {
				t.Errorf("streamed uploads: %v, want only on bulk", streamed)
			}
			if name == "bulk" && tm.overlap <= 0 {
				t.Error("bulk reports no crypto/upload overlap")
			}
		})
	}
}

// digest fingerprints a generator's whole op sequence.
func digest(g generator) string {
	h := sha256.New()
	for _, st := range g.populate() {
		fmt.Fprintf(h, "%d %s %x\n", st.kind, st.path, sha256.Sum256(st.data))
	}
	for st, ok := g.next(0); ok; st, ok = g.next(0) {
		fmt.Fprintf(h, "%d %s %x\n", st.kind, st.path, sha256.Sum256(st.data))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestDeterminism: the same seed gives the same inputs and exactly the
// same count metrics; another seed gives another op sequence.
func TestDeterminism(t *testing.T) {
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			gen := func(seed int64) string {
				g, err := newGenerator(name, netsim.NewRand(seed), testSizes, 0, 60)
				if err != nil {
					t.Fatal(err)
				}
				return digest(g)
			}
			if gen(3) != gen(3) {
				t.Error("same seed, different inputs")
			}
			if gen(3) == gen(4) {
				t.Error("different seeds, same op sequence")
			}
			counts := func() [3]float64 {
				m := map[string]metric{}
				testPass(t, name, 3, true).ledger.metrics(m)
				return [3]float64{m["afs.rpcs_per_op"].Value, m["wire.bytes_up_per_op"].Value, m["enclave.meta_flushes_per_op"].Value}
			}
			if a, b := counts(), counts(); a != b {
				t.Errorf("count metrics (rpcs, bytes up, flushes per op) differ between runs: %v vs %v", a, b)
			}
		})
	}
}

// TestVerifyCatchesMismatch: the post-remount check fails a run whose
// volume differs from the shadow model, in contents or in namespace.
func TestVerifyCatchesMismatch(t *testing.T) {
	tb, err := newTestbed(false, []byte("perfbench verification test"))
	if err != nil {
		t.Fatal(err)
	}
	defer tb.close()
	sh := newShadow()
	for _, st := range []step{
		{kind: opMkdir, path: "/a"},
		{kind: opWrite, path: "/a/f", data: []byte("written")},
	} {
		if err := call(tb.fs, st, nil); err != nil {
			t.Fatal(err)
		}
		sh.apply(st)
	}
	if err := tb.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	check := func() *result {
		res := &result{}
		if err := tb.remount(func(fs *nexus.FS) { verifyVolume(fs, sh, "/", res) }); err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := check(); res.failed != 0 || res.attempted != 3 {
		t.Fatalf("clean volume: %d of %d checks failed: %v", res.failed, res.attempted, res.failures)
	}
	sh.apply(step{kind: opWrite, path: "/a/f", data: []byte("acknowledged, then lost")})
	if res := check(); res.failed != 1 {
		t.Errorf("lost overwrite: %d failed checks, want 1", res.failed)
	}
	sh.apply(step{kind: opWrite, path: "/a/g", data: []byte("never stored")})
	if res := check(); res.failed != 3 {
		t.Errorf("lost overwrite and lost file: %d failed checks, want 3 (listing, two files)", res.failed)
	}
}
