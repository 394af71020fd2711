package bench

import (
	"strings"
	"testing"
)

// TestFreshnessSweepScaling is the O(log n)-vs-O(n) claim in miniature:
// merkle evidence and enclave state stay near-constant while the flat
// baseline's grow linearly with the namespace.
func TestFreshnessSweepScaling(t *testing.T) {
	rows, err := FreshnessSweep([]int{256, 4096}, "both", 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	get := func(mode string, n int) FreshnessRow {
		for _, r := range rows {
			if r.Mode == mode && r.Objects == n {
				return r
			}
		}
		t.Fatalf("missing %s row at n=%d", mode, n)
		return FreshnessRow{}
	}

	mSmall, mBig := get("merkle", 256), get("merkle", 4096)
	fSmall, fBig := get("flat", 256), get("flat", 4096)

	// Enclave state: merkle is the 40-byte commitment at every size,
	// flat carries the whole table.
	if mSmall.StateBytes != merkleStateBytes || mBig.StateBytes != merkleStateBytes {
		t.Fatalf("merkle state bytes %d/%d, want constant %d", mSmall.StateBytes, mBig.StateBytes, merkleStateBytes)
	}
	if fBig.StateBytes != 4096*flatEntryBytes || fSmall.StateBytes != 256*flatEntryBytes {
		t.Fatalf("flat state bytes %d/%d do not track the namespace", fSmall.StateBytes, fBig.StateBytes)
	}

	// Evidence per load: a 16× larger namespace costs the flat design
	// 16× the transfer but the merkle design only ~4 more proof steps.
	if fBig.BytesPerOp < 15*fSmall.BytesPerOp {
		t.Fatalf("flat bytes/op %v → %v is not linear in namespace size", fSmall.BytesPerOp, fBig.BytesPerOp)
	}
	if mBig.BytesPerOp > 2*mSmall.BytesPerOp {
		t.Fatalf("merkle bytes/op %v → %v grew faster than logarithmic", mSmall.BytesPerOp, mBig.BytesPerOp)
	}
	if mBig.BytesPerOp >= fBig.BytesPerOp {
		t.Fatalf("merkle proof (%v B) not smaller than flat table (%v B) at 4096 objects", mBig.BytesPerOp, fBig.BytesPerOp)
	}

	// Persistence per drain: the flat table re-uploads itself whole; the
	// merkle tree store puts a delta per batch plus a base snapshot once
	// per ring period, well under one full snapshot per drain.
	if fBig.TreeBytesPerBatch < 15*fSmall.TreeBytesPerBatch {
		t.Fatalf("flat tree bytes/batch %v → %v is not linear in namespace size", fSmall.TreeBytesPerBatch, fBig.TreeBytesPerBatch)
	}
	for _, m := range []FreshnessRow{mSmall, mBig} {
		if m.TreeBytesPerBatch <= 0 || m.SnapshotBytes <= 0 {
			t.Fatalf("merkle row at n=%d lacks tree figures: %+v", m.Objects, m)
		}
		if m.TreeBytesPerBatch*16 > float64(m.SnapshotBytes) {
			t.Fatalf("merkle tree bytes/batch %v at n=%d is not 16x below the %d B snapshot",
				m.TreeBytesPerBatch, m.Objects, m.SnapshotBytes)
		}
	}
}

func TestFreshnessSweepRejectsBadInput(t *testing.T) {
	if _, err := FreshnessSweep([]int{64}, "mystery", 1); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if _, err := FreshnessSweep([]int{1}, "both", 1); err == nil {
		t.Fatal("degenerate namespace size accepted")
	}
}

func TestFreshnessMetricsAndPrint(t *testing.T) {
	rows, err := FreshnessSweep([]int{64}, "both", 4)
	if err != nil {
		t.Fatal(err)
	}
	exp := FreshnessMetrics(rows)
	for _, name := range []string{"merkle_64_objects", "flat_64_objects"} {
		m, ok := exp[name]
		if !ok {
			t.Fatalf("metric %q missing from experiment", name)
		}
		if m.NsPerOp <= 0 || m.ProofBytesPerOp <= 0 || m.TreeBytesPerBatch <= 0 {
			t.Fatalf("metric %q has empty figures: %+v", name, m)
		}
	}
	var sb strings.Builder
	PrintFreshness(&sb, rows)
	for _, want := range []string{"merkle", "flat", "enclave state", "tree B/batch"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("printed table missing %q:\n%s", want, sb.String())
		}
	}
}
