package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"nexus/internal/backend"
	"nexus/internal/enclave"
	"nexus/internal/merkle"
	"nexus/internal/serial"
	"nexus/internal/uuid"
	"nexus/internal/vfs"
)

// FreshnessRow is one cell of the freshness-at-scale sweep: the cost of
// verifying ONE metadata load's freshness at a given namespace size,
// under the Merkle-authenticated namespace ("merkle", DESIGN.md §15) or
// the flat version table it replaces ("flat", §VI-C).
type FreshnessRow struct {
	Mode    string
	Objects int
	// NsPerOp is the time to produce, transfer-decode, and verify the
	// freshness evidence for one load.
	NsPerOp float64
	// BytesPerOp is the evidence transferred per load: one encoded
	// proof (merkle) vs the whole encoded table (flat).
	BytesPerOp float64
	// StateBytes is the enclave-resident state the scheme needs: root
	// hash + epoch (merkle) vs the full uuid→version map (flat).
	StateBytes int64
	// TreeBytesPerBatch is what persisting the freshness state costs per
	// write-back drain: the mean bytes enclave.FreshnessStore puts per
	// small update batch over one base-snapshot period (merkle), or the
	// whole table the flat design re-uploads on every update.
	TreeBytesPerBatch float64
	// SnapshotBytes is the size of one full merkle tree snapshot, the
	// per-drain cost of persisting the whole tree every time (merkle
	// only).
	SnapshotBytes int64
}

// freshnessSweepSeed pins the sweep's namespace contents; the sweep is
// a pure function of (counts, mode, runs).
const freshnessSweepSeed = 0x5eed

// merkleStateBytes is the enclave-resident commitment: a 32-byte root
// plus an 8-byte epoch.
const merkleStateBytes = merkle.HashSize + 8

// flatEntryBytes is one uuid→version entry resident in the enclave (and
// on the wire) under the flat design.
const flatEntryBytes = uuid.Size + 8

// freshnessDrainBatch is the measured update batch: a small write-back
// drain (a few filenodes and their directory).
const freshnessDrainBatch = 4

// freshnessLoadBatch bounds the batches that load the namespace into the
// tree store before the measurement.
const freshnessLoadBatch = 1 << 14

// FreshnessSweep measures per-load freshness verification across
// namespace sizes (the 10^3–10^6 sweep), driving the data structures
// directly — the structural costs are a property of the schemes alone,
// independent of the network simulation. mode selects "merkle", "flat",
// or "both". runs loads are verified per cell and averaged; the flat
// side's runs are capped so the largest cells stay tractable (every
// flat load decodes the entire table, which is exactly the point).
func FreshnessSweep(counts []int, mode string, runs int) ([]FreshnessRow, error) {
	switch mode {
	case "merkle", "flat", "both":
	default:
		return nil, fmt.Errorf("bench: unknown freshness mode %q (want merkle|flat|both)", mode)
	}
	if runs < 1 {
		runs = 1
	}
	var rows []FreshnessRow
	for _, n := range counts {
		if n < 2 {
			return nil, fmt.Errorf("bench: freshness sweep size %d too small", n)
		}
		rng := rand.New(rand.NewSource(freshnessSweepSeed ^ int64(n)))
		ids := make([]uuid.UUID, n)
		for i := range ids {
			rng.Read(ids[i][:])
		}
		if mode != "flat" {
			row, err := sweepMerkleLoads(ids, rng, runs)
			if err != nil {
				return nil, err
			}
			if row.TreeBytesPerBatch, row.SnapshotBytes, err = sweepTreeBytes(ids, rng); err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
		if mode != "merkle" {
			flatRuns := runs
			// Bound total decode work to ~64M entries per cell.
			if max := 1 + (64 << 20 / n); flatRuns > max {
				flatRuns = max
			}
			row, err := sweepFlatLoads(ids, rng, flatRuns)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// sweepMerkleLoads measures one load verification under the merkle
// scheme: the untrusted side proves the object's leaf, the proof
// crosses the trust boundary encoded, and the enclave decodes and
// verifies it against its 40-byte commitment.
func sweepMerkleLoads(ids []uuid.UUID, rng *rand.Rand, runs int) (FreshnessRow, error) {
	tree := merkle.New()
	for i, id := range ids {
		tree.Set(id, uint64(i+1))
	}
	root := tree.Root()
	var bytes int64
	start := time.Now()
	for i := 0; i < runs; i++ {
		id := ids[rng.Intn(len(ids))]
		enc := tree.Prove(id).Encode()
		bytes += int64(len(enc))
		p, err := merkle.DecodeProof(enc)
		if err != nil {
			return FreshnessRow{}, fmt.Errorf("bench: merkle sweep at n=%d: %w", len(ids), err)
		}
		if _, present, err := p.Verify(root, id); err != nil || !present {
			return FreshnessRow{}, fmt.Errorf("bench: merkle sweep at n=%d: present=%v err=%v", len(ids), present, err)
		}
	}
	elapsed := time.Since(start)
	return FreshnessRow{
		Mode:       "merkle",
		Objects:    len(ids),
		NsPerOp:    float64(elapsed.Nanoseconds()) / float64(runs),
		BytesPerOp: float64(bytes) / float64(runs),
		StateBytes: merkleStateBytes,
	}, nil
}

// putMeter counts what a FreshnessStore puts into its backing store.
type putMeter struct {
	enclave.ObjectStore
	puts, bytes, lastBase int64
	sawBase               bool
}

func (m *putMeter) PutVersioned(name string, data []byte) (uint64, error) {
	m.puts++
	m.bytes += int64(len(data))
	if name == enclave.FreshnessTreeObjectName {
		m.sawBase, m.lastBase = true, int64(len(data))
	}
	return m.ObjectStore.PutVersioned(name, data)
}

// sweepTreeBytes measures the untrusted tree's persistence cost at the
// namespace size: it loads ids into a enclave.FreshnessStore, then runs
// small drain-sized batches for one full base-snapshot period — from
// just after one base put through the next — and returns the mean bytes
// put per batch and the size of a full snapshot.
func sweepTreeBytes(ids []uuid.UUID, rng *rand.Rand) (perBatch float64, snapshot int64, err error) {
	meter := &putMeter{ObjectStore: vfs.NewVersionedStore(backend.NewMemStore())}
	fs := enclave.NewFreshnessStore(meter)
	var epoch uint64
	apply := func(batch []merkle.LeafUpdate) error {
		if _, err := fs.FreshnessUpdate(epoch, batch); err != nil {
			return fmt.Errorf("bench: tree sweep at n=%d, epoch %d: %w", len(ids), epoch, err)
		}
		epoch++
		return nil
	}
	for lo := 0; lo < len(ids); lo += freshnessLoadBatch {
		hi := min(lo+freshnessLoadBatch, len(ids))
		batch := make([]merkle.LeafUpdate, 0, hi-lo)
		for i, id := range ids[lo:hi] {
			batch = append(batch, merkle.LeafUpdate{ID: id, Version: uint64(lo + i + 1)})
		}
		if err := apply(batch); err != nil {
			return 0, 0, err
		}
	}
	drain := func() error {
		batch := make([]merkle.LeafUpdate, freshnessDrainBatch)
		for i := range batch {
			batch[i] = merkle.LeafUpdate{ID: ids[rng.Intn(len(ids))], Version: epoch + 1}
		}
		return apply(batch)
	}
	for meter.sawBase = false; !meter.sawBase; {
		if err := drain(); err != nil {
			return 0, 0, err
		}
	}
	meter.puts, meter.bytes, meter.sawBase = 0, 0, false
	for !meter.sawBase {
		if err := drain(); err != nil {
			return 0, 0, err
		}
	}
	return float64(meter.bytes) / float64(meter.puts), meter.lastBase, nil
}

// sweepFlatLoads models the flat design's load path: the entire
// uuid→version table crosses the trust boundary and is decoded before
// the one version of interest can be checked. The wire shape mirrors
// the enclave's table object (seq, count, fixed-width entries).
func sweepFlatLoads(ids []uuid.UUID, rng *rand.Rand, runs int) (FreshnessRow, error) {
	w := serial.NewWriter(8 + 4 + len(ids)*flatEntryBytes)
	w.WriteUint64(uint64(len(ids))) // seq
	w.WriteUint32(uint32(len(ids)))
	for i, id := range ids {
		w.WriteRaw(id[:])
		w.WriteUint64(uint64(i + 1))
	}
	blob := w.Bytes()

	var bytes int64
	start := time.Now()
	for i := 0; i < runs; i++ {
		want := ids[rng.Intn(len(ids))]
		bytes += int64(len(blob))
		r := serial.NewReader(blob)
		r.ReadUint64("seq")
		count := r.ReadCount(1<<24, "entries")
		versions := make(map[uuid.UUID]uint64, count)
		var id uuid.UUID
		for j := 0; j < count; j++ {
			r.ReadRawInto(id[:], "id")
			versions[id] = r.ReadUint64("version")
		}
		if err := r.Finish(); err != nil {
			return FreshnessRow{}, fmt.Errorf("bench: flat sweep at n=%d: %w", len(ids), err)
		}
		if _, ok := versions[want]; !ok {
			return FreshnessRow{}, fmt.Errorf("bench: flat sweep at n=%d: lookup missed", len(ids))
		}
	}
	elapsed := time.Since(start)
	return FreshnessRow{
		Mode:              "flat",
		Objects:           len(ids),
		NsPerOp:           float64(elapsed.Nanoseconds()) / float64(runs),
		BytesPerOp:        float64(bytes) / float64(runs),
		StateBytes:        int64(len(ids)) * flatEntryBytes,
		TreeBytesPerBatch: float64(len(blob)),
	}, nil
}

// PrintFreshness renders the freshness-at-scale sweep.
func PrintFreshness(w io.Writer, rows []FreshnessRow) {
	fmt.Fprintln(w, "DESIGN.md §15 — Freshness verification vs namespace size (per metadata load; tree B/batch per drain)")
	fmt.Fprintf(w, "%-8s %10s %12s %14s %14s %14s %14s\n",
		"mode", "objects", "time/op", "bytes/op", "enclave state", "tree B/batch", "full snapshot")
	for _, r := range rows {
		snapshot := "-"
		if r.SnapshotBytes > 0 {
			snapshot = fmtBytes(r.SnapshotBytes)
		}
		fmt.Fprintf(w, "%-8s %10d %12s %14s %14s %14s %14s\n",
			r.Mode, r.Objects, fmtDur(time.Duration(r.NsPerOp)),
			fmtBytes(int64(r.BytesPerOp)), fmtBytes(r.StateBytes),
			fmtBytes(int64(r.TreeBytesPerBatch)), snapshot)
	}
	fmt.Fprintln(w)
}

// FreshnessMetrics converts sweep rows into the freshness_scale
// experiment for the JSON report. ProofBytesPerOp carries the evidence
// transfer per load and TreeBytesPerBatch the persistence cost per
// drain (both informational in the compare gate, like wrap counts: they
// move by design when tree geometry or table shape change).
func FreshnessMetrics(rows []FreshnessRow) Experiment {
	exp := make(Experiment)
	for _, r := range rows {
		exp[fmt.Sprintf("%s_%d_objects", r.Mode, r.Objects)] = Metric{
			NsPerOp:           r.NsPerOp,
			BytesPerOp:        r.BytesPerOp,
			ProofBytesPerOp:   r.BytesPerOp,
			TreeBytesPerBatch: r.TreeBytesPerBatch,
		}
	}
	return exp
}
