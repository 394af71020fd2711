package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"path"
	"sort"
	"strings"
	"time"

	"nexus/internal/netsim"
	"nexus/internal/workload"
)

// kind is one FS call of a workload.
type kind int

const (
	opWrite   kind = iota // FS.WriteFile
	opMkdir               // FS.MkdirAll
	opTouch               // FS.Touch
	opRemove              // FS.Remove
	opRead                // FS.ReadFile
	opReadDir             // FS.ReadDir
	opStat                // FS.Stat
	opDrop                // untimed: drop the AFS and enclave caches
	opEdit                // mixed only: becomes an opWrite of an edited document
)

var kindNames = [...]string{"write", "mkdir", "touch", "remove", "read", "readdir", "stat", "drop", "edit"}

func (k kind) String() string { return kindNames[k] }

// isRead reports the read class of the end-to-end latency metrics.
func (k kind) isRead() bool { return k == opRead || k == opReadDir || k == opStat }

// step is one operation the benchmark issues. data is the full payload of
// a write; reads are checked against the shadow model instead.
type step struct {
	kind kind
	path string
	data []byte
}

// shadow is the expected namespace and contents of a volume.
type shadow struct {
	files    map[string][]byte
	children map[string]map[string]bool // dir -> child name -> is a dir
}

func newShadow() *shadow {
	return &shadow{files: map[string][]byte{}, children: map[string]map[string]bool{"/": {}}}
}

// apply records the effect of a mutating step.
func (s *shadow) apply(st step) {
	switch st.kind {
	case opMkdir:
		if st.path == "/" || s.children[st.path] != nil {
			return
		}
		s.apply(step{kind: opMkdir, path: path.Dir(st.path)})
		s.children[st.path] = map[string]bool{}
		s.children[path.Dir(st.path)][path.Base(st.path)] = true
	case opWrite, opTouch:
		s.files[st.path] = st.data
		s.children[path.Dir(st.path)][path.Base(st.path)] = false
	case opRemove:
		delete(s.files, st.path)
		delete(s.children[path.Dir(st.path)], path.Base(st.path))
	}
}

// listing is a directory's expected ReadDir result, sorted by name.
func (s *shadow) listing(dir string) []string {
	out := make([]string, 0, len(s.children[dir]))
	for name, isDir := range s.children[dir] {
		if isDir {
			name += "/"
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// walk returns the read steps of a depth-first walk from dir: ReadDir of
// every directory, and Stat then ReadFile of every file, in name order.
func (s *shadow) walk(dir string) []step {
	steps := []step{{kind: opReadDir, path: dir}}
	for _, name := range s.listing(dir) {
		if strings.HasSuffix(name, "/") {
			steps = append(steps, s.walk(path.Join(dir, strings.TrimSuffix(name, "/")))...)
			continue
		}
		p := path.Join(dir, name)
		steps = append(steps, step{kind: opStat, path: p}, step{kind: opRead, path: p})
	}
	return steps
}

// sizes parameterise the workloads; the benchmark runs fullSizes and the
// tests a scaled-down copy.
type sizes struct {
	tree workload.TreeSpec // materialised by the tree workload

	bulkFiles int   // files per bulk round
	bulkBytes int64 // bytes per bulk file

	mixedDirs, mixedFilesPerDir int
	mixedMinFile, mixedMaxFile  int64 // small-file size range (log-uniform)
	mixedDocs                   int
	mixedDocBytes               int64
	mixedEditBytes              int // bytes changed per edit-save
}

var fullSizes = sizes{
	tree: workload.Redis,

	// 16 MiB is above the enclave's 4 MiB streaming cutoff, so every
	// bulk write takes the encrypt-while-upload path.
	bulkFiles: 4,
	bulkBytes: 16 << 20,

	mixedDirs: 20, mixedFilesPerDir: 10,
	mixedMinFile: 256, mixedMaxFile: 32 << 10,
	mixedDocs: 4, mixedDocBytes: 1 << 20, mixedEditBytes: 64,
}

// generator produces the inputs of one workload from its seed. Each
// round runs on a fresh testbed: populate is the untimed set-up, and
// next yields the timed steps until it returns false.
type generator interface {
	populate() []step
	// next returns the round's next step; elapsed is the round's
	// measured op time so far.
	next(elapsed time.Duration) (step, bool)
}

// workloads are the benchmark's workload names.
var workloads = []string{"tree", "bulk", "mixed"}

// newGenerator builds the named workload's generator for one round.
// roundTime bounds a time-based round (mixed); opLimit, when positive,
// bounds it by op count instead so tests are exactly repeatable.
func newGenerator(name string, rng *netsim.Rand, sz sizes, roundTime time.Duration, opLimit int) (generator, error) {
	switch name {
	case "tree":
		return newTreeGen(rng, sz), nil
	case "bulk":
		return newBulkGen(rng, sz), nil
	case "mixed":
		return newMixedGen(rng, sz, roundTime, opLimit), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want tree, bulk or mixed)", name)
}

// listGen replays fixed step lists.
type listGen struct {
	setup, steps []step
	i            int
}

func (g *listGen) populate() []step { return g.setup }

func (g *listGen) next(time.Duration) (step, bool) {
	if g.i == len(g.steps) {
		return step{}, false
	}
	g.i++
	return g.steps[g.i-1], true
}

// newTreeGen: git clone then grep. The workload.Redis shape (618 files
// in 60 directories, log-uniform sizes 256 B to 256 KiB) drawn from the
// seed is written into the fresh volume, the caches are dropped, and the
// tree is walked and every file read back.
func newTreeGen(rng *netsim.Rand, sz sizes) *listGen {
	spec := sz.tree
	spec.Seed = rng.Int63()
	tree := workload.Generate(spec)
	// Redraw the sizes stratified, so every seed writes about the same
	// bytes and the throughput metrics compare like with like.
	for i, size := range logUniformSizes(rng, len(tree.Files), spec.MinFileSize, spec.MaxFileSize) {
		tree.Files[i].Size = size
	}
	root := "/" + spec.Name
	sh := newShadow()
	var steps []step
	add := func(st step) {
		sh.apply(st)
		steps = append(steps, st)
	}
	add(step{kind: opMkdir, path: root})
	for _, d := range tree.Dirs {
		add(step{kind: opMkdir, path: path.Join(root, d)})
	}
	for _, f := range tree.Files {
		add(step{kind: opWrite, path: path.Join(root, f.Path), data: fill(rng, f.Size)})
	}
	steps = append(steps, step{kind: opDrop})
	steps = append(steps, sh.walk(root)...)
	return &listGen{steps: steps}
}

// newBulkGen: whole-file I/O above the streaming cutoff. The files are
// written into a directory made at set-up, the caches dropped, and the
// files read back.
func newBulkGen(rng *netsim.Rand, sz sizes) *listGen {
	var writes, reads []step
	for i := 0; i < sz.bulkFiles; i++ {
		p := fmt.Sprintf("/bulk/f%02d", i)
		writes = append(writes, step{kind: opWrite, path: p, data: fill(rng, sz.bulkBytes)})
		reads = append(reads, step{kind: opRead, path: p})
	}
	steps := append(writes, step{kind: opDrop})
	return &listGen{setup: []step{{kind: opMkdir, path: "/bulk"}}, steps: append(steps, reads...)}
}

// mixDeck is one block of the mixed workload: 60% small-file reads, 10%
// directory listings, 15% small-file overwrites, 5% touch-then-remove,
// and 10% edit-saves of a document (opEdit). Every block of 20 ops is
// dealt in a seeded order, so every run has exactly this mix.
var mixDeck = []kind{
	opRead, opRead, opRead, opRead, opRead, opRead, opRead, opRead, opRead, opRead, opRead, opRead,
	opReadDir, opReadDir,
	opWrite, opWrite, opWrite,
	opTouch,
	opEdit, opEdit,
}

// mixedGen: a warm-cache op mix over a pre-populated volume.
type mixedGen struct {
	rng       *netsim.Rand
	sz        sizes
	roundTime time.Duration
	opLimit   int
	ops       int

	dirs, files, docs []string
	fileSize          map[string]int64 // small files
	docData           map[string][]byte
	deck              []int // indices into mixDeck still to deal
	readOrder         []int // indices into files still to read this round
	pendingRemove     string
	temps             int
}

func newMixedGen(rng *netsim.Rand, sz sizes, roundTime time.Duration, opLimit int) *mixedGen {
	return &mixedGen{rng: rng, sz: sz, roundTime: roundTime, opLimit: opLimit,
		fileSize: map[string]int64{}, docData: map[string][]byte{}}
}

func (g *mixedGen) populate() []step {
	var steps []step
	sizes := logUniformSizes(g.rng, g.sz.mixedDirs*g.sz.mixedFilesPerDir, g.sz.mixedMinFile, g.sz.mixedMaxFile)
	for d := 0; d < g.sz.mixedDirs; d++ {
		dir := fmt.Sprintf("/m/d%02d", d)
		g.dirs = append(g.dirs, dir)
		steps = append(steps, step{kind: opMkdir, path: dir})
		for f := 0; f < g.sz.mixedFilesPerDir; f++ {
			p := fmt.Sprintf("%s/f%03d", dir, f)
			g.fileSize[p] = sizes[len(g.files)]
			g.files = append(g.files, p)
			steps = append(steps, step{kind: opWrite, path: p, data: fill(g.rng, g.fileSize[p])})
		}
	}
	g.dirs = append(g.dirs, "/m/docs")
	steps = append(steps, step{kind: opMkdir, path: "/m/docs"})
	for i := 0; i < g.sz.mixedDocs; i++ {
		p := fmt.Sprintf("/m/docs/doc%d", i)
		g.docs = append(g.docs, p)
		g.docData[p] = fill(g.rng, g.sz.mixedDocBytes)
		steps = append(steps, step{kind: opWrite, path: p, data: g.docData[p]})
	}
	return steps
}

func (g *mixedGen) pick(list []string) string { return list[g.rng.Intn(len(list))] }

func (g *mixedGen) next(elapsed time.Duration) (step, bool) {
	if g.pendingRemove != "" {
		p := g.pendingRemove
		g.pendingRemove = ""
		return step{kind: opRemove, path: p}, true
	}
	if g.opLimit > 0 && g.ops >= g.opLimit || g.opLimit <= 0 && elapsed >= g.roundTime {
		return step{}, false
	}
	g.ops++
	if len(g.deck) == 0 {
		g.deck = shuffled(g.rng, len(mixDeck))
	}
	k := mixDeck[g.deck[0]]
	g.deck = g.deck[1:]
	switch k {
	case opRead:
		// Reads go through the files in seeded rounds, each file once per
		// round, so the bytes a run reads do not depend on which sizes
		// random picks happened to favour.
		if len(g.readOrder) == 0 {
			g.readOrder = shuffled(g.rng, len(g.files))
		}
		p := g.files[g.readOrder[0]]
		g.readOrder = g.readOrder[1:]
		return step{kind: opRead, path: p}, true
	case opReadDir:
		return step{kind: opReadDir, path: g.pick(g.dirs)}, true
	case opWrite:
		// An overwrite keeps the file's size, so the population's size
		// distribution, and with it the bytes a read returns, holds.
		p := g.pick(g.files)
		return step{kind: opWrite, path: p, data: fill(g.rng, g.fileSize[p])}, true
	case opTouch:
		g.temps++
		p := fmt.Sprintf("%s/tmp%06d", g.pick(g.dirs), g.temps)
		g.pendingRemove = p
		return step{kind: opTouch, path: p}, true
	default: // opEdit
		p := g.pick(g.docs)
		doc := append([]byte(nil), g.docData[p]...)
		off := g.rng.Intn(len(doc) - g.sz.mixedEditBytes + 1)
		_, _ = g.rng.Read(doc[off : off+g.sz.mixedEditBytes])
		g.docData[p] = doc
		return step{kind: opWrite, path: p, data: doc}, true
	}
}

// shuffled returns a seeded permutation of 0..n-1.
func shuffled(rng *netsim.Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		j := rng.Intn(i + 1)
		p[i], p[j] = p[j], i
	}
	return p
}

// fill returns n pseudo-random bytes drawn from a stream seeded by rng
// (a local SplitMix64, so 16 MiB fills quickly).
func fill(rng *netsim.Rand, n int64) []byte {
	b := make([]byte, n+7)
	for x, i := rng.Uint64(), int64(0); i < n; i += 8 {
		x += 0x9E3779B97F4A7C15
		z := (x ^ x>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		binary.LittleEndian.PutUint64(b[i:], z^z>>31)
	}
	return b[:n:n]
}

// logUniformSizes draws n sizes from [lo, hi) log-uniformly, stratified:
// one from each of n equal-probability bands, in seeded order. The total
// then varies far less between seeds than n independent draws would.
func logUniformSizes(rng *netsim.Rand, n int, lo, hi int64) []int64 {
	sizes := make([]int64, n)
	for i, band := range shuffled(rng, n) {
		q := (float64(band) + rng.Float64()) / float64(n)
		sizes[i] = int64(float64(lo) * math.Pow(float64(hi)/float64(lo), q))
	}
	return sizes
}
