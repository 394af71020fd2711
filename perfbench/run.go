package main

import (
	"bytes"
	"errors"
	"fmt"
	"path"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"nexus"
	"nexus/internal/netsim"
)

// runConfig is one pass of a workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration // measured op time to reach before the last round
	traced   bool
	sz       sizes

	// rounds and opLimit, when positive, fix the pass's length by count
	// instead of time (tests).
	rounds  int
	opLimit int
}

// minRounds is the fewest rounds of a timed pass, so set-up is timed
// several times and a time-based (mixed) round gets a third of the run.
const minRounds = 3

// sample is one timed op.
type sample struct {
	round int
	kind  kind
	dur   time.Duration
	bytes int64 // user bytes written or read
	up    int64 // wire bytes client to server during the op
}

// result is what one pass measured.
type result struct {
	attempted, failed int
	failures          []string // the first few, for stderr
	rounds            int
	setups            []time.Duration
	samples           []sample
	ledger            ledger // traced passes only
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// runPass runs rounds of the workload, each on a fresh testbed, until the
// measured op time reaches cfg.seconds (and at least minRounds rounds
// ran). A round is set-up (testbed, volume, pre-population), the timed
// ops, and an untimed durability check: FS.Sync, a remount in a fresh
// client, and a comparison of the whole volume against the shadow model.
func runPass(cfg runConfig) (*result, error) {
	res := &result{}
	rng := netsim.NewRand(cfg.seed)
	var measured time.Duration
	done := func(round int) bool {
		if cfg.rounds > 0 {
			return round == cfg.rounds
		}
		return round >= minRounds && measured >= cfg.seconds
	}
	round := 0
	for ; !done(round); round++ {
		gen, err := newGenerator(cfg.workload, rng, cfg.sz, cfg.seconds/minRounds, cfg.opLimit)
		if err != nil {
			return nil, err
		}
		d, err := runRound(cfg, gen, platformSeed(cfg.seed, round), res)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		measured += d
	}
	// Set-up is short next to a round on tree and bulk: time a few more
	// set-ups, within a small budget, so setup_s is a median of several.
	var extra time.Duration
	for ; cfg.rounds <= 0 && len(res.setups) < minSetups && extra+median(res.setups) <= setupBudget; round++ {
		gen, err := newGenerator(cfg.workload, rng, cfg.sz, 0, 0)
		if err != nil {
			return nil, err
		}
		tb, _, d, err := setUp(cfg, gen, platformSeed(cfg.seed, round))
		if err != nil {
			return nil, err
		}
		tb.close()
		res.setups = append(res.setups, d)
		extra += d
	}
	return res, nil
}

// Extra set-ups stop at minSetups samples or when the next would exceed
// setupBudget.
const (
	minSetups   = 9
	setupBudget = 2 * time.Second
)

func platformSeed(seed int64, round int) []byte {
	return fmt.Appendf(nil, "perfbench platform %d/%d", seed, round)
}

// setUp builds a fresh testbed and runs the generator's pre-population,
// returning the time both took.
func setUp(cfg runConfig, gen generator, platformSeed []byte) (*testbed, *shadow, time.Duration, error) {
	populate := gen.populate()
	// Start each set-up from a collected heap, so neither its time nor the
	// peak RSS depends on garbage left by the previous round.
	runtime.GC()
	start := time.Now()
	tb, err := newTestbed(cfg.traced, platformSeed)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("set-up: %w", err)
	}
	sh := newShadow()
	for _, st := range populate {
		if err := call(tb.fs, st, nil); err != nil {
			tb.close()
			return nil, nil, 0, fmt.Errorf("pre-population: %s %s: %w", st.kind, st.path, err)
		}
		sh.apply(st)
	}
	return tb, sh, time.Since(start), nil
}

// runRound runs one round and returns its measured op time.
func runRound(cfg runConfig, gen generator, platformSeed []byte, res *result) (time.Duration, error) {
	tb, sh, setup, err := setUp(cfg, gen, platformSeed)
	if err != nil {
		return 0, err
	}
	defer tb.close()
	res.setups = append(res.setups, setup)

	p := newProber(tb)
	var measured time.Duration
	for {
		st, ok := gen.next(measured)
		if !ok {
			break
		}
		if st.kind == opDrop {
			tb.dropCaches()
			continue
		}
		var got any
		before := p.read()
		t0 := time.Now()
		err := call(tb.fs, st, &got)
		dur := time.Since(t0)
		delta := p.read().sub(before)
		measured += dur
		if cfg.traced {
			res.ledger.record(dur, delta)
		}
		res.attempted++
		s := sample{round: res.rounds, kind: st.kind, dur: dur, up: delta[pWireUp], bytes: int64(len(st.data))}
		if b, ok := got.([]byte); ok {
			s.bytes = int64(len(b))
		}
		res.samples = append(res.samples, s)
		if err != nil {
			res.fail("%s %s: %v", st.kind, st.path, err)
		} else if msg := check(sh, st, got); msg != "" {
			res.fail("%s %s: %s", st.kind, st.path, msg)
		}
		// A failed write still enters the model: the remount check then
		// reports what did land.
		sh.apply(st)
	}

	res.rounds++
	if err := tb.fs.Sync(); err != nil {
		res.fail("sync: %v", err)
	}
	tb.afs.FlushCache() // the round's client is done; free its cache before the remount fills another
	if err := tb.remount(func(fs *nexus.FS) { verifyVolume(fs, sh, "/", res) }); err != nil {
		res.fail("remount: %v", err)
	}
	return measured, nil
}

// call issues one FS call; reads store their result in *got.
func call(fs *nexus.FS, st step, got *any) error {
	var v any
	var err error
	switch st.kind {
	case opWrite:
		err = fs.WriteFile(st.path, st.data)
	case opMkdir:
		err = fs.MkdirAll(st.path)
	case opTouch:
		err = fs.Touch(st.path)
	case opRemove:
		err = fs.Remove(st.path)
	case opRead:
		v, err = fs.ReadFile(st.path)
	case opReadDir:
		v, err = fs.ReadDir(st.path)
	case opStat:
		v, err = fs.Stat(st.path)
	default:
		err = fmt.Errorf("unexpected step %s", st.kind)
	}
	if got != nil {
		*got = v
	}
	return err
}

// check compares a read's result with the shadow model; "" means equal
// (and always for a write, whose result is nil).
func check(sh *shadow, st step, got any) string {
	switch v := got.(type) {
	case nil:
	case []byte:
		if !bytes.Equal(v, sh.files[st.path]) {
			return fmt.Sprintf("read %d bytes that differ from the %d written", len(v), len(sh.files[st.path]))
		}
	case []nexus.DirEntry:
		if names := entryNames(v); !slices.Equal(names, sh.listing(st.path)) {
			return fmt.Sprintf("listing %v, want %v", names, sh.listing(st.path))
		}
	case nexus.DirEntry:
		want, ok := sh.files[st.path]
		if !ok || v.IsDir || v.Size != uint64(len(want)) {
			return fmt.Sprintf("stat dir=%v size=%d, want a file of %d bytes", v.IsDir, v.Size, len(want))
		}
	default:
		return fmt.Sprintf("unexpected result %T", got)
	}
	return ""
}

func entryNames(entries []nexus.DirEntry) []string {
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir {
			names = append(names, e.Name+"/")
		} else {
			names = append(names, e.Name)
		}
	}
	sort.Strings(names)
	return names
}

// verifyVolume compares the namespace under dir and every file's bytes
// with the shadow model; each listing and file is one check.
func verifyVolume(fs *nexus.FS, sh *shadow, dir string, res *result) {
	res.attempted++
	entries, err := fs.ReadDir(dir)
	if err != nil {
		res.fail("remount: readdir %s: %v", dir, err)
		return
	}
	if names := entryNames(entries); !slices.Equal(names, sh.listing(dir)) {
		res.fail("remount: readdir %s: listing %v, want %v", dir, names, sh.listing(dir))
	}
	for _, name := range sh.listing(dir) {
		if sub, ok := strings.CutSuffix(name, "/"); ok {
			verifyVolume(fs, sh, path.Join(dir, sub), res)
			continue
		}
		p := path.Join(dir, name)
		res.attempted++
		data, err := fs.ReadFile(p)
		if err == nil && !bytes.Equal(data, sh.files[p]) {
			err = errors.New("contents differ from the shadow copy")
		}
		if err != nil {
			res.fail("remount: read %s: %v", p, err)
		}
	}
}
