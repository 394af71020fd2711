package main

import (
	"runtime/metrics"
	"time"

	"nexus"
)

// Probe fields: readings taken from outside the program before and after
// every op of the traced run. Registry readings are the counters and
// histogram sums the stack exports; the rest come from the benchmark's
// own wrappers.
const (
	pEcalls       = iota // sgx_ecalls_total
	pOcalls              // sgx_ocalls_total
	pEcallNs             // sgx_ecall_seconds sum: wall time inside ecalls
	pInEnclaveNs         // sgx_time_in_enclave_ns_total: ecall wall minus ocall bodies
	pMetaIONs            // enclave_metadata_io_ns_total: metadata ocalls incl. transition
	pDataIONs            // enclave_data_io_ns_total: data ocalls incl. transition
	pCryptoNs            // enclave_chunk_crypto_seconds sum
	pChunks              // enclave_chunk_crypto_chunks_total
	pPoolHits            // enclave_chunk_pool_hits_total
	pPoolMisses          // enclave_chunk_pool_misses_total
	pMetaLoads           // enclave_metadata_loads_total: decrypt-and-verify of a fetched object
	pMetaHits            // enclave_metadata_cache_hits_total
	pMetaFlushes         // enclave_metadata_flushes_total
	pFlushBatches        // enclave_flush_batches_total
	pProofs              // enclave_freshness_proofs_total
	pProofBytes          // enclave_freshness_proof_bytes_total
	pRootUpdates         // enclave_freshness_root_updates_total
	pDedupHits           // enclave_dedup_hits_total
	pDedupUploads        // enclave_dedup_chunks_uploaded_total
	pDedupSkipped        // enclave_dedup_bytes_skipped_total
	pRPCs                // afs_rpcs_total
	pRPCNs               // afs_rpc_seconds sum
	pAFSHits             // afs_cache_hits_total
	pRetries             // afs_retries_total
	pServerNs            // afs_server_request_seconds sum (server registry)
	pStoreNs             // timing decorator: wall time in the AFS client
	pUnlockNs            // timing decorator: wall time in lock release functions
	pGets                // timing decorator call counts
	pPuts
	pStreams
	pDeletes
	pLocks
	pWireUp   // wire listener: bytes the server read
	pWireDown // wire listener: bytes the server wrote
	pAlloc    // runtime: /gc/heap/allocs:bytes
	numProbes
)

type probe [numProbes]int64

func (p *probe) add(q probe) {
	for i := range p {
		p[i] += q[i]
	}
}

func (p probe) sub(q probe) probe {
	for i := range p {
		p[i] -= q[i]
	}
	return p
}

// prober reads a testbed's probe fields. It resolves every instrument
// once, so a reading is a few atomic loads and histogram copies.
type prober struct {
	tb       *testbed
	counters [numProbes]interface{ Value() int64 }
	hists    [numProbes]interface{ Snapshot() nexus.HistSnapshot }
	alloc    []metrics.Sample
}

func newProber(tb *testbed) *prober {
	p := &prober{tb: tb, alloc: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
	for i, name := range map[int]string{
		pEcalls: "sgx_ecalls_total", pOcalls: "sgx_ocalls_total",
		pInEnclaveNs: "sgx_time_in_enclave_ns_total",
		pMetaIONs:    "enclave_metadata_io_ns_total", pDataIONs: "enclave_data_io_ns_total",
		pChunks: "enclave_chunk_crypto_chunks_total", pPoolHits: "enclave_chunk_pool_hits_total",
		pPoolMisses: "enclave_chunk_pool_misses_total", pMetaLoads: "enclave_metadata_loads_total",
		pMetaHits: "enclave_metadata_cache_hits_total", pMetaFlushes: "enclave_metadata_flushes_total",
		pFlushBatches: "enclave_flush_batches_total", pProofs: "enclave_freshness_proofs_total",
		pProofBytes: "enclave_freshness_proof_bytes_total", pRootUpdates: "enclave_freshness_root_updates_total",
		pDedupHits: "enclave_dedup_hits_total", pDedupUploads: "enclave_dedup_chunks_uploaded_total",
		pDedupSkipped: "enclave_dedup_bytes_skipped_total",
		pRPCs:         "afs_rpcs_total", pAFSHits: "afs_cache_hits_total", pRetries: "afs_retries_total",
	} {
		p.counters[i] = tb.obs.Counter(name)
	}
	p.hists[pEcallNs] = tb.obs.Histogram("sgx_ecall_seconds")
	p.hists[pCryptoNs] = tb.obs.Histogram("enclave_chunk_crypto_seconds")
	p.hists[pRPCNs] = tb.obs.Histogram("afs_rpc_seconds")
	p.hists[pServerNs] = tb.srvObs.Histogram("afs_server_request_seconds")
	return p
}

// read takes one reading. Without the timing decorator (untraced run)
// only the wire counters are read.
func (p *prober) read() probe {
	var r probe
	r[pWireUp] = p.tb.wire.up.Load()
	r[pWireDown] = p.tb.wire.down.Load()
	t := p.tb.timing
	if t == nil {
		return r
	}
	for i, c := range p.counters {
		if c != nil {
			r[i] = c.Value()
		}
	}
	for i, h := range p.hists {
		if h != nil {
			r[i] = h.Snapshot().SumNs
		}
	}
	r[pStoreNs], r[pUnlockNs] = t.ns.Load(), t.unlockNs.Load()
	r[pGets], r[pPuts], r[pStreams] = t.gets.Load(), t.puts.Load(), t.streams.Load()
	r[pDeletes], r[pLocks] = t.deletes.Load(), t.locks.Load()
	metrics.Read(p.alloc)
	r[pAlloc] = int64(p.alloc[0].Value.Uint64())
	return r
}

// ledger accumulates the traced run's per-op probe deltas.
type ledger struct {
	ops  int
	wall time.Duration
	sum  probe
	// overlapNs is the chunk-crypto time of ops that streamed their data
	// upload: those chunks are sealed by worker goroutines while the
	// calling goroutine waits in the store, so the time is already inside
	// the afs term.
	overlapNs int64
}

func (l *ledger) record(wall time.Duration, d probe) {
	l.ops++
	l.wall += wall
	l.sum.add(d)
	if d[pStreams] > 0 {
		l.overlapNs += d[pCryptoNs]
	}
}

// terms splits the op wall time into exclusive layer times, in
// nanoseconds. Together with -overlap they add up to the wall time.
type terms struct {
	vfsSelf, transition, enclaveSelf, crypto, freshSelf, afs, overlap int64
	resident                                                          int64 // enclaveSelf plus the crypto run inside ecalls
}

func (l *ledger) terms() terms {
	s := l.sum
	cost := int64(transitionCost)
	t := terms{
		vfsSelf:    int64(l.wall) - s[pEcallNs],
		transition: (s[pEcalls] + s[pOcalls]) * cost,
		crypto:     s[pCryptoNs],
		afs:        s[pStoreNs] + s[pUnlockNs],
		overlap:    l.overlapNs,
	}
	t.resident = s[pInEnclaveNs] - t.transition
	// Lock releases run inside ecalls without an ocall: their store time
	// moves from the enclave to the afs term.
	t.enclaveSelf = t.resident - (t.crypto - t.overlap) - s[pUnlockNs]
	// Every other store call is an ocall metered by the enclave; what
	// the ocall bodies spend beyond the decorator is the freshness proof
	// service stacked above it.
	ocallBodies := s[pMetaIONs] + s[pDataIONs] - s[pOcalls]*cost
	t.freshSelf = ocallBodies - s[pStoreNs]
	return t
}

func (t terms) total() int64 {
	return t.vfsSelf + t.transition + t.enclaveSelf + t.crypto + t.freshSelf + t.afs - t.overlap
}

// metrics renders the per-layer metrics, per op.
func (l *ledger) metrics(out map[string]metric) {
	s := l.sum
	n := float64(max(l.ops, 1))
	perOp := func(name string, v int64, unit string) { out[name] = metric{float64(v) / n, unit} }
	msPerOp := func(name string, ns int64) { out[name] = metric{float64(ns) / 1e6 / n, "ms"} }
	ratio := func(name string, hit, total int64) {
		v := 0.0
		if total > 0 {
			v = float64(hit) / float64(total)
		}
		out[name] = metric{v, "ratio"}
	}
	t := l.terms()

	msPerOp("ledger.wall_ms_per_op", int64(l.wall))
	msPerOp("ledger.overlap_ms_per_op", t.overlap)
	out["ledger.residual_pct"] = metric{100 * float64(t.total()-int64(l.wall)) / float64(max(l.wall, 1)), "%"}

	msPerOp("vfs.self_ms_per_op", t.vfsSelf)

	perOp("sgx.ecalls_per_op", s[pEcalls], "count")
	perOp("sgx.ocalls_per_op", s[pOcalls], "count")
	msPerOp("sgx.transition_ms_per_op", t.transition)

	msPerOp("enclave.resident_ms_per_op", t.resident)
	msPerOp("enclave.self_ms_per_op", t.enclaveSelf)
	perOp("enclave.meta_loads_per_op", s[pMetaLoads], "count")
	ratio("enclave.meta_cache_hit_ratio", s[pMetaHits], s[pMetaHits]+s[pMetaLoads])
	perOp("enclave.meta_flushes_per_op", s[pMetaFlushes], "count")
	perOp("enclave.flush_batches_per_op", s[pFlushBatches], "count")
	msPerOp("enclave.meta_io_ms_per_op", s[pMetaIONs])
	msPerOp("enclave.data_io_ms_per_op", s[pDataIONs])

	msPerOp("enclave.chunk_crypto_ms_per_op", t.crypto)
	perOp("enclave.chunks_per_op", s[pChunks], "count")
	ratio("enclave.pool_hit_ratio", s[pPoolHits], s[pPoolHits]+s[pPoolMisses])

	perOp("freshness.proofs_per_op", s[pProofs], "count")
	perOp("freshness.proof_bytes_per_op", s[pProofBytes], "B")
	perOp("freshness.root_updates_per_op", s[pRootUpdates], "count")
	msPerOp("freshness.store_self_ms_per_op", t.freshSelf)

	perOp("afs.get_per_op", s[pGets], "count")
	perOp("afs.put_per_op", s[pPuts]+s[pStreams], "count")
	perOp("afs.delete_per_op", s[pDeletes], "count")
	perOp("afs.lock_per_op", s[pLocks], "count")
	msPerOp("afs.ms_per_op", t.afs)
	msPerOp("afs.unlock_ms_per_op", s[pUnlockNs])
	perOp("afs.rpcs_per_op", s[pRPCs], "count")
	msPerOp("afs.rpc_ms_per_op", s[pRPCNs])
	msPerOp("afs.server_ms_per_op", s[pServerNs])
	ratio("afs.cache_hit_ratio", s[pAFSHits], s[pGets])
	perOp("afs.retries_per_op", s[pRetries], "count")

	perOp("wire.bytes_up_per_op", s[pWireUp], "B")
	perOp("wire.bytes_down_per_op", s[pWireDown], "B")

	ratio("cas.dedup_hit_ratio", s[pDedupHits], s[pDedupHits]+s[pDedupUploads])
	perOp("cas.bytes_skipped_per_op", s[pDedupSkipped], "B")

	perOp("go.alloc_bytes_per_op", s[pAlloc], "B")
}
