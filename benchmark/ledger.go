package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sybilwild/internal/detector"
	"sybilwild/internal/features"
	"sybilwild/internal/graph"
	"sybilwild/internal/osn"
	"sybilwild/internal/spool"
	"sybilwild/internal/wire"
)

// ledgerRounds is how often the stage ledger runs each topology; a
// row is the difference of two stages' best rounds.
const ledgerRounds = 2

// ledgerRows names the layer each stage adds to the one before it.
var ledgerRows = [...]string{
	stageGenerate: "loadgen.generate",
	stagePublish:  "stream.publish_ingest",
	stageSpool:    "spool.append",
	stageRelay:    "stream.relay_hop",
	stageRecv:     "stream.fanout_recv",
	stageIngest:   "detector.ingest",
}

// tracedRun is the run behind the per-layer metrics. It is never
// mixed with a timed run: it runs the stage ledger, pairs of an
// untraced and a traced repetition of the workload (their difference
// is the tracing overhead) and the direct-call rows, and writes the
// last traced repetition's spans next to the spools.
func (h *harness) tracedRun(workload string, runRep, warmup func(*tracer) rep, reps int, out string) report {
	var rp report
	rp.tally(warmup(nil))

	pairs := reps / 4
	if pairs < 1 {
		pairs = 1
	}
	// Ledger rounds and repetition pairs take turns, so that a loud
	// stretch of the machine lands on both sides of every comparison.
	var stages [len(ledgerRows)][]rep
	var plain, traced []rep
	var tracers []*tracer
	for i := 0; i < ledgerRounds || i < pairs; i++ {
		if i < ledgerRounds {
			for stage := range stages {
				stages[stage] = append(stages[stage], h.campaign(stage, 0, nil))
			}
		}
		if i < pairs {
			plain = append(plain, runRep(nil))
			tr := &tracer{}
			traced = append(traced, runRep(tr))
			tracers = append(tracers, tr)
		}
	}
	for _, s := range stages {
		rp.tally(s...)
	}
	rp.tally(plain...)
	rp.tally(traced...)

	ms, s5cpu := h.ledgerRows(stages)
	plainCPU, tracedCPU := h.best(plain).cpuNsPerEv, h.best(traced).cpuNsPerEv
	// The ledger's rows telescope to its last stage, which is the
	// campaign-saturate topology; coverage compares that sum with the
	// figure the workload's own untraced repetitions measured.
	e2e := s5cpu
	if workload == "campaign-saturate" {
		e2e = plainCPU
	}
	ms = append(ms,
		metric{"ledger.coverage", s5cpu / e2e, "ratio"},
		metric{"loadgen.trace_overhead_ns_per_ev", tracedCPU - plainCPU, "ns/ev"},
	)
	ms = append(ms, h.spanMetrics(traced, tracers)...)
	ms = append(ms, h.countMetrics(traced)...)
	ms = append(ms, h.directRows()...)
	ms = append(ms, metric{"loadgen.machine_spin_ms", machineSpin(), "ms"})
	rp.set(ms)

	path := filepath.Join(out, "trace-"+workload+".json")
	if err := tracers[len(tracers)-1].write(path, workload); err != nil {
		fmt.Fprintln(os.Stderr, "sybilbench: writing trace:", err)
	} else {
		fmt.Fprintln(os.Stderr, "sybilbench: spans of the last traced repetition in", path)
	}
	return rp
}

// ledgerRows differences the stages' best CPU and allocation per
// event: the feed ran, closed loop, through six topologies that each
// add one layer, so the rows sum to the last stage's cost by
// construction. It also returns that sum.
func (h *harness) ledgerRows(stages [len(ledgerRows)][]rep) (rows []metric, s5cpu float64) {
	var prevCPU, prevAlloc float64
	for stage, layer := range ledgerRows {
		f := h.best(stages[stage])
		rows = append(rows,
			metric{layer + "_cpu_ns_per_ev", f.cpuNsPerEv - prevCPU, "ns/ev"},
			metric{layer + "_alloc_bytes_per_ev", f.allocPerEv - prevAlloc, "B/ev"})
		prevCPU, prevAlloc = f.cpuNsPerEv, f.allocPerEv
	}
	return rows, prevCPU
}

// spanMetrics derives the transit times and busy shares from the
// traced repetitions' spans.
func (h *harness) spanMetrics(reps []rep, tracers []*tracer) []metric {
	lags := h.best(reps).lags
	var streamTransit, detTransit, late []float64
	var wall, creditWait, recvWait, ingest int64
	for i, tr := range tracers {
		wall += reps[i].wallNs
		creditWait += tr.total(spanCreditWait)
		recvWait += tr.total(spanRecv)
		ingest += tr.total(spanIngest)
		late = append(late, reps[i].lateMs...)

		published := make(map[uint64]int64) // chunk -> publish return
		for _, s := range tr.lanes[genLane] {
			if s.Name == spanPublish {
				published[s.ID] = s.End
			}
		}
		for w := 0; w < workers; w++ {
			// arrived is when the worker had the chunk in hand: its
			// RecvBatch returned, or (no sockets) its Ingest began.
			arrived := make(map[uint64]int64)
			for _, s := range tr.lanes[recvLane(w)] {
				switch s.Name {
				case spanRecv:
					arrived[s.ID] = s.End
					if t, ok := published[s.ID]; ok {
						streamTransit = append(streamTransit, float64(s.End-t)/1e6)
					}
				case spanIngest:
					if _, ok := arrived[s.ID]; !ok {
						arrived[s.ID] = s.Start
					}
				}
			}
			for _, s := range tr.lanes[flagLane(w)] {
				if t, ok := arrived[s.ID]; ok {
					detTransit = append(detTransit, float64(s.Start-t)/1e6)
				}
			}
		}
	}
	sort.Float64s(streamTransit)
	sort.Float64s(detTransit)
	sort.Float64s(late)
	share := func(ns int64, lanes int) float64 {
		if wall == 0 {
			return 0
		}
		return float64(ns) / float64(wall) / float64(lanes)
	}
	worst := 0.0
	if len(lags) > 0 {
		worst = lags[len(lags)-1]
	}
	return []metric{
		{"stream.transit_p50_ms", quantile(streamTransit, 0.5), "ms"},
		{"detector.transit_p50_ms", quantile(detTransit, 0.5), "ms"},
		{"loadgen.flag_lag_p99_ms", tailPercentile(lags, 0.99), "ms"},
		{"loadgen.flag_lag_max_ms", worst, "ms"},
		{"loadgen.samples", float64(len(lags)), "count"},
		{"loadgen.credit_wait_share", share(creditWait, 1), "ratio"},
		{"cluster.recv_wait_share", share(recvWait, workers), "ratio"},
		{"detector.ingest_share", share(ingest, workers), "ratio"},
		{"loadgen.late_p99_ms", tailPercentile(late, 0.99), "ms"},
	}
}

// countMetrics reads the exact counters off the public stats of the
// traced repetitions. Counts repeat exactly, so they are reported from
// the last repetition rather than as a median.
func (h *harness) countMetrics(reps []rep) []metric {
	f := h.feed
	r := reps[len(reps)-1]
	var evicted, resent uint64
	catchup := 0
	for _, x := range reps {
		evicted += x.evicted
		resent += x.resent
		if x.catchup > catchup {
			catchup = x.catchup
		}
	}
	n := float64(len(f.events))
	received, most := 0, 0
	for _, got := range r.received {
		received += got
		if got > most {
			most = got
		}
	}
	// A relay hop adopts canonical frames verbatim; the only encodes it
	// owes are the fbatch views of its K partitioned sessions.
	relayExtra := 0.0
	if r.relayFrames > 0 {
		relayExtra = float64(r.relayEncodes) - float64(f.filterFrames)
	}
	skew := 0.0
	if received > 0 {
		skew = float64(most) / (float64(received) / workers)
	}
	return []metric{
		{"stream.encodes_per_kev", float64(r.rootEncodes+r.relayEncodes) / n * 1000, "count"},
		{"stream.relay_encodes", relayExtra, "count"},
		{"stream.catchup_sessions", float64(catchup), "count"},
		{"stream.evicted", float64(evicted), "count"},
		{"stream.publisher_resent", float64(resent), "count"},
		{"cluster.replication_factor", float64(received) / n, "ratio"},
		{"cluster.partition_skew", skew, "ratio"},
		{"spool.segments", float64(r.segments), "count"},
	}
}

// timed runs fn once on this goroutine and returns its wall time and
// allocation per unit of work.
func timed(units int, fn func()) (nsPer, bytesPer float64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	ns := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(ns) / float64(units), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(units)
}

// directRows times single public functions alone over the feed's
// chunks, one function per pass, inputs prepared outside the clock.
func (h *harness) directRows() []metric {
	f := h.feed
	n := len(f.events)
	var ms []metric
	row := func(name, per string, units int, fn func()) {
		ns, b := timed(units, fn)
		ms = append(ms,
			metric{name + "_ns_per_" + per, ns, "ns/" + per},
			metric{name + "_alloc_bytes_per_" + per, b, "B/" + per})
	}
	warn := func(what string, err error) {
		fmt.Fprintf(os.Stderr, "sybilbench: direct rows: %s: %v\n", what, err)
	}

	// wire: batch frames.
	var buf []byte
	row("wire.encode_batch", "ev", n, func() {
		for c := 0; c < f.chunks(); c++ {
			buf = wire.AppendBatch(buf[:0], uint64(c*chunkSize)+1, f.chunk(c))
		}
	})
	payloads := make([][]byte, f.chunks())
	wireBytes := 0
	for c := range payloads {
		payloads[c] = wire.AppendBatch(nil, uint64(c*chunkSize)+1, f.chunk(c))
		wireBytes += 4 + len(payloads[c])
	}
	evbuf := make([]osn.Event, 0, chunkSize)
	row("wire.decode_batch", "ev", n, func() {
		for _, p := range payloads {
			if _, _, ok := wire.ParseBatch(p, evbuf[:0]); !ok {
				warn("wire.ParseBatch", fmt.Errorf("rejected its own encoder's frame"))
				return
			}
		}
	})
	ms = append(ms, metric{"wire.bytes_per_ev", float64(wireBytes) / float64(n), "B/ev"})

	// spool: append and read back those frames.
	dir := filepath.Join(h.dir, "direct-spool")
	sp, err := spool.Open(dir)
	if err != nil {
		warn("spool.Open", err)
	} else {
		row("spool.append_frame", "ev", n, func() {
			for c, p := range payloads {
				if _, err := sp.AppendFrame(uint64(c*chunkSize)+1, len(f.chunk(c)), p); err != nil {
					warn("AppendFrame", err)
					return
				}
			}
		})
		if err := sp.Close(); err != nil {
			warn("spool.Close", err)
		}
		st := sp.Stats()
		if sp, err = spool.Open(dir); err != nil {
			warn("spool.Open", err)
		} else {
			row("spool.read_frame", "ev", n, func() {
				rd, err := sp.ReadFrom(1)
				if err != nil {
					warn("ReadFrom", err)
					return
				}
				defer rd.Close()
				for {
					if _, _, _, err := rd.NextFrame(); err != nil {
						if err != io.EOF {
							warn("NextFrame", err)
						}
						return
					}
				}
			})
			sp.Close()
		}
		ms = append(ms, metric{"spool.bytes_per_ev", float64(st.Bytes) / float64(n), "B/ev"})
		os.RemoveAll(dir)
	}
	payloads = nil

	// wire: the filtered frames of partition 0.
	var keep []osn.Event
	var seqs []uint64
	offs := []int{0}
	for c := 0; c < f.chunks(); c++ {
		for i, ev := range f.chunk(c) {
			if osn.PartitionDelivers(ev, 0, workers) {
				keep = append(keep, ev)
				seqs = append(seqs, uint64(c*chunkSize+i)+1)
			}
		}
		offs = append(offs, len(keep))
	}
	last := func(c int) uint64 { return uint64(c*chunkSize + len(f.chunk(c))) }
	row("wire.encode_fbatch", "ev", len(keep), func() {
		for c := 0; c < f.chunks(); c++ {
			buf = wire.AppendFBatch(buf[:0], last(c), seqs[offs[c]:offs[c+1]], keep[offs[c]:offs[c+1]])
		}
	})
	fpayloads := make([][]byte, f.chunks())
	for c := range fpayloads {
		fpayloads[c] = wire.AppendFBatch(nil, last(c), seqs[offs[c]:offs[c+1]], keep[offs[c]:offs[c+1]])
	}
	seqbuf := make([]uint64, 0, chunkSize)
	row("wire.decode_fbatch", "ev", len(keep), func() {
		for _, p := range fpayloads {
			if _, _, _, ok := wire.ParseFBatch(p, evbuf[:0], seqbuf[:0]); !ok {
				warn("wire.ParseFBatch", fmt.Errorf("rejected its own encoder's frame"))
				return
			}
		}
	})
	keep, seqs, fpayloads = nil, nil, nil

	// detector state: one unpartitioned pipeline holding the whole feed.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p := detector.NewPipeline(h.rule, nil, detector.WithGraphReconstruction(), detector.WithShards(1))
	for c := 0; c < f.chunks(); c++ {
		p.Ingest(detector.Batch{Events: f.chunk(c)})
	}
	t0 := time.Now()
	snap := p.Snapshot() // a barrier: every ingested event is applied
	snapMs := float64(time.Since(t0)) / 1e6
	b, err := json.Marshal(snap)
	if err != nil {
		warn("snapshot encoding", err)
	}
	snapBytes := len(b)
	snap, b = nil, nil
	runtime.GC()
	runtime.ReadMemStats(&m1)
	p.Close()
	g := p.Graph()
	ms = append(ms,
		metric{"detector.snapshot_ms", snapMs, "ms"},
		metric{"detector.snapshot_bytes_per_account", float64(snapBytes) / float64(f.accounts), "B"},
		metric{"detector.heap_bytes_per_account", (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(f.accounts), "B"})

	// features, rule and clustering over that pipeline's graph.
	tr := features.NewTracker(g)
	row("features.update_actor", "ev", n, func() {
		for _, ev := range f.events {
			tr.UpdateActor(ev)
		}
	})
	requests, flagged := 0, 0
	for _, ev := range f.events {
		if ev.Type == osn.EvFriendRequest {
			requests++
		}
	}
	row("detector.classify", "call", requests, func() {
		for _, ev := range f.events {
			if ev.Type == osn.EvFriendRequest && h.rule.Classify(tr.CountsOf(ev.Actor)) {
				flagged++
			}
		}
	})
	var cc float64
	row("graph.clustering_first50", "call", f.accounts, func() {
		for id := 0; id < f.accounts; id++ {
			cc += g.ClusteringFirstK(graph.NodeID(id), features.FirstFriendsK)
		}
	})
	_, _ = flagged, cc
	return append(ms, metric{"detector.oracle_evps", f.oracleEvps, "ev/s"})
}

// machineSpin times a fixed amount of arithmetic, about 0.3 s on the
// box this benchmark was calibrated on. It touches no code of the
// repository, so when it moves between two runs the machine moved.
func machineSpin() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 140_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return float64(time.Since(t0)) / 1e6
}

var spinSink uint64
