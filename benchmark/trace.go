package main

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// Span names. A span brackets one harness call into a layer; every
// span of one chunk carries that chunk's first feed sequence as ID, so
// a chunk can be followed from hand-off to verdict.
const (
	spanPublish    = "loadgen.publish"     // handing one chunk to the first layer
	spanCreditWait = "loadgen.credit_wait" // generator blocked on the credit window
	spanRecv       = "cluster.recv"        // one RecvBatch call, wait included
	spanIngest     = "detector.ingest"     // one Pipeline.Ingest call
	spanFlag       = "detector.flag"       // instant: the flag hook fired
)

// span is one traced interval, in nanoseconds since the harness epoch.
type span struct {
	Name   string `json:"name"`
	Worker int    `json:"worker"` // -1 for the load generator
	ID     uint64 `json:"id"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps one repetition's spans in memory. Each lane is written
// by exactly one goroutine (lane 0 the generator, then per worker its
// receive loop and its pipeline's merge goroutine), so recording takes
// no lock; lanes are only read after those goroutines have stopped.
type tracer struct {
	lanes [1 + 2*workers][]span
}

const genLane = 0

func recvLane(w int) int { return 1 + w }
func flagLane(w int) int { return 1 + workers + w }

func (t *tracer) add(lane int, name string, worker int, id uint64, start, end int64) {
	if t == nil {
		return
	}
	t.lanes[lane] = append(t.lanes[lane], span{name, worker, id, start, end})
}

// total sums the durations of every span called name.
func (t *tracer) total(name string) int64 {
	var ns int64
	for _, lane := range t.lanes {
		for _, s := range lane {
			if s.Name == name {
				ns += s.End - s.Start
			}
		}
	}
	return ns
}

// chunkID is the span identifier of the chunk holding feed sequence
// seq (sequences are 1-based): that chunk's first sequence.
func chunkID(seq uint64) uint64 { return (seq-1)/chunkSize*chunkSize + 1 }

// write dumps the spans as one JSON document.
func (t *tracer) write(path, workload string) error {
	var all []span
	for _, lane := range t.lanes {
		all = append(all, lane...)
	}
	doc := struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, all}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
