package wire

import (
	"encoding/json"
	"testing"
)

// TestRebalRoundTrip: every announcement, the barrier's full uint64
// range included, comes back whole through the decoder clients read
// it with.
func TestRebalRoundTrip(t *testing.T) {
	cases := []Rebal{
		{Barrier: 0, Parts: 2, NParts: 1},
		{Barrier: 1, Parts: 3, NParts: 5},
		{Barrier: 1<<63 + 7, Parts: 4, NParts: 2},
	}
	for _, r := range cases {
		enc := AppendRebal(nil, r)
		got, ok := decodeRebal(enc)
		if !ok || got != r {
			t.Fatalf("round trip %+v: wire %q gave %+v ok=%v", r, enc, got, ok)
		}
	}
}

// The encoding must stay plain JSON: generic decoders (the stream
// client's control-frame path) read the same fields.
func TestRebalIsPlainJSON(t *testing.T) {
	enc := AppendRebal(nil, Rebal{Barrier: 42, Parts: 3, NParts: 5})
	if !IsControl(enc) {
		t.Fatalf("rebal %q is not a control frame", enc)
	}
	r, ok := decodeRebal(enc)
	if !ok || r != (Rebal{Barrier: 42, Parts: 3, NParts: 5}) {
		t.Fatalf("JSON view mismatch: %+v ok=%v from %q", r, ok, enc)
	}
}

// decodeRebal reads a rebal frame the way a client does: as JSON.
func decodeRebal(payload []byte) (Rebal, bool) {
	var f struct {
		T       string `json:"t"`
		Barrier uint64 `json:"barrier"`
		Parts   int    `json:"parts"`
		NParts  int    `json:"nparts"`
	}
	if json.Unmarshal(payload, &f) != nil || f.T != "rebal" {
		return Rebal{}, false
	}
	return Rebal{Barrier: f.Barrier, Parts: f.Parts, NParts: f.NParts}, true
}
