package main

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"sybilwild/internal/agents"
	"sybilwild/internal/sim"
	"sybilwild/internal/stream"
)

// TestParseArgs maps command lines onto the producer configuration and
// holds the rejection of a producer index outside its group.
func TestParseArgs(t *testing.T) {
	// defaults is the configuration of a bare `renrend`.
	defaults := config{addr: "127.0.0.1:7474", id: "p0", producers: 1, seed: 1, normals: 6000, sybils: 80, hours: 400}
	for _, tc := range []struct {
		args    []string
		want    config // ignored when wantErr is set
		wantErr string
	}{
		{args: nil, want: defaults},
		{
			args: []string{"-addr", "10.0.0.1:9", "-seed", "7", "-normals", "1500", "-sybils", "20", "-hours", "150",
				"-maxrate", "8000", "-producers", "3", "-producer-index", "2"},
			want: config{addr: "10.0.0.1:9", id: "p2", producers: 3, index: 2, seed: 7, normals: 1500, sybils: 20, hours: 150, maxRate: 8000},
		},
		{
			args: []string{"-producer-id", "frontend-a"},
			want: config{addr: "127.0.0.1:7474", id: "frontend-a", producers: 1, seed: 1, normals: 6000, sybils: 80, hours: 400},
		},
		{args: []string{"-producer-index", "1"}, wantErr: "-producer-index 1 out of range [0, 1)"},
		{args: []string{"-producers", "3", "-producer-index", "3"}, wantErr: "out of range [0, 3)"},
		{args: []string{"-producers", "3", "-producer-index", "-1"}, wantErr: "out of range [0, 3)"},
		{args: []string{"-producers", "0"}, wantErr: "out of range [0, 0)"},
		// renrend runs no broker: broker flags and a mode switch are unknown.
		{args: []string{"-publish", "127.0.0.1:7474"}, wantErr: "flag provided but not defined"},
		{args: []string{"-spool-dir", "d"}, wantErr: "flag provided but not defined"},
		{args: []string{"-wait", "1s"}, wantErr: "flag provided but not defined"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			got, err := parseArgs(tc.args, io.Discard)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("parsed\n %+v\nwant\n %+v", got, tc.want)
			}
		})
	}
}

// TestTwoProducersPublishOneCampaign runs a K=2 producer group into a
// broker given no spool: the group's epochs close, and the producers'
// sequenced events add up to exactly one full simulation's log.
func TestTwoProducersPublishOneCampaign(t *testing.T) {
	const seed, normals, sybils, hours = 5, 400, 10, 60
	pop := agents.NewPopulation(seed, agents.DefaultParams())
	pop.Bootstrap(normals)
	pop.LaunchSybils(sybils, hours/4*sim.TicksPerHour)
	pop.RunFor(hours * sim.TicksPerHour)
	want := uint64(len(pop.Net.Events()))

	srv, err := stream.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const producers = 2
	errs := make(chan error, producers)
	for i := 0; i < producers; i++ {
		c := config{addr: srv.Addr(), id: fmt.Sprintf("p%d", i), producers: producers, index: i,
			seed: seed, normals: normals, sybils: sybils, hours: hours}
		go func() { errs <- publish(c, io.Discard) }()
	}
	for i := 0; i < producers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-srv.IngestDone():
	case <-time.After(10 * time.Second):
		t.Fatal("IngestDone did not close after every producer closed its epoch")
	}
	st := srv.Stats()
	if len(st.PerProducer) != producers {
		t.Fatalf("broker registered %d producers, want %d", len(st.PerProducer), producers)
	}
	var got uint64
	for _, ps := range st.PerProducer {
		if ps.Events == 0 {
			t.Fatalf("producer %s published nothing; population too small for the test", ps.ID)
		}
		got += ps.Events
	}
	if got != want {
		t.Fatalf("producers sequenced %d events, one simulation emits %d", got, want)
	}
	if st.Broadcast != want {
		t.Fatalf("broker sent %d events, want %d", st.Broadcast, want)
	}
}
