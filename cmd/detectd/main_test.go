package main

import (
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"sybilwild/internal/cluster"
	"sybilwild/internal/detector"
)

// TestParseArgs maps command lines onto the worker configuration and
// mode they run, and holds every rejection of an inconsistent
// combination.
func TestParseArgs(t *testing.T) {
	// defaults is the configuration of a bare `detectd`.
	defaults := cluster.Config{
		Addr:       "127.0.0.1:7474",
		Rule:       detector.Rule{OutAcceptMax: 0.5, FreqMin: 20, CCMax: 0.05, MinObserved: 10},
		CheckEvery: 5,
		Retries:    10,
		Every:      10 * time.Second,
	}
	with := func(edit func(*cluster.Config)) cluster.Config {
		c := defaults
		edit(&c)
		return c
	}
	for _, tc := range []struct {
		args    []string
		want    options // ignored when wantErr is set
		wantErr string
	}{
		{args: nil, want: options{cfg: defaults}},
		{
			args: []string{"-addr", "10.0.0.1:9", "-checkpoint-every", "2s",
				"-from-start", "-retries", "3",
				"-check-every", "1", "-out-accept", "0.4", "-freq", "15", "-cc", "0.1", "-min-requests", "7"},
			want: options{cfg: with(func(c *cluster.Config) {
				c.Addr, c.Every = "10.0.0.1:9", 2*time.Second
				c.FromStart, c.Retries, c.CheckEvery = true, 3, 1
				c.Rule = detector.Rule{OutAcceptMax: 0.4, FreqMin: 15, CCMax: 0.1, MinObserved: 7}
			})},
		},
		{
			args: []string{"-partition", "2/4", "-handoff"},
			want: options{cfg: with(func(c *cluster.Config) {
				c.Part, c.Parts, c.Handoff = 2, 4, true
			})},
		},
		{
			// A whole-feed worker keeps its state at the broker's key 0/1.
			args: []string{"-handoff"},
			want: options{cfg: with(func(c *cluster.Config) { c.Handoff = true })},
		},
		{
			args: []string{"-addr", "h:1", "-rebalance", "3/5"},
			want: options{rebalanceFrom: 3, rebalanceTo: 5,
				cfg: with(func(c *cluster.Config) { c.Addr = "h:1" })},
		},
		// -rebalance only prepares, so it waits for nothing: the timeout
		// is gone, and a command line naming it is refused.
		{args: []string{"-addr", "h:1", "-rebalance", "3/5", "-rebalance-timeout", "30s"}, wantErr: "flag provided but not defined: -rebalance-timeout"},
		// -standby is gone: a spare is a second detectd with the same
		// flags, which waits while the key is held. The command lines
		// that named it, the one it ran and the ones it refused, are all
		// refused now.
		{args: []string{"-partition", "1/2", "-handoff", "-standby"}, wantErr: "flag provided but not defined: -standby"},
		{args: []string{"-partition", "0/2", "-standby"}, wantErr: "flag provided but not defined: -standby"},
		{args: []string{"-handoff", "-standby"}, wantErr: "flag provided but not defined: -standby"},
		{args: []string{"-standby"}, wantErr: "flag provided but not defined: -standby"},
		// The checkpoint dir and the lag flag are gone: the state lives at
		// the broker, which also sets the lag. An old command line that
		// still names either is refused, not run without it.
		{args: []string{"-checkpoint-max-lag", "-1"}, wantErr: "flag provided but not defined: -checkpoint-max-lag"},
		{args: []string{"-checkpoint-dir", "d", "-checkpoint-max-lag", "-1"}, wantErr: "flag provided but not defined: -checkpoint-dir"},
		{args: []string{"-partition", "2"}, wantErr: "want i/K"},
		{args: []string{"-partition", "a/b"}, wantErr: "want i/K"},
		{args: []string{"-partition", "0/4/8"}, wantErr: "want i/K"},
		{args: []string{"-partition", "2/3 "}, wantErr: "want i/K"},
		{args: []string{"-partition", "2/2"}, wantErr: "partition index out of range"},
		{args: []string{"-partition", "-1/3"}, wantErr: "partition index out of range"},
		{args: []string{"-rebalance", "3"}, wantErr: "want K/K'"},
		{args: []string{"-rebalance", "x/5"}, wantErr: "want K/K'"},
		{args: []string{"-rebalance", "3/5x"}, wantErr: "want K/K'"},
		{args: []string{"-rebalance", "2/2"}, wantErr: "need K >= 2, K' >= 1, K != K'"},
		{args: []string{"-rebalance", "1/3"}, wantErr: "need K >= 2, K' >= 1, K != K'"},
		{args: []string{"-shards", "4"}, wantErr: "flag provided but not defined"},
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
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("parsed\n %+v\nwant\n %+v", got, tc.want)
			}
		})
	}
}
